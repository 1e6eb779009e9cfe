from dataclasses import dataclass

import pytest

from torusarena.mergecheck import (
    ExplorationBound,
    builtin_scenarios,
    chain_model,
    check_confluence,
    check_deadlock_free,
    check_has_trace,
    check_reaches_done,
    explore,
    run_standard_checks,
)


class TestExplore:
    def test_two_agent_single_sighting_has_one_done_terminal(self):
        graph = explore(chain_model(2, 1))
        terminals = graph.terminal_ids()
        assert len(terminals) >= 1
        assert all(graph.states[t].done for t in terminals)
        # All terminals collapse to the same agreement.
        assert check_confluence(graph)

    def test_three_agent_interference_terminals_share_leader(self):
        graph = explore(chain_model(3, 2))
        for t in graph.terminal_ids():
            state = graph.states[t]
            assert state.done
            leaders = {l for _, l in state.leaders}
            assert leaders == {"a1"}

    def test_dropped_notify_leaves_non_done_terminal_with_trace(self):
        graph = explore(chain_model(2, 1, drop_notify=frozenset(["a2"])))
        bad = [t for t in graph.terminal_ids() if not graph.states[t].done]
        assert bad
        verdict = check_deadlock_free(graph)
        assert not verdict
        assert verdict.counterexample is not None
        assert any(label.startswith("absorb") for label in verdict.counterexample)

    def test_exploration_soundness_replay(self):
        # Every stored trace must replay through the transition rules to the
        # state it is recorded for.
        model = chain_model(3, 2)
        graph = explore(model)
        for sid in range(0, len(graph.states), 37):  # sample across the graph
            state = model.initial_state()
            for label in graph.traces[sid]:
                matches = [e for e in model.enabled(state) if e.label == label]
                assert matches, f"trace event {label} refused during replay"
                state = model.apply(state, matches[0])
            assert state == graph.states[sid]


class TestDeadlockFree:
    def test_nominal_models_pass(self):
        assert check_deadlock_free(explore(chain_model(2, 1)))
        assert check_deadlock_free(explore(chain_model(3, 2)))

    def test_dropped_notify_fails(self):
        graph = explore(chain_model(3, 2, drop_notify=frozenset(["a2"])))
        assert not check_deadlock_free(graph)


class TestReachesDone:
    def test_two_agent_both_variants(self):
        graph = explore(chain_model(2, 1))
        assert check_reaches_done(graph)
        assert check_reaches_done(graph, strong=True)

    def test_interference_model_passes(self):
        graph = explore(chain_model(3, 2))
        assert check_reaches_done(graph, strong=True)

    def test_dropped_message_fails_strong(self):
        graph = explore(chain_model(2, 1, drop_notify=frozenset(["a2"])))
        assert check_reaches_done(graph) is not None
        assert not check_reaches_done(graph, strong=True)


class TestConfluence:
    def test_nominal_models_confluent(self):
        assert check_confluence(explore(chain_model(2, 1)))
        assert check_confluence(explore(chain_model(3, 2)))
        assert check_confluence(explore(chain_model(4, 3)))

    def test_both_claim_victory_diverges(self):
        graph = explore(chain_model(2, 1, both_claim_victory=True))
        verdict = check_confluence(graph)
        assert not verdict
        assert verdict.counterexample is not None

    def test_frame_offsets_consistent_across_terminals(self):
        model = chain_model(3, 2)
        graph = explore(model)
        for t in graph.terminal_ids():
            offsets = dict(graph.states[t].offsets)
            # Ground truth: offsets to the final leader mirror world geometry.
            for a, off in offsets.items():
                pa, pl = model.positions[a], model.positions["a1"]
                assert off == (pa[0] - pl[0], pa[1] - pl[1])


class TestHasTrace:
    def test_all_builtin_scenarios_pass(self):
        for sc in builtin_scenarios():
            graph = explore(sc.model)
            verdict = check_has_trace(sc.model, graph, sc.trace)
            assert verdict, f"{sc.name}: {verdict.detail}"

    def test_causality_violation_fails(self):
        model = chain_model(2, 1)
        graph = explore(model)
        bad = ("sight a1 a2", "propose a2 a1", "report a1")
        verdict = check_has_trace(model, graph, bad)
        assert not verdict
        assert "propose" in verdict.detail

    def test_unknown_event_is_input_error(self):
        model = chain_model(2, 1)
        graph = explore(model)
        with pytest.raises(ValueError):
            check_has_trace(model, graph, ("sight a1 a2", "teleport a1"))
        with pytest.raises(ValueError):
            check_has_trace(model, graph, ("sight a1 a9",))


def test_standard_checks_all_pass_up_to_four_agents():
    for n, k in [(2, 1), (3, 2), (4, 2), (4, 3)]:
        verdicts = run_standard_checks(chain_model(n, k))
        assert all(verdicts), [v.name for v in verdicts if not v]


def test_sightings_beyond_the_chain_are_rejected():
    with pytest.raises(ValueError, match="1 to 3 sightings"):
        chain_model(4, 5)
    with pytest.raises(ValueError):
        chain_model(3, 0)


def test_exploration_beyond_the_state_bound_raises(monkeypatch):
    monkeypatch.setattr("torusarena.mergecheck.STATE_BOUND", 100)
    with pytest.raises(ExplorationBound) as e:
        explore(chain_model(3, 2))  # 109 states
    assert e.value.trace


def test_scenarios_have_six_entries():
    assert len(builtin_scenarios()) == 6
    assert len({sc.name for sc in builtin_scenarios()}) == 6


@pytest.mark.parametrize(
    "n, k, states, edges",
    [(2, 1, 13, 14), (3, 2, 109, 192), (4, 2, 125, 224), (4, 3, 693, 1626)],
)
def test_chain_model_state_space_is_pinned(n, k, states, edges):
    # A change to the state abstraction (a field that splits or merges
    # states) shows up here before it shows up as a slower checker.
    graph = explore(chain_model(n, k))
    assert (len(graph.states), sum(len(out) for out in graph.edges)) == (states, edges)


@dataclass(frozen=True)
class Step:
    label: str


@dataclass(frozen=True)
class Count:
    value: int
    done: bool = False


class Counter:
    """A transition system with no merge protocol in it: count up from 0 by
    1 or 2 to `top`, then finish. A counter that can only add 2 from an odd
    start never finishes on an even top."""

    def __init__(self, top: int, start: int = 0, steps: tuple[int, ...] = (1, 2)):
        self.top, self.start, self.steps = top, start, steps

    def initial_state(self) -> Count:
        return Count(self.start)

    def enabled(self, state: Count) -> list[Step]:
        if state.done:
            return []
        if state.value == self.top:
            return [Step("done")]
        return [Step(f"add {n}") for n in self.steps if state.value + n <= self.top]

    def apply(self, state: Count, event: Step) -> Count:
        if event.label == "done":
            return Count(state.value, done=True)
        return Count(state.value + int(event.label.split()[1]))

    def alphabet_ok(self, label: str) -> bool:
        return label == "done" or label in (f"add {n}" for n in self.steps)


class TestAnyTransitionSystem:
    def test_counter_graph_and_checks(self):
        system = Counter(4)
        graph = explore(system)
        # Values 0..4 plus the done state; from v < 3 two moves, from 3 one.
        assert [s.value for s in graph.states] == [0, 1, 2, 3, 4, 4]
        assert sum(len(out) for out in graph.edges) == 3 * 2 + 1 + 1
        assert graph.traces[graph.done_ids()[0]] == ("add 2", "add 2", "done")
        assert check_deadlock_free(graph)
        assert check_reaches_done(graph, strong=True)

    def test_counter_traces(self):
        system = Counter(4)
        graph = explore(system)
        assert check_has_trace(system, graph, ("add 1", "add 1", "add 2", "done"))
        refused = check_has_trace(system, graph, ("add 2", "add 2", "add 1"))
        assert not refused and refused.counterexample == ("add 2", "add 2")
        with pytest.raises(ValueError):
            check_has_trace(system, graph, ("add 3",))

    def test_stuck_counter_fails_the_checks(self):
        graph = explore(Counter(4, start=1, steps=(2,)))
        verdict = check_deadlock_free(graph)
        assert not verdict and verdict.counterexample == ("add 2",)
        assert not check_reaches_done(graph)
