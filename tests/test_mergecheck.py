import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from torusarena.mapping import MapStore
from torusarena.merge_protocol import MergeProtocol, Sighting
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


def test_standard_checks_pass_on_five_agents():
    verdicts = run_standard_checks(chain_model(5, 4))
    assert all(verdicts), [v.name for v in verdicts if not v]


def test_agents_beyond_a9_are_rejected():
    assert chain_model(9, 1).agents[-1] == "a9"
    with pytest.raises(ValueError, match="2 to 9 agents"):
        chain_model(10, 1)
    with pytest.raises(ValueError, match="2 to 9 agents"):
        chain_model(1, 1)


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
    [(2, 1, 13, 14), (3, 2, 109, 192), (4, 2, 125, 224), (4, 3, 693, 1626), (5, 4, 3829, 11050)],
)
def test_chain_model_state_space_is_pinned(n, k, states, edges):
    # A change to the state abstraction (a field that splits or merges
    # states) shows up here before it shows up as a slower checker.
    graph = explore(chain_model(n, k))
    assert (len(graph.states), sum(len(out) for out in graph.edges)) == (states, edges)


def _load_reference_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference_tool = _load_reference_tool()

# Graph digests computed before the engine's states became plain tuples.
CHAIN_DIGESTS = [
    pytest.param(
        (4, 3), {}, "f1c72467cdcbcc5c45b6a4c32c6a6d0c4fe88a11c02040e49896a3935331fca0", id="4-3"
    ),
    pytest.param(
        (2, 1),
        {"drop_notify": frozenset({"a2"})},
        "40a909960fa3e980d27d5f04b795775f61dc8504024cddbb654fc046e1c4bcaf",
        id="2-1-drop-notify-a2",
    ),
    pytest.param(
        (3, 2),
        {"both_claim_victory": True},
        "ef4ee1ac3392e3e54e2c207891b1b37084188849ee923929cc631bf2ec26d1e6",
        id="3-2-both-claim-victory",
    ),
]
SCENARIO_DIGESTS = {
    "nominal-two-agent": "1d3b0819cbadda2ce2f2dcae880c49cc3cf204babde16735afe87684cfa273dc",
    "reports-reordered": "1d3b0819cbadda2ce2f2dcae880c49cc3cf204babde16735afe87684cfa273dc",
    "sequential-growth": "febc173fd330bcdc6db167325e7d9e93868599ef81806bbeb9ef4cfd475731ee",
    "interference-overlap": "febc173fd330bcdc6db167325e7d9e93868599ef81806bbeb9ef4cfd475731ee",
    "larger-group-absorbs": "aa7229242f9c8ba6c3e11f2df76ac9481a31d8f1ccfedaae5819d61230687763",
    "same-group-cancel": "30025b796754b4897a237c263295d5d5d5f0369b9f46fae1a505d5751b9a95de",
}


@pytest.mark.parametrize("args, faults, digest", CHAIN_DIGESTS)
def test_chain_graph_is_pinned(args, faults, digest):
    # Every state's fields, its sorted edges and its trace: a rewrite of the
    # engine must explore the very same graph, not one of the same size.
    assert reference_tool.graph_digest(explore(chain_model(*args, **faults))) == digest


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_graph_is_pinned(name):
    model = next(sc.model for sc in builtin_scenarios() if sc.name == name)
    assert reference_tool.graph_digest(explore(model)) == SCENARIO_DIGESTS[name]


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_instance_merges_every_group_table(n):
    # The live path (MapStore._run_instance) runs one sighting to quiescence
    # over whatever group table the team has. Over every partition of n
    # agents into groups, led by their smallest or by their largest member
    # at true offsets, every cross-group sighting must merge the two groups
    # under the rule's winner at true offsets and leave the rest alone, and
    # MapStore.process_merges must record that merge.
    agents = tuple(f"a{i + 1}" for i in range(n))
    store = MapStore(agents)
    start = {a: (4 * i, i * i) for i, a in enumerate(agents)}
    here = {a: (4 * i + 1, i * i - i) for i, a in enumerate(agents)}

    def apart(p, q):
        return (p[0] - q[0], p[1] - q[1])

    for groups in _set_partitions(list(agents)):
        for pick in (min, max):
            leaders = {m: pick(g) for g in groups for m in g}
            offsets = {m: apart(start[m], start[l]) for m, l in leaders.items()}
            pairs = [(g, h) for g in groups for h in groups if g is not h]
            for ga, gb in pairs:
                for a, b in ((a, b) for a in ga for b in gb):
                    s = Sighting(
                        a=a,
                        b=b,
                        offset=apart(here[b], here[a]),
                        pos_a=apart(here[a], start[a]),
                        pos_b=apart(here[b], start[b]),
                    )
                    engine = MergeProtocol(agents, (s,), leaders=leaders, offsets=offsets)
                    final, transcript = engine.run_to_quiescence(engine.initial_state())
                    la, lb, na, nb = leaders[a], leaders[b], len(ga), len(gb)
                    won = la if na > nb or (na == nb and la < lb) else lb
                    assert engine.winner_loser(engine.initial_state(), 0)[0] == won
                    # The live record reads the same run: its winner, the
                    # losing group in name order, the same transcript.
                    store.leaders, store.offsets = dict(leaders), dict(offsets)
                    (record,) = store.process_merges([s])
                    lost = sorted(gb if won == la else ga)
                    assert (record.winner, record.absorbed) == (won, tuple(lost))
                    assert record.transcript == tuple(transcript)
                    table, offs = dict(final.leaders), dict(final.offsets)
                    for m in agents:
                        if m in ga or m in gb:
                            assert (table[m], offs[m]) == (won, apart(start[m], start[won]))
                        else:
                            assert (table[m], offs[m]) == (leaders[m], offsets[m])
                    assert final.queue == () and final.lock is None


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

    def test_edges_and_traces_read_back_per_state(self):
        # Both are stored flat; each state's entry reads back as a whole.
        graph = explore(Counter(4))
        assert len(graph.edges) == len(graph.traces) == len(graph.states) == 6
        assert graph.edges[0] == [("add 1", 1), ("add 2", 2)]
        assert graph.edges[4] == [("done", 5)] and graph.edges[5] == []
        assert list(graph.edges.successors(3)) == [4]
        assert graph.traces[0] == () and graph.traces[3] == ("add 1", "add 2")
        assert list(graph.traces)[4] == ("add 2", "add 2")
        for seq in (graph.edges, graph.traces):
            with pytest.raises(IndexError):
                seq[6]
            with pytest.raises(IndexError):
                seq[-1]

    def test_stuck_counter_fails_the_checks(self):
        graph = explore(Counter(4, start=1, steps=(2,)))
        verdict = check_deadlock_free(graph)
        assert not verdict and verdict.counterexample == ("add 2",)
        assert not check_reaches_done(graph)


def replay_has_trace(system, graph, trace):
    """Has-trace by re-execution, the reference for the checker's walk over
    the explored edges: every state the trace's prefix reaches from the
    initial state, found through the system's own enabled and apply.
    Returns (passed, counterexample)."""
    for label in trace:
        if not system.alphabet_ok(label):
            raise ValueError(f"unknown event name in trace: {label!r}")
    frontier = {graph.states[0]}
    for pos, label in enumerate(trace):
        nxt = set()
        for state in frontier:
            for event in system.enabled(state):
                if event.label == label:
                    nxt.add(system.apply(state, event))
        if not nxt:
            return False, tuple(trace[:pos])
        frontier = nxt
    return True, None


def _perturbed_traces(graph, count, seed):
    """Prefixes of the graph's own traces with one to three of its edge
    labels appended, which the rules often refuse."""
    rng = random.Random(seed)
    labels = sorted({label for out in graph.edges for label, _ in out})
    for _ in range(count):
        trace = graph.traces[rng.randrange(len(graph.states))]
        trace = trace[: rng.randint(0, len(trace))]
        yield trace + tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))


def _has_trace_cases():
    """(system, graph, trace): the scenarios, the refused and unknown-label
    traces above, and on chain_model(4, 3) and its two fault models every
    done state's witness plus 300 perturbed traces."""
    for sc in builtin_scenarios():
        yield sc.model, explore(sc.model), sc.trace
    two = chain_model(2, 1)
    graph = explore(two)
    for trace in (
        ("sight a1 a2", "propose a2 a1", "report a1"),
        ("sight a1 a2", "teleport a1"),
        ("sight a1 a9",),
    ):
        yield two, graph, trace
    counter = Counter(4)
    graph = explore(counter)
    for trace in (("add 1", "add 1", "add 2", "done"), ("add 2", "add 2", "add 1"), ("add 3",)):
        yield counter, graph, trace
    faults = ({}, {"both_claim_victory": True}, {"drop_notify": frozenset({"a2"})})
    for seed, fault in enumerate(faults):
        model = chain_model(4, 3, **fault)
        graph = explore(model)
        for i in graph.done_ids():
            yield model, graph, graph.traces[i]
        for trace in _perturbed_traces(graph, 300, seed):
            yield model, graph, trace


def test_has_trace_walk_agrees_with_re_execution():
    # check_has_trace follows the explored edges; re-running the rules must
    # give the same verdict and counterexample, or the same input error.
    passed = []
    for system, graph, trace in _has_trace_cases():
        try:
            expected = replay_has_trace(system, graph, trace)
        except ValueError:
            with pytest.raises(ValueError):
                check_has_trace(system, graph, trace)
            continue
        verdict = check_has_trace(system, graph, trace)
        assert (verdict.passed, verdict.counterexample) == expected, trace
        passed.append(verdict.passed)
    # 1 085 traces with a verdict (264 performable) and 3 input errors.
    assert (len(passed), passed.count(True)) == (1085, 264)
