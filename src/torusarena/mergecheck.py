"""Explicit-state checker for the map-merge protocol.

The explorer runs any transition system: an object with `initial_state()`,
`enabled(state)` (a sorted list of events, each with a printable `label`)
and `apply(state, event)`, whose states are hashable and say whether they
are `done`. The has-trace check walks the explored graph's edges and asks
the system only `alphabet_ok(label)`. `MergeProtocol` is one, so every
interleaving of the rules live merges use is explored over a scripted
sighting schedule and checked for the properties the protocol is trusted
for: no deadlocks, a reachable (and, strongly, inevitable) done state where
all agents share one leader, specific traces being performable, and
confluence of all terminal states. Fault injections (dropped notifies, a
broken leader decision) exist to prove the checks can fail loudly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Optional

from .merge_protocol import MergeProtocol, Sighting
from .torus import sub

Trace = tuple[str, ...]

SPACING = 4  # cells between neighbouring agents of a chain model
STATE_BOUND = 200_000  # explore gives up beyond this many states


class ExplorationBound(RuntimeError):
    def __init__(self, bound: int, trace: Trace):
        super().__init__(f"state bound {bound} exceeded at trace of length {len(trace)}")
        self.trace = trace


def chain_model(
    n_agents: int = 3,
    n_sightings: int = 2,
    initial_leaders: Optional[dict[str, str]] = None,
    drop_notify: frozenset[str] = frozenset(),
    both_claim_victory: bool = False,
    pairs: Optional[tuple[tuple[str, str], ...]] = None,
) -> MergeProtocol:
    """Agents on a line sighting each other consecutively. When the schedule
    has fewer sightings than merges needed, the uncovered tail starts
    pre-merged into one group, so a done state (full unification) stays
    reachable and the merge meets a larger group along the way. A chain has
    n_agents - 1 links, so more sightings than that are rejected; richer
    schedules go through `pairs`. Pre-merged agents start at their true
    offsets to their leader. Agents are named a1 to a9, so that their names
    sort in agent order."""
    if not 2 <= n_agents <= 9:
        raise ValueError(
            "the model supports 2 to 9 agents: past a9, names stop sorting in agent order"
        )
    agents = tuple(f"a{i + 1}" for i in range(n_agents))
    positions = {a: (i * SPACING, 0) for i, a in enumerate(agents)}
    if pairs is None:
        if not 1 <= n_sightings <= n_agents - 1:
            raise ValueError(f"a chain of {n_agents} agents supports 1 to {n_agents - 1} sightings")
        pairs = tuple((agents[i], agents[i + 1]) for i in range(n_sightings))
        if initial_leaders is None and n_sightings < n_agents - 1:
            head = agents[n_sightings]
            initial_leaders = {a: a for a in agents[: n_sightings]}
            initial_leaders.update({a: head for a in agents[n_sightings:]})
    offsets = None
    if initial_leaders is not None:
        offsets = {a: sub(positions[a], positions[initial_leaders[a]]) for a in agents}
    schedule = tuple(Sighting(a=a, b=b, offset=sub(positions[b], positions[a])) for a, b in pairs)
    return MergeProtocol(
        agents=agents,
        schedule=schedule,
        leaders=initial_leaders,
        offsets=offsets,
        positions=positions,
        drop_notify=drop_notify,
        both_claim_victory=both_claim_victory,
    )


class Traces:
    """One shortest trace per state, kept as the state it was first reached
    from and the label of that edge, so memory grows with the states and not
    with their depth. A trace is rebuilt when it is read."""

    def __init__(self) -> None:
        self.parents: list[int] = [-1]  # state 0 is the initial state
        self.labels: list[str] = [""]

    def add(self, parent: int, label: str) -> None:
        self.parents.append(parent)
        self.labels.append(label)

    def __len__(self) -> int:
        return len(self.parents)

    def __getitem__(self, sid: int) -> Trace:
        if not 0 <= sid < len(self.parents):
            raise IndexError(sid)
        out = []
        while sid:
            out.append(self.labels[sid])
            sid = self.parents[sid]
        return tuple(reversed(out))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class Edges:
    """Each state's (label, successor) edges, sorted, kept flat: state i's
    edges are entries starts[i] to starts[i + 1] of `labels` and `targets`,
    so an edge costs two slots rather than a tuple. Reading a state's edges
    builds their pairs."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.targets = array("l")
        self.starts = array("l", [0])

    def add(self, out: list[tuple[str, int]]) -> None:
        """Append the next state's edges."""
        for label, nid in sorted(out):
            self.labels.append(label)
            self.targets.append(nid)
        self.starts.append(len(self.labels))

    def successors(self, sid: int) -> array:
        return self.targets[self.starts[sid] : self.starts[sid + 1]]

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, sid: int) -> list[tuple[str, int]]:
        if not 0 <= sid < len(self):
            raise IndexError(sid)
        lo, hi = self.starts[sid], self.starts[sid + 1]
        return list(zip(self.labels[lo:hi], self.targets[lo:hi]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class StateGraph:
    states: list[Any]  # states[0] is the initial state
    edges: Edges  # per state: (label, successor) sorted
    traces: Traces  # one shortest trace per state

    def terminal_ids(self) -> list[int]:
        return [i for i in range(len(self.states)) if not self.edges.successors(i)]

    def done_ids(self) -> list[int]:
        return [i for i, s in enumerate(self.states) if s.done]


def explore(system) -> StateGraph:
    """Full reachable state graph of a transition system under every event
    interleaving, breadth first: states are numbered as they are found and
    expanded in that order."""
    init = system.initial_state()
    index = {init: 0}
    states = [init]
    traces = Traces()
    edges = Edges()
    for sid, state in enumerate(states):  # grows while it is walked
        out = []
        for event in system.enabled(state):
            nxt = system.apply(state, event)
            nid = index.get(nxt)
            if nid is None:
                nid = len(states)
                if nid >= STATE_BOUND:
                    raise ExplorationBound(STATE_BOUND, traces[sid] + (event.label,))
                index[nxt] = nid
                states.append(nxt)
                traces.add(sid, event.label)
            out.append((event.label, nid))
        edges.add(out)
    return StateGraph(states=states, edges=edges, traces=traces)


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""
    counterexample: Optional[Trace] = None

    def __bool__(self) -> bool:
        return self.passed


def check_deadlock_free(graph: StateGraph) -> Verdict:
    """Every state that is not done must offer at least one transition."""
    for i, state in enumerate(graph.states):
        if not state.done and not graph.edges.successors(i):
            return Verdict(
                "deadlock-free",
                False,
                f"state {i} has no outgoing transitions",
                graph.traces[i],
            )
    return Verdict("deadlock-free", True, f"{len(graph.states)} states")


def check_reaches_done(graph: StateGraph, strong: bool = False) -> Verdict:
    name = "reaches-done (strong)" if strong else "reaches-done"
    done = set(graph.done_ids())
    if not done:
        return Verdict(name, False, "no done state reachable", graph.traces[0])
    if not strong:
        return Verdict(name, True, f"{len(done)} done states")
    # Strong: every terminal is done and done stays reachable everywhere.
    for t in graph.terminal_ids():
        if t not in done:
            return Verdict(name, False, f"terminal state {t} is not done", graph.traces[t])
    reach_done = _states_reaching(graph, done)
    for i in range(len(graph.states)):
        if not reach_done[i]:
            return Verdict(
                name, False, f"done unreachable from state {i}", graph.traces[i]
            )
    return Verdict(name, True, f"all {len(graph.states)} states lead to done")


def _states_reaching(graph: StateGraph, targets: set[int]) -> bytearray:
    """A 1 for each state with a path into `targets`. Sweeps from the last
    state to the first until a sweep adds none, so no reverse edge lists are
    built; breadth-first ids mostly grow along an edge, so few sweeps run."""
    reach = bytearray(len(graph.states))
    for t in targets:
        reach[t] = 1
    added = True
    while added:
        added = False
        for src in range(len(graph.states) - 1, -1, -1):
            if not reach[src]:
                for dst in graph.edges.successors(src):
                    if reach[dst]:
                        reach[src], added = 1, True
                        break
    return reach


def check_has_trace(system, graph: StateGraph, trace: Trace) -> Verdict:
    """The trace must be performable from the initial state, i.e. a prefix
    of some path with no event refused along the way. It is followed along
    the explored edges, as the set of states its prefix can reach. A label
    outside the system's alphabet is an input error."""
    for label in trace:
        if not system.alphabet_ok(label):
            raise ValueError(f"unknown event name in trace: {label!r}")
    frontier = {0}
    for pos, label in enumerate(trace):
        frontier = {nid for sid in frontier for edge, nid in graph.edges[sid] if edge == label}
        if not frontier:
            return Verdict(
                "has-trace",
                False,
                f"event {label!r} refused at position {pos}",
                tuple(trace[:pos]),
            )
    return Verdict("has-trace", True, f"{len(trace)} events")


def check_confluence(graph: StateGraph) -> Verdict:
    """All terminal states must be done, agree on the final leader, and
    carry pairwise-consistent frame offsets."""
    terminals = graph.terminal_ids()
    if not terminals:
        return Verdict("confluence", False, "no terminal states")
    reference: Optional[tuple] = None
    ref_id = terminals[0]
    for t in terminals:
        state = graph.states[t]
        if not state.done:
            return Verdict("confluence", False, f"terminal {t} not done", graph.traces[t])
        leaders = {l for _, l in state.leaders}
        offsets = dict(state.offsets)
        base = offsets[min(offsets)]
        rel = tuple(
            (a, (off[0] - base[0], off[1] - base[1])) for a, off in sorted(offsets.items())
        )
        signature = (tuple(sorted(leaders)), rel)
        if reference is None:
            reference = signature
            ref_id = t
        elif signature != reference:
            return Verdict(
                "confluence",
                False,
                f"terminals {ref_id} and {t} diverge "
                f"(leaders {reference[0]} vs {signature[0]})",
                graph.traces[t],
            )
    return Verdict("confluence", True, f"{len(terminals)} terminal states agree")


# ----------------------------------------------------------------- scenarios


@dataclass
class Scenario:
    name: str
    model: MergeProtocol
    trace: Trace


def builtin_scenarios() -> list[Scenario]:
    """Six reconstructed protocol runs used as has-trace regression checks."""
    two = chain_model(2, 1)
    seq = chain_model(3, 2)  # sequential-growth and interference-overlap
    grown = chain_model(
        3,
        1,
        initial_leaders={"a1": "a1", "a2": "a1", "a3": "a3"},
        pairs=(("a2", "a3"),),
    )
    cancel = chain_model(2, 1, initial_leaders={"a1": "a1", "a2": "a1"})
    return [
        Scenario(
            "nominal-two-agent",
            two,
            (
                "sight a1 a2",
                "report a1",
                "report a2",
                "propose a2 a1",
                "absorb a1",
                "notify a2",
                "done",
            ),
        ),
        Scenario(
            "reports-reordered",
            two,
            (
                "sight a1 a2",
                "report a2",
                "report a1",
                "propose a2 a1",
                "absorb a1",
                "notify a2",
                "done",
            ),
        ),
        Scenario(
            "sequential-growth",
            seq,
            (
                "sight a1 a2",
                "report a1",
                "report a2",
                "propose a2 a1",
                "absorb a1",
                "notify a2",
                "sight a2 a3",
                "report a2",
                "report a3",
                "propose a3 a1",
                "absorb a1",
                "notify a3",
                "done",
            ),
        ),
        Scenario(
            "interference-overlap",
            seq,
            _interference_trace(seq),
        ),
        Scenario(
            "larger-group-absorbs",
            grown,
            (
                "sight a2 a3",
                "report a2",
                "report a3",
                "propose a3 a1",
                "absorb a1",
                "notify a3",
                "done",
            ),
        ),
        Scenario(
            "same-group-cancel",
            cancel,
            (
                "sight a1 a2",
                "report a1",
                "report a2",
                "cancel a1 a2",
                "done",
            ),
        ),
    ]


def _interference_trace(model: MergeProtocol) -> Trace:
    """Canonical overlapped run of the 3-agent two-sighting model, derived
    from the deterministic execution policy plus the closing done."""
    _, transcript = model.run_to_quiescence(model.initial_state())
    return tuple(transcript) + ("done",)


def run_standard_checks(model: MergeProtocol) -> list[Verdict]:
    graph = explore(model)
    return [
        check_deadlock_free(graph),
        check_reaches_done(graph),
        check_reaches_done(graph, strong=True),
        check_confluence(graph),
    ]
