"""Each group's map of static entities, the leader-based merge of map
frames, and the cartography machine that discovers the torus dimensions.

Every agent anchors its own frame at its start cell and keeps its position
there. A group keeps one map, in its leader's frame: a percept folds straight
into the agent's group map through the group table (leader plus frame offset
per agent), and a merge moves the losing group's map into the winner's frame
once, by the translation the merge applied to the loser's offsets. The merge
choreography itself is executed by the shared protocol engine, one
serialized instance per sighting.

`Cartography` owns the cartographer pairs (at most one per dimension) and
the sides they measured; when the second side is measured it hands the grid
size to `MapStore.set_dims`, the one writer of the store's one copy of it,
which wraps every position and every group map.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .identity import Identification
from .merge_protocol import MergeProtocol, Sighting
from .torus import DIR_OFFSETS, Coord, Dims, Offset, add, neg, sub, torus_distance, wrap
from .world import CLEAR_COST, GOAL, Action, Percept

Vec = tuple[int, int]


def _shift(c: Coord, by: Vec, dims: Optional[Dims]) -> Coord:
    """`c` moved by `by`, wrapped once the grid size is known."""
    out = add(c, by)
    return wrap(*out, dims) if dims else out


@dataclass
class GroupMap:
    """Static entities known to one group, in its leader's frame."""

    dispensers: set[tuple[Coord, str]] = field(default_factory=set)
    goals: set[Coord] = field(default_factory=set)
    taskboards: set[Coord] = field(default_factory=set)

    def dispensers_of(self, block_type: str) -> set[Coord]:
        return {c for c, t in self.dispensers if t == block_type}

    def moved(self, by: Vec, dims: Optional[Dims]) -> GroupMap:
        """Every entry moved by `by` and wrapped once the grid size is known:
        entries seen a grid's size apart collapse into one."""
        return GroupMap(
            {(_shift(c, by, dims), t) for c, t in self.dispensers},
            {_shift(c, by, dims) for c in self.goals},
            {_shift(c, by, dims) for c in self.taskboards},
        )


def record_statics(store: MapStore, agent: str, percept: Percept) -> None:
    """Fold the static entities of one percept into the agent's group map.
    Dynamic things (agents, blocks, obstacles) are deliberately not
    remembered."""
    view, dims = store.views[store.leaders[agent]], store.dims
    base = add(store.positions[agent], store.offsets[agent])
    for thing in percept.things:
        if thing.kind == "dispenser":
            view.dispensers.add((_shift(base, thing.offset, dims), thing.detail))
    for off, kind in percept.terrain:
        if kind == GOAL:
            view.goals.add(_shift(base, off, dims))
    for off in percept.taskboards:
        view.taskboards.add(_shift(base, off, dims))


def nearest(entries: Iterable[Coord], frm: Coord, dims: Dims) -> Optional[Coord]:
    """Closest entry by torus distance; ties broken by (y, x) ascending."""
    best = None
    for c in entries:
        key = (torus_distance(frm, c, dims), c[1], c[0])
        if best is None or key < best[0]:
            best = (key, c)
    return best[1] if best else None


def dump_map(store: MapStore, agent: str) -> str:
    """The agent's group map in the agent's own frame."""
    dims = store.dims
    own = store.merged_view(agent).moved(neg(store.offsets[agent]), dims)
    x, y = store.positions[agent]
    lines = [
        f"owner: {agent}",
        f"dims: {dims.w}x{dims.h}" if dims else "dims: unknown",
        f"self: {x},{y}",
        "dispensers: " + "; ".join(f"{x},{y}:{t}" for (x, y), t in sorted(own.dispensers)),
        "goals: " + "; ".join(f"{x},{y}" for x, y in sorted(own.goals)),
        "taskboards: " + "; ".join(f"{x},{y}" for x, y in sorted(own.taskboards)),
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MergeRecord:
    sighting: Sighting
    winner: str
    absorbed: tuple[str, ...]
    transcript: tuple[str, ...]


class MapStore:
    """Team blackboard: the group table, each agent's own-frame position and
    one map per group, keyed by its leader. Reads are cheap; merges rewrite
    the table one serialized instance at a time."""

    def __init__(self, agents: Iterable[str]):
        self.agents = tuple(sorted(agents))
        self.leaders = {a: a for a in self.agents}
        self.offsets: dict[str, Vec] = {a: (0, 0) for a in self.agents}
        self.dims: Optional[Dims] = None
        self.positions: dict[str, Coord] = {a: (0, 0) for a in self.agents}
        # A group's map is made on its first use, so a group table written
        # directly needs no maps written with it.
        self.views: defaultdict[str, GroupMap] = defaultdict(GroupMap)

    # ------------------------------------------------------------- structure

    def leader_of(self, agent: str) -> str:
        return self.leaders[agent]

    def check_one_leader(self) -> None:
        for a, l in self.leaders.items():
            assert self.leaders[l] == l, f"leader {l} of {a} is not its own leader"

    def to_leader(self, agent: str, c: Coord) -> Coord:
        return _shift(c, self.offsets[agent], self.dims)

    def position_of(self, agent: str) -> Coord:
        return self.to_leader(agent, self.positions[agent])

    def advance(self, agent: str, off: Offset) -> None:
        self.positions[agent] = _shift(self.positions[agent], off, self.dims)

    # ----------------------------------------------------------------- reads

    def merged_view(self, agent: str) -> GroupMap:
        """All static entities known to the agent's group, in leader frame."""
        return self.views[self.leaders[agent]]

    # ---------------------------------------------------------------- merges

    def process_merges(self, sightings: Iterable[Sighting]) -> list[MergeRecord]:
        """Run the step's sightings to completion, in order. A sighting whose
        two agents share a leader by its turn merges nothing."""
        records: list[MergeRecord] = []
        for s in sightings:
            if self.leaders[s.a] != self.leaders[s.b]:
                records.append(self._run_instance(s))
        return records

    def _run_instance(self, s: Sighting) -> MergeRecord:
        engine = MergeProtocol(self.agents, (s,), leaders=self.leaders, offsets=self.offsets)
        state = engine.initial_state()
        final, transcript = engine.run_to_quiescence(state)
        moved = zip(state.leaders, final.leaders)
        absorbed = tuple(a for (a, was), (_, now) in moved if was != now)
        winner, first = final.instances[0].winner, absorbed[0]
        # The engine moves every member of the losing group by one
        # translation; the losing group's map moves by it too.
        loser, before = self.leaders[first], self.offsets[first]
        self.leaders = dict(final.leaders)
        self.offsets = dict(final.offsets)
        self.check_one_leader()
        lost = self.views.pop(loser, None)
        if lost is not None:
            lost = lost.moved(sub(self.offsets[first], before), self.dims)
            won = self.views[winner]
            won.dispensers |= lost.dispensers
            won.goals |= lost.goals
            won.taskboards |= lost.taskboards
        return MergeRecord(s, winner, absorbed, tuple(transcript))

    def set_dims(self, dims: Dims) -> None:
        self.dims = dims
        self.positions = {a: wrap(*c, dims) for a, c in self.positions.items()}
        for leader, view in self.views.items():
            self.views[leader] = view.moved((0, 0), dims)


# --------------------------------------------------------------- cartography


class CartographyFault(Exception):
    pass


@dataclass
class CartographyState:
    dimension: str  # horizontal | vertical
    pair: tuple[str, str]  # [0] walks the negative direction, [1] positive
    initial_distance: int
    steps_a: int = 0
    steps_b: int = 0
    last_seen_step: int = 0

    def direction_of(self, agent: str) -> str:
        if self.dimension == "horizontal":
            return "w" if agent == self.pair[0] else "e"
        return "n" if agent == self.pair[0] else "s"

    def axis(self, off: Offset) -> int:
        return off[0] if self.dimension == "horizontal" else off[1]


# Re-sighting needs slack in the perpendicular axis, otherwise the pair can
# slip past each other between steps without ever meeting the vision bound.
MAX_PERP_OFFSET = 4
RESIGHT_GAP = 2


def adopt_cartographers(
    a: str, b: str, offset_a_to_b: Offset, dimension: str, step: int
) -> Optional[CartographyState]:
    """Pair two mutually identified explorers on one dimension. Returns None
    (refusal) when the geometry would make the re-sighting unreliable."""
    if dimension == "horizontal":
        along, perp = offset_a_to_b
    else:
        perp, along = offset_a_to_b
    if abs(perp) > MAX_PERP_OFFSET:
        return None
    if along < 0:
        a, b = b, a
        along = -along
    return CartographyState(
        dimension=dimension,
        pair=(a, b),
        initial_distance=along,
        last_seen_step=step,
    )


def finish_dimension(
    steps_a: int, steps_b: int, initial_distance: int, residual_offset: int
) -> int:
    """Torus size from the pair's counters; the residual is the partner's
    remaining along-axis offset at re-sighting (0 when they meet head-on)."""
    if steps_a + steps_b == 0 and residual_offset == 0:
        raise CartographyFault("cartographers never separated")
    size = steps_a + steps_b + initial_distance + residual_offset
    if size <= 0:
        raise CartographyFault(f"inconsistent measurements: size {size}")
    return size


def cartographer_action(state: CartographyState, agent: str, percept: Percept) -> Action:
    """Next action for an active cartographer: march the assigned direction,
    charge a clear on obstacles or blocks, keep shoving against agents."""
    direction = state.direction_of(agent)
    ahead = DIR_OFFSETS[direction]
    if ahead in percept.obstacles or ahead in percept.blocks:
        if percept.self_energy < CLEAR_COST:
            return Action.skip()  # wait for recharge, then resume clearing
        return Action.clear(ahead)
    # Entities ahead: keep trying the same move until it succeeds.
    return Action.move(direction)


class Cartography:
    """The team's cartographer pairs as one machine: the active pair of each
    dimension, in adoption order, and the sides measured so far. Its inputs
    are a cartographer's successful move, the step's identifications and the
    mutual identifications of two explorers; `update` returns the (type,
    payload) log events in the order they happen."""

    def __init__(self, store: MapStore):
        self.store = store
        self.pairs: dict[str, CartographyState] = {}
        self.sizes: dict[str, int] = {}

    def pair_of(self, agent: str) -> Optional[CartographyState]:
        for state in self.pairs.values():
            if agent in state.pair:
                return state
        return None

    def moved(self, agent: str) -> None:
        state = self.pair_of(agent)
        if state is not None and agent == state.pair[0]:
            state.steps_a += 1
        elif state is not None:
            state.steps_b += 1

    def update(
        self,
        idents: list[Identification],
        explorer_pairs: Iterable[tuple[Identification, Identification]],
        step: int,
    ) -> list[tuple[str, dict]]:
        events = []
        # Re-sighting first: an active pair identifying each other again
        # after separation closes the measurement. Each pair reads its first
        # sighting with pair[0] observing, else its first the other way.
        first = {(e.observer, e.observed): e for e in reversed(idents)} if self.pairs else {}
        for state in list(self.pairs.values()):
            a, b = state.pair
            e = first.get((a, b)) or first.get((b, a))
            if e is None:
                continue
            off = e.offset if e.observer == a else neg(e.offset)
            along = state.axis(off)
            gap = step - state.last_seen_step
            state.last_seen_step = step
            if gap < RESIGHT_GAP or along > 0:
                continue
            try:
                size = finish_dimension(state.steps_a, state.steps_b, state.initial_distance, -along)
            except CartographyFault:
                events.append(self._close(state, "cartography_aborted"))
                continue
            events.append(self._close(
                state, "cartography_finished", size=size, steps=[state.steps_a, state.steps_b],
                initial_distance=state.initial_distance, residual=-along,
            ))
            self.sizes[state.dimension] = size
            if len(self.sizes) == 2:
                self.store.set_dims(Dims(self.sizes["horizontal"], self.sizes["vertical"]))
        # Adoption, while the grid size is unknown: a mutual identification
        # of two explorers outside every pair, the pairs closed above
        # included, opens the first side neither measured nor paired.
        if self.store.dims is not None:
            return events
        for fwd, _back in explorer_pairs:
            a, b = fwd.observer, fwd.observed
            if self.pair_of(a) is not None or self.pair_of(b) is not None:
                continue
            unmeasured = [d for d in ("horizontal", "vertical") if d not in self.sizes]
            dimension = next((d for d in unmeasured if d not in self.pairs), None)
            if dimension is None:
                break
            state = adopt_cartographers(a, b, fwd.offset, dimension, step)
            if state is None:
                continue
            self.pairs[dimension] = state
            events.append(("cartography_started", {
                "dimension": dimension, "pair": list(state.pair),
                "initial_distance": state.initial_distance,
            }))
        return events

    def _close(self, state: CartographyState, kind: str, **payload) -> tuple[str, dict]:
        """End a pair, finished or aborted: its two agents explore again."""
        del self.pairs[state.dimension]
        return kind, {"dimension": state.dimension, "pair": list(state.pair), **payload}
