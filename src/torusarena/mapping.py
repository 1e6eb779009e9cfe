"""Per-agent maps of static entities, the leader-based merge of map frames,
and the cartography procedure that discovers the torus dimensions.

Every agent anchors its own frame at its start cell. Merging never rewrites
map contents: it only updates the shared group table (leader plus frame
offset per agent), and every team-level read translates member maps through
that table on the fly. The merge choreography itself is executed by the
shared protocol engine, one serialized instance per sighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .merge_protocol import MergeProtocol, Sighting
from .torus import DIR_OFFSETS, Coord, Dims, Offset, add, manhattan, torus_distance, wrap
from .world import Action, Percept

Vec = tuple[int, int]


@dataclass
class LocalMap:
    """Static entities in the owner's private frame (start cell = (0,0))."""

    owner: str
    self_pos: Coord = (0, 0)
    dispensers: set[tuple[Coord, str]] = field(default_factory=set)
    goals: set[Coord] = field(default_factory=set)
    taskboards: set[Coord] = field(default_factory=set)
    dims: Optional[Dims] = None

    def _norm(self, c: Coord) -> Coord:
        return wrap(*c, self.dims) if self.dims else c

    def advance(self, off: Offset) -> None:
        self.self_pos = self._norm(add(self.self_pos, off))

    def entity_count(self) -> int:
        return len(self.dispensers) + len(self.goals) + len(self.taskboards)


def record_statics(local: LocalMap, percept: Percept) -> LocalMap:
    """Fold the static entities of one percept into the map. Dynamic things
    (agents, blocks, obstacles) are deliberately not remembered."""
    base = local.self_pos
    for thing in percept.things:
        if thing.kind == "dispenser":
            local.dispensers.add((local._norm(add(base, thing.offset)), thing.detail))
    for off, kind in percept.terrain:
        if kind == "goal":
            local.goals.add(local._norm(add(base, off)))
    for off in percept.taskboards:
        local.taskboards.add(local._norm(add(base, off)))
    return local


def normalize(local: LocalMap, dims: Dims) -> LocalMap:
    """Wrap every stored coordinate; repeated observations of one entity at
    coordinates a map-size apart collapse to a single entry."""
    local.dims = dims
    local.self_pos = wrap(*local.self_pos, dims)
    local.dispensers = {(wrap(*c, dims), t) for c, t in local.dispensers}
    local.goals = {wrap(*c, dims) for c in local.goals}
    local.taskboards = {wrap(*c, dims) for c in local.taskboards}
    return local


def nearest(entries: Iterable[Coord], frm: Coord, dims: Optional[Dims]) -> Optional[Coord]:
    """Closest entry by torus distance (plain Manhattan before dims are
    known); ties broken by (y, x) ascending."""

    def dist(c: Coord) -> int:
        if dims:
            return torus_distance(frm, c, dims)
        return manhattan((c[0] - frm[0], c[1] - frm[1]))

    best = None
    for c in entries:
        key = (dist(c), c[1], c[0])
        if best is None or key < best[0]:
            best = (key, c)
    return best[1] if best else None


def dump_map(local: LocalMap) -> str:
    lines = [
        f"owner: {local.owner}",
        f"dims: {local.dims.w}x{local.dims.h}" if local.dims else "dims: unknown",
        f"self: {local.self_pos[0]},{local.self_pos[1]}",
        "dispensers: " + "; ".join(f"{x},{y}:{t}" for (x, y), t in sorted(local.dispensers)),
        "goals: " + "; ".join(f"{x},{y}" for x, y in sorted(local.goals)),
        "taskboards: " + "; ".join(f"{x},{y}" for x, y in sorted(local.taskboards)),
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MergeRecord:
    sighting: Sighting
    winner: str
    absorbed: tuple[str, ...]
    transcript: tuple[str, ...]


@dataclass
class MergedView:
    dispensers: set[tuple[Coord, str]]
    goals: set[Coord]
    taskboards: set[Coord]

    def of_kind(self, kind: str, block_type: Optional[str] = None) -> set[Coord]:
        if kind == "goal":
            return set(self.goals)
        if kind == "taskboard":
            return set(self.taskboards)
        if kind == "dispenser":
            return {c for c, t in self.dispensers if block_type is None or t == block_type}
        raise ValueError(f"unknown entity kind {kind!r}")


class MapStore:
    """Team blackboard: every member's map plus the group table. Reads are
    cheap; merges rewrite the table one serialized instance at a time."""

    def __init__(self, agents: Iterable[str]):
        self.agents = tuple(sorted(agents))
        self.maps = {a: LocalMap(owner=a) for a in self.agents}
        self.leaders = {a: a for a in self.agents}
        self.offsets: dict[str, Vec] = {a: (0, 0) for a in self.agents}
        self.dims: Optional[Dims] = None
        self.pending: list[Sighting] = []

    # ------------------------------------------------------------- structure

    def leader_of(self, agent: str) -> str:
        return self.leaders[agent]

    def group_members(self, leader: str) -> list[str]:
        return sorted(a for a, l in self.leaders.items() if l == leader)

    def check_one_leader(self) -> None:
        for a, l in self.leaders.items():
            assert self.leaders[l] == l, f"leader {l} of {a} is not its own leader"

    def to_leader(self, agent: str, c: Coord) -> Coord:
        out = add(c, self.offsets[agent])
        return wrap(*out, self.dims) if self.dims else out

    def position_of(self, agent: str) -> Coord:
        return self.to_leader(agent, self.maps[agent].self_pos)

    # ----------------------------------------------------------------- reads

    def merged_view(self, agent: str) -> MergedView:
        """All static entities known to the agent's group, in leader frame."""
        leader = self.leaders[agent]
        view = MergedView(set(), set(), set())
        for m in self.group_members(leader):
            local = self.maps[m]
            view.dispensers |= {(self.to_leader(m, c), t) for c, t in local.dispensers}
            view.goals |= {self.to_leader(m, c) for c in local.goals}
            view.taskboards |= {self.to_leader(m, c) for c in local.taskboards}
        return view

    # ---------------------------------------------------------------- merges

    def queue_sighting(self, s: Sighting) -> None:
        self.pending.append(s)

    def process_merges(self) -> list[MergeRecord]:
        """Run every queued sighting to completion, FIFO. A report that no
        longer matches the reporter's current position aborts its instance."""
        records: list[MergeRecord] = []
        while self.pending:
            s = self.pending.pop(0)
            if self.leaders[s.a] == self.leaders[s.b]:
                continue  # same group: nothing to merge
            if self.maps[s.a].self_pos != s.pos_a or self.maps[s.b].self_pos != s.pos_b:
                continue  # stale sighting: abort, groups unchanged
            records.append(self._run_instance(s))
        return records

    def _run_instance(self, s: Sighting) -> MergeRecord:
        engine = MergeProtocol(agents=self.agents, schedule=(s,))
        state = engine.initial_state(dict(self.leaders), dict(self.offsets))
        final, transcript = engine.run_to_quiescence(state)
        winner, _ = engine.winner_loser(state, 0)
        before = set(self.group_members(winner))
        self.leaders = dict(final.leaders)
        self.offsets = dict(final.offsets)
        absorbed = tuple(a for a in self.group_members(winner) if a not in before)
        self.check_one_leader()
        return MergeRecord(s, winner, absorbed, tuple(transcript))

    def set_dims(self, dims: Dims) -> None:
        self.dims = dims
        for m in self.maps.values():
            normalize(m, dims)


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
    status: str = "active"  # active | finished
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


def cartographer_action(
    state: CartographyState, agent: str, percept: Percept, clear_cost: int
) -> Action:
    """Next action for an active cartographer: march the assigned direction,
    charge a clear on obstacles or blocks, keep shoving against agents."""
    direction = state.direction_of(agent)
    ahead = DIR_OFFSETS[direction]
    if ahead in percept.obstacles or ahead in percept.blocks:
        if percept.self_energy < clear_cost:
            return Action.skip()  # wait for recharge, then resume clearing
        return Action.clear(ahead)
    # Entities ahead: keep trying the same move until it succeeds.
    return Action.move(direction)
