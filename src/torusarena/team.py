"""Role lifecycle and per-agent policies for the strategy team: exploration,
leader-based map merging, group formation by round size,
origin/retriever/deliverer task assembly with the origin-deliverer swap, and
bouncer/hunter bullies. Cartographer pairs are `mapping.Cartography`'s: the
controller feeds it moves and identifications, emits its events, and lets an
agent in a pair walk for it.

The controller is the in-process stand-in for the team's message fabric:
identification replies, merge reports and group signals all resolve between
steps, and every per-agent decision reads only that agent's percept plus the
shared blackboard (each group's map, the group table and each agent's
own-frame position, the cartography pairs). The store holds the one copy of
the grid size, and `MapStore.set_dims` is its one writer.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .identity import identification_round, mutual_pairs
from .mapping import Cartography, MapStore, cartographer_action, nearest, record_statics
from .merge_protocol import Sighting
from .planner import Navigator, Plan, Problem, fallback_one_step, solve
from .plan_cache import CacheStore, solve_cached
from .torus import (
    CARDINALS,
    DIR_OFFSETS,
    DIRECTIONS,
    OFFSET_DIRS,
    Coord,
    Dims,
    Offset,
    add,
    delta,
    rotate_cw,
    torus_distance,
    wrap,
)
from .world import ACCEPT_RADIUS, CLEAR_COST, GOAL, Action, Percept, Task

EXPLORER = "explorer"
ORIGIN = "origin"
RETRIEVER = "retriever"
DELIVERER = "deliverer"
BULLY_BOUNCER = "bully_bouncer"
BULLY_HUNTER = "bully_hunter"

GROUP_CAPACITY = 15
RETRIEVERS_PER_GROUP = 12
RELOCATE_AFTER = 40
MAX_BOUNCERS = 2
STALL_REASSIGN = 20

# Where the deliverer waits for the swap: the anchor's non-south neighbours
# (the structure hangs south of the anchor).
WAIT_OFFSETS = ((0, -1), (1, 0), (-1, 0))

# Radius-2 patrol ring, clockwise from north.
PATROL_RING = ((0, -2), (1, -1), (2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1))


def form_groups(round_size: int, capacity: int = GROUP_CAPACITY) -> tuple[int, int]:
    """Group count and leftover-bully count for a round."""
    if round_size < 1:
        raise ValueError("round size must be positive")
    return round_size // capacity, round_size % capacity


def role_for_slot(slot: int) -> str:
    """Join priority inside a group: origin, deliverer, 12 retrievers, bully."""
    if slot == 0:
        return ORIGIN
    if slot == 1:
        return DELIVERER
    if slot < 2 + RETRIEVERS_PER_GROUP:
        return RETRIEVER
    return BULLY_HUNTER


@dataclass
class BullyState:
    patrol_center: Optional[Coord] = None
    patrol_phase: int = 0
    steps_without_prey: int = 0
    cluster_index: int = 0


@dataclass
class RetrieverTask:
    slot: int
    offset: Offset  # requirement offset relative to the origin anchor
    block_type: str
    phase: str = "fetch"  # fetch | grab | deliver | orient | connect
    stall: int = 0
    approach_index: int = 0
    orient_fails: int = 0


@dataclass
class TaskGroup:
    gid: int
    origin: Optional[str] = None
    deliverer: Optional[str] = None
    retrievers: list[str] = field(default_factory=list)
    goal_cluster: list[Coord] = field(default_factory=list)
    anchor: Optional[Coord] = None
    taskboard: Optional[Coord] = None
    active_task: Optional[Task] = None
    staged: set[int] = field(default_factory=set)
    next_deliverer: Optional[str] = None
    swap_phase: str = "none"  # none | detached | entered | attached

    # ((active_task, anchor, dims), connect order, structure cells) of the
    # last structure_cells call: both change only with the task or the anchor.
    _structure: tuple = field(
        default=((None, None, None), (), frozenset()), init=False, repr=False, compare=False
    )

    def requirement_list(self) -> tuple[tuple[Offset, str], ...]:
        """The active task's `connect_order`: connects must grow the structure."""
        (task, _anchor, _dims), order, _cells = self._structure
        return order if task == self.active_task else connect_order(self.active_task)

    def structure_cells(self, dims: Dims) -> frozenset[Coord]:
        """The anchor and every cell the active task's blocks occupy."""
        key = (self.active_task, self.anchor, dims)
        if self._structure[0] != key:
            order = self.requirement_list()
            cells = {self.anchor, *(wrap(*add(self.anchor, off), dims) for off, _bt in order)}
            self._structure = (key, order, frozenset(cells))
        return self._structure[2]


@dataclass
class AgentRuntime:
    name: str
    role: str = EXPLORER  # outside a group only: explorer, bouncer or hunter
    navigator: Optional[Navigator] = None
    explore_dir: str = "n"
    sidestep_dir: Optional[str] = None
    sidestep_left: int = 0
    reroll_in: int = 25
    last_action: Optional[Action] = None
    bully: Optional[BullyState] = None
    fetch: Optional[RetrieverTask] = None
    group: Optional[int] = None  # set for the members of a TaskGroup only
    accepted_tasks: set[str] = field(default_factory=set)
    stuck_reported: bool = False


class TeamController:
    """Drives one team: call act() once per step with the team's percepts."""

    def __init__(
        self,
        team: str,
        names: list[str],
        seed: int,
        cache: Optional[CacheStore] = None,
        group_capacity: int = GROUP_CAPACITY,
    ):
        self.team = team
        self.names = sorted(names)
        self.rng = random.Random(f"{seed}:{team}")
        self.store = MapStore(self.names)
        self.cache = cache
        self.group_capacity = group_capacity
        self.cartography = Cartography(self.store)
        self.groups: list[TaskGroup] = []
        self.building = False
        self.bouncer_count = 0
        self.solver_calls = 0
        self.events: list[dict] = []
        self._step = 0
        self.runtimes = {
            n: AgentRuntime(name=n, explore_dir=self.rng.choice(DIRECTIONS))
            for n in self.names
        }

    # ------------------------------------------------------------- plumbing

    def _solve(self, problem: Problem) -> Plan:
        if self.cache is None:
            plan, outcome = self._counted_solve(problem), "solve"
        else:
            plan, outcome = solve_cached(problem, self.cache, self._counted_solve)
        self._emit("plan", outcome=outcome)
        return plan

    def _counted_solve(self, problem: Problem) -> Plan:
        self.solver_calls += 1
        return solve(problem)

    def _navigate(self, rt: AgentRuntime, percept: Percept, pos: Coord, destination: Coord) -> Action:
        """Next action of the agent's navigator toward `destination`."""
        if rt.navigator is None:
            rt.navigator = Navigator(solve_fn=self._solve)
        rt.navigator.set_destination(destination)
        return rt.navigator.next_action(percept, pos, self.store.dims)

    def _emit(self, kind: str, **payload) -> None:
        """Record a team event, stamped with the step being acted on."""
        self.events.append({"step": self._step, "type": kind, "team": self.team, **payload})

    def drain_events(self) -> list[dict]:
        out = self.events
        self.events = []
        return out

    def position_of(self, name: str) -> Coord:
        return self.store.position_of(name)

    def role_of(self, name: str) -> str:
        """A group member's role is its place in its group; any other
        agent's is `AgentRuntime.role`."""
        rt = self.runtimes[name]
        if rt.group is None:
            return rt.role
        group = self.groups[rt.group]
        if name == group.origin:
            return ORIGIN
        if name == group.deliverer:
            return DELIVERER
        return RETRIEVER

    # ------------------------------------------------------------ main loop

    def act(self, percepts: dict[str, Percept], step: int) -> dict[str, Action]:
        self._step = step
        self._note_results(percepts)
        for name in self.names:
            record_statics(self.store, name, percepts[name])
        idents, _stats = identification_round(self.team, percepts, step)
        if idents:
            self._emit("identification", count=len(idents))
        pairs = mutual_pairs(idents)
        # Lazy: adoption reads it only until no side is left open.
        explorer_pairs = (
            (fwd, back)
            for fwd, back in pairs
            if self.role_of(fwd.observer) == EXPLORER
            and self.role_of(fwd.observed) == EXPLORER
        )
        for kind, payload in self.cartography.update(idents, explorer_pairs, step):
            self._emit(kind, **payload)
        self._merges(pairs)
        self._maybe_start_building()
        self._group_coordination(percepts)
        actions: dict[str, Action] = {}
        for name in self.names:
            rt = self.runtimes[name]
            action = self._policy(rt, percepts[name])
            rt.last_action = action
            actions[name] = action
            nav = rt.navigator
            if nav is not None and nav.stuck and not rt.stuck_reported:
                rt.stuck_reported = True
                self._emit("stuck", agent=name)
            elif nav is not None and not nav.stuck:
                rt.stuck_reported = False
        return actions

    # -------------------------------------------------- feedback integration

    def _note_results(self, percepts: dict[str, Percept]) -> None:
        for name in self.names:
            rt = self.runtimes[name]
            last = percepts[name].last_action_result
            if rt.navigator is not None:
                rt.navigator.note_result(last)
            if (
                rt.last_action is not None
                and rt.last_action.kind == "move"
                and last == ("move", "success")
            ):
                off = DIR_OFFSETS[rt.last_action.direction]
                self.store.advance(name, off)
                self.cartography.moved(name)
            elif last == ("accept", "success"):
                rt.accepted_tasks.add(rt.last_action.task)

    # ---------------------------------------------------------------- merges

    def _merges(self, pairs) -> None:
        leader_of = self.store.leader_of
        # Most pairs are already in one group; build sightings only for the rest.
        sightings = [
            Sighting(
                a=fwd.observer,
                b=fwd.observed,
                offset=fwd.offset,
                pos_a=self.store.positions[fwd.observer],
                pos_b=self.store.positions[fwd.observed],
            )
            for fwd, _back in pairs
            if leader_of(fwd.observer) != leader_of(fwd.observed)
        ]
        for record in self.store.process_merges(sightings):
            self._emit(
                "merge",
                a=record.sighting.a,
                b=record.sighting.b,
                winner=record.winner,
                absorbed=list(record.absorbed),
                transcript=list(record.transcript),
            )

    # -------------------------------------------------------- group formation

    def _maybe_start_building(self) -> None:
        if self.building or self.store.dims is None:
            return
        leaders = {self.store.leader_of(n) for n in self.names}
        if len(leaders) != 1:
            return
        self.building = True
        n_groups, leftovers = form_groups(len(self.names), self.group_capacity)
        self.groups = [TaskGroup(gid=gid) for gid in range(n_groups)]
        for i, name in enumerate(self.names):
            rt = self.runtimes[name]
            gid, slot = divmod(i, self.group_capacity)
            role = role_for_slot(slot) if gid < n_groups else BULLY_HUNTER
            if role == BULLY_HUNTER:
                rt.role = role
                rt.bully = BullyState()
                continue
            rt.group = gid
            group = self.groups[gid]
            if role == ORIGIN:
                group.origin = name
            elif role == DELIVERER:
                group.deliverer = name
            else:
                group.retrievers.append(name)
        self._assign_clusters()
        self._emit(
            "building_started",
            groups=n_groups,
            leftover_bullies=leftovers,
            census=dict(Counter(map(self.role_of, self.names))),
        )

    def goal_clusters(self) -> list[list[Coord]]:
        """Connected goal-cell components in the shared frame, largest first."""
        d = self.store.dims
        goals = set(self.store.merged_view(self.names[0]).goals)
        clusters = []
        while goals:
            seed_cell = min(goals)
            comp = {seed_cell}
            frontier = [seed_cell]
            goals.discard(seed_cell)
            while frontier:
                cur = frontier.pop()
                for off in CARDINALS:
                    nxt = wrap(*add(cur, off), d)
                    if nxt in goals:
                        goals.discard(nxt)
                        comp.add(nxt)
                        frontier.append(nxt)
            clusters.append(sorted(comp))
        clusters.sort(key=lambda c: (-len(c), c[0]))
        return clusters

    def _assign_clusters(self) -> None:
        clusters = self.goal_clusters()
        if not clusters:
            return
        view = self.store.merged_view(self.names[0])
        for group in self.groups:
            cluster = clusters[group.gid % len(clusters)]
            group.goal_cluster = cluster
            group.anchor = bottom_most(cluster)
            if view.taskboards:
                group.taskboard = nearest(view.taskboards, group.anchor, self.store.dims)

    # ------------------------------------------------------ group coordination

    def _group_coordination(self, percepts: dict[str, Percept]) -> None:
        if any(not group.goal_cluster for group in self.groups):
            self._assign_clusters()  # gives every group a cluster, or none
        for group in self.groups:
            # Ready for a task: the origin on the anchor and the deliverer in
            # accept range of the taskboard, judged before the swap can
            # rotate roles this step.
            ready = (
                group.anchor is not None
                and group.taskboard is not None
                and group.deliverer is not None
                and self.position_of(group.origin) == group.anchor
                and torus_distance(self.position_of(group.deliverer), group.taskboard, self.store.dims)
                <= ACCEPT_RADIUS
            )
            self._note_connect_results(group, percepts)
            self._update_swap(group, percepts)
            self._reassign_stalled(group)
            self._update_task(group, percepts, ready)

    def _slot_owners(self, group: TaskGroup) -> list[str]:
        """The group's retrievers that hold a slot, in slot order: a slot's
        owner is the retriever whose fetch names it."""
        owners = [r for r in group.retrievers if self.runtimes[r].fetch is not None]
        return sorted(owners, key=lambda r: self.runtimes[r].fetch.slot)

    def _note_connect_results(self, group: TaskGroup, percepts) -> None:
        for name in self._slot_owners(group):
            rt = self.runtimes[name]
            if (
                rt.fetch.phase == "connect"
                and percepts[name].last_action_result == ("connect", "success")
            ):
                group.staged.add(rt.fetch.slot)
                if group.next_deliverer is None:
                    group.next_deliverer = name
                    self._emit("next_deliverer", group=group.gid, agent=name)
                rt.fetch = None

    def _reassign_stalled(self, group: TaskGroup) -> None:
        for name in self._slot_owners(group):
            rt = self.runtimes[name]
            if rt.fetch.stall < STALL_REASSIGN:
                continue
            idle = [
                r
                for r in group.retrievers
                if r != name and self.runtimes[r].fetch is None
            ]
            if not idle:
                rt.fetch.stall = 0
                continue
            spec = rt.fetch
            rt.fetch = None
            self.runtimes[idle[0]].fetch = RetrieverTask(
                slot=spec.slot, offset=spec.offset, block_type=spec.block_type
            )
            self._emit("slot_reassigned", group=group.gid, slot=spec.slot, agent=idle[0])

    def _update_task(self, group: TaskGroup, percepts, ready: bool) -> None:
        if group.active_task is not None:
            # Drop expired tasks and restage.
            visible = {t.name for t in percepts[self.names[0]].tasks}
            if group.active_task.name not in visible:
                self._emit("task_dropped", group=group.gid, task=group.active_task.name)
                self._reset_assembly(group)
            return
        if not ready:
            return
        view = self.store.merged_view(self.names[0])
        retrievable = {t for _c, t in view.dispensers}
        choice = select_task(
            percepts[group.deliverer].tasks, retrievable, self._step, len(group.retrievers)
        )
        if choice is not None:
            group.active_task = choice
            self._assign_slots(group)
            self._emit("task_selected", group=group.gid, task=choice.name)

    def _assign_slots(self, group: TaskGroup) -> None:
        reqs = group.requirement_list()
        # select_task never picks more requirements than the group has retrievers.
        for slot, (name, (off, btype)) in enumerate(zip(group.retrievers, reqs)):
            self.runtimes[name].fetch = RetrieverTask(slot=slot, offset=off, block_type=btype)

    def _reset_assembly(self, group: TaskGroup) -> None:
        group.active_task = None
        group.staged = set()
        group.swap_phase = "none"
        for name in group.retrievers:
            self.runtimes[name].fetch = None

    def _update_swap(self, group: TaskGroup, percepts) -> None:
        """The one place the swap changes phase, each time on a fact the world
        confirmed: the origin's detach, the deliverer standing on the anchor,
        the deliverer's attach, its submit."""
        if group.active_task is None:
            return
        origin_result = percepts[group.origin].last_action_result
        deliverer_result = percepts[group.deliverer].last_action_result
        if group.swap_phase == "none" and origin_result == ("detach", "success"):
            group.swap_phase = "detached"
        if group.swap_phase == "detached" and self.position_of(group.deliverer) == group.anchor:
            group.swap_phase = "entered"
        if group.swap_phase == "entered" and deliverer_result == ("attach", "success"):
            group.swap_phase = "attached"
        if deliverer_result == ("submit", "success"):
            self._emit("task_submitted", group=group.gid, task=group.active_task.name)
            self._rotate_roles(group)

    def _wait_cells(self, group: TaskGroup) -> list[Coord]:
        d = self.store.dims
        return [wrap(*add(group.anchor, off), d) for off in WAIT_OFFSETS]

    def _deliverer_in_place(self, group: TaskGroup) -> bool:
        return self.position_of(group.deliverer) in self._wait_cells(group)

    def _rotate_roles(self, group: TaskGroup) -> None:
        """After a submit the deliverer becomes the origin, the first
        retriever to connect a block (a submit needs one) the deliverer, and
        the old origin a retriever."""
        old_origin = group.origin
        group.origin = group.deliverer
        group.deliverer = group.next_deliverer
        group.retrievers.remove(group.next_deliverer)
        group.retrievers.append(old_origin)
        self.runtimes[group.deliverer].fetch = None
        group.next_deliverer = None
        self._reset_assembly(group)
        self._emit(
            "roles_rotated",
            group=group.gid,
            origin=group.origin,
            deliverer=group.deliverer,
        )

    # ---------------------------------------------------------------- policies

    def _policy(self, rt: AgentRuntime, percept: Percept) -> Action:
        pair = self.cartography.pair_of(rt.name)
        if pair is not None:
            return cartographer_action(pair, rt.name, percept)
        role = self.role_of(rt.name)
        if role in (BULLY_BOUNCER, BULLY_HUNTER):
            return self._bully_policy(rt, percept)
        if role == ORIGIN:
            return self._origin_policy(rt, percept)
        if role == DELIVERER:
            return self._deliverer_policy(rt, percept)
        if role == RETRIEVER:
            return self._retriever_policy(rt, percept)
        return self._explorer_policy(rt, percept)

    # -- explorer

    def _explorer_policy(self, rt: AgentRuntime, percept: Percept) -> Action:
        if not self.building and self.bouncer_count < MAX_BOUNCERS:
            goal_offs = [off for off, kind in percept.terrain if kind == GOAL]
            if goal_offs:
                rt.role = BULLY_BOUNCER
                rt.bully = BullyState(
                    patrol_center=add(self.store.positions[rt.name], min(goal_offs))
                )
                self.bouncer_count += 1
                self._emit("role_change", agent=rt.name, role=BULLY_BOUNCER)
                return self._bully_policy(rt, percept)
        rt.reroll_in -= 1
        if rt.reroll_in <= 0:
            rt.explore_dir = self.rng.choice(DIRECTIONS)
            rt.reroll_in = 25
        if rt.sidestep_left > 0 and rt.sidestep_dir is not None:
            rt.sidestep_left -= 1
            if self._free_ahead(percept, rt.sidestep_dir):
                return Action.move(rt.sidestep_dir)
        if self._free_ahead(percept, rt.explore_dir):
            rt.sidestep_dir = None
            return Action.move(rt.explore_dir)
        for d in _perpendicular(rt.explore_dir) + [_opposite(rt.explore_dir)]:
            if self._free_ahead(percept, d):
                rt.sidestep_dir = d
                rt.sidestep_left = 3
                return Action.move(d)
        return Action.skip()

    def _free_ahead(self, percept: Percept, direction: str) -> bool:
        off = DIR_OFFSETS[direction]
        return off not in percept.occupied and off not in percept.obstacles

    # -- bully

    def _bully_policy(self, rt: AgentRuntime, percept: Percept) -> Action:
        st = rt.bully
        prey = self._prey_block(percept)
        if prey is not None:
            st.steps_without_prey = 0
            if percept.self_energy >= CLEAR_COST:
                return Action.clear(prey)
            return Action.skip()
        if rt.role == BULLY_HUNTER:
            st.steps_without_prey += 1
            if st.steps_without_prey >= RELOCATE_AFTER:
                self._relocate_hunter(rt)
        if st.patrol_center is None:
            st.patrol_center = self._pick_patrol_center(rt)
            if st.patrol_center is None:
                return self._explorer_movement_only(rt, percept)
        pos = self.store.positions[rt.name] if rt.role == BULLY_BOUNCER else self.position_of(rt.name)
        target = add(st.patrol_center, PATROL_RING[st.patrol_phase])
        d = self.store.dims
        if d:
            target = wrap(*target, d)
        if pos == target:
            st.patrol_phase = (st.patrol_phase + 1) % len(PATROL_RING)
            target = add(st.patrol_center, PATROL_RING[st.patrol_phase])
            if d:
                target = wrap(*target, d)
        act = fallback_one_step(percept, pos, target, d)
        if act.kind == "skip":
            st.patrol_phase = (st.patrol_phase + 1) % len(PATROL_RING)
        return act

    def _prey_block(self, percept: Percept) -> Optional[Offset]:
        """Block cell adjacent to an enemy entity, nearest first."""
        enemies = [t.offset for t in percept.things if t.kind == "entity" and t.detail != self.team]
        blocks = percept.blocks
        candidates = []
        for e in enemies:
            for c in CARDINALS:
                b = add(e, c)
                if b in blocks and abs(b[0]) + abs(b[1]) <= 5 and b != (0, 0):
                    candidates.append((abs(b[0]) + abs(b[1]), b))
        if not candidates:
            return None
        return min(candidates)[1]

    def _relocate_hunter(self, rt: AgentRuntime) -> None:
        st = rt.bully
        clusters = self.goal_clusters()
        if len(clusters) > 1 or (clusters and st.patrol_center not in clusters[0]):
            st.cluster_index = (st.cluster_index + 1) % len(clusters)
            st.patrol_center = bottom_most(clusters[st.cluster_index])
            st.steps_without_prey = 0
            st.patrol_phase = 0
            self._emit("bully_relocated", agent=rt.name, center=list(st.patrol_center))

    def _pick_patrol_center(self, rt: AgentRuntime) -> Optional[Coord]:
        """A hunter's centre: the bottom-most cell of its current goal cluster
        (a bouncer gets its centre when it becomes one)."""
        clusters = self.goal_clusters()
        if not clusters:
            return None
        st = rt.bully
        st.cluster_index %= len(clusters)
        return bottom_most(clusters[st.cluster_index])

    def _explorer_movement_only(self, rt: AgentRuntime, percept: Percept) -> Action:
        if self._free_ahead(percept, rt.explore_dir):
            return Action.move(rt.explore_dir)
        for d in _perpendicular(rt.explore_dir):
            if self._free_ahead(percept, d):
                return Action.move(d)
        return Action.skip()

    # -- origin

    def _origin_policy(self, rt: AgentRuntime, percept: Percept) -> Action:
        group = self.groups[rt.group]
        if group.anchor is None:
            return self._explorer_policy(rt, percept)
        pos = self.position_of(rt.name)
        if group.swap_phase == "detached" and pos == group.anchor:
            return self._vacate(group, percept, pos)
        if group.swap_phase != "none":
            return Action.skip()
        if pos != group.anchor:
            # Head for the bottom-most goal cell of the cluster nobody stands on.
            cells = sorted(group.goal_cluster, key=lambda c: (-c[1], c[0]))
            return self._navigate(rt, percept, pos, self._first_free(percept, pos, cells, group.anchor))
        # Detach only once the deliverer stands ready beside the anchor: the
        # unattached window is the one moment an enemy can steal the build.
        task = group.active_task
        if (
            task is not None
            and set(percept.self_attached) == set(task.requirements)
            and self._deliverer_in_place(group)
        ):
            return Action.detach("s")
        return Action.skip()

    def _vacate(self, group: TaskGroup, percept: Percept, pos: Coord) -> Action:
        """Step off the anchor to the north, east or west, never onto the
        deliverer's cell."""
        deliverer_pos = self.position_of(group.deliverer)
        d = self.store.dims
        for direction in ("n", "e", "w"):
            cell = wrap(*add(pos, DIR_OFFSETS[direction]), d)
            if cell != deliverer_pos and self._free_ahead(percept, direction):
                return Action.move(direction)
        return Action.skip()

    # -- deliverer

    def _deliverer_policy(self, rt: AgentRuntime, percept: Percept) -> Action:
        group = self.groups[rt.group]
        if group.taskboard is None:
            return self._explorer_policy(rt, percept)
        pos = self.position_of(rt.name)
        d = self.store.dims
        if group.active_task is None:
            if torus_distance(pos, group.taskboard, d) > ACCEPT_RADIUS:
                return self._navigate(rt, percept, pos, group.taskboard)
            return Action.skip()
        if group.active_task.name not in rt.accepted_tasks:
            if torus_distance(pos, group.taskboard, d) <= ACCEPT_RADIUS:
                return Action.accept(group.active_task.name)
            return self._navigate(rt, percept, pos, group.taskboard)
        # Swap choreography: wait beside the anchor while the structure is
        # built, step onto it once the origin has detached, attach, submit.
        if group.swap_phase == "none":
            if self._deliverer_in_place(group):
                return Action.skip()
            waits = self._wait_cells(group)
            return self._navigate(rt, percept, pos, self._first_free(percept, pos, waits, waits[0]))
        if group.swap_phase == "detached":
            step_dir = OFFSET_DIRS.get(delta(pos, group.anchor, d))
            if step_dir is not None:
                return Action.move(step_dir)
            return self._navigate(rt, percept, pos, group.anchor)
        if group.swap_phase == "entered":
            return Action.attach("s")
        return Action.submit(group.active_task.name)

    def _first_free(
        self, percept: Percept, pos: Coord, cells: Iterable[Coord], default: Coord
    ) -> Coord:
        """The first of `cells` the agent at `pos` sees no entity or block
        on, else `default`. `delta` is the shortest offset, so it lies in
        the vision diamond whenever any offset to the cell does; the
        agent's own cell, offset (0, 0), is never occupied."""
        d = self.store.dims
        for cell in cells:
            if delta(pos, cell, d) not in percept.occupied:
                return cell
        return default

    # -- retriever

    def _retriever_policy(self, rt: AgentRuntime, percept: Percept) -> Action:
        group = self.groups[rt.group]
        task = rt.fetch
        pos = self.position_of(rt.name)
        d = self.store.dims
        if task is None:
            return self._step_aside(group, percept, pos)
        last = percept.last_action_result
        if last is not None and last[1] == "success" and last[0] != "skip":
            task.stall = 0
        else:
            task.stall += 1
        if task.phase == "grab" and percept.self_attached:
            task.phase = "deliver"
        if task.phase in ("fetch", "grab"):
            # select_task only picks types the merged view holds, and the
            # view never shrinks, so a dispenser of the type is known.
            dispensers = self.store.merged_view(rt.name).dispensers_of(task.block_type)
            target = nearest(dispensers, pos, d)
            off = delta(pos, target, d)
            if off not in CARDINALS:
                sides = (wrap(*add(target, side), d) for side in CARDINALS)
                default = wrap(*add(target, (0, 1)), d)
                return self._navigate(rt, percept, pos, self._first_free(percept, pos, sides, default))
            task.phase = "grab"
            if off in percept.blocks:
                return Action.attach(OFFSET_DIRS[off])
            return Action.request(OFFSET_DIRS[off])
        slot_cell = wrap(*add(group.anchor, task.offset), d)
        if task.phase == "deliver":
            approach = self._slot_approach(group, slot_cell, task.approach_index)
            if pos != approach:
                return self._navigate(rt, percept, pos, approach)
            task.phase = "orient"
            task.orient_fails = 0
        # From here on the agent only rotates, connects or skips, so it stays
        # on the approach cell, cardinally next to the slot.
        need = delta(pos, slot_cell, d)
        if task.phase == "orient":
            if not percept.self_attached:
                task.phase = "fetch"
                return Action.skip()
            current = percept.self_attached[0][0]
            if current != need:
                if percept.last_action_result == ("rotate", "failed:blocked"):
                    task.orient_fails += 1
                    if task.orient_fails >= 4:
                        # Rotation pinned by neighbors: try the next approach.
                        task.approach_index += 1
                        task.phase = "deliver"
                        rt.navigator = None
                        return Action.skip()
                return Action.rotate(_rotation_toward(current, need))
            task.phase = "connect"
        if not self._predecessors_staged(group, task.slot):
            return Action.skip()  # structure must grow outward from the origin
        return Action.connect(group.origin, need)

    def _predecessors_staged(self, group: TaskGroup, slot: int) -> bool:
        return all(s in group.staged for s in range(slot))

    def _step_aside(self, group: TaskGroup, percept: Percept, pos: Coord) -> Action:
        """Clear out of the assembly area once a block is handed over."""
        d = self.store.dims
        structure = group.structure_cells(d)
        if all(
            wrap(*add(pos, DIR_OFFSETS[direction]), d) not in structure
            for direction in DIRECTIONS
        ):
            return Action.skip()
        return fallback_one_step(percept, pos, wrap(*add(group.anchor, (6, 6)), d), d)

    def _slot_approach(self, group: TaskGroup, slot_cell: Coord, index: int = 0) -> Coord:
        """Agent cell from which the held block lands exactly on the slot:
        south of it when free of the structure, else east, west, north.
        `index` cycles through the remaining candidates on retries."""
        d = self.store.dims
        structure = group.structure_cells(d)
        candidates = [
            wrap(*add(slot_cell, off), d)
            for off in ((0, 1), (1, 0), (-1, 0), (0, -1))
            if wrap(*add(slot_cell, off), d) not in structure
        ]
        if not candidates:
            return wrap(*add(slot_cell, (0, 1)), d)
        return candidates[index % len(candidates)]


# ------------------------------------------------------------------ helpers


def connect_order(task: Optional[Task]) -> tuple[tuple[Offset, str], ...]:
    """A task's requirements ordered so each block is cardinally adjacent to
    the agent cell or an earlier block."""
    if task is None:
        return ()
    remaining = {off: bt for off, bt in task.requirements}
    frontier = {(0, 0)}
    ordered: list[tuple[Offset, str]] = []
    while remaining:
        ready = sorted(
            off
            for off in remaining
            if any(add(off, c) in frontier for c in CARDINALS)
        )
        if not ready:  # disconnected requirements: append by position
            ready = sorted(remaining)
        nxt = min(ready, key=lambda o: (o[1], o[0]))
        ordered.append((nxt, remaining.pop(nxt)))
        frontier.add(nxt)
    return tuple(ordered)


def bottom_most(cells) -> Coord:
    """Bottom-most cell: maximal y, then minimal x."""
    return min(cells, key=lambda c: (-c[1], c[0]))


def select_task(
    tasks, retrievable_types: set[str], step: int, workers: int
) -> Optional[Task]:
    """Highest-reward active task whose block types are all retrievable and
    whose deadline leaves room for assembly."""
    best = None
    for t in sorted(tasks, key=lambda t: (-t.reward, t.deadline, t.name)):
        types = {bt for _off, bt in t.requirements}
        if not types <= retrievable_types:
            continue
        if len(t.requirements) > max(1, workers):
            continue
        estimate = 30 + 10 * len(t.requirements)
        if t.deadline <= step + estimate:
            continue
        best = t
        break
    return best


def _perpendicular(direction: str) -> list[str]:
    return ["e", "w"] if direction in ("n", "s") else ["s", "n"]


def _opposite(direction: str) -> str:
    return {"n": "s", "s": "n", "e": "w", "w": "e"}[direction]


def _rotation_toward(current: Offset, need: Offset) -> str:
    return "cw" if rotate_cw(current) == need else "ccw"
