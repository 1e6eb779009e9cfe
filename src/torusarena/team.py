"""Role lifecycle and per-agent policies for the strategy team: exploration,
cartographer pairs, leader-based map merging, group formation by round size,
origin/retriever/deliverer task assembly with the origin-deliverer swap, and
bouncer/hunter bullies.

The controller is the in-process stand-in for the team's message fabric:
identification replies, merge reports and group signals all resolve between
steps, and every per-agent decision reads only that agent's percept plus the
shared blackboard (maps, group table, cartography results).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .identity import identification_round, mutual_pairs
from .mapping import (
    CartographyFault,
    CartographyState,
    MapStore,
    RESIGHT_GAP,
    adopt_cartographers,
    cartographer_action,
    finish_dimension,
    nearest,
    record_statics,
)
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
    neg,
    rotate_cw,
    sub,
    torus_distance,
    wrap,
)
from .world import Action, Percept, Task

EXPLORER = "explorer"
CARTOGRAPHER = "cartographer"
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
    kind: str  # bouncer | hunter
    patrol_center: Optional[Coord] = None
    patrol_phase: int = 0
    steps_without_prey: int = 0
    relocate_after: int = RELOCATE_AFTER
    cluster_index: int = 0


@dataclass
class RetrieverTask:
    slot: int
    offset: Offset  # requirement offset relative to the origin anchor
    block_type: str
    phase: str = "fetch"  # fetch | request | grab | deliver | orient | connect
    stall: int = 0
    approach_index: int = 0
    orient_fails: int = 0


@dataclass
class TaskGroup:
    gid: int
    members: list[str]
    origin: Optional[str] = None
    deliverer: Optional[str] = None
    retrievers: list[str] = field(default_factory=list)
    bully: Optional[str] = None
    goal_cluster: list[Coord] = field(default_factory=list)
    anchor: Optional[Coord] = None
    taskboard: Optional[Coord] = None
    active_task: Optional[Task] = None
    assignments: dict[int, str] = field(default_factory=dict)
    staged: set[int] = field(default_factory=set)
    next_deliverer: Optional[str] = None
    origin_anchored: bool = False
    deliverer_ready: bool = False
    swap_phase: str = "none"  # none | detached | entered | attached

    def requirement_list(self) -> list[tuple[Offset, str]]:
        """Requirements ordered so each block is cardinally adjacent to the
        agent cell or an earlier block: connects must grow the structure."""
        if self.active_task is None:
            return []
        remaining = {off: bt for off, bt in self.active_task.requirements}
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
        return ordered


@dataclass
class AgentRuntime:
    name: str
    role: str = EXPLORER
    navigator: Optional[Navigator] = None
    explore_dir: str = "n"
    sidestep_dir: Optional[str] = None
    sidestep_left: int = 0
    reroll_in: int = 25
    last_action: Optional[Action] = None
    bully: Optional[BullyState] = None
    fetch: Optional[RetrieverTask] = None
    group: Optional[int] = None
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
        clear_cost: int = 30,
        group_capacity: int = GROUP_CAPACITY,
    ):
        self.team = team
        self.names = sorted(names)
        self.rng = random.Random(f"{seed}:{team}")
        self.store = MapStore(self.names)
        self.cache = cache
        self.clear_cost = clear_cost
        self.group_capacity = group_capacity
        self.width: Optional[int] = None
        self.height: Optional[int] = None
        self.carto: dict[str, CartographyState] = {}
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

    def dims(self) -> Optional[Dims]:
        if self.width is not None and self.height is not None:
            return Dims(self.width, self.height)
        return None

    def _solve(self, problem: Problem) -> Plan:
        if self.cache is None:
            self.solver_calls += 1
            self._emit(self._step, "plan", outcome="solve")
            return solve(problem)
        plan, outcome = solve_cached(problem, self.cache, self._counted_solve)
        self._emit(self._step, "plan", outcome=outcome)
        return plan

    def _counted_solve(self, problem: Problem) -> Plan:
        self.solver_calls += 1
        return solve(problem)

    def _navigator(self, rt: AgentRuntime) -> Navigator:
        if rt.navigator is None:
            rt.navigator = Navigator(solve_fn=self._solve, clear_threshold=self.clear_cost)
        return rt.navigator

    def _emit(self, step: int, kind: str, **payload) -> None:
        self.events.append({"step": step, "type": kind, "team": self.team, **payload})

    def drain_events(self) -> list[dict]:
        out = self.events
        self.events = []
        return out

    def position_of(self, name: str) -> Coord:
        return self.store.position_of(name)

    # ------------------------------------------------------------ main loop

    def act(self, percepts: dict[str, Percept], step: int) -> dict[str, Action]:
        self._step = step
        self._note_results(percepts)
        for name in self.names:
            record_statics(self.store.maps[name], percepts[name])
        idents, _stats = identification_round(self.team, percepts, step)
        if idents:
            self._emit(step, "identification", count=len(idents))
        pairs = mutual_pairs(idents)
        self._cartography(pairs, idents, step)
        self._merges(pairs, step)
        self._maybe_start_building(step)
        self._group_coordination(percepts, step)
        actions: dict[str, Action] = {}
        for name in self.names:
            rt = self.runtimes[name]
            action = self._policy(rt, percepts[name], step)
            rt.last_action = action
            actions[name] = action
            nav = rt.navigator
            if nav is not None and nav.stuck and not rt.stuck_reported:
                rt.stuck_reported = True
                self._emit(step, "stuck", agent=name)
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
                self.store.maps[name].advance(off)
                state = self.carto.get(name)
                if state is not None and state.status == "active":
                    if name == state.pair[0]:
                        state.steps_a += 1
                    else:
                        state.steps_b += 1
            elif last == ("accept", "success"):
                rt.accepted_tasks.add(rt.last_action.task)

    # ------------------------------------------------------------ cartography

    def _cartography(self, pairs, idents, step: int) -> None:
        # Re-sighting first: an active pair identifying each other again
        # after separation closes the measurement.
        for state in list({id(s): s for s in self.carto.values()}.values()):
            if state.status != "active":
                continue
            a, b = state.pair
            hits = [e for e in idents if (e.observer, e.observed) in ((a, b), (b, a))]
            if not hits:
                continue
            e = next((x for x in hits if x.observer == a), hits[0])
            off = e.offset if e.observer == a else neg(e.offset)
            along = state.axis(off)
            gap = step - state.last_seen_step
            state.last_seen_step = step
            if gap < RESIGHT_GAP or along > 0:
                continue
            try:
                size = finish_dimension(
                    state.steps_a, state.steps_b, state.initial_distance, -along
                )
            except CartographyFault:
                self._abort_pair(state, step)
                continue
            state.status = "finished"
            if state.dimension == "horizontal":
                self.width = size
            else:
                self.height = size
            for n in state.pair:
                self.runtimes[n].role = EXPLORER
                del self.carto[n]
            self._emit(
                step,
                "cartography_finished",
                dimension=state.dimension,
                size=size,
                pair=list(state.pair),
                steps=[state.steps_a, state.steps_b],
                initial_distance=state.initial_distance,
                residual=-along,
            )
            d = self.dims()
            if d:
                self.store.set_dims(d)
        # Adoption: a fresh mutual identification between two explorers.
        for fwd, _back in pairs:
            a, b = fwd.observer, fwd.observed
            if self.runtimes[a].role != EXPLORER or self.runtimes[b].role != EXPLORER:
                continue
            dimension = self._open_dimension()
            if dimension is None:
                return
            state = adopt_cartographers(a, b, fwd.offset, dimension, step)
            if state is None:
                continue
            self.carto[a] = state
            self.carto[b] = state
            self.runtimes[a].role = CARTOGRAPHER
            self.runtimes[b].role = CARTOGRAPHER
            self._emit(
                step,
                "cartography_started",
                dimension=dimension,
                pair=list(state.pair),
                initial_distance=state.initial_distance,
            )

    def _open_dimension(self) -> Optional[str]:
        active = {s.dimension for s in self.carto.values() if s.status == "active"}
        if self.width is None and "horizontal" not in active:
            return "horizontal"
        if self.height is None and "vertical" not in active:
            return "vertical"
        return None

    def _abort_pair(self, state: CartographyState, step: int) -> None:
        for n in state.pair:
            self.runtimes[n].role = EXPLORER
            self.carto.pop(n, None)
        self._emit(step, "cartography_aborted", dimension=state.dimension, pair=list(state.pair))

    # ---------------------------------------------------------------- merges

    def _merges(self, pairs, step: int) -> None:
        for fwd, _back in pairs:
            a, b = fwd.observer, fwd.observed
            if self.store.leader_of(a) == self.store.leader_of(b):
                continue
            self.store.queue_sighting(
                Sighting(
                    a=a,
                    b=b,
                    offset=fwd.offset,
                    pos_a=self.store.maps[a].self_pos,
                    pos_b=self.store.maps[b].self_pos,
                    step=step,
                )
            )
        for record in self.store.process_merges():
            self._emit(
                step,
                "merge",
                a=record.sighting.a,
                b=record.sighting.b,
                winner=record.winner,
                absorbed=list(record.absorbed),
                transcript=list(record.transcript),
            )

    # -------------------------------------------------------- group formation

    def _maybe_start_building(self, step: int) -> None:
        if self.building or self.dims() is None:
            return
        leaders = {self.store.leader_of(n) for n in self.names}
        if len(leaders) != 1:
            return
        self.building = True
        n_groups, leftovers = form_groups(len(self.names), self.group_capacity)
        census: dict[str, int] = {}
        for i, name in enumerate(self.names):
            rt = self.runtimes[name]
            gid, slot = divmod(i, self.group_capacity)
            if gid < n_groups:
                rt.role = role_for_slot(slot)
                rt.group = gid
            else:
                rt.role = BULLY_HUNTER
                rt.group = None
            if rt.role in (BULLY_HUNTER, BULLY_BOUNCER):
                rt.bully = BullyState(kind="hunter")
            census[rt.role] = census.get(rt.role, 0) + 1
        self.bouncer_count = 0
        self.groups = []
        for gid in range(n_groups):
            members = self.names[gid * self.group_capacity : (gid + 1) * self.group_capacity]
            group = TaskGroup(gid=gid, members=members)
            for m in members:
                role = self.runtimes[m].role
                if role == ORIGIN:
                    group.origin = m
                elif role == DELIVERER:
                    group.deliverer = m
                elif role == RETRIEVER:
                    group.retrievers.append(m)
                elif role == BULLY_HUNTER:
                    group.bully = m
            self.groups.append(group)
        self._assign_clusters()
        self._emit(
            step,
            "building_started",
            groups=n_groups,
            leftover_bullies=leftovers,
            census=census,
        )

    def goal_clusters(self) -> list[list[Coord]]:
        """Connected goal-cell components in the shared frame, largest first."""
        d = self.dims()
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
                    nxt = add(cur, off)
                    if d:
                        nxt = wrap(*nxt, d)
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
                group.taskboard = nearest(view.taskboards, group.anchor, self.dims())

    # ------------------------------------------------------ group coordination

    def _group_coordination(self, percepts: dict[str, Percept], step: int) -> None:
        for group in self.groups:
            if not group.goal_cluster:
                self._assign_clusters()
            self._update_anchor_state(group, percepts)
            self._note_connect_results(group, percepts, step)
            self._update_swap(group, percepts, step)
            self._reassign_stalled(group, step)
            self._update_task(group, percepts, step)

    def _note_connect_results(self, group: TaskGroup, percepts, step: int) -> None:
        for slot, name in list(group.assignments.items()):
            rt = self.runtimes[name]
            if (
                rt.fetch is not None
                and rt.fetch.phase == "connect"
                and percepts[name].last_action_result == ("connect", "success")
            ):
                group.staged.add(slot)
                if group.next_deliverer is None:
                    group.next_deliverer = name
                    self._emit(step, "next_deliverer", group=group.gid, agent=name)
                rt.fetch = None

    def _reassign_stalled(self, group: TaskGroup, step: int) -> None:
        for slot, name in list(group.assignments.items()):
            rt = self.runtimes[name]
            if rt.fetch is None or rt.fetch.stall < STALL_REASSIGN:
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
            group.assignments[slot] = idle[0]
            self.runtimes[idle[0]].fetch = RetrieverTask(
                slot=slot, offset=spec.offset, block_type=spec.block_type
            )
            self._emit(step, "slot_reassigned", group=group.gid, slot=slot, agent=idle[0])

    def _update_anchor_state(self, group: TaskGroup, percepts) -> None:
        if group.origin is None or group.anchor is None:
            return
        origin_pos = self.position_of(group.origin)
        group.origin_anchored = origin_pos == group.anchor
        if group.deliverer is not None and group.taskboard is not None:
            dpos = self.position_of(group.deliverer)
            group.deliverer_ready = (
                torus_distance(dpos, group.taskboard, self.dims()) <= 2
            )

    def _update_task(self, group: TaskGroup, percepts, step: int) -> None:
        if group.active_task is not None:
            # Drop expired tasks and restage.
            visible = {t.name for t in percepts[self.names[0]].tasks}
            if group.active_task.name not in visible:
                self._emit(step, "task_dropped", group=group.gid, task=group.active_task.name)
                self._reset_assembly(group)
            return
        if not (group.origin_anchored and group.deliverer_ready):
            return
        view = self.store.merged_view(self.names[0])
        retrievable = {t for _c, t in view.dispensers}
        choice = select_task(
            percepts[group.deliverer].tasks, retrievable, step, len(group.retrievers)
        )
        if choice is not None:
            group.active_task = choice
            self._assign_slots(group)
            self._emit(step, "task_selected", group=group.gid, task=choice.name)

    def _assign_slots(self, group: TaskGroup) -> None:
        group.assignments = {}
        group.staged = set()
        group.swap_phase = "none"
        reqs = group.requirement_list()
        available = [r for r in group.retrievers]
        for slot, (off, btype) in enumerate(reqs):
            if not available:
                break
            name = available[slot % len(available)]
            group.assignments[slot] = name
            self.runtimes[name].fetch = RetrieverTask(slot=slot, offset=off, block_type=btype)

    def _reset_assembly(self, group: TaskGroup) -> None:
        group.active_task = None
        group.assignments = {}
        group.staged = set()
        group.swap_phase = "none"
        for name in group.retrievers:
            self.runtimes[name].fetch = None

    def _update_swap(self, group: TaskGroup, percepts, step: int) -> None:
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
            self._emit(step, "task_submitted", group=group.gid, task=group.active_task.name)
            self._rotate_roles(group, step)

    def _deliverer_in_place(self, group: TaskGroup) -> bool:
        d = self.dims()
        waits = {wrap(*add(group.anchor, off), d) for off in WAIT_OFFSETS}
        return self.position_of(group.deliverer) in waits

    def _rotate_roles(self, group: TaskGroup, step: int) -> None:
        old_origin, old_deliverer = group.origin, group.deliverer
        group.origin = old_deliverer
        self.runtimes[old_deliverer].role = ORIGIN
        self.runtimes[old_origin].role = RETRIEVER
        if old_origin not in group.retrievers:
            group.retrievers.append(old_origin)
        if group.next_deliverer is not None and group.next_deliverer in group.retrievers:
            group.deliverer = group.next_deliverer
            group.retrievers.remove(group.next_deliverer)
            self.runtimes[group.next_deliverer].role = DELIVERER
            self.runtimes[group.next_deliverer].fetch = None
        else:
            group.deliverer = old_origin
            group.retrievers.remove(old_origin)
            self.runtimes[old_origin].role = DELIVERER
        group.next_deliverer = None
        self._reset_assembly(group)
        self._emit(
            step,
            "roles_rotated",
            group=group.gid,
            origin=group.origin,
            deliverer=group.deliverer,
        )

    # ---------------------------------------------------------------- policies

    def _policy(self, rt: AgentRuntime, percept: Percept, step: int) -> Action:
        if rt.role == CARTOGRAPHER:
            return cartographer_action(self.carto[rt.name], rt.name, percept, self.clear_cost)
        if rt.role in (BULLY_BOUNCER, BULLY_HUNTER):
            return self._bully_policy(rt, percept, step)
        if rt.role == ORIGIN:
            return self._origin_policy(rt, percept, step)
        if rt.role == DELIVERER:
            return self._deliverer_policy(rt, percept, step)
        if rt.role == RETRIEVER:
            return self._retriever_policy(rt, percept, step)
        return self._explorer_policy(rt, percept, step)

    # -- explorer

    def _explorer_policy(self, rt: AgentRuntime, percept: Percept, step: int) -> Action:
        if not self.building and self.bouncer_count < MAX_BOUNCERS:
            goal_offs = [off for off, kind in percept.terrain if kind == "goal"]
            if goal_offs:
                rt.role = BULLY_BOUNCER
                rt.bully = BullyState(
                    kind="bouncer",
                    patrol_center=add(self.store.maps[rt.name].self_pos, min(goal_offs)),
                )
                self.bouncer_count += 1
                self._emit(step, "role_change", agent=rt.name, role=BULLY_BOUNCER)
                return self._bully_policy(rt, percept, step)
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

    def _bully_policy(self, rt: AgentRuntime, percept: Percept, step: int) -> Action:
        st = rt.bully
        prey = self._prey_block(percept)
        if prey is not None:
            st.steps_without_prey = 0
            if percept.self_energy >= self.clear_cost:
                return Action.clear(prey)
            return Action.skip()
        if st.kind == "hunter":
            st.steps_without_prey += 1
            if st.steps_without_prey >= st.relocate_after:
                self._relocate_hunter(rt, step)
        if st.patrol_center is None:
            st.patrol_center = self._pick_patrol_center(rt)
            if st.patrol_center is None:
                return self._explorer_movement_only(rt, percept)
        pos = self.store.maps[rt.name].self_pos if st.kind == "bouncer" else self.position_of(rt.name)
        target = add(st.patrol_center, PATROL_RING[st.patrol_phase])
        d = self.dims()
        if d:
            target = wrap(*target, d)
        if pos == target:
            st.patrol_phase = (st.patrol_phase + 1) % len(PATROL_RING)
            target = add(st.patrol_center, PATROL_RING[st.patrol_phase])
            if d:
                target = wrap(*target, d)
        act = self._greedy_step(percept, pos, target)
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

    def _relocate_hunter(self, rt: AgentRuntime, step: int) -> None:
        st = rt.bully
        clusters = self.goal_clusters()
        if len(clusters) > 1 or (clusters and st.patrol_center not in clusters[0]):
            st.cluster_index = (st.cluster_index + 1) % len(clusters)
            st.patrol_center = bottom_most(clusters[st.cluster_index])
            st.steps_without_prey = 0
            st.patrol_phase = 0
            self._emit(step, "bully_relocated", agent=rt.name, center=list(st.patrol_center))

    def _pick_patrol_center(self, rt: AgentRuntime) -> Optional[Coord]:
        if rt.bully.kind == "bouncer":
            goals = self.store.maps[rt.name].goals
            return nearest(goals, self.store.maps[rt.name].self_pos, self.dims())
        clusters = self.goal_clusters()
        if not clusters:
            return None
        st = rt.bully
        st.cluster_index %= len(clusters)
        return bottom_most(clusters[st.cluster_index])

    def _greedy_step(self, percept: Percept, pos: Coord, target: Coord) -> Action:
        d = self.dims()
        if d:
            return fallback_one_step(percept, pos, target, d)
        # Pre-normalization movement: plain vector chase in own frame.
        diff = sub(target, pos)
        order = []
        if diff[1] < 0:
            order.append("n")
        if diff[1] > 0:
            order.append("s")
        if diff[0] > 0:
            order.append("e")
        if diff[0] < 0:
            order.append("w")
        for direction in order:
            if self._free_ahead(percept, direction):
                return Action.move(direction)
        return Action.skip()

    def _explorer_movement_only(self, rt: AgentRuntime, percept: Percept) -> Action:
        if self._free_ahead(percept, rt.explore_dir):
            return Action.move(rt.explore_dir)
        for d in _perpendicular(rt.explore_dir):
            if self._free_ahead(percept, d):
                return Action.move(d)
        return Action.skip()

    # -- origin

    def _origin_policy(self, rt: AgentRuntime, percept: Percept, step: int) -> Action:
        group = self.groups[rt.group]
        if group.anchor is None:
            return self._explorer_policy(rt, percept, step)
        pos = self.position_of(rt.name)
        if group.swap_phase == "detached" and pos == group.anchor:
            return self._vacate(group, percept, pos)
        if group.swap_phase != "none":
            return Action.skip()
        if pos != group.anchor:
            nav = self._navigator(rt)
            nav.set_destination(self._free_anchor(group, percept, pos))
            return nav.next_action(percept, pos, self.dims())
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

    def _free_anchor(self, group: TaskGroup, percept: Percept, pos: Coord) -> Coord:
        """Bottom-most unoccupied goal cell of the cluster, judged from the
        origin's current view."""
        d = self.dims()
        occupied = {wrap(*add(pos, off), d) for off in percept.occupied}
        for cell in sorted(group.goal_cluster, key=lambda c: (-c[1], c[0])):
            if cell not in occupied:
                return cell
        return group.anchor

    def _vacate(self, group: TaskGroup, percept: Percept, pos: Coord) -> Action:
        """Step off the anchor to the north, east or west, never onto the
        deliverer's cell."""
        deliverer_pos = self.position_of(group.deliverer)
        d = self.dims()
        for direction in ("n", "e", "w"):
            cell = wrap(*add(pos, DIR_OFFSETS[direction]), d)
            if cell != deliverer_pos and self._free_ahead(percept, direction):
                return Action.move(direction)
        return Action.skip()

    # -- deliverer

    def _deliverer_policy(self, rt: AgentRuntime, percept: Percept, step: int) -> Action:
        group = self.groups[rt.group]
        if group.taskboard is None:
            return self._explorer_policy(rt, percept, step)
        pos = self.position_of(rt.name)
        d = self.dims()
        if group.active_task is None:
            if torus_distance(pos, group.taskboard, d) > 2:
                nav = self._navigator(rt)
                nav.set_destination(group.taskboard)
                return nav.next_action(percept, pos, d)
            return Action.skip()
        if group.active_task.name not in rt.accepted_tasks:
            if torus_distance(pos, group.taskboard, d) <= 2:
                return Action.accept(group.active_task.name)
            nav = self._navigator(rt)
            nav.set_destination(group.taskboard)
            return nav.next_action(percept, pos, d)
        # Swap choreography: wait beside the anchor while the structure is
        # built, step onto it once the origin has detached, attach, submit.
        if group.swap_phase == "none":
            if self._deliverer_in_place(group):
                return Action.skip()
            nav = self._navigator(rt)
            nav.set_destination(self._swap_wait_cell(group, percept, pos))
            return nav.next_action(percept, pos, d)
        if group.swap_phase == "detached":
            step_dir = OFFSET_DIRS.get(delta(pos, group.anchor, d))
            if step_dir is not None:
                return Action.move(step_dir)
            nav = self._navigator(rt)
            nav.set_destination(group.anchor)
            return nav.next_action(percept, pos, d)
        if group.swap_phase == "entered":
            return Action.attach("s")
        return Action.submit(group.active_task.name)

    def _swap_wait_cell(self, group: TaskGroup, percept: Percept, pos: Coord) -> Coord:
        """Cell adjacent to the origin that is not below it."""
        d = self.dims()
        for off in WAIT_OFFSETS:
            cell = wrap(*add(group.anchor, off), d)
            if cell == pos:
                return cell
            if not self._cell_occupied(percept, pos, cell):
                return cell
        return wrap(*add(group.anchor, (0, -1)), d)

    def _cell_occupied(self, percept: Percept, pos: Coord, cell: Coord) -> bool:
        return delta(pos, cell, self.dims()) in percept.occupied

    # -- retriever

    def _retriever_policy(self, rt: AgentRuntime, percept: Percept, step: int) -> Action:
        group = self.groups[rt.group]
        task = rt.fetch
        pos = self.position_of(rt.name)
        d = self.dims()
        if task is None:
            return self._step_aside(group, percept, pos)
        view = self.store.merged_view(rt.name)
        last = percept.last_action_result
        if last is not None and last[1] == "success" and last[0] != "skip":
            task.stall = 0
        else:
            task.stall += 1
        if task.phase == "fetch":
            dispensers = view.of_kind("dispenser", task.block_type)
            if not dispensers:
                return self._explorer_policy(rt, percept, step)
            target = nearest(dispensers, pos, d)
            approach = self._adjacent_free(percept, pos, target)
            if pos == approach or delta(pos, target, d) in CARDINALS:
                task.phase = "request"
            else:
                nav = self._navigator(rt)
                nav.set_destination(approach)
                return nav.next_action(percept, pos, d)
        if task.phase == "request":
            dispensers = view.of_kind("dispenser", task.block_type)
            target = nearest(dispensers, pos, d)
            off = delta(pos, target, d)
            direction = OFFSET_DIRS.get(off)
            if direction is None:
                task.phase = "fetch"
                return Action.skip()
            if off in percept.blocks:
                task.phase = "grab"
                return Action.attach(direction)
            task.phase = "grab"
            return Action.request(direction)
        if task.phase == "grab":
            if percept.self_attached:
                task.phase = "deliver"
            else:
                dispensers = view.of_kind("dispenser", task.block_type)
                target = nearest(dispensers, pos, d)
                direction = OFFSET_DIRS.get(delta(pos, target, d))
                if direction is None:
                    task.phase = "fetch"
                    return Action.skip()
                if DIR_OFFSETS[direction] in percept.blocks:
                    return Action.attach(direction)
                return Action.request(direction)
        if task.phase == "deliver":
            slot_cell = wrap(*add(group.anchor, task.offset), d) if group.anchor else None
            if slot_cell is None:
                return Action.skip()
            approach = self._slot_approach(group, slot_cell, task.approach_index)
            if pos != approach:
                nav = self._navigator(rt)
                nav.set_destination(approach)
                return nav.next_action(percept, pos, d)
            task.phase = "orient"
            task.orient_fails = 0
        if task.phase == "orient":
            slot_cell = wrap(*add(group.anchor, task.offset), d)
            need = delta(pos, slot_cell, d)
            if need not in CARDINALS:
                task.phase = "deliver"
                return Action.skip()
            current = percept.self_attached[0][0] if percept.self_attached else None
            if current is None:
                task.phase = "fetch"
                return Action.skip()
            if current == need:
                task.phase = "connect"
            else:
                if percept.last_action_result == ("rotate", "failed:blocked"):
                    task.orient_fails += 1
                    if task.orient_fails >= 4:
                        # Rotation pinned by neighbors: try the next approach.
                        task.approach_index += 1
                        task.phase = "deliver"
                        rt.navigator = None
                        return Action.skip()
                return Action.rotate(_rotation_toward(current, need))
        if task.phase == "connect":
            if not self._predecessors_staged(group, task.slot):
                return Action.skip()  # structure must grow outward from the origin
            slot_cell = wrap(*add(group.anchor, task.offset), d)
            off = delta(pos, slot_cell, d)
            if off not in CARDINALS:
                task.phase = "deliver"
                return Action.skip()
            return Action.connect(group.origin, off)
        return Action.skip()

    def _predecessors_staged(self, group: TaskGroup, slot: int) -> bool:
        return all(s in group.staged for s in range(slot))

    def _step_aside(self, group: TaskGroup, percept: Percept, pos: Coord) -> Action:
        """Clear out of the assembly area once a block is handed over."""
        d = self.dims()
        structure = {group.anchor} | {
            wrap(*add(group.anchor, off), d) for off, _bt in group.requirement_list()
        }
        if all(
            wrap(*add(pos, DIR_OFFSETS[direction]), d) not in structure
            for direction in DIRECTIONS
        ):
            return Action.skip()
        away = fallback_one_step(
            percept, pos, wrap(*add(group.anchor, (6, 6)), d), d
        )
        return away

    def _adjacent_free(self, percept: Percept, pos: Coord, target: Coord) -> Coord:
        d = self.dims()
        for off in CARDINALS:
            cell = wrap(*add(target, off), d)
            if cell == pos or not self._cell_occupied(percept, pos, cell):
                return cell
        return wrap(*add(target, (0, 1)), d)

    def _slot_approach(self, group: TaskGroup, slot_cell: Coord, index: int = 0) -> Coord:
        """Agent cell from which the held block lands exactly on the slot:
        south of it when free of the structure, else east, west, north.
        `index` cycles through the remaining candidates on retries."""
        d = self.dims()
        structure = {group.anchor} | {
            wrap(*add(group.anchor, off), d) for off, _bt in group.requirement_list()
        }
        candidates = [
            wrap(*add(slot_cell, off), d)
            for off in ((0, 1), (1, 0), (-1, 0), (0, -1))
            if wrap(*add(slot_cell, off), d) not in structure
        ]
        if not candidates:
            return wrap(*add(slot_cell, (0, 1)), d)
        return candidates[index % len(candidates)]


# ------------------------------------------------------------------ helpers


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
