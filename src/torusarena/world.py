"""Ground-truth synchronous simulator: terrain, facilities, agents, blocks,
actions, clear mechanics, tasks and scoring, all driven by one seeded RNG.

Percepts are immutable snapshots of the 61-cell diamond around an agent and
never leak agent identities, only team names; they are built only for the
agents a caller names. A percept visits only the diamond's marked cells: a
marked cell sets bit `y` of its column's int, repeated round the torus so
that one shift and one mask cut any column of the diamond out of it. The
fixed cells (goals, obstacles, taskboards) are marked once, when the world
is built, and the terrain and taskboards a diamond holds are cached per
agent cell on first use; a clear that empties an obstacle is the one event
that changes them, and it drops the views of every cell whose diamond holds
the cleared cell. The cells that may hold a thing (a dispenser, a block or
an agent) are marked once per `percepts` call. Actions are applied in
ascending agent-name order, which doubles as the conflict-resolution rule:
the lower name wins a contested cell.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Optional

from .torus import (
    CARDINALS,
    DIAMOND,
    DIR_OFFSETS,
    VISION_RADIUS,
    Coord,
    Dims,
    Offset,
    add,
    delta,
    manhattan,
    rotate_ccw,
    rotate_cw,
    torus_distance,
    wrap,
)

EMPTY, OBSTACLE, GOAL = "empty", "obstacle", "goal"

# The game's rules.
BLOCK_TYPES = ("b1", "b2")
MAX_ACTIVE_TASKS = 4
TASK_DEADLINE_RANGE = (80, 200)
INITIAL_ENERGY = 100
MAX_ENERGY = 100
RECHARGE = 1  # energy regained per step
CLEAR_COST = 30
CLEAR_RANGE = 5
DISABLE_DURATION = 4  # steps an agent hit by a clear stays disabled
ACCEPT_RADIUS = 2  # distance to a task board from which a task can be accepted
CLEAR_EVENT_RADIUS = 2  # radius of the diamond an area clear event empties

# The vision diamond as its columns, west to east: (dx, half-height, mask of
# the column's 2 * half-height + 1 rows, the rows' offsets north to south,
# and per terrain kind the rows' (offset, kind) pairs, which every cached
# view shares). Walking them in this order, each from north to south,
# visits the offsets in sorted order.
_DIAMOND_COLUMNS = tuple(
    (
        dx,
        span,
        (1 << 2 * span + 1) - 1,
        rows,
        {kind: tuple((off, kind) for off in rows) for kind in (GOAL, OBSTACLE)},
    )
    for dx in range(-VISION_RADIUS, VISION_RADIUS + 1)
    for span in (VISION_RADIUS - abs(dx),)
    for rows in (tuple((dx, dy) for dy in range(-span, span + 1)),)
)

# A diamond's terrain and taskboards: what a percept sees that only clears change.
FixedView = tuple[tuple[tuple[Offset, str], ...], tuple[Offset, ...]]


class Thing(NamedTuple):
    offset: Offset
    kind: str  # entity | block | dispenser
    detail: str  # team name for entities, block type otherwise


@dataclass(frozen=True)
class Task:
    name: str
    reward: int
    deadline: int
    requirements: frozenset[tuple[Offset, str]]


@dataclass(frozen=True)
class Percept:
    self_energy: int
    self_attached: tuple[tuple[Offset, str], ...]
    things: tuple[Thing, ...]
    terrain: tuple[tuple[Offset, str], ...]
    taskboards: tuple[Offset, ...]
    tasks: tuple[Task, ...]
    last_action_result: Optional[tuple[str, str]]

    # Offset sets built on first use and kept with the snapshot; a cached
    # property is stored outside the fields, so equality and hashing ignore it.
    @cached_property
    def occupied(self) -> frozenset[Offset]:
        """Offsets holding an entity or a block."""
        return frozenset(t.offset for t in self.things if t.kind in ("entity", "block"))

    @cached_property
    def blocks(self) -> frozenset[Offset]:
        return frozenset(t.offset for t in self.things if t.kind == "block")

    @cached_property
    def obstacles(self) -> frozenset[Offset]:
        return frozenset(off for off, kind in self.terrain if kind == OBSTACLE)


@dataclass(frozen=True)
class Action:
    kind: str
    direction: Optional[str] = None
    rotation: Optional[str] = None
    offset: Optional[Offset] = None
    task: Optional[str] = None
    partner: Optional[str] = None

    @staticmethod
    def move(direction: str) -> "Action":
        return Action("move", direction=direction)

    @staticmethod
    def rotate(rotation: str) -> "Action":
        return Action("rotate", rotation=rotation)

    @staticmethod
    def attach(direction: str) -> "Action":
        return Action("attach", direction=direction)

    @staticmethod
    def detach(direction: str) -> "Action":
        return Action("detach", direction=direction)

    @staticmethod
    def connect(partner: str, offset: Offset) -> "Action":
        return Action("connect", partner=partner, offset=offset)

    @staticmethod
    def request(direction: str) -> "Action":
        return Action("request", direction=direction)

    @staticmethod
    def accept(task: str) -> "Action":
        return Action("accept", task=task)

    @staticmethod
    def submit(task: str) -> "Action":
        return Action("submit", task=task)

    @staticmethod
    def clear(offset: Offset) -> "Action":
        return Action("clear", offset=offset)

    @staticmethod
    def skip() -> "Action":
        return Action("skip")

    def describe(self) -> str:
        if self.kind == "move":
            return f"move {self.direction}"
        if self.kind == "rotate":
            return f"rotate {self.rotation}"
        if self.kind in ("attach", "detach", "request"):
            return f"{self.kind} {self.direction}"
        if self.kind == "connect":
            return f"connect {self.partner} {self.offset[0]} {self.offset[1]}"
        if self.kind in ("accept", "submit"):
            return f"{self.kind} {self.task}"
        if self.kind == "clear":
            return f"clear {self.offset[0]} {self.offset[1]}"
        return self.kind


SKIP = Action.skip()


@dataclass
class FixedLayout:
    """A whole layout, the one thing a world is built from: a scripted
    scenario passes its own, otherwise the world draws one from its seed."""

    obstacles: Collection[Coord]
    goals: Collection[Coord]
    dispensers: list[tuple[Coord, str]]
    taskboards: Collection[Coord]
    spawns: dict[str, Coord]  # agent name -> cell
    # (appear_step, name, reward, duration, requirements) tuples
    tasks: list[tuple[int, str, int, int, list[tuple[Offset, str]]]]


@dataclass
class WorldConfig:
    dims: tuple[int, int] = (40, 40)
    teams: dict[str, int] = field(default_factory=lambda: {"alpha": 15, "beta": 15})
    dispensers_per_type: int = 2
    taskboard_count: int = 2
    goal_cluster_count: int = 2
    goal_cluster_size: int = 6
    obstacle_density: float = 0.05
    task_interval: int = 20  # 0 disables random task generation
    task_size_range: tuple[int, int] = (1, 3)
    clear_event_rate: float = 0.01
    fixed: Optional[FixedLayout] = None

    def agent_names(self) -> dict[str, list[str]]:
        return {
            team: [f"{team}{i + 1:02d}" for i in range(n)]
            for team, n in sorted(self.teams.items())
        }


class WorldConfigError(ValueError):
    pass


@dataclass
class AgentState:
    name: str
    team: str
    pos: Coord
    energy: int
    held: set[Coord] = field(default_factory=set)  # the one record of who holds a block
    disabled_until: int = 0
    clear_charge: Optional[tuple[Coord, int]] = None
    accepted: set[str] = field(default_factory=set)
    last_result: Optional[tuple[str, str]] = None

    def attached_offsets(self, world: "World") -> list[tuple[Offset, str]]:
        out = [(delta(self.pos, c, world.dims), world.blocks[c]) for c in self.held]
        out.sort()
        return out


class World:
    """Mutable ground truth. One coordinator mutates it via step(); percepts
    handed out are frozen snapshots."""

    def __init__(self, config: WorldConfig, seed: int):
        self.config = config
        self.seed = seed
        self.dims = Dims(*config.dims).validate()
        self.rng = random.Random(seed)
        self.step_num = 0
        self.terrain: dict[Coord, str] = {}
        self.dispensers: dict[Coord, str] = {}
        self.taskboards: set[Coord] = set()
        self.blocks: dict[Coord, str] = {}  # cell -> block type
        self.links: set[frozenset[Coord]] = set()
        self.agents: dict[str, AgentState] = {}
        # Occupant index: cell -> the agent standing there. Written only by
        # _spawn_agent and _move_structure, the only places a position changes.
        self._occupant: dict[Coord, AgentState] = {}
        # Bit y of column x marks cell (x, y). Each column is repeated
        # `copies` times on either side, at multiples of h, so rows
        # py - R .. py + R sit at bits py - R + copies * h upwards for any
        # py, even when the diamond wraps onto itself.
        copies = -(-VISION_RADIUS // self.dims.h)
        self._repeat = sum(1 << k * self.dims.h for k in range(2 * copies + 1))
        self._middle = copies * self.dims.h
        # The repeated columns of the cells with a goal, an obstacle or a
        # taskboard; _clear_cell is their one writer after _build.
        self._fixed: list[int] = []
        # Agent cell -> the diamond's (terrain, taskboards), built from the
        # fixed columns on first use and dropped by _clear_cell.
        self._views: dict[Coord, FixedView] = {}
        self.tasks: dict[str, Task] = {}
        self.scores: dict[str, int] = {t: 0 for t in sorted(config.teams)}
        self.spawns: dict[str, Coord] = {}
        self._task_counter = 0
        self._events: list[dict] = []  # the current step's events
        self._pending_clear_event: Optional[Coord] = None
        self._build(config.fixed or self._seeded_layout())
        self._inject_scripted_tasks()

    # ------------------------------------------------------------------ setup

    def _seeded_layout(self) -> FixedLayout:
        """A whole layout drawn from the world's RNG: goal clusters,
        obstacles, taskboards, dispensers, then one spawn blob per team."""
        cfg, dims, rng = self.config, self.dims, self.rng
        all_cells = [(x, y) for y in range(dims.h) for x in range(dims.w)]

        goals: set[Coord] = set()
        for _ in range(cfg.goal_cluster_count):
            seed_cell = rng.choice(all_cells)
            cluster = {seed_cell}
            frontier = [seed_cell]
            attempts = cfg.goal_cluster_size * 25
            while len(cluster) < cfg.goal_cluster_size and attempts > 0:
                attempts -= 1
                base = frontier[rng.randrange(len(frontier))]
                nxt = wrap(*add(base, rng.choice(CARDINALS)), dims)
                if nxt not in cluster:
                    cluster.add(nxt)
                    frontier.append(nxt)
            goals |= cluster
        obstacles = {c for c in all_cells if c not in goals and rng.random() < cfg.obstacle_density}

        free = [c for c in all_cells if c not in obstacles]
        taskboards = [rng.choice(free) for _ in range(cfg.taskboard_count)]
        taken = set(taskboards)
        candidates = [c for c in free if c not in taken]
        dispensers = []
        for btype in BLOCK_TYPES:
            for _ in range(cfg.dispensers_per_type):
                if not candidates:
                    raise WorldConfigError("not enough open cells for dispensers")
                dispensers.append((candidates.pop(rng.randrange(len(candidates))), btype))

        spawns: dict[str, Coord] = {}
        used: set[Coord] = set()
        anchors: list[Coord] = []
        for team_names in cfg.agent_names().values():
            anchors.append(self._pick_anchor(free, anchors))
            cells = self._cluster_cells(anchors[-1], len(team_names), obstacles, used)
            spawns.update(zip(team_names, cells))
            used.update(cells)
        return FixedLayout(
            obstacles=obstacles, goals=goals, dispensers=dispensers,
            taskboards=taskboards, spawns=spawns, tasks=[],
        )

    def _pick_anchor(self, open_cells: list[Coord], others: list[Coord]) -> Coord:
        min_gap = (self.dims.w + self.dims.h) // 4
        for _ in range(200):
            c = self.rng.choice(open_cells)
            if all(torus_distance(c, o, self.dims) >= min_gap for o in others):
                return c
        return self.rng.choice(open_cells)

    def _cluster_cells(
        self, anchor: Coord, n: int, obstacles: set[Coord], used: set[Coord]
    ) -> list[Coord]:
        # Breadth-first flood over open cells so teammates start in a blob.
        out: list[Coord] = []
        seen = {anchor}
        queue = [anchor]
        while queue and len(out) < n:
            c = queue.pop(0)
            if c not in obstacles and c not in used:
                out.append(c)
            for d in CARDINALS:
                nxt = wrap(*add(c, d), self.dims)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(out) < n:
            raise WorldConfigError("spawn cluster does not fit on the map")
        return out

    def _build(self, layout: FixedLayout) -> None:
        """The one path that writes terrain, facilities and agents."""
        dims = self.dims
        goals = {wrap(*c, dims) for c in layout.goals}
        obstacles = {wrap(*c, dims) for c in layout.obstacles}
        for y in range(dims.h):
            for x in range(dims.w):
                c = (x, y)
                self.terrain[c] = GOAL if c in goals else (OBSTACLE if c in obstacles else EMPTY)
        self.taskboards = {wrap(*c, dims) for c in layout.taskboards}
        for c, btype in layout.dispensers:
            self.dispensers[wrap(*c, dims)] = btype
        fixed = [0] * dims.w
        for x, y in goals | obstacles | self.taskboards:
            fixed[x] |= 1 << y
        self._fixed = [c * self._repeat for c in fixed]

        names = self.config.agent_names()
        total = sum(len(v) for v in names.values())
        open_cells = len(self.terrain) - len(obstacles - goals)
        if total > open_cells:
            raise WorldConfigError(f"cannot place {total} agents on {open_cells} open cells")
        for team, team_names in names.items():
            for n in team_names:
                if n not in layout.spawns:
                    raise WorldConfigError(f"fixed layout missing spawn for {n}")
                self._spawn_agent(n, team, wrap(*layout.spawns[n], dims))
        self._scripted_tasks = list(layout.tasks)

    def _spawn_agent(self, name: str, team: str, cell: Coord) -> None:
        if self.terrain[cell] == OBSTACLE or self._agent_at(cell) is not None:
            raise WorldConfigError(f"spawn cell {cell} for {name} is not free")
        agent = AgentState(name, team, cell, INITIAL_ENERGY)
        self.agents[name] = agent
        self._occupant[cell] = agent
        self.spawns[name] = cell

    # ---------------------------------------------------------------- queries

    def _agent_at(self, cell: Coord) -> Optional[AgentState]:
        return self._occupant.get(cell)

    def _cell_free(self, cell: Coord, ignore: set[Coord]) -> bool:
        if self.terrain[cell] == OBSTACLE:
            return False
        if cell in self.blocks and cell not in ignore:
            return False
        a = self._agent_at(cell)
        return a is None or a.pos in ignore

    def active_tasks(self) -> list[Task]:
        return [t for _, t in sorted(self.tasks.items()) if t.deadline > self.step_num]

    def layout_digest(self) -> str:
        payload = {
            "dims": list(self.dims),
            "terrain": sorted(f"{x},{y}:{v}" for (x, y), v in self.terrain.items() if v != EMPTY),
            "dispensers": sorted(f"{x},{y}:{t}" for (x, y), t in self.dispensers.items()),
            "taskboards": sorted(f"{x},{y}" for x, y in self.taskboards),
            "spawns": {n: list(c) for n, c in sorted(self.spawns.items())},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # ---------------------------------------------------------------- percept

    def percepts(self, names: Iterable[str]) -> dict[str, Percept]:
        """Percepts of the named agents, in the given order."""
        tasks = tuple(self.active_tasks())
        marked = [0] * self.dims.w
        for cells in (self.dispensers, self.blocks, self._occupant):
            for x, y in cells:
                marked[x] |= 1 << y
        repeat = self._repeat
        columns = [c * repeat for c in marked]
        out = {}
        for name in names:
            if name not in self.agents:
                raise KeyError(f"unknown agent {name!r}")
            out[name] = self._percept(self.agents[name], tasks, columns)
        return out

    def _percept(self, me: AgentState, tasks: tuple[Task, ...], columns: list[int]) -> Percept:
        things: list[Thing] = []
        px, py = me.pos
        w, h = self.dims
        middle = self._middle
        occupant, blocks, dispensers = self._occupant, self.blocks, self.dispensers
        # Columns west to east, each column's marked rows north to south, and
        # a cell's things in kind order, so the list comes out sorted.
        for dx, span, mask, rows, _pairs in _DIAMOND_COLUMNS:
            x = (px + dx) % w
            window = (columns[x] >> (py - span + middle)) & mask
            while window:
                low = window & -window
                window ^= low
                row = low.bit_length() - 1
                off = rows[row]
                cell = (x, (py + row - span) % h)
                block = blocks.get(cell)
                if block is not None:
                    things.append(Thing(off, "block", block))
                dispenser = dispensers.get(cell)
                if dispenser is not None:
                    things.append(Thing(off, "dispenser", dispenser))
                # Test the offset, not the agent: on a side of at most
                # VISION_RADIUS the diamond wraps onto the agent's own cell at
                # a non-zero offset, and the agent lists itself there.
                if off != (0, 0):
                    other = occupant.get(cell)
                    if other is not None:
                        things.append(Thing(off, "entity", other.team))
        view = self._views.get(me.pos)
        if view is None:
            view = self._views[me.pos] = self._fixed_view(me.pos)
        return Percept(
            self_energy=me.energy,
            self_attached=tuple(me.attached_offsets(self)),
            things=tuple(things),
            terrain=view[0],
            taskboards=view[1],
            tasks=tasks,
            last_action_result=me.last_result,
        )

    def _fixed_view(self, pos: Coord) -> FixedView:
        """The sorted terrain and taskboards of the diamond around `pos`,
        walking the fixed columns' marked cells."""
        terrain: list[tuple[Offset, str]] = []
        boards: list[Offset] = []
        px, py = pos
        w, h = self.dims
        fixed, middle = self._fixed, self._middle
        cells, taskboards = self.terrain, self.taskboards
        for dx, span, mask, rows, pairs in _DIAMOND_COLUMNS:
            x = (px + dx) % w
            window = (fixed[x] >> (py - span + middle)) & mask
            while window:
                low = window & -window
                window ^= low
                row = low.bit_length() - 1
                cell = (x, (py + row - span) % h)
                kind = cells[cell]
                if kind != EMPTY:
                    terrain.append(pairs[kind][row])
                if cell in taskboards:
                    boards.append(rows[row])
        return tuple(terrain), tuple(boards)

    # ------------------------------------------------------------------- step

    def step(
        self, actions: dict[str, Action], observers: Iterable[str]
    ) -> tuple[dict[str, Percept], list[dict]]:
        """Apply one step's actions; return the observers' new percepts and
        the step's events."""
        self._events = []
        for name in sorted(self.agents):
            act = actions.get(name, SKIP)
            result = self._apply(self.agents[name], act)
            self.agents[name].last_result = (act.kind, result)
            self._events.append(
                {
                    "step": self.step_num,
                    "type": "action",
                    "agent": name,
                    "action": act.describe(),
                    "result": result,
                }
            )
        self._dynamics()
        self.step_num += 1
        self._inject_scripted_tasks()
        return self.percepts(observers), self._events

    def _dynamics(self) -> None:
        cfg = self.config
        for name, task in sorted(self.tasks.items()):
            if task.deadline <= self.step_num + 1:
                self._events.append({"step": self.step_num, "type": "task_expired", "task": name})
                del self.tasks[name]
        if cfg.task_interval > 0 and self.step_num % cfg.task_interval == 0:
            if len(self.active_tasks()) < MAX_ACTIVE_TASKS:
                task = self._random_task()
                self.tasks[task.name] = task
                self._events.append(
                    {
                        "step": self.step_num,
                        "type": "task_new",
                        "task": task.name,
                        "reward": task.reward,
                        "deadline": task.deadline,
                    }
                )
        if self._pending_clear_event is not None:
            self._apply_area_clear(self._pending_clear_event)
            self._pending_clear_event = None
        if cfg.clear_event_rate > 0 and self.rng.random() < cfg.clear_event_rate:
            center = (self.rng.randrange(self.dims.w), self.rng.randrange(self.dims.h))
            self._pending_clear_event = center
            self._events.append(
                {"step": self.step_num, "type": "clear_event_warning", "cell": list(center)}
            )
        for a in self.agents.values():
            a.energy = min(MAX_ENERGY, a.energy + RECHARGE)

    def _random_task(self) -> Task:
        cfg, rng = self.config, self.rng
        self._task_counter += 1
        lo, hi = cfg.task_size_range
        n = rng.randint(lo, hi)
        reqs: list[tuple[Offset, str]] = []
        taken = {(0, 0)}
        cur = (0, 1)
        for _ in range(n):
            reqs.append((cur, rng.choice(BLOCK_TYPES)))
            taken.add(cur)
            neighbors = [
                add(cur, d)
                for d in CARDINALS
                if add(cur, d) not in taken and add(cur, d)[1] >= 1
            ]
            if not neighbors:
                break
            cur = rng.choice(neighbors)
        deadline = self.step_num + rng.randint(*TASK_DEADLINE_RANGE)
        return Task(
            name=f"task{self._task_counter}",
            reward=10 * len(reqs),
            deadline=deadline,
            requirements=frozenset(reqs),
        )

    def _inject_scripted_tasks(self) -> None:
        for spec in list(self._scripted_tasks):
            step, name, reward, duration, reqs = spec
            if step == self.step_num:
                self.tasks[name] = Task(
                    name=name,
                    reward=reward,
                    deadline=self.step_num + duration,
                    requirements=frozenset((tuple(o), t) for o, t in reqs),
                )
                self._scripted_tasks.remove(spec)

    # --------------------------------------------------------------- actions

    def _apply(self, agent: AgentState, act: Action) -> str:
        if agent.disabled_until > self.step_num and act.kind != "skip":
            result = "failed:disabled"
        else:
            handler = getattr(self, f"_do_{act.kind}", None)
            result = handler(agent, act) if handler else "failed:invalid"
        # Any action but a successful clear interrupts a charge in progress.
        if act.kind != "clear" or result != "success":
            agent.clear_charge = None
        return result

    def _do_skip(self, agent: AgentState, act: Action) -> str:
        return "success"

    def _move_structure(self, agent: AgentState, shift_fn) -> bool:
        """Relocate agent plus held blocks; shift_fn maps old cell -> new cell.
        Returns False (no mutation) on any collision."""
        old_cells = {agent.pos} | agent.held
        moves = {c: shift_fn(c) for c in old_cells}
        for tgt in moves.values():
            if not self._cell_free(tgt, ignore=old_cells):
                return False
        if agent.held:
            new_blocks = {}
            for c in agent.held:
                new_blocks[moves[c]] = self.blocks.pop(c)
            self.blocks.update(new_blocks)
            # Links join block cells only: an empty-handed move leaves them
            # all in place, and otherwise only links touching a moved cell change.
            touched = [link for link in self.links if not link.isdisjoint(moves)]
            self.links.difference_update(touched)
            self.links.update(frozenset(moves.get(c, c) for c in link) for link in touched)
            agent.held = {moves[c] for c in agent.held}
        del self._occupant[agent.pos]
        agent.pos = moves[agent.pos]
        self._occupant[agent.pos] = agent
        return True

    def _do_move(self, agent: AgentState, act: Action) -> str:
        if act.direction not in DIR_OFFSETS:
            return "failed:invalid"
        off = DIR_OFFSETS[act.direction]
        ok = self._move_structure(agent, lambda c: wrap(*add(c, off), self.dims))
        return "success" if ok else "failed:blocked"

    def _do_rotate(self, agent: AgentState, act: Action) -> str:
        if act.rotation not in ("cw", "ccw"):
            return "failed:invalid"
        rot = rotate_cw if act.rotation == "cw" else rotate_ccw
        pivot = agent.pos

        def shift(c: Coord) -> Coord:
            if c == pivot:
                return c
            return wrap(*add(pivot, rot(delta(pivot, c, self.dims))), self.dims)

        ok = self._move_structure(agent, shift)
        return "success" if ok else "failed:blocked"

    def _linked(self, start: Iterable[Coord], within: Optional[set[Coord]] = None) -> set[Coord]:
        """Cells reachable from `start` over block links, stepping only onto
        cells of `within` when it is given."""
        reach = set(start)
        frontier = list(start)
        while frontier:
            c = frontier.pop()
            for link in self.links:
                if c in link:
                    (other,) = link - {c}
                    if other not in reach and (within is None or other in within):
                        reach.add(other)
                        frontier.append(other)
        return reach

    def _do_attach(self, agent: AgentState, act: Action) -> str:
        if act.direction not in DIR_OFFSETS:
            return "failed:invalid"
        cell = wrap(*add(agent.pos, DIR_OFFSETS[act.direction]), self.dims)
        if cell not in self.blocks:
            return "failed:no_block"
        holder = self._holder_of(cell)
        if holder is agent:
            return "failed:already_attached"
        if holder is not None:
            return "failed:enemy_attached" if holder.team != agent.team else "failed:held"
        agent.held |= self._linked((cell,))
        return "success"

    def _holder_of(self, cell: Coord) -> Optional[AgentState]:
        """The agent whose `held` has the cell, if any."""
        for agent in self.agents.values():
            if cell in agent.held:
                return agent
        return None

    def _reachable_held(self, agent: AgentState, severed: Optional[Coord] = None) -> set[Coord]:
        roots = {
            c
            for c in agent.held
            if delta(agent.pos, c, self.dims) in CARDINALS and c != severed
        }
        return self._linked(roots, agent.held)

    def _do_detach(self, agent: AgentState, act: Action) -> str:
        if act.direction not in DIR_OFFSETS:
            return "failed:invalid"
        cell = wrap(*add(agent.pos, DIR_OFFSETS[act.direction]), self.dims)
        if cell not in agent.held:
            return "failed:no_block"
        agent.held = self._reachable_held(agent, severed=cell)
        return "success"

    def _do_connect(self, agent: AgentState, act: Action) -> str:
        if act.offset is None or act.partner is None:
            return "failed:invalid"
        if len(agent.held) != 1:
            return "failed:multi_block"
        cell = wrap(*add(agent.pos, act.offset), self.dims)
        if cell not in agent.held:
            return "failed:no_block"
        if act.partner not in self.agents:
            return "failed:unknown_agent"
        partner = self.agents[act.partner]
        if partner.team != agent.team:
            return "failed:not_teammate"
        adjacent_to_partner = delta(partner.pos, cell, self.dims) in CARDINALS
        adjacent_blocks = {
            b for b in partner.held if delta(b, cell, self.dims) in CARDINALS
        }
        if not adjacent_to_partner and not adjacent_blocks:
            return "failed:not_adjacent"
        agent.held.discard(cell)
        partner.held.add(cell)
        for b in adjacent_blocks:
            self.links.add(frozenset((cell, b)))
        return "success"

    def _do_request(self, agent: AgentState, act: Action) -> str:
        if act.direction not in DIR_OFFSETS:
            return "failed:invalid"
        cell = wrap(*add(agent.pos, DIR_OFFSETS[act.direction]), self.dims)
        if cell not in self.dispensers:
            return "failed:no_dispenser"
        if cell in self.blocks or self._agent_at(cell) is not None:
            return "failed:blocked"
        self.blocks[cell] = self.dispensers[cell]
        return "success"

    def _task_active(self, name: Optional[str]) -> Optional[Task]:
        if name is None or name not in self.tasks:
            return None
        task = self.tasks[name]
        return task if task.deadline > self.step_num else None

    def _do_accept(self, agent: AgentState, act: Action) -> str:
        task = self._task_active(act.task)
        if task is None:
            return "failed:unknown_task"
        near = any(
            torus_distance(agent.pos, b, self.dims) <= ACCEPT_RADIUS
            for b in self.taskboards
        )
        if not near:
            return "failed:too_far"
        agent.accepted.add(task.name)
        return "success"

    def _do_submit(self, agent: AgentState, act: Action) -> str:
        task = self._task_active(act.task)
        if task is None:
            return "failed:unknown_task"
        if task.name not in agent.accepted:
            return "failed:not_accepted"
        if self.terrain[agent.pos] != GOAL:
            return "failed:not_on_goal"
        held = frozenset(
            (delta(agent.pos, c, self.dims), self.blocks[c]) for c in agent.held
        )
        if held != task.requirements:
            return "failed:requirements_mismatch"
        for c in list(agent.held):
            self._remove_block(c)
        self.scores[agent.team] += task.reward
        del self.tasks[task.name]
        self._events.append(
            {
                "step": self.step_num,
                "type": "task_completed",
                "agent": agent.name,
                "task": task.name,
                "team": agent.team,
                "reward": task.reward,
                "blocks": len(task.requirements),
            }
        )
        return "success"

    def _do_clear(self, agent: AgentState, act: Action) -> str:
        if act.offset is None:
            return "failed:invalid"
        if manhattan(act.offset) > CLEAR_RANGE:
            return "failed:out_of_range"
        if agent.energy < CLEAR_COST:
            return "failed:no_energy"
        target = wrap(*add(agent.pos, act.offset), self.dims)
        if agent.clear_charge and agent.clear_charge[0] == target:
            count = agent.clear_charge[1] + 1
        else:
            count = 1
        if count < 3:
            agent.clear_charge = (target, count)
            return "success"
        agent.clear_charge = None
        agent.energy -= CLEAR_COST
        removed = self._clear_cell(target)
        self._events.append(
            {
                "step": self.step_num,
                "type": "clear_completed",
                "agent": agent.name,
                "cell": list(target),
                "removed": removed,
            }
        )
        return "success"

    # ----------------------------------------------------------- clear plumbing

    def _remove_block(self, cell: Coord) -> None:
        holder = self._holder_of(cell)
        del self.blocks[cell]
        self.links = {l for l in self.links if cell not in l}
        if holder is not None:
            holder.held.discard(cell)
            holder.held = self._reachable_held(holder)

    def _clear_cell(self, cell: Coord) -> list[str]:
        removed = []
        if self.terrain[cell] == OBSTACLE:
            self.terrain[cell] = EMPTY
            removed.append("obstacle")
            x, y = cell
            if cell not in self.taskboards:
                self._fixed[x] &= ~(self._repeat << y)
            # The diamond is symmetric: the cells that see `cell` are those
            # it sees. On a side of at most VISION_RADIUS some repeat.
            w, h = self.dims
            views = self._views
            for dx, dy in DIAMOND:
                views.pop(((x + dx) % w, (y + dy) % h), None)
        if cell in self.blocks:
            self._remove_block(cell)
            removed.append("block")
        victim = self._agent_at(cell)
        if victim is not None:
            victim.disabled_until = self.step_num + 1 + DISABLE_DURATION
            victim.held.clear()
            removed.append("agent_disabled")
        return removed

    def _apply_area_clear(self, center: Coord) -> None:
        r = CLEAR_EVENT_RADIUS
        removed = []
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                if abs(dx) + abs(dy) <= r:
                    removed.extend(self._clear_cell(wrap(*add(center, (dx, dy)), self.dims)))
        self._events.append(
            {
                "step": self.step_num,
                "type": "clear_event",
                "cell": list(center),
                "removed": sorted(removed),
            }
        )

    # ------------------------------------------------------------- invariants

    def _walked_view(self, pos: Coord) -> FixedView:
        """A diamond's terrain and taskboards from a walk of all its cells:
        the oracle of the cached views."""
        cells = [(off, wrap(*add(pos, off), self.dims)) for off in sorted(DIAMOND)]
        terrain = tuple((off, self.terrain[c]) for off, c in cells if self.terrain[c] != EMPTY)
        return terrain, tuple(off for off, c in cells if c in self.taskboards)

    def check_invariants(self) -> None:
        """Exhaustive consistency check; used by tests after every tick."""
        assert len(self._occupant) == len(self.agents), "occupant index size differs from agent count"
        fixed = [c for c, t in self.terrain.items() if t != EMPTY or c in self.taskboards]
        unlisted = [(x, y) for x, y in fixed if not self._fixed[x] >> y & 1]
        assert not unlisted, f"fixed cells {sorted(unlisted)} missing from the fixed columns"
        for a in self.agents.values():
            view = self._views.get(a.pos)
            if view is not None:
                assert view == self._walked_view(a.pos), f"stale cached view at {a.pos}"
        seen: dict[Coord, str] = {}
        for a in self.agents.values():
            assert self._occupant.get(a.pos) is a, f"occupant index misses {a.name} at {a.pos}"
            assert a.pos == wrap(*a.pos, self.dims)
            assert self.terrain[a.pos] != OBSTACLE, f"{a.name} standing in an obstacle"
            assert a.pos not in seen, f"two agents on {a.pos}"
            seen[a.pos] = a.name
            assert a.pos not in self.blocks, f"{a.name} shares a cell with a block"
        for c in self.blocks:
            assert self.terrain[c] != OBSTACLE
        held: set[Coord] = set()
        for a in self.agents.values():
            assert held.isdisjoint(a.held), f"{a.name} holds a cell another agent holds"
            held |= a.held
            assert a.held <= self.blocks.keys(), f"{a.name} holds a cell without a block"
            if a.held:
                assert a.held == self._reachable_held(a), f"{a.name} holds a detached block"
        for link in self.links:
            ca, cb = tuple(link)
            assert manhattan(delta(ca, cb, self.dims)) == 1, "link between non-adjacent cells"
            assert ca in self.blocks and cb in self.blocks, "link to a cell without a block"
