"""Match harness: configure a seeded run of the strategy team against a
scripted opponent, stream a line-delimited event log, and rebuild reports
from logs alone.

Everything downstream of (config, seed) is deterministic; the log carries a
header with the config hash and a footer with a digest of every line in
between, so replays can detect any corruption.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Optional

from .plan_cache import CacheStore, classify_key
from .team import TeamController
from .torus import DIRECTIONS, OFFSET_DIRS, Coord, delta, torus_distance
from .world import ACCEPT_RADIUS, Action, FixedLayout, Task, World, WorldConfig

LOG_FORMAT_VERSION = 1
TEAM = "alpha"
OPPONENT = "beta"

PRESETS = {
    "r1": {"team_size": 15, "dims": (40, 40)},
    "r2": {"team_size": 30, "dims": (50, 50)},
    "r3": {"team_size": 50, "dims": (60, 50)},
}


class MatchConfigError(ValueError):
    pass


class ReplayError(ValueError):
    def __init__(self, message: str, last_valid_step: int):
        super().__init__(f"{message} (last valid step: {last_valid_step})")
        self.last_valid_step = last_valid_step


@dataclass
class MatchConfig:
    dims: tuple[int, int] = (40, 40)
    team_size: int = 15
    steps: int = 300
    seed: int = 0
    opponent: str = "idle"  # a key of OPPONENTS
    cache_dir: Optional[str] = None
    cache_readonly: bool = False
    obstacle_density: float = 0.05
    goal_cluster_count: int = 2
    goal_cluster_size: int = 6
    dispensers_per_type: int = 2
    taskboard_count: int = 2
    task_interval: int = 20
    task_size_range: tuple[int, int] = (1, 3)
    clear_event_rate: float = 0.0
    group_capacity: int = 15
    fixed: Optional[FixedLayout] = None

    def validate(self) -> None:
        problems = []
        if self.dims[0] < 8 or self.dims[1] < 8:
            problems.append(f"dims: grid {self.dims[0]}x{self.dims[1]} is below the 8x8 minimum")
        if self.team_size < 1:
            problems.append(f"team_size: must be positive, got {self.team_size}")
        if self.steps < 1:
            problems.append(f"steps: must be positive, got {self.steps}")
        if self.opponent not in OPPONENTS:
            problems.append(f"opponent: unknown policy {self.opponent!r}")
        if not (0.0 <= self.obstacle_density <= 0.5):
            problems.append("obstacle_density: must be within [0, 0.5]")
        if self.group_capacity < 3:
            problems.append(
                "group_capacity: a group needs an origin, a deliverer and a retriever,"
                f" so at least 3, got {self.group_capacity}"
            )
        if problems:
            raise MatchConfigError("; ".join(problems))

    def world_config(self) -> WorldConfig:
        return WorldConfig(
            dims=self.dims,
            teams={TEAM: self.team_size, OPPONENT: self.team_size},
            obstacle_density=self.obstacle_density,
            goal_cluster_count=self.goal_cluster_count,
            goal_cluster_size=self.goal_cluster_size,
            dispensers_per_type=self.dispensers_per_type,
            taskboard_count=self.taskboard_count,
            task_interval=self.task_interval,
            task_size_range=self.task_size_range,
            clear_event_rate=self.clear_event_rate,
            fixed=self.fixed,
        )

    def config_hash(self) -> str:
        payload = asdict(self)
        payload.pop("cache_dir", None)  # cache location must not affect behavior
        payload.pop("cache_readonly", None)
        blob = json.dumps(payload, sort_keys=True, default=repr, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class MatchReport:
    scores: dict[str, int] = field(default_factory=dict)
    tasks_completed: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    planner_invocations: int = 0
    cartography_finish: dict[str, int] = field(default_factory=dict)
    merge_count: int = 0
    identification_count: int = 0
    stuck_events: int = 0
    steps: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


# ------------------------------------------------------------------ opponents


class IdleOpponent:
    def __init__(self, names, seed):
        self.names = names

    def act(self, world: World, step: int) -> dict[str, Action]:
        return {}


class RandomWalkOpponent:
    def __init__(self, names, seed):
        self.names = sorted(names)
        self.rng = random.Random(f"{seed}:walk")

    def act(self, world: World, step: int) -> dict[str, Action]:
        return {n: Action.move(self.rng.choice(DIRECTIONS)) for n in self.names}


class GreedyCourier:
    """Scripted baseline with full layout knowledge: accept a task at the
    nearest board, grab a block from the nearest dispenser (ignoring its
    type: greedy), march straight to the nearest goal cell and try to
    submit. Just enough behavior to walk blocks through goal clusters."""

    def __init__(self, names, seed):
        self.names = sorted(names)
        self.phase = {n: "to_board" for n in self.names}
        self.task = {n: None for n in self.names}
        # Taskboards, dispensers and goal cells never change after the world
        # is built (a clear only empties obstacle cells). So each list of
        # them is sorted once, under its name, and the nearest cell of a list
        # to a cell is kept under (name, cell).
        self.nearest: dict = {}

    def act(self, world: World, step: int) -> dict[str, Action]:
        # The world does not change while the couriers choose.
        tasks = world.active_tasks()
        return {name: self._one(world, name, tasks) for name in self.names}

    def _one(self, world: World, name: str, tasks: list[Task]) -> Action:
        me = world.agents[name]
        phase = self.phase[name]
        if phase == "to_board":
            board = self._nearest(world, me.pos, "taskboards")
            if board is None or not tasks:
                return Action.skip()
            if torus_distance(me.pos, board, world.dims) <= ACCEPT_RADIUS:
                self.task[name] = tasks[0].name
                self.phase[name] = "to_dispenser"
                return Action.accept(self.task[name])
            return self._march(world, me.pos, board)
        if phase == "to_dispenser":
            disp = self._nearest(world, me.pos, "dispensers")
            if disp is None:
                return Action.skip()
            off = delta(me.pos, disp, world.dims)
            if abs(off[0]) + abs(off[1]) == 1:
                direction = OFFSET_DIRS[off]
                if disp in world.blocks:
                    self.phase[name] = "grab"
                    return Action.attach(direction)
                return Action.request(direction)
            return self._march(world, me.pos, disp)
        if phase == "grab":
            if me.held:
                self.phase[name] = "to_goal"
            else:
                disp = self._nearest(world, me.pos, "dispensers")
                off = delta(me.pos, disp, world.dims)
                if abs(off[0]) + abs(off[1]) == 1:
                    return Action.attach(OFFSET_DIRS[off])
                self.phase[name] = "to_dispenser"
                return Action.skip()
        if phase == "to_goal":
            goal = self._nearest(world, me.pos, "goals")
            if goal is None:
                return Action.skip()
            if me.pos == goal:
                self.phase[name] = "submit"
                return Action.submit(self.task[name] or "")
            return self._march(world, me.pos, goal)
        if phase == "submit":
            return Action.submit(self.task[name] or "")
        return Action.skip()

    def _nearest(self, world: World, pos: Coord, which: str) -> Optional[Coord]:
        """The nearest of the world's `which` ("taskboards", "dispensers" or
        "goals") to `pos`, the smallest cell on a tie; None when there are
        none."""
        key = (which, pos)
        if key not in self.nearest:
            cells = self.nearest.get(which)
            if cells is None:
                if which == "goals":
                    cells = sorted(c for c, t in world.terrain.items() if t == "goal")
                else:
                    cells = sorted(getattr(world, which))
                self.nearest[which] = cells
            best = None
            for c in cells:
                d = torus_distance(pos, c, world.dims)
                if best is None or d < best[0]:
                    best = (d, c)
            self.nearest[key] = best[1] if best else None
        return self.nearest[key]

    def _march(self, world: World, pos: Coord, target: Coord) -> Action:
        # Straight-line movement: x axis first, then y; no pathfinding.
        dx, dy = delta(pos, target, world.dims)
        if dx > 0:
            return Action.move("e")
        if dx < 0:
            return Action.move("w")
        if dy > 0:
            return Action.move("s")
        if dy < 0:
            return Action.move("n")
        return Action.skip()


OPPONENTS = {
    "idle": IdleOpponent,
    "random-walk": RandomWalkOpponent,
    "greedy-courier": GreedyCourier,
}


# ----------------------------------------------------------------- the match


@dataclass
class Match:
    """A finished match: the world and team as the last step left them, the
    complete event log, footer included, and the report counted from it."""

    world: World
    team: TeamController
    log: list[str]
    report: MatchReport


def play(config: MatchConfig) -> Match:
    """Play a match to its end. The one step loop: `run` and `export-map`
    both go through here."""
    config.validate()
    world = World(config.world_config(), config.seed)
    names = world.config.agent_names()
    cache = (
        CacheStore(config.cache_dir, readonly=config.cache_readonly)
        if config.cache_dir
        else None
    )
    team = TeamController(
        TEAM,
        names[TEAM],
        config.seed,
        cache=cache,
        group_capacity=config.group_capacity,
    )
    opponent = OPPONENTS[config.opponent](names[OPPONENT], config.seed)
    header = {
        "type": "header",
        "format": LOG_FORMAT_VERSION,
        "config_hash": config.config_hash(),
        "layout_digest": world.layout_digest(),
        "steps": config.steps,
        "seed": config.seed,
    }
    log = [_dump(header)]
    # The report is counted from each record as it is written, by the rules
    # replay counts the log's lines with.
    report = _empty_report()
    # Only the team reads percepts; the opponents read the world itself.
    percepts = world.percepts(names[TEAM])
    for step in range(config.steps):
        actions = team.act(percepts, step)
        actions.update(opponent.act(world, step))
        percepts, world_events = world.step(actions, names[TEAM])
        for record in itertools.chain(team.drain_events(), world_events):
            _tally(report, record)
            log.append(_line(record))
    final = {
        "type": "final",
        "step": config.steps,
        "scores": dict(sorted(world.scores.items())),
    }
    _tally(report, final)
    log.append(_dump(final))
    log.append(_dump({"type": "footer", "sha256": log_digest(log)}))
    return Match(world, team, log, report)


def run_match(config: MatchConfig) -> tuple[MatchReport, list[str]]:
    match = play(config)
    return match.report, match.log


# `json.dumps` with keyword arguments builds a new encoder on every call.
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# An action record always holds the same five keys, three of them strings
# and the step an int, and action records are nearly every line of a log.
# So they are written from their fixed shape, in `_dump`'s key order, with
# the string escaping `_dump` uses; the general encoder costs several times
# more per record.
_ACTION_LINE = '{"action":%s,"agent":%s,"result":%s,"step":%d,"type":"action"}'
_quote = json.encoder.encode_basestring_ascii


def _line(record: dict) -> str:
    """The log line of one record: the same text as `_dump(record)`."""
    if record["type"] == "action":
        return _ACTION_LINE % (
            _quote(record["action"]),
            _quote(record["agent"]),
            _quote(record["result"]),
            record["step"],
        )
    return _dump(record)


def log_digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def replay(lines: list[str]) -> MatchReport:
    """Rebuild the report from a log alone, verifying its integrity."""
    if not lines:
        raise ReplayError("empty log", -1)
    header = _record(lines[0])
    if header is None:
        raise ReplayError("unreadable header", -1)
    if header.get("type") != "header":
        raise ReplayError("missing header", -1)
    if header.get("format") != LOG_FORMAT_VERSION:
        raise ReplayError(f"unsupported format {header.get('format')}", -1)
    footer = _record(lines[-1])
    if footer is None:
        raise ReplayError("unreadable footer", _last_step(lines))
    if footer.get("type") != "footer":
        raise ReplayError("missing footer (truncated log)", _last_step(lines))
    if footer.get("sha256") != log_digest(lines[:-1]):
        raise ReplayError("checksum failure", _last_step(lines))
    return _report_from_log(lines)


def _record(line: str) -> Optional[dict]:
    """The JSON object on a log line, None when the line holds anything else."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def _last_step(lines: list[str]) -> int:
    last = -1
    for line in lines[1:]:
        record = _record(line)
        if record is None:
            break
        last = record.get("step", last)
    return last


def _report_from_log(lines: list[str]) -> MatchReport:
    report = _empty_report()
    for line in lines:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ReplayError("a log line is not a JSON object", _last_step(lines))
        _tally(report, record)
    return report


def _empty_report() -> MatchReport:
    return MatchReport(scores={TEAM: 0, OPPONENT: 0}, tasks_completed={TEAM: 0, OPPONENT: 0})


def _tally(report: MatchReport, record: dict) -> None:
    """Count one log record into the report: the one set of counting rules,
    for a match as it writes its log and for a replay as it reads one."""
    kind = record.get("type")
    if kind == "action":  # nearly every record, and counted by no rule
        return
    if kind == "task_completed":
        team = record["team"]
        report.tasks_completed[team] = report.tasks_completed.get(team, 0) + 1
        report.scores[team] = report.scores.get(team, 0) + record["reward"]
    elif kind == "plan":
        if record["outcome"] == "hit":
            report.cache_hits += 1
        elif record["outcome"] == "miss":
            report.cache_misses += 1
            report.planner_invocations += 1
        else:  # uncached direct solve
            report.planner_invocations += 1
    elif kind == "cartography_finished":
        report.cartography_finish[record["dimension"]] = record["step"]
    elif kind == "merge":
        report.merge_count += 1
    elif kind == "identification":
        report.identification_count += record["count"]
    elif kind == "stuck":
        report.stuck_events += 1
    elif kind == "final":
        report.steps = record["step"]
        report.scores.update(record["scores"])


# ---------------------------------------------------------------- cache stats


def cache_stats(cache_dir: str) -> dict:
    store = CacheStore(cache_dir, readonly=True)
    classes = {"n": 0, "c": 0, "attached": 0, "plain": 0}
    invalid = []
    total_bytes = 0
    for path in sorted(store.root.iterdir()):
        if not path.is_file() or path.name.startswith("."):
            continue
        total_bytes += path.stat().st_size
        info = classify_key(path.name)
        if info is None:
            invalid.append(path.name)
            continue
        flag, attached = info
        classes[flag] += 1
        classes["attached" if attached else "plain"] += 1
    valid = classes["n"] + classes["c"]
    return {
        "keys": valid,
        "by_flag": {"n": classes["n"], "c": classes["c"]},
        "by_attachment": {"attached": classes["attached"], "plain": classes["plain"]},
        "invalid": invalid,
        "bytes": total_bytes,
    }
