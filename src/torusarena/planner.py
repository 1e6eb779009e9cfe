"""Local movement planning over the 61-cell observable diamond.

The problem abstraction mirrors what the agent can see: dispensers and
taskboards do not hinder movement, obstacles are terrain, and blocks and
other agents are all treated as immovable blocks (clearing a block is never
planned, it might be ours). Clearing an obstacle is allowed only when the
problem says so, costs three consecutive clear actions, and plans execute
blindly: a failed step does not trigger a replan until the plan runs out.

One breadth-first search, `_search`, does all the planning; with clearing
allowed, `solve` runs it on the relaxed problem (obstacles empty, no
clearing) first, and over sets of cleared obstacles only if it must.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .torus import (
    CARDINALS,
    DIAMOND,
    DIAMOND_INDEX,
    DIR_OFFSETS,
    DIRECTIONS,
    Coord,
    Dims,
    Offset,
    add,
    manhattan,
    rotate_ccw,
    rotate_cw,
    sub,
    torus_distance,
    wrap,
)
from .world import CLEAR_COST, Action, Percept

EMPTY, OBSTACLE, BLOCKED = "empty", "obstacle", "blocked"

# A plan is a tuple of tokens in the cache file spelling.
Plan = tuple[str, ...]


class ProblemError(ValueError):
    pass


@dataclass(frozen=True)
class Problem:
    labels: tuple[str, ...]  # one of empty/obstacle/blocked per DIAMOND cell
    goal: Offset
    attached: Optional[Offset]
    clear_allowed: bool

    def __post_init__(self):
        if len(self.labels) != len(DIAMOND):
            raise ProblemError("labels must cover the 61-cell diamond")
        if self.goal == (0, 0) or self.goal not in DIAMOND_INDEX:
            raise ProblemError(f"goal {self.goal} outside the diamond")
        if self.labels[DIAMOND_INDEX[self.goal]] != EMPTY:
            raise ProblemError("goal cell is not free")
        if self.attached is not None and self.attached not in CARDINALS:
            raise ProblemError("attachment must be one of the 4 cardinal offsets")


def build_problem(percept: Percept, goal: Offset) -> Problem:
    """Label the diamond from a percept. The agent's own cell and its own
    attached block count as empty: they move together. Clearing is allowed
    when the agent has the energy for one clear."""
    own = {off for off, _ in percept.self_attached}
    if len(own) > 1:
        raise ProblemError("planning supports at most one attached block")
    occupied, obstacles = percept.occupied, percept.obstacles
    labels = []
    for off in DIAMOND:
        if off == (0, 0) or off in own:
            labels.append(EMPTY)
        elif off in occupied:
            labels.append(BLOCKED)
        elif off in obstacles:
            labels.append(OBSTACLE)
        else:
            labels.append(EMPTY)
    attached = next(iter(own)) if own else None
    return Problem(
        labels=tuple(labels),
        goal=goal,
        attached=attached,
        clear_allowed=percept.self_energy >= CLEAR_COST,
    )


def select_good_cell(
    percept: Percept, destination: Coord, self_pos: Coord, dims: Dims
) -> Optional[Offset]:
    """Free diamond cell minimizing the remaining torus distance to the
    destination; ties break in diamond unrolling order."""
    occupied, obstacles = percept.occupied, percept.obstacles
    best: Optional[tuple[int, Offset]] = None
    for off in DIAMOND:
        if off == (0, 0) or off in occupied or off in obstacles:
            continue
        d = torus_distance(wrap(*add(self_pos, off), dims), destination, dims)
        if best is None or d < best[0]:
            best = (d, off)
    return best[1] if best else None


# ------------------------------------------------------------------- search
#
# Search states are packed into small integers for speed: cells by diamond
# index, the attachment as 0..4 (0 = none, then NSEW), a charge in progress
# as target*4 + count, and the set of cleared obstacles as a bitmask over
# the problem's obstacle cells.

_NO_CELL = -1
_ATT_OFFS = (None,) + tuple(DIR_OFFSETS[d] for d in DIRECTIONS)
_ATT_CODE = {off: i for i, off in enumerate(_ATT_OFFS)}
_NEIGHBORS = tuple(
    tuple(DIAMOND_INDEX.get(add(off, DIR_OFFSETS[d]), _NO_CELL) for d in DIRECTIONS)
    for off in DIAMOND
)
_ROT_CW = tuple(
    0 if off is None else _ATT_CODE[rotate_cw(off)] for off in _ATT_OFFS
)
_ROT_CCW = tuple(
    0 if off is None else _ATT_CODE[rotate_ccw(off)] for off in _ATT_OFFS
)
_MOVE_TOKENS = tuple(f"move_{d}" for d in DIRECTIONS)
_CLEAR_TOKENS = tuple(
    f"clear_{DIR_OFFSETS[d][0]}_{DIR_OFFSETS[d][1]}" for d in DIRECTIONS
)


def relaxed(problem: Problem) -> Problem:
    """The same diamond with every obstacle made empty and no clearing."""
    labels = tuple(EMPTY if label == OBSTACLE else label for label in problem.labels)
    return Problem(labels, problem.goal, problem.attached, clear_allowed=False)


def solve(problem: Problem) -> Plan:
    """Minimum-length action sequence onto the goal cell, empty when the
    goal is unreachable: the lexicographically smallest optimal plan in the
    order move N,S,E,W / rotate cw,ccw / clear N,S,E,W.

    With clearing allowed, the relaxed problem is searched first; the full
    search, whose states carry the set of cleared obstacles, runs only when
    the relaxed plan touches an obstacle. This returns the same plans:
    - dropping the clear actions from a real plan leaves a relaxed plan, so
      an unreachable relaxed goal is unreachable, and a real plan with
      k >= 1 clears is at least 3k longer than the relaxed optimum;
    - so the real optimal plans are exactly the relaxed optimal plans whose
      agent and block touch no obstacle;
    - both searches expand successors in the same order, so each returns
      the first plan in that order among its shortest plans. When the
      relaxed answer touches no obstacle, it is also the real answer."""
    if problem.clear_allowed:
        plan, cells = _search(relaxed(problem))
        if not plan or all(problem.labels[i] != OBSTACLE for i in cells):
            return plan
    return _search(problem)[0]


def _search(problem: Problem) -> tuple[Plan, list[int]]:
    """Breadth-first search onto the goal: the plan, and the cells its agent
    and attached block occupy on the way; ((), []) when unreachable."""
    empty_cell = [label == EMPTY for label in problem.labels]
    obstacle_bit = {}
    for i, label in enumerate(problem.labels):
        if label == OBSTACLE:
            obstacle_bit[i] = 1 << len(obstacle_bit)

    def passable(i: int, cleared: int) -> bool:
        if i == _NO_CELL:
            return False
        return empty_cell[i] or bool(obstacle_bit.get(i, 0) & cleared)

    goal_i = DIAMOND_INDEX[problem.goal]
    start = (DIAMOND_INDEX[(0, 0)], _ATT_CODE[problem.attached], -1, 0)
    parents: dict[tuple, tuple[tuple, str]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        pos, att, charge, cleared = state
        if pos == goal_i:
            return _reconstruct(parents, state)
        if charge >= 0:
            # Mid-charge the only sensible continuation is the same clear.
            target, count = divmod(charge, 4)
            d = next(
                k for k, j in enumerate(_NEIGHBORS[pos]) if j == target
            )
            if count + 1 == 3:
                nxt = (pos, att, -1, cleared | obstacle_bit[target])
            else:
                nxt = (pos, att, target * 4 + count + 1, cleared)
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = (state, _CLEAR_TOKENS[d])
                queue.append(nxt)
            continue
        for d in range(4):
            npos = _NEIGHBORS[pos][d]
            if not passable(npos, cleared):
                continue
            if att:
                # Block cell after the move: npos shifted by the attachment.
                nblock = _shift(npos, att)
                if nblock != pos and not passable(nblock, cleared):
                    continue
            nxt = (npos, att, -1, cleared)
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = (state, _MOVE_TOKENS[d])
                queue.append(nxt)
        if att:
            for natt, token in ((_ROT_CW[att], "rotate_cw"), (_ROT_CCW[att], "rotate_ccw")):
                cell = _shift(pos, natt)
                if passable(cell, cleared):
                    nxt = (pos, natt, -1, cleared)
                    if nxt not in seen:
                        seen.add(nxt)
                        parents[nxt] = (state, token)
                        queue.append(nxt)
        if problem.clear_allowed:
            for d in range(4):
                cell = _NEIGHBORS[pos][d]
                bit = obstacle_bit.get(cell, 0) if cell != _NO_CELL else 0
                if bit and not (cleared & bit):
                    nxt = (pos, att, cell * 4 + 1, cleared)
                    if nxt not in seen:
                        seen.add(nxt)
                        parents[nxt] = (state, _CLEAR_TOKENS[d])
                        queue.append(nxt)
    return (), []


def _shift(cell_i: int, att_code: int) -> int:
    return _NEIGHBORS[cell_i][att_code - 1]


def _reconstruct(parents, state) -> tuple[Plan, list[int]]:
    tokens, cells = [], []
    while True:
        pos, att = state[0], state[1]
        cells += (pos, _shift(pos, att)) if att else (pos,)
        if state not in parents:
            return tuple(reversed(tokens)), cells
        state, token = parents[state]
        tokens.append(token)


def action_from_token(token: str) -> Action:
    parts = token.split("_")
    if parts[0] == "move" and len(parts) == 2:
        return Action.move(parts[1])
    if parts[0] == "rotate" and len(parts) == 2:
        return Action.rotate(parts[1])
    if parts[0] == "clear" and len(parts) == 3:
        return Action.clear((int(parts[1]), int(parts[2])))
    raise ValueError(f"unknown plan token {token!r}")


def fallback_one_step(
    percept: Percept, self_pos: Coord, destination: Coord, dims: Optional[Dims]
) -> Action:
    """One move that strictly reduces the distance, else skip. The distance
    is the torus distance, or plain Manhattan while `dims` is unknown."""
    occupied, obstacles = percept.occupied, percept.obstacles

    def dist(c: Coord) -> int:
        return torus_distance(c, destination, dims) if dims else manhattan(sub(destination, c))

    here = dist(self_pos)
    for d in DIRECTIONS:
        off = DIR_OFFSETS[d]
        if off not in occupied and off not in obstacles and dist(add(self_pos, off)) < here:
            return Action.move(d)
    return Action.skip()


# ---------------------------------------------------------------- navigation

SolveFn = Callable[[Problem], Plan]
STUCK_CYCLES = 5


@dataclass
class Navigator:
    """Forgiving blind execution: run the current plan to the end regardless
    of individual failures, then replan; fall back to one greedy step when
    planning yields nothing."""

    solve_fn: SolveFn
    destination: Optional[Coord] = None
    plan: list[str] = field(default_factory=list)
    index: int = 0
    cycle_attempted: int = 0
    cycle_succeeded: int = 0
    failed_cycles: int = 0
    last_token: Optional[str] = None

    @property
    def stuck(self) -> bool:
        return self.failed_cycles >= STUCK_CYCLES

    def set_destination(self, dest: Coord) -> None:
        if dest != self.destination:
            self.destination = dest
            self._reset_plan()
            self.failed_cycles = 0

    def _reset_plan(self) -> None:
        self.plan = []
        self.index = 0
        self.cycle_attempted = 0
        self.cycle_succeeded = 0

    def note_result(self, last: Optional[tuple[str, str]]) -> None:
        """Feed back the world's result for the previously emitted token."""
        if self.last_token is None or last is None:
            return
        if self.last_token.startswith("move_") and last[0] == "move":
            self.cycle_attempted += 1
            if last[1] == "success":
                self.cycle_succeeded += 1
        self.last_token = None

    def next_action(self, percept: Percept, self_pos: Coord, dims: Dims) -> Action:
        if self.destination is None:
            raise ValueError("navigator has no destination")
        if self_pos == self.destination:
            self._reset_plan()
            return Action.skip()
        if self.index >= len(self.plan):
            self._close_cycle()
            replanned = self._replan(percept, self_pos, dims)
            if not replanned:
                self.last_token = None
                return fallback_one_step(percept, self_pos, self.destination, dims)
        token = self.plan[self.index]
        self.index += 1
        self.last_token = token
        return action_from_token(token)

    def _close_cycle(self) -> None:
        if self.plan:
            if self.cycle_attempted > 0 and self.cycle_succeeded == 0:
                self.failed_cycles += 1
            else:
                self.failed_cycles = 0
        self.cycle_attempted = 0
        self.cycle_succeeded = 0

    def _replan(self, percept: Percept, self_pos: Coord, dims: Dims) -> bool:
        self.plan, self.index = [], 0
        good = select_good_cell(percept, self.destination, self_pos, dims)
        if good is None:
            self.failed_cycles += 1
            return False
        try:
            problem = build_problem(percept, good)
        except ProblemError:
            return False
        plan = self.solve_fn(problem)
        if not plan:
            self.failed_cycles += 1
            return False
        self.plan = list(plan)
        return True
