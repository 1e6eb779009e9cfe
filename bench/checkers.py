"""Independent checkers for the benchmark's outputs.

None of these reuse the program's own rules: the plan checker re-implements
the diamond action rules, the optimality check is a separate uniform-cost
search, identifications are checked against world positions, and protocol
done states are checked against the model's fixed agent positions. Each
function raises CheckFailed with a reason, or returns quietly.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from typing import Iterable, Optional

RADIUS = 5
DIRS = {"n": (0, -1), "s": (0, 1), "e": (1, 0), "w": (-1, 0)}


class CheckFailed(AssertionError):
    pass


def _diamond() -> tuple[tuple[int, int], ...]:
    # Rows north to south, each row west to east: the documented key order.
    cells = []
    for dy in range(-RADIUS, RADIUS + 1):
        span = RADIUS - abs(dy)
        cells.extend((dx, dy) for dx in range(-span, span + 1))
    return tuple(cells)


DIAMOND = _diamond()
IN_DIAMOND = frozenset(DIAMOND)


def cw(off):
    # y grows south, so clockwise takes north to east.
    return (-off[1], off[0])


def ccw(off):
    return (off[1], -off[0])


class PlanProblem:
    """A planning problem as plain sets: obstacle and blocked cells, the goal,
    the attached block's offset (or None) and whether clearing is allowed."""

    __slots__ = ("obstacles", "blocked", "goal", "attached", "clear")

    def __init__(self, obstacles, blocked, goal, attached, clear):
        self.obstacles = frozenset(obstacles)
        self.blocked = frozenset(blocked)
        self.goal = tuple(goal)
        self.attached = None if attached is None else tuple(attached)
        self.clear = bool(clear)

    @classmethod
    def from_problem(cls, problem) -> "PlanProblem":
        """From the program's planner.Problem (labels in diamond order)."""
        obstacles = [c for c, l in zip(DIAMOND, problem.labels) if l == "obstacle"]
        blocked = [c for c, l in zip(DIAMOND, problem.labels) if l == "blocked"]
        return cls(obstacles, blocked, problem.goal, problem.attached, problem.clear_allowed)

    @classmethod
    def from_key(cls, key: str) -> "PlanProblem":
        """From a plan-cache file name: flag, optional attachment, 61 cells."""
        if len(key) < 1 + len(DIAMOND) or key[0] not in "cn":
            raise CheckFailed(f"malformed cache key {key!r}")
        middle, grid = key[1 : -len(DIAMOND)], key[-len(DIAMOND) :]
        attached = None
        if middle:
            m = re.fullmatch(r"(-?\d)(-?\d)", middle)
            if not m or (int(m[1]), int(m[2])) not in DIRS.values():
                raise CheckFailed(f"bad attachment prefix in {key!r}")
            attached = (int(m[1]), int(m[2]))
        obstacles, blocked, goals = [], [], []
        for cell, ch in zip(DIAMOND, grid):
            if ch == "1":
                obstacles.append(cell)
            elif ch == "2":
                blocked.append(cell)
            elif ch == "3":
                goals.append(cell)
            elif ch != "0":
                raise CheckFailed(f"bad grid char {ch!r} in {key!r}")
        if len(goals) != 1:
            raise CheckFailed(f"key {key!r} has {len(goals)} goal markers")
        return cls(obstacles, blocked, goals[0], attached, key[0] == "c")

    def free(self, cell, cleared) -> bool:
        if cell not in IN_DIAMOND or cell in self.blocked:
            return False
        return cell not in self.obstacles or cell in cleared


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def check_plan(problem: PlanProblem, plan: Iterable[str]) -> int:
    """Replay the plan under the diamond action rules; return its length.

    Moves shift the agent and its attached block together and need both
    target cells free (the block may enter the cell the agent leaves).
    Rotations need the block's new cell free. A clear needs clearing allowed
    and a cardinal obstacle, and removes it after three consecutive clears
    of the same cell. The plan must end on the goal."""
    pos, att = (0, 0), problem.attached
    cleared: set = set()
    charge = None  # (target, count)
    n = 0
    for token in plan:
        n += 1
        parts = token.split("_")
        if parts[0] == "clear" and len(parts) == 3:
            off = (int(parts[1]), int(parts[2]))
            if off not in DIRS.values():
                raise CheckFailed(f"step {n}: clear target {off} is not cardinal")
            target = _add(pos, off)
            if not problem.clear:
                raise CheckFailed(f"step {n}: clear in a problem that forbids it")
            if target not in problem.obstacles or target in cleared:
                raise CheckFailed(f"step {n}: clear of {target}, which is no standing obstacle")
            count = charge[1] + 1 if charge and charge[0] == target else 1
            charge = None if count == 3 else (target, count)
            if count == 3:
                cleared.add(target)
            continue
        if charge is not None:
            raise CheckFailed(f"step {n}: clear of {charge[0]} interrupted after {charge[1]}")
        if parts[0] == "move" and len(parts) == 2 and parts[1] in DIRS:
            npos = _add(pos, DIRS[parts[1]])
            if not problem.free(npos, cleared):
                raise CheckFailed(f"step {n}: agent moves into {npos}")
            if att is not None:
                nblock = _add(npos, att)
                if nblock != pos and not problem.free(nblock, cleared):
                    raise CheckFailed(f"step {n}: block moves into {nblock}")
            pos = npos
        elif token in ("rotate_cw", "rotate_ccw"):
            if att is None:
                raise CheckFailed(f"step {n}: rotation without an attached block")
            natt = cw(att) if token == "rotate_cw" else ccw(att)
            if not problem.free(_add(pos, natt), cleared):
                raise CheckFailed(f"step {n}: block rotates into {_add(pos, natt)}")
            att = natt
        else:
            raise CheckFailed(f"step {n}: unknown token {token!r}")
    if charge is not None:
        raise CheckFailed("plan ends in the middle of a clear")
    if pos != problem.goal:
        raise CheckFailed(f"plan ends on {pos}, goal is {problem.goal}")
    return n


def relaxed_reachable(problem: PlanProblem) -> bool:
    """Goal reachable by the agent alone, with every obstacle passable when
    clearing is allowed: a superset of what any plan can reach, so False
    proves the goal unreachable."""
    passable = set(IN_DIAMOND) - problem.blocked
    if not problem.clear:
        passable -= problem.obstacles
    seen = {(0, 0)}
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        if cur == problem.goal:
            return True
        for off in DIRS.values():
            nxt = _add(cur, off)
            if nxt in passable and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


class SearchBudgetExceeded(RuntimeError):
    pass


def optimal_cost(problem: PlanProblem, budget: int = 200_000) -> Optional[int]:
    """Least number of actions onto the goal, None when unreachable.
    Uniform-cost search over (agent, attachment, cleared set) with one
    clear as a single edge of cost 3."""
    start = ((0, 0), problem.attached, frozenset())
    dist = {start: 0}
    heap = [(0, 0, start)]
    tie = 0
    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        pos, att, cleared = state
        if pos == problem.goal:
            return d
        if len(dist) > budget:
            raise SearchBudgetExceeded(f"more than {budget} states")
        succ = []
        for off in DIRS.values():
            npos = _add(pos, off)
            if not problem.free(npos, cleared):
                continue
            if att is not None:
                nblock = _add(npos, att)
                if nblock != pos and not problem.free(nblock, cleared):
                    continue
            succ.append((1, (npos, att, cleared)))
        if att is not None:
            for natt in (cw(att), ccw(att)):
                if problem.free(_add(pos, natt), cleared):
                    succ.append((1, (pos, natt, cleared)))
        if problem.clear:
            for off in DIRS.values():
                target = _add(pos, off)
                if target in problem.obstacles and target not in cleared:
                    succ.append((3, (pos, att, cleared | {target})))
        for cost, nxt in succ:
            nd = d + cost
            if nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                tie += 1
                heapq.heappush(heap, (nd, tie, nxt))
    return None


def check_optimal(problem: PlanProblem, plan, budget: int = 200_000) -> str:
    """Compare the plan's length with an independent optimum. Returns
    'optimal', 'unreachable' (empty plan proved right) or 'unverified'
    (the search exceeded its budget); raises CheckFailed otherwise."""
    plan = tuple(plan)
    if not plan and not relaxed_reachable(problem):
        return "unreachable"
    try:
        best = optimal_cost(problem, budget)
    except SearchBudgetExceeded:
        return "unverified"
    if not plan:
        if best is not None:
            raise CheckFailed(f"empty plan, but the goal is reachable in {best}")
        return "unreachable"
    if best is None:
        raise CheckFailed("plan found for a goal the search calls unreachable")
    if len(plan) != best:
        raise CheckFailed(f"plan has {len(plan)} actions, optimum is {best}")
    return "optimal"


def check_identification(observer_pos, observed_pos, offset, dims) -> None:
    """The observed agent stands exactly at observer + offset on the torus."""
    w, h = dims
    seen_at = ((observer_pos[0] + offset[0]) % w, (observer_pos[1] + offset[1]) % h)
    if seen_at != tuple(observed_pos):
        raise CheckFailed(
            f"identification offset {offset} from {observer_pos} points at {seen_at}, "
            f"agent stands at {observed_pos}"
        )


def check_done_offsets(leaders: dict, offsets: dict, positions: dict) -> None:
    """In a done state every agent's offset to its leader is the difference
    of their fixed world positions."""
    for agent, leader in leaders.items():
        pa, pl = positions[agent], positions[leader]
        want = (pa[0] - pl[0], pa[1] - pl[1])
        if tuple(offsets[agent]) != want:
            raise CheckFailed(
                f"{agent}: offset {offsets[agent]} to leader {leader}, positions say {want}"
            )
