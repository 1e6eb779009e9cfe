"""Each independent checker accepts the program's outputs and rejects a
corrupted copy of them. Run with: python3 -m pytest bench/test_checkers.py"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checkers import (  # noqa: E402
    DIAMOND,
    CheckFailed,
    PlanProblem,
    check_done_offsets,
    check_identification,
    check_optimal,
    check_plan,
    relaxed_reachable,
)
from spans import Tracer  # noqa: E402
from torusarena import mergecheck  # noqa: E402
from torusarena.plan_cache import encode  # noqa: E402
from torusarena.planner import BLOCKED, EMPTY, OBSTACLE, Problem, solve  # noqa: E402
from torusarena.torus import DIAMOND as PROGRAM_DIAMOND  # noqa: E402


def problem(obstacles=(), blocked=(), goal=(3, 0), attached=None, clear=False):
    labels = tuple(
        OBSTACLE if c in obstacles else BLOCKED if c in blocked else EMPTY for c in PROGRAM_DIAMOND
    )
    return Problem(labels=labels, goal=goal, attached=attached, clear_allowed=clear)


WALL = ((1, -1), (1, 0), (1, 1))


def test_diamond_order_matches_the_key_order():
    assert DIAMOND == PROGRAM_DIAMOND


def test_key_decoding_matches_the_problem():
    p = problem(obstacles=WALL, blocked=((0, 2),), attached=(0, 1), clear=True)
    from_key = PlanProblem.from_key(encode(p))
    direct = PlanProblem.from_problem(p)
    assert (from_key.obstacles, from_key.blocked, from_key.goal, from_key.attached, from_key.clear) == (
        direct.obstacles, direct.blocked, direct.goal, direct.attached, direct.clear
    )
    with pytest.raises(CheckFailed):
        PlanProblem.from_key("x" + encode(p)[1:])


@pytest.mark.parametrize(
    "p",
    [
        problem(),
        problem(obstacles=WALL),
        problem(obstacles=WALL, clear=True),
        problem(obstacles=WALL, attached=(0, 1), clear=True),
        problem(blocked=((1, 0), (0, 1)), attached=(-1, 0), goal=(0, 3)),
    ],
)
def test_solver_plans_pass(p):
    plan = solve(p)
    assert plan
    q = PlanProblem.from_problem(p)
    assert check_plan(q, plan) == len(plan)
    assert check_optimal(q, plan) == "optimal"


def test_plan_into_obstacle_is_rejected():
    with pytest.raises(CheckFailed, match="agent moves into"):
        check_plan(PlanProblem.from_problem(problem(obstacles=WALL)), ("move_e", "move_e", "move_e"))


def test_plan_off_goal_is_rejected():
    with pytest.raises(CheckFailed, match="ends on"):
        check_plan(PlanProblem.from_problem(problem()), ("move_e", "move_e"))


def test_clear_without_permission_is_rejected():
    plan = solve(problem(obstacles=WALL, clear=True))
    with pytest.raises(CheckFailed, match="forbids"):
        check_plan(PlanProblem.from_problem(problem(obstacles=WALL, clear=False)), plan)


def test_interrupted_clear_is_rejected():
    p = PlanProblem.from_problem(problem(obstacles=WALL, goal=(2, 0), clear=True))
    assert check_plan(p, ("clear_1_0",) * 3 + ("move_e", "move_e")) == 5
    with pytest.raises(CheckFailed, match="interrupted"):
        check_plan(p, ("clear_1_0", "clear_1_0", "move_w", "move_e", "clear_1_0", "move_e", "move_e"))


def test_block_swept_into_a_blocked_cell_is_rejected():
    p = PlanProblem.from_problem(problem(blocked=((1, 0),), attached=(0, 1), goal=(0, -2)))
    with pytest.raises(CheckFailed, match="rotates into"):
        check_plan(p, ("rotate_ccw", "move_n", "move_n"))


def test_longer_plan_is_not_optimal():
    p = PlanProblem.from_problem(problem())
    detour = ("move_n", "move_e", "move_e", "move_e", "move_s")
    assert check_plan(p, detour) == 5
    with pytest.raises(CheckFailed, match="optimum is 3"):
        check_optimal(p, detour)


def test_empty_plan_for_a_reachable_goal_is_rejected():
    with pytest.raises(CheckFailed, match="reachable in"):
        check_optimal(PlanProblem.from_problem(problem(obstacles=WALL)), ())


def test_empty_plan_for_an_enclosed_goal_is_accepted():
    ring = tuple((3 + dx, dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    p = problem(obstacles=ring, goal=(3, 0), clear=False)
    assert solve(p) == ()
    q = PlanProblem.from_problem(p)
    assert not relaxed_reachable(q)
    assert check_optimal(q, ()) == "unreachable"


def test_identification_offsets():
    check_identification((10, 10), (13, 8), (3, -2), (40, 40))
    check_identification((39, 0), (1, 39), (2, -1), (40, 40))  # across both seams
    with pytest.raises(CheckFailed):
        check_identification((10, 10), (13, 8), (3, -1), (40, 40))


def test_done_states_hold_and_a_corrupted_offset_is_rejected():
    model = mergecheck.chain_model(3, 2)
    graph = mergecheck.explore(model)
    done = [graph.states[i] for i in graph.done_ids()]
    assert done
    for state in done:
        check_done_offsets(dict(state.leaders), dict(state.offsets), model.positions)
    state = done[0]
    offsets = dict(state.offsets)
    agent = next(a for a, l in state.leaders if a != l)
    offsets[agent] = (offsets[agent][0] + 1, offsets[agent][1])
    with pytest.raises(CheckFailed):
        check_done_offsets(dict(state.leaders), offsets, model.positions)


class _Box:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        sum(range(20000))


def test_self_times_add_up_and_exclusions_are_not_charged():
    t = Tracer()
    original = vars(_Box)["outer"]
    t.wrap(_Box, "outer", "outer")
    t.wrap(_Box, "inner", "inner", after=lambda r, a: t.excluded(sum, range(20000)))
    try:
        _Box().outer()
    finally:
        t.patches.restore()
    assert t.calls == {"outer": 1, "inner": 2}
    root = max(e - s for s, e in zip(t.starts, t.ends))
    assert sum(t.self_s.values()) + t.excluded_s == pytest.approx(root, rel=1e-6)
    assert vars(_Box)["outer"] is original
