"""Shared scenario builders for the test suite, and the benchmark's plan
checkers as the suite's plan-legality and optimality oracles."""

import importlib.util
from pathlib import Path

from torusarena.world import FixedLayout, World, WorldConfig


def _load_checkers():
    path = Path(__file__).resolve().parent.parent / "bench" / "checkers.py"
    spec = importlib.util.spec_from_file_location("bench_checkers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checkers = _load_checkers()


def check_plan(problem, plan):
    """Replay `plan` on a planner Problem under the diamond action rules,
    written independently of the planner; returns the plan's length and
    raises checkers.CheckFailed on an illegal step or a missed goal."""
    return checkers.check_plan(checkers.PlanProblem.from_problem(problem), plan)


def check_optimal(problem, plan):
    """Compare the plan's length with an independent uniform-cost optimum;
    returns 'optimal' or 'unreachable' (an empty plan proved right), raises
    checkers.CheckFailed on a longer, shorter or missing plan, and fails
    when the search exceeds its budget."""
    outcome = checkers.check_optimal(checkers.PlanProblem.from_problem(problem), plan)
    assert outcome != "unverified", "the optimality search exceeded its budget"
    return outcome


def optimal_cost(problem):
    """Least number of actions onto the goal, None when unreachable."""
    return checkers.optimal_cost(checkers.PlanProblem.from_problem(problem))


def scripted_world(
    w,
    h,
    spawns,
    obstacles=(),
    goals=(),
    dispensers=(),
    taskboards=(),
    tasks=(),
    seed=0,
    **overrides,
):
    """A fully pinned world, built from a whole `FixedLayout` of the given
    cells: `spawns` maps team name -> list of cells; agents are named
    <team>01, <team>02, ... in list order. The seed draws no layout, and
    random tasks and clear events are off unless overridden."""
    teams = {team: len(cells) for team, cells in spawns.items()}
    named = {}
    for team, cells in spawns.items():
        for i, cell in enumerate(cells):
            named[f"{team}{i + 1:02d}"] = cell
    cfg = WorldConfig(
        dims=(w, h),
        teams=teams,
        obstacle_density=0.0,
        task_interval=0,
        clear_event_rate=0.0,
        fixed=FixedLayout(
            obstacles=list(obstacles),
            goals=list(goals),
            dispensers=list(dispensers),
            taskboards=list(taskboards),
            spawns=named,
            tasks=list(tasks),
        ),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return World(cfg, seed)


def percept_of(world, name):
    """The percept of one agent."""
    return world.percepts((name,))[name]
