"""Shared scenario builders for the test suite."""

from torusarena.world import FixedLayout, World, WorldConfig


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
    """A fully pinned world: `spawns` maps team name -> list of cells; agents
    are named <team>01, <team>02, ... in list order. Random terrain, tasks
    and clear events are all off unless overridden."""
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
