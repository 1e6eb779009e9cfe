"""Seeded invariant sweep: short matches on small grids against every
opponent, with and without obstacles and clear events. After every world
step the world's own invariants, the team's one-leader-per-group table, its
group maps and its task-group and cartography tables must hold. The
checks hook into World.step, so the matches run through the harness's one
step loop."""

import itertools

import pytest

from torusarena import team as team_module
from torusarena.harness import OPPONENTS, MatchConfig, run_match
from torusarena.mapping import MapStore
from torusarena.team import TeamController
from torusarena.torus import CARDINALS, add, delta, wrap
from torusarena.world import GOAL, World

GRIDS = ((20, 20), (24, 20), (22, 26))
DENSITIES = (0.0, 0.1, 0.2)
CLEAR_RATES = (0.0, 0.1)
STEPS = 60
CASES = list(itertools.product(sorted(OPPONENTS), DENSITIES, CLEAR_RATES))


FETCH_PHASES = ("fetch", "grab", "deliver", "orient", "connect")


def check_group_tables(team: TeamController) -> tuple[int, int]:
    """Each cartography pair sits under its own dimension, no agent walks
    for two pairs, and a pair exists only while the grid size is unknown.
    Origins, deliverers and retrievers are distinct names across all
    groups, exactly those agents name a group, and each group's slots and
    staged set agree. A retriever holding
    a slot is in one of the fetch phases, and in orient or connect it stands
    cardinally next to its slot cell. Returns the groups checked and the
    retrievers checked beside their slot."""
    rts = team.runtimes
    beside = 0
    pairs = team.cartography.pairs
    walkers = [n for state in pairs.values() for n in state.pair]
    assert len(walkers) == len(set(walkers)), f"an agent in two pairs: {walkers}"
    assert not pairs or team.store.dims is None, f"pairs {list(pairs)} outlive the grid size"
    assert all(state.dimension == dimension for dimension, state in pairs.items()), list(pairs)
    members = {}
    for group in team.groups:
        for name in (group.origin, group.deliverer, *group.retrievers):
            assert name not in members, f"{name} is in group {members.get(name)} and {group.gid}"
            members[name] = group.gid
    assert {n: rt.group for n, rt in rts.items() if rt.group is not None} == members
    for group in team.groups:
        where = f"group {group.gid}"
        slots = [rts[r].fetch.slot for r in group.retrievers if rts[r].fetch is not None]
        assert len(slots) == len(set(slots)), f"{where}: a slot held twice: {sorted(slots)}"
        if group.active_task is None:
            assert slots == [] and group.swap_phase == "none", where
        else:
            required = set(range(len(group.requirement_list())))
            assert set(slots) <= required and group.staged <= required, where
        for r in group.retrievers:
            fetch = rts[r].fetch
            if fetch is None:
                continue
            assert fetch.phase in FETCH_PHASES, (where, r, fetch.phase)
            if fetch.phase in ("orient", "connect"):
                dims = team.store.dims
                slot_cell = wrap(*add(group.anchor, fetch.offset), dims)
                off = delta(team.position_of(r), slot_cell, dims)
                assert off in CARDINALS, (where, r, fetch.phase, off)
                beside += 1
    return len(team.groups), beside


def group_members(store: MapStore, leader: str) -> list[str]:
    return sorted(a for a, l in store.leaders.items() if l == leader)


def check_merged_views(store: MapStore, seen: dict) -> None:
    """Each leader's group map equals the union of its members' reference
    maps (`seen`: agent -> entries in the agent's own frame), taken into
    the leader's frame."""
    for leader in set(store.leaders.values()):
        union = {
            (kind, store.to_leader(m, c), detail)
            for m in group_members(store, leader)
            for kind, c, detail in seen.get(m, ())
        }
        view = store.merged_view(leader)
        got = (
            {("dispenser", c, t) for c, t in view.dispensers}
            | {("goal", c, None) for c in view.goals}
            | {("taskboard", c, None) for c in view.taskboards}
        )
        assert got == union, leader


@pytest.fixture
def checked_steps(monkeypatch):
    """Run every invariant check after every World.step; returns the checked
    step numbers, the number of task-group checks and the number of
    retrievers checked beside their slot. Each percept the team records is
    also folded into a reference map of its agent, in the agent's own frame,
    so the group maps can be checked against their members' sightings."""
    teams, checked = [], {"steps": [], "groups": 0, "beside_slot": 0}
    seen: dict[str, set] = {}
    init, step, record = TeamController.__init__, World.step, team_module.record_statics

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        teams.append(self)
        seen.clear()

    def recording_statics(store, agent, percept):
        pos = store.positions[agent]
        entries = seen.setdefault(agent, set())
        entries |= {
            ("dispenser", add(pos, t.offset), t.detail) for t in percept.things if t.kind == "dispenser"
        }
        entries |= {("goal", add(pos, off), None) for off, kind in percept.terrain if kind == GOAL}
        entries |= {("taskboard", add(pos, off), None) for off in percept.taskboards}
        record(store, agent, percept)

    def checking_step(self, *args, **kwargs):
        out = step(self, *args, **kwargs)
        self.check_invariants()
        teams[-1].store.check_one_leader()
        check_merged_views(teams[-1].store, seen)
        groups, beside = check_group_tables(teams[-1])
        checked["groups"] += groups
        checked["beside_slot"] += beside
        checked["steps"].append(self.step_num)
        return out

    monkeypatch.setattr(TeamController, "__init__", recording_init)
    monkeypatch.setattr(team_module, "record_statics", recording_statics)
    monkeypatch.setattr(World, "step", checking_step)
    return checked


def sweep_config(i: int) -> MatchConfig:
    opponent, density, clear_rate = CASES[i]
    return MatchConfig(
        dims=GRIDS[i % len(GRIDS)],
        team_size=15,  # one full group: origin, deliverer, retrievers, a hunter
        steps=STEPS,
        seed=i,
        opponent=opponent,
        obstacle_density=density,
        clear_event_rate=clear_rate,
        task_interval=10,
    )


@pytest.mark.parametrize("opponent,density,clear_rate", CASES)
def test_invariants_hold_every_step(checked_steps, opponent, density, clear_rate):
    report, _ = run_match(sweep_config(CASES.index((opponent, density, clear_rate))))
    assert report.steps == STEPS
    assert len(checked_steps["steps"]) == STEPS
    # Every sweep match starts building, so its group table gets checked.
    assert checked_steps["groups"] > 0


def test_sweep_checks_retrievers_beside_their_slot(checked_steps):
    """The beside-the-slot invariant must not hold vacuously: some sweep
    match has a retriever in orient or connect."""
    for i in range(len(CASES)):
        run_match(sweep_config(i))
        if checked_steps["beside_slot"] > 0:
            break
    assert checked_steps["beside_slot"] > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_smallest_group_capacity_holds_every_step(checked_steps, seed):
    # Capacity 3 is the least that validates: one origin, one deliverer and
    # one retriever per group; a team of 4 leaves one hunter beside it.
    config = MatchConfig(dims=(20, 20), team_size=4, steps=STEPS, seed=seed, group_capacity=3)
    report, _ = run_match(config)
    assert report.steps == len(checked_steps["steps"]) == STEPS
    assert checked_steps["groups"] > 0
