"""Seeded invariant sweep: short matches on small grids against every
opponent, with and without obstacles and clear events. After every world
step the world's own invariants, the team's one-leader-per-group table and
its task-group and cartography tables must hold. The checks hook into
World.step, so the matches run through the harness's one step loop."""

import itertools

import pytest

from torusarena.harness import OPPONENTS, MatchConfig, run_match
from torusarena.team import DELIVERER, ORIGIN, RETRIEVER, TeamController
from torusarena.torus import CARDINALS, add, delta, wrap
from torusarena.world import World

GRIDS = ((20, 20), (24, 20), (22, 26))
DENSITIES = (0.0, 0.1, 0.2)
CLEAR_RATES = (0.0, 0.1)
STEPS = 60
CASES = list(itertools.product(sorted(OPPONENTS), DENSITIES, CLEAR_RATES))


FETCH_PHASES = ("fetch", "grab", "deliver", "orient", "connect")


def check_group_tables(team: TeamController) -> tuple[int, int]:
    """Each cartography pair sits under its own dimension, no agent walks
    for two pairs, and a pair exists only while the grid size is unknown.
    Each task group's roles, slots and staged set agree. A retriever holding
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
    for group in team.groups:
        where = f"group {group.gid}"
        assert rts[group.origin].role == ORIGIN, where
        assert rts[group.deliverer].role == DELIVERER, where
        assert all(rts[r].role == RETRIEVER for r in group.retrievers), where
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


@pytest.fixture
def checked_steps(monkeypatch):
    """Run every invariant check after every World.step; returns the checked
    step numbers, the number of task-group checks and the number of
    retrievers checked beside their slot."""
    teams, checked = [], {"steps": [], "groups": 0, "beside_slot": 0}
    init, step = TeamController.__init__, World.step

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        teams.append(self)

    def checking_step(self, *args, **kwargs):
        out = step(self, *args, **kwargs)
        self.check_invariants()
        teams[-1].store.check_one_leader()
        groups, beside = check_group_tables(teams[-1])
        checked["groups"] += groups
        checked["beside_slot"] += beside
        checked["steps"].append(self.step_num)
        return out

    monkeypatch.setattr(TeamController, "__init__", recording_init)
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
