"""Seeded invariant sweep: short matches on small grids against every
opponent, with and without obstacles and clear events. After every world
step the world's own invariants and the team's one-leader-per-group table
must hold. The checks hook into World.step, so the matches run through the
harness's one step loop."""

import itertools

import pytest

from torusarena.harness import OPPONENTS, MatchConfig, run_match
from torusarena.team import TeamController
from torusarena.world import World

GRIDS = ((20, 20), (24, 20), (22, 26))
DENSITIES = (0.0, 0.1, 0.2)
CLEAR_RATES = (0.0, 0.1)
STEPS = 60
CASES = list(itertools.product(sorted(OPPONENTS), DENSITIES, CLEAR_RATES))


@pytest.fixture
def checked_steps(monkeypatch):
    """Run both invariant checks after every World.step; returns the list of
    checked step numbers."""
    teams, checked = [], []
    init, step = TeamController.__init__, World.step

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        teams.append(self)

    def checking_step(self, *args, **kwargs):
        out = step(self, *args, **kwargs)
        self.check_invariants()
        teams[-1].store.check_one_leader()
        checked.append(self.step_num)
        return out

    monkeypatch.setattr(TeamController, "__init__", recording_init)
    monkeypatch.setattr(World, "step", checking_step)
    return checked


@pytest.mark.parametrize("opponent,density,clear_rate", CASES)
def test_invariants_hold_every_step(checked_steps, opponent, density, clear_rate):
    i = CASES.index((opponent, density, clear_rate))
    cfg = MatchConfig(
        dims=GRIDS[i % len(GRIDS)],
        team_size=15,  # one full group: origin, deliverer, retrievers, a hunter
        steps=STEPS,
        seed=i,
        opponent=opponent,
        obstacle_density=density,
        clear_event_rate=clear_rate,
        task_interval=10,
    )
    report, _ = run_match(cfg)
    assert report.steps == STEPS
    assert len(checked_steps) == STEPS
