import random
from typing import Callable, NamedTuple

import pytest
from conftest import percept_of, scripted_world
from torusarena.identity import (
    Identification,
    RoundStats,
    ThingBits,
    identification_round,
    mutual_pairs,
    unknown_team_entities,
)
from torusarena.harness import PRESETS, GreedyCourier, MatchConfig
from torusarena.torus import VISION_RADIUS, add, delta, neg, wrap
from torusarena.world import Action, Thing, World, WorldConfig


def fig1_world():
    """Two teammates 4 cells apart with a dispenser visible to both."""
    return scripted_world(
        30,
        30,
        {"alpha": [(10, 10), (14, 10)]},
        dispensers=[((11, 8), "b2")],
        obstacles=[(12, 8), (10, 8), (12, 7)],
    )


def matches_at(mine, reply, offset, team):
    """The round's bitmask test for one requester, reply and offset."""
    bits = ThingBits(team, (mine, reply))
    moved = [("responder", bits.mask(reply) << bits.cell_bits[offset])]
    return bits.candidates(bits.veto(bits.mask(mine)), moved) == ["responder"]


class TestMatchCandidate:
    """Matching one reply against the teammate sighted at a candidate offset;
    alpha01 sees a single teammate, at (4, 0)."""

    def test_two_agent_scenario_matches_with_context(self):
        w = fig1_world()
        p5, p3 = percept_of(w, "alpha01"), percept_of(w, "alpha02")
        # The responder reports the dispenser at (-3,-2); mapped through the
        # candidate offset (4,0) it lands at (1,-2), inside my range because
        # |-3+4| + |-2+0| == 3 <= 5, and I do see it there.
        assert abs(-3 + 4) + abs(-2 + 0) == 3
        assert Thing((-3, -2), "dispenser", "b2") in p3.things
        assert Thing((1, -2), "dispenser", "b2") in p5.things
        assert unknown_team_entities(p5, "alpha") == [(4, 0)]
        assert matches_at(p5.things, p3.things, (4, 0), "alpha") is True

    def test_reply_without_symmetric_entity(self):
        w = fig1_world()
        p5 = percept_of(w, "alpha01")
        reply = (Thing((-3, -2), "dispenser", "b2"),)
        assert matches_at(p5.things, reply, (4, 0), "alpha") is False

    def test_reply_thing_missing_from_my_view_rejects(self):
        w = fig1_world()
        p5 = percept_of(w, "alpha01")
        # Mutate the scenario: the responder claims a dispenser I should see
        # at (2,-2) but do not.
        reply = (Thing((-4, 0), "entity", "alpha"), Thing((-2, -2), "dispenser", "b2"))
        assert matches_at(p5.things, reply, (4, 0), "alpha") is False

    def test_reply_thing_outside_my_range_is_ignored(self):
        w = fig1_world()
        p5 = percept_of(w, "alpha01")
        reply = (Thing((-4, 0), "entity", "alpha"), Thing((5, 0), "dispenser", "b1"))
        # (5,0) maps to (9,0): far outside my diamond, so no veto.
        assert matches_at(p5.things, reply, (4, 0), "alpha") is True

    def test_reply_thing_on_my_cell_must_be_mine(self):
        w = fig1_world()
        p5 = percept_of(w, "alpha01")
        # The responder claims a dispenser under me; I stand on none.
        reply = (Thing((-4, 0), "dispenser", "b1"), Thing((-4, 0), "entity", "alpha"))
        assert matches_at(p5.things, reply, (4, 0), "alpha") is False

    def test_enemy_entity_at_mirror_rejected(self):
        w = fig1_world()
        p5 = percept_of(w, "alpha01")
        reply = (Thing((-4, 0), "entity", "beta"),)
        assert matches_at(p5.things, reply, (4, 0), "alpha") is False


class TestRound:
    def run_round(self, world, team):
        names = [n for n, a in world.agents.items() if a.team == team]
        percepts = {n: percept_of(world, n) for n in names}
        return identification_round(team, percepts, world.step_num)

    def test_two_agents_identify_each_other_in_one_round(self):
        events, stats = self.run_round(fig1_world(), "alpha")
        got = {(e.observer, e.observed, e.offset) for e in events}
        assert got == {
            ("alpha01", "alpha02", (4, 0)),
            ("alpha02", "alpha01", (-4, 0)),
        }
        assert stats.broadcasts == 2
        assert len(mutual_pairs(events)) == 1

    def test_sighting_without_a_reply_identifies_no_one(self):
        # alpha02 is in view but sends no reply: no candidate, so neither an
        # identification nor an ambiguous sighting.
        w = fig1_world()
        events, stats = identification_round("alpha", {"alpha01": percept_of(w, "alpha01")}, 0)
        assert events == []
        assert (stats.broadcasts, stats.identifications, stats.ambiguous) == (1, 0, 0)

    def test_no_unknowns_no_messages(self):
        w = scripted_world(30, 30, {"alpha": [(5, 5), (20, 20)]})
        events, stats = self.run_round(w, "alpha")
        assert events == [] and stats.broadcasts == 0

    def test_enemy_sighting_triggers_nothing(self):
        w = scripted_world(30, 30, {"alpha": [(5, 5)], "beta": [(7, 5)]})
        events, stats = self.run_round(w, "alpha")
        assert events == [] and stats.broadcasts == 0

    def test_symmetric_pairs_ambiguous_then_resolved_by_movement(self):
        # Two pairs in identical, featureless surroundings at equal spacing:
        # every sighting has exactly two plausible candidates.
        w = scripted_world(12, 12, {"alpha": [(0, 0), (4, 0), (0, 6), (4, 6)]})
        events, stats = self.run_round(w, "alpha")
        assert events == []
        assert stats.ambiguous == 4
        # One pair shifts; the formations now differ and the pairs resolve.
        w.step({"alpha03": Action.move("s"), "alpha04": Action.move("s")}, ())
        w.step({"alpha04": Action.move("s")}, ())
        events, _ = self.run_round(w, "alpha")
        truth = {
            (obs.name, seen.name, delta(obs.pos, seen.pos, w.dims))
            for obs in w.agents.values()
            for seen in w.agents.values()
            if obs is not seen
        }
        got = {(e.observer, e.observed, e.offset) for e in events}
        assert got <= truth
        assert ("alpha01", "alpha02", (4, 0)) in got
        assert ("alpha03", "alpha04", (4, 1)) in got

    def test_soundness_on_random_clusters(self):
        rng = random.Random(42)
        sightings = 0
        for trial in range(25):
            cfg = WorldConfig(
                dims=(rng.randint(20, 40), rng.randint(20, 40)),
                teams={"alpha": 6, "beta": 3},
                obstacle_density=0.08,
                dispensers_per_type=3,
                clear_event_rate=0.0,
            )
            w = World(cfg, trial)
            names = [n for n, a in w.agents.items() if a.team == "alpha"]
            percepts = {n: percept_of(w, n) for n in names}
            events, _ = identification_round("alpha", percepts, 0)
            for e in events:
                sightings += 1
                true_cell = wrap(*add(w.agents[e.observer].pos, e.offset), w.dims)
                assert w.agents[e.observed].pos == true_cell, "false identification"
        assert sightings > 20


def test_unknown_entities_filter():
    w = scripted_world(30, 30, {"alpha": [(5, 5), (8, 5)], "beta": [(5, 7)]})
    p = percept_of(w, "alpha01")
    assert unknown_team_entities(p, "alpha") == [(3, 0)]


# --------------------------------------------------- brute-force reference


def reference_matches_at(mine, reply, offset, team):
    """The matching rule thing by thing, with `Thing`, `add` and `neg`, as an
    oracle: `reply` is the responder's thing list."""
    mirrored = neg(offset)
    found_me = False
    for t in reply:
        if t.offset == mirrored and t.kind == "entity":
            if t.detail != team:
                return False
            found_me = True
            continue
        mapped = add(t.offset, offset)
        if abs(mapped[0]) + abs(mapped[1]) <= VISION_RADIUS:
            if Thing(mapped, t.kind, t.detail) not in mine:
                return False
    return found_me


def reference_round(team, percepts, step):
    """Every responder tested at every sighting, with no index."""
    stats = RoundStats()
    events = []
    replies = {name: percepts[name].things for name in sorted(percepts)}
    for name in sorted(percepts):
        mine = set(percepts[name].things)
        sightings = unknown_team_entities(percepts[name], team)
        if not sightings:
            continue
        stats.broadcasts += 1
        stats.replies += len(percepts) - 1
        per_offset = {off: [] for off in sightings}
        for responder in sorted(percepts):
            if responder == name:
                continue
            reply = replies[responder]
            for off in sightings:
                if reference_matches_at(mine, reply, off, team):
                    per_offset[off].append(responder)
        for off in sightings:
            # One candidate identifies; several are ambiguous; none is no match.
            candidates = per_offset[off]
            if len(candidates) == 1:
                events.append(Identification(name, candidates[0], off, step))
                stats.identifications += 1
            elif candidates:
                stats.ambiguous += 1
    return events, stats


def random_walks(world):
    return lambda world, step, rng: {n: Action.move(rng.choice("nsew")) for n in world.agents}


def courier_walks(world):
    couriers = GreedyCourier(list(world.agents), world.seed)
    return lambda world, step, rng: couriers.act(world, step)


def preset_world(preset):
    cfg = MatchConfig(seed=3, **PRESETS[preset])
    return World(cfg.world_config(), cfg.seed)


class RoundCase(NamedTuple):
    make_world: Callable[[], World]
    policy: Callable  # world -> (world, step, rng) -> actions
    teams: tuple[str, ...]  # whose rounds are checked
    least_identified: int
    least_ambiguous: int


ROUND_CASES = {
    "r1": RoundCase(lambda: preset_world("r1"), random_walks, ("alpha",), 51, 1),
    "r3": RoundCase(lambda: preset_world("r3"), random_walks, ("alpha",), 51, 1),
    # The diamond wraps: cells are seen at two offsets.
    "wrapped-9x9": RoundCase(
        lambda: World(WorldConfig(dims=(9, 9), teams={"alpha": 5, "beta": 3}), 2),
        random_walks,
        ("alpha", "beta"),
        100,
        0,
    ),
    # A third team's entities add codes to the round.
    "three-teams": RoundCase(
        lambda: World(WorldConfig(dims=(16, 16), teams={"alpha": 8, "beta": 8, "gamma": 8}), 3),
        random_walks,
        ("alpha", "beta", "gamma"),
        500,
        1,
    ),
    # Couriers request and carry blocks next to dispensers in view.
    "courier-blocks": RoundCase(
        lambda: World(
            WorldConfig(
                dims=(16, 14),
                teams={"alpha": 8, "beta": 6},
                dispensers_per_type=3,
                taskboard_count=1,
                task_interval=5,
            ),
            5,
        ),
        courier_walks,
        ("alpha", "beta"),
        200,
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(ROUND_CASES))
def test_indexed_round_equals_brute_force_reference(name):
    case = ROUND_CASES[name]
    world = case.make_world()
    policy = case.policy(world)
    rng = random.Random(name)
    totals = RoundStats()
    blocks_seen = 0
    for step in range(15):
        for team in case.teams:
            members = sorted(n for n, a in world.agents.items() if a.team == team)
            percepts = world.percepts(members)
            blocks_seen += sum(t.kind == "block" for p in percepts.values() for t in p.things)
            events, stats = identification_round(team, percepts, step)
            ref_events, ref_stats = reference_round(team, percepts, step)
            assert events == ref_events
            assert stats == ref_stats
            for e in events:
                observer, observed = world.agents[e.observer], world.agents[e.observed]
                assert wrap(*add(observer.pos, e.offset), world.dims) == observed.pos
            totals.identifications += stats.identifications
            totals.ambiguous += stats.ambiguous
        world.step(policy(world, step, rng), ())
    assert totals.identifications >= case.least_identified
    assert totals.ambiguous >= case.least_ambiguous
    if name == "courier-blocks":
        assert blocks_seen > 0
