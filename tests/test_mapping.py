import random

import pytest

from conftest import percept_of, scripted_world
from torusarena.identity import Identification, mutual_pairs
from torusarena.mapping import (
    Cartography,
    CartographyFault,
    LocalMap,
    MapStore,
    adopt_cartographers,
    dump_map,
    finish_dimension,
    nearest,
    normalize,
    record_statics,
)
from torusarena.merge_protocol import Sighting
from torusarena.torus import DIR_OFFSETS, VISION_RADIUS, Dims, add, delta, neg, sub, wrap
from torusarena.world import Action


class TestLocalMap:
    def test_record_statics_offsets_from_self(self):
        w = scripted_world(40, 40, {"alpha": [(10, 10)]}, dispensers=[((13, 10), "b1")])
        local = LocalMap(owner="alpha01", self_pos=(10, 10))
        record_statics(local, percept_of(w, "alpha01"))
        assert local.dispensers == {((13, 10), "b1")}

    def test_dynamic_things_ignored(self):
        w = scripted_world(40, 40, {"alpha": [(10, 10)], "beta": [(12, 10)]})
        local = LocalMap(owner="alpha01")
        record_statics(local, percept_of(w, "alpha01"))
        assert (len(local.dispensers), len(local.goals), len(local.taskboards)) == (0, 0, 0)

    def test_reobservation_does_not_duplicate(self):
        w = scripted_world(40, 40, {"alpha": [(10, 10)]}, dispensers=[((13, 10), "b1")])
        local = LocalMap(owner="alpha01", self_pos=(10, 10))
        record_statics(local, percept_of(w, "alpha01"))
        record_statics(local, percept_of(w, "alpha01"))
        assert len(local.dispensers) == 1

    def test_goals_and_taskboards_recorded(self):
        w = scripted_world(
            40, 40, {"alpha": [(10, 10)]}, goals=[(9, 9)], taskboards=[(11, 12)]
        )
        local = LocalMap(owner="alpha01", self_pos=(10, 10))
        record_statics(local, percept_of(w, "alpha01"))
        assert local.goals == {(9, 9)} and local.taskboards == {(11, 12)}


class TestNormalize:
    def test_wraps_coordinates(self):
        local = LocalMap(owner="a", dispensers={((73, -12), "b1")})
        normalize(local, Dims(60, 50))
        assert local.dispensers == {((13, 38), "b1")}

    def test_collapses_repetitions(self):
        local = LocalMap(owner="a", dispensers={((5, 5), "b1"), ((65, 5), "b1")})
        normalize(local, Dims(60, 50))
        assert local.dispensers == {((5, 5), "b1")}

    def test_idempotent(self):
        local = LocalMap(owner="a", goals={(3, 4), (59, 49)}, self_pos=(10, 10))
        normalize(local, Dims(60, 50))
        snapshot = (set(local.goals), local.self_pos)
        normalize(local, Dims(60, 50))
        assert (set(local.goals), local.self_pos) == snapshot

    def test_entity_count_never_grows(self):
        local = LocalMap(
            owner="a",
            dispensers={((5, 5), "b1"), ((65, 5), "b1"), ((5, 55), "b1")},
            goals={(0, 0), (60, 50)},
        )
        normalize(local, Dims(60, 50))
        # Three dispensers a map-size apart collapse to one, two goals to one.
        assert (len(local.dispensers), len(local.goals), len(local.taskboards)) == (1, 1, 0)


class TestNearest:
    def test_tie_breaks_by_y_then_x(self):
        got = nearest({(10, 10), (40, 10)}, (0, 10), Dims(50, 50))
        assert got == (10, 10)  # both at wrap distance 10

    def test_empty_returns_none(self):
        assert nearest(set(), (0, 0), Dims(50, 50)) is None

    def test_single_entry(self):
        assert nearest({(7, 7)}, (0, 0), Dims(50, 50)) == (7, 7)


def walk(world, store, name, moves):
    """Drive one agent, maintaining its local map exactly as the controller
    would: advance on success, record statics every step."""
    for d in moves:
        _, _ = world.step({name: Action.move(d)}, ())
        if world.agents[name].last_result == ("move", "success"):
            store.maps[name].advance(DIR_OFFSETS[d])
        record_statics(store.maps[name], percept_of(world, name))


class TestMerge:
    def sight(self, world, store, a, b):
        off = delta(world.agents[a].pos, world.agents[b].pos, world.dims)
        return Sighting(
            a=a,
            b=b,
            offset=off,
            pos_a=store.maps[a].self_pos,
            pos_b=store.maps[b].self_pos,
        )

    def ground_truth_ok(self, world, store):
        """Leader-frame coordinates must equal world coordinates shifted by
        the leader's spawn, for every member's record of every entity."""
        for name in store.agents:
            local = store.maps[name]
            leader = store.leader_of(name)
            for c, _t in local.dispensers:
                got = wrap(*store.to_leader(name, c), world.dims)
                true_world = wrap(*add(world.spawns[name], c), world.dims)
                expect = wrap(*sub(true_world, world.spawns[leader]), world.dims)
                assert got == expect, (name, c, got, expect)
        store.check_one_leader()

    def test_two_singletons_merge_into_one_group(self):
        w = scripted_world(
            10,
            10,
            {"alpha": [(2, 2), (6, 2)]},
            dispensers=[((4, 1), "b1"), ((8, 3), "b2")],
        )
        store = MapStore(["alpha01", "alpha02"])
        record_statics(store.maps["alpha01"], percept_of(w, "alpha01"))
        record_statics(store.maps["alpha02"], percept_of(w, "alpha02"))
        records = store.process_merges([self.sight(w, store, "alpha01", "alpha02")])
        assert len(records) == 1
        assert store.leader_of("alpha01") == store.leader_of("alpha02")
        assert len(store.group_members(store.leader_of("alpha01"))) == 2
        self.ground_truth_ok(w, store)
        # Without known dims the shared dispenser shows up twice, a map
        # width apart; normalization collapses the repetition.
        assert len(store.merged_view("alpha01").dispensers) == 3
        store.set_dims(Dims(10, 10))
        assert len(store.merged_view("alpha01").dispensers) == 2

    def test_same_leader_is_noop(self):
        w = scripted_world(10, 10, {"alpha": [(2, 2), (6, 2)]})
        store = MapStore(["alpha01", "alpha02"])
        store.process_merges([self.sight(w, store, "alpha01", "alpha02")])
        assert store.process_merges([self.sight(w, store, "alpha01", "alpha02")]) == []
        # Also when the pair merged earlier in the same step's list.
        store = MapStore(["alpha01", "alpha02"])
        s = self.sight(w, store, "alpha01", "alpha02")
        assert len(store.process_merges([s, s])) == 1

    def test_larger_group_wins(self):
        names = [f"alpha{i:02d}" for i in range(1, 9)]
        spawn_cells = [(x, 2) for x in (2, 3, 4, 10, 11, 12, 13, 14)]
        w = scripted_world(20, 20, {"alpha": spawn_cells})
        store = MapStore(names)
        # Fabricate a 3-group and a 5-group.
        for n in names[:3]:
            store.leaders[n] = "alpha01"
            store.offsets[n] = sub(w.spawns[n], w.spawns["alpha01"])
        for n in names[3:]:
            store.leaders[n] = "alpha04"
            store.offsets[n] = sub(w.spawns[n], w.spawns["alpha04"])
        records = store.process_merges([self.sight(w, store, "alpha03", "alpha04")])
        assert records[0].winner == "alpha04"
        assert store.leader_of("alpha01") == "alpha04"
        self.ground_truth_ok(w, store)

    def test_confluence_up_to_translation(self):
        # Force the merge in both directions by renaming which side hosts
        # the bigger group; the merged views must agree up to the global
        # frame translation between the two winners.
        w = scripted_world(
            10,
            10,
            {"alpha": [(2, 2), (6, 2)]},
            dispensers=[((4, 1), "b1"), ((8, 3), "b2"), ((0, 5), "b1")],
        )

        def build(swap):
            store = MapStore(["alpha01", "alpha02"])
            record_statics(store.maps["alpha01"], percept_of(w, "alpha01"))
            record_statics(store.maps["alpha02"], percept_of(w, "alpha02"))
            a, b = ("alpha02", "alpha01") if swap else ("alpha01", "alpha02")
            store.process_merges([self.sight(w, store, a, b)])
            return store

        s1, s2 = build(False), build(True)
        # Winner is the same either way (tie broken by name), so the views
        # must be literally equal here.
        v1, v2 = s1.merged_view("alpha01"), s2.merged_view("alpha01")
        assert v1.dispensers == v2.dispensers

    def test_exhaustive_pair_merges_small_grid(self):
        # Every sighting offset within vision on an 8x8 torus, singleton
        # groups, entities scattered: leader-frame views must match ground
        # truth for every placement.
        offsets = [
            (dx, dy)
            for dx in range(-5, 6)
            for dy in range(-5, 6)
            if 0 < abs(dx) + abs(dy) <= 5
        ]
        for off in offsets:
            w = scripted_world(
                8,
                8,
                {"alpha": [(2, 3), wrap(*add((2, 3), off), Dims(8, 8))]},
                dispensers=[((5, 6), "b1"), ((1, 1), "b2")],
            )
            if w.agents["alpha01"].pos == w.agents["alpha02"].pos:
                continue
            store = MapStore(["alpha01", "alpha02"])
            store.set_dims(Dims(8, 8))
            record_statics(store.maps["alpha01"], percept_of(w, "alpha01"))
            record_statics(store.maps["alpha02"], percept_of(w, "alpha02"))
            store.process_merges([self.sight(w, store, "alpha01", "alpha02")])
            self.ground_truth_ok(w, store)


class TestCartography:
    def test_adoption_canonicalizes_direction(self):
        st = adopt_cartographers("a", "b", (-3, 1), "horizontal", step=2)
        assert st.pair == ("b", "a")  # b is west, so it walks the negative leg
        assert st.initial_distance == 3
        assert st.direction_of("b") == "w" and st.direction_of("a") == "e"

    def test_adoption_refuses_extreme_perpendicular_offset(self):
        assert adopt_cartographers("a", "b", (0, 5), "horizontal", 0) is None
        assert adopt_cartographers("a", "b", (5, 0), "vertical", 0) is None

    def test_vertical_axis(self):
        st = adopt_cartographers("a", "b", (1, 4), "vertical", 0)
        assert st.pair == ("a", "b")
        assert st.direction_of("a") == "n" and st.direction_of("b") == "s"

    def test_finish_formula(self):
        assert finish_dimension(4, 4, 2, 0) == 10
        assert finish_dimension(20, 20, 2, 3) == 45

    def test_finish_reduces_to_sum_when_residual_zero(self):
        assert finish_dimension(7, 9, 4, 0) == 7 + 9 + 4

    def test_degenerate_pair_faults(self):
        with pytest.raises(CartographyFault):
            finish_dimension(0, 0, 2, 0)

    def test_negative_size_faults(self):
        with pytest.raises(CartographyFault):
            finish_dimension(1, 1, 0, -3)


# The live cartography machine, driven with no World: a pair adopted at step
# 0, `a` walking the negative direction and `b` the positive one, each step
# except its blocked ones, at a fixed perpendicular offset.
BLOCKED = {  # pattern: side -> (steps a is blocked, steps b is blocked)
    "free": lambda side: ((), ()),
    "a-early": lambda side: ((1, 2), ()),
    "b-mid": lambda side: ((), (side // 3,)),
    "both-meet": lambda side: ((side // 2 - 1,), (side // 2 - 1, side // 2)),
}
LATE = (
    "a re-sighting after the pair crossed is discarded (the along > 0 guard), so the pair "
    "measures a second lap: the doubled-height FOUND line in CHANGES.md"
)


def pair_track(side, along0, blocked, steps):
    """The torus offset from a to b along the walked axis at each step."""
    track, pos_a, pos_b = [], 0, along0
    for t in range(steps):
        off = (pos_b - pos_a) % side
        track.append(off - side if off > side // 2 else off)
        pos_a -= t not in blocked[0]
        pos_b += t not in blocked[1]
    return track


def resight_window(track, perp):
    """Steps of the pair's re-approach: the first run in sight after they
    lose sight of each other. None when they stay in sight until they are
    past half a lap apart: then no re-sighting follows a gap, and nothing
    can close the first lap."""
    seen = [abs(along) + abs(perp) <= VISION_RADIUS for along in track]
    if False not in seen or min(track[: seen.index(False)]) < 0:
        return None
    start = seen.index(True, seen.index(False))
    return range(start, (seen + [False]).index(False, start))


def cartography_cases(count):
    """A seeded sample of the table: every side from 2*VISION_RADIUS+2 to
    30, every start offset a pair can be adopted at, blocked steps on
    either side, and the first 0-3 re-sightings of the re-approach lost
    (as ambiguous sightings are). A case is late when its first delivered
    re-sighting comes after the pair crossed."""
    table = []
    for side in range(2 * VISION_RADIUS + 2, 31):
        for perp in range(-4, 5):
            for along0 in range(perp == 0, VISION_RADIUS - abs(perp) + 1):
                for pattern, blocked in BLOCKED.items():
                    track = pair_track(side, along0, blocked(side), 4 * side)
                    window = resight_window(track, perp)
                    if window is None:
                        continue
                    for delay in range(min(4, len(window))):
                        late = track[window[delay]] > 0
                        for dimension in ("horizontal", "vertical"):
                            table.append(((side, along0, perp, pattern, delay, dimension), late))
    return [
        pytest.param(
            *case,
            marks=[pytest.mark.xfail(reason=LATE, strict=True)] if late else [],
            id="-".join(map(str, case)),
        )
        for case, late in sorted(random.Random(0).sample(table, count))
    ]


@pytest.mark.parametrize("side,along0,perp,pattern,delay,dimension", cartography_cases(240))
def test_cartography_pair_measures_the_side_or_aborts(side, along0, perp, pattern, delay, dimension):
    blocked = BLOCKED[pattern](side)
    track = pair_track(side, along0, blocked, 4 * side)
    lost = set(resight_window(track, perp)[:delay])
    store = MapStore(["a", "b"])
    carto = Cartography(store)
    if dimension == "vertical":
        carto.sizes["horizontal"] = 40  # the width is measured, so the pair takes the height
    for t, along in enumerate(track):
        idents = []
        if abs(along) + abs(perp) <= VISION_RADIUS and t not in lost:
            off = (along, perp) if dimension == "horizontal" else (perp, along)
            idents = [Identification("a", "b", off, t), Identification("b", "a", neg(off), t)]
        events = carto.update(idents, mutual_pairs(idents), t)
        if t == 0:
            assert events == [("cartography_started", {
                "dimension": dimension, "pair": ["a", "b"], "initial_distance": along0,
            })]
        elif events:
            (kind, payload), *adopted = events  # the pair may be adopted again at once
            assert [k for k, _ in adopted] in ([], ["cartography_started"])
            break
        for agent, steps in zip("ab", blocked):
            if t not in steps:
                carto.moved(agent)
    else:
        pytest.fail("the pair neither finished nor aborted")
    if kind == "cartography_finished":
        assert payload["size"] == side
        assert store.dims == (Dims(40, side) if dimension == "vertical" else None)
    else:
        assert kind == "cartography_aborted"


def test_dump_map_shape():
    local = LocalMap(
        owner="alpha01",
        self_pos=(3, 4),
        dispensers={((1, 2), "b1")},
        goals={(5, 5)},
        taskboards={(0, 9)},
        dims=Dims(40, 40),
    )
    text = dump_map(local)
    assert "owner: alpha01" in text
    assert "dims: 40x40" in text
    assert "dispensers: 1,2:b1" in text
    assert "goals: 5,5" in text
