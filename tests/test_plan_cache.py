import random

import pytest
from hypothesis import given, settings, strategies as st

from test_planner import make_problem
from torusarena.plan_cache import (
    CacheStore,
    KeyFormatError,
    classify_key,
    decode_key,
    encode,
    format_plan,
    parse_plan,
    solve_cached,
)
from torusarena.planner import solve
from torusarena.torus import DIAMOND


def random_problem(rng, clear=None, attach=None):
    obstacles, blocked = set(), set()
    for off in DIAMOND:
        if off == (0, 0):
            continue
        r = rng.random()
        if r < 0.15:
            obstacles.add(off)
        elif r < 0.25:
            blocked.add(off)
    attached = rng.choice([None, (0, 1), (0, -1), (1, 0), (-1, 0)]) if attach is None else attach
    if attached:
        obstacles.discard(attached)
        blocked.discard(attached)
    free = [
        o for o in DIAMOND if o not in obstacles and o not in blocked and o != (0, 0) and o != attached
    ]
    return make_problem(
        obstacles=obstacles,
        blocked=blocked,
        goal=rng.choice(free),
        attached=attached,
        clear=rng.random() < 0.5 if clear is None else clear,
    )


class TestEncode:
    def test_empty_diamond_goal_at_top(self):
        p = make_problem(goal=(0, -5))
        assert encode(p) == "n" + "3" + "0" * 60

    def test_attachment_prefix_follows_flag(self):
        p = make_problem(goal=(0, -5), attached=(0, 1))
        assert encode(p) == "n" + "01" + "3" + "0" * 60
        p = make_problem(goal=(0, -5), attached=(0, -1))
        assert encode(p).startswith("n0-1")

    def test_obstacle_at_unroll_index_20(self):
        p = make_problem(obstacles=[(0, -1)], goal=(0, -5))
        key = encode(p)
        assert key[1 + 20] == "1"

    def test_clear_flag(self):
        assert encode(make_problem(goal=(0, -5), clear=True))[0] == "c"
        assert encode(make_problem(goal=(0, -5), clear=False))[0] == "n"

    def test_blocked_cell_encodes_as_2(self):
        p = make_problem(blocked=[(1, 0)], goal=(0, -5))
        assert encode(p)[1 + DIAMOND.index((1, 0))] == "2"
        assert encode(p).count("2") == 1

    def test_key_is_filesystem_safe(self):
        p = make_problem(goal=(0, -5), attached=(0, -1), clear=True)
        key = encode(p)
        assert all(c.isdigit() or c in "cn-" for c in key)


class TestDecode:
    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(300):
            p = random_problem(rng)
            key = encode(p)
            q = decode_key(key)
            assert encode(q) == key
            assert q == p

    def test_two_goals_rejected_with_position(self):
        key = "n" + "33" + "0" * 59
        with pytest.raises(KeyFormatError) as e:
            decode_key(key)
        assert e.value.position == 2

    def test_wrong_length_rejected(self):
        with pytest.raises(KeyFormatError):
            decode_key("n" + "3" + "0" * 30)

    def test_bad_flag_rejected(self):
        with pytest.raises(KeyFormatError) as e:
            decode_key("x" + "3" + "0" * 60)
        assert e.value.position == 0

    def test_bad_grid_char_position(self):
        key = "n" + "3" + "0" * 10 + "7" + "0" * 49
        with pytest.raises(KeyFormatError) as e:
            decode_key(key)
        assert e.value.position == 12

    def test_bad_attachment_prefix(self):
        with pytest.raises(KeyFormatError):
            decode_key("n" + "11" + "3" + "0" * 60)  # (1,1) is not cardinal

    @settings(max_examples=60)
    @given(st.integers(0, 1 << 32))
    def test_round_trip_property(self, seed):
        p = random_problem(random.Random(seed))
        assert decode_key(encode(p)) == p


class TestInjectivity:
    def test_distinct_problems_distinct_keys(self):
        rng = random.Random(3)
        seen = {}
        for _ in range(400):
            p = random_problem(rng)
            key = encode(p)
            if key in seen:
                assert seen[key] == p
            seen[key] = p

    def test_goal_position_separates_keys(self):
        a = make_problem(goal=(0, -5))
        b = make_problem(goal=(0, 5))
        assert encode(a) != encode(b)

    def test_clear_flag_separates_keys(self):
        a = make_problem(goal=(0, -5), clear=True)
        b = make_problem(goal=(0, -5), clear=False)
        assert encode(a) != encode(b)


class TestStore:
    def test_miss_then_hit_without_second_solve(self, tmp_path):
        store = CacheStore(tmp_path)
        p = make_problem(obstacles=[(0, -1)], goal=(0, -3))
        calls = []

        def counting(problem):
            calls.append(1)
            return solve(problem)

        plan1, out1 = solve_cached(p, store, counting)
        plan2, out2 = solve_cached(p, store, counting)
        assert (out1, out2) == ("miss", "hit")
        assert plan1 == plan2
        assert len(calls) == 1

    def test_persisted_across_store_instances(self, tmp_path):
        p = make_problem(goal=(2, -2))
        plan, _ = solve_cached(p, CacheStore(tmp_path), solve)
        fresh = CacheStore(tmp_path)
        cached, out = solve_cached(p, fresh, lambda _: pytest.fail("should not solve"))
        assert out == "hit" and cached == plan

    def test_file_name_is_key_and_content_is_actions(self, tmp_path):
        store = CacheStore(tmp_path)
        p = make_problem(goal=(0, -2))
        plan, _ = solve_cached(p, store, solve)
        path = tmp_path / encode(p)
        assert path.exists()
        assert path.read_text() == "move_n\nmove_n\n"

    def test_corrupt_entry_is_miss_and_overwritten(self, tmp_path):
        store = CacheStore(tmp_path)
        p = make_problem(goal=(0, -2))
        key = encode(p)
        (tmp_path / key).write_text("garbage tokens\n")
        store.index.add(key)
        plan, out = solve_cached(p, store, solve)
        assert out == "miss"
        assert parse_plan((tmp_path / key).read_text()) == plan

    def test_readonly_store_never_writes(self, tmp_path):
        store = CacheStore(tmp_path, readonly=True)
        p = make_problem(goal=(0, -2))
        _, out = solve_cached(p, store, solve)
        assert out == "miss"
        assert list(tmp_path.iterdir()) == []

    def test_empty_plan_round_trips(self, tmp_path):
        store = CacheStore(tmp_path)
        box = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        p = make_problem(blocked=box, goal=(0, -3))
        plan, out = solve_cached(p, store, solve)
        assert plan == () and out == "miss"
        plan2, out2 = solve_cached(p, store, solve)
        assert plan2 == () and out2 == "hit"


def test_classify_key():
    good = encode(make_problem(goal=(0, -5), attached=(0, 1), clear=True))
    assert classify_key(good) == ("c", True)
    assert classify_key("junk") is None


def test_format_parse_round_trip():
    plan = ("move_n", "clear_0_-1", "clear_0_-1", "clear_0_-1", "move_n")
    assert parse_plan(format_plan(plan)) == plan
