import collections
import dataclasses
import pathlib
import random

import pytest

from conftest import check_optimal, check_plan, optimal_cost, percept_of, scripted_world
from torusarena.plan_cache import decode_key
from torusarena.planner import (
    BLOCKED,
    EMPTY,
    OBSTACLE,
    Navigator,
    Problem,
    ProblemError,
    build_problem,
    _search,
    fallback_one_step,
    relaxed,
    select_good_cell,
    solve,
)
from torusarena.torus import DIAMOND, DIAMOND_INDEX, Dims
from torusarena.world import CLEAR_COST, Action


def make_problem(obstacles=(), blocked=(), goal=(0, -3), attached=None, clear=False):
    labels = []
    for off in DIAMOND:
        if off in obstacles:
            labels.append(OBSTACLE)
        elif off in blocked:
            labels.append(BLOCKED)
        else:
            labels.append(EMPTY)
    return Problem(labels=tuple(labels), goal=goal, attached=attached, clear_allowed=clear)


def random_problem(rng, clear_rate):
    """A seeded random diamond: 15 % obstacles, 10 % blocked, a random
    attachment, a random free goal, and clearing allowed at `clear_rate`."""
    obstacles, blocked = set(), set()
    for off in DIAMOND:
        if off == (0, 0):
            continue
        r = rng.random()
        if r < 0.15:
            obstacles.add(off)
        elif r < 0.25:
            blocked.add(off)
    attached = rng.choice([None, (0, 1), (0, -1), (1, 0), (-1, 0)])
    if attached:
        obstacles.discard(attached)
        blocked.discard(attached)
    free = [
        off
        for off in DIAMOND
        if off not in obstacles and off not in blocked and off != (0, 0) and off != attached
    ]
    return make_problem(
        obstacles=obstacles,
        blocked=blocked,
        goal=rng.choice(free),
        attached=attached,
        clear=rng.random() < clear_rate,
    )


WALL = ((-1, -1), (0, -1), (1, -1))


class TestSolve:
    def test_straight_line(self):
        plan = solve(make_problem(goal=(0, -3)))
        assert plan == ("move_n", "move_n", "move_n")

    def test_wall_detour_costs_seven(self):
        plan = solve(make_problem(obstacles=WALL, goal=(0, -3), clear=False))
        assert len(plan) == 7
        assert optimal_cost(make_problem(obstacles=WALL, goal=(0, -3))) == 7
        check_plan(make_problem(obstacles=WALL, goal=(0, -3)), plan)

    def test_wall_with_clear_costs_six(self):
        p = make_problem(obstacles=WALL, goal=(0, -3), clear=True)
        plan = solve(p)
        assert len(plan) == 6
        assert plan[:3] == ("clear_0_-1",) * 3
        assert optimal_cost(p) == 6
        check_plan(p, plan)

    def test_unreachable_returns_empty(self):
        box = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        p = make_problem(blocked=box, goal=(0, -3))
        assert solve(p) == ()
        assert optimal_cost(p) is None

    def test_attached_block_travels(self):
        p = make_problem(goal=(0, -3), attached=(0, 1))
        plan = solve(p)
        # Three moves and no rotation: the block keeps its offset south of
        # the agent and ends on (0, -2).
        assert check_plan(p, plan) == 3
        assert all(token.startswith("move_") for token in plan)

    def test_attached_block_forces_rotation(self):
        # Narrow slot: with the block south, entering the one-cell gap from
        # the west requires repositioning the block first.
        obstacles = [(1, 1), (1, -1)]
        p = make_problem(obstacles=obstacles, goal=(2, 0), attached=(0, 1), clear=False)
        plan = solve(p)
        assert plan, "goal should be reachable"
        assert check_optimal(p, plan) == "optimal"
        check_plan(p, plan)

    def test_matches_oracle_on_random_problems(self):
        rng = random.Random(1234)
        for trial in range(300):
            p = random_problem(rng, clear_rate=0.5)
            plan = solve(p)
            if check_optimal(p, plan) == "optimal":
                check_plan(p, plan)

    def test_relaxed_pass_agrees_with_the_full_search(self):
        # With clearing allowed, solve answers from the relaxed problem when
        # its plan touches no obstacle. Wherever the relaxed goal is
        # reachable, that answer must be the full search's.
        rng = random.Random(27)
        outcomes = collections.Counter()
        for trial in range(400):
            p = random_problem(rng, clear_rate=1.0)
            plan, cells = _search(relaxed(p))
            if not plan:
                outcomes["unreachable"] += 1
                assert solve(p) == ()
                continue
            touches = any(p.labels[i] == OBSTACLE for i in cells)
            outcomes["full search" if touches else "relaxed answer"] += 1
            assert solve(p) == _search(p)[0], trial
        assert set(outcomes) == {"unreachable", "relaxed answer", "full search"}, outcomes


UNREACHABLE_KEYS = (
    (pathlib.Path(__file__).parent / "fixtures" / "unreachable_keys.txt").read_text().split()
)


class TestUnreachable:
    """Clear-allowed problems from dense matches whose goal no plan reaches.
    A full search of one walks every subset of cleared obstacles (seconds)."""

    @pytest.mark.parametrize("key", UNREACHABLE_KEYS)
    def test_fixture_key_is_proven_unreachable(self, key):
        problem = decode_key(key)
        assert problem.clear_allowed
        assert solve(relaxed(problem)) == ()
        assert solve(problem) == ()

    def test_fixture_needs_the_attached_block(self):
        # Without its attachment the agent alone reaches the goal in some of
        # these problems: the relaxation has to carry the block.
        agent_only = [
            solve(relaxed(dataclasses.replace(decode_key(key), attached=None))) != ()
            for key in UNREACHABLE_KEYS
        ]
        assert any(agent_only)

    def test_obstacles_count_as_cleared(self):
        ring = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        p = make_problem(obstacles=ring, goal=(0, -3), clear=True)
        assert solve(relaxed(p)) != ()
        assert len(solve(p)) == 6


class TestBuildProblem:
    def world_percept(self, **kw):
        w = scripted_world(30, 30, {"alpha": [(15, 15)], "beta": [(16, 15)]}, **kw)
        return percept_of(w, "alpha01")

    def test_enemy_is_blocked(self):
        p = build_problem(self.world_percept(), (0, -5))
        assert p.labels[DIAMOND_INDEX[1, 0]] == BLOCKED

    def test_dispenser_is_empty(self):
        percept = self.world_percept(dispensers=[((17, 17), "b1")])
        p = build_problem(percept, (0, -5))
        assert p.labels[DIAMOND_INDEX[2, 2]] == EMPTY

    def test_clear_flag_follows_energy(self):
        percept = self.world_percept()
        assert percept.self_energy >= CLEAR_COST
        assert build_problem(percept, (0, -5)).clear_allowed
        low = dataclasses.replace(percept, self_energy=CLEAR_COST - 1)
        assert not build_problem(low, (0, -5)).clear_allowed

    def test_blocked_goal_rejected(self):
        with pytest.raises(ProblemError):
            build_problem(self.world_percept(), (1, 0))

    def test_own_attached_block_is_empty_but_foreign_block_is_not(self):
        w = scripted_world(
            30,
            30,
            {"alpha": [(15, 15)]},
            dispensers=[((15, 16), "b1"), ((16, 15), "b1")],
        )
        w.step({"alpha01": Action.request("s")}, ())
        w.step({"alpha01": Action.attach("s")}, ())
        w.step({"alpha01": Action.request("e")}, ())
        p = build_problem(percept_of(w, "alpha01"), (0, -5))
        assert p.attached == (0, 1)
        assert p.labels[DIAMOND_INDEX[0, 1]] == EMPTY  # travels with me
        assert p.labels[DIAMOND_INDEX[1, 0]] == BLOCKED  # loose block on the dispenser


class TestGoodCell:
    def test_clear_diamond_picks_boundary_toward_destination(self):
        w = scripted_world(60, 60, {"alpha": [(10, 10)]})
        off = select_good_cell(percept_of(w, "alpha01"), (30, 10), (10, 10), Dims(60, 60))
        assert off == (5, 0)

    def test_destination_inside_diamond(self):
        w = scripted_world(60, 60, {"alpha": [(10, 10)]})
        off = select_good_cell(percept_of(w, "alpha01"), (12, 12), (10, 10), Dims(60, 60))
        assert off == (2, 2)

    def test_blocked_east_boundary_picks_best_remaining(self):
        wall = [((15, 10), "b1")]  # block sitting exactly on the boundary cell
        w = scripted_world(60, 60, {"alpha": [(10, 10)]}, dispensers=wall)
        w.step({"alpha01": Action.request("e")}, ())  # no dispenser adjacent: fails
        # Place blocks by hand instead: occupy (15,10) via a scripted block.
        w.blocks[(15, 10)] = "b1"
        percept = percept_of(w, "alpha01")
        off = select_good_cell(percept, (30, 10), (10, 10), Dims(60, 60))
        # Brute scan: best remaining free cell by remaining distance.
        best = min(
            (
                d
                for d in DIAMOND
                if d != (0, 0) and d != (5, 0)
            ),
            key=lambda d: (abs(30 - (10 + d[0])) + abs(10 - (10 + d[1])), DIAMOND.index(d)),
        )
        assert off == best

    def test_no_free_cell_returns_none(self):
        w = scripted_world(12, 12, {"alpha": [(5, 5)]})
        for off in DIAMOND:
            if off != (0, 0):
                cell = ((5 + off[0]) % 12, (5 + off[1]) % 12)
                w.blocks.setdefault(cell, "b1")
        assert select_good_cell(percept_of(w, "alpha01"), (0, 0), (5, 5), Dims(12, 12)) is None


class TestFallback:
    # Each case runs on the torus and, with dims=None, in the plane: the
    # chase before the dimensions are known, by plain Manhattan distance.
    DIMS = (Dims(20, 20), None)

    def test_moves_toward_destination(self):
        w = scripted_world(20, 20, {"alpha": [(5, 5)]})
        percept = percept_of(w, "alpha01")
        for dims in self.DIMS:
            assert fallback_one_step(percept, (5, 5), (9, 5), dims) == Action.move("e"), dims
            assert fallback_one_step(percept, (5, 5), (1, 5), dims) == Action.move("w"), dims
            assert fallback_one_step(percept, (5, 5), (5, 8), dims) == Action.move("s"), dims

    def test_all_neighbors_blocked_skips(self):
        w = scripted_world(20, 20, {"alpha": [(5, 5)]}, obstacles=[(5, 4), (5, 6), (4, 5), (6, 5)])
        for dims in self.DIMS:
            act = fallback_one_step(percept_of(w, "alpha01"), (5, 5), (9, 5), dims)
            assert act == Action.skip(), dims

    def test_tie_break_follows_nsew(self):
        # Destination diagonal: north and east both reduce distance; N wins,
        # and E once north is blocked.
        open_world = scripted_world(20, 20, {"alpha": [(5, 5)]})
        north_blocked = scripted_world(20, 20, {"alpha": [(5, 5)]}, obstacles=[(5, 4)])
        for dims in self.DIMS:
            act = fallback_one_step(percept_of(open_world, "alpha01"), (5, 5), (8, 2), dims)
            assert act == Action.move("n"), dims
            act = fallback_one_step(percept_of(north_blocked, "alpha01"), (5, 5), (8, 2), dims)
            assert act == Action.move("e"), dims

    def test_never_steps_away(self):
        # The one step toward the destination is blocked: skip, no detour.
        w = scripted_world(20, 20, {"alpha": [(5, 5)]}, obstacles=[(5, 6)])
        for dims in self.DIMS:
            act = fallback_one_step(percept_of(w, "alpha01"), (5, 5), (5, 9), dims)
            assert act == Action.skip(), dims

    def test_planar_distance_ignores_wrap(self):
        w = scripted_world(20, 20, {"alpha": [(5, 5)]})
        percept = percept_of(w, "alpha01")
        # 19 cells west in the plane, one cell east around the torus.
        assert fallback_one_step(percept, (5, 5), (-14, 5), None) == Action.move("w")
        assert fallback_one_step(percept, (5, 5), (-14, 5), Dims(20, 20)) == Action.move("e")


class TestNavigator:
    def drive_to(self, world, name, dest, max_steps=60):
        nav = Navigator(solve_fn=solve)
        nav.set_destination(dest)
        pos = world.agents[name].pos
        steps = 0
        while pos != dest and steps < max_steps:
            percept = percept_of(world, name)
            nav.note_result(percept.last_action_result)
            act = nav.next_action(percept, pos, world.dims)
            world.step({name: act}, ())
            pos = world.agents[name].pos
            steps += 1
        return steps, nav

    def test_static_world_arrives_in_exact_distance(self):
        w = scripted_world(20, 20, {"alpha": [(5, 5)]})
        steps, _ = self.drive_to(w, "alpha01", (15, 5))
        assert steps == 10

    def test_transient_blocker_fails_one_move_without_replanning(self):
        # alpha02 wanders onto the path mid-plan and leaves again; the blind
        # plan loses exactly one step and still lands on the destination
        # after one extra cycle.
        w = scripted_world(20, 20, {"alpha": [(5, 5), (8, 7)]})
        nav = Navigator(solve_fn=solve)
        nav.set_destination((11, 5))
        blocker_moves = ["n", "n", "s", "s"]
        name = "alpha01"
        failures = 0
        steps = 0
        while w.agents[name].pos != (11, 5) and steps < 30:
            percept = percept_of(w, name)
            nav.note_result(percept.last_action_result)
            act = nav.next_action(percept, w.agents[name].pos, w.dims)
            blocker = (
                Action.move(blocker_moves[steps]) if steps < len(blocker_moves) else Action.skip()
            )
            _, events = w.step({name: act, "alpha02": blocker}, ())
            failures += sum(
                1
                for e in events
                if e["type"] == "action"
                and e["agent"] == name
                and e["action"].startswith("move")
                and e["result"] != "success"
            )
            steps += 1
        assert w.agents[name].pos == (11, 5)
        assert failures == 1
        assert steps <= 12  # one transient failure costs at most the plan slack

    def test_boxed_in_agent_reports_stuck(self):
        w = scripted_world(
            20, 20, {"alpha": [(5, 5)]}, obstacles=[(5, 4), (5, 6), (4, 5), (6, 5)]
        )
        nav = Navigator(solve_fn=solve)
        nav.set_destination((15, 5))
        for _ in range(12):
            # Too little energy to clear: the ring of obstacles is final.
            percept = dataclasses.replace(percept_of(w, "alpha01"), self_energy=CLEAR_COST - 1)
            nav.note_result(percept.last_action_result)
            act = nav.next_action(percept, w.agents["alpha01"].pos, w.dims)
            w.step({"alpha01": act}, ())
        assert nav.stuck
