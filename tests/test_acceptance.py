"""Acceptance suite: one test per criterion, each printing a PASS line when
its assertions hold. Run with `pytest tests/test_acceptance.py -s -v` to see
the per-criterion lines."""

import json
import random

import pytest
from conftest import check_optimal, check_plan, percept_of, scripted_world
from test_planner import make_problem
from test_sweep import check_group_tables
from torusarena.harness import (
    GreedyCourier,
    MatchConfig,
    log_digest,
    run_match,
)
from torusarena.identity import identification_round, unknown_team_entities
from torusarena.mapping import MapStore, finish_dimension, record_statics
from torusarena.merge_protocol import Sighting
from torusarena.mergecheck import (
    builtin_scenarios,
    chain_model,
    check_confluence,
    check_deadlock_free,
    check_has_trace,
    check_reaches_done,
    explore,
)
from torusarena.plan_cache import decode_key, encode
from torusarena.planner import solve
from torusarena import team as team_module
from torusarena.team import (
    BULLY_HUNTER,
    DELIVERER,
    ORIGIN,
    BullyState,
    TeamController,
    role_for_slot,
)
from torusarena.torus import DIAMOND, Dims, add, delta, sub, wrap
from torusarena.world import Action, FixedLayout, Thing, World, WorldConfig


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_identification_soundness():
    rng = random.Random(1)
    sightings = 0
    identifications = 0
    worlds = 0
    while sightings < 10_000:
        worlds += 1
        cfg = WorldConfig(
            dims=(rng.randint(20, 60), rng.randint(20, 60)),
            teams={"alpha": 8, "beta": 4},
            obstacle_density=rng.uniform(0, 0.1),
            dispensers_per_type=3,
            clear_event_rate=0.0,
            task_interval=0,
        )
        world = World(cfg, worlds)
        names = sorted(n for n, a in world.agents.items() if a.team == "alpha")
        for round_no in range(6):
            percepts = {n: percept_of(world, n) for n in names}
            sightings += sum(
                len(unknown_team_entities(percepts[n], "alpha")) for n in names
            )
            events, _ = identification_round("alpha", percepts, world.step_num)
            for e in events:
                identifications += 1
                true_cell = wrap(*add(world.agents[e.observer].pos, e.offset), world.dims)
                assert world.agents[e.observed].pos == true_cell, "false identification"
                assert world.agents[e.observed].team == "alpha"
            world.step({n: Action.move(rng.choice("nsew")) for n in world.agents}, ())
    # The worked two-agent example: both sides identify in a single round,
    # and the context check hinges on |-3+4| + |-2+0| = 3 <= 5.
    w = scripted_world(
        30,
        30,
        {"alpha": [(10, 10), (14, 10)]},
        dispensers=[((11, 8), "b2")],
    )
    percepts = {n: percept_of(w, n) for n in ("alpha01", "alpha02")}
    assert Thing((-3, -2), "dispenser", "b2") in percepts["alpha02"].things
    assert abs(-3 + 4) + abs(-2 + 0) == 3 <= 5
    events, _ = identification_round("alpha", percepts, 0)
    got = {(e.observer, e.observed) for e in events}
    assert got == {("alpha01", "alpha02"), ("alpha02", "alpha01")}
    report(1, f"{sightings} sightings, {identifications} identifications, 0 false")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_cartography_exactness():
    rng = random.Random(2)
    finishes = []
    for trial in range(50):
        dims = (rng.randint(20, 80), rng.randint(20, 80))
        cfg = WorldConfig(
            dims=dims,
            teams={"alpha": 4, "beta": 0},
            obstacle_density=rng.uniform(0, 0.10),
            task_interval=0,
            clear_event_rate=0.0,
            goal_cluster_count=1,
            dispensers_per_type=1,
            taskboard_count=1,
        )
        world = World(cfg, trial)
        team = TeamController("alpha", sorted(world.agents), seed=trial)
        percepts = world.percepts(team.names)
        for step in range(1500):
            actions = team.act(percepts, step)
            percepts, _ = world.step(actions, team.names)
            team.drain_events()
            if team.store.dims is not None:
                break
        assert team.store.dims == dims, f"trial {trial}: measured {team.store.dims}, actual {dims}"
        finishes.append(step)
    # The sum formula reduces to steps_a + steps_b + initial_distance when
    # the residual is zero.
    assert finish_dimension(4, 4, 2, 0) == 4 + 4 + 2 == 10
    assert finish_dimension(20, 20, 2, 3) == 45
    report(2, f"50/50 exact tori, finish steps {min(finishes)}..{max(finishes)}")


# --------------------------------------------------------------- criterion 3


def _merge_case(world, store, a, b):
    off = delta(world.agents[a].pos, world.agents[b].pos, world.dims)
    store.process_merges(
        [
            Sighting(
                a=a,
                b=b,
                offset=off,
                pos_a=store.maps[a].self_pos,
                pos_b=store.maps[b].self_pos,
            )
        ]
    )


def _frames_match_ground_truth(world, store):
    for name in store.agents:
        leader = store.leader_of(name)
        for c, _t in store.maps[name].dispensers:
            got = wrap(*store.to_leader(name, c), world.dims)
            true_world = wrap(*add(world.spawns[name], c), world.dims)
            expect = wrap(*sub(true_world, world.spawns[leader]), world.dims)
            assert got == expect, (name, c, got, expect)
    store.check_one_leader()


def test_criterion_3_merge_correctness():
    offsets = [
        (dx, dy)
        for dx in range(-5, 6)
        for dy in range(-5, 6)
        if 0 < abs(dx) + abs(dy) <= 5
    ]
    group_shapes = [(1, 1), (2, 1), (3, 1), (2, 2)]
    cases = 0
    for n_left, n_right in group_shapes:
        for off in offsets:
            total = n_left + n_right
            base = (2, 3)
            sight_b = wrap(*add(base, off), Dims(10, 10))
            spawn_cells = [base, sight_b]
            extra = [(6, 7), (8, 1), (0, 8), (4, 9)]
            for cell in extra:
                if len(spawn_cells) >= total:
                    break
                if cell not in spawn_cells:
                    spawn_cells.append(cell)
            if len(set(spawn_cells)) < total:
                continue
            world = scripted_world(
                10,
                10,
                {"alpha": spawn_cells},
                dispensers=[((5, 6), "b1"), (( 1, 1), "b2")],
            )
            names = sorted(world.agents)
            store = MapStore(names)
            store.set_dims(Dims(10, 10))
            # Prefabricate the two groups: first n_left agents in one, the
            # sighting partner (names[1]) leads the rest.
            left = [names[0]] + names[2 : 2 + n_left - 1]
            right = [names[1]] + names[2 + n_left - 1 : total]
            for m in left:
                store.leaders[m] = left[0]
                store.offsets[m] = sub(world.spawns[m], world.spawns[left[0]])
            for m in right:
                store.leaders[m] = right[0]
                store.offsets[m] = sub(world.spawns[m], world.spawns[right[0]])
            for n in names:
                record_statics(store.maps[n], percept_of(world, n))
            _merge_case(world, store, names[0], names[1])
            assert len({store.leader_of(n) for n in names}) == 1
            _frames_match_ground_truth(world, store)
            cases += 1
    assert cases > 200
    report(3, f"{cases} exhaustive pair merges on a 10x10 torus, all ground-true")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_protocol_checks():
    model = chain_model(3, 2)
    graph = explore(model)
    assert check_deadlock_free(graph)
    assert check_reaches_done(graph)
    assert check_reaches_done(graph, strong=True)
    assert check_confluence(graph)
    for sc in builtin_scenarios():
        verdict = check_has_trace(sc.model, explore(sc.model), sc.trace)
        assert verdict, f"{sc.name}: {verdict.detail}"
    # Fault injections must fail loudly, with printable counterexamples.
    dropped = explore(chain_model(3, 2, drop_notify=frozenset(["a2"])))
    v1 = check_deadlock_free(dropped)
    assert not v1 and v1.counterexample is not None
    print("  dropped-notify counterexample:")
    for label in v1.counterexample:
        print(f"    {label}")
    broken = explore(chain_model(2, 1, both_claim_victory=True))
    v2 = check_confluence(broken)
    assert not v2 and v2.counterexample is not None
    print("  both-claim-victory counterexample:")
    for label in v2.counterexample:
        print(f"    {label}")
    report(4, f"interference model verified over {len(graph.states)} states; six traces pass; faults fail")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_planner_optimality():
    rng = random.Random(5)
    checked = 0
    for quadrant, (clear, attach) in enumerate(
        [(False, None), (True, None), (False, "rand"), (True, "rand")]
    ):
        for _ in range(250):
            obstacles, blocked = set(), set()
            for off in DIAMOND:
                if off == (0, 0):
                    continue
                r = rng.random()
                if r < 0.12:
                    obstacles.add(off)
                elif r < 0.20:
                    blocked.add(off)
            attached = (
                rng.choice([(0, 1), (0, -1), (1, 0), (-1, 0)]) if attach else None
            )
            if attached:
                obstacles.discard(attached)
                blocked.discard(attached)
            free = [
                o
                for o in DIAMOND
                if o not in obstacles and o not in blocked and o != (0, 0) and o != attached
            ]
            goal = rng.choice(free)
            p = make_problem(
                obstacles=obstacles, blocked=blocked, goal=goal, attached=attached, clear=clear
            )
            plan = solve(p)
            if check_optimal(p, plan) == "optimal":
                check_plan(p, plan)
            checked += 1
    # The worked wall-detour case: 7 moves without clear, 6 with.
    wall = ((-1, -1), (0, -1), (1, -1))
    assert len(solve(make_problem(obstacles=wall, goal=(0, -3), clear=False))) == 7
    assert len(solve(make_problem(obstacles=wall, goal=(0, -3), clear=True))) == 6
    report(5, f"{checked} random problems exactly match the uniform-cost oracle")


# --------------------------------------------------------------- criterion 6


def assembly_config(cache_dir=None):
    spawns = {f"alpha{i + 1:02d}": (16 + i % 5, 16 + i // 5) for i in range(15)}
    spawns.update({f"beta{i + 1:02d}": (1 + i % 5, 33 + i // 5) for i in range(15)})
    fixed = FixedLayout(
        obstacles=[],
        goals=[(20, 24), (21, 24), (20, 25), (21, 25), (20, 26)],
        dispensers=[((14, 20), "b1"), ((26, 20), "b2")],
        taskboards=[(22, 22)],
        spawns=spawns,
        tasks=[(0, "job1", 20, 280, [((0, 1), "b1"), ((0, 2), "b2")])],
    )
    return MatchConfig(
        dims=(40, 40),
        team_size=15,
        steps=300,
        seed=6,
        opponent="idle",
        task_interval=0,
        cache_dir=cache_dir,
        fixed=fixed,
    )


def test_criterion_6_cache_exactness_and_day2_effect(tmp_path):
    rng = random.Random(6)
    for _ in range(1000):
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
            o
            for o in DIAMOND
            if o not in obstacles and o not in blocked and o != (0, 0) and o != attached
        ]
        p = make_problem(
            obstacles=obstacles,
            blocked=blocked,
            goal=rng.choice(free),
            attached=attached,
            clear=rng.random() < 0.5,
        )
        assert decode_key(encode(p)) == p
    cache_dir = str(tmp_path / "plans")
    cold, cold_log = run_match(assembly_config(cache_dir))
    keys_after_cold = {
        f.name: f.read_bytes() for f in (tmp_path / "plans").iterdir() if f.is_file()
    }
    warm, warm_log = run_match(assembly_config(cache_dir))
    keys_after_warm = {
        f.name: f.read_bytes() for f in (tmp_path / "plans").iterdir() if f.is_file()
    }
    assert warm.planner_invocations == 0, "warm run must never invoke the solver"
    assert warm.cache_misses == 0
    assert keys_after_cold == keys_after_warm, "warm run must leave plans byte-identical"

    def behavior(lines):
        return [l for l in lines if json.loads(l).get("type") not in ("plan", "footer")]

    assert behavior(cold_log) == behavior(warm_log)
    report(
        6,
        f"1000 key round-trips; cold {cold.cache_misses} misses -> warm 0, "
        f"{len(keys_after_cold)} plan files byte-stable",
    )


# --------------------------------------------------------------- criterion 7


def unheld_multiblock_component(world):
    """True when some linked structure of 2+ blocks has no holder at all."""
    adj = {}
    for link in world.links:
        a, b = tuple(link)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nxt in adj.get(cur, ()):
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        if len(comp) >= 2 and all(world._holder_of(c) is None for c in comp):
            return True
    return False


def run_assembly_instrumented(seed=6, extra_tasks=()):
    cfg = assembly_config()
    cfg.seed = seed
    cfg.fixed.tasks.extend(extra_tasks)
    cfg.validate()
    world = World(cfg.world_config(), cfg.seed)
    names = cfg.world_config().agent_names()
    team = TeamController("alpha", names["alpha"], cfg.seed)
    percepts = world.percepts(names["alpha"])
    events_all = []
    completed = 0
    window = 0
    max_window = 0
    for step in range(cfg.steps):
        actions = team.act(percepts, step)
        percepts, events = world.step(actions, names["alpha"])
        events_all.extend(team.drain_events())
        events_all.extend(events)
        world.check_invariants()
        # Swap-window instrumentation: how long does a built structure sit
        # unattached?
        if unheld_multiblock_component(world):
            window += 1
            max_window = max(max_window, window)
        else:
            window = 0
        # Role census invariant, every step, and the group tables the census
        # is read from: distinct members, each naming its group.
        check_group_tables(team)
        for group in team.groups:
            roles = [team.role_of(n) for n, rt in team.runtimes.items() if rt.group == group.gid]
            assert roles.count("origin") == 1
            assert roles.count("deliverer") == 1
            assert roles.count("retriever") <= 12
            assert roles.count("bully_hunter") + roles.count("bully_bouncer") <= 1
        completed = sum(
            1 for e in events_all if e.get("type") == "task_completed" and e.get("team") == "alpha"
        )
    return completed, max_window, events_all, team


def _deliverer_first(slot):
    """Join priority with the first two roles exchanged, so the deliverer's
    name sorts before the origin's."""
    return {0: DELIVERER, 1: ORIGIN}.get(slot) or role_for_slot(slot)


# The world applies actions in name order. When the origin's name sorts first
# it leaves the anchor before the deliverer steps on in the same step, so the
# structure is unheld for detach + combined vacate/enter + attach = 2 steps.
# When the deliverer's sorts first its step onto the still-occupied anchor
# fails and is retried one step later: 3 steps.
@pytest.mark.parametrize(
    "join_priority, expected",
    [(role_for_slot, 2), (_deliverer_first, 3)],
    ids=["origin_first", "deliverer_first"],
)
def test_criterion_7_end_to_end_assembly(monkeypatch, join_priority, expected):
    monkeypatch.setattr(team_module, "role_for_slot", join_priority)
    completed, max_window, events, _team = run_assembly_instrumented()
    assert completed >= 1, "no 2-block task completed"
    assert max_window == expected, f"swap window {max_window}, expected {expected}"
    kinds = {e["type"] for e in events}
    assert {"task_selected", "task_submitted", "roles_rotated"} <= kinds
    report(7, f"{completed} two-block tasks completed, swap window exactly {max_window} steps")


def test_criterion_7_two_submits_rotate_roles_twice():
    """A second scripted task makes the group submit, and rotate its roles,
    a second time, with the group tables checked every step throughout."""
    job2 = (0, "job2", 20, 400, [((0, 1), "b2"), ((0, 2), "b1")])
    completed, _window, events, _team = run_assembly_instrumented(extra_tasks=[job2])
    rotations = [e for e in events if e["type"] == "roles_rotated"]
    assert completed == 2
    assert len(rotations) == 2
    # The deliverer of the first rotation is the origin of the second.
    assert rotations[1]["origin"] == rotations[0]["deliverer"]
    report(7, "a second task submitted, roles rotated twice")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_bully_interception():
    world = scripted_world(
        30,
        30,
        {"alpha": [(12, 8)], "beta": [(20, 10)]},
        goals=[(10, 10), (11, 10), (10, 11), (11, 11)],
        dispensers=[((17, 10), "b1"), ((4, 4), "b2")],
        taskboards=[(19, 10)],
        tasks=[(0, "tX", 10, 200, [((0, 1), "b2")])],
    )
    team = TeamController("alpha", ["alpha01"], seed=3)
    team.store.set_dims(world.dims)
    team.building = True
    rt = team.runtimes["alpha01"]
    rt.role = BULLY_HUNTER
    rt.bully = BullyState(patrol_center=sub((10, 10), world.spawns["alpha01"]))
    courier = GreedyCourier(["beta01"], seed=3)
    percepts = world.percepts(["alpha01"])
    cleared_step = None
    for step in range(30):
        actions = team.act({"alpha01": percepts["alpha01"]}, step)
        actions.update(courier.act(world, step))
        percepts, events = world.step(actions, ["alpha01"])
        for e in events:
            if e["type"] == "clear_completed" and e["agent"] == "alpha01":
                cleared_step = step
        if cleared_step is not None:
            break
    assert cleared_step is not None and cleared_step < 30
    assert not world.agents["beta01"].held, "the carried block must be gone"
    report(8, f"3-charge clear completed at step {cleared_step}")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_determinism():
    digests = []
    for _ in range(2):
        _, log = run_match(assembly_config())
        digests.append(log_digest(log))
    assert digests[0] == digests[1]
    courier_cfg = MatchConfig(
        dims=(30, 30), team_size=5, steps=120, seed=9, opponent="greedy-courier",
        task_interval=15,
    )
    d2 = [log_digest(run_match(courier_cfg)[1]) for _ in range(2)]
    assert d2[0] == d2[1]
    # Instrumented assembly scenario (criterion 7) twice, event for event.
    a = run_assembly_instrumented(seed=6)
    b = run_assembly_instrumented(seed=6)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[2] == b[2]
    # Cartography scenario re-run.
    rng = random.Random(2)
    dims = (rng.randint(20, 80), rng.randint(20, 80))
    runs = []
    for _ in range(2):
        cfg = WorldConfig(
            dims=dims, teams={"alpha": 4, "beta": 0}, obstacle_density=0.08,
            task_interval=0, clear_event_rate=0.0,
            goal_cluster_count=1, dispensers_per_type=1, taskboard_count=1,
        )
        world = World(cfg, 0)
        team = TeamController("alpha", sorted(world.agents), seed=0)
        percepts = world.percepts(team.names)
        trace = []
        for step in range(600):
            actions = team.act(percepts, step)
            percepts, events = world.step(actions, team.names)
            trace.extend(team.drain_events())
            trace.extend(events)
            if team.store.dims is not None:
                break
        runs.append(trace)
    assert runs[0] == runs[1]
    report(9, "identical digests and event streams on every re-run")
