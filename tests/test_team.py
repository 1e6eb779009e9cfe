import dataclasses
from types import SimpleNamespace

import pytest

from conftest import percept_of, scripted_world
from torusarena.team import (
    BULLY_BOUNCER,
    BULLY_HUNTER,
    BullyState,
    DELIVERER,
    EXPLORER,
    ORIGIN,
    RETRIEVER,
    STALL_REASSIGN,
    TaskGroup,
    TeamController,
    bottom_most,
    form_groups,
    role_for_slot,
    select_task,
)
from torusarena.torus import Dims, sub
from torusarena.world import Action, Task, World, WorldConfig


class TestGroupArithmetic:
    def test_fifteen_agents_one_group(self):
        assert form_groups(15) == (1, 0)

    def test_thirty_agents_two_groups(self):
        assert form_groups(30) == (2, 0)

    def test_fifty_agents_three_groups_five_leftovers(self):
        assert form_groups(50) == (3, 5)

    def test_join_priority(self):
        roles = [role_for_slot(i) for i in range(15)]
        assert roles[0] == ORIGIN
        assert roles[1] == DELIVERER
        assert roles[2:14] == [RETRIEVER] * 12
        assert roles[14] == BULLY_HUNTER


class TestSelectTask:
    def t(self, name, reward, deadline, reqs):
        return Task(name=name, reward=reward, deadline=deadline, requirements=frozenset(reqs))

    def test_single_feasible_task_selected(self):
        task = self.t("a", 10, 500, [((0, 1), "b1")])
        assert select_task([task], {"b1"}, step=0, workers=5) == task

    def test_higher_reward_preferred(self):
        lo = self.t("lo", 10, 500, [((0, 1), "b1")])
        hi = self.t("hi", 20, 500, [((0, 1), "b1"), ((0, 2), "b1")])
        assert select_task([lo, hi], {"b1"}, 0, 5) == hi

    def test_unretrievable_types_excluded(self):
        task = self.t("a", 10, 500, [((0, 1), "b9")])
        assert select_task([task], {"b1", "b2"}, 0, 5) is None

    def test_tight_deadline_excluded(self):
        task = self.t("a", 10, 30, [((0, 1), "b1")])
        assert select_task([task], {"b1"}, step=20, workers=5) is None


def test_bottom_most_tie_breaks_min_x():
    assert bottom_most([(10, 10), (10, 11), (11, 11)]) == (10, 11)


class TestBuildingPhase:
    def controller(self, n, capacity=15):
        names = [f"alpha{i + 1:02d}" for i in range(n)]
        team = TeamController("alpha", names, seed=1, group_capacity=capacity)
        team.store.set_dims(Dims(40, 40))
        # Pretend the whole team merged already.
        for name in names:
            team.store.leaders[name] = names[0]
        return team

    def test_full_team_census(self):
        team = self.controller(15)
        team._maybe_start_building(step=5)
        assert team.building
        assert len(team.groups) == 1
        g = team.groups[0]
        assert g.origin and g.deliverer
        assert len(g.retrievers) == 12
        roles = [team.runtimes[n].role for n in team.names]
        assert roles.count(ORIGIN) == 1
        assert roles.count(DELIVERER) == 1
        assert roles.count(RETRIEVER) == 12
        assert roles.count(BULLY_HUNTER) == 1

    def test_fifty_agents_three_groups_and_five_hunters(self):
        team = self.controller(50)
        team._maybe_start_building(step=5)
        assert len(team.groups) == 3
        hunters = [n for n in team.names if team.runtimes[n].role == BULLY_HUNTER]
        groupless = [n for n in hunters if team.runtimes[n].group is None]
        assert len(groupless) == 5
        event = [e for e in team.events if e["type"] == "building_started"][0]
        assert event["groups"] == 3 and event["leftover_bullies"] == 5

    def test_building_requires_full_merge(self):
        names = [f"alpha{i + 1:02d}" for i in range(15)]
        team = TeamController("alpha", names, seed=1)
        team.store.set_dims(Dims(40, 40))
        team._maybe_start_building(step=5)
        assert not team.building  # still many singleton frame groups


class TestSlotReassignment:
    """A stalled slot goes to the first idle retriever in list order, which
    is often the one that has already staged slot 0. A slot's owner is the
    retriever whose fetch names it, so that retriever now stages, and hands
    on, the slot it was given."""

    def assembling_group(self):
        team = TestBuildingPhase().controller(15)
        team._maybe_start_building(step=5)
        group = team.groups[0]
        reqs = frozenset({((0, 1), "b1"), ((0, 2), "b1"), ((0, 3), "b1")})
        group.active_task = Task("t", 10, 999, reqs)
        team._assign_slots(group)
        return team, group

    def owner(self, team, group, slot):
        (name,) = [
            r for r in group.retrievers
            if team.runtimes[r].fetch is not None and team.runtimes[r].fetch.slot == slot
        ]
        return name

    def connect(self, team, group, name, step):
        team.runtimes[name].fetch.phase = "connect"
        percepts = {
            n: SimpleNamespace(last_action_result=("connect", "success") if n == name else None)
            for n in team.names
        }
        team._note_connect_results(group, percepts, step)

    def double_listed(self):
        """Slot 0 staged, then slot 2 stalls and goes to slot 0's retriever."""
        team, group = self.assembling_group()
        first = self.owner(team, group, 0)
        self.connect(team, group, first, step=10)
        assert group.staged == {0}
        team.runtimes[self.owner(team, group, 2)].fetch.stall = STALL_REASSIGN
        team._reassign_stalled(group, step=11)
        assert self.owner(team, group, 2) == first
        team.drain_events()
        return team, group, first

    def test_reassigned_retriever_stages_its_new_slot(self):
        team, group, first = self.double_listed()
        self.connect(team, group, first, step=12)
        assert group.staged == {0, 2}

    def test_stalled_reassigned_retriever_hands_on_its_new_slot(self):
        team, group, first = self.double_listed()
        team.runtimes[first].fetch.stall = STALL_REASSIGN
        team._reassign_stalled(group, step=12)
        events = [e for e in team.drain_events() if e["type"] == "slot_reassigned"]
        assert [e["slot"] for e in events] == [2]
        heir = team.runtimes[events[0]["agent"]].fetch
        assert (heir.slot, heir.offset) == (2, (0, 3))


class TestCartographyLifecycle:
    def world_pair(self):
        return scripted_world(30, 30, {"alpha": [(10, 10), (13, 10)]})

    def run_round(self, team, world, step=0):
        percepts = {n: percept_of(world, n) for n in team.names}
        return team.act(percepts, step)

    def test_first_mutual_identification_adopts_horizontal(self):
        w = self.world_pair()
        team = TeamController("alpha", ["alpha01", "alpha02"], seed=0)
        self.run_round(team, w)
        assert list(team.cartography.pairs) == ["horizontal"]
        assert all(team.cartography.pair_of(n) is not None for n in team.names)

    def test_adoption_refused_when_dims_known(self):
        w = self.world_pair()
        team = TeamController("alpha", ["alpha01", "alpha02"], seed=0)
        team.store.set_dims(w.dims)
        self.run_round(team, w)
        assert team.cartography.pairs == {}

    def test_second_pair_takes_vertical_third_none(self):
        # Distinct pair spacings, or the formations would be symmetric and
        # identification would conservatively refuse all of them.
        w = scripted_world(
            30,
            30,
            {"alpha": [(5, 5), (8, 5), (20, 20), (24, 20), (5, 20), (7, 20)]},
        )
        team = TeamController("alpha", [f"alpha{i:02d}" for i in range(1, 7)], seed=0)
        self.run_round(team, w)
        assert list(team.cartography.pairs) == ["horizontal", "vertical"]
        explorers = [n for n in team.names if team.cartography.pair_of(n) is None]
        assert len(explorers) == 2  # the third pair stays exploring
        assert {team.runtimes[n].role for n in team.names} == {EXPLORER}


    def test_degenerate_resighting_aborts_and_frees_the_dimension(self):
        # The pair stands side by side across the horizontal axis (along-axis
        # distance 0). It loses sight of each other for one step, then
        # sights each other again with neither having moved: zero steps and
        # zero residual measure nothing, so the pair is aborted.
        w = scripted_world(30, 30, {"alpha": [(10, 10), (10, 12)]})
        team = TeamController("alpha", ["alpha01", "alpha02"], seed=0)
        percepts = {n: percept_of(w, n) for n in team.names}
        out_of_sight = {
            n: dataclasses.replace(p, things=tuple(t for t in p.things if t.kind != "entity"))
            for n, p in percepts.items()
        }
        team.act(percepts, 0)
        team.act(out_of_sight, 1)
        pair = team.cartography.pair_of("alpha01")
        assert pair is not None and set(pair.pair) == set(team.names)
        team.drain_events()
        team.act(percepts, 2)
        kinds = [e["type"] for e in team.drain_events() if e["type"].startswith("cartography")]
        # Aborted, and the horizontal dimension is open again for adoption in
        # the same step (the same pair is the only one in sight).
        assert kinds == ["cartography_aborted", "cartography_started"]
        assert team.cartography.sizes == {} and team.store.dims is None
        assert list(team.cartography.pairs) == ["horizontal"]
        assert team.cartography.pair_of("alpha02") is not pair  # a fresh pair
        assert set(team.cartography.pair_of("alpha02").pair) == set(team.names)


class TestBullies:
    def hunter(self, world, name="alpha01", center=(10, 10)):
        team = TeamController("alpha", [name], seed=3)
        team.store.set_dims(world.dims)
        team.building = True
        rt = team.runtimes[name]
        rt.role = BULLY_HUNTER
        rt.bully = BullyState(patrol_center=sub(center, world.spawns[name]))
        return team

    def test_hunter_relocates_and_visits_every_cluster(self, monkeypatch):
        w = scripted_world(
            30,
            30,
            {"alpha": [(11, 11)]},
            goals=[(10, 10), (10, 11), (20, 20), (20, 21)],
        )
        team = self.hunter(w, center=(10, 10))
        # Seed the team map with both clusters, as exploration would.
        team.store.maps["alpha01"].goals |= {
            sub(c, w.spawns["alpha01"]) for c in [(10, 10), (10, 11), (20, 20), (20, 21)]
        }
        rt = team.runtimes["alpha01"]
        monkeypatch.setattr("torusarena.team.RELOCATE_AFTER", 12)
        percepts = w.percepts(["alpha01"])
        centers = set()
        relocated = []
        # Liveness: every known cluster is visited within clusters x threshold.
        for step in range(2 * 12 + 20):
            acts = team.act({"alpha01": percepts["alpha01"]}, step)
            percepts, _ = w.step(acts, ["alpha01"])
            relocated += [e["step"] for e in team.drain_events() if e["type"] == "bully_relocated"]
            centers.add(rt.bully.patrol_center)
        assert len(centers) >= 2, "hunter never toured the second cluster"
        assert relocated[0] == 11, "the hunter moves on after 12 steps without prey"

    def test_bouncer_never_relocates(self, monkeypatch):
        w = scripted_world(
            30, 30, {"alpha": [(11, 11)]}, goals=[(10, 10), (20, 20)]
        )
        team = self.hunter(w, center=(10, 10))
        rt = team.runtimes["alpha01"]
        rt.role = BULLY_BOUNCER
        monkeypatch.setattr("torusarena.team.RELOCATE_AFTER", 5)
        percepts = w.percepts(["alpha01"])
        for step in range(20):
            acts = team.act({"alpha01": percepts["alpha01"]}, step)
            percepts, _ = w.step(acts, ["alpha01"])
        assert not [e for e in team.drain_events() if e["type"] == "bully_relocated"]

    def test_explorer_becomes_bouncer_on_goal_sighting(self):
        w = scripted_world(30, 30, {"alpha": [(10, 8)]}, goals=[(10, 10)])
        team = TeamController("alpha", ["alpha01"], seed=0)
        percepts = w.percepts(["alpha01"])
        for step in range(3):
            acts = team.act({"alpha01": percepts["alpha01"]}, step)
            percepts, _ = w.step(acts, ["alpha01"])
        assert team.runtimes["alpha01"].role == BULLY_BOUNCER
        assert team.bouncer_count == 1

    def test_bully_charges_visible_enemy_block(self):
        w = scripted_world(
            30,
            30,
            {"alpha": [(10, 12)], "beta": [(10, 9)]},
            goals=[(10, 10)],
            dispensers=[((10, 8), "b1")],
        )
        # Give the enemy a block first.
        from torusarena.world import Action

        w.step({"beta01": Action.request("n")}, ())
        w.step({"beta01": Action.attach("n")}, ())
        team = self.hunter(w, center=(10, 10))
        percepts = w.percepts(["alpha01"])
        acts = team.act({"alpha01": percepts["alpha01"]}, 0)
        assert acts["alpha01"].kind == "clear"


class TestGoallessHunter:
    """A leftover hunter in a world with no goals has no patrol centre and
    falls back to plain movement along its exploration direction."""

    def act(self, obstacles):
        w = scripted_world(30, 30, {"alpha": [(10, 10)]}, obstacles=obstacles)
        team = TeamController("alpha", ["alpha01"], seed=0)
        team.store.set_dims(w.dims)
        team.runtimes["alpha01"].explore_dir = "n"
        action = team.act({"alpha01": percept_of(w, "alpha01")}, 0)["alpha01"]
        rt = team.runtimes["alpha01"]
        assert team.building and rt.role == BULLY_HUNTER and rt.bully.patrol_center is None
        return action

    def test_moves_along_the_exploration_direction(self):
        assert self.act([]) == Action.move("n")

    def test_sidesteps_perpendicular_when_blocked(self):
        assert self.act([(10, 9)]) == Action.move("e")
        assert self.act([(10, 9), (11, 10)]) == Action.move("w")

    @pytest.mark.parametrize("south_free", [True, False])
    def test_skips_when_boxed_in(self, south_free):
        # Unlike an explorer, it never turns back south.
        box = [(10, 9), (11, 10), (9, 10)] + ([] if south_free else [(10, 11)])
        assert self.act(box) == Action.skip()


class TestRequirementOrdering:
    def group_with(self, reqs):
        from torusarena.team import TaskGroup

        g = TaskGroup(gid=0)
        g.active_task = Task("t", 10, 999, frozenset(reqs))
        return g

    def test_vertical_chain_grows_downward(self):
        g = self.group_with([((0, 2), "b1"), ((0, 1), "b2")])
        assert [off for off, _ in g.requirement_list()] == [(0, 1), (0, 2)]

    def test_l_shape_connects_root_first(self):
        g = self.group_with([((-1, 1), "b2"), ((0, 1), "b2")])
        assert [off for off, _ in g.requirement_list()] == [(0, 1), (-1, 1)]

    def test_t_shape(self):
        g = self.group_with([((0, 1), "b1"), ((1, 1), "b1"), ((-1, 1), "b1")])
        order = [off for off, _ in g.requirement_list()]
        assert order[0] == (0, 1)
        assert set(order[1:]) == {(1, 1), (-1, 1)}


def test_integration_building_and_task_selection():
    cfg = WorldConfig(
        dims=(30, 30),
        teams={"alpha": 15, "beta": 1},
        obstacle_density=0.0,
        task_interval=10,
        task_size_range=(1, 2),
        clear_event_rate=0.0,
    )
    world = World(cfg, 5)
    names = [n for n, a in world.agents.items() if a.team == "alpha"]
    team = TeamController("alpha", names, seed=5)
    percepts = world.percepts(names)
    seen = set()
    for step in range(200):
        acts = team.act(percepts, step)
        percepts, _ = world.step(acts, names)
        seen |= {e["type"] for e in team.drain_events()}
        world.check_invariants()
    assert "cartography_finished" in seen
    assert "building_started" in seen
    assert "task_selected" in seen


def test_failed_accept_is_not_counted_as_accepted():
    # The world has no taskboard, so every accept fails; the team believes
    # its deliverer stands on one.
    world = scripted_world(
        30, 30, {"alpha": [(5, 5), (20, 20)]}, tasks=[(0, "t1", 10, 200, [((0, 1), "b1")])]
    )
    team = TeamController("alpha", ["alpha01", "alpha02"], seed=0)
    team.store.set_dims(world.dims)
    team.building = True
    percepts = world.percepts(team.names)
    task = percepts["alpha02"].tasks[0]
    team.groups = [
        TaskGroup(
            gid=0,
            origin="alpha01",
            deliverer="alpha02",
            goal_cluster=[(3, 3)],
            anchor=(3, 3),
            taskboard=team.position_of("alpha02"),
            active_task=task,
        )
    ]
    for name, role in (("alpha01", ORIGIN), ("alpha02", DELIVERER)):
        team.runtimes[name].role = role
        team.runtimes[name].group = 0
    deliverer = team.runtimes["alpha02"]
    for step in range(2):
        actions = team.act(percepts, step)
        assert actions["alpha02"] == Action.accept(task.name)
        percepts, _ = world.step(actions, team.names)
        assert percepts["alpha02"].last_action_result == ("accept", "failed:too_far")
        assert task.name not in deliverer.accepted_tasks
