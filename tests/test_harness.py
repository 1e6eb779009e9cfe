import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from conftest import scripted_world
from torusarena.cli import main as cli_main
from torusarena.harness import (
    OPPONENTS,
    PRESETS,
    GreedyCourier,
    MatchConfig,
    MatchConfigError,
    ReplayError,
    _dump,
    _line,
    cache_stats,
    log_digest,
    play,
    replay,
    run_match,
)
from torusarena.mapping import dump_map
from torusarena.torus import torus_distance
from torusarena.world import World, WorldConfig


def small_config(**overrides):
    cfg = MatchConfig(
        dims=(24, 24),
        team_size=4,
        steps=60,
        seed=11,
        opponent="idle",
        task_interval=0,
        goal_cluster_count=1,
        dispensers_per_type=1,
        taskboard_count=1,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def with_line(log, index, text):
    """The log with line `index` replaced by `text`; unless that line is the
    footer, the footer is resealed so the checksum still holds."""
    lines = list(log)
    lines[index] = text
    if index % len(lines) != len(lines) - 1:
        lines[-1] = json.dumps({"type": "footer", "sha256": log_digest(lines[:-1])})
    return lines


NOT_AN_OBJECT = {"header": 0, "body": 5, "footer": -1}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def logged_kinds(log):
    """The record types in a log, a plan record's as "plan <outcome>"."""
    kinds = set()
    for line in log:
        record = json.loads(line)
        kind = record["type"]
        kinds.add(f"plan {record['outcome']}" if kind == "plan" else kind)
    return kinds


class TestConfigValidation:
    def test_bad_opponent_named_in_error(self):
        cfg = small_config(opponent="chess-engine")
        with pytest.raises(MatchConfigError, match="opponent"):
            cfg.validate()

    def test_bad_dims_named_in_error(self):
        cfg = small_config(dims=(4, 4))
        with pytest.raises(MatchConfigError, match="dims"):
            cfg.validate()

    @pytest.mark.parametrize("capacity", [0, 1, 2])
    def test_group_capacity_below_three_rejected_before_play(self, capacity):
        # Unchecked, a zero capacity divides by zero once building starts;
        # capacity 1 forms groups with no deliverer, whose None then names
        # two groups at once, and capacity 2 groups with no retriever, whose
        # selected tasks can never be built.
        cfg = MatchConfig(dims=(20, 20), team_size=5, steps=150, seed=1, group_capacity=capacity)
        with pytest.raises(MatchConfigError, match="group_capacity: a group needs an origin"):
            cfg.validate()
        with pytest.raises(MatchConfigError, match="group_capacity"):
            run_match(cfg)

    @pytest.mark.parametrize("opponent", list(OPPONENTS))
    def test_every_opponent_validates_and_parses(self, opponent, capsys):
        small_config(opponent=opponent).validate()
        argv = ["run", "--opponent", opponent, "--steps", "1", "--dims", "16x16", "--team-size", "2"]
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 1

    def test_cache_location_does_not_change_config_hash(self):
        a, b = small_config(), small_config(cache_dir="/tmp/x", cache_readonly=True)
        assert a.config_hash() == b.config_hash()


class TestRunMatch:
    def test_same_invocation_same_digest(self):
        _, l1 = run_match(small_config())
        _, l2 = run_match(small_config())
        assert log_digest(l1) == log_digest(l2)

    def test_different_seed_different_digest(self):
        _, l1 = run_match(small_config())
        _, l2 = run_match(small_config(seed=12))
        assert log_digest(l1) != log_digest(l2)

    def test_same_digest_under_two_hash_seeds(self):
        # String hashing is salted per process: a match that iterated a set
        # of strings would log another order under another PYTHONHASHSEED.
        code = (
            "from torusarena.harness import PRESETS, MatchConfig, run_match\n"
            "cfg = MatchConfig(steps=60, seed=0, opponent='greedy-courier', **PRESETS['r1'])\n"
            "print(run_match(cfg)[1][-1])\n"
        )
        footers = set()
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            footers.add(done.stdout.strip())
        assert len(footers) == 1, footers
        assert json.loads(footers.pop())["type"] == "footer"

    def test_report_counters_match_log(self):
        report, log = run_match(small_config())
        assert report.steps == 60
        idents = sum(
            json.loads(l).get("count", 0)
            for l in log
            if json.loads(l).get("type") == "identification"
        )
        assert report.identification_count == idents


class TestReplay:
    def test_replay_reproduces_report(self):
        report, log = run_match(small_config())
        assert replay(log) == report

    def test_flipped_byte_fails_checksum(self):
        _, log = run_match(small_config())
        middle = len(log) // 2
        line = log[middle]
        flipped = line.replace('"', "'", 1)
        with pytest.raises(ReplayError, match="checksum"):
            replay(log[:middle] + [flipped] + log[middle + 1 :])

    def test_truncated_log_reports_last_valid_step(self):
        _, log = run_match(small_config())
        with pytest.raises(ReplayError) as e:
            replay(log[: len(log) // 2])
        assert e.value.last_valid_step >= 0

    def test_truncated_footer_reports_the_last_step(self):
        _, log = run_match(small_config())
        with pytest.raises(ReplayError, match="unreadable footer") as e:
            replay(log[:-1] + [log[-1][:20]])
        assert e.value.last_valid_step == 60  # the final record's step

    @pytest.mark.parametrize("where", sorted(NOT_AN_OBJECT))
    def test_line_that_is_not_an_object_is_a_replay_error(self, where):
        _, log = run_match(small_config())
        with pytest.raises(ReplayError):
            replay(with_line(log, NOT_AN_OBJECT[where], "[1]"))

    def test_fresh_log_replay(self):
        report, log = run_match(small_config())
        assert report.scores["beta"] == 0  # idle side never scores
        again = replay(log)
        assert again.to_dict() == report.to_dict()

    def test_committed_golden_log_replay(self):
        # Cross-version regression pin: a frozen log must keep replaying to
        # the frozen report, and the live engine must still reproduce it.
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        log = (fixtures / "golden_match.log").read_text().splitlines()
        expected = json.loads((fixtures / "golden_match.report.json").read_text())
        assert replay(log).to_dict() == expected
        cfg = MatchConfig(
            dims=(24, 24),
            team_size=4,
            steps=80,
            seed=2024,
            opponent="greedy-courier",
            task_interval=10,
            goal_cluster_count=1,
            dispensers_per_type=1,
            taskboard_count=1,
        )
        report, fresh = run_match(cfg)
        assert fresh == log
        assert report.to_dict() == expected

    def test_paper_scale_match_digest(self):
        # The golden log is 4 v 4 on 24x24, where dense clusters of
        # teammates barely form; this pins a 50 v 50 match on the r3 preset.
        cfg = MatchConfig(steps=30, seed=0, opponent="greedy-courier", **PRESETS["r3"])
        _, log = run_match(cfg)
        assert json.loads(log[-1])["sha256"] == (
            "ea741e7851b4becc6cb4b142acf451e13475eb89808d71ea01f4ce8d09133e08"
        )

    def test_dense_match_digest(self, tmp_path):
        # Dense obstacles, clear events and a plan cache: this match selects
        # and completes a task, rotates roles and fills the cache.
        cfg = MatchConfig(
            dims=(40, 40),
            team_size=15,
            steps=200,
            seed=5,
            opponent="idle",
            obstacle_density=0.2,
            clear_event_rate=0.1,
            cache_dir=str(tmp_path),
        )
        report, log = run_match(cfg)
        assert json.loads(log[-1])["sha256"] == (
            "26cf9f7f96dfec39f6ae665b2cc214f27050cb4f3366cfb49fd794b0d65583a2"
        )
        assert report.tasks_completed["alpha"] >= 1 and report.cache_misses > 0
        # The report a match counts as it writes its log is the one replay
        # counts from the log, cold and then warm on the same cache.
        assert replay(log) == report
        warm_report, warm_log = run_match(cfg)
        assert replay(warm_log) == warm_report
        assert warm_report.cache_hits > 0
        assert {
            "plan hit", "plan miss", "task_completed", "cartography_finished", "merge",
            "identification",
        } <= logged_kinds(log) | logged_kinds(warm_log)

    def test_uncached_match_report_equals_its_replay(self):
        # With no cache directory every plan is a direct solve.
        cfg = MatchConfig(steps=150, seed=0, opponent="greedy-courier", **PRESETS["r1"])
        report, log = run_match(cfg)
        assert "plan solve" in logged_kinds(log)
        assert report.planner_invocations > 0
        assert replay(log) == report

    @pytest.mark.parametrize(
        "preset,seed,steps,digest",
        [
            ("r3", 0, 100, "4e78e42743bd3535e8eca76888da40d9571ed9a8a0e04a93d8d98441b57be8e8"),
            ("r3", 1, 100, "102805ffe17e17ea6bff3b1eab2b3a27ecd3a3e213c235bc001cd63bd0ee4ee5"),
            # A retriever ends up listed at two slots in both of these.
            ("r1", 1, 400, "40535669cdf3ac9b27313b1f80ef38d0ba24ab700c1d76168193adda3c06b2a8"),
            ("r1", 2, 400, "171a0b0b274a76fb9cdd434e6b60352694cc667a8bf898f70b31cce49b53f6fb"),
        ],
    )
    def test_contract_match_digest(self, preset, seed, steps, digest):
        # The benchmark's match-r3 seeds, and two longer matches whose
        # groups reassign stalled slots.
        cfg = MatchConfig(steps=steps, seed=seed, opponent="greedy-courier", **PRESETS[preset])
        _, log = run_match(cfg)
        assert json.loads(log[-1])["sha256"] == digest


class TestOpponents:
    def test_greedy_courier_carries_block_to_goal(self):
        cfg = WorldConfig(
            dims=(20, 20),
            teams={"alpha": 1, "beta": 1},
            obstacle_density=0.0,
            task_interval=0,
            clear_event_rate=0.0,
        )
        from torusarena.world import FixedLayout

        cfg.fixed = FixedLayout(
            obstacles=[],
            goals=[(10, 10)],
            dispensers=[((15, 10), "b1")],
            taskboards=[(17, 10)],
            spawns={"alpha01": (2, 2), "beta01": (18, 10)},
            tasks=[(0, "t", 10, 150, [((0, 1), "b1")])],
        )
        world = World(cfg, 0)
        courier = GreedyCourier(["beta01"], 0)
        for step in range(60):
            world.step(courier.act(world, step), ())
            if world.agents["beta01"].pos == (10, 10) and world.agents["beta01"].held:
                break
        assert world.agents["beta01"].pos == (10, 10)
        assert world.agents["beta01"].held

    def test_courier_nearest_cell_is_kept_and_breaks_ties_by_cell(self):
        # Boards (1, 1) and (5, 1) are equidistant from (3, 1); (1, 1) and
        # (3, 5) are equidistant from (8, 4), both across the wrap of the
        # 9-column grid.
        boards = [(5, 1), (1, 1), (3, 5)]
        world = scripted_world(
            9,
            7,
            {"beta": [(0, 3)]},
            obstacles=[(4, 3), (5, 3), (6, 3), (4, 4), (6, 5)],
            goals=[(7, 6), (8, 6), (2, 3)],
            dispensers=[((7, 0), "b1"), ((0, 5), "b2")],
            taskboards=boards,
            tasks=[(0, "t", 1, 200, [((0, 1), "b1")])],
            clear_event_rate=1.0,
        )
        courier = GreedyCourier(["beta01"], 0)
        cells = {
            "taskboards": world.taskboards,
            "dispensers": world.dispensers.keys(),
            "goals": [c for c, t in world.terrain.items() if t == "goal"],
        }

        def check_every_cell():
            for which, of in cells.items():
                for x in range(9):
                    for y in range(7):
                        fresh = min(sorted(of), key=lambda c: torus_distance((x, y), c, world.dims))
                        assert courier._nearest(world, (x, y), which) == fresh, (which, x, y)

        assert courier._nearest(world, (3, 1), "taskboards") == (1, 1)
        assert courier._nearest(world, (8, 4), "taskboards") == (1, 1)
        check_every_cell()
        obstacles = world.terrain.copy()
        for step in range(40):
            world.step(courier.act(world, step), ())
            if world.terrain != obstacles:
                break
        assert world.terrain != obstacles, "a clear event must have removed an obstacle"
        check_every_cell()

    def test_random_walk_deterministic(self):
        cfg = small_config(opponent="random-walk")
        _, l1 = run_match(cfg)
        _, l2 = run_match(cfg)
        assert log_digest(l1) == log_digest(l2)


# Every character class the JSON encoder escapes differently: quotes,
# backslashes, control characters, DEL, non-ASCII text and astral or lone
# surrogate code points.
AWKWARD = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\x08\u00e9\u2028\ud800\U0001f600'),
        st.characters(codec=None),
    )
)


class TestLogLines:
    @given(AWKWARD, AWKWARD, AWKWARD, st.integers(0, 10**6))
    @example('say "hi" \\ \x01', "\u00e9t\u00e9", "failed:\U0001f600", 0)
    def test_action_line_equals_the_general_encoder(self, action, agent, result, step):
        record = {"step": step, "type": "action", "agent": agent, "action": action, "result": result}
        assert _line(record) == _dump(record)

    @pytest.mark.parametrize(
        "record",
        [
            {"type": "header", "format": 1, "seed": 3, "config_hash": "ab"},
            {"step": 4, "type": "merge", "team": "alpha", "winner": "alpha01", "members": ["\u00e9", 'q"']},
            {"step": 9, "type": "clear_completed", "agent": "alpha02", "cell": [1, 2], "removed": []},
            {"type": "final", "step": 10, "scores": {"alpha": 0, "beta": 40}},
        ],
    )
    def test_other_records_go_through_the_general_encoder(self, record):
        assert _line(record) == _dump(record) == json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestCacheStats:
    def test_fresh_dir_zero_keys(self, tmp_path):
        stats = cache_stats(str(tmp_path))
        assert stats["keys"] == 0

    def test_warm_run_lowers_misses_and_counts_keys(self, tmp_path):
        cfg = small_config(cache_dir=str(tmp_path), steps=120, task_interval=15)
        cold, _ = run_match(cfg)
        stats = cache_stats(str(tmp_path))
        warm, _ = run_match(cfg)
        if cold.cache_misses:
            assert stats["keys"] > 0
            assert warm.cache_misses < cold.cache_misses

    def test_corrupt_entry_listed_invalid(self, tmp_path):
        (tmp_path / "notakey").write_text("junk\n")
        stats = cache_stats(str(tmp_path))
        assert stats["invalid"] == ["notakey"]
        assert stats["keys"] == 0


class TestCli:
    def test_run_and_replay_roundtrip(self, tmp_path, capsys):
        log_path = tmp_path / "match.log"
        rc = cli_main(
            [
                "run",
                "--seed",
                "3",
                "--steps",
                "40",
                "--dims",
                "20x20",
                "--team-size",
                "3",
                "--log",
                str(log_path),
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "log_digest" in out
        rc = cli_main(["replay", "--log", str(log_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["steps"] == 40

    def test_replay_corrupt_log_exits_3(self, tmp_path, capsys):
        log_path = tmp_path / "bad.log"
        rc = cli_main(
            ["run", "--seed", "3", "--steps", "10", "--dims", "20x20", "--team-size", "2", "--log", str(log_path)]
        )
        assert rc == 0
        capsys.readouterr()
        text = log_path.read_text().splitlines()
        text[3] = text[3].replace(":", ";", 1)
        log_path.write_text("\n".join(text) + "\n")
        rc = cli_main(["replay", "--log", str(log_path)])
        assert rc == 3

    @pytest.mark.parametrize("where", sorted(NOT_AN_OBJECT))
    def test_replay_line_that_is_not_an_object_exits_3(self, tmp_path, capsys, where):
        _, log = run_match(small_config(steps=10))
        log_path = tmp_path / "bad.log"
        log_path.write_text("\n".join(with_line(log, NOT_AN_OBJECT[where], "[1]")) + "\n")
        rc = cli_main(["replay", "--log", str(log_path)])
        assert rc == 3
        assert "replay error" in capsys.readouterr().err

    def test_check_protocol_passes(self, capsys):
        rc = cli_main(["check-protocol", "--agents", "3", "--sightings", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS deadlock-free" in out
        assert out.count("PASS") >= 10  # standard checks + six scenarios

    def test_check_protocol_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "nominal.trace"
        trace.write_text(
            "# two-agent nominal run\nsight a1 a2\nreport a1\nreport a2\n"
            "propose a2 a1\nabsorb a1\nnotify a2\n"
        )
        rc = cli_main(["check-protocol", "--agents", "2", "--sightings", "1", "--trace", str(trace)])
        assert rc == 0

    def test_check_protocol_infeasible_trace_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "bogus.trace"
        trace.write_text("sight a1 a2\nabsorb a1\n")  # absorb before any propose
        rc = cli_main(["check-protocol", "--agents", "2", "--sightings", "1", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "FAIL" in out and "counterexample" in out

    def test_check_protocol_too_many_sightings_exits_1(self, capsys):
        rc = cli_main(["check-protocol", "--agents", "4", "--sightings", "5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err and "sightings" in captured.err
        assert "PASS" not in captured.out

    def test_bad_config_exits_1(self, capsys):
        rc = cli_main(["run", "--dims", "4x4", "--steps", "5"])
        assert rc == 1

    def test_cache_stats_command(self, tmp_path, capsys):
        rc = cli_main(["cache-stats", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["keys"] == 0

    def test_cache_stats_missing_dir_exits_1_and_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        rc = cli_main(["cache-stats", "--cache-dir", str(missing)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not missing.exists()

    def test_run_readonly_missing_cache_exits_1_and_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "typo"
        args = ["run", "--steps", "5", "--dims", "20x20", "--team-size", "2"]
        rc = cli_main(args + ["--cache-dir", str(missing), "--cache-readonly"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not missing.exists()

    def test_team_size_zero_exits_1(self, capsys):
        rc = cli_main(["run", "--team-size", "0", "--steps", "1"])
        assert rc == 1
        assert "team_size" in capsys.readouterr().err

    def test_export_map_prints_the_map_of_the_played_match(self, capsys):
        # With a moving opponent the world depends on its moves, so the map
        # is only right if export-map plays the opponent as run does.
        rc = cli_main(
            ["export-map", "--dims", "20x20", "--team-size", "5", "--steps", "60",
             "--seed", "1", "--opponent", "greedy-courier"]
        )
        assert rc == 0
        cfg = MatchConfig(dims=(20, 20), team_size=5, steps=60, seed=1, opponent="greedy-courier")
        assert capsys.readouterr().out == dump_map(play(cfg).team.store.maps["alpha01"])

    def test_export_map_writes_the_log_and_cache_of_run(self, tmp_path, capsys):
        match = ["--dims", "20x20", "--team-size", "3", "--steps", "40", "--seed", "3",
                 "--opponent", "random-walk"]
        for command in ("run", "export-map"):
            where = tmp_path / command
            where.mkdir()
            rc = cli_main([command, *match, "--cache-dir", str(where / "cache"),
                           "--log", str(where / "match.log")])
            assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "run" / "match.log").read_text() == (
            tmp_path / "export-map" / "match.log"
        ).read_text()
        cached = sorted(p.name for p in (tmp_path / "run" / "cache").iterdir())
        assert cached == sorted(p.name for p in (tmp_path / "export-map" / "cache").iterdir())

    def test_export_map_bad_config_exits_1(self, capsys):
        rc = cli_main(["export-map", "--steps", "0"])
        assert rc == 1
        assert "steps" in capsys.readouterr().err

    def test_export_map(self, capsys):
        rc = cli_main(
            ["export-map", "--seed", "2", "--steps", "30", "--dims", "20x20", "--team-size", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("owner: alpha01")

    def test_preset_round_one(self, capsys):
        rc = cli_main(["run", "--preset", "r1", "--steps", "5", "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["steps"] == 5
