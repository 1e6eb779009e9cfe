#!/usr/bin/env python3
"""Benchmark of torusarena: one command for every workload.

    python3 bench/run.py --workload match-r3 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the named workload until --seconds have passed (at
least one round), checks every output,
and prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, measured
with only the decision-latency wrapper installed. With --trace 1 every
public layer function is wrapped from here, and the metrics are per-layer
self times and counts, per round. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from checkers import (  # noqa: E402
    CheckFailed,
    PlanProblem,
    check_done_offsets,
    check_identification,
    check_optimal,
    check_plan,
)
from spans import CallTimer, Tracer, clock  # noqa: E402

# The matches are fixed: decision latency differs up to 2x between r3 match
# seeds, more than any bound could absorb. Every round plays every match of
# its workload; --seed picks the plans whose optimality is checked and the
# order in which a match-r3 round plays its two matches.
# match-r3: preset r3 (50 v 50 on 60x50), the paper's scale.
R3_SEEDS = (0, 1)
R3_STEPS = 100
# A fault of the program that shows on a fixed match, as (match seed,
# dimension): on match seed 1 the team measures the r3 grid's height as 100,
# not 50 (see CHANGES.md). Its cartography check is a failed operation in
# every round. A wrong size anywhere else fails the run.
R3_KNOWN_CARTOGRAPHY_FAULTS = frozenset({(1, "vertical")})
# dense-cache: match seeds whose matches spend most of their time in the
# planner's unreachable-goal tail (scan of seeds 0-9 at 200 steps).
DENSE_SEEDS = (1, 5)
DENSE_STEPS = 200
# protocol-check: 4 agents, the chain of 3 sightings plus two chords.
PROTOCOL_PAIRS = (("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a1", "a3"), ("a2", "a4"))
# Injected faults the standard checks must reject, each with the model it is
# injected into. both_claim_victory gives the 5-sighting model 292 499 states
# (51 s to explore), so it is injected into that model less its last chord
# (28 155 states, 3 s).
PROTOCOL_FAULTS = (
    (PROTOCOL_PAIRS, {"drop_notify": frozenset({"a2"})}),
    (PROTOCOL_PAIRS[:4], {"both_claim_victory": True}),
)
# Optimality is checked on a seeded sample of plans, each search bounded.
OPTIMALITY_SAMPLE = 12
SEARCH_BUDGET = 50_000
# Each pass's log is replayed this many times right after the pass. One
# replay takes about 20 ms, a time that follows the shared machine's speed
# from moment to moment, so the rate is taken over every replay of the run.
REPLAYS = 25
# Set-up is timed this many times per match (or per protocol pass) by runs
# stopped at their first decision; setup_s is the median over the run.
SETUP_PROBES = 10

TRACE_COVERAGE_TOLERANCE = 0.05


def load_program():
    src = ROOT / "src"
    if not (src / "torusarena" / "__init__.py").is_file():
        sys.exit(f"bench: program source not found under {src}")
    sys.path.insert(0, str(src))
    from torusarena import harness, mapping, merge_protocol, mergecheck, plan_cache, planner, team, world

    return {
        "harness": harness,
        "mapping": mapping,
        "merge_protocol": merge_protocol,
        "mergecheck": mergecheck,
        "plan_cache": plan_cache,
        "planner": planner,
        "team": team,
        "world": world,
    }


def digest(lines) -> str:
    """sha256 over the lines, computed here to check the log's own footer."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def action_lines(log) -> list[str]:
    return [line for line in log if '"type":"action"' in line]


# ------------------------------------------------------------------ tracing


class LayerTrace:
    """Wraps every layer's public functions and checks invariants on the way."""

    OPPONENTS = ("IdleOpponent", "RandomWalkOpponent", "GreedyCourier")

    def __init__(self, m, problems):
        self.m = m
        self.tracer = Tracer()
        self.problems = problems
        self.counts: dict[str, int] = {}
        self.world = None
        self.team = None
        self.solved: dict = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def install(self, t: Tracer) -> None:
        m = self.m
        W, TC = m["world"].World, m["team"].TeamController
        MS, CS = m["mapping"].MapStore, m["plan_cache"].CacheStore
        MP, mc = m["merge_protocol"].MergeProtocol, m["mergecheck"]
        t.wrap(W, "__init__", "world.init", after=self._world_created)
        t.wrap(W, "percepts", "world.percepts", after=lambda r, a: self.count("world.percepts", len(r)))
        t.wrap(W, "step", "world.step_self", after=self._world_stepped)
        t.wrap(m["team"], "identification_round", "identity.round", after=self._identified)
        t.wrap(m["team"], "record_statics", "mapping.record")
        t.wrap(MS, "merged_view", "mapping.merged_view")
        t.wrap(MS, "process_merges", "mapping.merge", after=lambda r, a: self.count("mapping.merges", len(r)))
        t.wrap(m["team"], "solve", "planner.solve", after=self._solved, keep_durations=True)
        t.wrap(m["planner"].Navigator, "next_action", "planner.navigate")
        t.wrap(CS, "__init__", "plan_cache.index")
        t.wrap(m["team"], "solve_cached", "plan_cache.key")
        t.wrap(CS, "lookup", "plan_cache.lookup", after=lambda r, a: self.count("plan_cache.hits", r is not None))
        t.wrap(CS, "store", "plan_cache.store")
        t.wrap(TC, "__init__", "team.init", after=self._team_created)
        t.wrap(TC, "act", "team.act_self")
        for name in self.OPPONENTS:
            t.wrap(getattr(m["harness"], name), "act", "harness.opponent")
        t.wrap(m["harness"], "run_match", "harness.self")
        t.wrap(m["harness"], "replay", "harness.replay")
        t.wrap(MP, "enabled", "merge_protocol.enabled")
        t.wrap(MP, "apply", "merge_protocol.apply")
        t.wrap(mc, "chain_model", "mergecheck.setup")
        t.wrap(mc, "builtin_scenarios", "mergecheck.setup")
        t.wrap(mc, "explore", "mergecheck.explore", after=self._explored)
        for name in ("run_standard_checks", "check_deadlock_free", "check_reaches_done",
                     "check_confluence", "check_has_trace"):
            t.wrap(mc, name, "mergecheck.checks")

    def _world_created(self, result, args):
        self.world = args[0]

    def _team_created(self, result, args):
        self.team = args[0]

    def _world_stepped(self, result, args):
        _, events = result
        actions = [e for e in events if e["type"] == "action"]
        self.count("world.actions", len(actions))
        self.count("world.actions_failed", sum(e["result"].startswith("failed") for e in actions))
        self.tracer.excluded(self._check_step)

    def _check_step(self):
        try:
            self.world.check_invariants()
            self.team.store.check_one_leader()
        except AssertionError as e:
            self.problems.append(f"step {self.world.step_num}: invariant broken: {e}")

    def _identified(self, result, args):
        events, stats = result
        self.count("identity.broadcasts", stats.broadcasts)
        self.count("identity.replies", stats.replies)
        self.count("identity.identifications", stats.identifications)
        self.count("identity.ambiguous", stats.ambiguous)
        self.tracer.excluded(self._check_identifications, events)

    def _check_identifications(self, events):
        agents, dims = self.world.agents, self.world.dims
        for e in events:
            try:
                check_identification(agents[e.observer].pos, agents[e.observed].pos, e.offset, dims)
            except CheckFailed as err:
                self.problems.append(f"step {e.step}: {e.observer} -> {e.observed}: {err}")

    def _solved(self, result, args):
        self.count("planner.unreachable", not result)
        self.solved[args[0]] = result

    def _explored(self, result, args):
        self.count("mergecheck.states", len(result.states))
        self.count("mergecheck.edges", sum(len(out) for out in result.edges))


PER_LAYER_TIMES = (
    "world.init", "world.percepts", "world.step_self", "identity.round", "mapping.record",
    "mapping.merged_view", "mapping.merge", "planner.solve", "planner.navigate",
    "plan_cache.index", "plan_cache.key", "plan_cache.lookup", "plan_cache.store",
    "team.init", "team.act_self", "harness.opponent", "harness.self", "harness.replay",
    "merge_protocol.enabled", "merge_protocol.apply", "mergecheck.setup",
    "mergecheck.explore", "mergecheck.checks",
)
PER_LAYER_COUNTS = (
    "world.percepts", "world.actions", "world.actions_failed", "identity.broadcasts",
    "identity.replies", "identity.identifications", "identity.ambiguous", "mapping.merges",
    "planner.unreachable", "plan_cache.hits", "mergecheck.states", "mergecheck.edges",
)
PER_LAYER_CALLS = {
    "mapping.merged_view_calls": "mapping.merged_view",
    "planner.solves": "planner.solve",
    "plan_cache.lookups": "plan_cache.lookup",
    "plan_cache.stores": "plan_cache.store",
    "merge_protocol.enabled_calls": "merge_protocol.enabled",
    "merge_protocol.applies": "merge_protocol.apply",
}


# ---------------------------------------------------------------- workloads


class FirstDecision(Exception):
    """Raised by a set-up probe to stop a match at its first decision."""


class Workload:
    """Shared accounting. A round is a fixed list of operations. A round that
    raises counts its unfinished operations as failed and ends the run with
    correct false."""

    def __init__(self, m, seed: int, traced: bool):
        self.m = m
        self.seed = seed
        self.traced = traced
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.done_ops = 0
        self.problems: list[str] = []
        self.layers = LayerTrace(m, self.problems) if traced else None
        # Untraced bookkeeping.
        self.setups: list[float] = []
        self.cold_cpu = self.cold_steps = 0.0
        self.warm_cpu = self.warm_steps = 0.0
        self.decisions: list[float] = []
        self.replay_lines = self.replay_s = 0.0  # lines (events) replayed, and the time it took
        self.peak_rss_mb = 0.0  # at the end of the last round, before once-per-run checks
        self.cartography = [0, 0]  # dimensions finished, of those measured wrong
        # Traced bookkeeping.
        self.base_cpu = 0.0  # untraced first pass, the overhead baseline
        self.traced_cold_cpu = 0.0
        self.traced_cpu = 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def run_round(self) -> None:
        self.attempted += self.ops_per_round
        self.done_ops = 0
        try:
            self.round()
        except CheckFailed:
            raise
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            self.failed += self.ops_per_round - self.done_ops
            raise CheckFailed(f"round {self.rounds + 1} raised {e!r}") from e
        self.rounds += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced_call(self, owner, attr: str, *args):
        """Call owner.attr with every layer wrapped, itself included;
        returns (result, spent time less the checks made in hooks)."""
        tracer = self.layers.tracer
        excluded = tracer.excluded_s
        with tracer.installed(self.layers.install):
            fn = getattr(owner, attr)
            start = clock()
            result = fn(*args)
            spent = clock() - start
        spent -= tracer.excluded_s - excluded
        self.traced_cpu += spent
        return result, spent

    def end_to_end(self) -> dict:
        cold = self.cold_cpu / self.cold_steps * 1000
        warm = self.warm_cpu / self.warm_steps * 1000
        p50, p95 = percentile(self.decisions, 50), percentile(self.decisions, 95)
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "step_ms": (cold, "ms/step"),
            "warm_step_ms": (warm, "ms/step"),
            "decide_ms_p50": (p50 * 1000, "ms"),
            "decide_ms_p95": (p95 * 1000, "ms"),
            "replay_lines_per_s": (self.replay_lines / self.replay_s, "lines/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        t, counts, n = self.layers.tracer, self.layers.counts, self.rounds
        out = {}
        for name in PER_LAYER_TIMES:
            out[f"{name}_ms"] = (t.self_s.get(name, 0.0) * 1000 / n, "ms")
        for name in PER_LAYER_COUNTS:
            out[name] = (counts.get(name, 0) / n, "count")
        for metric, span in PER_LAYER_CALLS.items():
            out[metric] = (t.calls.get(span, 0) / n, "count")
        replies = counts.get("identity.replies", 0)
        out["identity.yield"] = (counts.get("identity.identifications", 0) / replies if replies else 0.0, "ratio")
        lookups = t.calls.get("plan_cache.lookup", 0)
        out["plan_cache.hit_ratio"] = (counts.get("plan_cache.hits", 0) / lookups if lookups else 0.0, "ratio")
        solves = t.durations.get("planner.solve", [])
        out["planner.solve_ms_p50"] = (percentile(solves, 50) * 1000 if solves else 0.0, "ms")
        out["planner.solve_ms_max"] = (max(solves) * 1000 if solves else 0.0, "ms")
        out["mapping.cartography_finished"] = (self.cartography[0] / n, "count")
        out["mapping.cartography_wrong"] = (self.cartography[1] / n, "count")
        out["trace.coverage"] = (sum(t.self_s.values()) / self.traced_cpu, "ratio")
        out["trace.overhead"] = (self.traced_cold_cpu / self.base_cpu, "ratio")
        out["trace.spans"] = (len(t.ids) / n, "count")
        return out

    def finish(self) -> None:
        """Checks made once per run."""
        if self.traced:
            coverage = sum(self.layers.tracer.self_s.values()) / self.traced_cpu
            self.check(
                abs(coverage - 1) <= TRACE_COVERAGE_TOLERANCE,
                f"layer self times cover {coverage:.3f} of the traced time",
            )

    def check_plans(self, items) -> None:
        """Legality of every (problem, plan); optimality on a seeded sample."""
        for problem, plan in items:
            if plan:
                try:
                    check_plan(problem, plan)
                except CheckFailed as e:
                    raise CheckFailed(f"illegal plan {plan}: {e}")
        sample = self.rng.sample(items, min(OPTIMALITY_SAMPLE, len(items)))
        verdicts = [check_optimal(p, plan, SEARCH_BUDGET) for p, plan in sample]
        print(
            f"bench: {len(items)} plans legal; optimality sample "
            + ", ".join(f"{v} {verdicts.count(v)}" for v in sorted(set(verdicts))),
            file=sys.stderr,
        )


class MatchWorkload(Workload):
    """Per match of a round: a cold pass, a warm pass and the cartography
    check of the cold pass's log, three operations."""

    known_cartography_faults = frozenset()

    def __init__(self, m, seed, traced):
        super().__init__(m, seed, traced)
        self.act_timer = CallTimer(m["team"].TeamController, "act")

    def match_pass(self, cfg, cold: bool) -> dict:
        """One run_match, then replays of its log; untraced (timed) or traced."""
        harness = self.m["harness"]
        if self.traced:
            (report, log), spent = self.traced_call(harness, "run_match", cfg)
            if cold:
                self.traced_cold_cpu += spent
            solver_calls = self.layers.team.solver_calls
            self.layers.world = self.layers.team = None
            rebuilt, _ = self.traced_call(harness, "replay", log)
        else:
            self.act_timer.reset()
            with self.act_timer.installed():
                start = clock()
                report, log = harness.run_match(cfg)
                spent = clock() - start
            self.decisions.extend(self.act_timer.durations)
            solver_calls = self.act_timer.last_self.solver_calls
            self.act_timer.last_self = None  # let the finished match be freed
            if cold:
                self.cold_cpu += spent
                self.cold_steps += cfg.steps
            else:
                self.warm_cpu += spent
                self.warm_steps += cfg.steps
            for _ in range(REPLAYS):
                start = clock()
                rebuilt = harness.replay(log)
                self.replay_s += clock() - start
            self.replay_lines += REPLAYS * len(log)
        footer = json.loads(log[-1])
        self.check(footer.get("sha256") == digest(log[:-1]), f"seed {cfg.seed}: footer digest mismatch")
        self.check(rebuilt.to_dict() == report.to_dict(), f"seed {cfg.seed}: replay rebuilt another report")
        self.done_ops += 1
        if cold:
            print(f"bench: match seed {cfg.seed}: log digest {footer['sha256']}", file=sys.stderr)
            self.check_cartography(cfg, log)
        return {"report": report, "log": log, "solver_calls": solver_calls}

    def setup_probes(self, cfg) -> None:
        """Time run_match from its call to the first act (world generation,
        team set-up, cache index, first percepts), stopping it there."""
        team_controller = self.m["team"].TeamController
        act = vars(team_controller)["act"]
        reached: list[float] = []

        def stop(*args, **kwargs):
            reached.append(clock())
            raise FirstDecision

        team_controller.act = stop
        try:
            for _ in range(SETUP_PROBES):
                start = clock()
                try:
                    self.m["harness"].run_match(cfg)
                except FirstDecision:
                    self.setups.append(reached[-1] - start)
                else:
                    raise CheckFailed(f"seed {cfg.seed}: a match ended without a decision")
        finally:
            team_controller.act = act

    def baseline(self, cfg) -> list[str]:
        """Untraced pass of a traced round: overhead base and digest reference."""
        start = clock()
        _, log = self.m["harness"].run_match(cfg)
        self.base_cpu += clock() - start
        return log

    def check_cartography(self, cfg, log) -> None:
        """Every finished dimension must measure the grid. A wrong size that
        is one of the workload's known faults fails this operation; any
        other wrong size fails the run."""
        sizes = {"horizontal": cfg.dims[0], "vertical": cfg.dims[1]}
        wrong = []
        for line in log:
            if '"cartography_finished"' in line:
                rec = json.loads(line)
                self.cartography[0] += 1
                if rec["size"] != sizes[rec["dimension"]]:
                    wrong.append((rec["dimension"], rec["size"]))
        self.cartography[1] += len(wrong)
        for dimension, size in wrong:
            message = f"seed {cfg.seed}: {dimension} measured {size}, grid is {sizes[dimension]}"
            self.check((cfg.seed, dimension) in self.known_cartography_faults, message)
            print(f"bench: known fault, operation failed: {message}", file=sys.stderr)
        self.failed += bool(wrong)
        self.done_ops += 1

    def check_traced_plans(self) -> None:
        solved = self.layers.solved
        self.check_plans([(PlanProblem.from_problem(p), plan) for p, plan in solved.items()])
        solved.clear()


class MatchR3(MatchWorkload):
    """Preset r3 with greedy-courier and no plan cache, every match seed in
    every round: cold and warm pass are the same match twice, and each
    pass's log is replayed."""

    name = "match-r3"
    ops_per_round = 3 * len(R3_SEEDS)
    known_cartography_faults = R3_KNOWN_CARTOGRAPHY_FAULTS

    def config(self, seed):
        harness = self.m["harness"]
        preset = harness.PRESETS["r3"]
        return harness.MatchConfig(
            dims=preset["dims"],
            team_size=preset["team_size"],
            steps=R3_STEPS,
            seed=seed,
            opponent="greedy-courier",
        )

    def round(self) -> None:
        first = self.seed % len(R3_SEEDS)
        for seed in R3_SEEDS[first:] + R3_SEEDS[:first]:
            cfg = self.config(seed)
            base = self.baseline(cfg) if self.traced else None
            cold = self.match_pass(cfg, True)
            warm = self.match_pass(cfg, False)
            self.check(digest(cold["log"]) == digest(warm["log"]), f"seed {seed}: two runs, two digests")
            if base is not None:
                self.check(digest(base) == digest(cold["log"]), f"seed {seed}: tracing changed the log")
            else:
                self.setup_probes(cfg)
        if self.traced:
            self.check_traced_plans()


class DenseCache(MatchWorkload):
    """15 v 15 on 40x40 with dense obstacles and clear events: a cold pass on
    a fresh plan-cache directory, then a warm pass on the filled one."""

    name = "dense-cache"
    ops_per_round = 3 * len(DENSE_SEEDS)

    def config(self, seed, cache_dir):
        return self.m["harness"].MatchConfig(
            dims=(40, 40),
            team_size=15,
            steps=DENSE_STEPS,
            seed=seed,
            opponent="idle",
            obstacle_density=0.2,
            clear_event_rate=0.1,
            cache_dir=str(cache_dir),
        )

    def round(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        if self.traced:
            base_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT))
            try:
                base = [self.baseline(self.config(s, base_dir)) for s in DENSE_SEEDS]
            finally:
                shutil.rmtree(base_dir)
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT))
        try:
            cold = [self.match_pass(self.config(s, cache_dir), True) for s in DENSE_SEEDS]
            files = snapshot(cache_dir)
            self.check_plans([(PlanProblem.from_key(k), tuple(v.decode().split())) for k, v in files.items()])
            warm = [self.match_pass(self.config(s, cache_dir), False) for s in DENSE_SEEDS]
            for s, c, w in zip(DENSE_SEEDS, cold, warm):
                self.check(w["solver_calls"] == 0, f"seed {s}: warm pass called the solver {w['solver_calls']} times")
                self.check(w["report"].cache_misses == 0, f"seed {s}: warm pass logged cache misses")
                self.check(action_lines(c["log"]) == action_lines(w["log"]), f"seed {s}: warm actions differ from cold")
            if not self.traced:
                # On the filled directory: the index read is part of set-up.
                for s in DENSE_SEEDS:
                    self.setup_probes(self.config(s, cache_dir))
            self.check(snapshot(cache_dir) == files, "warm pass or set-up probes changed the plan-cache files")
            if self.traced:
                for s, b, c in zip(DENSE_SEEDS, base, cold):
                    self.check(digest(b) == digest(c["log"]), f"seed {s}: tracing changed the log")
            if self.traced:
                self.check_traced_plans()
        finally:
            shutil.rmtree(cache_dir)


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class ProtocolCheck(Workload):
    """check-protocol on the 4-agent, 5-sighting model: the standard checks,
    the built-in scenario traces, and a replay of every done state's witness
    trace. Cold and warm pass are the same pass twice."""

    name = "protocol-check"
    ops_per_round = 2 * 8  # per pass: standard checks, 6 scenarios, witness replays

    def __init__(self, m, seed, traced):
        super().__init__(m, seed, traced)
        mp = m["merge_protocol"].MergeProtocol
        self.enabled_timer = CallTimer(mp, "enabled")
        self.graphs: list = []
        self.first_verdicts = None

    @contextmanager
    def keeping_graphs(self):
        """Pass explore through a function that keeps its graphs, so a pass
        can check the done states of the graph run_standard_checks built."""
        mc = self.m["mergecheck"]
        explore = vars(mc)["explore"]

        def keep(*args, **kwargs):
            graph = explore(*args, **kwargs)
            self.graphs.append(graph)
            return graph

        mc.explore = keep
        try:
            yield
        finally:
            mc.explore = explore

    def setup_probes(self) -> None:
        """Time building the models (chain_model, builtin_scenarios)."""
        mc = self.m["mergecheck"]
        for _ in range(SETUP_PROBES):
            start = clock()
            mc.chain_model(4, pairs=PROTOCOL_PAIRS)
            mc.builtin_scenarios()
            self.setups.append(clock() - start)

    def protocol_pass(self) -> tuple[float, int, list]:
        """Returns (spent s, states explored, verdict details)."""
        mc = self.m["mergecheck"]
        self.graphs.clear()
        start = clock()
        model = mc.chain_model(4, pairs=PROTOCOL_PAIRS)
        scenarios = mc.builtin_scenarios()
        verdicts = mc.run_standard_checks(model)
        graph = self.graphs[0]
        replayed, replay_s = 0, 0.0
        for sc in scenarios:
            g = mc.explore(sc.model)
            t0 = clock()
            v = mc.check_has_trace(sc.model, g, sc.trace)
            replay_s += clock() - t0
            replayed += len(sc.trace)
            verdicts.append(v)
        t0 = clock()
        witness = [mc.check_has_trace(model, graph, graph.traces[i]) for i in graph.done_ids()]
        replay_s += clock() - t0
        replayed += sum(len(graph.traces[i]) for i in graph.done_ids())
        spent = clock() - start
        states = sum(len(g.states) for g in self.graphs)
        for v in verdicts + witness:
            self.check(v.passed, f"{v.name} failed: {v.detail}")
        self.check(len(graph.done_ids()) > 0, "no done state to check")
        for i in graph.done_ids():
            state = graph.states[i]
            check_done_offsets(dict(state.leaders), dict(state.offsets), model.positions)
        if not self.traced:
            self.replay_lines += replayed
            self.replay_s += replay_s
        return spent, states, [(v.name, v.detail) for v in verdicts]

    def one_pass(self, cold: bool):
        if self.traced:
            tracer = self.layers.tracer
            excluded = tracer.excluded_s
            with tracer.installed(self.layers.install), self.keeping_graphs():
                spent, _, verdicts = self.protocol_pass()
            spent -= tracer.excluded_s - excluded
            self.traced_cpu += spent
            if cold:
                self.traced_cold_cpu += spent
            self.done_ops += self.ops_per_round // 2
            return verdicts
        self.enabled_timer.reset()
        with self.keeping_graphs(), self.enabled_timer.installed():
            spent, states, verdicts = self.protocol_pass()
        self.setup_probes()
        self.decisions.extend(self.enabled_timer.durations)
        if cold:
            self.cold_cpu += spent
            self.cold_steps += states
        else:
            self.warm_cpu += spent
            self.warm_steps += states
        self.done_ops += self.ops_per_round // 2
        return verdicts

    def round(self) -> None:
        if self.traced:
            with self.keeping_graphs():
                start = clock()
                self.protocol_pass()
                self.base_cpu += clock() - start
        cold = self.one_pass(True)
        warm = self.one_pass(False)
        self.check(cold == warm, "two passes over one model gave different verdicts")
        if self.first_verdicts is None:
            self.first_verdicts = cold
        self.check(cold == self.first_verdicts, "verdicts changed between rounds")

    def finish(self) -> None:
        super().finish()
        mc = self.m["mergecheck"]
        for pairs, fault in PROTOCOL_FAULTS:
            try:
                graph = mc.explore(mc.chain_model(4, pairs=pairs, **fault))
            except mc.ExplorationBound as e:
                raise CheckFailed(f"model with fault {fault} not explored: {e}")
            verdicts = [
                mc.check_deadlock_free(graph),
                mc.check_reaches_done(graph),
                mc.check_reaches_done(graph, strong=True),
                mc.check_confluence(graph),
            ]
            self.check(not all(verdicts), f"the checks pass a model with fault {fault}")


WORKLOADS = {w.name: w for w in (MatchR3, DenseCache, ProtocolCheck)}


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    m = load_program()
    workload = WORKLOADS[args.workload](m, args.seed, bool(args.trace))
    start = time.monotonic()
    try:
        while workload.rounds == 0 or time.monotonic() - start < args.seconds:
            workload.run_round()
        workload.finish()
        correct = not workload.problems
        if not correct:
            print("bench: " + "\n  ".join(workload.problems[:20]), file=sys.stderr)
    except CheckFailed as e:
        print(f"bench: check failed: {e}", file=sys.stderr)
        correct = False
    if args.trace:
        workload.layers.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    try:
        metrics = workload.per_layer() if args.trace else workload.end_to_end()
    except (ZeroDivisionError, ValueError, statistics.StatisticsError):
        if correct:
            raise
        metrics = {}  # a run stopped by a failed check may lack samples
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
