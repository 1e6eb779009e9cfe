"""Command-line harness: run seeded matches, replay logs, check the merge
protocol, inspect the plan cache, and export agent maps.

Exit codes: 0 success, 1 configuration error, 2 protocol-check failure,
3 replay mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    OPPONENTS,
    PRESETS,
    MatchConfig,
    MatchConfigError,
    ReplayError,
    cache_stats,
    log_digest,
    play,
    replay,
    run_match,
)
from .mapping import dump_map
from .mergecheck import builtin_scenarios, chain_model, check_has_trace, explore, run_standard_checks
from .world import WorldConfigError


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return (int(w), int(h))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must look like 40x40, got {text!r}")


def _add_match_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--dims", type=_parse_dims, default=None, metavar="WxH")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--team-size", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--cache-readonly", action="store_true")
    p.add_argument("--opponent", choices=list(OPPONENTS), default="idle")
    p.add_argument("--log", default=None, metavar="PATH")


def _config_from(args) -> MatchConfig:
    cfg = MatchConfig(seed=args.seed, steps=args.steps, opponent=args.opponent)
    if args.preset:
        preset = PRESETS[args.preset]
        cfg.team_size = preset["team_size"]
        cfg.dims = preset["dims"]
    if args.dims is not None:
        cfg.dims = args.dims
    if args.team_size is not None:
        cfg.team_size = args.team_size
    cfg.cache_dir = args.cache_dir
    cfg.cache_readonly = args.cache_readonly
    return cfg


def _write_log(args, log: list[str]) -> None:
    if args.log:
        Path(args.log).write_text("\n".join(log) + "\n")


def cmd_run(args) -> int:
    report, log = run_match(_config_from(args))
    _write_log(args, log)
    out = report.to_dict()
    out["log_digest"] = log_digest(log)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_replay(args) -> int:
    lines = Path(args.log).read_text().splitlines()
    report = replay(lines)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_check_protocol(args) -> int:
    failures = 0
    model = chain_model(args.agents, args.sightings)
    for verdict in run_standard_checks(model):
        _print_verdict(verdict.name, verdict)
        failures += 0 if verdict else 1
    for sc in builtin_scenarios():
        graph = explore(sc.model)
        verdict = check_has_trace(sc.model, graph, sc.trace)
        _print_verdict(f"has-trace [{sc.name}]", verdict)
        failures += 0 if verdict else 1
    if args.trace:
        trace = tuple(
            line.strip()
            for line in Path(args.trace).read_text().splitlines()
            if line.strip() and not line.startswith("#")
        )
        graph = explore(model)
        verdict = check_has_trace(model, graph, trace)
        _print_verdict(f"has-trace [{args.trace}]", verdict)
        failures += 0 if verdict else 1
    return 2 if failures else 0


def _print_verdict(name: str, verdict) -> None:
    status = "PASS" if verdict else "FAIL"
    print(f"{status} {name}: {verdict.detail}")
    if not verdict and verdict.counterexample is not None:
        print("  counterexample:")
        for event in verdict.counterexample:
            print(f"    {event}")


def cmd_cache_stats(args) -> int:
    print(json.dumps(cache_stats(args.cache_dir), indent=2, sort_keys=True))
    return 0


def cmd_export_map(args) -> int:
    match = play(_config_from(args))
    _write_log(args, match.log)
    maps = match.team.store.maps
    agent = args.agent or match.team.names[0]
    if agent not in maps:
        print(f"unknown agent {agent!r}", file=sys.stderr)
        return 1
    print(dump_map(maps[agent]), end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusarena",
        description="Deterministic torus-grid contest simulator and strategy harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded match and print the report")
    _add_match_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_replay = sub.add_parser("replay", help="rebuild a report from an event log")
    p_replay.add_argument("--log", required=True)
    p_replay.set_defaults(fn=cmd_replay)

    p_check = sub.add_parser("check-protocol", help="verify the merge protocol model")
    p_check.add_argument("--agents", type=int, default=3)
    p_check.add_argument("--sightings", type=int, default=2)
    p_check.add_argument("--trace", default=None, metavar="FILE")
    p_check.set_defaults(fn=cmd_check_protocol)

    p_stats = sub.add_parser("cache-stats", help="summarize a plan-cache directory")
    p_stats.add_argument("--cache-dir", required=True)
    p_stats.set_defaults(fn=cmd_cache_stats)

    p_map = sub.add_parser("export-map", help="run a match and dump one agent's map")
    _add_match_args(p_map)
    p_map.add_argument("--agent", default=None)
    p_map.set_defaults(fn=cmd_export_map)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MatchConfigError, WorldConfigError, FileNotFoundError, ValueError) as e:
        if isinstance(e, ReplayError):
            print(f"replay error: {e}", file=sys.stderr)
            return 3
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
