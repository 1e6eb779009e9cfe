#!/usr/bin/env python3
"""Check that a change keeps the reference matches' digests.

    python3 tools/reference.py digests --base REV
    python3 tools/reference.py play --cache-dir DIR
    python3 tools/reference.py unrun [--tests]

`digests` exports REV (`git archive`) and plays the reference set on it and
on the working tree's `src`, once under each PYTHONHASHSEED in HASH_SEEDS,
each play in its own process. It prints one row per match and one per
protocol model: the first 16 hex characters of the base and working-tree
log or graph digests (the full digest is compared), then whether the
dense-cache plan-cache directories hold the same files with the same bytes.
It exits 1 when any digest or cache file differs, between the trees or
between hash seeds.

`play` plays the set on the `torusarena` that PYTHONPATH finds, with the
dense-cache matches sharing the fresh directory DIR, explores the protocol
models, and prints one JSON object mapping each match's name to its full log
digest and each model's name to its graph digest.

`unrun` plays the set on the working tree's `src` under a `sys.settrace`
line tracer (with `--tests`, runs the tier-1 suite under it as well) and
prints, per function, the `src/` lines that hold bytecode but never ran. A
function's lines stop being traced once all of them have run, so the cost
falls on the functions that keep an unrun line.

The reference set:
- match-r3: preset r3, greedy-courier, 100 steps, seeds 0 and 1;
- dense-cache: 15 v 15 on 40x40, obstacle density 0.2, clear rate 0.1,
  idle, 200 steps, seeds 1 then 5 on one fresh cache directory;
- greedy-courier at 400 steps: r1 seeds 0-3, r2 seeds 0 and 7, r3 seeds 0
  and 1;
- random-walk: 40x40, obstacle density 0.1, clear rate 0.05, 300 steps,
  seeds 0-2;
- scripted assembly: the acceptance suite's criterion-7 layout (a
  `FixedLayout`: one goal cluster, one taskboard, a b1 and a b2 dispenser,
  pinned spawns, one scripted 2-block task), idle, 300 steps, seed 6.

The protocol models: the protocol-check workload's 5-sighting model and its
two fault models, built from `bench/run.py`'s PROTOCOL_PAIRS and
PROTOCOL_FAULTS, and the six built-in scenarios' models. A graph digest is a
sha256 over every explored state's fields, its sorted edges and its trace.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, export_revision  # noqa: E402

HASH_SEEDS = ("0", "12345")
STATE_FIELDS = ("leaders", "offsets", "local", "sighted", "queue", "lock", "instances", "done")
INSTANCE_FIELDS = ("phase", "report_a", "report_b", "addr_a", "addr_b", "winner", "notifies")


def reference_set(harness, cache_dir: str) -> list[tuple[str, object]]:
    """(name, MatchConfig) pairs, in the order they are played."""
    cfg = harness.MatchConfig
    presets = harness.PRESETS
    out = []

    def preset(name, seed, steps):
        p = presets[name]
        return cfg(dims=p["dims"], team_size=p["team_size"], steps=steps, seed=seed,
                   opponent="greedy-courier")

    for seed in (0, 1):
        out.append((f"match-r3 seed {seed}", preset("r3", seed, 100)))
    for seed in (1, 5):
        out.append((f"dense-cache seed {seed}", cfg(
            dims=(40, 40), team_size=15, steps=200, seed=seed, opponent="idle",
            obstacle_density=0.2, clear_event_rate=0.1, cache_dir=cache_dir)))
    for name, seeds in (("r1", (0, 1, 2, 3)), ("r2", (0, 7)), ("r3", (0, 1))):
        for seed in seeds:
            out.append((f"greedy-courier {name} 400 seed {seed}", preset(name, seed, 400)))
    for seed in (0, 1, 2):
        out.append((f"random-walk 40x40 seed {seed}", cfg(
            dims=(40, 40), steps=300, seed=seed, opponent="random-walk",
            obstacle_density=0.1, clear_event_rate=0.05)))
    spawns = {f"alpha{i + 1:02d}": (16 + i % 5, 16 + i // 5) for i in range(15)}
    spawns.update({f"beta{i + 1:02d}": (1 + i % 5, 33 + i // 5) for i in range(15)})
    layout = harness.FixedLayout(
        obstacles=[],
        goals=[(20, 24), (21, 24), (20, 25), (21, 25), (20, 26)],
        dispensers=[((14, 20), "b1"), ((26, 20), "b2")],
        taskboards=[(22, 22)],
        spawns=spawns,
        tasks=[(0, "job1", 20, 280, [((0, 1), "b1"), ((0, 2), "b2")])],
    )
    out.append(("scripted assembly seed 6", cfg(
        dims=(40, 40), team_size=15, steps=300, seed=6, opponent="idle",
        task_interval=0, fixed=layout)))
    return out


def protocol_models(mergecheck) -> list[tuple[str, object]]:
    """(name, MergeProtocol) pairs: the protocol-check workload's model and
    its two fault models, as bench/run.py builds them, then the six
    built-in scenarios' models."""
    sys.path.insert(0, str(ROOT / "bench"))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = [("protocol-check model", mergecheck.chain_model(4, pairs=bench.PROTOCOL_PAIRS))]
    for pairs, fault in bench.PROTOCOL_FAULTS:
        name = " ".join(
            f"{k} {' '.join(sorted(v)) if isinstance(v, frozenset) else v}" for k, v in fault.items()
        )
        out.append((f"protocol-check {name}", mergecheck.chain_model(4, pairs=pairs, **fault)))
    out.extend((f"scenario {sc.name}", sc.model) for sc in mergecheck.builtin_scenarios())
    return out


def state_fields(state) -> tuple:
    """A protocol state's fields in order, as plain tuples: the group table
    and the local views as (agent, value) pairs, each instance as a tuple of
    its fields in schedule order."""
    out = []
    for name in STATE_FIELDS:
        value = getattr(state, name)
        if name == "instances":
            value = tuple(tuple(getattr(inst, f) for f in INSTANCE_FIELDS) for inst in value)
        out.append(value)
    return tuple(out)


def graph_digest(graph) -> str:
    """sha256 over an explored graph: per state, its fields, its sorted
    (label, successor) edges and its trace."""
    h = hashlib.sha256()
    for state, edges, trace in zip(graph.states, graph.edges, graph.traces):
        h.update(repr((state_fields(state), tuple(edges), trace)).encode() + b"\n")
    return h.hexdigest()


def cmd_play(args) -> int:
    from torusarena import harness, mergecheck

    digests = {}
    for name, config in reference_set(harness, args.cache_dir):
        _report, log = harness.run_match(config)
        digests[name] = harness.log_digest(log)
    for name, model in protocol_models(mergecheck):
        digests[name] = graph_digest(mergecheck.explore(model))
    print(json.dumps(digests))
    return 0


def play_tree(src: Path, hash_seed: str, cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(Path(__file__).resolve()), "play", "--cache-dir", str(cache_dir)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"play on {src} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def cmd_digests(args) -> int:
    with tempfile.TemporaryDirectory(prefix="reference_") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        export_revision(args.base, base_tree)
        sides = {"base": base_tree / "src", "change": ROOT / "src"}
        digests, caches = {}, {}
        for hash_seed in HASH_SEEDS:
            for side, src in sides.items():
                cache_dir = Path(tmp) / f"cache-{side}-{hash_seed}"
                cache_dir.mkdir()
                print(f"reference: playing {side} under PYTHONHASHSEED={hash_seed}", file=sys.stderr)
                digests[side, hash_seed] = play_tree(src, hash_seed, cache_dir)
                caches[side, hash_seed] = snapshot(cache_dir)
    first = ("base", HASH_SEEDS[0])
    same = True
    print(f"{'match or protocol model':<40} {'base':<16}  change")
    for name, base in digests[first].items():
        change = digests["change", HASH_SEEDS[0]][name]
        agree = all(d[name] == base for d in digests.values())
        same &= agree
        note = "" if agree else "  DIFFERS" + ("" if change != base else " across PYTHONHASHSEED")
        print(f"{name:<40} {base[:16]}  {change[:16]}{note}")
    files = caches[first]
    print(f"dense-cache cache dir: {len(files)} files")
    for (side, hash_seed), snap in caches.items():
        changed = sorted(n for n in files.keys() | snap.keys() if files.get(n) != snap.get(n))
        if changed:
            same = False
            print(f"  {side} under PYTHONHASHSEED={hash_seed}: {len(changed)} files differ, e.g. {changed[:3]}")
    hash_seeds = " and ".join(HASH_SEEDS)
    print(f"digests and cache files {'unchanged' if same else 'CHANGED'} under PYTHONHASHSEED {hash_seeds}")
    return 0 if same else 1


def own_lines(code: types.CodeType) -> set[int]:
    """Lines that hold bytecode of `code` itself. A function's or class
    body's first line is left out: the enclosing scope runs it."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of the file that holds bytecode, mapped to the outermost
    function or class body it belongs to (comprehensions, lambdas and
    nested functions count with their enclosing function)."""
    out: dict[int, str] = {}
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        owner = getattr(code, "co_qualname", code.co_name).split(".<locals>")[0]
        for line in own_lines(code):
            out.setdefault(line, owner)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return out


class LineTracer:
    """A `sys.settrace` function that records, per file under `prefix`, the
    lines that ran. Each code object is traced only while it has a line
    left that has not run."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.ran: dict[str, set[int]] = defaultdict(set)
        self._tracers: dict[types.CodeType, object] = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            return self._tracers[code]
        except KeyError:
            tracer = self._tracers[code] = self._tracer_for(code)
            return tracer

    def _tracer_for(self, code: types.CodeType):
        if not code.co_filename.startswith(self.prefix):
            return None
        ran = self.ran[code.co_filename]
        left = own_lines(code) - ran
        if not left:
            return None
        tracers = self._tracers

        def on_line(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                ran.add(line)
                left.discard(line)
                if not left:
                    tracers[code] = None
            return on_line

        return on_line


def cmd_unrun(args) -> int:
    src = ROOT / "src"
    tracer = LineTracer(str(src) + os.sep)
    sys.path.insert(0, str(src))
    sys.settrace(tracer)
    try:
        from torusarena import harness

        with tempfile.TemporaryDirectory(prefix="unrun_") as cache_dir:
            for name, config in reference_set(harness, cache_dir):
                print(f"unrun: playing {name}", file=sys.stderr)
                harness.run_match(config)
        if args.tests:
            import pytest

            print("unrun: running the tier-1 suite", file=sys.stderr)
            os.chdir(ROOT)
            with contextlib.redirect_stdout(sys.stderr):
                pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(src.rglob("*.py")):
        owners = executable_lines(path)
        unrun: dict[str, list[int]] = defaultdict(list)
        for line in sorted(owners.keys() - tracer.ran[str(path)]):
            unrun[owners[line]].append(line)
        for owner, lines in unrun.items():
            total += len(lines)
            print(f"{path.relative_to(src)} {owner}: {', '.join(map(str, lines))}")
    print(f"{total} lines never ran")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_digests = sub.add_parser("digests", help="compare the reference digests with REV")
    p_digests.add_argument("--base", required=True, help="git revision to compare the working tree with")
    p_digests.set_defaults(fn=cmd_digests)
    p_play = sub.add_parser("play", help="print the reference digests of the importable tree")
    p_play.add_argument("--cache-dir", required=True, help="fresh directory for the dense-cache plans")
    p_play.set_defaults(fn=cmd_play)
    p_unrun = sub.add_parser("unrun", help="list the src lines the reference set never runs")
    p_unrun.add_argument("--tests", action="store_true", help="also run the tier-1 suite")
    p_unrun.set_defaults(fn=cmd_unrun)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
