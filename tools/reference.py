#!/usr/bin/env python3
"""Check that a change keeps the reference matches' digests.

    python3 tools/reference.py digests --base REV
    python3 tools/reference.py play --cache-dir DIR

`digests` exports REV (`git archive`) and plays the reference set on it and
on the working tree's `src`, once under each PYTHONHASHSEED in HASH_SEEDS,
each play in its own process. It prints one row per match: the first 16 hex
characters of the base and working-tree log digests (the full digest is
compared), then whether the dense-cache plan-cache directories hold the same
files with the same bytes. It exits 1 when any digest or cache file differs,
between the trees or between hash seeds.

`play` plays the set on the `torusarena` that PYTHONPATH finds, with the
dense-cache matches sharing the fresh directory DIR, and prints one JSON
object mapping each match's name to its full log digest.

The reference set:
- match-r3: preset r3, greedy-courier, 100 steps, seeds 0 and 1;
- dense-cache: 15 v 15 on 40x40, obstacle density 0.2, clear rate 0.1,
  idle, 200 steps, seeds 1 then 5 on one fresh cache directory;
- greedy-courier at 400 steps: r1 seeds 0-3, r2 seeds 0 and 7, r3 seeds 0
  and 1;
- random-walk: 40x40, obstacle density 0.1, clear rate 0.05, 300 steps,
  seeds 0-2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, export_revision  # noqa: E402

HASH_SEEDS = ("0", "12345")


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
    return out


def cmd_play(args) -> int:
    from torusarena import harness

    digests = {}
    for name, config in reference_set(harness, args.cache_dir):
        _report, log = harness.run_match(config)
        digests[name] = harness.log_digest(log)
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
    print(f"{'match':<34} {'base':<16}  change")
    for name, base in digests[first].items():
        change = digests["change", HASH_SEEDS[0]][name]
        agree = all(d[name] == base for d in digests.values())
        same &= agree
        note = "" if agree else "  DIFFERS" + ("" if change != base else " across PYTHONHASHSEED")
        print(f"{name:<34} {base[:16]}  {change[:16]}{note}")
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_digests = sub.add_parser("digests", help="compare the reference digests with REV")
    p_digests.add_argument("--base", required=True, help="git revision to compare the working tree with")
    p_digests.set_defaults(fn=cmd_digests)
    p_play = sub.add_parser("play", help="print the reference digests of the importable tree")
    p_play.add_argument("--cache-dir", required=True, help="fresh directory for the dense-cache plans")
    p_play.set_defaults(fn=cmd_play)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
