#!/usr/bin/env python3
"""Record a before/after benchmark trajectory file.

    python3 tools/bench_record.py --base REV --out BENCH_<n>.json [--anchor OLD]

Exports the base revision (`git archive`) and the working tree (tracked and
untracked, not ignored files) into temporary directories and runs, in each,
the tier-1 suite once and `bench/run.py` for every workload that
`BENCHMARK.json` declares, for its `run_seconds`: ten untraced runs per side,
alternating which side runs first, then one traced run per side. Every run's
final JSON line is stored as printed, and each end-to-end metric gets its
median and quartiles per side and the number of pairs the working tree won.

With `--anchor OLD` a third side runs the working tree's `bench/` and
`BENCHMARK.json` over OLD's `src`, in the same alternation (first in one
round, last in the next; it gets no tier-1 run, since today's tests need
not fit an old program). Each metric then also gets the change/anchor and
base/anchor ratios of the medians. A pinned anchor measured in every file
turns files recorded on different days into one trajectory: the ratios
cancel the machine's drift that the raw medians carry.

Each side is named by the git tree ids of its `src`, `bench` and `tests`
directories, so a committed working tree can be found again (`git rev-parse
REV:src`) although the output file is part of that commit. Nothing in the
working tree is written but the output file; naming the working tree stores
its files as git objects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
MEASURED = ("src", "bench", "tests")


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return done.stdout


def revision_trees(rev: str) -> dict[str, str]:
    return {d: git("rev-parse", f"{rev}:{d}").strip() for d in MEASURED}


def worktree_trees() -> dict[str, str]:
    """Tree ids the measured directories would have if committed as they are."""
    with tempfile.TemporaryDirectory(prefix="bench_record_index_") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        run = lambda *args: subprocess.run(  # noqa: E731
            ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
        ).stdout
        run("add", "--", *MEASURED)
        return {d: run("write-tree", f"--prefix={d}/").strip() for d in MEASURED}


def export_revision(rev: str, dest: Path, *paths: str) -> None:
    """REV's files (only those under `paths`, when given) into `dest`."""
    archive = subprocess.run(
        ["git", "archive", rev, *paths], cwd=ROOT, check=True, capture_output=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def export_worktree(dest: Path) -> None:
    listed = git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit": done.returncode, "summary": lines[-1] if lines else ""}


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed nothing:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        name, better = metric["name"], metric["better"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        base, change = values["base"], values["change"]
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        out[name] = {
            "unit": metric["unit"],
            "better": better,
            **{side: quartiles(v) for side, v in values.items()},
            "change_wins": f"{wins}/{len(base)}",
        }
        if "anchor" in values:
            anchor = out[name]["anchor"]["median"]
            for side in ("change", "base"):
                ratio = round(out[name][side]["median"] / anchor, 4) if anchor else None
                out[name][f"{side}_over_anchor"] = ratio
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare the working tree with")
    ap.add_argument("--out", required=True, help="trajectory file to write, e.g. BENCH_10.json")
    ap.add_argument("--anchor", help="git revision whose src runs as a third side under "
                    "the working tree's benchmark")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": seconds,
        "pairs": PAIRS,
        "base": {"revision": git("rev-parse", args.base).strip(), "trees": revision_trees(args.base)},
        "change": {"parent": git("rev-parse", "HEAD").strip(), "trees": worktree_trees()},
        "workloads": {},
    }
    sides = ("base", "change")
    if args.anchor:
        sides += ("anchor",)
        record["anchor"] = {
            "revision": git("rev-parse", args.anchor).strip(),
            "trees": {"src": revision_trees(args.anchor)["src"],
                      "bench": record["change"]["trees"]["bench"]},
        }
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for tree in trees.values():
            tree.mkdir()
        export_revision(args.base, trees["base"])
        export_worktree(trees["change"])
        if args.anchor:
            export_worktree(trees["anchor"])
            shutil.rmtree(trees["anchor"] / "src")
            export_revision(args.anchor, trees["anchor"], "src")
        for side in ("base", "change"):
            record[side]["tier1"] = tier1(trees[side])
            print(f"bench_record: {side} tier-1 {record[side]['tier1']}", file=sys.stderr)
        for w in spec["workloads"]:
            name = w["name"]
            runs: dict[str, list[dict]] = {side: [] for side in sides}
            for i in range(PAIRS):
                for side in sides if i % 2 == 0 else reversed(sides):
                    runs[side].append(bench(trees[side], name, i, seconds, trace=0))
                print(f"bench_record: {name} pair {i + 1}/{PAIRS}", file=sys.stderr)
            traced = {side: bench(trees[side], name, 0, seconds, trace=1) for side in trees}
            record["workloads"][name] = {
                "summary": summarize(runs, spec["end_to_end"]),
                "runs": runs,
                "traced": traced,
            }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
