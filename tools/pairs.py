#!/usr/bin/env python3
"""Alternating parent/change pairs of the perfbench workloads, in one command.

    python3 tools/pairs.py --parent <sha> --out bench/BENCH_<n>.json

Run from anywhere inside the repository. The parent commit is exported with
``git archive`` and the working tree's files (tracked, plus untracked ones
that are not ignored) are copied, each into a fresh temporary directory that
is removed afterwards. For every workload of ``BENCHMARK.json``, pair ``i``
of ten runs

    python3 perfbench/run.py --workload W --seed <i + 1> --seconds S --trace 0

once in each directory, with S the benchmark's ``run_seconds``, the parent
first in even pairs and the change first in odd ones, and reads each run's
last JSON line.

The output file holds, per workload and end-to-end metric of
``BENCHMARK.json``: the parent's median and quartiles, the change's median,
their relative difference, the metric's bound, and the share of pairs the
change wins (a strictly better value in the metric's direction). It also
lists every run's attempted and failed operations and metric values, and
each side's environment block as ``perfbench/run.py`` prints it.

``change_base_sha`` is ``HEAD``. ``change_sha`` is ``HEAD`` too when the
working tree is clean, and null when it has uncommitted edits, since then no
commit holds the files the change side ran.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def export_parent(root: Path, sha: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", sha))) as tar:
        tar.extractall(dest, filter="data")


def export_working_tree(root: Path, dest: Path) -> None:
    listed = git(root, "ls-files", "-z", "--cached", "--others",
                 "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if source.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One closed-loop run; its environment and result lines, or the error."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        env, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"returncode": proc.returncode, "error": proc.stderr[-2000:]}
    return {"returncode": proc.returncode, "env": env["env"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Parent median and quartiles, change median and win share per metric."""
    pairs = {}
    for run in runs:
        if "metrics" in run:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    complete = [p for p in pairs.values() if len(p) == 2]
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"][name] for p in complete]
        change = [p["change"][name] for p in complete]
        if len(parent) < 2:
            summary[name] = {"pairs": len(parent)}
            continue
        q1, _, q3 = statistics.quantiles(parent, n=4)
        median_p = statistics.median(parent)
        median_c = statistics.median(change)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        summary[name] = {
            "pairs": len(parent), "better": metric["better"],
            "bound": metric["bound"], "parent_median": median_p,
            "parent_q1": q1, "parent_q3": q3,
            "parent_spread": (q3 - q1) / median_p,
            "change_median": median_c,
            "change_vs_parent": median_c / median_p - 1.0,
            "change_wins": wins / len(parent)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel")
                .decode().strip())
    parent_sha = git(root, "rev-parse", "--verify",
                     f"{args.parent}^{{commit}}").decode().strip()
    head_sha = git(root, "rev-parse", "HEAD").decode().strip()
    dirty = bool(git(root, "status", "--porcelain"))
    benchmark = json.loads((root / "BENCHMARK.json").read_text())

    record = {"parent_sha": parent_sha,
              "change_sha": None if dirty else head_sha,
              "change_base_sha": head_sha,
              "change_has_uncommitted_edits": dirty, "pairs": PAIRS,
              "seconds": benchmark["run_seconds"], "env": {}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for path in checkouts.values():
            path.mkdir()
        export_parent(root, parent_sha, checkouts["parent"])
        export_working_tree(root, checkouts["change"])
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = []
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run = run_once(checkouts[side], workload, i + 1,
                                   benchmark["run_seconds"])
                    env = run.pop("env", None)
                    if env is not None:
                        record["env"].setdefault(side, env)
                    runs.append({"side": side, "pair": i, "seed": i + 1,
                                 **run})
                    print(f"{workload} pair {i} {side}: "
                          f"{run.get('metrics', run.get('error'))}",
                          file=sys.stderr, flush=True)
            record["workloads"][workload] = {
                "metrics": summarize(runs, benchmark["end_to_end"]),
                "runs": runs}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
