#!/usr/bin/env python3
"""Closed-loop benchmark of bosehub: one client, one process, in-process CLI.

    python3 perfbench/run.py --workload {train,ed,noise} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``
of that checkout. The client runs whole rounds of the workload's operations
(``workloads.py``) for S seconds, each ``bosehub.cli.main`` call starting
when the previous one returned, and checks each output right after its
operation.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, the sum over the
round's operations of each one's median time; ``setup_s``, the median over
fresh processes of the time from process start to the first timed
operation; and ``peak_rss_mb``. Both times are normalized to a reference
core speed (``speed.py``). ``--trace 1`` alternates untraced and traced
rounds and prints the per-layer metrics of ``layers.py``, per round, with
the tracing overhead and the share of the operations' time its spans cover.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment. A fuller record goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
GAUGE_INTERVAL_S = 0.1
PROBE_GAUGE_INTERVAL_S = 0.02
PROBE_TIMEOUT_S = 60


def use_checkout_program() -> None:
    """Import bosehub from this checkout's sources, or stop."""
    src = ROOT / "src"
    if not (src / "bosehub" / "__init__.py").is_file():
        raise SystemExit(f"error: bosehub sources not found under {src}")
    sys.path.insert(0, str(src))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "ed", "noise"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time "
                             "set-up in fresh processes)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    from bosehub import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.backend(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------

def make_workload(args, workdir: Path):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    return workload


def time_setup(argv: list[str]) -> tuple[float, float]:
    """Median time from spawning a fresh process to its first operation.

    Returns (normalized, raw): each probe reports the time its gauge took
    and its mean 1/g, which turn its wall time into a normalized one.
    """
    from speed import REFERENCE_S

    normalized, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), *argv,
                 "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            try:
                line = probe.stdout.readline()
                elapsed = time.perf_counter() - start
                probe.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
                raise RuntimeError("set-up probe did not exit")
        words = line.split()
        if len(words) != 3 or words[0] != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (rc={probe.returncode})")
        busy, speed = float(words[1]), float(words[2])
        raw.append(elapsed)
        normalized.append((elapsed - busy) * REFERENCE_S * speed)
    return statistics.median(normalized), statistics.median(raw)


def probe_setup(args, workdir: Path) -> None:
    """Set up as a timed run would, then report to the parent and exit."""
    from speed import SpeedGauge

    with SpeedGauge(PROBE_GAUGE_INTERVAL_S) as gauge:
        gauge.sample()
        make_workload(args, workdir)
        gauge.sample()
    speed = statistics.fmean(1.0 / g for g in gauge.durations)
    print(f"ready {sum(gauge.durations)!r} {speed!r}", flush=True)


class Client:
    """Runs rounds of operations, timing each and keeping its output."""

    def __init__(self, workload):
        self.workload = workload
        self.spans: dict[str, list[tuple[float, float]]] = {}
        self.failures: list[str] = []
        self.checked = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_round(self, round_index: int, tracer=None,
                  gauge=None) -> list[tuple[float, float]]:
        """Run one round; returns the (start, end) of each operation.

        With ``gauge`` given, it is sampled before the round and after each
        operation, outside the operations.
        """
        from workloads import invoke

        spans = []
        if gauge is not None:
            gauge.sample()
        for op in self.workload.operations(round_index):
            self.attempted += 1
            if tracer is not None:
                tracer.operation = self.attempted
            start = time.perf_counter()
            try:
                code, stdout = invoke(op.argv)
            except (Exception, SystemExit):
                code, stdout = None, traceback.format_exc()
            end = time.perf_counter()
            spans.append((start, end))
            if gauge is not None:
                gauge.sample()
            if code != 0:
                self.failed += 1
                self.errors.append(f"{op.label}: exit {code}\n{stdout}")
                continue
            self.spans.setdefault(op.label, []).append((start, end))
            self.failures += op.check(op.read(stdout))
            self.checked += 1
        return spans

    def times(self, gauge=None) -> dict[str, list[float]]:
        """Each operation's times: wall, or normalized by the gauge."""
        if gauge is None:
            return {label: [end - start for start, end in spans]
                    for label, spans in self.spans.items()}
        return {label: [gauge.normalized(*span) for span in spans]
                for label, spans in self.spans.items()}


def round_s(times: dict[str, list[float]]) -> float:
    """One round with every operation at its median time."""
    return sum(statistics.median(t) for t in times.values())


def op_stats(times: dict[str, list[float]]) -> dict:
    stats = {}
    for label, t in times.items():
        q = statistics.quantiles(t, n=4) if len(t) > 1 else [t[0]] * 3
        stats[label] = {"n": len(t), "median_s": statistics.median(t),
                        "q1_s": q[0], "q3_s": q[2], "times_s": t}
    return stats


def measure(args, workload) -> tuple[Client, dict]:
    from speed import SpeedGauge

    client = Client(workload)
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        with SpeedGauge(GAUGE_INTERVAL_S) as gauge:
            gauge.sample()
            r = 0
            while r == 0 or time.perf_counter() < deadline:
                client.run_round(r)
                r += 1
            gauge.sample()
        return client, {"gauge": gauge}

    from layers import Tracer

    # Untraced and traced rounds alternate. Their operation times are
    # normalized by gauge samples taken between operations, without the
    # timer, so that no gauge time falls inside a span.
    gauge = SpeedGauge(GAUGE_INTERVAL_S)
    plain, traced, traced_wall = [], [], 0.0
    tracer = Tracer()
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        spans = client.run_round(r, gauge=gauge)
        plain.append(sum(gauge.normalized(*span) for span in spans))
        with tracer:
            tracer.keep_spans = not traced  # keep the first traced round
            spans = client.run_round(r + 1, tracer, gauge)
        traced.append(sum(gauge.normalized(*span) for span in spans))
        traced_wall += sum(end - start for start, end in spans)
        r += 2
    tracer.write_spans(
        OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    totals = tracer.snapshot()
    n = len(traced)
    covered = totals.pop("covered_s")
    metrics = {name: value / n for name, value in totals.items()}
    metrics["kernels.rows_per_call"] = (
        totals["kernels.rows"] / totals["kernels.calls"]
        if totals["kernels.calls"] else 0.0)
    metrics["trace.overhead"] = (statistics.median(traced)
                                 / statistics.median(plain) - 1.0)
    metrics["trace.coverage"] = covered / traced_wall
    info = {"untraced_round_s": plain, "traced_round_s": traced,
            "missing_targets": tracer.missing, "metrics": metrics}
    return client, info


UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "kernels.rows_per_call": "ratio", "trace.overhead": "ratio",
         "trace.coverage": "ratio", "hamiltonian.dense_full_mb": "MB"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_program()
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            probe_setup(args, workdir)
            return 0
        if not args.trace:
            setup_s, raw_setup_s = time_setup(
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)])
        workload = make_workload(args, workdir)
        client, info = measure(args, workload)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "attempted": client.attempted,
              "failed": client.failed, "check_failures": client.failures[:20],
              "errors": client.errors[:5]}
    if args.trace:
        values = info.pop("metrics")
        record.update(info, operations=op_stats(client.times()))
    else:
        times = client.times(info["gauge"])
        values = {"setup_s": setup_s, "wall_s": round_s(times),
                  "peak_rss_mb": peak_rss_mb}
        record.update(raw_setup_s=raw_setup_s,
                      raw_wall_s=round_s(client.times()),
                      operations=op_stats(times),
                      raw_operations=op_stats(client.times()),
                      gauge_samples=len(info["gauge"].durations))
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    result = {"correct": not client.failures and client.checked > 0,
              "attempted": client.attempted, "failed": client.failed,
              "metrics": metrics}
    record.update(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for failure in client.failures[:20] + client.errors[:5]:
        print(f"check: {failure}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("workload", "env", "attempted", "failed")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
