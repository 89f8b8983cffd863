"""The qkgr benchmark: exact QK(Gr(k,n)) tables, verification sweeps, CLI calls.

    python3 bench/run.py --workload lift-table --seed 1 --seconds 42 --trace 0

Workloads (sizes in ``worker.SPECS``, reasons in ``BENCHMARK.json`` and
``README.md``):

* ``lift-table``: the full QK(Gr(4,9)) table through
  ``giambelli_lift_general``, then ``dump_jsonl``; checked by sha256.
* ``verify-sweeps``: ``run_suite("gr3n-rule", 3, 8)`` in one process, then
  ``run_suite("reductions", 3, 6, jobs=2)``; checked by ``ok`` and counts.
* ``cli-cold-products``: a seeded stream of ``qkgr product --json`` calls,
  one fresh process each, one client waiting for each reply.

Every repetition runs in a fresh interpreter (``worker.py``), so each pays
the process-lifetime cache fills a user pays.  With ``--trace 0`` the run
repeats the workload until ``--seconds`` would be exceeded and reports the
end-to-end metrics: medians over repetitions, the median latency of a
request (one CLI call, or one whole table build or sweep),
peak RSS of the run's processes and their workers, and ``setup_s``, the
median over several fresh interpreters of the time from process start to
the first call into a layer.  With ``--trace 1`` it runs the workload once
untraced and once with the per-layer wrappers of ``tracer.py`` and reports
the per-layer metrics plus ``trace.overhead_ratio``.

Every repetition checks its output against ``reference.json`` (recorded by
``make_reference.py``).  Any mismatch, failed sweep or nonzero exit makes
``correct`` false and the exit code 1.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is the result object;
a run record with machine metadata is also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SPECS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end well within the 180 s every run is allowed


def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fp:
            model = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
    }


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.errors: list[str] = []

    def spawn(self, mode: str, batch: int = 0) -> dict | None:
        """One worker process; returns its result, or None if it failed."""
        a = self.args
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", a.workload, "--size", a.size, "--mode", mode,
            "--seed", str(a.seed), "--batch", str(batch),
            "--reference", str(a.reference), "--out", str(a.out),
        ]  # fmt: skip
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.start))
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        lines = proc.stdout.strip().splitlines() if proc else []
        if proc is None or proc.returncode != 0 or not lines:
            detail = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
            self.errors.append(f"{mode} worker {detail}")
            if mode != "setup":
                spec = SPECS[a.workload][a.size]
                per = len(spec["rings"]) * spec["pool"] if "rings" in spec else len(spec.get("suites", [1]))
                self.attempted += per
                self.failed += per
            return None
        result = json.loads(lines[-1])
        result["elapsed_s"] = time.monotonic() - t0
        self.setup_s.append(result["setup_done"] - t0)
        if mode != "setup":
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            if result["failed"]:
                self.errors.append(f"{mode} batch {batch}: {result['failed']} of {result['attempted']} failed")
        return result


def _percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def end_to_end(runner: Runner, reps: list[dict]) -> tuple[dict, dict]:
    latencies = [ms for r in reps for ms in r["latencies_ms"]]
    p90, beyond = _percentile(latencies, 0.9)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in reps),
        "latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": statistics.median(max(r["rss_self_mb"], r["rss_children_mb"]) for r in reps),
        "setup_s": statistics.median(runner.setup_s),
    }
    # The tail is printed and recorded but not a bounded metric: the batch
    # workloads have ten to twenty requests per run, too few for a steady p90.
    samples = {
        "reps": len(reps),
        "requests": len(latencies),
        "latency_p90_ms": p90,
        "beyond_p90": beyond,
        "setup": len(runner.setup_s),
    }
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qkgr benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True, help="generates the CLI query stream")
    ap.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: seconds-long inputs for tests")
    ap.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    ap.add_argument("--out", type=Path, default=BENCH / "out")
    args = ap.parse_args(argv)

    source = ROOT / "src" / "qkgr" / "__init__.py"
    bench_json = ROOT / "BENCHMARK.json"
    for need in (source, bench_json, args.reference):
        if not need.is_file():
            print(f"error: {need} not found; run from the root of a qkgr checkout", file=sys.stderr)
            return 2
    declared = json.loads(bench_json.read_text())
    args.out.mkdir(parents=True, exist_ok=True)

    meta = {"workload": args.workload, "seed": args.seed, "size": args.size, "seconds": args.seconds}
    meta["trace"] = args.trace
    meta["machine"] = _machine()
    meta["loadavg_before"] = os.getloadavg()
    runner = Runner(args)
    runner.spawn("setup")  # compiles bytecode once, as an installed package would have
    runner.setup_s.clear()

    if args.trace:
        plain = runner.spawn("run")
        traced = runner.spawn("trace")
        reps = [r for r in (plain, traced) if r is not None]
        values = dict(traced["layers"]) if traced else {}
        if plain and traced:
            values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
            meta["trace_file"] = traced["trace_file"]
        declared_metrics = declared["per_layer"]
        samples = {"reps": len(reps)}
    else:
        for _ in range(SETUP_SAMPLES):
            runner.spawn("setup")
        reps = []
        measure_start = time.monotonic()
        while True:
            rep = runner.spawn("run", batch=len(reps))
            if rep is None:
                break
            reps.append(rep)
            elapsed = time.monotonic() - measure_start
            if elapsed + rep["elapsed_s"] > args.seconds:
                break
        values, samples = end_to_end(runner, reps) if reps else ({}, {})
        declared_metrics = declared["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics if m["name"] in values}
    if len(metrics) != len(declared_metrics):
        runner.errors.append("no measurement for: " + ", ".join(m["name"] for m in declared_metrics if m["name"] not in metrics))
    correct = runner.failed == 0 and not runner.errors
    meta["loadavg_after"] = os.getloadavg()
    meta["samples"] = samples
    meta["fail_ratio"] = runner.failed / runner.attempted if runner.attempted else 1.0
    meta["errors"] = runner.errors
    meta["reps"] = [{k: v for k, v in r.items() if k != "layers"} for r in reps]

    record = args.out / f"run-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1, sort_keys=True))
    print(f"qkgr benchmark {args.workload} [{args.size}] seed={args.seed} trace={args.trace}: {samples}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  fail_ratio {runner.failed}/{runner.attempted} = {meta['fail_ratio']:.6g}")
    for err in runner.errors:
        print(f"  error: {err}")
    print(f"  run record: {record.relative_to(ROOT) if record.is_relative_to(ROOT) else record}")
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1), "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
