"""One timed repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, because ``lift_engine``,
``gr3_engine``, ``quantum_terms``, ``seidel_up1`` and
``multiplication_table`` are process-lifetime caches: a second repetition
in the same process would only read back cached results, while a user pays
the cache fill on every run.  Nothing is warmed before timing.

    python3 bench/worker.py --workload lift-table --mode run --batch 0 ...

Modes: ``setup`` stops after set-up (import, contexts, inputs) and reports
when it got there; ``run`` also times the workload and checks its output
against ``reference.json``; ``trace`` does the same with the per-layer
wrappers of ``tracer.py`` installed after set-up.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent

# Sizes per workload; "smoke" is the seconds-long version the benchmark's
# own tests run.  Why each workload exists is recorded in BENCHMARK.json.
# Each repetition is a few seconds so that a run holds enough repetitions
# for its medians to shrug off the bursts of a shared machine.
SPECS = {
    "lift-table": {
        "full": {"k": 4, "n": 9},
        "smoke": {"k": 3, "n": 6},
    },
    # Both suites run in one interpreter, one after the other.
    "verify-sweeps": {
        "full": {"suites": [("gr3n-rule", 3, 8, 1), ("reductions", 3, 6, 2)]},
        "smoke": {"suites": [("gr3n-rule", 3, 6, 1), ("reductions", 2, 5, 2)]},
    },
    "cli-cold-products": {
        # "pool" queries per ring; one batch runs the whole pool once.
        "full": {"rings": [(3, 12), (4, 11), (5, 11), (6, 12)], "pool": 6},
        "smoke": {"rings": [(2, 6), (3, 6)], "pool": 2},
    },
}

CLI_TIMEOUT_S = 60


def cli_stream(pool: dict, seed: int, batch: int) -> list:
    """One batch of the seeded query stream: every pooled query once.

    ``pool`` maps "k,n" to [lhs, rhs, sha256] entries from the reference.
    The seed and batch number fix the order: each ring's queries are
    shuffled and the rings take turns.  Running the whole pool per batch
    keeps the batch's heaviest query, and so its peak RSS, the same for
    every seed.
    """
    rng = random.Random(f"{seed}/{batch}")
    rings = sorted(pool, key=lambda r: tuple(map(int, r.split(","))))
    shuffled = {ring: rng.sample(pool[ring], len(pool[ring])) for ring in rings}
    out = []
    for i in range(max(len(q) for q in shuffled.values())):
        for ring in rings:
            if i < len(shuffled[ring]):
                lhs, rhs, digest = shuffled[ring][i]
                k, n = ring.split(",")
                out.append((["product", "-k", k, "-n", n, "--lhs", lhs, "--rhs", rhs, "--json"], digest))
    return out


class _HashWriter:
    """A file-like sink that hashes what ``dump_jsonl`` writes and counts lines."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> None:
        self.sha.update(text.encode())
        self.lines += text.count("\n")


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, kids


def _setup(workload: str, size: str, ref: dict, seed: int, batch: int):
    """Import, build contexts and generate inputs; returns the inputs."""
    from qkgr.partitions import context

    spec = SPECS[workload][size]
    if workload == "cli-cold-products":
        import qkgr.cli  # noqa: F401  (what every query process imports)

        for k, n in spec["rings"]:
            context(k, n)
        return cli_stream(ref[workload][size], seed, batch)
    if workload == "lift-table":
        return context(spec["k"], spec["n"])
    for _, k, n, _ in spec["suites"]:
        context(k, n)
    return None


def _lift_table(ctx, ref):
    from qkgr import qk_engine

    table = qk_engine.giambelli_lift_general(ctx)
    sink = _HashWriter()
    table.dump_jsonl(sink)
    ok = sink.sha.hexdigest() == ref["sha256"] and sink.lines == ref["records"]
    return {"ops": sink.lines, "attempted": 1, "failed": 0 if ok else 1, "digest": sink.sha.hexdigest()}


def _sweeps(spec, ref, layers: dict | None):
    from qkgr import verify

    checks = failed = 0
    wall = kids = cpu = jobs_wall = 0.0
    reports = {}
    for suite, k, n, jobs in spec["suites"]:
        cpu0, kids0, t0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN), time.perf_counter()
        report = verify.run_suite(suite, k, n, jobs=jobs)
        dt = time.perf_counter() - t0
        dkids = _cpu(resource.RUSAGE_CHILDREN) - kids0
        wall, kids, jobs_wall = wall + dt, kids + dkids, jobs_wall + jobs * dt
        cpu += _cpu(resource.RUSAGE_SELF) - cpu0 + dkids
        want = ref[suite]
        failed += not (report["ok"] and report["items"] == want["items"] and report["checks"] == want["checks"])
        checks += report["checks"]
        reports[suite] = {key: report[key] for key in ("items", "checks", "failures", "first_failure", "ok")}
    if layers is not None:
        layers.update(
            {
                "verify.run_suite.wall_s": wall,
                "verify.items": sum(r["items"] for r in reports.values()),
                "verify.checks": checks,
                "verify.worker_cpu_s": kids,
                "verify.parallel_efficiency": cpu / jobs_wall,
            }
        )
    return {"ops": checks, "attempted": len(reports), "failed": failed, "reports": reports}


def _cli_products(queries, trace_dir: Path | None, layers: dict | None):
    """A closed loop with one client: each query is a fresh ``qkgr`` process."""
    latencies, failed, raws, per_query = [], 0, [], []
    for i, (argv, digest) in enumerate(queries):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "qkgr.cli", *argv]
        else:
            stats = trace_dir / f"query-{i}.json"
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(stats), *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=CLI_TIMEOUT_S)
            good = proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest
        except subprocess.TimeoutExpired:
            good = False
        latencies.append((time.perf_counter() - t0) * 1000)
        failed += not good
        if trace_dir is not None and stats.exists():
            shim = json.loads(stats.read_text())
            stats.unlink()
            raws.append(shim["raw"])
            per_query.append(shim)
    if layers is not None:
        layers["cli.import_ms"] = statistics.median(q["import_ms"] for q in per_query) if per_query else 0.0
        layers["cli.main.self_s"] = statistics.median(q["raw"]["cli.self_s"] for q in per_query) if per_query else 0.0
        layers["cli.compute_ms"] = statistics.median(q["compute_ms"] for q in per_query) if per_query else 0.0
    return {"ops": len(queries), "attempted": len(queries), "failed": failed, "latencies_ms": latencies}, raws, per_query


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batch", type=int, default=0, help="which batch of the CLI query stream; fixes its order")
    ap.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    ap.add_argument("--out", type=Path, default=BENCH / "out")
    args = ap.parse_args(argv)

    ref = json.loads(args.reference.read_text())
    inputs = _setup(args.workload, args.size, ref, args.seed, args.batch)
    result = {"setup_done": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    spans = layers = None
    if args.mode == "trace":
        spans = tracer.Tracer(request=f"{args.workload}:{args.seed}", out_dir=args.out).install()
        layers = {}

    spec = SPECS[args.workload][args.size]
    wref = ref[args.workload][args.size]
    raws = []
    t0 = time.perf_counter()
    if args.workload == "lift-table":
        out = _lift_table(inputs, wref)
    elif args.workload == "cli-cold-products":
        out, raws, per_query = _cli_products(inputs, args.out if spans else None, layers)
    else:
        out = _sweeps(spec, wref, layers)
    wall = time.perf_counter() - t0
    out.setdefault("latencies_ms", [wall * 1000])
    result.update(out, wall_s=wall)
    result["rss_self_mb"], result["rss_children_mb"] = _peak_rss_mb()

    if spans is not None:
        spans.merge_children()
        raws.append(spans.raw())
        metrics = tracer.layer_metrics(tracer.sum_raw(raws))
        for key in tracer.VERIFY_METRICS + tracer.CLI_METRICS:
            metrics[key] = layers.get(key, 0)
        result["layers"] = metrics
        trace_file = args.out / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        state = spans.state()
        if args.workload == "cli-cold-products":
            state["requests"] = per_query
        trace_file.write_text(json.dumps(state, sort_keys=True))
        result["trace_file"] = str(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
