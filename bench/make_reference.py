"""Record the reference outputs the benchmark checks every run against.

    python3 bench/make_reference.py            # rewrites bench/reference.json

Run it only at a commit whose outputs are trusted: every later run of the
benchmark must reproduce these digests and counts exactly.  It records

* the sha256 and record count of each ``lift-table`` JSONL dump;
* the exact ``items`` and ``checks`` of each sweep (``ok`` alone proves
  nothing: a sweep over zero items is ``ok``);
* the query pool of ``cli-cold-products`` with the sha256 of each query's
  ``qkgr product --json`` output.  For k = 3 every product is first
  cross-checked between the independent ``Gr3Engine`` and ``LiftEngine``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from qkgr import cli, verify  # noqa: E402
from qkgr.element import QKElement  # noqa: E402
from qkgr.partitions import all_partitions, context, format_partition  # noqa: E402
from qkgr.qk_engine import Gr3Engine, LiftEngine, giambelli_lift_general  # noqa: E402
from worker import SPECS, _HashWriter  # noqa: E402


def _cli_stdout(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"qkgr {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def _cli_pool(k: int, n: int, size: int) -> list:
    import hashlib

    ctx = context(k, n)
    parts = all_partitions(ctx)
    rng = random.Random(f"qkgr-bench-pool:{k},{n}")
    pairs = set()
    while len(pairs) < size:
        pairs.add((rng.choice(parts), rng.choice(parts)))
    pool = []
    for lam, mu in sorted(pairs):
        lhs, rhs = format_partition(lam), format_partition(mu)
        out = _cli_stdout(["product", "-k", str(k), "-n", str(n), "--lhs", lhs, "--rhs", rhs, "--json"])
        if k == 3:
            direct = Gr3Engine(ctx).product_basis(lam, mu)
            lifted = LiftEngine(ctx).product_basis(lam, mu)
            if direct != lifted or QKElement.from_json(out.decode()) != direct:
                raise SystemExit(f"engines disagree on Gr(3,{n}) at {lam} * {mu}")
        pool.append([lhs, rhs, hashlib.sha256(out).hexdigest()])
    return pool


def main() -> int:
    ref: dict = {}
    for workload, sizes in SPECS.items():
        ref[workload] = {}
        for size, spec in sizes.items():
            print(f"{workload} [{size}] ...", file=sys.stderr)
            if workload == "lift-table":
                sink = _HashWriter()
                giambelli_lift_general(context(spec["k"], spec["n"])).dump_jsonl(sink)
                ref[workload][size] = {"records": sink.lines, "sha256": sink.sha.hexdigest()}
            elif workload == "cli-cold-products":
                ref[workload][size] = {
                    f"{k},{n}": _cli_pool(k, n, spec["pool"]) for k, n in spec["rings"]
                }
            else:
                ref[workload][size] = {}
                for suite, k, n, jobs in spec["suites"]:
                    report = verify.run_suite(suite, k, n, jobs=jobs)
                    if not report["ok"] or not report["items"]:
                        raise SystemExit(f"{suite} on Gr({k},{n}) did not pass: {report}")
                    ref[workload][size][suite] = {"items": report["items"], "checks": report["checks"]}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
