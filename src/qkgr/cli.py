"""Command-line front end: products, verification sweeps, reduction traces.

Exit codes: 0 success, 1 verification failure or internal inconsistency,
2 usage errors (malformed flags or partitions), each reported on stderr
as ``error: ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .partitions import context, format_partition, parse_partition
from .qk_engine import product_basis, structure_constant
from .seidel import reduction_trace
from .verify import SUITE_NAMES, run_suite

USAGE_ERROR = 2
CHECK_ERROR = 1


def _emit(args, obj, header: str, rows, lines) -> None:
    """Print one result as JSON (obj), CSV (header and rows) or text (lines)."""
    if args.json:
        print(json.dumps(obj, separators=(",", ":")))
    elif args.csv:
        print(header)
        for row in rows:
            print(",".join(map(str, row)))
    else:
        for line in lines:
            print(line)


def cmd_product(args) -> int:
    ctx = context(args.k, args.n, args.trunc)
    lhs = parse_partition(args.lhs, ctx)
    rhs = parse_partition(args.rhs, ctx)
    result = product_basis(lhs, rhs, ctx)
    _emit(
        args,
        result.to_obj(),
        "q,partition,coeff",
        ((d, format_partition(lam), c) for lam, d, c in result.sorted_terms()),
        [f"O({format_partition(lhs)}) * O({format_partition(rhs)}) = {result}"],
    )
    return 0


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite, args.k, args.n, args.trunc, jobs=args.jobs, sample=args.sample, seed=args.seed
    )
    columns = ("suite", "k", "n", "items", "checks", "failures", "ok")
    status = "pass" if report["ok"] else "FAIL"
    lines = [
        f"{report['suite']} on Gr({report['k']},{report['n']}): {status} "
        f"({report['checks']} checks over {report['items']} items)"
    ]
    if report["first_failure"]:
        lines.append(f"first failure: {report['first_failure']}")
    _emit(args, report, ",".join(columns), [[report[c] for c in columns]], lines)
    return 0 if report["ok"] else CHECK_ERROR


def cmd_reduce(args) -> int:
    ctx = context(args.k, args.n, args.trunc)
    lam = parse_partition(args.lhs, ctx)
    mu = parse_partition(args.rhs, ctx)
    nu = parse_partition(args.nu, ctx)
    d = args.deg
    if not 0 <= d <= ctx.trunc:
        raise ValueError(f"degree {d} outside 0..{ctx.trunc}")
    steps = reduction_trace(lam, mu, nu, d, ctx)
    final = steps[-1] if steps else {"lhs": lam, "rhs": mu, "nu": nu, "deg": d}
    value = None
    if comb(args.n, args.k) <= 800:
        value = structure_constant(final["lhs"], final["rhs"], final["nu"], final["deg"], ctx)

    parts = ("lhs", "rhs", "nu")

    def tuple_obj(s):
        return {**{key: list(s[key]) for key in parts}, "deg": s["deg"]}

    lines = [] if steps else ["already degree 0" if d == 0 else "no rule applies"]
    lines += [
        f"{s['rule']}: N[{format_partition(s['lhs'])} ; {format_partition(s['rhs'])} -> "
        f"{format_partition(s['nu'])}, q^{s['deg']}]"
        for s in steps
    ]
    if value is not None:
        kind = "classical" if final["deg"] == 0 else f"degree-{final['deg']}"
        lines.append(f"{kind} value: {value}")
    obj = {
        "steps": [{"rule": s["rule"], **tuple_obj(s)} for s in steps],
        "final": tuple_obj(final),
        "value": value,
    }
    rows = ((s["rule"], *(format_partition(s[key]) for key in parts), s["deg"]) for s in steps)
    _emit(args, obj, "rule,lhs,rhs,nu,deg", rows, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkgr",
        description="Exact quantum K-theory of Grassmannians: products, "
        "verification sweeps, and quantum-to-classical reduction traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-k", type=int, default=3, help="number of rows (default 3)")
        p.add_argument("-n", type=int, required=True, help="ambient dimension")
        p.add_argument("--trunc", type=int, default=None, help="q-truncation degree")
        out = p.add_mutually_exclusive_group()
        out.add_argument("--json", action="store_true", help="machine-readable output")
        out.add_argument("--csv", action="store_true", help="CSV output")

    p = sub.add_parser("product", help="multiply two Schubert classes")
    common(p)
    p.add_argument("--lhs", required=True, help='partition, e.g. "2,1" or [2,1]')
    p.add_argument("--rhs", required=True, help="partition")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", help="run an exhaustive verification sweep")
    p.add_argument("suite", choices=SUITE_NAMES)
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--sample", type=int, default=None, help="cap on swept tuples")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="trace quantum-to-classical reductions")
    common(p)
    p.add_argument("--lhs", required=True, help="partition")
    p.add_argument("--rhs", required=True, help="partition")
    p.add_argument("--nu", required=True, help="target partition")
    p.add_argument("--deg", type=int, required=True, help="q-degree")
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
