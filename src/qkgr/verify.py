"""Exhaustive verification sweeps, shared by the CLI and the test suite.

Each suite prepares a deterministic list of work items plus a checker, runs
the checker over every item (optionally split across processes), and
returns a report with the number of checks, the failure count and the
first failure.  Sweeps are embarrassingly parallel; results are merged in
chunk order so output is identical for any job count.
"""

from __future__ import annotations

import math
import os
import random
from itertools import combinations_with_replacement
from itertools import product as iterproduct

from .curve_nbhd import curve_neighborhood, gamma_special, rim_peel
from .element import QKElement
from .gr3n import positivity_check, qlr_gr3
from .partitions import all_partitions, context, dual, seidel_power, seidel_up
from .pieri import classical_pieri, quantum_pieri, quantum_pieri_restated
from .qk_engine import (
    product_basis,
    reduce_third_row,
    structure_constant,
    verify_recursion,
)
from .seidel import (
    H,
    T,
    d_min,
    duality,
    reduce_deg_one,
    reduce_dual_shift,
    reduce_higher,
    reduce_lemred,
    t_basis,
)

def _constant(tup, ctx):
    lam, mu, nu, d = tup
    if d < 0 or d > ctx.trunc:
        return None
    return structure_constant(lam, mu, nu, d, ctx)


# _run_chunk reads the items, the checker and the context from _WORKER so
# that a fork-based pool can reach them without pickling.
_WORKER: dict = {}


def _check_seidel(lam, ctx):
    k, n = ctx.k, ctx.n
    e = QKElement.basis(lam)
    x = e
    for _ in range(n):
        x = T(x, ctx)
    if x != e.q_shift(k):
        return (1, f"T^{n} != q^{k} Id at {lam}")
    x = e
    for _ in range(n):
        x = H(x, ctx)
    if x != e.q_shift(n - k):
        return (1, f"H^{n} != q^{n - k} Id at {lam}")
    if H(T(e, ctx), ctx) != e.q_shift(1):
        return (1, f"HT != q Id at {lam}")
    d, p = t_basis(lam, ctx)
    if product_basis((1,) * k, lam, ctx) != QKElement.basis(p, d):
        return (1, f"engine product disagrees with T closed form at {lam}")
    return (4, None)


def _check_pieri_equiv(item, ctx):
    lam, i = item
    a = quantum_pieri(lam, i, ctx)
    b = quantum_pieri_restated(lam, i, ctx)
    if a != b:
        return (1, f"pieri forms differ at lam={lam}, i={i}")
    if a.max_q() not in (None, 0, 1):
        return (1, f"pieri q-degree above 1 at lam={lam}, i={i}")
    classical_part = QKElement({(p, 0): c for p, c in a.q_slice(0).items()})
    if classical_part != classical_pieri(lam, i, ctx):
        return (1, f"q=0 part differs from classical rule at lam={lam}, i={i}")
    return (3, None)


def _check_gr3n_rule(pair, ctx):
    lam, mu = pair
    prod = product_basis(lam, mu, ctx)
    s = lam[2] + mu[2]
    lam2 = (lam[0] - lam[2], lam[1] - lam[2], 0)
    mu2 = (mu[0] - mu[2], mu[1] - mu[2], 0)
    count = 0
    for nu in all_partitions(ctx):
        dd, nu2 = seidel_power(nu, -s, ctx)
        for d in range(ctx.trunc + 1):
            count += 1
            want = prod.terms.get((nu, d), 0)
            got = qlr_gr3(lam2, mu2, nu2, d + dd, ctx)
            if got != want:
                return (count, f"rule {got} != oracle {want} at {lam},{mu},{nu},q^{d}")
    return (count, None)


def _check_dmin(pair, ctx):
    lam, mu = pair
    d, r = d_min(lam, mu, ctx)
    prod = product_basis(lam, mu, ctx)
    if prod.min_q() != d:
        return (1, f"d_min {d} != smallest power {prod.min_q()} at {lam},{mu}")
    shifted = product_basis(
        seidel_up(lam, r, ctx), seidel_up(mu, ctx.n - r, ctx), ctx
    ).q_shift(d)
    if shifted.truncated(ctx.trunc) != prod:
        return (1, f"shift identity fails at {lam},{mu} (r={r})")
    return (2, None)


def _check_reductions(item, ctx):
    lam, mu, nu, d = item
    orig = structure_constant(lam, mu, nu, d, ctx)
    count = 0

    def agree(tup, rule):
        nonlocal count
        if tup is None:
            return None
        count += 1
        got = _constant(tup, ctx)
        if got is not None and got != orig:
            return f"{rule} broke {lam},{mu},{nu},q^{d}: {orig} -> {got}"
        return None

    for variant in (1, 2, 3, 4):
        bad = agree(reduce_lemred(lam, mu, nu, d, variant, ctx, i=1), f"lemred-{variant}")
        if bad:
            return (count, bad)
    bad = agree(duality(lam, mu, nu, d, ctx), "duality")
    if bad:
        return (count, bad)
    bad = agree(reduce_deg_one(lam, mu, nu, d, ctx), "deg-one")
    if bad:
        return (count, bad)
    for s in range(2, d + 1):
        bad = agree(reduce_higher(lam, mu, nu, d, s, ctx), f"higher-{s}")
        if bad:
            return (count, bad)
    bad = agree(reduce_dual_shift(lam, mu, nu, d, ctx), "dual-shift")
    if bad:
        return (count, bad)
    if ctx.k == 3:
        bad = agree(reduce_third_row(lam, mu, nu, d, ctx), "third-row")
        if bad:
            return (count, bad)
    return (count, None)


def _check_positivity(pair, ctx):
    lam, mu = pair
    count = 0
    for (nu, d), c in product_basis(lam, mu, ctx).terms.items():
        count += 1
        if not positivity_check(lam, mu, nu, d, c, ctx):
            return (count, f"sign violation at {lam},{mu},{nu},q^{d}: {c}")
    return (count, None)


def _check_duality(item, ctx):
    lam, mu, nu, d = item
    orig = structure_constant(lam, mu, nu, d, ctx)
    got = structure_constant(lam, dual(nu, ctx), dual(mu, ctx), d, ctx)
    if got != orig:
        return (1, f"duality broke {lam},{mu},{nu},q^{d}: {orig} -> {got}")
    return (1, None)


def _check_curve_nbhd(lam, ctx):
    count = 0
    peeled = lam
    for d in range(ctx.k + 1):
        count += 1
        if peeled != curve_neighborhood(lam, d, ctx):
            return (count, f"rim peeling differs from row/column removal at {lam}, d={d}")
        peeled = rim_peel(peeled, ctx)
    if lam[ctx.k - 1] > 0:
        mv = dual(lam, ctx)
        up = seidel_up(mv, 1, ctx)
        for d in range(1, min(ctx.k + 1, ctx.width)):
            count += 1
            lhs = gamma_special(mv, d, ctx)
            rhs = dual(curve_neighborhood(dual(up, ctx), d - 1, ctx), ctx)
            if lhs != rhs:
                return (count, f"two-pointed neighborhood mismatch at mu={lam}, d={d}")
    return (count, None)


def _check_associativity(triple, ctx):
    lam, mu, nu = triple
    if not verify_recursion(lam, mu, nu, ctx.trunc, ctx):
        return (1, f"associativity fails at {lam},{mu},{nu}")
    return (1, None)


def _classes(ctx, sample, seed):
    return list(all_partitions(ctx))


def _pieri_items(ctx, sample, seed):
    return [(lam, i) for lam in all_partitions(ctx) for i in range(1, ctx.width + 1)]


def _pairs(ctx, sample, seed):
    return list(combinations_with_replacement(all_partitions(ctx), 2))


def _constants(ctx, sample, seed):
    parts = all_partitions(ctx)
    return _cube((parts, parts, parts, range(ctx.trunc + 1)), sample, seed)


def _triples(ctx, sample, seed):
    parts = all_partitions(ctx)
    return _cube((parts, parts, parts), sample, seed)


# name -> (items(ctx, sample, seed), check(item, ctx)); the order is the CLI's.
SUITES = {
    "seidel": (_classes, _check_seidel),
    "pieri-equiv": (_pieri_items, _check_pieri_equiv),
    "gr3n-rule": (_pairs, _check_gr3n_rule),
    "dmin": (_pairs, _check_dmin),
    "reductions": (_constants, _check_reductions),
    "positivity": (_pairs, _check_positivity),
    "duality": (_constants, _check_duality),
    "curve-nbhd": (_classes, _check_curve_nbhd),
    "associativity": (_triples, _check_associativity),
}
SUITE_NAMES = tuple(SUITES)


def _prepare(name, k, n, trunc, sample, seed):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    if name == "seidel" and trunc is None:
        trunc = max(k, n - k) + 1
    if name == "gr3n-rule" and k != 3:
        raise ValueError("the gr3n-rule suite needs k = 3")
    ctx = context(k, n, trunc)
    build, check = SUITES[name]
    items = build(ctx, sample, seed)
    # the cube suites have drawn their sample by index already
    if sample is not None and sample < len(items):
        items = random.Random(seed).sample(items, sample)
    return items, check, ctx


def _cube(axes, sample, seed):
    """The product of the axes in row-major order, or a seeded sample of it.

    A sample is drawn by index and only the drawn indices are decoded, so
    the cube is never built.  random.sample picks by position, so this is
    the same sample as drawing from the full list with the same seed.
    """
    total = math.prod(len(axis) for axis in axes)
    if sample is None or sample >= total:
        return list(iterproduct(*axes))
    items = []
    for index in random.Random(seed).sample(range(total), sample):
        item = []
        for axis in reversed(axes):
            index, j = divmod(index, len(axis))
            item.append(axis[j])
        items.append(tuple(reversed(item)))
    return items


def _chunks(total: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) bounds covering range(total), one per worker.

    Workers are capped at the CPUs this process may run on.
    """
    jobs = min(jobs, len(os.sched_getaffinity(0)))
    if jobs <= 1 or total <= 1:
        return [(0, total)]
    step = (total + jobs - 1) // jobs
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_chunk(bounds):
    lo, hi = bounds
    items = _WORKER["items"]
    check = _WORKER["check"]
    ctx = _WORKER["ctx"]
    count = failures = 0
    first = None
    for item in items[lo:hi]:
        c, fail = check(item, ctx)
        count += c
        if fail is not None:
            failures += 1
            if first is None:
                first = fail
    return (count, failures, first)


def run_suite(
    name: str,
    k: int,
    n: int,
    trunc: int | None = None,
    jobs: int = 1,
    sample: int | None = None,
    seed: int = 0,
) -> dict:
    """Run one verification sweep and report counts plus the first failure."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    items, check, ctx = _prepare(name, k, n, trunc, sample, seed)
    chunks = _chunks(len(items), jobs)
    results = []
    _WORKER.update(items=items, check=check, ctx=ctx)
    try:
        if len(chunks) > 1:
            # check one item so the engine tables are built before forking
            check(items[0], ctx)
            import multiprocessing  # here, so runs without a pool never load it

            with multiprocessing.get_context("fork").Pool(len(chunks)) as pool:
                results = pool.map(_run_chunk, chunks)
        else:
            results = [_run_chunk(chunks[0])]
    finally:
        _WORKER.clear()
    count = sum(r[0] for r in results)
    failures = sum(r[1] for r in results)
    first = next((r[2] for r in results if r[2] is not None), None)
    return {
        "suite": name,
        "k": k,
        "n": n,
        "items": len(items),
        "checks": count,
        "failures": failures,
        "first_failure": first,
        "ok": failures == 0,
    }
