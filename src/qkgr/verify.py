"""Exhaustive verification sweeps, shared by the CLI and the test suite.

Each suite prepares a deterministic sequence of work items plus a checker,
runs the checker over every item (optionally split across processes), and
returns a report with the number of checks, the failure count and the
first failure.  Sweeps are embarrassingly parallel; results are merged in
chunk order so output is identical for any job count.  Every item is a
basis shape or a shift or dual of one, so checkers call unvalidated cores.

A sweep's memory grows with what its engines keep, so each checker reads a
product the way its item order reuses it.  ``gr3n-rule`` and
``positivity`` read each pair product once, through the uncached
``LiftEngine._shifted``: only the solved columns, which hold the orbit
representatives' products, stay in ``ctx.engine``.  ``reductions``,
``associativity`` and the shifted side of ``dmin`` reread products,
through the caching ``LiftEngine._product``.

Each check reads what it compares in one step, and each rule or rewrite
is evaluated once per key it depends on.  ``reductions`` keeps one state
per lam, dropped when lam changes: the rewrites that pass mu through
(lemred-1..4, deg-one, higher-s) by (nu, d); the ``terms.get`` of every
product it reads, bound once per factor pair; and per mu the getters of
O^lam * O^mu and of the stripped pair's product, and the dual-shift
rewrites by nu, stored without their degree d - 1 and read only for
d >= 1.  Duality is read from a per-run table by (mu, nu), third-row by
(lam_3 + mu_3, nu).  The tables hold at most |basis|*(trunc+1) +
|basis|*(|basis|+1) + 2*|basis|^2 + (2*width+1)*|basis| entries.
``gr3n-rule`` compares a pair's product with the rule in one dict
comparison.  The rule (``gr3n._qlr_gr3_pair``) depends only on the
stripped pair; it is evaluated once per run for each stripped pair, at
every basis nu2 and every degree a check can read, and its nonzero values
are kept.  A pair with s = lam_3 + mu_3 reads them through T^s, by a list
built once per run for each s.  Seidel powers and shifts are single reads
of the orbit table (``partitions.seidel_power``).
"""

from __future__ import annotations

import math
import os
import random
from collections.abc import Sequence
from itertools import chain, combinations_with_replacement, compress, islice
from itertools import product as iterproduct

from .curve_nbhd import curve_neighborhood, gamma_special, rim_peel
from .element import QKElement
from .gr3n import _qlr_gr3_pair, positivity_check
from .partitions import all_partitions, context, dual, seidel_power, seidel_up
from .pieri import classical_pieri, quantum_pieri, quantum_pieri_restated
from .qk_engine import (
    LiftEngine,
    _rank,
    _reduce_third_row,
    _strip_third_row,
    _verify_recursion,
)
from .seidel import (
    H,
    T,
    _d_min,
    duality,
    reduce_deg_one,
    reduce_dual_shift,
    reduce_higher,
    reduce_lemred,
)


# _run_chunk reads the items, the checker and the context from _WORKER so
# that a fork-based pool can reach them without pickling.  The run's own
# LiftEngine sits there too: its _via_column solves a pair as typed, with no
# Seidel shift, so a shift identity reads its unshifted side from it, not
# from the shifting ctx.engine, which outlives the run.  gr3n-rule and
# positivity read each product once, through its uncached _shifted, and leave
# only the solved columns; dmin, reductions and associativity reread, and
# fill its pair cache through _product.  gr3n-rule's tables (see
# _check_gr3n_rule): "grid" is the cells (nu2, e) the rule is read at,
# "rules" maps a stripped pair to its nonzero values there, and "up" maps s
# to the (nu, d) each cell is checked at.  reductions' state (see
# _check_reductions): "lam" is (lam, {(nu, d): the rewrites that pass mu
# through}, {mu: [O^lam * O^mu's getter, the stripped pair's getter or None,
# {nu: (the dual-shift product's getter, nu') or None}]}, _Getters), replaced
# when lam changes; "duals" maps (mu, nu) to (dual nu, dual mu); "third" maps
# (lam_3 + mu_3, nu) to (nu down s, its q-power).
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
    d, p = seidel_power(lam, 1, ctx)
    if _WORKER["direct"]._via_column(lam, (1,) * k) != QKElement.basis(p, d):
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


def _grid(ctx):
    """The cells (nu2, e) the rule is read at, as three parallel tuples:
    slot (the cell's position), nu2 and e.  They are every basis nu2 and
    every e from the least q-power of T^(-2*width) on the basis to trunc.
    The q-power of T^-s only falls as s grows, and s = lam_3 + mu_3 is at
    most 2*width, so this is every e = d + dd a check can read.  Built once
    per run and kept in _WORKER; the rule tables share its slot ints."""
    grid = _WORKER["grid"]
    if grid is None:
        low = min(seidel_power(nu, -2 * ctx.width, ctx)[0] for nu in ctx.basis)
        cells = [(nu2, e) for nu2 in ctx.basis for e in range(low, ctx.trunc + 1)]
        grid = _WORKER["grid"] = (tuple(range(len(cells))), *zip(*cells))
    return grid


def _rule_values(lam2, mu2, ctx):
    """The stripped pair's rule on the grid, as a flat tuple (slot, value,
    ...) of its nonzero values.  Built once per run for each stripped pair
    and kept in _WORKER."""
    rules = _WORKER["rules"]
    got = rules.get((lam2, mu2))
    if got is None:
        slots, nus, degrees = _grid(ctx)
        values = list(map(_qlr_gr3_pair(lam2, mu2, ctx), nus, degrees))
        got = rules[lam2, mu2] = tuple(chain.from_iterable(compress(zip(slots, values), values)))
    return got


def _keys_up(s, ctx):
    """Per grid slot (nu2, e), the key (nu, d) a check with shift s reads
    it at, T^-s O^nu = q^(e - d) O^nu2, or None where d leaves 0..trunc.
    Built once per run for each s and kept in _WORKER."""
    up = _WORKER["up"]
    got = up.get(s)
    if got is None:
        slots, _, degrees = _grid(ctx)
        span, low = len(slots) // len(ctx.basis), degrees[0]
        got = up[s] = [None] * len(slots)
        for p, nu2 in enumerate(ctx.basis):
            q, nu = seidel_power(nu2, s, ctx)
            for d in range(ctx.trunc + 1):
                got[p * span + d - q - low] = (nu, d)
    return got


def _check_gr3n_rule(pair, ctx):
    """Compare the pair's product with the rule at every (nu, d) in one
    step: the stripped pair's rule values, read at nu down s = lam_3 + mu_3
    and degree d + dd.  On a difference, the count and message are those of
    the first differing (nu, d) in basis order, then d."""
    lam, mu = pair
    values = iter(_rule_values(_strip_third_row(lam), _strip_third_row(mu), ctx))
    keys = _keys_up(lam[2] + mu[2], ctx)
    got = {key: v for slot, v in zip(values, values) if (key := keys[slot])}
    want = ctx.engine._shifted(lam, mu).terms
    degrees = ctx.trunc + 1
    if got == want:
        return (len(ctx.basis) * degrees, None)
    order = {nu: p for p, nu in enumerate(ctx.basis)}
    count, nu, d = min(
        (order[nu] * degrees + d + 1, nu, d)
        for nu, d in got.keys() | want.keys()
        if got.get((nu, d), 0) != want.get((nu, d), 0)
    )
    return (count, f"rule {got.get((nu, d), 0)} != oracle {want.get((nu, d), 0)} at {lam},{mu},{nu},q^{d}")


def _check_dmin(pair, ctx):
    lam, mu = pair
    d, r = _d_min(lam, mu, ctx)
    # unshifted, with the factor of lower _rank solved as the row: the
    # cheaper of the two direct solves
    row, col = sorted((lam, mu), key=_rank)
    prod = _WORKER["direct"]._via_column(row, col)
    if prod.min_q() != d:
        return (1, f"d_min {d} != smallest power {prod.min_q()} at {lam},{mu}")
    # The shifted side stays on the caching _product: shifted pairs repeat
    # (6,980 distinct in the 22,155 items of Gr(4,10)); the uncached _shifted
    # peaked at 39 MB instead of 54 but took more CPU in 5 of 5 paired runs.
    # Compared untruncated: a product stops at q^min(k, n-k), below trunc.
    shifted = ctx.engine._product(seidel_up(lam, r, ctx), seidel_up(mu, ctx.n - r, ctx)).q_shift(d)
    if shifted != prod:
        return (1, f"shift identity fails at {lam},{mu} (r={r})")
    return (2, None)


_LEMRED = tuple((f"lemred-{variant}", variant) for variant in (1, 2, 3, 4))


def _mu_free(lam, mu, nu, d, ctx):
    """The rewrites that pass mu through and apply, as (rule, lam', nu', d'):
    lemred-1..4, then deg-one and higher-s, two tuples in rewrite order."""
    lemred = [(rule, reduce_lemred(lam, mu, nu, d, v, ctx, i=1)) for rule, v in _LEMRED]
    shifts = [("deg-one", reduce_deg_one(lam, mu, nu, d, ctx))]
    for s in range(2, min(d, ctx.k) + 1):  # reduce_higher needs s <= k
        shifts.append((f"higher-{s}", reduce_higher(lam, mu, nu, d, s, ctx)))

    def applying(rewrites):
        return tuple((rule, t[0], t[2], t[3]) for rule, t in rewrites if t is not None)

    return applying(lemred), applying(shifts)


def _broke(rule, item, orig, got):
    lam, mu, nu, d = item
    return f"{rule} broke {lam},{mu},{nu},q^{d}: {orig} -> {got}"


class _Getters(dict):
    """Factor pair -> its product's ``terms.get``, bound on first read."""

    def __init__(self, product):
        super().__init__()
        self.product = product

    def __missing__(self, pair):
        got = self[pair] = self.product(*pair).terms.get
        return got


def _check_reductions(item, ctx):
    """Compare the constant with each of its one-step rewrites, in order,
    up to the first that differs; a rewrite is looked up only once every
    comparison before it has passed.  The state it reads is in _WORKER."""
    lam, mu, nu, d = item
    state = _WORKER["lam"]
    if state[0] != lam:
        state = _WORKER["lam"] = (lam, {}, {}, _Getters(ctx.engine._product))
    _, mu_free, per_mu, gets = state
    reads = per_mu.get(mu)
    if reads is None:
        reads = per_mu[mu] = [gets[lam, mu], None, {}]
    orig = reads[0]((nu, d), 0)
    rewrites = mu_free.get((nu, d))
    if rewrites is None:
        rewrites = mu_free[nu, d] = _mu_free(lam, mu, nu, d, ctx)
    count = 0
    for rule, lam1, nu1, d1 in rewrites[0]:  # lemred-1..4
        count += 1
        got = gets[lam1, mu]((nu1, d1), 0)  # a degree outside 0..trunc reads 0
        if got != orig:
            return (count, _broke(rule, item, orig, got))
    duals = _WORKER["duals"]
    pair = duals.get((mu, nu))
    if pair is None:
        pair = duals[mu, nu] = duality(lam, mu, nu, d, ctx)[1:3]
    count += 1
    got = gets[lam, pair[0]]((pair[1], d), 0)
    if got != orig:
        return (count, _broke("duality", item, orig, got))
    for rule, lam1, nu1, d1 in rewrites[1]:  # deg-one, higher-s
        count += 1
        got = gets[lam1, mu]((nu1, d1), 0)
        if got != orig:
            return (count, _broke(rule, item, orig, got))
    if d >= 1:  # reduce_dual_shift reads d only as d >= 1 and d - 1
        dual_shift = reads[2]
        if nu not in dual_shift:
            tup = reduce_dual_shift(lam, mu, nu, d, ctx)
            dual_shift[nu] = tup and (gets[tup[0], tup[1]], tup[2])
        tup = dual_shift[nu]
        if tup is not None:
            count += 1
            got = tup[0]((tup[1], d - 1), 0)
            if got != orig:
                return (count, _broke("dual-shift", item, orig, got))
    if ctx.k == 3:
        third, s = _WORKER["third"], lam[2] + mu[2]
        down = third.get((s, nu))
        if down is None:
            tup = _reduce_third_row(lam, mu, nu, d, ctx)
            down = third[s, nu] = (tup[2], tup[3] - d)
        stripped = reads[1]
        if stripped is None:
            stripped = reads[1] = gets[_strip_third_row(lam), _strip_third_row(mu)]
        count += 1
        got = stripped((down[0], d + down[1]), 0)
        if got != orig:
            return (count, _broke("third-row", item, orig, got))
    return (count, None)


def _check_positivity(pair, ctx):
    lam, mu = pair
    count = 0
    for (nu, d), c in ctx.engine._shifted(lam, mu).terms.items():
        count += 1
        if not positivity_check(lam, mu, nu, d, c, ctx):
            return (count, f"sign violation at {lam},{mu},{nu},q^{d}: {c}")
    return (count, None)


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
    if not _verify_recursion(lam, mu, nu, ctx.trunc, ctx):
        return (1, f"associativity fails at {lam},{mu},{nu}")
    return (1, None)


class _Cube(Sequence):
    """The product of the axes in row-major order, without building it.

    ``random.sample`` draws by position, so a sample of the cube decodes
    only the drawn indices and equals the same draw from the full list.
    """

    def __init__(self, *axes):
        self.axes = axes

    def __len__(self):
        return math.prod(len(axis) for axis in self.axes)

    def __getitem__(self, index):
        item = []
        for axis in reversed(self.axes):
            index, j = divmod(index, len(axis))
            item.append(axis[j])
        return tuple(reversed(item))

    def __iter__(self):
        return iterproduct(*self.axes)


def _pieri_items(ctx):
    return _Cube(all_partitions(ctx), range(1, ctx.width + 1))


def _pairs(ctx):
    return list(combinations_with_replacement(all_partitions(ctx), 2))


def _constants(ctx):
    parts = all_partitions(ctx)
    return _Cube(parts, parts, parts, range(ctx.trunc + 1))


def _triples(ctx):
    parts = all_partitions(ctx)
    return _Cube(parts, parts, parts)


# name -> (items(ctx), check(item, ctx)); the order is the CLI's.
SUITES = {
    "seidel": (all_partitions, _check_seidel),
    "pieri-equiv": (_pieri_items, _check_pieri_equiv),
    "gr3n-rule": (_pairs, _check_gr3n_rule),
    "dmin": (_pairs, _check_dmin),
    "reductions": (_constants, _check_reductions),
    "positivity": (_pairs, _check_positivity),
    "curve-nbhd": (all_partitions, _check_curve_nbhd),
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
    if name == "seidel" and ctx.trunc < max(k, n - k):
        # T^n = q^k and H^n = q^(n-k) must fit under the truncation
        raise ValueError(
            f"the seidel suite needs trunc >= max(k, n-k) = {max(k, n - k)}, got {trunc}"
        )
    build, check = SUITES[name]
    items = build(ctx)
    if sample is not None and sample < len(items):
        return random.Random(seed).sample(items, sample), check, ctx
    return items, check, ctx


def _chunks(total: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) bounds covering range(total), one per worker.

    Workers are capped at the CPUs this process may run on, or at the CPU
    count where the platform cannot tell (macOS has no sched_getaffinity).
    """
    affinity = getattr(os, "sched_getaffinity", None)
    jobs = min(jobs, len(affinity(0)) if affinity else os.cpu_count() or 1)
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
    for item in islice(items, lo, hi):
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
    _WORKER.update(
        items=items, check=check, ctx=ctx, direct=LiftEngine(ctx),
        grid=None, rules={}, up={}, lam=(None, {}, {}, {}), duals={}, third={},
    )
    try:
        if len(chunks) > 1:
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
