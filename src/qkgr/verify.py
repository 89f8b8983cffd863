"""Exhaustive verification sweeps, shared by the CLI and the test suite.

Each suite prepares a deterministic sequence of work items and builds its
run's check from the ring, runs the check over every item (optionally
split across processes), and returns a report with the number of checks,
the failure count and the first failure.  Sweeps are embarrassingly
parallel; results are merged in chunk order so output is identical for
any job count.  Every item is a basis shape or a shift or dual of one, so
checks call unvalidated cores.

A sweep's memory grows with what its engines keep, so each check reads a
product the way its item order reuses it.  ``gr3n-rule`` and
``positivity`` read each pair product once, through the uncached
``LiftEngine._shifted``: only the solved columns, which hold the orbit
representatives' products, stay in ``ctx.engine``.  ``reductions``,
``associativity`` and the shifted side of ``dmin`` reread products,
through the caching ``LiftEngine._product``.  The tables a check keeps
belong to a per-run object (``_Gr3nRule``, ``_Reductions``).
"""

from __future__ import annotations

import math
import os
import random
from collections.abc import Sequence
from functools import partial
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


# The run's items and check, read by _run_chunk; a forked pool inherits them.
_WORKER: dict = {}


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


def _pairs(ctx):
    return list(combinations_with_replacement(all_partitions(ctx), 2))


def _seidel(ctx):
    """T^n = q^k, H^n = q^(n-k), HT = q, and T against an unshifted LiftEngine."""
    k, n = ctx.k, ctx.n
    if ctx.trunc < max(k, n - k):  # T^n = q^k and H^n = q^(n-k) must fit under it
        raise ValueError(f"the seidel suite needs trunc >= max(k, n-k) = {max(k, n - k)}, got {ctx.trunc}")
    direct = LiftEngine(ctx)

    def check(lam):
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
        if direct._via_column(lam, (1,) * k) != QKElement.basis(p, d):
            return (1, f"engine product disagrees with T closed form at {lam}")
        return (4, None)

    return all_partitions(ctx), check


def _pieri_equiv(ctx):
    def check(item):
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

    return _Cube(all_partitions(ctx), range(1, ctx.width + 1)), check


class _Table(dict):
    """A dict that fills a missing key with fill(key) on first read."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


def _rule_values(ctx, grid, stripped):
    """The stripped pair's nonzero rule values on the grid, flat: (slot, value, ...)."""
    slots, nus, degrees = grid
    values = list(map(_qlr_gr3_pair(*stripped, ctx), nus, degrees))
    return tuple(chain.from_iterable(compress(zip(slots, values), values)))


def _keys_up(ctx, grid, s):
    """Per grid slot (nu2, e), the key (nu, d) a check with shift s reads it
    at, T^-s O^nu = q^(e - d) O^nu2, or None where d leaves 0..trunc."""
    slots, _, degrees = grid
    span, low = len(slots) // len(ctx.basis), degrees[0]
    keys = [None] * len(slots)
    for p, nu2 in enumerate(ctx.basis):
        q, nu = seidel_power(nu2, s, ctx)
        for d in range(ctx.trunc + 1):
            keys[p * span + d - q - low] = (nu, d)
    return keys


class _Gr3nRule:
    """gr3n-rule's run: the rule bound once per stripped pair.

    ``grid`` holds the cells (nu2, e) the rule is read at, as three parallel
    tuples: slot (the cell's position), nu2 and e.  They are every basis nu2
    and every e from the least q-power of T^(-2*width) on the basis to
    trunc.  The q-power of T^-s only falls as s grows, and s = lam_3 + mu_3
    is at most 2*width, so this is every e = d + dd a check can read.
    ``rules`` (stripped pair -> ``_rule_values``) and ``up`` (s ->
    ``_keys_up``) fill on first read; their fills hold no reference to the
    run, so the run is freed as soon as ``run_suite`` drops its check.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        low = min(seidel_power(nu, -2 * ctx.width, ctx)[0] for nu in ctx.basis)
        cells = [(nu2, e) for nu2 in ctx.basis for e in range(low, ctx.trunc + 1)]
        self.grid = (tuple(range(len(cells))), *zip(*cells))
        self.rules = _Table(partial(_rule_values, ctx, self.grid))
        self.up = _Table(partial(_keys_up, ctx, self.grid))

    def _check(self, pair):
        """Compare the pair's product with the rule at every (nu, d) at once:
        the stripped pair's rule values, read at nu down s = lam_3 + mu_3 and
        degree d + dd.  On a difference, the count and message are those of
        the first differing (nu, d) in basis order, then d."""
        lam, mu = pair
        ctx = self.ctx
        values = iter(self.rules[_strip_third_row(lam), _strip_third_row(mu)])
        keys = self.up[lam[2] + mu[2]]
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


def _dmin(ctx):
    direct = LiftEngine(ctx)  # the run's own: _via_column solves a pair as typed

    def check(pair):
        lam, mu = pair
        d, r = _d_min(lam, mu, ctx)
        # unshifted, with the factor of lower _rank solved as the row: the
        # cheaper of the two direct solves
        row, col = sorted((lam, mu), key=_rank)
        prod = direct._via_column(row, col)
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

    return _pairs(ctx), check


def _mu_free(lam, mu, nu, d, ctx):
    """The rewrites that pass mu through and apply, as (rule, lam', nu', d'):
    lemred-1..4, then deg-one and higher-s, two tuples in rewrite order."""
    lemred = [(f"lemred-{v}", reduce_lemred(lam, mu, nu, d, v, ctx, i=1)) for v in (1, 2, 3, 4)]
    shifts = [("deg-one", reduce_deg_one(lam, mu, nu, d, ctx))]
    for s in range(2, min(d, ctx.k) + 1):  # reduce_higher needs s <= k
        shifts.append((f"higher-{s}", reduce_higher(lam, mu, nu, d, s, ctx)))

    def applying(rewrites):
        return tuple((rule, t[0], t[2], t[3]) for rule, t in rewrites if t is not None)

    return applying(lemred), applying(shifts)


def _broke(rule, item, orig, got):
    lam, mu, nu, d = item
    return f"{rule} broke {lam},{mu},{nu},q^{d}: {orig} -> {got}"


class _PerMu:
    """What reductions reads for one (lam, mu); see ``_Reductions``."""

    __slots__ = ("get", "stripped", "dual_shift")

    def __init__(self, get):
        self.get, self.stripped, self.dual_shift = get, None, {}


class _Reductions:
    """reductions' run: each rewrite evaluated once per key its rule reads.

    Per lam, replaced when lam changes: ``mu_free``, (nu, d) -> the rewrites
    that pass mu through and apply; ``gets``, factor pair -> its product's
    ``terms.get``; ``per_mu``, mu -> a ``_PerMu``: O^lam * O^mu's getter,
    the stripped pair's (bound when third-row first reads it), and
    dual-shift by nu as (getter, nu') or None, without its degree d - 1
    (read only for d >= 1).  Per run: ``duals``, (mu, nu) -> (dual nu, dual
    mu), and ``third``, (lam_3 + mu_3, nu) -> (nu down s, its q-power).  At
    most |basis|*(trunc+1) + |basis|*(|basis|+1) + 2*|basis|^2 +
    (2*width+1)*|basis| entries in all.
    """

    def __init__(self, ctx):
        self.ctx, self.lam, self.duals, self.third = ctx, None, {}, {}

    def _check(self, item):
        """Compare the constant with its one-step rewrites in order, up to the
        first that differs, looking each up only once every earlier one passed."""
        lam, mu, nu, d = item
        ctx = self.ctx
        if self.lam != lam:
            self.lam, self.mu_free = lam, {}
            self.gets = gets = _Table(lambda pair: ctx.engine._product(*pair).terms.get)
            self.per_mu = _Table(lambda mu: _PerMu(gets[lam, mu]))
        gets = self.gets
        reads = self.per_mu[mu]
        orig = reads.get((nu, d), 0)
        rewrites = self.mu_free.get((nu, d))
        if rewrites is None:
            rewrites = self.mu_free[nu, d] = _mu_free(lam, mu, nu, d, ctx)
        lemred, shifts = rewrites
        count = 0
        for rule, lam1, nu1, d1 in lemred:
            count += 1
            got = gets[lam1, mu]((nu1, d1), 0)  # a degree outside 0..trunc reads 0
            if got != orig:
                return (count, _broke(rule, item, orig, got))
        duals = self.duals.get((mu, nu))
        if duals is None:
            duals = self.duals[mu, nu] = duality(lam, mu, nu, d, ctx)[1:3]
        mu1, nu1 = duals
        count += 1
        got = gets[lam, mu1]((nu1, d), 0)
        if got != orig:
            return (count, _broke("duality", item, orig, got))
        for rule, lam1, nu1, d1 in shifts:
            count += 1
            got = gets[lam1, mu]((nu1, d1), 0)
            if got != orig:
                return (count, _broke(rule, item, orig, got))
        if d >= 1:  # reduce_dual_shift reads d only as d >= 1 and d - 1
            if nu not in reads.dual_shift:
                tup = reduce_dual_shift(lam, mu, nu, d, ctx)
                reads.dual_shift[nu] = None if tup is None else (gets[tup[0], tup[1]], tup[2])
            shifted = reads.dual_shift[nu]
            if shifted is not None:
                get, nu1 = shifted
                count += 1
                got = get((nu1, d - 1), 0)
                if got != orig:
                    return (count, _broke("dual-shift", item, orig, got))
        if ctx.k == 3:
            down = self.third.get((lam[2] + mu[2], nu))
            if down is None:
                _, _, nu1, d1 = _reduce_third_row(lam, mu, nu, d, ctx)
                down = self.third[lam[2] + mu[2], nu] = (nu1, d1 - d)
            if reads.stripped is None:
                reads.stripped = gets[_strip_third_row(lam), _strip_third_row(mu)]
            nu1, dd = down
            count += 1
            got = reads.stripped((nu1, d + dd), 0)
            if got != orig:
                return (count, _broke("third-row", item, orig, got))
        return (count, None)


def _positivity(ctx):
    def check(pair):
        lam, mu = pair
        count = 0
        for (nu, d), c in ctx.engine._shifted(lam, mu).terms.items():
            count += 1
            if not positivity_check(lam, mu, nu, d, c, ctx):
                return (count, f"sign violation at {lam},{mu},{nu},q^{d}: {c}")
        return (count, None)

    return _pairs(ctx), check


def _curve_nbhd(ctx):
    def check(lam):
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

    return all_partitions(ctx), check


def _associativity(ctx):
    def check(triple):
        lam, mu, nu = triple
        if not _verify_recursion(lam, mu, nu, ctx.trunc, ctx):
            return (1, f"associativity fails at {lam},{mu},{nu}")
        return (1, None)

    parts = all_partitions(ctx)
    return _Cube(parts, parts, parts), check


def _gr3n_rule(ctx):
    return _pairs(ctx), _Gr3nRule(ctx)._check


def _reductions(ctx):
    parts = all_partitions(ctx)
    return _Cube(parts, parts, parts, range(ctx.trunc + 1)), _Reductions(ctx)._check


# name -> suite(ctx), which returns the run's items and its check: item ->
# (checks made, the first failure or None).  The order is the CLI's.
SUITES = {
    "seidel": _seidel,
    "pieri-equiv": _pieri_equiv,
    "gr3n-rule": _gr3n_rule,
    "dmin": _dmin,
    "reductions": _reductions,
    "positivity": _positivity,
    "curve-nbhd": _curve_nbhd,
    "associativity": _associativity,
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
    items, check = SUITES[name](ctx)
    if sample is not None and sample < len(items):
        items = random.Random(seed).sample(items, sample)
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
    check = _WORKER["check"]
    count = failures = 0
    first = None
    for item in islice(_WORKER["items"], lo, hi):
        c, fail = check(item)
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
    items, check, _ = _prepare(name, k, n, trunc, sample, seed)
    chunks = _chunks(len(items), jobs)
    _WORKER.update(items=items, check=check)
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
