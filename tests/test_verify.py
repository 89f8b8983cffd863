import ast
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest

import qkgr
from qkgr.element import QKElement
from qkgr.gr3n import _qlr_gr3_pair
from qkgr.partitions import GrContext, all_partitions, context, seidel_power, validate
from qkgr.qk_engine import LiftEngine, _reduce_third_row
from qkgr.seidel import T, duality, reduce_deg_one, reduce_dual_shift, reduce_higher, reduce_lemred
from qkgr.verify import _WORKER, SUITE_NAMES, SUITES, _chunks, _prepare, run_suite


def test_no_assert_statements_in_package():
    # consistency checks must survive python -O, which strips asserts
    for path in sorted(Path(qkgr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"assert in {path.name} at lines {lines}"


def _is_cache_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def test_only_three_process_lifetime_caches():
    # per-ring state belongs to the GrContext; these three stay functools
    # caches because the benchmark's tracer reads their cache_info()
    found = set()
    for path in sorted(Path(qkgr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache_decorator(d) for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
    assert found == {"partitions._build_context", "partitions.seidel_up1", "pieri.quantum_terms"}


def test_chunks_capped_at_cpu_count():
    cpus = len(os.sched_getaffinity(0))
    chunks = _chunks(1596, 10_000)
    assert 1 <= len(chunks) <= cpus
    assert chunks[0][0] == 0 and chunks[-1][1] == 1596
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert all(lo < hi for lo, hi in chunks)
    assert _chunks(1596, 1) == [(0, 1596)]
    assert _chunks(0, 4) == [(0, 0)]


@pytest.mark.parametrize("cpus, want", [(3, 3), (None, 1)])
def test_chunks_without_sched_getaffinity(monkeypatch, cpus, want):
    # macOS has no os.sched_getaffinity; the cap falls back to os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    chunks = _chunks(1596, 10_000)
    assert len(chunks) == want
    assert chunks[0][0] == 0 and chunks[-1][1] == 1596
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("suite", ["reductions", "pieri-equiv", "associativity"])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_sample_matches_list_based_sample(suite, seed):
    ctx = context(2, 5)
    parts = all_partitions(ctx)
    if suite == "pieri-equiv":
        cube = [(lam, i) for lam in parts for i in range(1, ctx.width + 1)]
    elif suite == "associativity":
        cube = [(a, b, c) for a in parts for b in parts for c in parts]
    else:
        cube = [
            (a, b, c, d)
            for a in parts
            for b in parts
            for c in parts
            for d in range(ctx.trunc + 1)
        ]
    size = min(50, len(cube) // 2)
    items, _, _ = _prepare(suite, 2, 5, None, size, seed)
    assert items == random.Random(seed).sample(cube, size)
    full, _, _ = _prepare(suite, 2, 5, None, None, seed)
    assert list(full) == cube


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_samples_by_one_rule(suite):
    k, n = (3, 6) if suite == "gr3n-rule" else (2, 5)
    full, _, _ = _prepare(suite, k, n, None, None, 5)
    items, _, _ = _prepare(suite, k, n, None, 7, 5)
    assert items == random.Random(5).sample(full, 7)
    capped, _, _ = _prepare(suite, k, n, None, len(full), 5)
    assert list(capped) == list(full)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            _prepare(suite, k, n, None, bad, 5)


def test_sample_does_not_build_the_cube():
    # the Gr(5,10) reductions cube holds 96 M tuples
    tracemalloc.start()
    try:
        items, _, _ = _prepare("reductions", 5, 10, None, 100, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(items) == 100
    parts = set(all_partitions(context(5, 10)))
    assert all(lam in parts and mu in parts and nu in parts for lam, mu, nu, _ in items)
    assert peak < 5_000_000
    # nor does a sweep without a sample: Gr(3,7) holds 214,375 tuples
    tracemalloc.start()
    try:
        items, _, _ = _prepare("reductions", 3, 7, None, None, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(items) == 214_375
    assert peak < 1_000_000


# (items, checks) per suite on Gr(2,5), gr3n-rule on Gr(3,6), recorded
# before the sweep driver became a suite table; positivity re-pinned when it
# began checking every q-degree for every k (it had 36 checks).
PINNED_COUNTS = {
    "seidel": (10, 40),
    "pieri-equiv": (30, 90),
    "gr3n-rule": (210, 21000),
    "dmin": (55, 110),
    "reductions": (4000, 12331),
    "positivity": (55, 85),
    "curve-nbhd": (10, 42),
    "associativity": (1000, 1000),
}


def _counts(report):
    assert report["ok"], report
    return (report["items"], report["checks"])


def test_suite_counts_are_pinned():
    assert tuple(PINNED_COUNTS) == SUITE_NAMES
    for suite, want in PINNED_COUNTS.items():
        k, n = (3, 6) if suite == "gr3n-rule" else (2, 5)
        assert _counts(run_suite(suite, k, n)) == want, suite
    sampled = {
        "seidel": (4, 16),
        "pieri-equiv": (10, 30),
        "dmin": (20, 40),
        "positivity": (20, 34),
        "curve-nbhd": (4, 18),
        "reductions": (50, 158),
        "associativity": (50, 50),
    }
    for suite, want in sampled.items():
        # a sample of s items sweeps exactly s items
        assert _counts(run_suite(suite, 2, 5, sample=want[0], seed=3)) == want, suite
    assert _counts(run_suite("gr3n-rule", 3, 6, sample=5, seed=3)) == (5, 500)
    assert _counts(run_suite("reductions", 2, 5, jobs=2)) == (4000, 12331)
    # the benchmark's pinned count, third-row zero signals compared as 0
    assert _counts(run_suite("reductions", 3, 6)) == (40000, 169296)
    # degrees above k + 1 reach the s-step rewrite with s > k
    assert _counts(run_suite("reductions", 2, 5, trunc=5)) == (6000, 19225)


def test_seidel_suite_needs_trunc_max_k_n_minus_k():
    # T^n = q^k and H^n = q^(n-k): the bound is tight on both sides
    for k, n in [(2, 6), (4, 6), (3, 7), (1, 5), (5, 6)]:
        bound = max(k, n - k)
        assert run_suite("seidel", k, n, trunc=bound)["ok"], (k, n)
        if bound > min(k, n - k) + 1:
            with pytest.raises(ValueError, match="seidel suite needs trunc"):
                run_suite("seidel", k, n, trunc=bound - 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_reductions_report_the_first_broken_rewrite(monkeypatch, jobs):
    # a deg-one rewrite that drops q without touching the classes is wrong
    # exactly where the constant changes; the sweep must name the first one
    monkeypatch.setattr(
        "qkgr.verify.reduce_deg_one",
        lambda lam, mu, nu, d, ctx: (lam, mu, nu, d - 1) if d >= 1 else None,
    )
    rep = run_suite("reductions", 2, 5, jobs=jobs)
    assert (rep["items"], rep["checks"], rep["failures"]) == (4000, 13747, 238)
    assert rep["first_failure"] == "deg-one broke (0, 0),(0, 0),(0, 0),q^1: 0 -> 1"


def _identity(x, ctx):
    return x


_lift_product = LiftEngine._product


def _beyond_trunc(self, lam, mu):
    # the true product plus one term at q^(trunc+1), which a truncated
    # comparison cannot see
    got = _lift_product(self, lam, mu).terms
    return QKElement({**got, ((0,) * self.ctx.k, self.ctx.trunc + 1): 1})


# (suite, k, n, the names in qkgr.verify to replace, their replacement, the
# failure message's prefix): one case per message of every suite.  The
# reductions cases break every rewrite but deg-one, which
# test_reductions_report_the_first_broken_rewrite breaks, so a table that
# drops a rule's output fails a case; third-row breaks into the zero signal
# d' < 0, which must be compared as 0, not skipped.  The higher case runs
# on Gr(3,6), where s = 2 and 3 both apply.  The dmin case hides its break
# above the truncation.  On Gr(2,4), n = 2k, so H := T keeps H^n = q^(n-k)
# and breaks only HT = q
_BROKEN = [
    ("seidel", 2, 5, "T", _identity, "T^5 != q^2 Id at "),
    ("seidel", 2, 5, "H", _identity, "H^5 != q^3 Id at "),
    ("seidel", 2, 4, "H", T, "HT != q Id at "),
    ("seidel", 2, 5, "seidel_power", lambda lam, r, ctx: (9, lam), "engine product disagrees with T "),
    ("pieri-equiv", 2, 5, "quantum_pieri_restated", lambda lam, i, ctx: QKElement(), "pieri forms differ at "),
    (
        "pieri-equiv", 2, 5, "quantum_pieri quantum_pieri_restated",
        lambda lam, i, ctx: QKElement.basis(lam, 2), "pieri q-degree above 1 at ",
    ),
    ("pieri-equiv", 2, 5, "classical_pieri", lambda lam, i, ctx: QKElement(), "q=0 part differs from "),
    ("gr3n-rule", 3, 6, "_qlr_gr3_pair", lambda lam, mu, ctx: lambda nu, d: 7, "rule 7 != oracle "),
    ("dmin", 2, 5, "_d_min", lambda lam, mu, ctx: (-1, 0), "d_min -1 != smallest power "),
    ("dmin", 2, 5, "seidel_up", lambda lam, p, ctx: lam, "shift identity fails at "),
    ("dmin", 2, 5, "LiftEngine._product", _beyond_trunc, "shift identity fails at "),
    ("reductions", 2, 5, "duality", lambda lam, mu, nu, d, ctx: (lam, nu, mu, d), "duality broke "),
    (
        "reductions", 2, 5, "reduce_lemred",
        lambda lam, mu, nu, d, variant, ctx, i=1: (lam, mu, nu, d - 1) if d >= 1 else None, "lemred-1 broke ",
    ),
    ("reductions", 3, 6, "reduce_higher", lambda lam, mu, nu, d, s, ctx: (lam, mu, nu, d - s), "higher-2 broke "),
    (
        "reductions", 2, 5, "reduce_dual_shift",
        lambda lam, mu, nu, d, ctx: (lam, mu, nu, d - 1) if d >= 1 else None, "dual-shift broke ",
    ),
    (
        "reductions", 3, 6, "_reduce_third_row",
        lambda lam, mu, nu, d, ctx: (lam, mu, nu, -1), "third-row broke ",
    ),
    ("positivity", 2, 5, "positivity_check", lambda *args: False, "sign violation at "),
    ("curve-nbhd", 2, 5, "rim_peel", _identity, "rim peeling differs from row/column removal at "),
    ("curve-nbhd", 2, 5, "gamma_special", lambda mv, d, ctx: None, "two-pointed neighborhood mismatch at "),
    ("associativity", 2, 5, "_verify_recursion", lambda *args: False, "associativity fails at "),
]


@pytest.mark.parametrize(
    "suite, k, n, names, broken, prefix", _BROKEN, ids=[f"{c[0]}-{c[3].split()[0]}" for c in _BROKEN]
)
def test_every_suite_reports_its_failures(monkeypatch, suite, k, n, names, broken, prefix):
    for name in names.split():
        monkeypatch.setattr(f"qkgr.verify.{name}", broken)
    rep = run_suite(suite, k, n)
    assert not rep["ok"]
    assert rep["failures"] >= 1
    assert rep["first_failure"].startswith(prefix), rep["first_failure"]


def _reference_rewrites(lam, mu, nu, d, ctx):
    # one call per item and rule, as the checker made them before its tables
    out = [(f"lemred-{v}", reduce_lemred(lam, mu, nu, d, v, ctx, i=1)) for v in (1, 2, 3, 4)]
    out.append(("duality", duality(lam, mu, nu, d, ctx)))
    out.append(("deg-one", reduce_deg_one(lam, mu, nu, d, ctx)))
    out += [(f"higher-{s}", reduce_higher(lam, mu, nu, d, s, ctx)) for s in range(2, min(d, ctx.k) + 1)]
    out.append(("dual-shift", reduce_dual_shift(lam, mu, nu, d, ctx)))
    if ctx.k == 3:
        out.append(("third-row", _reduce_third_row(lam, mu, nu, d, ctx)))
    return out


class _LoggedTerms:
    """A product's terms whose every ``get`` is logged as (lam, mu, nu, d)."""

    def __init__(self, log, pair, terms):
        self.log, self.pair, self.terms = log, pair, terms

    def get(self, key, default=None):
        self.log[-1].append((*self.pair, *key))
        return self.terms.get(key, default)


@pytest.mark.parametrize(
    "k, n, trunc, sample",
    [(2, 5, None, None), (2, 5, 5, None), (2, 6, None, None), (3, 6, None, None), (3, 7, None, 2000)],
)
def test_reductions_tables_match_the_per_item_rewrites(monkeypatch, k, n, trunc, sample):
    # the checker reads most rewrites from tables keyed by the arguments the
    # rule reads; it must compare what one call per item and rule gives.  The
    # sample's random order changes lam almost every item, rebuilding the
    # per-lam state.  Every constant the checker reads is logged, per item:
    # the item's own, then each rewrite it compares, in order
    log = []
    items, check = SUITES["reductions"]

    def logged_check(item, ctx):
        log.append([])
        return check(item, ctx)

    def logged_product(self, lam, mu):
        return SimpleNamespace(terms=_LoggedTerms(log, (lam, mu), _lift_product(self, lam, mu).terms))

    monkeypatch.setitem(SUITES, "reductions", (items, logged_check))
    monkeypatch.setattr(LiftEngine, "_product", logged_product)
    rep = run_suite("reductions", k, n, trunc=trunc, sample=sample, seed=1)
    items, _, ctx = _prepare("reductions", k, n, trunc, sample, 1)
    assert rep["ok"] and rep["items"] == len(items) == len(log)
    keyed = {}

    def same(key, value):
        assert keyed.setdefault(key, value) == value, key

    for item, got in zip(items, log):
        lam, mu, nu, d = item
        want = _reference_rewrites(*item, ctx)
        assert got == [item] + [tup for _, tup in want if tup is not None], item
        # the keys are sound: a rule's result depends only on its key
        for rule, tup in want:
            if rule == "duality":
                assert (tup[0], tup[3]) == (lam, d)
                same((rule, mu, nu), tup[1:3])
            elif rule == "third-row":
                assert tup[:2] == ((lam[0] - lam[2], lam[1] - lam[2], 0), (mu[0] - mu[2], mu[1] - mu[2], 0))
                same((rule, lam[2] + mu[2], nu), (tup[2], tup[3] - d))
            elif rule == "dual-shift":
                # d is read only as d >= 1 and d - 1
                assert d >= 1 or tup is None, item
                assert tup is None or tup[3] == d - 1, item
                if d >= 1:
                    same((rule, lam, mu, nu), tup and tup[:3])
            else:
                assert tup is None or tup[1] == mu, (rule, item)
                same((rule, lam, nu, d), tup and (tup[0], tup[2], tup[3]))


def test_reductions_call_each_rewrite_once_per_key(monkeypatch):
    ctx = context(3, 6)
    basis = len(all_partitions(ctx))
    rewrites = ["reduce_lemred", "reduce_deg_one", "reduce_higher", "duality", "reduce_dual_shift"]
    calls = dict.fromkeys([*rewrites, "_reduce_third_row", "_strip_third_row", "_product"], 0)
    sizes = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        if name != "_product":
            monkeypatch.setattr(qkgr.verify, name, counted(name, getattr(qkgr.verify, name)))
    monkeypatch.setattr(LiftEngine, "_product", counted("_product", _lift_product))
    items, check = SUITES["reductions"]

    def measured(item, ctx):
        # the tables' size after each item's misses
        got = check(item, ctx)
        _, mu_free, per_mu, gets = _WORKER["lam"]
        per_lam = len(mu_free) + sum(1 + len(reads[2]) for reads in per_mu.values()) + len(gets)
        sizes.append(per_lam + len(_WORKER["duals"]) + len(_WORKER["third"]))
        return got

    monkeypatch.setitem(SUITES, "reductions", (items, measured))
    rep = run_suite("reductions", 3, 6)
    assert _counts(rep) == (40_000, 169_296)
    assert calls == {
        "reduce_lemred": 8_000,
        "reduce_deg_one": 2_000,
        "reduce_higher": 2_000,
        "duality": 400,
        "reduce_dual_shift": 8_000,  # once per (lam, mu, nu), 40,000 when per item
        "_reduce_third_row": 140,
        "_strip_third_row": 800,  # twice per (lam, mu); 80,000 when per item
        # once per lam and factor pair; 130,096 when read per compared rewrite
        "_product": 2_917,
    }
    assert _WORKER == {}
    # per lam: (nu, d), per mu the getters and the dual-shift rewrites by
    # nu, and the getters by factor pair; duality: (mu, nu); third-row:
    # (lam_3 + mu_3, nu)
    assert len(sizes) == 40_000
    bound = basis * (ctx.trunc + 1) + basis * (basis + 1) + 2 * basis**2 + (2 * ctx.width + 1) * basis
    assert max(sizes) <= bound

    def raising(*args):
        raise ArithmeticError("broken rewrite")

    monkeypatch.setattr(qkgr.verify, "reduce_dual_shift", raising)
    with pytest.raises(ArithmeticError, match="broken rewrite"):
        run_suite("reductions", 3, 6)
    assert _WORKER == {}


def test_gr3n_rule_calls_the_rule_as_the_unhoisted_loop(monkeypatch):
    # the checker binds the rule once per stripped pair and run, and reads
    # it on a grid of (nu2, e); the grid must hold every (lam2, mu2, nu2,
    # d + dd) of a loop that calls seidel_power(nu, -s) for every pair and
    # evaluates the rule there, and the checks stay one per (nu, d)
    ctx = context(3, 7)
    binds, calls = [], set()

    def recorded(lam, mu, c):
        binds.append((lam, mu))
        rule = _qlr_gr3_pair(lam, mu, c)

        def evaluated(nu, d):
            calls.add((lam, mu, nu, d, c))
            return rule(nu, d)

        return evaluated

    monkeypatch.setattr("qkgr.verify._qlr_gr3_pair", recorded)
    rep = run_suite("gr3n-rule", 3, 7)
    assert rep["ok"] and rep["checks"] == 110_250
    want, shifts, pairs = set(), set(), set()
    for lam, mu in combinations_with_replacement(all_partitions(ctx), 2):
        s = lam[2] + mu[2]
        shifts.add(min(s, 2))
        lam2, mu2 = (lam[0] - lam[2], lam[1] - lam[2], 0), (mu[0] - mu[2], mu[1] - mu[2], 0)
        pairs.add((lam2, mu2))
        for nu in all_partitions(ctx):
            dd, nu2 = seidel_power(nu, -s, ctx)
            for d in range(ctx.trunc + 1):
                want.add((lam2, mu2, nu2, d + dd, ctx))
    assert shifts == {0, 1, 2}
    assert sorted(binds) == sorted(pairs)  # each stripped pair once
    assert want <= calls
    assert len(calls) == len(pairs) * len(all_partitions(ctx)) * 9  # e in -4..4


def _planted(fault):
    """_qlr_gr3_pair with fault(nu, d, value) applied to each value."""

    def bound(lam, mu, ctx):
        rule = _qlr_gr3_pair(lam, mu, ctx)
        return lambda nu, d: fault(nu, d, rule(nu, d))

    return bound


# (fault, {n: (checks, failures)} on Gr(3, n), first failure): recorded when
# the checker evaluated the rule once per check.  The first two are zero
# everywhere the true rule is, at degrees 2 and -1 (the latter read after a
# shift down); a checker that read the rule only at d in {0, 1} passes them
_FAULTS = [
    (
        lambda nu, d, v: 1 if d == 2 and nu[0] == 2 else v,
        {6: (6_119, 209), 7: (39_410, 626)},
        "rule 1 != oracle 0 at (0, 0, 0),(0, 0, 0),(2, 0, 0),q^2",
    ),
    (
        lambda nu, d, v: 1 if d == -1 and nu[1] == 1 else v,
        {6: (9_120, 155), 7: (41_236, 510)},
        "rule 1 != oracle 0 at (0, 0, 0),(1, 1, 1),(1, 0, 0),q^0",
    ),
    (
        lambda nu, d, v: v + 1 if d == 1 and nu == (3, 2, 1) else v,
        {6: (11_228, 210), 7: (62_906, 630)},
        "rule 1 != oracle 0 at (0, 0, 0),(0, 0, 0),(3, 2, 1),q^1",
    ),
    (
        lambda nu, d, v: v - 1 if d == 0 and nu[2] == 1 else v,
        {6: (3_219, 210), 7: (11_167, 630)},
        "rule -1 != oracle 0 at (0, 0, 0),(0, 0, 0),(1, 1, 1),q^0",
    ),
    (lambda nu, d, v: 7, {6: (210, 210), 7: (630, 630)}, "rule 7 != oracle 1 at (0, 0, 0),(0, 0, 0),(0, 0, 0),q^0"),
]


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("fault, counts, first", _FAULTS, ids=["d2", "d-1", "d1", "d0", "seven"])
def test_gr3n_rule_reports_planted_faults_as_the_pointwise_check(monkeypatch, fault, counts, first, n):
    monkeypatch.setattr("qkgr.verify._qlr_gr3_pair", _planted(fault))
    for jobs in (1, 2):
        rep = run_suite("gr3n-rule", 3, n, jobs=jobs)
        assert (rep["checks"], rep["failures"], rep["first_failure"]) == (*counts[n], first), jobs


def test_gr3n_rule_run_leaves_no_worker_state(monkeypatch):
    assert run_suite("gr3n-rule", 3, 6)["ok"]
    assert _WORKER == {}
    bound = []

    def raising(lam, mu, ctx):
        # the 20th stripped pair the run binds, after its tables have filled
        bound.append((lam, mu))
        if len(bound) == 20:
            raise ArithmeticError("broken rule")
        return _qlr_gr3_pair(lam, mu, ctx)

    monkeypatch.setattr("qkgr.verify._qlr_gr3_pair", raising)
    with pytest.raises(ArithmeticError, match="broken rule"):
        run_suite("gr3n-rule", 3, 6)
    assert len(bound) == 20
    assert _WORKER == {}


@pytest.mark.parametrize("suite, k, n", [("seidel", 2, 5), ("seidel", 4, 7), ("dmin", 3, 6)])
def test_shift_checks_run_the_lift(monkeypatch, suite, k, n):
    # a lift whose Pieri steps lose their q-terms is wrong on these rings.
    # The shifting product_basis solves O^(1^k) * O^lam as the unit in lam's
    # column, which applies no Pieri step, and for k = 3 ctx.engine is the
    # recipe; only the unshifted lift of each run can see the break
    pieri = LiftEngine._apply_pieri

    def classical(self, i, vec):
        return {t: c for t, c in pieri(self, i, vec).items() if t < self._stride}

    monkeypatch.setattr(LiftEngine, "_apply_pieri", classical)
    assert run_suite(suite, k, n)["failures"] > 0


def test_context_is_one_object_per_ring():
    assert context(3, 8) is context(3, 8)
    assert context(3, 8) is context(3, 8, None) is context(3, 8, 4) is context(3, 8, trunc=4)
    assert context(3, 8, 5) is not context(3, 8)
    for k, n in [(2, 5), (3, 6), (4, 8)]:
        eng = context(k, n).engine
        assert eng is context(k, n).engine
        assert type(eng) is LiftEngine
    for _ in range(2):
        with pytest.raises(ValueError):
            context(3, 3)
    ctx = context(3, 8)
    assert ctx == GrContext(3, 8, 4) and hash(ctx) == hash(GrContext(3, 8, 4))
    assert repr(ctx) == "GrContext(k=3, n=8, trunc=4)"
    assert type(ctx.width) is int and ctx.width == 5
    assert "width" in vars(ctx)


@pytest.mark.parametrize(
    "suite, k, n",
    [
        ("gr3n-rule", 3, 6),
        ("reductions", 3, 6),
        ("reductions", 2, 6),
        ("positivity", 3, 6),
        ("associativity", 3, 6),
        ("dmin", 4, 9),
    ],
)
def test_sweeps_do_not_validate_per_check(monkeypatch, suite, k, n):
    # items come from ctx.basis, so the checkers call the unvalidated cores;
    # validate is counted in every qkgr namespace that binds it
    if suite == "dmin":
        # a cold dmin run's storage-layer misses (Pieri rows, orbits, both
        # engines' interned classes: 1,002 on Gr(4,9)) exceed 1% of its
        # 16,002 checks on any ring in reach, so the counted run is the
        # second; its fresh direct engine still interns each of 126 classes
        run_suite(suite, k, n)
    calls = []

    def counted(lam, ctx):
        calls.append(lam)
        return validate(lam, ctx)

    bound = [
        name for name, mod in sys.modules.items() if name.startswith("qkgr.") and vars(mod).get("validate") is validate
    ]
    assert {"qkgr.partitions", "qkgr.qk_engine", "qkgr.gr3n"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(f"{name}.validate", counted)
    rep = run_suite(suite, k, n)
    assert rep["ok"] and rep["checks"] >= 500
    assert len(calls) < rep["checks"] / 100, len(calls)


def test_sweeps_leave_one_context_per_ring():
    # qlr_gr3 takes the sweep's own context instead of looking up its ring
    script = (
        "import gc, json\n"
        "from qkgr.partitions import GrContext\n"
        "from qkgr.verify import run_suite\n"
        "run_suite('gr3n-rule', 3, 6)\n"
        "run_suite('reductions', 3, 6)\n"
        "gc.collect()\n"
        "live = [(c.k, c.n, c.trunc) for c in gc.get_objects() if isinstance(c, GrContext)]\n"
        "print(json.dumps(live))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[3, 6, 4]]


def _fresh(script):
    """Run script in a fresh interpreter and parse its output as JSON.

    A child's ru_maxrss starts at the RSS its parent had when it forked, so
    a small launcher forks the interpreter that runs the script, and a peak
    it reads is its own, not this test process's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    launch = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
    proc = subprocess.run([sys.executable, "-c", launch, script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_positivity_sweep_keeps_no_pair_products():
    # the sweep reads each of its 31,878 pair products once; cached in
    # ctx.engine they peaked at 104 MB, read uncached the run peaks at 20 MB
    got = _fresh(
        "import json, resource\n"
        "from qkgr.verify import run_suite\n"
        "rep = run_suite('positivity', 5, 10)\n"
        "rep['peak_mb'] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps(rep))\n"
    )
    assert (got["items"], got["checks"], got["failures"], got["ok"]) == (31_878, 784_229, 0, True)
    assert got["peak_mb"] < 40, got["peak_mb"]


def test_gr3n_rule_sweep_keeps_no_pair_products():
    # 1,596 pairs; ctx.engine's pair cache keeps only the stripped pairs the
    # rule delegates to (231 here), not every pair; the representatives'
    # products stay in their solved columns, outside the pair cache
    got = _fresh(
        "import json\n"
        "from qkgr.partitions import context\n"
        "from qkgr.verify import run_suite\n"
        "rep = run_suite('gr3n-rule', 3, 8)\n"
        "print(json.dumps([rep['items'], rep['ok'], len(context(3, 8).engine._elements)]))\n"
    )
    assert got[:2] == [1596, True]
    assert got[2] < 400, got[2]
