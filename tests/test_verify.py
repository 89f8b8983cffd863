import ast
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qkgr
from qkgr.element import QKElement
from qkgr.partitions import GrContext, all_partitions, context, validate
from qkgr.qk_engine import LiftEngine
from qkgr.seidel import T
from qkgr.verify import SUITE_NAMES, _chunks, _prepare, run_suite


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


@pytest.mark.parametrize("suite", ["reductions", "duality", "associativity"])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_sample_matches_list_based_sample(suite, seed):
    ctx = context(2, 5)
    parts = all_partitions(ctx)
    if suite == "associativity":
        cube = [(a, b, c) for a in parts for b in parts for c in parts]
    else:
        cube = [
            (a, b, c, d)
            for a in parts
            for b in parts
            for c in parts
            for d in range(ctx.trunc + 1)
        ]
    items, _, _ = _prepare(suite, 2, 5, None, 50, seed)
    assert items == random.Random(seed).sample(cube, 50)
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
    "duality": (4000, 4000),
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
        "duality": (50, 50),
        "associativity": (50, 50),
    }
    for suite, want in sampled.items():
        # a sample of s items sweeps exactly s items
        assert _counts(run_suite(suite, 2, 5, sample=want[0], seed=3)) == want, suite
    assert _counts(run_suite("gr3n-rule", 3, 6, sample=5, seed=3)) == (5, 500)
    assert _counts(run_suite("reductions", 2, 5, jobs=2)) == (4000, 12331)
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


# (suite, k, n, the names in qkgr.verify to replace, their replacement, the
# failure message's prefix): one case per message of every suite but
# reductions, whose message test_reductions_report_the_first_broken_rewrite
# already pins.  On Gr(2,4), n = 2k, so H := T keeps H^n = q^(n-k) and
# breaks only HT = q
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
    ("gr3n-rule", 3, 6, "qlr_gr3", lambda lam, mu, nu, d, ctx: 7, "rule 7 != oracle "),
    ("dmin", 2, 5, "d_min", lambda lam, mu, ctx: (-1, 0), "d_min -1 != smallest power "),
    ("dmin", 2, 5, "seidel_up", lambda lam, p, ctx: lam, "shift identity fails at "),
    ("positivity", 2, 5, "positivity_check", lambda *args: False, "sign violation at "),
    ("duality", 2, 5, "dual", _identity, "duality broke "),
    ("curve-nbhd", 2, 5, "rim_peel", _identity, "rim peeling differs from row/column removal at "),
    ("curve-nbhd", 2, 5, "gamma_special", lambda mv, d, ctx: None, "two-pointed neighborhood mismatch at "),
    ("associativity", 2, 5, "verify_recursion", lambda *args: False, "associativity fails at "),
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
    # the validation memo changes neither identity nor spelling
    ctx = context(3, 8)
    for lam in ctx.basis:
        validate(lam, ctx)
    assert ctx.valid
    assert ctx == GrContext(3, 8, 4) and hash(ctx) == hash(GrContext(3, 8, 4))
    assert repr(ctx) == "GrContext(k=3, n=8, trunc=4)"
    assert type(ctx.width) is int and ctx.width == 5
    assert "width" in vars(ctx)


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
