"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion; timing bounds are asserted where the criterion states one.
"""

import random
import time

from qkgr.element import QKElement
from qkgr.gr3n import qlr_gr3
from qkgr.partitions import all_partitions, context
from qkgr.pieri import quantum_pieri
from qkgr.qk_engine import (
    Gr3Engine,
    LiftEngine,
    giambelli_lift_general,
    pairing,
    product_basis,
    verify_recursion,
)
from qkgr.seidel import reduce_higher, reduction_trace
from qkgr.verify import run_suite

EX52 = QKElement(
    {
        ((5, 4, 3, 2), 0): 1,
        ((2, 2, 1, 0), 1): 1,
        ((3, 1, 1, 0), 1): 1,
        ((3, 2, 0, 0), 1): 1,
        ((3, 2, 1, 0), 1): -3,
    }
)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_example_52_fixture():
    start = time.perf_counter()
    ctx = context(4, 9)
    via_pieri = quantum_pieri((4, 3, 2, 1), 4, ctx)
    via_lift = LiftEngine(ctx).product_basis((4, 0, 0, 0), (4, 3, 2, 1))
    elapsed = time.perf_counter() - start
    ok = via_pieri == EX52 and via_lift == EX52 and elapsed < 1.0
    report(1, ok, f"O^4 * O^(4,3,2,1) in QK(Gr(4,9)), both engines, {elapsed:.3f}s")


def test_criterion_2_example_74_table():
    expected = {
        0: lambda w, c: w - 2 * c,
        1: lambda w, c: -3 * (w - 2 * c),
        2: lambda w, c: 3 * (w - 2 * c),
        3: lambda w, c: -(w - 2 * c),
    }
    checked = 0
    ok = True
    for c in range(1, 5):
        for j in range(4):
            for n in range(2 * c + 4, 3 * c + j + 1):
                u = n - j - c
                if not c < u <= 2 * c:
                    continue
                got = qlr_gr3((2 * c, c, 0), (u, c, 0), (2 * c, c, 0), 1, context(3, n))
                ok = ok and got == expected[j](n - 3, c)
                checked += 1
            # u outside the four-value window vanishes
            n = 3 * c + 4
            for u in range(c + 1, 2 * c + 1):
                if n - u - c > 3:
                    ok = ok and qlr_gr3((2 * c, c, 0), (u, c, 0), (2 * c, c, 0), 1, context(3, n)) == 0
                    checked += 1
    for c in (1, 2, 3, 4):
        got = qlr_gr3((2 * c, c, 0), (2 * c, c, 0), (2 * c, c, 0), 1, context(3, 3 * c + 3))
        ok = ok and got == -c
        checked += 1
    report(2, ok, f"Example 7.4 values, {checked} exact matches incl. the -c diagonal")


def test_criterion_3_seidel_relations():
    start = time.perf_counter()
    ok = True
    rings = 0
    for n in range(2, 9):
        for k in range(1, n):
            rep = run_suite("seidel", k, n)
            ok = ok and rep["ok"]
            rings += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, ok, f"T^n=q^k, H^n=q^(n-k), HT=q, engine T-column on {rings} rings, {elapsed:.1f}s")


def test_criterion_4_gr3n_rule_vs_oracle():
    start = time.perf_counter()
    ok = True
    total = 0
    for n in range(6, 11):
        rep = run_suite("gr3n-rule", 3, n)
        ok = ok and rep["ok"] and rep["failures"] == 0
        total += rep["checks"]
    elapsed = time.perf_counter() - start
    report(4, ok, f"closed rule vs oracle, n=6..10, {total} tuples, 0 mismatches, {elapsed:.0f}s")


def test_criterion_5_d_min():
    ok = True
    total = 0
    for k, n in [(2, 6), (3, 7)]:
        rep = run_suite("dmin", k, n)
        ok = ok and rep["ok"]
        total += rep["checks"]
    report(5, ok, f"smallest q-power formula and shift identity on {total} checks")


def test_criterion_6_reduction_suite():
    ok = True
    total = 0
    for k, n in [(2, 5), (2, 6), (3, 6), (3, 7)]:
        rep = run_suite("reductions", k, n)
        ok = ok and rep["ok"]
        total += rep["checks"]

    # the Gr(6,17) chains, checked symbolically through the reduction formulas
    ctx = context(6, 17, trunc=7)
    lam = mu = (10, 8, 6, 4, 2, 0)
    jump = reduce_higher(lam, mu, (3, 3, 2, 1, 0, 0), 3, 3, ctx)
    ok = ok and jump == ((9, 7, 5, 4, 2, 0), mu, (11, 11, 10, 9, 8, 8), 0)
    steps = [
        (s["lhs"], s["rhs"], s["nu"], s["deg"])
        for s in reduction_trace(lam, mu, (6, 2, 2, 1, 0, 0), 3, ctx)
    ]
    ok = ok and steps == [
        ((9, 7, 5, 3, 1, 0), (10, 8, 6, 4, 2, 0), (8, 4, 4, 3, 2, 2), 2),
        ((9, 7, 5, 3, 1, 0), (9, 7, 5, 3, 1, 0), (10, 6, 6, 5, 4, 4), 1),
        ((9, 7, 5, 4, 2, 0), (9, 7, 5, 3, 1, 0), (11, 11, 10, 9, 9, 4), 0),
    ]
    report(6, ok, f"all reduction rules on 4 rings ({total} applications) + Gr(6,17) chains")


def test_criterion_7_positivity():
    # the positivity suite checks every q-degree of every product, for every k
    rings = [(3, n) for n in range(6, 11)] + [(2, 4), (2, 5), (2, 6), (4, 8), (4, 9)]
    ok = True
    total = 0
    for k, n in rings:
        rep = run_suite("positivity", k, n)
        ok = ok and rep["ok"]
        total += rep["checks"]
    report(7, ok, f"signed nonnegativity on {total} constants in {len(rings)} rings")


def test_criterion_8_ring_axioms_and_pairing():
    ok = True

    # unit and genuine commutativity
    c25 = context(2, 5)
    lf = c25.engine
    parts25 = all_partitions(c25)
    for lam in parts25:
        ok = ok and product_basis(lam, (0, 0), c25) == QKElement.basis(lam)
        for mu in parts25:
            if lam != (0, 0) != mu:
                ok = ok and lf.product_via_column(lam, mu) == lf.product_via_column(mu, lam)
    c37 = context(3, 7)
    g3 = Gr3Engine(c37)  # uncached, so both orders run the recipe
    parts37 = all_partitions(c37)
    for lam in parts37:
        ok = ok and g3.product_basis(lam, (0, 0, 0)) == QKElement.basis(lam)
    rng = random.Random(0)
    for _ in range(400):
        lam, mu = rng.choice(parts37), rng.choice(parts37)
        ok = ok and g3.product_basis(lam, mu) == g3.product_basis(mu, lam)

    # associativity: exhaustive triples in Gr(2,5), sampled in Gr(3,7)
    for a in parts25:
        for b in parts25:
            for c in parts25:
                ok = ok and verify_recursion(a, b, c, c25.trunc, c25)
    for _ in range(250):
        a, b, c = (rng.choice(parts37) for _ in range(3))
        ok = ok and verify_recursion(a, b, c, c37.trunc, c37)

    # duality pairing chi(O^lam . xi_mu) = delta, exhaustively for n <= 7
    pairs = 0
    for n in range(2, 8):
        for k in range(1, n):
            ctx = context(k, n)
            parts = all_partitions(ctx)
            for lam in parts:
                for mu in parts:
                    pairs += 1
                    ok = ok and pairing(lam, mu, ctx) == (1 if lam == mu else 0)

    # truncation stabilization: D and D+2 give identical tables
    for k, n in [(2, 5), (3, 6)]:
        base = context(k, n)
        t1 = giambelli_lift_general(base)
        t2 = giambelli_lift_general(context(k, n, base.trunc + 2))
        for lam, mu, elem in t1.entries():
            ok = ok and t2.engine.product_basis(lam, mu) == elem
    report(8, ok, f"unit/commutativity/associativity, {pairs} pairings, stabilization")


def test_criterion_9_curve_neighborhoods():
    ok = True
    checks = 0
    for n in range(2, 10):
        for k in range(1, n):
            rep = run_suite("curve-nbhd", k, n)
            ok = ok and rep["ok"]
            checks += rep["checks"]
    report(9, ok, f"rim peeling and two-pointed neighborhood identities, {checks} checks")
