import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from qkgr.element import QKElement
from qkgr.partitions import GrContext, all_partitions, context, dual, seidel_orbit, seidel_power, size, validate
from qkgr.pieri import _quantum_terms, quantum_pieri, quantum_terms
from qkgr.qk_engine import (
    Gr3Engine,
    LiftEngine,
    euler_char,
    giambelli_gr3,
    giambelli_lift_general,
    ideal_sheaf,
    pairing,
    product,
    product_basis,
    reduce_third_row,
    structure_constant,
    verify_recursion,
)
from qkgr.seidel import d_min

C24 = context(2, 4)
C36 = context(3, 6)


def test_unit():
    for lam in all_partitions(C36):
        assert product_basis((0, 0, 0), lam, C36) == QKElement.basis(lam)
        assert structure_constant(lam, (0, 0, 0), lam, 0, C36) == 1


def test_rectangle_square_is_q_squared():
    assert product_basis((2, 2), (2, 2), C24) == QKElement.basis((0, 0), 2)


def test_t_closed_form_from_engine():
    for lam in all_partitions(C36):
        d, p = seidel_power(lam, 1, C36)
        assert product_basis((1, 1, 1), lam, C36) == QKElement.basis(p, d)


def test_structure_constant_examples():
    c49 = context(4, 9)
    assert structure_constant((4, 0, 0, 0), (4, 3, 2, 1), (3, 2, 1, 0), 1, c49) == -3
    # Gr(3,6) diagonal with lam = (2,1,0): the closed rule gives -1
    assert structure_constant((2, 1, 0), (2, 1, 0), (2, 1, 0), 1, C36) == -1
    # a list nu reads the same coefficient as the tuple
    assert structure_constant((2, 1, 0), (2, 1, 0), [2, 1, 0], 1, C36) == -1
    with pytest.raises(ValueError):
        structure_constant((1, 0), (1, 0), (1, 1), 99, C24)
    with pytest.raises(ValueError):
        structure_constant((1, 0), (1, 0), (3, 0), 0, C24)


def test_giambelli_gr3_recipe_shapes():
    assert giambelli_gr3((0, 0, 0), C36) == [(1, ())]
    assert giambelli_gr3((2, 0, 0), C36) == [(1, (2,))]
    recipe = giambelli_gr3((2, 1, 0), C36)
    assert recipe[0] == (1, (2, 0))
    assert len(recipe) == 1 + 2 * (C36.width - 2 + 1)
    with pytest.raises(ValueError):
        giambelli_gr3((2, 1, 1), C36)
    with pytest.raises(ValueError):
        giambelli_gr3((1, 0), C24)


@pytest.mark.parametrize("n", [6, 7])
def test_giambelli_recipe_reproduces_basis(n):
    # evaluating the recipe on the unit through quantum Pieri leaves no residue
    ctx = context(3, n)
    eng = Gr3Engine(ctx)
    for mu in all_partitions(ctx):
        if mu[2] != 0:
            continue
        got = eng.product_basis((0, 0, 0), mu)
        assert got == QKElement.basis(mu), mu


def test_gr3_recipe_matches_lift_on_every_ordered_pair():
    # Gr3Engine is uncached and expands its right factor, so both orders
    # run the recipe against the other factor
    ctx = context(3, 6)
    g3, lf = Gr3Engine(ctx), LiftEngine(ctx)
    for lam in all_partitions(ctx):
        for mu in all_partitions(ctx):
            want = lf.product_via_column(lam, mu)
            assert g3.product_basis(lam, mu) == want, (lam, mu)


def test_reduce_third_row():
    lam, mu, nu = (2, 2, 1), (1, 1, 1), (1, 1, 0)
    red = reduce_third_row(lam, mu, nu, 1, C36)
    assert red[0] == (1, 1, 0) and red[1] == (0, 0, 0)
    want = structure_constant(lam, mu, nu, 1, C36)
    if red[3] < 0:
        assert want == 0
    else:
        assert structure_constant(*red, C36) == want
    # identity when both third rows vanish
    assert reduce_third_row((2, 1, 0), (1, 1, 0), (2, 2, 1), 1, C36) == (
        (2, 1, 0),
        (1, 1, 0),
        (2, 2, 1),
        1,
    )


def test_reduce_third_row_parity():
    rng = random.Random(3)
    parts = all_partitions(C36)
    for _ in range(300):
        lam, mu, nu = (rng.choice(parts) for _ in range(3))
        d = rng.randrange(0, C36.trunc + 1)
        l2, m2, n2, d2 = reduce_third_row(lam, mu, nu, d, C36)
        before = (size(lam) + size(mu) + size(nu) + d * 6) % 2
        after = (size(l2) + size(m2) + size(n2) + d2 * 6) % 2
        assert before == after


@pytest.mark.parametrize("n", [6, 7, 8])
def test_engines_agree(n):
    ctx = context(3, n)
    g3, lf = Gr3Engine(ctx), LiftEngine(ctx)
    parts = all_partitions(ctx)
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            assert g3.product_basis(lam, mu) == lf.product_via_column(lam, mu), (lam, mu)


def test_lift_pieri_rows_are_pieri():
    # the lifted operator for a special class, solved with no Seidel shift,
    # is the Pieri operator itself; the shifted product agrees with it
    for ctx in (context(2, 5), context(4, 8)):
        lf = LiftEngine(ctx)
        for i in range(1, ctx.width + 1):
            row = (i,) + (0,) * (ctx.k - 1)
            for mu in all_partitions(ctx):
                got = lf.product_via_column(row, mu)
                assert got == quantum_pieri(mu, i, ctx).truncated(ctx.trunc)
                assert ctx.engine.product_basis(row, mu) == got


def test_product_bilinear():
    a = QKElement({((1, 0), 0): 2, ((1, 1), 1): -1})
    b = QKElement({((2, 0), 0): 1})
    got = product(a, b, C24)
    want = {}
    for (nu, d), c in product_basis((1, 0), (2, 0), C24).terms.items():
        want[nu, d] = want.get((nu, d), 0) + 2 * c
    for (nu, d), c in product_basis((1, 1), (2, 0), C24).terms.items():
        want[nu, d + 1] = want.get((nu, d + 1), 0) - c
    assert got == QKElement(want).truncated(C24.trunc)


def test_ideal_sheaf_examples():
    assert ideal_sheaf((2, 2), C24) == QKElement({((0, 0), 0): 1, ((1, 0), 0): -1})
    assert ideal_sheaf((0, 0), C24) == QKElement.basis((2, 2))


def test_euler_char():
    assert euler_char(QKElement.basis((2, 1))) == {0: 1}
    assert euler_char(QKElement()) == {}
    assert euler_char(QKElement({((1, 0), 0): 2, ((0, 0), 2): 3})) == {0: 2, 2: 3}
    # chi of the classical product is 1 whenever the Schubert varieties meet,
    # i.e. lam fits inside eta for the pair (lam, dual eta)
    parts = all_partitions(C24)
    for lam in parts:
        for eta in parts:
            prod = product_basis(lam, dual(eta, C24), C24)
            chi = sum(prod.q_slice(0).values())
            assert chi == (1 if all(a <= b for a, b in zip(lam, eta)) else 0)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_pairing_is_delta(k, n):
    ctx = context(k, n)
    parts = all_partitions(ctx)
    for lam in parts:
        for mu in parts:
            assert pairing(lam, mu, ctx) == (1 if lam == mu else 0)


def test_verify_recursion():
    rng = random.Random(5)
    parts = all_partitions(context(2, 5))
    ctx = context(2, 5)
    for _ in range(60):
        lam, mu, nu = (rng.choice(parts) for _ in range(3))
        assert verify_recursion(lam, mu, nu, ctx.trunc, ctx)
    assert verify_recursion((0, 0, 0), (2, 1, 0), (3, 3, 1), C36.trunc, C36)


def test_classical_positivity():
    # q = 0 constants carry sign (-1)^(|lam|+|mu|+|nu|)
    for kk, nn in [(2, 5), (3, 6)]:
        ctx = context(kk, nn)
        parts = all_partitions(ctx)
        for lam in parts:
            for mu in parts:
                for nu, c in product_basis(lam, mu, ctx).q_slice(0).items():
                    assert (-1) ** (size(lam) + size(mu) + size(nu)) * c >= 0


def test_truncation_stabilization():
    # every ring with n <= 8: widening D = min(k, n-k)+1 by two changes no
    # product, and the widened table needs exactly q^min(k, n-k)
    for nn in range(2, 9):
        for kk in range(1, nn):
            base = context(kk, nn)
            wide = context(kk, nn, base.trunc + 2)
            t1 = giambelli_lift_general(base)
            t2 = giambelli_lift_general(wide)
            for lam, mu, elem in t1.entries():
                assert t2.product_basis(lam, mu) == elem, (kk, nn, lam, mu)
            assert t2.max_q_degree() == min(kk, nn - kk), (kk, nn)


def test_table_dump_deterministic():
    table = giambelli_lift_general(C24)
    buf1, buf2 = io.StringIO(), io.StringIO()
    table.dump_jsonl(buf1)
    table.dump_jsonl(buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().strip().split("\n")
    assert len(lines) == 6 * 7 // 2
    rec = json.loads(lines[0])
    assert set(rec) == {"lhs", "rhs", "terms"}
    got = QKElement({(tuple(t["partition"]), t["q"]): t["coeff"] for t in rec["terms"]})
    assert got == product_basis(tuple(rec["lhs"]), tuple(rec["rhs"]), C24)


def test_operator_columns():
    table = giambelli_lift_general(C24)
    for mu in C24.basis:
        d, p = seidel_power(mu, 1, C24)
        assert table.product_basis((1, 1), mu) == QKElement.basis(p, d)


def test_element_json_roundtrip():
    elem = product_basis((2, 1), (2, 1), C24)
    assert QKElement.from_json(json.dumps(elem.to_obj(), separators=(",", ":"))) == elem
    obj = elem.to_obj()
    assert obj["terms"] == sorted(obj["terms"], key=lambda t: (t["q"], sum(t["partition"])))


# sha256 of giambelli_lift_general(context(k, n)).dump_jsonl for every ring
# with n <= 9.  The digests were recorded from an earlier, independently
# written lift kernel, so they check the current kernel against outputs it
# did not produce; engines_agree covers k = 3 only.
LIFT_TABLE_SHA256 = {
    (1, 2): "6e5963a5b4ab3bbb9a7db31df9006a83861e5f75309bc0d781cec78424e141f6",
    (1, 3): "5d44777df2c3094fa97bbd965c68ca316464365aba1fbe1e0763f0f0bbbb1128",
    (2, 3): "01235f65bdbefeaef0ae8ae386ef3815f9b25ca33e4c865d5099213f7cc6d57e",
    (1, 4): "b111fabf86584df15957bdf9b12c416cc6544fa27348b684d68945da4318e6b1",
    (2, 4): "876b3ad222d9c4d44b0f8ab2f52c0b67d1fc0148b81faf3f89bc8a513c978ad1",
    (3, 4): "7ce0046d020b0824e9991b9065d520fbd00f388bb403a381a9ac60c85ba623f8",
    (1, 5): "bb2f6c3092d40af89717b672ce32c1814d7671950adceee19eca8f248621782a",
    (2, 5): "bd7d65fd43e2be64f97814919a4bc1fa3704024db88670f52c0e1a6462b960cf",
    (3, 5): "d5f5efaffa25f8f8871cc08af5fb3228cf77fc2f7583c575b0614579d28cc4bc",
    (4, 5): "f0535575ae981908ce266321bfb6352379b9881d5a45348b0692f8b3a78c0bc3",
    (1, 6): "4d706fbed2a0e7e6cf4f26ae62e8ded242358a019137d116e04be9300de7d08d",
    (2, 6): "23ce30287a0d2086e65c4ab596bcbdd00c5a7ab264727c8849b7fda86f33e84c",
    (3, 6): "b8e831f15b4ecead1da41e4c1ea6067b25ccf5e94a434a925a92ff2f2ae3ca83",
    (4, 6): "6b8e9404e271fae47ee914c3fef28f44e451cbd8544cc15c4937696a78c390d2",
    (5, 6): "eaa3b2ba608d4bd6929c67ff4cdd6e81bcf5546ee4b19f7abdd0322f8ede7bad",
    (1, 7): "72bb12b966899a6ad67170fa23b52634f8b7ed1956c15ea91e2708294f3cacbf",
    (2, 7): "3f5d557bdc824a9b86fe7ebb77bfa99cfaeb6caf027c6f1295af7112b6e8a32e",
    (3, 7): "3741759a632e6ab4a71d04aa5f468061c30d84f6485c9da94254f0bef410fed0",
    (4, 7): "536f4da83af13f4592b96a15aed9df466478857c31537cd46514ed8f851f78aa",
    (5, 7): "ebdcba8b1153a6012563f4a919460c4c8d44fa5f9d1c36ec61459bd692fb71b6",
    (6, 7): "4eea891e0fdd36bbdde02a752a3fc992859b7de71b016661cec6beb5363ba188",
    (1, 8): "d1cf7463ada83bf2874fe691c5f54b64b6618bae2b15ab93b23f3bb4d2add306",
    (2, 8): "9fe8a052eebf01b3986966f5c8cd887bbd32c374dfe0a80794b74da937007af1",
    (3, 8): "15e6570b009202c05ce98a496dbd8b83ad578980d164ad9d65375e5cc8d3ffee",
    (4, 8): "c603f0a76d6b95678b7a96d07aedb90db0e75c4da889e7b4efc2ac1f0551e355",
    (5, 8): "2d98d09c770a58fb29878cdc471902f294b4224b4cdd29ea6f5ce677669eff68",
    (6, 8): "d358038e9d8afc2856af0a8a4c4f400b4496fed81803b9c3437d361d3126f947",
    (7, 8): "670cefc1af942bdb95dd274914094d0758361da82f853081a64123bdbb54cfdb",
    (1, 9): "d54c74c1eadb9092b9a499c614f02c9370dd766695891dc68bb3bb821d516ae2",
    (2, 9): "95a41a1de3d7f1164b3a2be35a329efd1e6c43a8ab644e8164dabe1ae8cf8f40",
    (3, 9): "0cff959000eed6a8d8053053e4414effc7e621ba8961f37a16fc39a3d5e3aedb",
    (4, 9): "2be2ccad0d6153d766afceba29ffab23a02ea5167d045a5e8fd97d491406df4f",
    (5, 9): "3449f862c622cf3c437d45e8eeabd09003aa05668437bbe7d5c5828ec916db68",
    (6, 9): "a8a00851b001889a01fd41b9ce810fe991454568e172d3d66258725f048b5af9",
    (7, 9): "3e1e6c9082b01a3d842a82e626422f56dfbd8f1fd7ef2a6feca10145c55a0460",
    (8, 9): "e1c53cffdeb891d5b670b7c27f978e994dc2652cc6d133f18e88d66571ffc064",
}


# full sha256 of the Gr(4,10) and Gr(5,10) dumps, recorded from the earlier
# monomial back-substitution kernel; not in LIFT_TABLE_SHA256, whose rings
# are also solved pair by pair against the orbit tables
LARGE_LIFT_TABLE_SHA256 = {
    (4, 10): "a98ca45f52d36faad585e2c36f35476e1041827c43ce97dc55658b34854760ee",
    (5, 10): "ca92f4e2684dc46eefea3115d2d61f6867cb6b958f79f7e845ba04d208ab164a",
    # recorded from the walk on (q-degree, position, coeff) tuples; with
    # 330 classes, positions and keys are not all CPython's cached small ints
    (4, 11): "602353d135c20b2f7d8f7c9239d97fbe93cc360bf0112a5a87d0fe5283740612",
}


@pytest.mark.parametrize("kk, nn", sorted(LARGE_LIFT_TABLE_SHA256))
def test_large_lift_tables_match_pinned_digests(kk, nn):
    buf = io.StringIO()
    giambelli_lift_general(context(kk, nn)).dump_jsonl(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == LARGE_LIFT_TABLE_SHA256[kk, nn]


class _HashSink:
    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())


def test_table_walk_holds_no_per_entry_state():
    # what the dump allocates and frees again is the walk's own working
    # set; a memo of formatted bodies per entry would keep them alive until
    # the walk ends (one keyed by the shifted terms measured 25 MB here)
    table = giambelli_lift_general(context(5, 10))
    table.max_q_degree()  # solves every representative pair, untraced
    sink = _HashSink()
    tracemalloc.start()
    try:
        table.dump_jsonl(sink)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.hash.hexdigest() == LARGE_LIFT_TABLE_SHA256[5, 10]
    assert peak - kept < 2_000_000, (peak, kept)


def test_lift_tables_match_pinned_digests():
    assert len(LIFT_TABLE_SHA256) == 36
    for (kk, nn), want in LIFT_TABLE_SHA256.items():
        buf = io.StringIO()
        giambelli_lift_general(context(kk, nn)).dump_jsonl(buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want, (kk, nn)


def test_dropped_lift_table_frees_its_engine():
    table = giambelli_lift_general(context(4, 8))
    assert type(table) is LiftEngine
    table.dump_jsonl(io.StringIO())
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None


def test_check_unit_column_catches_a_bad_expansion():
    # the planted step lands in the ring's own table, so the ring is private
    ctx = GrContext(3, 6, 4)
    LiftEngine(ctx).check_unit_column()
    eng = LiftEngine(ctx)
    rid = eng._intern((1, 1, 0))
    tid, terms = eng._step(rid)
    assert terms
    (c, a), *rest = terms
    ctx.steps[rid] = (tid, ((c, a + 1), *rest))
    with pytest.raises(ArithmeticError):
        eng.check_unit_column()


def test_table_build_and_dump_validate_only_on_storage_misses(monkeypatch):
    # the classes come from ctx.basis, so the unit-column check and the walk
    # call unvalidated cores; validate runs only where a class is first
    # interned or its orbit first stored.  A private ring makes every class
    # a miss; the Pieri rows read the unvalidated _quantum_terms
    ctx = GrContext(4, 9, 5)
    calls = []

    def counted(lam, ctx):
        calls.append(lam)
        return validate(lam, ctx)

    bound = [
        name for name, mod in sys.modules.items() if name.startswith("qkgr.") and vars(mod).get("validate") is validate
    ]
    assert {"qkgr.partitions", "qkgr.qk_engine"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(f"{name}.validate", counted)
    parts, orbits = len(ctx.parts), len(ctx.orbits)
    table = giambelli_lift_general(ctx)
    table.dump_jsonl(io.StringIO())
    misses = len(ctx.parts) - parts + len(ctx.orbits) - orbits
    assert len(calls) <= misses, (len(calls), misses)


def test_pieri_steps_are_unitriangular_and_q_free():
    # O^(rho_1) * O^(tail rho) = O^rho + sum a_c O^c, read off the public
    # quantum Pieri rule: q-free, 1 on rho, every c above rho in basis order
    # with no more nonzero rows; the engine's checked step must agree
    for kk, nn in [(2, 5), (3, 7), (4, 8)]:
        ctx = context(kk, nn)
        eng = LiftEngine(ctx)
        for rho in all_partitions(ctx)[1:]:
            tail = rho[1:] + (0,)
            want = dict(quantum_pieri(tail, rho[0], ctx).terms)
            assert want.pop((rho, 0)) == 1
            for nu, d in want:
                assert d == 0
                assert (size(nu), nu) > (size(rho), rho)
                assert nu.count(0) >= rho.count(0)
            tid, terms = eng._step(eng._intern(rho))
            assert ctx.parts[tid] == tail
            assert {(ctx.parts[c], 0): a for c, a in terms} == want


# each corrupts the Pieri row of O^2 * O^(1,0,0) in Gr(3,6), whose step
# builds rho = (2,1,0); the unit (id 0) lies below it, (2,1,1) has more rows.
# The steps belong to the ring, so each test builds a private one
_CORRUPTIONS = {
    "q-term": (lambda eng, rid, row: row + ((eng._stride + rid, 1),), "q-term"),
    "no diagonal": (lambda eng, rid, row: tuple(t for t in row if t[0] != rid), "not unital"),
    "below rho": (lambda eng, rid, row: row + ((0, 1),), "not triangular"),
    "more rows": (lambda eng, rid, row: row + ((eng._intern((2, 1, 1)), 1),), "not triangular"),
}


@pytest.mark.parametrize("kind", sorted(_CORRUPTIONS))
def test_corrupted_pieri_step_raises(monkeypatch, kind):
    corrupt, message = _CORRUPTIONS[kind]
    real = LiftEngine._row
    eng = LiftEngine(GrContext(3, 6, 4))
    rid, tid = eng._intern((2, 1, 0)), eng._intern((1, 0, 0))

    def row(self, i, key):
        got = real(self, i, key)
        return corrupt(self, rid, got) if (i, key) == (2, tid) else got

    monkeypatch.setattr(LiftEngine, "_row", row)
    with pytest.raises(ArithmeticError, match=message):
        eng.product_via_column((2, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6)])
def test_pieri_term_above_trunc_raises(monkeypatch, k, n):
    # a product stops at q^min(k, n-k) and a Pieri term adds at most q^1, so
    # the rows never reach past trunc; one that does is an error, not dropped.
    # The rows belong to the ring, so the ring is private
    ctx = GrContext(k, n, min(k, n - k) + 1)

    def beyond(ctx, lam, i):
        return _quantum_terms(ctx, lam, i) + ((lam, ctx.trunc + 1, 1),)

    monkeypatch.setattr("qkgr.qk_engine._quantum_terms", beyond)
    one = (1,) + (0,) * (k - 1)
    with pytest.raises(OverflowError, match=f"exceeds truncation {ctx.trunc}"):
        LiftEngine(ctx).product_via_column(one, one)


def test_one_product_does_not_enumerate_the_ring():
    # C(30, 15) is about 1.5e8 classes; one product of two small shapes
    # must touch only the few classes its closure reaches
    k = 15
    ctx = context(k, 30)
    pad = (0,) * (k - 3)
    tracemalloc.start()
    try:
        got = LiftEngine(ctx).product_basis((2, 1, 0) + pad, (1, 0, 0) + pad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    want = {(2, 1, 1): 1, (2, 2, 0): 1, (3, 1, 0): 1, (2, 2, 1): -1, (3, 1, 1): -1, (3, 2, 0): -1, (3, 2, 1): 1}
    assert got == QKElement({(lam + pad, 0): c for lam, c in want.items()})


def test_cold_worst_case_gr7_14_product_peak(fresh):
    # each Pieri row is stored once, on the ring: when the quantum_terms
    # cache held every row a second time, this product peaked above 90 MB.  The
    # digest is that of the product's --json text
    digest, peak_mb = fresh(
        "import hashlib, json, resource\n"
        "from qkgr.partitions import context\n"
        "from qkgr.qk_engine import product_basis\n"
        "elem = product_basis((7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1, 1), context(7, 14))\n"
        "text = json.dumps(elem.to_obj(), separators=(',', ':'))\n"
        "peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps([hashlib.sha256(text.encode()).hexdigest(), peak_mb]))\n"
    )
    assert digest == "93ca9167dd6b10b5346a970406ec59159eb7a6ba91a656342f9ab87d70558a54"
    assert peak_mb < 70, peak_mb


def test_lift_tables_are_one_store_per_ring():
    # the class ids and the Pieri rows and steps depend only on the ring: an
    # engine keeps none of them, a second engine solving the same pair reads
    # what the first stored, and neither fills the quantum_terms cache.
    # (4,3,0,0) and (4,3,2,0) are orbit representatives, so the shifted
    # product solves this very pair, (4,3,0,0) as the row
    ctx = GrContext(4, 9, 5)
    row, col = (4, 3, 0, 0), (4, 3, 2, 0)
    cache = quantum_terms.cache_info()

    def sizes():
        return len(ctx.ids), len(ctx.parts), sum(map(len, ctx.rows.values())), len(ctx.steps)

    assert ctx.engine._rep(row) == (row, 0, 0) and ctx.engine._rep(col) == (col, 0, 0)
    shifted = ctx.engine.product_basis(row, col)
    stored = sizes()
    assert min(stored) > 1
    direct = LiftEngine(ctx)
    assert set(vars(direct)) == {"ctx", "_stride", "_columns", "_reps", "_elements"}
    assert direct.product_via_column(row, col) == shifted
    assert sizes() == stored
    assert quantum_terms.cache_info() == cache


def test_orbit_tables_match_direct_products():
    # entries() shifts the products of orbit representatives; a fresh engine
    # solving each pair as typed, with no shift (and the k = 3 recipe), is
    # the oracle
    for kk, nn in LIFT_TABLE_SHA256:
        ctx = context(kk, nn)
        lift = LiftEngine(ctx)
        gr3 = Gr3Engine(ctx) if kk == 3 else None
        for lam, mu, elem in giambelli_lift_general(ctx).entries():
            assert elem == lift.product_via_column(lam, mu), (kk, nn, lam, mu)
            if gr3 is not None:
                assert elem == gr3.product_basis(lam, mu), (kk, nn, lam, mu)


@pytest.mark.parametrize(
    "kk, nn, trunc, sample",
    [
        (2, 6, None, None),
        (3, 8, None, None),
        (3, 8, 6, None),
        (4, 8, None, None),
        (4, 8, 6, None),
        (5, 10, None, 200),
    ],
)
def test_shifted_products_match_direct_solves(kk, nn, trunc, sample):
    # product_basis solves the product of the two factors' orbit
    # representatives and shifts back; a fresh engine solving each pair as
    # typed is the oracle, and for k = 3 so is the Giambelli recipe.  At
    # trunc = 6 a shift that left 0..trunc would raise or lose a term
    ctx = context(kk, nn, trunc)
    parts = ctx.basis
    if sample is None:
        pairs = [(lam, mu) for i, lam in enumerate(parts) for mu in parts[i:]]
    else:
        rng = random.Random(12)
        pairs = [(rng.choice(parts), rng.choice(parts)) for _ in range(sample)]
    shifted, direct = LiftEngine(ctx), LiftEngine(ctx)
    gr3 = Gr3Engine(ctx) if kk == 3 else None
    for lam, mu in pairs:
        got = shifted.product_basis(lam, mu)
        assert got == direct.product_via_column(lam, mu), (lam, mu)
        if gr3 is not None:
            assert got == gr3.product_basis(lam, mu), (lam, mu)


@pytest.mark.parametrize(
    "kk, nn, lam, mu",
    [
        (6, 12, (5, 4, 4, 4, 1, 1), (5, 4, 1, 0, 0, 0)),
        (6, 12, (4, 2, 2, 1, 1, 0), (4, 4, 3, 3, 3, 0)),
        (5, 11, (4, 3, 3, 2, 2), (5, 2, 2, 2, 2)),
        (4, 11, (4, 3, 3, 2), (5, 5, 4, 1)),
    ],
)
def test_cold_product_solves_its_cheapest_shift(kk, nn, lam, mu):
    # solved as typed, each of these fills 153 to 250 column entries; the
    # fewest-row member of the two orbits needs at most 37
    eng = LiftEngine(context(kk, nn))
    eng.product_basis(lam, mu)
    assert sum(len(col) for col in eng._columns.values()) <= 40


def test_orbit_table_solves_representative_pairs_only():
    ctx = context(4, 9)
    orbits = {frozenset(up for _, up in seidel_orbit(lam, ctx)) for lam in ctx.basis}
    r = len(orbits)
    assert r == 14
    table = giambelli_lift_general(ctx)
    read, solved = [], table._solved

    def spy(rho, sigma):
        read.append((rho, sigma, solved(rho, sigma)))
        return read[-1][2]

    table._solved = spy
    table.dump_jsonl(io.StringIO())
    assert len(read) == len({frozenset(pair) for *pair, _ in read}) == r * (r + 1) // 2
    # each is the solved vector in its column, not a copy
    live = {id(vec) for col in table._columns.values() for vec in col.values()}
    for rho, sigma, vec in read:
        assert table._rep(rho)[0] == rho and table._rep(sigma)[0] == sigma
        assert id(vec) in live


def test_table_readers_keep_no_pair_elements():
    # the representatives' products stay in their columns; _elements is
    # the pair cache of _product alone
    table = giambelli_lift_general(context(4, 9))
    list(table.entries())
    table.dump_jsonl(io.StringIO())
    table.max_q_degree()
    assert table._elements == {}


def test_table_reads_solved_vectors_by_basis_position():
    # a ring hands out ids in the order its engines meet classes, so the
    # walk maps each id to its basis position; on a private ring these two
    # products intern 70 classes first, in an order the unit-column check
    # never produces
    ctx = GrContext(4, 9, 5)
    eng = LiftEngine(ctx)
    eng.product_basis((5, 4, 3, 1), (4, 4, 2, 2))
    eng.product_basis((3, 3, 1, 0), (5, 2, 1, 1))
    assert len(ctx.parts) == 70 and ctx.parts != list(ctx.basis[:70])
    sink = _HashSink()
    eng.dump_jsonl(sink)
    assert sink.hash.hexdigest() == LIFT_TABLE_SHA256[4, 9]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_orbit_table_rejects_a_corrupt_representative_product(flags):
    # O^(2,0) * O^(0,0) in Gr(2,5), the product of the fewest-row members
    # of two orbits, corrupted in its column at q^trunc (shifts push it
    # past trunc) and at q^-1, read by each table reader on a fresh table;
    # the range check must survive python -O
    script = (
        "import io\n"
        "from qkgr.partitions import context\n"
        "from qkgr.qk_engine import giambelli_lift_general\n"
        "ctx = context(2, 5)\n"
        "readers = [lambda t: list(t.entries()), lambda t: t.dump_jsonl(io.StringIO()), lambda t: t.max_q_degree()]\n"
        "for read in readers:\n"
        "    for deg in (ctx.trunc, -1):\n"
        "        table = giambelli_lift_general(ctx)\n"
        "        vec = table._solved((2, 0), (0, 0))\n"
        "        vec.clear()\n"
        "        vec[deg * table._stride + ctx.ids[2, 0]] = 1\n"
        "        try:\n"
        "            read(table)\n"
        "        except ArithmeticError as exc:\n"
        "            print(type(exc).__name__)\n"
        "        else:\n"
        "            print('no error')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["OverflowError", "ArithmeticError"] * 3


def test_orbit_tables_have_euler_characteristic_q_to_d_min():
    # Buch-Chung-Li-Mihalcea: chi(O^lam * O^mu) is q^d_min(lam, mu)
    for kk, nn in LIFT_TABLE_SHA256:
        ctx = context(kk, nn)
        for lam, mu, elem in giambelli_lift_general(ctx).entries():
            assert euler_char(elem) == {d_min(lam, mu, ctx)[0]: 1}, (kk, nn, lam, mu)


def test_table_dump_is_spelled_as_json_dumps():
    # dump_jsonl formats each line by hand; json.dumps is the reference.
    # Gr(3,7) at trunc 6 is above its default truncation 4, which sizes the
    # dump's table of term prefixes
    for ctx in (C24, C36, context(3, 7, 6)):
        table = giambelli_lift_general(ctx)
        buf = io.StringIO()
        table.dump_jsonl(buf)
        lines = buf.getvalue().split("\n")
        assert lines.pop() == ""
        entries = list(table.entries())
        assert len(lines) == len(entries)
        for line, (lam, mu, elem) in zip(lines, entries):
            rec = json.loads(line)
            assert line == json.dumps(rec, separators=(",", ":"))
            want = {"lhs": list(lam), "rhs": list(mu), "terms": elem.to_obj()["terms"]}
            assert line == json.dumps(want, separators=(",", ":"))
            assert QKElement.from_obj(rec) == elem == table.product_basis(lam, mu)
        assert table.max_q_degree() == max(d for _, _, elem in entries for _, d in elem.terms)
