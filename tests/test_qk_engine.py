import io
import json
import random

import pytest

from qkgr.element import QKElement
from qkgr.partitions import all_partitions, context, dual, size
from qkgr.pieri import quantum_pieri
from qkgr.qk_engine import (
    euler_char,
    giambelli_gr3,
    giambelli_lift_general,
    gr3_engine,
    ideal_sheaf,
    lift_engine,
    multiplication_table,
    pairing,
    product,
    product_basis,
    reduce_third_row,
    structure_constant,
    verify_recursion,
)
from qkgr.seidel import t_basis

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
        d, p = t_basis(lam, C36)
        assert product_basis((1, 1, 1), lam, C36) == QKElement.basis(p, d)


def test_structure_constant_examples():
    c49 = context(4, 9)
    assert structure_constant((4, 0, 0, 0), (4, 3, 2, 1), (3, 2, 1, 0), 1, c49) == -3
    # Gr(3,6) diagonal with lam = (2,1,0): the closed rule gives -1
    assert structure_constant((2, 1, 0), (2, 1, 0), (2, 1, 0), 1, C36) == -1
    with pytest.raises(ValueError):
        structure_constant((1, 0), (1, 0), (1, 1), 99, C24)


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
    eng = gr3_engine(ctx)
    for mu in all_partitions(ctx):
        if mu[2] != 0:
            continue
        got = eng.product_basis((0, 0, 0), mu)
        assert got == QKElement.basis(mu), mu


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
    g3, lf = gr3_engine(ctx), lift_engine(ctx)
    parts = all_partitions(ctx)
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            assert g3.product_basis(lam, mu) == lf.product_basis(lam, mu), (lam, mu)


def test_lift_pieri_rows_are_pieri():
    # the lifted operator for a special class is the Pieri operator itself
    for ctx in (context(2, 5), context(4, 8)):
        lf = lift_engine(ctx)
        for i in range(1, ctx.width + 1):
            row = (i,) + (0,) * (ctx.k - 1)
            for mu in all_partitions(ctx):
                got = lf.product_basis(row, mu)
                assert got == quantum_pieri(mu, i, ctx).truncated(ctx.trunc)


def test_product_symmetric():
    ctx = context(2, 5)
    lf = lift_engine(ctx)
    parts = all_partitions(ctx)
    for lam in parts:
        for mu in parts:
            assert lf.product_basis(lam, mu) == lf.product_basis(mu, lam)


def test_product_bilinear():
    a = QKElement({((1, 0), 0): 2, ((1, 1), 1): -1})
    b = QKElement({((2, 0), 0): 1})
    got = product(a, b, C24)
    want = product_basis((1, 0), (2, 0), C24).scaled(2) - product_basis(
        (1, 1), (2, 0), C24
    ).q_shift(1)
    assert got == want.truncated(C24.trunc)


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
                assert t2.product(lam, mu) == elem, (kk, nn, lam, mu)
            assert t2.max_q_degree() == min(kk, nn - kk), (kk, nn)


def test_table_dump_deterministic():
    table = multiplication_table(C24)
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
    table = multiplication_table(C24)
    col = table.operator((1, 1))
    for mu, elem in col.items():
        d, p = t_basis(mu, C24)
        assert elem == QKElement.basis(p, d)


def test_element_json_roundtrip():
    elem = product_basis((2, 1), (2, 1), C24)
    assert QKElement.from_json(elem.to_json()) == elem
    obj = elem.to_obj()
    assert obj["terms"] == sorted(obj["terms"], key=lambda t: (t["q"], sum(t["partition"])))
