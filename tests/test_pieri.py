import pytest

from qkgr.element import QKElement
from qkgr.partitions import all_partitions, context, size
from qkgr.pieri import (
    apply_terms,
    classical_pieri,
    quantum_pieri,
    quantum_pieri_restated,
)
from qkgr.seidel import H

C24 = context(2, 4)
C49 = context(4, 9)


def test_classical_pieri_basic():
    got = classical_pieri((1, 0), 1, C24)
    assert got == QKElement({((2, 0), 0): 1, ((1, 1), 0): 1, ((2, 1), 0): -1})
    # no strip can leave the rectangle
    assert classical_pieri((2, 2), 1, C24).is_zero()


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_classical_pieri_leading_coefficient(k, n):
    # the strip of size exactly i always enters with coefficient +1
    ctx = context(k, n)
    for lam in all_partitions(ctx):
        for i in range(1, ctx.width + 1):
            for (nu, d), c in classical_pieri(lam, i, ctx).terms.items():
                assert d == 0
                if size(nu) - size(lam) == i:
                    assert c == 1


def test_quantum_pieri_gr49_example():
    got = quantum_pieri((4, 3, 2, 1), 4, C49)
    want = QKElement(
        {
            ((5, 4, 3, 2), 0): 1,
            ((2, 2, 1, 0), 1): 1,
            ((3, 1, 1, 0), 1): 1,
            ((3, 2, 0, 0), 1): 1,
            ((3, 2, 1, 0), 1): -3,
        }
    )
    assert got == want


def test_quantum_pieri_full_rectangle():
    # O^(2,2) * O^2 = q O^(1,1), matching the closed form for the last special class
    got = quantum_pieri((2, 2), 2, C24)
    assert got == QKElement({((1, 1), 1): 1})
    assert got == H(QKElement.basis((2, 2)), C24)


def test_quantum_equals_classical_without_full_rows():
    for lam in all_partitions(C24):
        if lam[-1] == 0:
            for i in (1, 2):
                assert quantum_pieri(lam, i, C24) == classical_pieri(lam, i, C24)


def test_restated_example_coefficient():
    # nu = (3,2,1,0) arises from the shifted strip (5,3,2,1)/(3,2,1,0) with
    # three nonempty rows, giving (-1)^1 * C(3,1) = -3
    got = quantum_pieri_restated((4, 3, 2, 1), 4, C49)
    assert got.coefficient((3, 2, 1, 0), 1) == -3
    assert got == quantum_pieri((4, 3, 2, 1), 4, C49)


def test_pieri_index_range():
    with pytest.raises(ValueError):
        quantum_pieri((1, 0), 3, C24)
    with pytest.raises(ValueError):
        classical_pieri((1, 0), 0, C24)


def test_pieri_forms_agree_everywhere():
    # exhaustive over every Gr(k, n) with n <= 9
    for n in range(2, 10):
        for k in range(1, n):
            ctx = context(k, n)
            for lam in all_partitions(ctx):
                for i in range(1, ctx.width + 1):
                    a = quantum_pieri(lam, i, ctx)
                    assert a == quantum_pieri_restated(lam, i, ctx), (k, n, lam, i)
                    assert a.max_q() in (None, 0, 1)


def test_pieri_operator_on_unit():
    ctx = context(3, 6)
    for i in (1, 2, 3):
        assert apply_terms({((0, 0, 0), 0): 1}, i, ctx) == {((i, 0, 0), 0): 1}


def test_apply_terms_truncates_at_context():
    ctx = context(3, 6)
    top = ctx.trunc
    for lam in all_partitions(ctx):
        for i in range(1, ctx.width + 1):
            want = quantum_pieri(lam, i, ctx).q_shift(top).truncated(top)
            got = apply_terms({(lam, top): 1}, i, ctx)
            assert QKElement(got) == want, (lam, i)
            assert all(d <= top for _, d in got)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_pieri_operators_commute(k, n):
    ctx = context(k, n)
    basis = all_partitions(ctx)
    ops = range(1, ctx.width + 1)
    for a in ops:
        for b in ops:
            for lam in basis:
                e = {(lam, 0): 1}
                ab = apply_terms(apply_terms(e, b, ctx), a, ctx)
                assert ab == apply_terms(apply_terms(e, a, ctx), b, ctx), (a, b, lam)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6), (3, 7)])
def test_last_pieri_operator_is_h(k, n):
    ctx = context(k, n)
    for lam in all_partitions(ctx):
        assert quantum_pieri(lam, ctx.width, ctx) == H(QKElement.basis(lam), ctx)
