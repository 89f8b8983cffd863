import random

import pytest

from qkgr.element import QKElement
from qkgr.partitions import all_partitions, context, seidel_power, seidel_up, size
from qkgr.qk_engine import LiftEngine, product_basis, structure_constant
from qkgr.seidel import (
    H,
    T,
    d_min,
    duality,
    lemcom_shift,
    reduce_deg_one,
    reduce_dual_shift,
    reduce_higher,
    reduce_lemred,
    reduction_trace,
)

C24 = context(2, 4)
C36 = context(3, 6)


def constant(tup, ctx):
    lam, mu, nu, d = tup
    return structure_constant(lam, mu, nu, d, ctx)


def test_t_and_h_examples():
    assert T(QKElement.basis((2, 1)), C24) == QKElement.basis((1, 0), 1)
    assert T(QKElement.basis((1, 0)), C24) == QKElement.basis((2, 1))
    assert H(QKElement.basis((1, 0)), C24) == QKElement.basis((2, 1))
    assert H(QKElement.basis((2, 2)), C24) == QKElement.basis((1, 1), 1)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6), (4, 7)])
def test_ht_is_q(k, n):
    ctx = context(k, n, n)
    for lam in all_partitions(ctx):
        e = QKElement.basis(lam)
        assert H(T(e, ctx), ctx) == e.q_shift(1)


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 6), (5, 7)])
def test_seidel_periodicity(k, n):
    ctx = context(k, n, n + 1)
    for lam in all_partitions(ctx):
        e = QKElement.basis(lam)
        x = e
        y = e
        for _ in range(n):
            x = T(x, ctx)
            y = H(y, ctx)
        assert x == e.q_shift(k)
        assert y == e.q_shift(n - k)


def test_t_overflow_raises():
    with pytest.raises(OverflowError):
        T(QKElement.basis((2, 1), C24.trunc), C24)


def test_qh_seidel_power():
    for lam in all_partitions(C36):
        assert seidel_power(lam, 0, C36) == (0, lam)
        assert seidel_power(lam, C36.n, C36) == (C36.k, lam)
        d, p = seidel_power(lam, 2, C36)
        assert p == seidel_up(lam, 2, C36)
        assert d == (2 * 3 + size(lam) - size(p)) // 6


def test_d_min_examples():
    assert d_min((2, 2), (2, 2), C24) == (2, 2)
    assert d_min((0, 0), (2, 1), C24) == (0, 0)
    assert d_min((2, 1, 0), (0, 0, 0), C36) == (0, 0)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_d_min_against_products(k, n):
    # the shifted pair goes through ctx.engine; the pair as typed is solved
    # by a lift that never shifts, so the identity is not checked against itself
    ctx = context(k, n)
    direct = LiftEngine(ctx)
    parts = all_partitions(ctx)
    for lam in parts:
        for mu in parts:
            d, r = d_min(lam, mu, ctx)
            prod = direct.product_via_column(lam, mu)
            assert prod.min_q() == d, (lam, mu)
            shifted = product_basis(seidel_up(lam, r, ctx), seidel_up(mu, ctx.n - r, ctx), ctx)
            assert shifted.q_shift(d).truncated(ctx.trunc) == prod


def test_lemred_variant_applicability():
    # lam_1 = n-k and nu_1 < n-k forces the strict drop comparison
    assert reduce_lemred((2, 1), (1, 0), (1, 1), 1, 1, C24) == ((1, 0), (1, 0), (2, 2), 0)
    # lam = nu: the equal-difference variants apply at any shift
    for i in range(5):
        got = reduce_lemred((2, 1), (1, 1), (2, 1), 1, 3, C24, i=i)
        assert got is not None and got[3] == 1
    assert reduce_lemred((1, 0), (1, 0), (2, 1), 1, 1, C24) is None
    assert reduce_lemred((2, 1), (1, 0), (1, 1), 0, 1, C24) is None


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_lemred_preserves_constants(k, n):
    ctx = context(k, n)
    parts = all_partitions(ctx)
    for lam in parts:
        for mu in parts:
            for nu in parts:
                for d in range(ctx.trunc + 1):
                    want = structure_constant(lam, mu, nu, d, ctx)
                    for variant in (1, 2, 3, 4):
                        for i in (1, 2):
                            tup = reduce_lemred(lam, mu, nu, d, variant, ctx, i=i)
                            if tup is not None and 0 <= tup[3] <= ctx.trunc:
                                assert constant(tup, ctx) == want, (variant, lam, mu, nu, d)


def test_duality_involution_and_sweep():
    lam, mu, nu, d = (2, 1), (1, 1), (2, 2), 1
    once = duality(lam, mu, nu, d, C24)
    assert duality(*once, C24) == (lam, mu, nu, d)
    ctx = context(2, 5)
    parts = all_partitions(ctx)
    for lam in parts:
        for mu in parts:
            for nu in parts:
                for dd in range(ctx.trunc + 1):
                    assert constant(duality(lam, mu, nu, dd, ctx), ctx) == structure_constant(
                        lam, mu, nu, dd, ctx
                    )


def test_lemcom_shift_closed_forms():
    ctx = context(3, 7)
    # m = 1: the closed form collapses to (lam_2 + n-k-lam_1, ..., 0)
    lam, nu = (3, 2, 1), (2, 2, 2)
    up_l, up_n = lemcom_shift(lam, nu, 1, ctx)
    w = ctx.width
    assert up_l == (lam[1] + w - lam[0], lam[2] + w - lam[0], 0)
    assert up_n == tuple(x + w - lam[0] + 1 for x in nu)
    rng = random.Random(7)
    parts = all_partitions(ctx)
    hits = 0
    while hits < 200:
        lam, nu = rng.choice(parts), rng.choice(parts)
        m = next((i + 1 for i in range(3) if nu[i] < lam[i]), None)
        if m is None:
            continue
        hits += 1
        up_l, up_n = lemcom_shift(lam, nu, m, ctx)  # raises on closed-form mismatch
        r = w - lam[m - 1] + m
        assert up_l == seidel_up(lam, r, ctx)
        assert up_n == seidel_up(nu, r, ctx)
    with pytest.raises(ValueError):
        lemcom_shift((2, 1, 0), (2, 1, 0), 1, ctx)


def test_reduce_deg_one_sweep():
    ctx = context(3, 6)
    parts = all_partitions(ctx)
    applied = 0
    for lam in parts:
        for mu in parts:
            for nu in parts:
                for d in (1, 2):
                    tup = reduce_deg_one(lam, mu, nu, d, ctx)
                    if tup is None:
                        assert all(nu[i] >= lam[i] for i in range(3))
                        continue
                    applied += 1
                    assert tup[3] == d - 1
                    assert constant(tup, ctx) == structure_constant(lam, mu, nu, d, ctx)
    assert applied > 0


def test_example_gr6_17_chain():
    ctx = context(6, 17, trunc=7)
    lam = mu = (10, 8, 6, 4, 2, 0)

    # one jump of size s = 3
    got = reduce_higher(lam, mu, (3, 3, 2, 1, 0, 0), 3, 3, ctx)
    assert got == ((9, 7, 5, 4, 2, 0), mu, (11, 11, 10, 9, 8, 8), 0)

    # the three-step chain of single reductions
    steps = reduction_trace(lam, mu, (6, 2, 2, 1, 0, 0), 3, ctx)
    tuples = [(s["lhs"], s["rhs"], s["nu"], s["deg"]) for s in steps]
    assert tuples == [
        ((9, 7, 5, 3, 1, 0), (10, 8, 6, 4, 2, 0), (8, 4, 4, 3, 2, 2), 2),
        ((9, 7, 5, 3, 1, 0), (9, 7, 5, 3, 1, 0), (10, 6, 6, 5, 4, 4), 1),
        ((9, 7, 5, 4, 2, 0), (9, 7, 5, 3, 1, 0), (11, 11, 10, 9, 9, 4), 0),
    ]


def test_reduce_higher_consistency():
    # wherever the s-step jump applies, s single steps reach the same constant
    ctx = context(3, 7)
    parts = all_partitions(ctx)
    applied = 0
    for lam in parts:
        for mu in parts:
            for nu in parts:
                tup = reduce_higher(lam, mu, nu, 2, 2, ctx)
                if tup is None:
                    continue
                applied += 1
                cur = (lam, mu, nu, 2)
                for _ in range(2):
                    cur = reduce_deg_one(*cur, ctx)
                    assert cur is not None
                assert constant(tup, ctx) == constant(cur, ctx) == structure_constant(
                    lam, mu, nu, 2, ctx
                )
    assert applied > 0
    assert reduce_higher((1, 1, 0), (1, 1, 0), (2, 2, 2), 2, 2, ctx) is None
    # the shift row runs over s..k, so s > k never applies, at any degree
    wide = context(2, 5, 5)
    for s in (3, 4, 5):
        assert reduce_higher((3, 3), (3, 3), (0, 0), 5, s, wide) is None


def test_reduce_dual_shift():
    ctx = context(3, 6)
    parts = all_partitions(ctx)
    applied = 0
    for lam in parts:
        for mu in parts:
            for nu in parts:
                tup = reduce_dual_shift(lam, mu, nu, 1, ctx)
                if tup is None:
                    if nu[0] >= lam[0]:
                        assert all(nu[0] >= lam[3 - j - 1] + mu[j] for j in range(3))
                    continue
                applied += 1
                assert constant(tup, ctx) == structure_constant(lam, mu, nu, 1, ctx)
    assert applied > 0


def test_reduce_dual_shift_follows_proof_steps():
    # duality, then an equal-difference down-shift, then the degree-one step
    ctx = context(3, 7)
    rng = random.Random(11)
    parts = all_partitions(ctx)
    hits = 0
    while hits < 100:
        lam, mu, nu = rng.choice(parts), rng.choice(parts), rng.choice(parts)
        tup = reduce_dual_shift(lam, mu, nu, 1, ctx)
        if tup is None:
            continue
        hits += 1
        a, b, c, d2 = duality(mu, lam, nu, 1, ctx)  # (mu, dual nu, dual lam, 1)
        step = reduce_lemred(b, a, c, d2, 4, ctx, i=ctx.width - nu[0])
        assert step is not None
        got = reduce_deg_one(step[1], step[0], step[2], step[3], ctx)
        assert got is not None and got[3] == 0
        assert constant(got, ctx) == constant(tup, ctx)


def test_reduction_trace_trivial_cases():
    assert reduction_trace((2, 1), (1, 0), (1, 1), 0, C24) == []
    # nothing reducible: nu dominates both factors rowwise and columnwise
    steps = reduction_trace((1, 0, 0), (1, 0, 0), (3, 3, 3), 1, C36)
    assert steps == []
