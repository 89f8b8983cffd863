import pytest

from qkgr.gr3n import _qlr_gr3, _qlr_gr3_pair, nu3_zero_case, positivity_check, qlr_gr3
from qkgr.partitions import all_partitions, context
from qkgr.qk_engine import _structure_constant, reduce_third_row, structure_constant


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qlr_gr3((2, 1, 1), (1, 0, 0), (2, 2, 0), 1, context(3, 6))
    with pytest.raises(ValueError):
        qlr_gr3((7, 0, 0), (1, 0, 0), (2, 2, 0), 1, context(3, 6))


def test_rule_needs_a_gr3_context():
    for k, n in [(2, 6), (4, 8)]:
        with pytest.raises(ValueError, match="needs k = 3"):
            qlr_gr3((1, 0, 0), (1, 0, 0), (1, 1, 0), 0, context(k, n))
        with pytest.raises(ValueError, match="needs k = 3"):
            nu3_zero_case((1, 0, 0), (1, 0, 0), (1, 1, 0), context(k, n))


def test_degree_bounds():
    assert qlr_gr3((2, 1, 0), (2, 1, 0), (2, 1, 0), 2, context(3, 6)) == 0
    assert qlr_gr3((2, 1, 0), (2, 1, 0), (2, 1, 0), -1, context(3, 6)) == 0
    assert qlr_gr3((2, 1, 0), (1, 0, 0), (3, 1, 0), 0, context(3, 6)) == structure_constant(
        (2, 1, 0), (1, 0, 0), (3, 1, 0), 0, context(3, 6)
    )


def test_example_74_diagonal():
    # lam = mu = nu = (2c, c, 0) with n = 3c + 3 gives -c
    for c in (1, 2, 3, 4):
        n = 3 * c + 3
        lam = (2 * c, c, 0)
        assert qlr_gr3(lam, lam, lam, 1, context(3, n)) == -c


def test_example_74_table():
    # N_{(2c,c,0),(u,c,0)}^{(2c,c,0),1} for u = n-c-j, j = 0..3
    values = {
        0: lambda w, c: w - 2 * c,
        1: lambda w, c: -3 * (w - 2 * c),
        2: lambda w, c: 3 * (w - 2 * c),
        3: lambda w, c: -(w - 2 * c),
    }
    checked = 0
    for c in range(1, 5):
        for j in range(4):
            for n in range(2 * c + 4, 3 * c + j + 1):
                u = n - j - c
                if not c < u <= 2 * c:
                    continue
                lam = (2 * c, c, 0)
                mu = (u, c, 0)
                got = qlr_gr3(lam, mu, lam, 1, context(3, n))
                assert got == values[j](n - 3, c), (c, j, n)
                checked += 1
    assert checked >= 8
    # u below the window gives zero
    assert qlr_gr3((4, 2, 0), (3, 2, 0), (4, 2, 0), 1, context(3, 12)) == 0


def test_swap_symmetry():
    ctx = context(3, 7)
    parts = [p for p in all_partitions(ctx) if p[2] == 0]
    for lam in parts:
        for mu in parts:
            for nu in all_partitions(ctx):
                assert qlr_gr3(lam, mu, nu, 1, ctx) == qlr_gr3(mu, lam, nu, 1, ctx)


@pytest.mark.parametrize("n", [6, 7])
def test_rule_matches_oracle(n):
    ctx = context(3, n)
    parts = all_partitions(ctx)
    for lam in parts:
        for mu in parts:
            for nu in parts:
                for d in range(ctx.trunc + 1):
                    red = reduce_third_row(lam, mu, nu, d, ctx)
                    assert qlr_gr3(red[0], red[1], red[2], red[3], ctx) == structure_constant(
                        lam, mu, nu, d, ctx
                    ), (lam, mu, nu, d)


def test_rule_cases_1_2_match_deg_one_reduction():
    # the first two branches are single degree-one Seidel reductions
    from qkgr.seidel import reduce_deg_one

    ctx = context(3, 8)
    parts = [p for p in all_partitions(ctx) if p[2] == 0]
    hits = 0
    for lam in parts:
        for mu in parts:
            for nu in all_partitions(ctx):
                if nu[0] < lam[0] or (nu[0] >= max(lam[0], mu[0]) and nu[1] < lam[1]):
                    tup = reduce_deg_one(lam, mu, nu, 1, ctx)
                    assert tup is not None and tup[3] == 0
                    got = qlr_gr3(lam, mu, nu, 1, ctx)
                    assert got == structure_constant(*tup, ctx)
                    hits += 1
    assert hits > 100


def test_positivity_check():
    assert positivity_check((2, 1, 0), (1, 1, 0), (2, 2, 1), 0, 0, context(3, 7))
    assert positivity_check((2, 1, 0), (2, 1, 0), (2, 1, 0), 1, -1, context(3, 6))
    assert not positivity_check((2, 1, 0), (2, 1, 0), (2, 1, 0), 1, 1, context(3, 6))


def test_nu3_zero_preconditions():
    with pytest.raises(ValueError):
        nu3_zero_case((2, 1, 1), (1, 0, 0), (2, 2, 0), context(3, 7))
    with pytest.raises(ValueError):
        nu3_zero_case((2, 1, 0), (1, 0, 0), (1, 2, 0), context(3, 7))
    with pytest.raises(ValueError):
        nu3_zero_case((2, 1, 0), (1, 0, 0), (1, 1, 0), context(3, 7))


def test_nu3_zero_case_iii():
    for c in (1, 2, 3):
        n = 3 * c + 3
        lam = (2 * c, c, 0)
        assert nu3_zero_case(lam, lam, lam, context(3, n)) == ("value", -c)


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_nu3_zero_matches_oracle(n):
    ctx = context(3, n)
    parts = [p for p in all_partitions(ctx) if p[2] == 0]
    cases = set()
    for lam in parts:
        for mu in parts:
            for nu in parts:
                if nu[0] < max(lam[0], mu[0]) or nu[1] < max(lam[1], mu[1]):
                    continue
                tag, val = nu3_zero_case(lam, mu, nu, ctx)
                cases.add(tag)
                want = structure_constant(lam, mu, nu, 1, ctx)
                if tag == "classical":
                    assert structure_constant(*val, 0, ctx) == want, (lam, mu, nu)
                elif tag == "value":
                    assert val == want, (lam, mu, nu)
                else:
                    assert want == 0, (lam, mu, nu)
    assert {"classical", "zero"} <= cases


def _pointwise_qlr_gr3(lam, mu, nu, d, ctx):
    # the rule as one call per constant, each product read afresh: a frozen
    # copy of the evaluator that the pair-bound one replaced
    if d < 0:
        return 0
    if d == 0:
        return _structure_constant(lam, mu, nu, 0, ctx)
    if d >= 2:
        return 0
    w = ctx.width
    if nu[0] < lam[0] or nu[0] < mu[0]:
        if nu[0] >= lam[0]:
            lam, mu = mu, lam
        a = lam[0]
        return _structure_constant(
            (lam[1] + w - a, w - a, 0),
            mu,
            (nu[0] + w + 1 - a, nu[1] + w + 1 - a, nu[2] + w + 1 - a),
            0,
            ctx,
        )
    if nu[1] < lam[1] or nu[1] < mu[1]:
        if nu[1] >= lam[1]:
            lam, mu = mu, lam
        b = lam[1]
        return _structure_constant(
            (w - b, lam[0] - b, 0),
            mu,
            (nu[1] + w + 1 - b, nu[2] + w + 1 - b, nu[0] - b + 1),
            0,
            ctx,
        )
    m = sum(nu) + ctx.n - sum(lam) - sum(mu)
    A = lam[0] + mu[0] - nu[0] - nu[1]
    constraints = (
        A > 0
        and 0 <= m <= 3
        and min(lam[0] + lam[1], mu[0] + mu[1]) >= w + nu[2]
        and min(lam[0], mu[0]) > nu[1]
        and min(lam[1], mu[1]) > nu[2]
    )
    if not constraints:
        return 0
    if w < nu[0]:
        raise ArithmeticError(f"nu={nu} leaves the 3x{w} rectangle")
    c1 = min(A, w - nu[0])
    c0 = min(A - 1, w - nu[0])
    if m == 0:
        return c0
    if m == 1:
        return -c1 - 2 * c0
    if m == 2:
        return 2 * c1 + c0
    return -c1


@pytest.mark.parametrize("n", [6, 7, 8])
def test_pair_bound_rule_matches_the_pointwise_rule(n):
    # every (lam, mu) in both orders, every nu, and degrees one beyond each
    # end of 0..trunc; one bound rule serves every (nu, d) of its pair, so a
    # product read under the wrong key, or the wrong factor shifted, differs
    ctx = context(3, n)
    parts = all_partitions(ctx)
    stripped = [p for p in parts if p[2] == 0]
    degrees = range(-1, ctx.trunc + 2)
    for lam in stripped:
        for mu in stripped:
            rule = _qlr_gr3_pair(lam, mu, ctx)
            for nu in parts:
                for d in degrees:
                    want = _pointwise_qlr_gr3(lam, mu, nu, d, ctx)
                    assert rule(nu, d) == want, (lam, mu, nu, d)
                    assert _qlr_gr3(lam, mu, nu, d, ctx) == want, (lam, mu, nu, d)
