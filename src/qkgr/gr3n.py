"""The closed-form quantum Littlewood-Richardson rule for QK(Gr(3, n)).

``qlr_gr3`` evaluates any structure constant with both left factors having
an empty third row (callers strip third rows first, see
``qk_engine.reduce_third_row``): degree zero delegates to classical
K-theory, degrees two and up vanish, and degree one falls into three cases
depending on how nu compares with lam and mu.  Cases (1) and (2) rewrite
the constant as a classical one through a single Seidel shift; case (3) is
a closed formula in A = lam_1 + mu_1 - nu_1 - nu_2 and
m = |nu| + n - |lam| - |mu|.

The rule is written once, as ``_qlr_gr3_pair(lam, mu, ctx)``: it binds one
pair of factors and returns rule(nu, d), which reads each classical product
it needs once, on first use.  That is lam * mu for degree zero and, for
degree one, at most four products: cases (1) and (2), each with lam or with
mu shifted.  A sweep over nu and d for one pair thus makes a handful of
product lookups instead of one per constant; ``qlr_gr3`` and ``_qlr_gr3``
bind the pair for a single constant.

The test suite compares the rule pointwise with ``structure_constant`` on
Gr(3, 6) and Gr(3, 7), and the ``gr3n-rule`` sweep compares it at every
(lam, mu, nu, d) of Gr(3, 6) through Gr(3, 10) with the shifting product
``ctx.engine._shifted``.  Both oracles read the products of
``ctx.engine``, and so does the rule.  At degree zero and in cases (1) and
(2) the rule reads a classical product that is an orbit shift of the pair
the oracle reads, so both sides come from the same stored representative
product.  Those are most of the values the sweep compares, and on them it
checks the case choice and the Seidel bookkeeping, not the value; only
case (3) is a closed formula checked against the engine.
"""

from __future__ import annotations

from .partitions import GrContext, size, validate


def qlr_gr3(lam, mu, nu, d: int, ctx: GrContext) -> int:
    """N_{lam,mu}^{nu,d} in the ring ctx, QK(Gr(3, n)), for lam, mu with empty third rows."""
    if ctx.k != 3:
        raise ValueError(f"qlr_gr3 needs k = 3, got Gr({ctx.k}, {ctx.n})")
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for p in (lam, mu, nu):
        validate(p, ctx)
    if lam[2] != 0 or mu[2] != 0:
        raise ValueError("qlr_gr3 expects lam_3 = mu_3 = 0; reduce third rows first")
    return _qlr_gr3(lam, mu, nu, d, ctx)


def _qlr_gr3(lam, mu, nu, d: int, ctx: GrContext) -> int:
    """``qlr_gr3`` on k = 3 tuples with lam_3 = mu_3 = 0, unchecked."""
    return _qlr_gr3_pair(lam, mu, ctx)(nu, d)


def _qlr_gr3_pair(lam, mu, ctx: GrContext):
    """The rule with lam and mu bound: a function (nu, d) -> N_{lam,mu}^{nu,d}.

    Each classical product the rule reads is bound once, on first use:
    O^lam * O^mu for degree zero, and for degree one the product of case
    (1) or (2) with lam or with mu shifted, keyed by that factor order.
    """
    w = ctx.width
    l0, l1, m0, m1 = lam[0], lam[1], mu[0], mu[1]
    # read i multiplies pairs[i]: degree zero, then cases (1) and (2)
    # shifting lam or mu, the shifted factor first
    pairs = (
        (lam, mu),
        ((l1 + w - l0, w - l0, 0), mu),
        ((m1 + w - m0, w - m0, 0), lam),
        ((w - l1, l0 - l1, 0), mu),
        ((w - m1, m0 - m1, 0), lam),
    )
    reads = [None] * len(pairs)

    def read(i):
        got = reads[i] = ctx.engine._product(*pairs[i]).terms.get
        return got

    # case (3): m = |nu| - size and A = top - nu_1 - nu_2
    size = sum(lam) + sum(mu) - ctx.n
    top = l0 + m0
    low0, low1, low01 = min(l0, m0), min(l1, m1), min(l0 + l1, m0 + m1) - w

    def rule(nu, d: int) -> int:
        if d != 1:
            if d:  # below 0 or at 2 and up
                return 0
            return (reads[0] or read(0))((nu, 0), 0)
        nu0, nu1, nu2 = nu
        if nu0 < l0 or nu0 < m0:
            if nu0 < l0:
                a, get = l0, reads[1] or read(1)
            else:
                a, get = m0, reads[2] or read(2)
            c = w + 1 - a
            return get(((nu0 + c, nu1 + c, nu2 + c), 0), 0)
        if nu1 < l1 or nu1 < m1:
            if nu1 < l1:
                b, get = l1, reads[3] or read(3)
            else:
                b, get = m1, reads[4] or read(4)
            c = w + 1 - b
            return get(((nu1 + c, nu2 + c, nu0 - b + 1), 0), 0)

        m = nu0 + nu1 + nu2 - size
        A = top - nu0 - nu1
        if not (A > 0 and 0 <= m <= 3 and low01 >= nu2 and low0 > nu1 and low1 > nu2):
            return 0
        if w < nu0:
            raise ArithmeticError(f"nu={nu} leaves the 3x{w} rectangle")
        c1 = min(A, w - nu0)
        c0 = min(A - 1, w - nu0)
        if m == 0:
            return c0
        if m == 1:
            return -c1 - 2 * c0
        if m == 2:
            return 2 * c1 + c0
        return -c1

    return rule


def positivity_check(lam, mu, nu, d: int, value: int, ctx: GrContext) -> bool:
    """Whether (-1)^(|lam|+|mu|+|nu|+d*n) * value >= 0."""
    sign = -1 if (size(lam) + size(mu) + size(nu) + d * ctx.n) % 2 else 1
    return sign * value >= 0


def nu3_zero_case(lam, mu, nu, ctx: GrContext):
    """Degree-one constants with nu_3 = 0 and nu dominating both factors.

    Returns a tagged result: ("classical", (lam', mu', nu')) when the
    constant equals the classical one for the given tuple, ("value", v)
    for the closed diagonal case, or ("zero", 0).
    """
    if ctx.k != 3:
        raise ValueError(f"nu3_zero_case needs k = 3, got Gr({ctx.k}, {ctx.n})")
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for p in (lam, mu, nu):
        validate(p, ctx)
    if lam[2] or mu[2] or nu[2]:
        raise ValueError("nu3_zero_case expects empty third rows everywhere")
    if nu[0] < max(lam[0], mu[0]) or nu[1] < max(lam[1], mu[1]):
        raise ValueError("nu3_zero_case expects nu to dominate both factors")
    w = ctx.width
    if w - mu[1] < lam[0]:
        return (
            "classical",
            (
                (lam[1] + w - lam[0], w - lam[0], 0),
                (w - nu[1], w - nu[0], 0),
                (2 * w + 1 - lam[0] - mu[1], 2 * w + 1 - lam[0] - mu[0], w + 1 - lam[0]),
            ),
        )
    if w - mu[0] < lam[1]:
        return (
            "classical",
            (
                (w - lam[1], lam[0] - lam[1], 0),
                (w - nu[1], w - nu[0], 0),
                (2 * w + 1 - lam[1] - mu[0], w + 1 - lam[1], w + 1 - mu[1] - lam[1]),
            ),
        )
    if lam == mu == nu and lam[0] + lam[1] == w:
        if lam[0] < 2 * lam[1]:
            return (
                "classical",
                (
                    (w - lam[1], lam[0] - lam[1], 0),
                    (lam[0], lam[0] - lam[1], 0),
                    (lam[0] - 2 * lam[1] + w + 1, w + 1 - lam[1], lam[0] - lam[1] + 1),
                ),
            )
        return ("value", -lam[1])
    return ("zero", 0)
