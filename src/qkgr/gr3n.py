"""The closed-form quantum Littlewood-Richardson rule for QK(Gr(3, n)).

``qlr_gr3`` evaluates any structure constant with both left factors having
an empty third row (callers strip third rows first, see
``qk_engine.reduce_third_row``): degree zero delegates to classical
K-theory, degrees two and up vanish, and degree one falls into three cases
depending on how nu compares with lam and mu.  Cases (1) and (2) rewrite
the constant as a classical one through a single Seidel shift; case (3) is
a closed formula in A = lam_1 + mu_1 - nu_1 - nu_2 and
m = |nu| + n - |lam| - |mu|.

Every value is checked against the brute-force product oracle in the test
suite, for all of Gr(3, 6) through Gr(3, 10).
"""

from __future__ import annotations

from .partitions import GrContext, size, validate
from .qk_engine import _structure_constant


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
