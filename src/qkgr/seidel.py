"""Seidel operators on QK(Gr(k, n)) and quantum-to-classical reductions.

T is quantum multiplication by O^(1,...,1) and H by O^(n-k,0,...,0); both
act on the Schubert basis by a Seidel shift with an explicit q-power, and
satisfy T^n = q^k Id, H^n = q^(n-k) Id and H T = q Id.

The reductions rewrite a structure constant N_{lam,mu}^{nu,d} as one of a
strictly smaller degree (or the same degree under an equal-difference shift)
by comparing how lam and nu move under Seidel shifts.  They return None when
their hypotheses fail, so sweeps can filter applicable tuples.
"""

from __future__ import annotations

from .element import QKElement
from .partitions import (
    GrContext,
    dual,
    seidel_power,
    seidel_up,
    validate,
)


def _shift_terms(elem: QKElement, r: int, dq: int, ctx: GrContext) -> QKElement:
    """q^dq T^r applied linearly, for any integers r and dq.

    Raises OverflowError (an ArithmeticError) on a q-degree above the
    truncation, and ArithmeticError on one below 0.
    """
    out = {}
    for (lam, d), c in elem.terms.items():
        dd, nu = seidel_power(lam, r, ctx)
        dnew = d + dd + dq
        if dnew > ctx.trunc:
            raise OverflowError(
                f"q-degree {dnew} exceeds truncation {ctx.trunc}; widen the context"
            )
        if dnew < 0:
            raise ArithmeticError(f"q-degree {dnew} below 0 in q^{dq} T^{r} O^{lam}")
        key = (nu, dnew)
        out[key] = out.get(key, 0) + c
    return QKElement(out)


def T(elem: QKElement, ctx: GrContext) -> QKElement:
    return _shift_terms(elem, 1, 0, ctx)


def H(elem: QKElement, ctx: GrContext) -> QKElement:
    return _shift_terms(elem, -1, 1, ctx)


def d_min(lam, mu, ctx: GrContext) -> tuple[int, int]:
    """Smallest q-power in O^lam * O^mu and the smallest shift achieving it.

    d_min = max over 0 <= i < n of d_i(lam) + d_(n-i)(mu) - k, with d_r the
    q-power of T^r, and for the maximizer r the whole product satisfies
    O^lam * O^mu = q^d_min * O^(lam up r) * O^(mu up (n-r)).
    """
    validate(lam, ctx)
    validate(mu, ctx)
    n, k = ctx.n, ctx.k
    vals = [seidel_power(lam, i, ctx)[0] + seidel_power(mu, n - i, ctx)[0] - k for i in range(n)]
    best = max(vals)
    return (best, vals.index(best))


def reduce_lemred(lam, mu, nu, d: int, variant: int, ctx: GrContext, i: int = 1):
    """One Seidel-shift rewrite of (lam, mu, nu, d); None when inapplicable.

    Variants: (1) up-shift with strict drop comparison, degree d-1;
    (2) the down-shift analogue; (3)/(4) equal-difference up/down shifts by
    i, degree unchanged.  The drop |lam| - |lam up r| is n*d_r - r*k, so
    comparing drops of lam and nu under one shift r compares their q-powers.
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError(f"unknown variant {variant}")
    strict = variant <= 2
    if strict and d < 1:
        return None
    r = (1, -1, i, -i)[variant - 1]
    dl, lam_r = seidel_power(lam, r, ctx)
    dn, nu_r = seidel_power(nu, r, ctx)
    if strict and dl > dn:
        return (lam_r, mu, nu_r, d - 1)
    if not strict and dl == dn:
        return (lam_r, mu, nu_r, d)
    return None


def duality(lam, mu, nu, d: int, ctx: GrContext):
    """The dual index tuple (lam, dual nu, dual mu, d); an involution."""
    return (lam, dual(nu, ctx), dual(mu, ctx), d)


def lemcom_shift(lam, nu, m: int, ctx: GrContext):
    """Shift lam and nu up by n-k-lam_m+m and return both, in closed form.

    Requires nu_i >= lam_i for i < m and nu_m < lam_m.  The results are
    checked against the orbit table.
    """
    k, w = ctx.k, ctx.width
    if not 1 <= m <= k:
        raise ValueError(f"m={m} out of range 1..{k}")
    if any(nu[i] < lam[i] for i in range(m - 1)) or nu[m - 1] >= lam[m - 1]:
        raise ValueError("lemcom_shift needs nu_i >= lam_i below m and nu_m < lam_m")
    r = w - lam[m - 1] + m
    a = lam[m - 1]
    lam_closed = (
        tuple(lam[j] + w - a for j in range(m, k))
        + tuple(lam[j] - a for j in range(m - 1))
        + (0,)
    )
    nu_closed = tuple(nu[j] + w - a + 1 for j in range(m - 1, k)) + tuple(
        nu[j] - a + 1 for j in range(m - 1)
    )
    lam_up = seidel_up(lam, r, ctx)
    nu_up = seidel_up(nu, r, ctx)
    if lam_up != lam_closed or nu_up != nu_closed:
        raise ArithmeticError(f"closed form mismatch for lam={lam}, nu={nu}, m={m}")
    return (lam_up, nu_up)


def _deg_one(lam, mu, nu, d: int, ctx: GrContext):
    """(shift, rewritten tuple) of the degree-one rewrite; None if none."""
    if d < 1:
        return None
    m = next((i + 1 for i in range(ctx.k) if nu[i] < lam[i]), None)
    if m is None:
        return None
    r = ctx.width - lam[m - 1] + m
    return (r, (seidel_up(lam, r, ctx), mu, seidel_up(nu, r, ctx), d - 1))


def reduce_deg_one(lam, mu, nu, d: int, ctx: GrContext):
    """Degree-lowering rewrite at m = min{i : nu_i < lam_i}; None if none."""
    got = _deg_one(lam, mu, nu, d, ctx)
    return None if got is None else got[1]


def reduce_higher(lam, mu, nu, d: int, s: int, ctx: GrContext):
    """Drop the degree by s >= 2 in one shift; None when inapplicable.

    The shift row t runs over s..k, so an s above k never applies.
    """
    k = ctx.k
    if not 2 <= s <= min(d, k):
        return None
    if nu[0] + s - 2 >= lam[s - 2]:
        return None
    t = next(
        (j for j in range(s, k + 1) if nu[j - s] + s - 1 < lam[j - 1]),
        None,
    )
    if t is None:
        return None
    r = ctx.width - lam[t - 1] + t
    return (seidel_up(lam, r, ctx), mu, seidel_up(nu, r, ctx), d - s)


def reduce_dual_shift(lam, mu, nu, d: int, ctx: GrContext):
    """Degree-lowering rewrite through duality; None when inapplicable.

    Needs d >= 1, nu_1 >= lam_1 and nu_1 < lam_{k+1-j} + mu_j for some j;
    with m the least such j the tuple becomes
    (dual nu down (n-k-nu_1), mu down (k+mu_m-m), dual lam down (n-nu_1+mu_m-m), d-1).
    """
    k = ctx.k
    if d < 1 or nu[0] < lam[0]:
        return None
    m = next((j for j in range(1, k + 1) if nu[0] < lam[k - j] + mu[j - 1]), None)
    if m is None:
        return None
    return (
        seidel_up(dual(nu, ctx), nu[0] - ctx.width, ctx),
        seidel_up(mu, m - k - mu[m - 1], ctx),
        seidel_up(dual(lam, ctx), m - ctx.n + nu[0] - mu[m - 1], ctx),
        d - 1,
    )


def reduction_trace(lam, mu, nu, d: int, ctx: GrContext) -> list[dict]:
    """Greedy reduction to degree zero, one step per entry.

    Each step applies the degree-one rewrite to whichever factor admits it
    with the smaller shift (first factor on ties), falling back to the
    dual-shift rewrite.  Stops at degree zero or when no rule applies.

    The dual-shift rewrite needs no swapped form: once both degree-one
    rewrites fail, nu >= lam and nu >= mu row by row, and its condition
    nu_1 < lam_(k+1-j) + mu_j is then symmetric in lam and mu (j -> k+1-j).
    """
    steps = []
    while d > 0:
        options = []
        got = _deg_one(lam, mu, nu, d, ctx)
        if got is not None:
            options.append((got[0], "deg-one", got[1]))
        got = _deg_one(mu, lam, nu, d, ctx)
        if got is not None:
            r, (a, b, c, e) = got
            options.append((r, "deg-one-swapped", (b, a, c, e)))
        if options:
            _, rule, tup = min(options, key=lambda t: t[0])
        else:
            rule, tup = "dual-shift", reduce_dual_shift(lam, mu, nu, d, ctx)
            if tup is None:
                break
        lam, mu, nu, d = tup
        steps.append({"rule": rule, "lhs": lam, "rhs": mu, "nu": nu, "deg": d})
    return steps
