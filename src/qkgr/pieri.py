"""Pieri rules for QK(Gr(k, n)).

Multiplication by a special class O^i = O^(i,0,...,0):

* the classical part runs over horizontal strips nu/lam with
  i <= |nu/lam| <= i + r(nu/lam) - 1 and carries the signed binomial
  (-1)^(|nu/lam|-i) * C(r(nu/lam)-1, |nu/lam|-i);
* the q-part exists only when lam fills all k rows, and runs over the
  removals of outer-rim boxes of lam (at least one per row) with
  coefficient (-1)^e * C(rho, e) at q^1, where e = |nu| + n - |lam| - i and
  rho counts the rim rows of nu above the bottom one.

``quantum_pieri_restated`` computes the same product by shifting lam down
until its last row is empty and reading the q-part off classical strips of
the shifted shape; the two forms agree on every input (tested exhaustively).
"""

from __future__ import annotations

from functools import cache
from math import comb

from .element import QKElement
from .partitions import (
    GrContext,
    _check_valid,
    horizontal_strips_over,
    outer_rim_removals,
    seidel_up,
    size,
    validate,
)


def _check_index(i: int, ctx: GrContext) -> None:
    if not 1 <= i <= ctx.width:
        raise ValueError(f"Pieri index {i} out of range 1..{ctx.width}")


def classical_terms(ctx: GrContext, lam, i: int):
    """Terms (nu, 0, coeff) of the classical product O^i . O^lam."""
    _check_index(i, ctx)
    _check_valid(lam, ctx)
    out = []
    for nu in horizontal_strips_over(lam, ctx):
        s = size(nu) - size(lam)
        if s < i:
            continue
        r = sum(1 for a, b in zip(nu, lam) if a > b)
        if s > i + r - 1:
            continue
        out.append((nu, 0, (-1) ** (s - i) * comb(r - 1, s - i)))
    return tuple(out)


@cache
def quantum_terms(ctx: GrContext, lam, i: int):
    """Terms (nu, d, coeff) of the quantum product O^i * O^lam."""
    out = list(classical_terms(ctx, lam, i))
    for nu, rho in outer_rim_removals(lam, ctx):
        e = size(nu) + ctx.n - size(lam) - i
        if 0 <= e <= rho:
            out.append((nu, 1, (-1) ** e * comb(rho, e)))
    return tuple(out)


def classical_pieri(lam, i: int, ctx: GrContext) -> QKElement:
    validate(lam, ctx)
    return QKElement({(nu, d): c for nu, d, c in classical_terms(ctx, lam, i)})


def quantum_pieri(lam, i: int, ctx: GrContext) -> QKElement:
    validate(lam, ctx)
    return QKElement({(nu, d): c for nu, d, c in quantum_terms(ctx, lam, i)})


def quantum_pieri_restated(lam, i: int, ctx: GrContext) -> QKElement:
    """The restated quantum Pieri rule, via the shift lam -> lam down lam_k.

    The q-part keeps the classical terms of O^i . O^tilde, tilde = lam down
    lam_k, with their signs: |nu| = |nt| + k lam_k - n and |tilde| =
    |lam| - k lam_k, so the rule's exponent |nu| + n - i - |lam| is |nt/tilde| - i.
    """
    validate(lam, ctx)
    _check_index(i, ctx)
    k, n, w = ctx.k, ctx.n, ctx.width
    out = {(nu, d): c for nu, d, c in classical_terms(ctx, lam, i)}
    bottom = lam[k - 1]
    if bottom > 0:
        tilde = seidel_up(lam, -bottom, ctx)
        for nt, _, c in classical_terms(ctx, tilde, i):
            if nt[0] <= w - bottom:
                continue
            nu = tuple(nt[j] + bottom - 1 for j in range(1, k)) + (
                bottom - n + k + nt[0] - 1,
            )
            out[(nu, 1)] = out.get((nu, 1), 0) + c
    return QKElement(out)


def apply_terms(vec: dict, i: int, ctx: GrContext) -> dict:
    """Quantum multiplication by O^i on a raw term dict, truncated in q.

    ``vec`` maps (partition, d) to integers; each term is expanded through
    ``quantum_terms`` and terms above ``ctx.trunc`` are dropped.
    ``Gr3Engine`` calls it; ``LiftEngine`` applies Pieri rows of its own,
    on integer ids.
    """
    _check_index(i, ctx)
    trunc = ctx.trunc
    out = {}
    for (lam, d), c in vec.items():
        for nu, dd, c2 in quantum_terms(ctx, lam, i):
            dnew = d + dd
            if dnew > trunc:
                continue
            key = (nu, dnew)
            v = out.get(key, 0) + c * c2
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out
