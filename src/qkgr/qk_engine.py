"""Product engines for QK(Gr(k, n)).

Two independent routes compute quantum products of Schubert classes:

* ``Gr3Engine`` (k = 3 only): strip both third rows, expand one reduced
  factor through the two-row Giambelli recipe into quantum Pieri operators,
  and shift the result back with powers of the Seidel operator T.

* ``LiftEngine`` (any k): a q-adic lift of the classical Giambelli
  expansion.  Monomials in the special classes, applied smallest part
  first, expand at q = 0 as the target Schubert class plus strictly larger
  terms in the (size, lex) basis order.  Evaluating every monomial against
  a fixed right factor therefore pins down that column of the
  multiplication table by back-substitution, one q-degree at a time; the
  q >= 1 entries of the expansions feed lower degrees only, which is what
  makes the lift converge.

Both engines agree entrywise wherever both apply (tested), and either one
serves as the brute-force oracle for the closed-form rules.
"""

from __future__ import annotations

import json
from functools import cache

from .element import QKElement
from .partitions import (
    GrContext,
    all_partitions,
    basis_key,
    rook_strips_over,
    seidel_power,
    validate,
)
from .pieri import apply_terms, quantum_terms
from .seidel import apply_t_power


def _pieri_apply(ctx: GrContext, i: int, vec: dict) -> dict:
    if i == 0:
        return vec
    return apply_terms(vec, lambda lam: quantum_terms(ctx, lam, i), ctx.trunc)


def _zero(ctx: GrContext):
    return (0,) * ctx.k


def _strip_third_row(lam):
    return (lam[0] - lam[2], lam[1] - lam[2], 0)


class LiftEngine:
    """Multiplication via the q-adic Giambelli lift; see module docstring."""

    def __init__(self, ctx: GrContext):
        self.ctx = ctx
        self._expansions = {}
        self._closures = {}
        self._mono_columns = {}
        self._columns = {}
        self._elements = {}

    def _mono_value(self, rho, mu, col_cache) -> dict:
        """The monomial of special classes indexed by rho, applied to O^mu."""
        got = col_cache.get(rho)
        if got is not None:
            return got
        if rho[0] == 0:
            val = {(mu, 0): 1}
        else:
            tail = rho[1:] + (0,)
            val = _pieri_apply(self.ctx, rho[0], self._mono_value(tail, mu, col_cache))
        col_cache[rho] = val
        return val

    def monomial_expansion(self, rho) -> dict:
        """Expansion of the rho-monomial value at the unit class.

        At q = 0 this is unitriangular: coefficient 1 on O^rho and support
        only on strictly larger partitions in basis order.
        """
        got = self._expansions.get(rho)
        if got is not None:
            return got
        zero = _zero(self.ctx)
        col_cache = self._mono_columns.setdefault(zero, {})
        val = self._mono_value(rho, zero, col_cache)
        if val.get((rho, 0)) != 1:
            raise ArithmeticError(f"monomial expansion not unital at {rho}")
        rk = basis_key(rho)
        if any(basis_key(nu) <= rk for (nu, e) in val if e == 0 and nu != rho):
            raise ArithmeticError(f"monomial expansion not triangular at {rho}")
        self._expansions[rho] = val
        return val

    def _closure(self, lam) -> frozenset:
        got = self._closures.get(lam)
        if got is not None:
            return got
        seen = {lam}
        stack = [lam]
        while stack:
            rho = stack.pop()
            for nu, _ in self.monomial_expansion(rho):
                if nu not in seen:
                    seen.add(nu)
                    stack.append(nu)
        out = frozenset(seen)
        self._closures[lam] = out
        return out

    def _solve_column(self, mu, roots) -> dict:
        """Ensure the products O^rho * O^mu are solved for every rho in roots."""
        col = self._columns.setdefault(mu, {})
        missing = [lam for lam in roots if lam not in col]
        if not missing:
            return col
        closure = set()
        for lam in missing:
            closure |= self._closure(lam)
        closure -= col.keys()
        trunc = self.ctx.trunc
        mono_cache = self._mono_columns.setdefault(mu, {})
        wslices = {}
        for rho in closure:
            sl = [dict() for _ in range(trunc + 1)]
            for (nu, dd), c in self._mono_value(rho, mu, mono_cache).items():
                sl[dd][nu] = c
            wslices[rho] = sl
        order = sorted(closure, key=basis_key, reverse=True)
        built = {rho: [dict() for _ in range(trunc + 1)] for rho in closure}
        for dcur in range(trunc + 1):
            for rho in order:
                out = dict(wslices[rho][dcur])
                for (nu, e), a in self.monomial_expansion(rho).items():
                    if e > dcur or (nu, e) == (rho, 0):
                        continue
                    src = built[nu] if nu in built else col[nu]
                    for tgt, c in src[dcur - e].items():
                        v = out.get(tgt, 0) - a * c
                        if v:
                            out[tgt] = v
                        elif tgt in out:
                            del out[tgt]
                built[rho][dcur] = out
        col.update(built)
        return col

    def product_via_column(self, row, col) -> QKElement:
        """O^row * O^col solved inside the col-column, bypassing the
        symmetric cache; lets tests check commutativity for real."""
        slices = self._solve_column(col, [row])[row]
        return QKElement(
            {(nu, d): c for d, sl in enumerate(slices) for nu, c in sl.items()}
        )

    def product_basis(self, lam, mu) -> QKElement:
        """O^lam * O^mu; lam is solved inside the mu-column."""
        key = (lam, mu) if lam >= mu else (mu, lam)
        got = self._elements.get(key)
        if got is not None:
            return got
        ctx = self.ctx
        validate(lam, ctx)
        validate(mu, ctx)
        zero = _zero(ctx)
        if lam == zero:
            elem = QKElement.basis(mu)
        elif mu == zero:
            elem = QKElement.basis(lam)
        else:
            done = self._columns.get(mu)
            if done is None or lam not in done:
                other = self._columns.get(lam)
                if other is not None and mu in other:
                    lam, mu = mu, lam
                    done = other
                else:
                    done = self._solve_column(mu, [lam])
            slices = done[lam]
            elem = QKElement(
                {(nu, d): c for d, sl in enumerate(slices) for nu, c in sl.items()}
            )
        self._elements[key] = elem
        return elem

    def check_unit_column(self) -> None:
        """Verify M_lam applied to the unit returns O^lam exactly.

        A failure would mean the truncation is too small for this ring;
        rebuild with a larger one.
        """
        zero = _zero(self.ctx)
        for lam in all_partitions(self.ctx):
            got = self.product_basis(lam, zero)
            if got != QKElement.basis(lam):
                raise ArithmeticError(
                    f"lift did not converge at {lam}; increase trunc={self.ctx.trunc}"
                )


def giambelli_gr3(mu, ctx: GrContext) -> list[tuple[int, tuple]]:
    """Signed Pieri monomials whose quantum evaluation is exactly O^mu.

    Requires k = 3 and mu_3 = 0.  Each entry is (sign, factors) where the
    factors are special-class indices and an index 0 means the unit class.
    """
    if ctx.k != 3:
        raise ValueError("giambelli_gr3 needs k = 3")
    validate(mu, ctx)
    if mu[2] != 0:
        raise ValueError("giambelli_gr3 needs mu_3 = 0")
    if mu[0] == 0:
        return [(1, ())]
    if mu[1] == 0:
        return [(1, (mu[0],))]
    recipe = [(1, (mu[0], mu[1] - 1))]
    for j in range(mu[0], ctx.width + 1):
        recipe.append((1, (j, mu[1])))
        recipe.append((-1, (j, mu[1] - 1)))
    return recipe


class Gr3Engine:
    """Multiplication in QK(Gr(3, n)) via third-row reduction and Giambelli."""

    def __init__(self, ctx: GrContext):
        if ctx.k != 3:
            raise ValueError("Gr3Engine needs k = 3")
        self.ctx = ctx
        self._reduced = {}
        self._elements = {}

    def _product_reduced(self, lam, mu) -> dict:
        """O^lam * O^mu for two shapes with empty third row."""
        key = (lam, mu) if lam >= mu else (mu, lam)
        got = self._reduced.get(key)
        if got is not None:
            return got
        rec_factor, base = key
        out = self._product_reduced_directed(base, rec_factor)
        self._reduced[key] = out
        return out

    def _product_reduced_directed(self, base, rec_factor) -> dict:
        """Expand rec_factor through the Giambelli recipe against O^base."""
        ctx = self.ctx
        vec = {(base, 0): 1}
        if rec_factor[0] == 0:
            out = vec
        elif rec_factor[1] == 0:
            out = _pieri_apply(ctx, rec_factor[0], vec)
        else:
            out = {}
            first_applied = {}
            for sign, (a, b) in giambelli_gr3(rec_factor, ctx):
                va = first_applied.get(a)
                if va is None:
                    va = first_applied[a] = _pieri_apply(ctx, a, vec)
                term = _pieri_apply(ctx, b, va)
                for kk, c in term.items():
                    v = out.get(kk, 0) + sign * c
                    if v:
                        out[kk] = v
                    elif kk in out:
                        del out[kk]
        return out

    def _product_shifted(self, lam, mu, reduced_product) -> QKElement:
        """Strip both third rows, multiply, and shift back by T^(lam_3 + mu_3)."""
        ctx = self.ctx
        validate(lam, ctx)
        validate(mu, ctx)
        elem = QKElement(reduced_product(_strip_third_row(lam), _strip_third_row(mu)))
        s = lam[2] + mu[2]
        if s:
            elem = apply_t_power(elem, s, ctx)
        return elem

    def product_directed(self, lam, mu) -> QKElement:
        """O^lam * O^mu with mu expanded through the recipe, uncached."""
        return self._product_shifted(lam, mu, self._product_reduced_directed)

    def product_basis(self, lam, mu) -> QKElement:
        key = (lam, mu) if lam >= mu else (mu, lam)
        got = self._elements.get(key)
        if got is None:
            got = self._elements[key] = self._product_shifted(lam, mu, self._product_reduced)
        return got


@cache
def lift_engine(ctx: GrContext) -> LiftEngine:
    return LiftEngine(ctx)


@cache
def gr3_engine(ctx: GrContext) -> Gr3Engine:
    return Gr3Engine(ctx)


def engine(ctx: GrContext):
    """Default product engine: the Giambelli path for k = 3, else the lift."""
    return gr3_engine(ctx) if ctx.k == 3 else lift_engine(ctx)


def product_basis(lam, mu, ctx: GrContext) -> QKElement:
    return engine(ctx).product_basis(lam, mu)


def product(a: QKElement, b: QKElement, ctx: GrContext) -> QKElement:
    """Bilinear extension of the basis product, truncated at ctx.trunc."""
    eng = engine(ctx)
    out = QKElement()
    for (p2, d2), c2 in b.terms.items():
        for (p1, d1), c1 in a.terms.items():
            shift = d1 + d2
            if shift > ctx.trunc:
                continue
            piece = eng.product_basis(p1, p2).q_shift(shift).truncated(ctx.trunc)
            out = out + piece.scaled(c1 * c2)
    return out


def structure_constant(lam, mu, nu, d: int, ctx: GrContext) -> int:
    """The coefficient of q^d O^nu in O^lam * O^mu."""
    if not 0 <= d <= ctx.trunc:
        raise ValueError(f"degree {d} outside 0..{ctx.trunc}")
    validate(nu, ctx)
    return product_basis(lam, mu, ctx).coefficient(nu, d)


def reduce_third_row(lam, mu, nu, d: int, ctx: GrContext):
    """Strip the third rows off lam and mu and shift nu to match (k = 3).

    Returns (lam', mu', nu', d') indexing an equal structure constant with
    both third rows empty; a negative d' signals that the requested (nu, d)
    coefficient is zero.  The sign (-1)^(|lam|+|mu|+|nu|+d*n) is preserved.
    """
    if ctx.k != 3:
        raise ValueError("reduce_third_row needs k = 3")
    for p in (lam, mu, nu):
        validate(p, ctx)
    s = lam[2] + mu[2]
    dd, nu2 = seidel_power(nu, -s, ctx)
    if seidel_power(nu2, s, ctx) != (-dd, nu):
        raise ArithmeticError(f"T^{s} does not undo T^-{s} at {nu}")
    return (_strip_third_row(lam), _strip_third_row(mu), nu2, d + dd)


def ideal_sheaf(mu, ctx: GrContext) -> QKElement:
    """The dual basis element: a signed sum over rook strips on dual(mu)."""
    validate(mu, ctx)
    return QKElement({(eta, 0): sign for eta, sign in rook_strips_over(mu, ctx)})


def euler_char(elem: QKElement) -> dict[int, int]:
    """Sheaf Euler characteristic, per q-degree: each O^nu contributes 1."""
    out = {}
    for (_, d), c in elem.terms.items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in sorted(out.items()) if c}


def pairing(lam, mu, ctx: GrContext) -> int:
    """chi(O^lam . xi_mu) in classical K-theory (the q^0 part of the product)."""
    total = 0
    for (eta, _), sign in ideal_sheaf(mu, ctx).terms.items():
        prod = product_basis(lam, eta, ctx)
        total += sign * sum(prod.q_slice(0).values())
    return total


def verify_recursion(lam, mu, nu, d: int, ctx: GrContext) -> bool:
    """Associativity surrogate for the structure-constant recursion.

    Compares both factorizations of the triple product of O^lam, O^mu and
    O^nu coefficientwise through q-degree d.
    """
    left = product(product_basis(lam, mu, ctx), QKElement.basis(nu), ctx)
    right = product(QKElement.basis(lam), product_basis(mu, nu, ctx), ctx)
    return left.truncated(d) == right.truncated(d)


class MultiplicationTable:
    """The full basis-product table for one ring, deterministically ordered."""

    def __init__(self, ctx: GrContext, eng=None):
        self.ctx = ctx
        self.engine = eng if eng is not None else engine(ctx)
        self.basis = all_partitions(ctx)
        self._products = {}
        for i, lam in enumerate(self.basis):
            for mu in self.basis[i:]:
                self._products[(lam, mu)] = self.engine.product_basis(lam, mu)

    def product(self, lam, mu) -> QKElement:
        key = (lam, mu) if basis_key(lam) <= basis_key(mu) else (mu, lam)
        return self._products[key]

    def entries(self):
        """All (lam, mu, QKElement) with lam <= mu in basis order."""
        for key in sorted(self._products, key=lambda p: basis_key(p[0]) + basis_key(p[1])):
            yield key[0], key[1], self._products[key]

    def operator(self, lam) -> dict:
        """The column map of quantum multiplication by O^lam."""
        return {mu: self.product(lam, mu) for mu in self.basis}

    def max_q_degree(self) -> int:
        """Largest q-degree observed across the table."""
        return max(
            (elem.max_q() for elem in self._products.values() if not elem.is_zero()),
            default=0,
        )

    def dump_jsonl(self, fp) -> None:
        """One JSON record per (lam, mu) pair, in deterministic order."""
        for lam, mu, elem in self.entries():
            record = {"lhs": list(lam), "rhs": list(mu), "terms": elem.to_obj()["terms"]}
            fp.write(json.dumps(record, separators=(",", ":")) + "\n")


def giambelli_lift_general(ctx: GrContext) -> MultiplicationTable:
    """Full multiplication table through the lift engine, unit-checked."""
    eng = lift_engine(ctx)
    eng.check_unit_column()
    return MultiplicationTable(ctx, eng)


@cache
def multiplication_table(ctx: GrContext) -> MultiplicationTable:
    """Cached full table through the default engine for the context."""
    return MultiplicationTable(ctx)
