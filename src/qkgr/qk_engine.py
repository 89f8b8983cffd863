"""Product engines for QK(Gr(k, n)).

Two independent routes compute quantum products of Schubert classes:

* ``Gr3Engine`` (k = 3 only): strip both third rows, expand one stripped
  factor through the two-row Giambelli recipe into quantum Pieri operators,
  and shift the result back with powers of the Seidel operator T.  Its one
  product cache holds the stripped pairs too, so a pair with a third row
  is a T-shift of a cached entry.

* ``LiftEngine`` (any k): a lift of the classical Giambelli expansion.
  Monomials in the special classes, applied smallest part first, expand at
  the unit as the target Schubert class plus strictly larger terms in the
  (size, lex) basis order.  Evaluating every monomial against a fixed right
  factor therefore pins down that column of the multiplication table by
  one classical back-substitution.

  The expansions at the unit are q-free.  A monomial applies at most k
  special classes to O^(0), and each Pieri step adds a horizontal strip, so
  it makes at most one more row nonzero.  The q-part of O^i * O^lam needs
  lam to have all k rows nonzero already, so no step of such a monomial can
  produce one.  ``LiftEngine.monomial_expansion`` checks this on every
  expansion it builds rather than assuming it.

Both engines agree entrywise wherever both apply (tested), and either one
serves as the brute-force oracle for the closed-form rules.

A full table uses the paper's Seidel representation instead of solving
every pair.  With T^a O^lam = q^(d_a) O^rho and T^b O^mu = q^(d_b) O^sigma,
``O^lam * O^mu = q^(d_a + d_b) T^(-a-b) (O^rho * O^sigma)``, so
``MultiplicationTable.entries`` asks the engine only for products of
Z/n-orbit representatives and shifts them.  ``LiftEngine.product_basis``
uses the same representation for one pair: it solves the fewest-row member
of either factor's orbit and shifts back.  One rule, ``_fewest_rows``,
picks the member in both places, so a representative pair needs no shift.
``LiftEngine.product_via_column`` solves its pair as typed, with no shift;
it is the independent oracle the shifted products, the orbit tables and
the ``seidel`` and ``dmin`` sweeps are checked against.
"""

from __future__ import annotations

from math import comb

from .element import QKElement
from .partitions import (
    GrContext,
    basis_key,
    rook_strips_over,
    seidel_orbit,
    seidel_power,
    validate,
)
from .pieri import apply_terms, quantum_terms
from .seidel import _shift_terms, apply_t_power


def _zero(ctx: GrContext):
    return (0,) * ctx.k


def _fewest_rows(p, ctx: GrContext) -> tuple:
    """(rows, -size, rho, r, d): the member rho = p up r of p's Seidel orbit,
    T^r O^p = q^d O^rho, with the fewest nonzero rows, then the largest,
    then the least as a tuple, then the smallest r.  Every member of one
    orbit picks the same rho; the first two fields rank it against the
    choice from another orbit."""
    return min(
        (len(rho) - rho.count(0), -sum(rho), rho, r, d)
        for r, (d, rho) in enumerate(seidel_orbit(p, ctx))
    )


def _strip_third_row(lam):
    return (lam[0] - lam[2], lam[1] - lam[2], 0)


class LiftEngine:
    """Multiplication via the Giambelli lift; see module docstring.

    Internally a partition is an integer id, handed out the first time the
    engine meets the partition, so one product never enumerates the ring.
    A q-graded vector is a dict keyed by ``d * C(n, k) + id``; a key below
    the stride C(n, k) is a q^0 term.  Id 0 is the unit class O^(0).
    """

    def __init__(self, ctx: GrContext):
        self.ctx = ctx
        self._stride = comb(ctx.n, ctx.k)
        self._ids = {}  # partition -> id
        self._parts = []  # id -> partition
        self._keys = []  # id -> basis_key
        self._rows = {}  # Pieri index i -> {vector key: ((key, coeff), ...)}
        self._expansions = {}  # id -> ((id, coeff), ...), diagonal left out
        self._closures = {}  # id -> frozenset of ids
        self._mono = {}  # column id -> {id: monomial value on that column}
        self._columns = {}  # column id -> {id: solved product vector}
        self._elements = {}
        self._intern(_zero(ctx))

    def _intern(self, lam) -> int:
        got = self._ids.get(lam)
        if got is None:
            got = self._ids[lam] = len(self._parts)
            self._parts.append(lam)
            self._keys.append(basis_key(lam))
        return got

    def _row(self, i: int, key: int) -> tuple:
        """The Pieri row of O^i on the vector key, shifted and truncated."""
        stride = self._stride
        d, lid = divmod(key, stride)
        limit = (self.ctx.trunc + 1) * stride
        row = []
        for nu, dd, c in quantum_terms(self.ctx, self._parts[lid], i):
            tgt = (d + dd) * stride + self._intern(nu)
            if tgt < limit:
                row.append((tgt, c))
        return tuple(row)

    def _apply_pieri(self, i: int, vec: dict) -> dict:
        """O^i times a q-graded vector, truncated in q."""
        rows = self._rows.setdefault(i, {})
        out = {}
        get = out.get
        for key, c in vec.items():
            row = rows.get(key)
            if row is None:
                row = rows[key] = self._row(i, key)
            for tgt, c2 in row:
                out[tgt] = get(tgt, 0) + c * c2
        return {t: v for t, v in out.items() if v}

    def _mono_value(self, rid: int, cache: dict) -> dict:
        """The monomial of special classes indexed by rho, applied to the
        column class; ``cache`` holds that column's values and is seeded
        with the column class itself under id 0."""
        got = cache.get(rid)
        if got is None:
            rho = self._parts[rid]
            tail = self._mono_value(self._intern(rho[1:] + (0,)), cache)
            got = cache[rid] = self._apply_pieri(rho[0], tail)
        return got

    def _column_cache(self, mid: int) -> dict:
        cache = self._mono.get(mid)
        if cache is None:
            cache = self._mono[mid] = {0: {mid: 1}}
        return cache

    def _expansion(self, rid: int) -> tuple:
        """The off-diagonal part of the rho-monomial at the unit, checked."""
        got = self._expansions.get(rid)
        if got is not None:
            return got
        val = self._mono_value(rid, self._column_cache(0))
        rho = self._parts[rid]
        if val.get(rid) != 1:
            raise ArithmeticError(f"monomial expansion not unital at {rho}")
        keys, stride = self._keys, self._stride
        if any(b >= stride for b in val):
            raise ArithmeticError(f"monomial expansion carries a q-term at {rho}")
        rk = keys[rid]
        if any(keys[b] <= rk for b in val if b != rid):
            raise ArithmeticError(f"monomial expansion not triangular at {rho}")
        got = self._expansions[rid] = tuple((b, a) for b, a in val.items() if b != rid)
        return got

    def monomial_expansion(self, rho) -> dict:
        """Expansion of the rho-monomial value at the unit class.

        It is unitriangular and q-free: coefficient 1 on O^rho, support
        only on strictly larger partitions in basis order, every term at
        q^0.  Raises ArithmeticError if any of that fails.
        """
        rid = self._intern(rho)
        out = {(self._parts[b], 0): a for b, a in self._expansion(rid)}
        out[(rho, 0)] = 1
        return out

    def _closure(self, rid: int) -> frozenset:
        got = self._closures.get(rid)
        if got is not None:
            return got
        seen = {rid}
        stack = [rid]
        while stack:
            for b, _ in self._expansion(stack.pop()):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        got = self._closures[rid] = frozenset(seen)
        return got

    def _solve_column(self, mid: int, rid: int) -> dict:
        """Ensure O^rho * O^mu is solved inside the mu-column.

        One pass over the closure of rho in descending basis order:
        X[b] = W[b] - sum a_c X[c], where W[b] is the b-monomial applied to
        O^mu and a_c its expansion coefficients, all on larger c.
        """
        col = self._columns.setdefault(mid, {})
        if rid in col:
            return col
        todo = self._closure(rid).difference(col)
        cache = self._column_cache(mid)
        for b in sorted(todo, key=self._keys.__getitem__, reverse=True):
            x = dict(self._mono_value(b, cache))
            get = x.get
            for c, a in self._expansion(b):
                for tgt, v in col[c].items():
                    x[tgt] = get(tgt, 0) - a * v
            col[b] = {t: v for t, v in x.items() if v}
        return col

    def _element(self, vec: dict) -> QKElement:
        parts, stride = self._parts, self._stride
        return QKElement({(parts[t % stride], t // stride): c for t, c in vec.items()})

    def product_via_column(self, row, col) -> QKElement:
        """O^row * O^col solved inside the col-column as typed, with no
        shift and bypassing the symmetric cache: the direct oracle for
        ``product_basis``, and lets tests check commutativity for real."""
        validate(row, self.ctx)
        validate(col, self.ctx)
        rid, mid = self._intern(row), self._intern(col)
        return self._element(self._solve_column(mid, rid)[rid])

    def product_basis(self, lam, mu) -> QKElement:
        """O^lam * O^mu through the cheapest Seidel shift of either factor.

        T^r O^p = q^(d_r) O^(p up r), so O^p * O^c = q^(d_r) T^(-r) (O^rho * O^c)
        with rho = p up r.  Of the 2n members rho of the two factors'
        orbits, each against the other factor c as column, the one with the
        fewest nonzero rows, then the largest, is solved: its monomial has
        l(rho) Pieri factors and its closure lies above rho in basis order.
        Ties go to lam's orbit; ``_fewest_rows`` breaks them within an
        orbit.  A rectangle's orbit holds (0), so its product is the unit
        solved in the other column.
        """
        key = (lam, mu) if lam >= mu else (mu, lam)
        got = self._elements.get(key)
        if got is not None:
            return got
        ctx = self.ctx
        validate(lam, ctx)
        validate(mu, ctx)
        a, b = _fewest_rows(lam, ctx), _fewest_rows(mu, ctx)
        (_, _, rho, r, d), col = (a, mu) if a[:2] <= b[:2] else (b, lam)
        rid, mid = self._intern(rho), self._intern(col)
        elem = self._element(self._solve_column(mid, rid)[rid])
        if r:
            elem = _shift_terms(elem, -r, d, ctx)
        self._elements[key] = elem
        return elem

    def check_unit_column(self) -> None:
        """Verify that the kernel, solving the unit column, returns O^lam
        for every lam: the back-substitution must undo the expansions."""
        zero = _zero(self.ctx)
        for lam in self.ctx.basis:
            got = self.product_via_column(lam, zero)
            if got != QKElement.basis(lam):
                raise ArithmeticError(f"lift does not return O^{lam} on the unit column: {got}")


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
    """Multiplication in QK(Gr(3, n)) via third-row reduction and Giambelli.

    Stripping lam_3 from every row of lam is T^(-lam_3) with no q-power, so
    O^lam * O^mu = T^(lam_3 + mu_3) (O^lam' * O^mu') with lam', mu' the
    stripped shapes.  ``product_basis`` keeps one symmetric cache: a pair
    with a third row shifts its stripped pair, read from that same cache,
    and a stripped pair runs the recipe once.
    """

    def __init__(self, ctx: GrContext):
        if ctx.k != 3:
            raise ValueError("Gr3Engine needs k = 3")
        self.ctx = ctx
        self._elements = {}

    def _recipe(self, base, rec) -> QKElement:
        """O^base * O^rec for two stripped shapes: rec's Giambelli recipe
        evaluated on O^base through quantum Pieri."""
        ctx = self.ctx
        vec = {(base, 0): 1}
        out = {}
        first_applied = {}
        for sign, factors in giambelli_gr3(rec, ctx):
            term = vec
            if factors:
                a = factors[0]
                term = first_applied.get(a)
                if term is None:
                    term = first_applied[a] = apply_terms(vec, a, ctx)
            for b in factors[1:]:
                if b:  # index 0 is the unit class
                    term = apply_terms(term, b, ctx)
            for key, c in term.items():
                out[key] = out.get(key, 0) + sign * c
        return QKElement(out)

    def product_directed(self, lam, mu) -> QKElement:
        """O^lam * O^mu with mu expanded through the recipe, uncached."""
        ctx = self.ctx
        validate(lam, ctx)
        validate(mu, ctx)
        elem = self._recipe(_strip_third_row(lam), _strip_third_row(mu))
        return apply_t_power(elem, lam[2] + mu[2], ctx)

    def product_basis(self, lam, mu) -> QKElement:
        key = (lam, mu) if lam >= mu else (mu, lam)
        got = self._elements.get(key)
        if got is None:
            ctx = self.ctx
            validate(lam, ctx)
            validate(mu, ctx)
            s = lam[2] + mu[2]
            if s:
                stripped = self.product_basis(_strip_third_row(lam), _strip_third_row(mu))
                got = apply_t_power(stripped, s, ctx)
            else:
                got = self._recipe(key[1], key[0])
            self._elements[key] = got
        return got


def product_basis(lam, mu, ctx: GrContext) -> QKElement:
    return ctx.engine.product_basis(lam, mu)


def product(a: QKElement, b: QKElement, ctx: GrContext) -> QKElement:
    """Bilinear extension of the basis product, truncated at ctx.trunc."""
    prod, trunc = ctx.engine.product_basis, ctx.trunc
    out = {}
    for (p2, d2), c2 in b.terms.items():
        for (p1, d1), c1 in a.terms.items():
            shift = d1 + d2
            if shift > trunc:
                continue
            for (nu, d), c in prod(p1, p2).terms.items():
                if d + shift <= trunc:
                    out[nu, d + shift] = out.get((nu, d + shift), 0) + c1 * c2 * c
    return QKElement(out)


def structure_constant(lam, mu, nu, d: int, ctx: GrContext) -> int:
    """The coefficient of q^d O^nu in O^lam * O^mu."""
    if not 0 <= d <= ctx.trunc:
        raise ValueError(f"degree {d} outside 0..{ctx.trunc}")
    nu = tuple(nu)
    validate(nu, ctx)
    return product_basis(lam, mu, ctx).terms.get((nu, d), 0)


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
    """The full basis-product table for one ring, deterministically ordered.

    ``entries`` reads the table off the Seidel orbits, by the paper's Seidel
    representation.  Write T^a O^lam = q^(d_a) O^rho, where rho is the
    member of lam's orbit that ``_fewest_rows`` picks, the one
    ``LiftEngine.product_basis`` would solve, and likewise
    T^b O^mu = q^(d_b) O^sigma.  Then

        O^lam * O^mu = q^(d_a + d_b) T^(-a-b) (O^rho * O^sigma),

    so the engine solves only the R(R+1)/2 products of the R orbit
    representatives, each with no further shift, in its own cache, and
    every other entry is one shift.
    ``product`` asks the engine for its one pair;
    ``LiftEngine.product_via_column``, which never shifts, is the
    independent oracle for the table.
    """

    def __init__(self, ctx: GrContext, eng=None):
        self.ctx = ctx
        self.engine = eng if eng is not None else ctx.engine
        self.basis = ctx.basis

    def product(self, lam, mu) -> QKElement:
        return self.engine.product_basis(lam, mu)

    def entries(self):
        """All (lam, mu, QKElement) with lam <= mu in basis order, each
        shifted from its representatives' product.  Raises ArithmeticError
        if a shifted q-power leaves 0..trunc."""
        ctx, basis, prod = self.ctx, self.basis, self.engine.product_basis
        reps = {}  # lam -> (rho, a, d_a), read off one orbit per representative
        for lam in basis:
            if lam not in reps:
                _, _, rho, j, dj = _fewest_rows(lam, ctx)
                for i, (di, p) in enumerate(seidel_orbit(lam, ctx)):
                    # T^i O^lam = q^di O^p and T^j O^lam = q^dj O^rho
                    reps.setdefault(p, (rho, j - i, dj - di))
        for i, lam in enumerate(basis):
            rho, a, da = reps[lam]
            for mu in basis[i:]:
                sigma, b, db = reps[mu]
                yield lam, mu, _shift_terms(prod(rho, sigma), -a - b, da + db, ctx)

    def max_q_degree(self) -> int:
        """Largest q-degree observed across the table."""
        return max(
            (elem.max_q() for _, _, elem in self.entries() if not elem.is_zero()),
            default=0,
        )

    def dump_jsonl(self, fp) -> None:
        """One JSON record per (lam, mu) pair, in deterministic order.

        Each line is spelled as ``json.dumps`` spells the record
        {"lhs": lam, "rhs": mu, "terms": elem.to_obj()["terms"]} with
        separators (",", ":"): terms sorted by q-degree, then basis order.
        """
        text = {lam: ",".join(map(str, lam)) for lam in self.basis}
        rank = {lam: i for i, lam in enumerate(self.basis)}
        for lam, mu, elem in self.entries():
            terms = sorted(elem.terms.items(), key=lambda t: (t[0][1], rank[t[0][0]]))
            body = ",".join('{"q":%d,"partition":[%s],"coeff":%d}' % (d, text[nu], c) for (nu, d), c in terms)
            fp.write('{"lhs":[%s],"rhs":[%s],"terms":[%s]}\n' % (text[lam], text[mu], body))


def giambelli_lift_general(ctx: GrContext) -> MultiplicationTable:
    """Full multiplication table through a lift engine of its own, unit-checked;
    the table is the engine's only owner, so dropping it frees every column."""
    eng = LiftEngine(ctx)
    eng.check_unit_column()
    return MultiplicationTable(ctx, eng)
