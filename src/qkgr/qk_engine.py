"""Product engines for QK(Gr(k, n)).

Every product goes through the paper's Seidel representation.  Each Z/n
orbit of T has one representative: the member with the fewest nonzero
rows, then the largest, then the least as a tuple.  With
T^a O^lam = q^(d_a) O^rho and T^b O^mu = q^(d_b) O^sigma for the
representatives rho and sigma,

    O^lam * O^mu = q^(d_a + d_b) T^(-a-b) (O^rho * O^sigma),

so ``LiftEngine`` solves only products of two representatives, each once,
and shifts.  ``LiftEngine._rep`` holds that rule and ``LiftEngine._solved``
reads the representatives' products from their solved columns, their one
store; ``product_basis`` (through ``_shifted``) and the full table
(through ``_table``, which shifts on basis positions and packs each term
into one sortable int) both read them.
``GrContext.engine`` is a ``LiftEngine`` for every k.

``LiftEngine`` solves one column O^mu of the multiplication table by one
quantum Pieri step per class (Buch-Mihalcea).  With
tail rho = (rho_2, ..., rho_k, 0),

    O^(rho_1) * O^(tail rho) = O^rho + sum a_c O^c

at the unit, so X[rho] = O^rho * O^mu satisfies X[0] = O^mu and

    X[rho] = O^(rho_1) * X[tail rho] - sum a_c X[c].

The step is q-free: the q-part of O^i * O^lam needs all k rows of lam
nonzero, and the tail's last row is empty.  Every c is a horizontal strip
over the tail of size at least rho_1, so c lies above rho in the (size,
lex) basis order and has no more nonzero rows than rho.
``LiftEngine._step`` checks all of this on every step it builds rather
than assuming it.

Two oracles share no shift with the default path:

* ``LiftEngine.product_via_column`` solves its pair as typed, with no
  shift.  The shifted products, the orbit tables and the ``seidel`` and
  ``dmin`` sweeps are checked against it.
* ``Gr3Engine`` (k = 3 only), uncached: strip both third rows, expand the
  stripped right factor through the two-row Giambelli recipe into quantum
  Pieri operators, and shift back by T^(lam_3 + mu_3).

All three agree entrywise wherever they apply (tested), and each serves
as a brute-force oracle for the closed-form rules.
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
from .seidel import _shift_terms


def _zero(ctx: GrContext):
    return (0,) * ctx.k


def _rank(p) -> tuple:
    """Fewest nonzero rows, then the largest: the cheaper row to solve.
    Solving row rho reads only classes with fewer nonzero rows, or as
    many and a larger basis key (see ``LiftEngine._solve_column``)."""
    return (len(p) - p.count(0), -sum(p))


def _strip_third_row(lam):
    return (lam[0] - lam[2], lam[1] - lam[2], 0)


class LiftEngine:
    """Multiplication by one quantum Pieri step per class; see module docstring.

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
        self._rows = {}  # Pieri index i -> {vector key: ((key, coeff), ...)}
        self._steps = {}  # id -> (tail id, ((id, coeff), ...)), diagonal left out
        self._columns = {}  # column id -> {id: solved product vector}
        self._reps = {}  # partition -> (rho, a, d_a), see _rep
        self._elements = {}  # _product's (lam, mu) with lam >= mu -> O^lam * O^mu
        self._intern(_zero(ctx))

    def _intern(self, lam) -> int:
        got = self._ids.get(lam)
        if got is None:
            validate(lam, self.ctx)
            got = self._ids[lam] = len(self._parts)
            self._parts.append(lam)
        return got

    def _row(self, i: int, key: int) -> tuple:
        """The Pieri row of O^i on the vector key, shifted by its q-degree.
        A product stops at q^min(k, n-k) and a Pieri term adds at most q^1,
        so a term above trunc raises OverflowError; none is dropped."""
        stride = self._stride
        d, lid = divmod(key, stride)
        lam, trunc = self._parts[lid], self.ctx.trunc
        limit = (trunc + 1) * stride
        row = []
        for nu, dd, c in quantum_terms(self.ctx, lam, i):
            tgt = (d + dd) * stride + self._intern(nu)
            if tgt >= limit:
                raise OverflowError(f"q-degree {d + dd} exceeds truncation {trunc} in O^{i} * q^{d} O^{lam}")
            row.append((tgt, c))
        return tuple(row)

    def _apply_pieri(self, i: int, vec: dict) -> dict:
        """O^i times a q-graded vector; a term above trunc raises (see ``_row``)."""
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

    def _step(self, rid: int) -> tuple:
        """(tail id, off-diagonal terms) of O^(rho_1) * O^(tail rho) at the
        unit, checked: q-free, 1 on rho, every other class above rho in
        basis order with at most as many nonzero rows."""
        got = self._steps.get(rid)
        if got is not None:
            return got
        rho = self._parts[rid]
        tid = self._intern(rho[1:] + (0,))
        row = self._row(rho[0], tid)
        if dict(row).get(rid) != 1:
            raise ArithmeticError(f"Pieri step not unital at {rho}")
        if any(c >= self._stride for c, _ in row):
            raise ArithmeticError(f"Pieri step carries a q-term at {rho}")
        terms = tuple((c, a) for c, a in row if c != rid)
        rows, key = _rank(rho)[0], basis_key(rho)
        for c, _ in terms:
            nu = self._parts[c]
            if basis_key(nu) <= key or _rank(nu)[0] > rows:
                raise ArithmeticError(f"Pieri step not triangular at {rho}")
        got = self._steps[rid] = (tid, terms)
        return got

    def _solve_column(self, mid: int, rid: int) -> dict:
        """Ensure O^rho * O^mu is solved inside the mu-column.

        X[0] = O^mu, and X[b] = O^(b_1) * X[tail b] - sum a_c X[c] for the
        off-diagonal terms a_c O^c of b's step.  The tail has fewer nonzero
        rows than b, and each c at most as many and a larger basis key, so
        a depth-first walk solves every class after the classes it reads.
        """
        col = self._columns.get(mid)
        if col is None:
            col = self._columns[mid] = {0: {mid: 1}}
        stack = [rid]
        while stack:
            b = stack[-1]
            if b in col:
                stack.pop()
                continue
            tid, terms = self._step(b)
            todo = [c for c in (tid, *(c for c, _ in terms)) if c not in col]
            if todo:
                stack += todo
                continue
            stack.pop()
            x = self._apply_pieri(self._parts[b][0], col[tid])
            get = x.get
            for c, a in terms:
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
        return self._via_column(row, col)

    def _via_column(self, row, col) -> QKElement:
        """``product_via_column`` on valid shapes, unchecked."""
        return self._element(self._vector(row, col))

    def _vector(self, row, col) -> dict:
        """O^row * O^col as the live solved vector in the col-column."""
        rid, mid = self._intern(row), self._intern(col)
        return self._solve_column(mid, rid)[rid]

    def _rep(self, lam) -> tuple:
        """(rho, a, d_a) with T^a O^lam = q^(d_a) O^rho, rho the member of
        lam's Seidel orbit of least ``_rank``, then the least as a tuple.
        The first call on an orbit walks it once and fills every member; a
        representative maps to itself."""
        got = self._reps.get(lam)
        if got is None:
            orbit = seidel_orbit(lam, self.ctx)
            _, rho, j, dj = min((_rank(p), p, r, d) for r, (d, p) in enumerate(orbit))
            for i, (di, p) in enumerate(orbit):
                # T^i O^lam = q^di O^p and T^j O^lam = q^dj O^rho
                self._reps.setdefault(p, (rho, j - i, dj - di))
            got = self._reps[lam]
        return got

    def _solved(self, rho, sigma) -> dict:
        """O^rho * O^sigma for two representatives, as the live vector of
        its column, its one store.  The row is the one of lower ``_rank``
        (its walk reads fewer classes), then the larger.  A rectangle's
        representative is (0), so its product is the unit solved in the
        other column.
        """
        return self._vector(*sorted((rho, sigma) if rho >= sigma else (sigma, rho), key=_rank))

    def _shifted(self, lam, mu) -> QKElement:
        """O^lam * O^mu, unvalidated, as q^(d_a + d_b) T^(-a-b) (O^rho * O^sigma),
        a fresh element shifted in one pass from the vector ``_solved``
        reads.  Raises ArithmeticError if a shifted q-power leaves 0..trunc.
        """
        rho, a, da = self._rep(lam)
        sigma, b, db = self._rep(mu)
        parts, stride = self._parts, self._stride
        terms = (((parts[t % stride], t // stride), c) for t, c in self._solved(rho, sigma).items())
        return _shift_terms(terms, -a - b, da + db, self.ctx)

    def _product(self, lam, mu) -> QKElement:
        """O^lam * O^mu, unvalidated, cached by the unordered pair."""
        key = (lam, mu) if lam >= mu else (mu, lam)
        got = self._elements.get(key)
        if got is None:
            got = self._elements[key] = self._shifted(lam, mu)
        return got

    def product_basis(self, lam, mu) -> QKElement:
        """O^lam * O^mu, both factors validated on every call; see ``_product``."""
        validate(lam, self.ctx)
        validate(mu, self.ctx)
        return self._product(lam, mu)

    def _table(self, coeffs: list):
        """Yield (i, j, keys, store) for every pair i <= j of basis positions,
        with O^basis[i] * O^basis[j] as a sorted list of packed int keys.

        Each entry is q^(d_a + d_b) T^(-a-b) applied to its representatives'
        product (see ``_shifted``), read on positions.  Each representative
        pair's solved vector is read once per walk into one flat ``store``
        tuple (position, q-degree, coefficient index, ...) of shared ints; a
        coefficient index points into ``coeffs``, to which the walk appends
        each coefficient the first time it meets it.  ``shift[r][p]`` is
        d_r * N + (position of basis[p] up r), N = C(n, k), copied from
        ``seidel_orbit``, so each term of an entry is the one int

            (q-degree * N + position) * len(store) + x,

        x the index of the term's coefficient index in ``store``: the keys
        sort by q-degree, then basis position, and ``key // len(store)`` and
        ``store[key % len(store)]`` read them back.  T^r is a bijection on
        (class, q-degree) pairs, so the shifted terms stay distinct, and
        sorting puts their degrees at the two ends: OverflowError if the
        last is above trunc, ArithmeticError if the first is below 0.
        """
        ctx, parts = self.ctx, self._parts
        basis, n, k, trunc = ctx.basis, ctx.n, ctx.k, ctx.trunc
        size = len(basis)
        pos = {lam: i for i, lam in enumerate(basis)}
        shift = [[] for _ in range(n)]
        for lam in basis:
            for r, (d, up) in enumerate(seidel_orbit(lam, ctx)):
                shift[r].append(d * size + pos[up])
        index = {}  # coefficient -> its index in coeffs
        reps = [(pos[rho], a, da) for rho, a, da in map(self._rep, basis)]
        solved = {}  # representatives' positions, as ri * N + rj with ri >= rj -> store
        for i, (ri, a, da) in enumerate(reps):
            for j, (rj, b, db) in enumerate(reps[i:], i):
                pair = ri * size + rj if ri >= rj else rj * size + ri
                store = solved.get(pair)
                if store is None:
                    flat = []
                    for key, c in self._solved(basis[pair // size], basis[pair % size]).items():
                        d, t = divmod(key, size)
                        ci = index.get(c)
                        if ci is None:
                            ci = index[c] = len(coeffs)
                            coeffs.append(c)
                        flat += (pos[parts[t]], d, ci)
                    store = solved[pair] = tuple(flat)
                whole, r = divmod(-a - b, n)
                row, span = shift[r], len(store)
                base = (da + db + whole * k) * size
                it = iter(store)
                slots = range(2, span, 3)
                keys = sorted([(row[p] + d * size + base) * span + x for x, p, d, _ in zip(slots, it, it, it)])
                if keys:
                    top = keys[-1] // (size * span)
                    if top > trunc:
                        raise OverflowError(f"q-degree {top} exceeds truncation {trunc} at {basis[i]}, {basis[j]}")
                    if keys[0] < 0:
                        raise ArithmeticError(f"q-degree {keys[0] // (size * span)} below 0 at {basis[i]}, {basis[j]}")
                yield i, j, keys, store

    def entries(self):
        """The full table: all (lam, mu, QKElement) with lam <= mu in basis
        order, read off ``_table``, so only the R(R+1)/2 products of the R
        orbit representatives are solved.  Raises ArithmeticError if a
        shifted q-power leaves 0..trunc."""
        basis = self.ctx.basis
        size = len(basis)
        coeffs = []
        for i, j, keys, store in self._table(coeffs):
            span = len(store)
            terms = {(basis[key // span % size], key // span // size): coeffs[store[key % span]] for key in keys}
            yield basis[i], basis[j], QKElement(terms)

    def max_q_degree(self) -> int:
        """Largest q-degree observed across the table: the degree of the
        last key of each ``_table`` entry."""
        size = len(self.ctx.basis)
        return max((keys[-1] // (size * len(store)) for _, _, keys, store in self._table([]) if keys), default=0)

    def dump_jsonl(self, fp) -> None:
        """One JSON record per (lam, mu) pair, in deterministic order.

        Each line is spelled as ``json.dumps`` spells the record
        {"lhs": lam, "rhs": mu, "terms": elem.to_obj()["terms"]} with
        separators (",", ":"): terms sorted by q-degree, then basis order,
        which is the order of each ``_table`` entry.  A term is the text
        ``{"q":d,"partition":[...],"coeff":`` of its (q-degree, position),
        from a table of (trunc + 1) * C(n, k) such prefixes, followed by its
        coefficient's text ``c}``, spelled once per distinct coefficient.
        """
        ctx = self.ctx
        text = [",".join(map(str, lam)) for lam in ctx.basis]
        prefix = ['{"q":%d,"partition":[%s],"coeff":' % (d, t) for d in range(ctx.trunc + 1) for t in text]
        coeffs, spelled = [], []
        for i, j, keys, store in self._table(coeffs):
            if len(spelled) < len(coeffs):
                spelled += ["%d}" % c for c in coeffs[len(spelled) :]]
            span = len(store)
            body = ",".join([prefix[key // span] + spelled[store[key % span]] for key in keys])
            fp.write('{"lhs":[%s],"rhs":[%s],"terms":[%s]}\n' % (text[i], text[j], body))

    def check_unit_column(self) -> None:
        """Verify that the kernel, solving the unit column, returns O^lam
        for every lam: each step's correction must cancel its other terms.
        The classes come from ``ctx.basis``, so they are solved through the
        unvalidated core and compared on ids."""
        unit = _zero(self.ctx)
        for lam in self.ctx.basis:
            got = self._vector(lam, unit)
            if got != {self._ids[lam]: 1}:
                raise ArithmeticError(f"lift does not return O^{lam} on the unit column: {self._element(got)}")


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
    """Multiplication in QK(Gr(3, n)) via third-row reduction and Giambelli,
    uncached: the k = 3 oracle for ``LiftEngine``.

    Stripping lam_3 from every row of lam is T^(-lam_3) with no q-power, so
    O^lam * O^mu = T^(lam_3 + mu_3) (O^lam' * O^mu') with lam', mu' the
    stripped shapes.
    """

    def __init__(self, ctx: GrContext):
        if ctx.k != 3:
            raise ValueError("Gr3Engine needs k = 3")
        self.ctx = ctx

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

    def product_basis(self, lam, mu) -> QKElement:
        """O^lam * O^mu with mu expanded through the recipe, uncached."""
        ctx = self.ctx
        validate(lam, ctx)
        validate(mu, ctx)
        elem = self._recipe(_strip_third_row(lam), _strip_third_row(mu))
        return _shift_terms(elem.terms.items(), lam[2] + mu[2], 0, ctx)


def product_basis(lam, mu, ctx: GrContext) -> QKElement:
    return ctx.engine.product_basis(lam, mu)


def product(a: QKElement, b: QKElement, ctx: GrContext) -> QKElement:
    """Bilinear extension of the basis product, truncated at ctx.trunc; each
    term shape is validated once, then multiplied by ``_product``."""
    for lam, _ in (*a.terms, *b.terms):
        validate(lam, ctx)
    return _product(a, b, ctx)


def _product(a: QKElement, b: QKElement, ctx: GrContext) -> QKElement:
    """``product`` on elements of valid shapes, unchecked."""
    prod, trunc = ctx.engine._product, ctx.trunc
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
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for p in (lam, mu, nu):
        validate(p, ctx)
    return _structure_constant(lam, mu, nu, d, ctx)


def _structure_constant(lam, mu, nu, d: int, ctx: GrContext) -> int:
    """``structure_constant`` on tuples, unchecked; a d outside 0..trunc reads 0."""
    return ctx.engine._product(lam, mu).terms.get((nu, d), 0)


def reduce_third_row(lam, mu, nu, d: int, ctx: GrContext):
    """Strip the third rows off lam and mu and shift nu to match (k = 3).

    Returns (lam', mu', nu', d') indexing an equal structure constant with
    both third rows empty; a negative d' signals that the requested (nu, d)
    coefficient is zero, which the ``reductions`` sweep checks.  The sign
    (-1)^(|lam|+|mu|+|nu|+d*n) is preserved.
    """
    if ctx.k != 3:
        raise ValueError("reduce_third_row needs k = 3")
    for p in (lam, mu, nu):
        validate(p, ctx)
    return _reduce_third_row(lam, mu, nu, d, ctx)


def _reduce_third_row(lam, mu, nu, d: int, ctx: GrContext):
    """``reduce_third_row`` on k = 3 shapes, unchecked."""
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
    for p in (lam, mu, nu):
        validate(p, ctx)
    return _verify_recursion(lam, mu, nu, d, ctx)


def _verify_recursion(lam, mu, nu, d: int, ctx: GrContext) -> bool:
    """``verify_recursion`` on valid shapes, unchecked."""
    prod = ctx.engine._product
    left = _product(prod(lam, mu), QKElement.basis(nu), ctx)
    right = _product(QKElement.basis(lam), prod(mu, nu), ctx)
    return left.truncated(d) == right.truncated(d)


def giambelli_lift_general(ctx: GrContext) -> LiftEngine:
    """A fresh, unit-checked lift engine: the ring's full table through its
    ``entries``, ``dump_jsonl`` and ``max_q_degree``.  The caller is its only
    owner, so dropping it frees every solved column."""
    eng = LiftEngine(ctx)
    eng.check_unit_column()
    return eng
