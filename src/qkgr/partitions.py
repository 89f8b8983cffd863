"""Partitions in the k x (n-k) rectangle: duality, jump sequences, Seidel
shifts, horizontal strips, outer rims and rook strips.

Partitions are plain tuples of length k, weakly decreasing, with entries in
[0, n-k] (trailing zeros explicit).  Jump sequences are strictly increasing
k-tuples with entries in [1, n].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product as iterproduct

Partition = tuple
JumpSequence = tuple


@dataclass(frozen=True)
class GrContext:
    """Ambient parameters for Gr(k, n) computations.

    ``trunc`` is the q-truncation degree: all ring computations happen in
    Z[q]/(q^(trunc+1)).  The default min(k, n-k)+1 is enough for every
    product of two Schubert classes; stabilization against trunc+2 is
    checked in the test suite.

    The context owns its ring's basis, Seidel orbit table and default
    engine, each built on first use, and ``width`` = n - k, stored once.
    They are set with ``object.__setattr__``, not
    ``functools.cached_property``: touching ``__dict__`` would take the
    fields out of CPython's inline layout and slow every ``ctx.k`` read.

    ``valid`` is the memo of ``validate``: the tuples that have passed
    ``is_valid`` in this ring.  Only valid tuples enter it, so it never
    holds more than the ring's basis, and only as many of those as were
    checked.
    """

    k: int
    n: int
    trunc: int
    width: int = field(init=False, compare=False, repr=False)
    orbits: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    valid: set = field(default_factory=set, init=False, compare=False, repr=False)
    _basis = None
    _engine = None

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if self.trunc < min(self.k, self.n - self.k) + 1:
            raise ValueError(
                f"truncation {self.trunc} below min(k, n-k)+1 for Gr({self.k}, {self.n})"
            )
        object.__setattr__(self, "width", self.n - self.k)

    @property
    def basis(self) -> tuple[Partition, ...]:
        """Every partition in the k x (n-k) rectangle, in basis order."""
        if self._basis is None:
            shapes = sorted(_shapes(self.k, self.width), key=basis_key)
            object.__setattr__(self, "_basis", tuple(shapes))
        return self._basis

    @property
    def engine(self):
        """The ring's ``LiftEngine``, for every k; its product cache is
        shared by every caller of ``product_basis`` on this ring."""
        if self._engine is None:
            from .qk_engine import LiftEngine

            object.__setattr__(self, "_engine", LiftEngine(self))
        return self._engine


def _shapes(rows: int, bound: int):
    if rows == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _shapes(rows - 1, head):
            yield (head,) + tail


def context(k: int, n: int, trunc: int | None = None) -> GrContext:
    """The one GrContext for (k, n, trunc); trunc defaults to min(k, n-k)+1,
    resolved before the cache lookup, so every spelling is one object.

    Bad input raises on every call, since exceptions are not cached.
    """
    return _build_context(k, n, min(k, n - k) + 1 if trunc is None else trunc)


@cache
def _build_context(k: int, n: int, trunc: int) -> GrContext:
    return GrContext(k, n, trunc)


def normalize(parts, ctx: GrContext) -> Partition:
    """Pad with trailing zeros to length k and validate."""
    lam = tuple(int(p) for p in parts)
    if len(lam) < ctx.k:
        lam = lam + (0,) * (ctx.k - len(lam))
    validate(lam, ctx)
    return lam


def is_valid(lam, ctx: GrContext) -> bool:
    """Whether lam has k int parts, weakly decreasing, in [0, n-k].  A float
    part is rejected even where it equals an int: (2.0, 1) hashes and
    compares equal to (2, 1), so it could seed any cache keyed by shape."""
    if len(lam) != ctx.k:
        return False
    prev = ctx.width
    for p in lam:
        if not (isinstance(p, int) and 0 <= p <= prev):
            return False
        prev = p
    return True


def _check_valid(lam, ctx: GrContext) -> None:
    """``validate`` without the memo, which a float shape equal to a memoized
    int one would pass; every cache keyed by shape runs it on a miss."""
    if not is_valid(lam, ctx):
        raise ValueError(f"{lam} is not a partition inside the {ctx.k}x{ctx.width} rectangle")


def validate(lam, ctx: GrContext) -> None:
    """Raise ValueError unless lam is a partition in the ring's rectangle.

    A tuple that passed once is in ``ctx.valid``, so checking it again is
    one set lookup; anything else, lists included, runs ``is_valid``.
    """
    memo = type(lam) is tuple
    try:
        if memo and lam in ctx.valid:
            return
    except TypeError:  # an unhashable part: is_valid alone decides, as before
        memo = False
    _check_valid(lam, ctx)
    if memo:
        ctx.valid.add(lam)


def size(lam: Partition) -> int:
    return sum(lam)


def parse_partition(text: str, ctx: GrContext) -> Partition:
    """Parse "3,2,1", "[3,2,1]" or a bare "3"; parts are ASCII digits, and
    short tuples are padded with zeros."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1].strip()
    if text in ("", "0"):
        return normalize((), ctx)
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"{text!r} is not a list of non-negative integers")
    return normalize((int(p) for p in parts), ctx)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def dual(lam: Partition, ctx: GrContext) -> Partition:
    """The Poincare-dual partition (n-k-lam_k, ..., n-k-lam_1)."""
    w = ctx.width
    return tuple(w - p for p in reversed(lam))


def to_jump_sequence(lam: Partition, ctx: GrContext) -> JumpSequence:
    """The increasing k-subset {n-k+j-lam_j} of {1..n}."""
    w = ctx.width
    return tuple(w + j - lam[j - 1] for j in range(1, ctx.k + 1))


def from_jump_sequence(jumps: JumpSequence, ctx: GrContext) -> Partition:
    w = ctx.width
    lam = tuple(w + j - jumps[j - 1] for j in range(1, ctx.k + 1))
    validate(lam, ctx)
    return lam


def shift_jump(jumps: JumpSequence, p: int, ctx: GrContext) -> JumpSequence:
    """Shift every jump by p mod n and re-sort into an increasing k-subset."""
    n = ctx.n
    return tuple(sorted((a + p - 1) % n + 1 for a in jumps))


def d_count(jumps: JumpSequence, i: int, ctx: GrContext) -> int:
    """Number of jumps a_j <= i, for 0 <= i <= n."""
    if not 0 <= i <= ctx.n:
        raise ValueError(f"i={i} out of range 0..{ctx.n}")
    return sum(1 for a in jumps if a <= i)


@cache
def seidel_up1(lam: Partition, ctx: GrContext) -> Partition:
    if lam[0] < ctx.width:
        return tuple(p + 1 for p in lam)
    return lam[1:] + (0,)


def seidel_orbit(lam: Partition, ctx: GrContext) -> tuple[tuple[int, Partition], ...]:
    """The Seidel orbit of lam with its q-powers: entry r is (d_r, lam up r).

    r runs over 0..n-1, and d_r = (r*k + |lam| - |lam up r|) / n is the
    power of q in T^r O^lam.  It is the only place a shift is iterated and
    the only place a q-power is derived from partition sizes.  Orbits are
    kept in the context's ``orbits`` table.
    """
    got = ctx.orbits.get(lam)
    if got is not None:
        return got
    _check_valid(lam, ctx)
    n = ctx.n
    out = []
    up = lam
    for r in range(n):
        d, rem = divmod(r * ctx.k + size(lam) - size(up), n)
        if rem:
            raise ArithmeticError(f"Seidel drop of {lam} at shift {r} not divisible by n={n}")
        out.append((d, up))
        up = seidel_up1(up, ctx)
    got = ctx.orbits[lam] = tuple(out)
    return got


def seidel_power(lam: Partition, r: int, ctx: GrContext) -> tuple[int, Partition]:
    """T^r on O^lam as (q-power, lam up r), for any integer r.

    Whole turns fold through T^n = q^k Id, so negative r gives the inverse
    shift (lam down -r) with a q-power that may be negative.
    """
    whole, r = divmod(r, ctx.n)
    d, up = seidel_orbit(lam, ctx)[r]
    return (d + whole * ctx.k, up)


def seidel_up(lam: Partition, p: int, ctx: GrContext) -> Partition:
    """The p-th Seidel shift for any integer p (negative p shifts down),
    read mod n off the orbit table that ``seidel_power`` reads."""
    return seidel_orbit(lam, ctx)[p % ctx.n][1]


def horizontal_strips_over(lam: Partition, ctx: GrContext):
    """All nu in the rectangle with nu/lam a horizontal strip (nu = lam included)."""
    k = ctx.k
    ranges = [range(lam[0], ctx.width + 1)]
    ranges += [range(lam[j], lam[j - 1] + 1) for j in range(1, k)]
    for nu in iterproduct(*ranges):
        yield nu


def outer_rim_removals(lam: Partition, ctx: GrContext) -> list[tuple[Partition, int]]:
    """All nu obtained from lam by removing rim boxes, at least one per row.

    Applicable only when lam has k nonzero rows; otherwise the list is empty.
    For each nu the second component is the rim-row count: the number of rows
    of nu still containing a box of the outer rim of lam, the bottom rim row
    excluded.
    """
    k = ctx.k
    if lam[k - 1] == 0:
        return []
    ranges = []
    for i in range(k):
        below = lam[i + 1] if i + 1 < k else 0
        ranges.append(range(max(below - 1, 0), lam[i]))
    out = []
    for nu in iterproduct(*ranges):
        rows = sum(
            1
            for i in range(k - 1)
            if nu[i] >= max(lam[i + 1], 1)
        )
        out.append((nu, rows))
    return out


def rook_strips_over(mu: Partition, ctx: GrContext) -> list[tuple[Partition, int]]:
    """All (eta, sign) with eta/mu-dual a rook strip, sign = (-1)^boxes added.

    The base shape is the dual of mu; a rook strip adds at most one box per
    row and per column.  Adding in row i lands at column dual(mu)_i + 1, so
    two chosen rows may not carry equal parts, and a row may only grow past
    an unchosen predecessor if it is strictly shorter.
    """
    base = dual(mu, ctx)
    k, w = ctx.k, ctx.width
    out = []
    for mask in range(1 << k):
        rows = [i for i in range(k) if mask >> i & 1]
        eta = list(base)
        ok = True
        for i in rows:
            if base[i] >= w:
                ok = False
                break
            eta[i] += 1
        if not ok:
            continue
        if any(eta[i] > eta[i - 1] for i in range(1, k)):
            continue
        if len({base[i] for i in rows}) != len(rows):
            continue
        out.append((tuple(eta), -1 if len(rows) % 2 else 1))
    out.sort(key=lambda t: basis_key(t[0]))
    return out


def basis_key(lam: Partition) -> tuple[int, Partition]:
    """Sort key for the basis order: by size, then lexicographic."""
    return (sum(lam), lam)


def all_partitions(ctx: GrContext) -> tuple[Partition, ...]:
    """Every partition in the k x (n-k) rectangle, in basis order."""
    return ctx.basis
