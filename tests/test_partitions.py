import json
import os
import subprocess
import sys
from itertools import product as iterproduct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkgr.element import QKElement
from qkgr.partitions import (
    GrContext,
    all_partitions,
    context,
    d_count,
    dual,
    from_jump_sequence,
    horizontal_strips_over,
    is_valid,
    normalize,
    outer_rim_removals,
    parse_partition,
    rook_strips_over,
    seidel_power,
    seidel_up,
    seidel_up1,
    shift_jump,
    size,
    to_jump_sequence,
    validate,
)
from qkgr.qk_engine import product

C24 = context(2, 4)
C36 = context(3, 6)


def contexts(max_n=7):
    return [context(k, n) for n in range(2, max_n + 1) for k in range(1, n)]


# random (ctx, partition) pairs for property tests
@st.composite
def ctx_and_partition(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    ctx = context(k, n)
    lam = []
    bound = n - k
    for _ in range(k):
        bound = draw(st.integers(0, bound))
        lam.append(bound)
    return ctx, tuple(lam)


def test_context_validation():
    with pytest.raises(ValueError):
        GrContext(3, 3, 4)
    with pytest.raises(ValueError):
        GrContext(0, 4, 3)
    with pytest.raises(ValueError):
        GrContext(2, 5, 1)  # truncation below min(k, n-k)+1
    assert context(2, 5).trunc == 3
    assert context(2, 5, 6).trunc == 6


def test_context_is_immutable_and_compares_by_ring():
    ctx = GrContext(k=3, n=8, trunc=4)
    assert ctx == context(3, 8) and (ctx.k, ctx.n, ctx.trunc, ctx.width) == (3, 8, 4, 5)
    assert ctx != GrContext(3, 8, 5) and hash(ctx) != hash(GrContext(3, 8, 5))
    assert (ctx == (3, 8, 4)) is False
    for name in ("k", "width", "orbits", "ids", "rows", "new_field"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 1)
    for name in ("k", "width", "orbits", "ids", "rows"):
        with pytest.raises(AttributeError):
            delattr(ctx, name)
    # the lift tables start with the unit class interned as id 0
    assert vars(ctx) == {
        "k": 3,
        "n": 8,
        "trunc": 4,
        "width": 5,
        "orbits": {},
        "ids": {(0, 0, 0): 0},
        "parts": [(0, 0, 0)],
        "rows": {},
        "steps": {},
    }


def test_normalize_and_parse():
    assert normalize((3, 1, 1), context(4, 9)) == (3, 1, 1, 0)
    assert parse_partition("3,2,1", C36) == (3, 2, 1)
    assert parse_partition("", C24) == (0, 0)
    with pytest.raises(ValueError):
        normalize((1, 2), C24)
    with pytest.raises(ValueError):
        normalize((3, 0), C24)
    # parts are checked, not converted: int() would truncate 1.5 and parse "2"
    for parts in [(1.5, 0), ("2", "1")]:
        with pytest.raises(ValueError, match="is not a partition inside"):
            normalize(parts, C24)


def test_dual_examples():
    assert dual((2, 1), C24) == (1, 0)
    assert dual((3, 2, 1), C36) == (2, 1, 0)


@pytest.mark.parametrize("ctx", contexts(9))
def test_dual_against_jump_sequences(ctx):
    # the dual's jumps are n + 1 - a over the jumps a of lam; the identity
    # map passes the involution test, not this one
    n = ctx.n
    for lam in all_partitions(ctx):
        want = tuple(sorted(n + 1 - a for a in to_jump_sequence(lam, ctx)))
        assert to_jump_sequence(dual(lam, ctx), ctx) == want, lam


@given(ctx_and_partition())
def test_dual_involution(cp):
    ctx, lam = cp
    assert dual(dual(lam, ctx), ctx) == lam


def test_jump_sequence_examples():
    assert to_jump_sequence((0, 0), C24) == (3, 4)
    assert to_jump_sequence((2, 1), C24) == (1, 3)
    assert to_jump_sequence((3, 3, 3), C36) == (1, 2, 3)


@given(ctx_and_partition())
def test_jump_sequence_roundtrip(cp):
    ctx, lam = cp
    assert from_jump_sequence(to_jump_sequence(lam, ctx), ctx) == lam


@given(ctx_and_partition())
def test_jump_sequence_tracks_seidel_shift(cp):
    # I_(lam up 1) = I_lam - 1
    ctx, lam = cp
    jumps = to_jump_sequence(lam, ctx)
    assert shift_jump(jumps, -1, ctx) == to_jump_sequence(seidel_up(lam, 1, ctx), ctx)


def test_shift_jump_examples():
    assert shift_jump((1, 3), 4, C24) == (1, 3)
    assert shift_jump((1, 3), -1, C24) == (2, 4)


@given(ctx_and_partition())
def test_shift_jump_period(cp):
    ctx, lam = cp
    jumps = to_jump_sequence(lam, ctx)
    assert shift_jump(jumps, ctx.n, ctx) == jumps


def test_d_count_examples():
    assert d_count((1, 3), 1, C24) == 1
    assert d_count((1, 3), 2, C24) == 1
    assert d_count((1, 3), 0, C24) == 0
    assert d_count((1, 3), 4, C24) == 2
    with pytest.raises(ValueError):
        d_count((1, 3), 5, C24)


@pytest.mark.parametrize("ctx", contexts(7))
def test_d_count_matches_seidel_drop(ctx):
    # d_r(I_lam) = (r*k + |lam| - |lam up r|) / n, exhaustively
    for lam in all_partitions(ctx):
        jumps = to_jump_sequence(lam, ctx)
        for r in range(ctx.n + 1):
            up = seidel_up(lam, r, ctx)
            assert r * ctx.k + size(lam) - size(up) == ctx.n * d_count(jumps, r, ctx)


def _iterated_power(lam, r, ctx):
    # T one step at a time: q^1 exactly when the first row is full, and
    # T^-1 = q^-k T^(n-1)
    d = 0
    while r < 0:
        r += ctx.n
        d -= ctx.k
    for _ in range(r):
        d += lam[0] == ctx.width
        lam = seidel_up1(lam, ctx)
    return (d, lam)


@pytest.mark.parametrize("ctx", contexts(9))
def test_seidel_power_against_slow_paths(ctx):
    n = ctx.n
    for lam in all_partitions(ctx):
        jumps = to_jump_sequence(lam, ctx)
        for r in range(-n, 2 * n + 1):
            d, up = seidel_power(lam, r, ctx)
            assert (d, up) == _iterated_power(lam, r, ctx), (lam, r)
            assert seidel_up(lam, r, ctx) == up, (lam, r)
            assert to_jump_sequence(up, ctx) == shift_jump(jumps, -r, ctx)
            if 0 <= r <= n:
                assert d == d_count(jumps, r, ctx)


def test_seidel_shift_examples():
    assert seidel_up((2, 1, 0), 1, C36) == (3, 2, 1)
    assert seidel_up((3, 1, 0), 1, C36) == (1, 0, 0)
    assert seidel_up((0, 0), 1, C24) == (1, 1)


@given(ctx_and_partition())
def test_seidel_shift_period_and_duality(cp):
    ctx, lam = cp
    assert seidel_up(lam, ctx.n, ctx) == lam
    for p in range(ctx.n + 1):
        assert dual(seidel_up(lam, p, ctx), ctx) == seidel_up(dual(lam, ctx), -p, ctx)


@given(ctx_and_partition(), st.integers(0, 6), st.integers(0, 6))
def test_seidel_shift_composes(cp, p, q):
    ctx, lam = cp
    assert seidel_up(seidel_up(lam, p, ctx), q, ctx) == seidel_up(lam, p + q, ctx)


def test_horizontal_strip_examples():
    # nu/lam is a horizontal strip when nu contains lam and nu_{i+1} <= lam_i
    for ctx in (C24, C36, context(4, 8)):
        for lam in all_partitions(ctx):
            got = list(horizontal_strips_over(lam, ctx))
            want = [
                nu
                for nu in all_partitions(ctx)
                if all(a >= b for a, b in zip(nu, lam))
                and all(nu[i + 1] <= lam[i] for i in range(ctx.k - 1))
            ]
            assert len(got) == len(set(got)) and set(got) == set(want), lam
    assert set(horizontal_strips_over((1, 0), C24)) == {(1, 0), (2, 0), (1, 1), (2, 1)}
    assert (3, 1) in set(horizontal_strips_over((1, 1), context(2, 5)))
    # two boxes in one column: nu_2 > lam_1
    assert (2, 2) not in set(horizontal_strips_over((1, 0), C24))


def test_rook_strips_examples():
    assert rook_strips_over((2, 2), C24) == [((0, 0), 1), ((1, 0), -1)]
    assert rook_strips_over((0, 0), C24) == [((2, 2), 1)]


@pytest.mark.parametrize("ctx", contexts(6))
def test_rook_strips_are_rook_strips(ctx):
    for mu in all_partitions(ctx):
        base = dual(mu, ctx)
        for eta, sign in rook_strips_over(mu, ctx):
            added = [i for i in range(ctx.k) if eta[i] != base[i]]
            assert all(eta[i] == base[i] + 1 for i in added)
            assert is_valid(eta, ctx)
            # one box per column
            cols = [base[i] + 1 for i in added]
            assert len(set(cols)) == len(cols)
            assert sign == (-1) ** len(added)


def test_outer_rim_removals_examples():
    c49 = context(4, 9)
    removals = dict(outer_rim_removals((4, 3, 2, 1), c49))
    assert removals[(3, 2, 1, 0)] == 3
    assert outer_rim_removals((2, 1, 0), C36) == []
    # removing both boxes of (1,1) leaves nothing above the bottom rim row
    assert outer_rim_removals((1, 1), C24) == [((0, 0), 0)]


@pytest.mark.parametrize("ctx", contexts(6))
def test_outer_rim_removals_remove_from_every_row(ctx):
    for lam in all_partitions(ctx):
        for nu, rows in outer_rim_removals(lam, ctx):
            assert is_valid(nu, ctx)
            for i in range(ctx.k):
                below = lam[i + 1] if i + 1 < ctx.k else 0
                assert below - 1 <= nu[i] < lam[i]
            assert 0 <= rows <= ctx.k - 1


def test_all_partitions_order_and_count():
    from math import comb

    parts = all_partitions(C36)
    assert len(parts) == comb(6, 3)
    sizes = [size(p) for p in parts]
    assert sizes == sorted(sizes)
    assert parts[0] == (0, 0, 0) and parts[-1] == (3, 3, 3)


def test_validate_agrees_with_is_valid():
    # twice over every tuple and list, so no answer depends on an earlier call
    for k, n in [(2, 5), (3, 6), (4, 8)]:
        ctx = GrContext(k, n, min(k, n - k) + 1)
        parts = range(-1, ctx.width + 2)
        tuples = [t for m in (k - 1, k, k + 1) for t in iterproduct(parts, repeat=m)]
        for _ in ("cold", "warm"):
            for t in tuples:
                for lam in (t, list(t)):
                    if is_valid(lam, ctx):
                        validate(lam, ctx)
                    else:
                        with pytest.raises(ValueError, match="is not a partition inside"):
                            validate(lam, ctx)

    ctx = GrContext(3, 6, 4)
    # a tuple with an unhashable part: is_valid alone decides
    with pytest.raises(ValueError, match="is not a partition inside"):
        validate(([1], 0, 0, 0), ctx)

    class Part(int):
        __hash__ = None

    validate((Part(2), 1, 0), ctx)


def test_validation_does_not_depend_on_history():
    # (2.0, 1) == (2, 1) and both hash alike; a fresh context, so no shape
    # of this ring is in its orbit table or its engine before the first round
    ctx = GrContext(2, 5, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="is not a partition inside"):
            validate((2.0, 1), ctx)
        with pytest.raises(ValueError, match="is not a partition inside"):
            ctx.engine.product_basis((2.0, 1), (1, 0))
        with pytest.raises(ValueError, match="is not a partition inside"):
            product(QKElement.basis((1, 0)), QKElement({((2.0, 1), 0): 1}), ctx)
        validate((2, 1), ctx)
        ctx.engine.product_basis((2, 1), (1, 0))
    assert ((2, 1), (1, 0)) in ctx.engine._elements


def test_non_integer_parts_are_rejected_before_any_cache_stores_them():
    # (1.0, 0) == (1, 0), and both hash alike, so a float shape stored by a
    # cache keyed by shape would answer later int lookups; the caches are
    # process-lifetime, hence the fresh interpreter
    assert not is_valid((1.5, 0), C24) and not is_valid((1.0, 0), C24)
    script = (
        "import json\n"
        "from qkgr.element import QKElement\n"
        "from qkgr.partitions import GrContext, context, seidel_orbit\n"
        "from qkgr.pieri import quantum_pieri, quantum_terms\n"
        "from qkgr.qk_engine import LiftEngine, product_basis, structure_constant\n"
        "from qkgr.seidel import T\n"
        "ctx = context(2, 5)\n"
        "calls = [\n"
        "    # each storage-layer check, reached before any int row or orbit is cached\n"
        "    lambda: seidel_orbit((1.0, 0), ctx),\n"
        "    lambda: quantum_terms(ctx, (2.0, 1), 1),\n"
        "    lambda: LiftEngine(ctx)._intern((2.0, 1)),\n"
        "    lambda: T(QKElement.basis((1.0, 0)), GrContext(2, 5, 3)),\n"
        "    lambda: product_basis((1.5, 0), (1, 0), ctx),\n"
        "    lambda: structure_constant((1, 0), (1, 0), (1.5, 0.5), 0, ctx),\n"
        "    lambda: quantum_pieri((2.0, 1), 1, ctx),\n"
        "    lambda: LiftEngine(ctx).product_via_column((2.0, 1), (1, 0)),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"
        "    else:\n"
        "        print('no error')\n"
        "for elem in (\n"
        "    product_basis((1, 1), (1, 0), context(2, 5)),\n"
        "    quantum_pieri((2, 1), 1, ctx),\n"
        "    T(QKElement.basis((1, 0)), ctx),\n"
        "):\n"
        "    print(json.dumps(elem.to_obj(), separators=(',', ':')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()
    assert lines[:8] == ["ValueError"] * 8
    terms = [t for line in lines[8:] for t in json.loads(line)["terms"]]
    assert len(lines) == 11 and terms
    for t in terms:
        assert all(type(v) is int for v in (t["q"], t["coeff"], *t["partition"])), t

