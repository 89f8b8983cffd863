#!/usr/bin/env python3
"""The closed-form quantum Littlewood-Richardson rule for QK(Gr(3, n)).

After stripping third rows, every structure constant either vanishes,
reduces to a classical coefficient, or is given by an explicit formula in
A = lam_1 + mu_1 - nu_1 - nu_2.  The signs always alternate with
|lam| + |mu| + |nu| + d*n.
"""

from qkgr import (
    all_partitions,
    context,
    positivity_check,
    product_basis,
    qlr_gr3,
    reduce_third_row,
)

# A one-parameter family with every degree-one value on display:
# lam = nu = (2c, c, 0), mu = (u, c, 0).  The four largest u hit the values
# +-(n-3-2c) and +-3(n-3-2c); anything smaller vanishes.
c, n = 4, 12
print(f"N[(8,4,0), (u,4,0) -> (8,4,0), q] in QK(Gr(3,{n})) for u = 5..{2*c}:")
for u in range(c + 1, 2 * c + 1):
    print(f"  u={u}:", qlr_gr3((2 * c, c, 0), (u, c, 0), (2 * c, c, 0), 1, context(3, n)))

print("\nthe diagonal (2c,c,0) with n = 3c+3 gives -c:")
for c in (1, 2, 3, 4):
    print(f"  c={c}:", qlr_gr3((2 * c, c, 0), (2 * c, c, 0), (2 * c, c, 0), 1, context(3, 3 * c + 3)))

# The rule agrees with the brute-force oracle on every tuple; spot-check a ring.
ctx = context(3, 7)
parts = all_partitions(ctx)
mismatches = 0
for lam in parts:
    for mu in parts:
        prod = product_basis(lam, mu, ctx)
        for nu in parts:
            for d in range(ctx.trunc + 1):
                red = reduce_third_row(lam, mu, nu, d, ctx)
                if qlr_gr3(red[0], red[1], red[2], red[3], ctx) != prod.coefficient(nu, d):
                    mismatches += 1
print(f"\nGr(3,7) full sweep: {mismatches} mismatches out of {len(parts)**3 * (ctx.trunc+1)} tuples")

# Alternating positivity across all computed constants.
violations = sum(
    not positivity_check(lam, mu, nu, d, c, ctx)
    for lam in parts
    for mu in parts
    for (nu, d), c in product_basis(lam, mu, ctx).terms.items()
)
print("positivity violations:", violations)
