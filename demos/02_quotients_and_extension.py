"""
Order ideals, Archimedean quotients, and positive extension
===========================================================

Quotients of ordered spaces only behave when the kernel is an order ideal
and the quotient cone is re-closed. Both steps are certified here.
"""

from fractions import Fraction

from aoulab import (
    archimedean_quotient,
    check_map,
    extend_unital_positive,
    is_order_ideal,
    is_order_quotient,
    linf,
    member,
)

V = linf(3)

# the diagonal direction (0, 1, -1) spans an order ideal: anything squeezed
# between 0 and a multiple of it stays inside
ideal = is_order_ideal(V, [(0, 1, -1)])
print("span{(0,1,-1)} is an order ideal:", ideal.is_ideal)

# a direction that is not an ideal comes with a squeeze witness
bad = is_order_ideal(V, [(1, 1, 0)])
print("span{(1,1,0)} is an order ideal:", bad.is_ideal, "witness:", bad.witness)

quotient, q = archimedean_quotient(V, [(0, 1, -1)])
print("\nquotient dimension:", quotient.dim)
report = is_order_quotient(q)
print("projection is an order quotient:", report.is_quotient)
# one exact lift v >= 0 per target generator, so v + eps e >= 0 for every
# eps > 0; a few eps are checked here
eps_pairs = [
    (v, eps)
    for v in report.lifts
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    if member(q.source.cone, [x + eps * u for x, u in zip(v, q.source.unit)]).verdict == "member"
]
print("positive lifts recorded for", len(eps_pairs), "generator/eps pairs")

# unital positive maps extend from unital subspaces; the solver returns the
# extension or an exact infeasibility certificate
big, small = linf(3), linf(2)
partial_basis = [(1, 1, 1), (1, 0, 0)]
values = [(1, 1), (1, 0)]
ext = extend_unital_positive(big, partial_basis, values, small)
print("\nextension matrix:")
for row in ext.matrix.data:
    print("  ", row)
print("extension is unital positive:", check_map(ext).unital and check_map(ext).positive)

# asking for a functional value beyond the norm bound must fail exactly
try:
    extend_unital_positive(big, partial_basis, [(1, 1), (3, 3)], small)
except Exception as exc:
    print("\nover-large prescription rejected:", type(exc).__name__)
