"""
Spaces, order norms, and states
===============================

Build a few ordered vector spaces with a distinguished unit, compute the
norm the unit induces, and look at the extreme states. Everything is a
Fraction; no float appears anywhere in a decision.
"""

from fractions import Fraction

from aoulab import (
    extreme_states,
    kadison_embed,
    lin_space,
    linf,
    order_norm,
    unit_ball_vertices,
    validate,
)

# the coordinatewise-ordered model space: positives are the orthant,
# the unit is (1, ..., 1), and the norm is the max-abs of coordinates
V = linf(3)
rep = validate(V)
print("linf(3) valid:", rep.order_unit, rep.archimedean, rep.pointed)
print("norm of (1, -2, 1/2):", order_norm(V, (1, -2, Fraction(1, 2))))

# a non-simplicial example: R^{n+1} ordered by a Lorentz-like cone with
# 2^n extreme rays; it will show up again in the nuclearity demos
W = lin_space(2)
print("\nlin_space(2) states:")
for s in extreme_states(W):
    print("  ", s)

# the unit ball of the order norm is a polytope; its vertices drive the
# exact operator norm computations later
print("ball vertices:", len(unit_ball_vertices(W)))

# every AOU space embeds unitally and isometrically into some linf(k) by
# evaluating at the extreme states
emb = kadison_embed(W)
print("\nKadison embedding target:", emb.target.label)
v = (Fraction(1), Fraction(1, 3), Fraction(-1, 2))
print("norm in W:", order_norm(W, v), "= norm of image:", order_norm(emb.target, emb.apply(v)))
