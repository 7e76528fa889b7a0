"""
Two tensor cones, and when they agree
=====================================

The injective cone pairs nonnegatively with all product states; the
projective cone is generated by products of positives. The projective cone
always sits inside the injective one, and the gap between them is the whole
story of nuclearity.
"""

from aoulab import (
    EPSILON,
    PI,
    TensorElement,
    factorize,
    injective_banach_norm,
    is_nuclear_fd,
    is_nuclear_pairwise,
    lin_space,
    linf,
    order_norm,
    tensor_space,
)

V, W = lin_space(2), lin_space(2)

# cross norm property: on simple tensors both cones give the product norm
v, w = (1, 1, 0), (1, 0, -1)
z = TensorElement.simple(V, W, v, w)
eps = tensor_space(V, W, EPSILON)
pi = tensor_space(V, W, PI)
print("||v|| * ||w|| =", order_norm(V, v) * order_norm(W, w))
print("eps norm:", order_norm(eps.realized, z.flatten()))
print("pi norm: ", order_norm(pi.realized, z.flatten()))
print("injective norm:", injective_banach_norm(z))

# the cones differ for this pair, and the toolkit produces the separation:
# an extreme direction of the injective cone with a functional, built in
# closed form from the injective rows, proving it escapes the projective cone
report = is_nuclear_pairwise(V, W)
print("\ncones equal:", report.nuclear)
print("witness coefficients:")
for row in report.witness.coeffs.data:
    print("  ", row)
print("separating functional:", report.pi_certificate.witness)

# a finite-dimensional space is nuclear exactly when its cone is simplicial
# (the paper's local characterization), so counting extreme rays decides it
for space in (linf(3), lin_space(1), lin_space(2)):
    print(space.label, "nuclear:", is_nuclear_fd(space))

# nuclearity is the same thing as factoring the identity through linf(k)
# by unital positive maps, up to arbitrarily small defect
res = factorize(linf(3))
print("\nlinf(3) factorization defect:", res.defect)
res = factorize(lin_space(2))
print("lin_space(2) defect schedule:", res.schedule, "success:", res.success)
