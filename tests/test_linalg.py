import random
from fractions import Fraction
from math import gcd

import pytest

from aoulab.errors import ShapeError
from aoulab.linalg import (
    Matrix,
    det,
    dot,
    frac,
    integerize,
    inverse,
    nullspace,
    rank,
    sign_canonical,
    solve,
    vec,
)


def test_frac_rejects_floats():
    with pytest.raises(ShapeError):
        frac(0.5)


def test_frac_parses_strings():
    assert frac("2/4") == Fraction(1, 2)
    assert frac("-3") == Fraction(-3)


def test_integerize_coprime_and_direction():
    assert integerize(vec(["1/2", "1/3"])) == (3, 2)
    assert integerize(vec(["-2", "4"])) == (-1, 2)
    assert integerize(vec([0, 0])) == (0, 0)


def test_sign_canonical_flips():
    assert sign_canonical(vec(["-1/2", "1"])) == (1, -2)


def test_matrix_apply_compose_kron():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a.apply(vec([1, 1])) == vec([3, 7])
    assert a.compose(b).data == Matrix.from_rows([[2, 1], [4, 3]]).data
    k = a.kron(Matrix.identity(2))
    assert k.rows == 4 and k.cols == 4
    assert k.data[0] == vec([1, 0, 2, 0])


def test_solve_and_nullspace():
    a = Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    x = solve(a, vec([2, 3]))
    assert x is not None and a.apply(x) == vec([2, 3])
    ns = nullspace(a)
    assert len(ns) == 1
    assert a.apply(ns[0]) == vec([0, 0])
    assert solve(Matrix.from_rows([[1], [1]]), vec([0, 1])) is None


def test_det_rank_inverse():
    a = Matrix.from_rows([["1/2", 1], [1, 3]])
    assert det(a) == Fraction(1, 2)
    assert rank(a) == 2
    ai = inverse(a)
    assert a.compose(ai).data == Matrix.identity(2).data
    with pytest.raises(ShapeError):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))


def test_dot_length_mismatch():
    with pytest.raises(ShapeError):
        dot(vec([1]), vec([1, 2]))


def _integerize_by_products(a):
    """integerize as it was first written: one Fraction product per entry."""
    a = [frac(x) for x in a]
    if all(x == 0 for x in a):
        return (0,) * len(a)
    denom_lcm = 1
    for x in a:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in a]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def test_integerize_matches_the_fraction_product_form():
    r = random.Random(5)
    cases = [
        (0, 0, 0),
        (),
        (Fraction(0), Fraction(-3, 7), 0),
        (Fraction(-1, 2), Fraction(-1, 3), Fraction(-5, 6)),
        (Fraction(1, 10**9 + 7), Fraction(-2, 998244353), Fraction(3, 2**61 - 1)),
        (Fraction(10**30 + 1, 10**9 + 9), Fraction(-(2**89 - 1), 10**9 + 7)),
    ]
    cases += [
        tuple(Fraction(r.randint(-50, 50), r.randint(1, 40)) for _ in range(r.randint(1, 6)))
        for _ in range(300)
    ]
    for a in cases:
        got = integerize(a)
        assert got == _integerize_by_products(a), a
        assert all(type(x) is int for x in got)
