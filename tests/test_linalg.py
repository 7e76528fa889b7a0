import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from conftest import (
    fraction_det,
    fraction_inverse,
    fraction_nullspace,
    fraction_rank,
    fraction_solve,
    rank_completed_quotient_matrix,
)

import aoulab.linalg
from aoulab.errors import InvariantViolation, ShapeError
from aoulab.linalg import (
    Matrix,
    combine,
    det,
    dot,
    frac,
    idot,
    integerize,
    inverse,
    nullspace,
    quotient_matrix,
    rank,
    solve,
    vec,
)
from aoulab.spaces import lin_space, linf


def test_frac_rejects_floats():
    with pytest.raises(ShapeError):
        frac(0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dot((0.5,), (Fraction(1),)),
        lambda: dot((Fraction(1), 0), (2, 0.0)),
        lambda: dot(("1/2",), (1,)),
        lambda: Matrix(((Fraction(1), 0.25),)).apply((1, 2)),
        lambda: Matrix(((Fraction(1),),)) @ Matrix(((0.5,),)),
        lambda: idot((0.5,), (1,)),
        lambda: idot((1, 2), (Fraction(1, 2), 0)),
        lambda: idot(("a",), (2,)),
        lambda: combine((0.5,), ((1,),), 1),
        lambda: combine((1,), ((Fraction(1), 0.5),), 2),
    ],
)
def test_dot_kernels_reject_inexact_entries(call):
    # no float takes part in a decision: a float entry raises, as in frac
    with pytest.raises(ShapeError):
        call()


def test_frac_parses_strings():
    assert frac("2/4") == Fraction(1, 2)
    assert frac("-3") == Fraction(-3)


def test_integerize_coprime_and_direction():
    assert integerize(vec(["1/2", "1/3"])) == (3, 2)
    assert integerize(vec(["-2", "4"])) == (-1, 2)
    assert integerize(vec([0, 0])) == (0, 0)


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


def test_integerize_takes_ints_and_fractions_as_they_are(monkeypatch):
    def no_frac(x):
        raise AssertionError(f"frac({x!r}) called")

    monkeypatch.setattr(aoulab.linalg, "frac", no_frac)
    assert integerize((4, Fraction(-2, 3), 0)) == (6, -1, 0)
    assert integerize((0, Fraction(0))) == (0, 0)
    monkeypatch.undo()
    assert integerize(("1/2", 3)) == (1, 6)
    for bad in ((1, 0.5), (Fraction(1), 2.0)):
        with pytest.raises(ShapeError):
            integerize(bad)


# -- the integer elimination kernel against the Fraction oracle ---------------

_DENOMS = (1, 1, 1, 2, 3, 7, 10**9 + 7, 998244353, 2**61 - 1)


def random_matrix(r: random.Random, m: int, n: int) -> list[list[Fraction]]:
    """m x n rational rows with, at random, zero rows, duplicate rows, a row
    that is a combination of two others, zero columns, negative entries and
    large coprime denominators."""
    rows: list[list[Fraction]] = []
    for _ in range(m):
        pick = r.random()
        if rows and pick < 0.15:
            rows.append(list(r.choice(rows)))
        elif pick < 0.25:
            rows.append([Fraction(0)] * n)
        else:
            rows.append([Fraction(r.randint(-6, 6), r.choice(_DENOMS)) for _ in range(n)])
    if m >= 3 and r.random() < 0.3:
        a, b, c = r.sample(range(m), 3)
        x, y = (Fraction(r.randint(-3, 3), r.randint(1, 5)) for _ in range(2))
        rows[a] = [x * p + y * q for p, q in zip(rows[b], rows[c])]
    if n and r.random() < 0.25:
        j = r.randrange(n)
        for row in rows:
            row[j] = Fraction(0)
    return rows


def as_matrix(rows: list[list[Fraction]]) -> Matrix:
    return Matrix(tuple(tuple(row) for row in rows))


def random_cases(seed: int, per_shape: int):
    r = random.Random(seed)
    for m in range(7):
        for n in range(8):
            for _ in range(per_shape):
                yield r, as_matrix(random_matrix(r, m, n))


def leibniz_det(m: Matrix) -> Fraction:
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m.data[i][j]
        total += term
    return total


def test_kernel_matches_fraction_oracle():
    shapes = set()
    for r, m in random_cases(11, per_shape=12):
        shapes.add((m.rows, m.cols))
        assert rank(m) == fraction_rank(m)
        assert nullspace(m) == fraction_nullspace(m)
        b = vec([Fraction(r.randint(-5, 5), r.choice(_DENOMS)) for _ in range(m.rows)])
        assert solve(m, b) == fraction_solve(m, b)
        if m.rows == m.cols:
            assert det(m) == fraction_det(m)
            inv = fraction_inverse(m)
            if inv is None:
                with pytest.raises(ShapeError):
                    inverse(m)
            else:
                assert inverse(m).data == inv.data
    # every shape from 0x0 to 6x7 that a Matrix can hold: rows of length 0
    # make an m x 0 matrix, and a matrix without rows is the 0 x 0 one
    assert len(shapes) == 1 + 6 * 8


def test_rank_takes_integer_rows_as_they_are():
    r = random.Random(3)
    for _ in range(300):
        m, n = r.randint(0, 6), r.randint(1, 7)
        rows = [tuple(r.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        if m >= 3 and r.random() < 0.4:
            rows[0] = tuple(x - 2 * y for x, y in zip(rows[1], rows[2]))
        expected = fraction_rank(Matrix.from_rows(rows))
        assert rank(rows) == rank(Matrix.from_rows(rows)) == expected
        assert rank([vec(row) for row in rows]) == expected
    assert rank([]) == 0
    with pytest.raises(ShapeError):
        rank([(1, 2), (3,)])


def test_det_matches_leibniz_expansion():
    r = random.Random(7)
    for n in range(5):
        for _ in range(40):
            m = as_matrix(random_matrix(r, n, n))
            assert det(m) == leibniz_det(m)
    assert det(Matrix(())) == 1
    tiny = Fraction(1, 2**61 - 1)
    assert det(Matrix.from_rows([[tiny, 1], [0, -tiny]])) == -tiny * tiny


def test_solve_is_none_exactly_on_inconsistent_systems():
    consistent = inconsistent = 0
    for r, m in random_cases(13, per_shape=6):
        x0 = vec([Fraction(r.randint(-4, 4), r.choice(_DENOMS)) for _ in range(m.cols)])
        # b in the column space, then b moved off it in its first coordinate
        b_in = m.apply(x0)
        for b in (b_in, tuple(y + (i == 0) for i, y in enumerate(b_in))):
            augmented = Matrix(tuple(row + (y,) for row, y in zip(m.data, b)))
            solvable = fraction_rank(augmented) == fraction_rank(m)
            x = solve(m, b)
            assert (x is not None) == solvable
            if x is None:
                inconsistent += 1
            else:
                consistent += 1
                assert m.apply(x) == tuple(b)
    assert consistent and inconsistent


def test_nullspace_vectors_are_a_kernel_basis():
    for _, m in random_cases(17, per_shape=6):
        basis = nullspace(m)
        assert len(basis) == m.cols - fraction_rank(m)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        if basis:
            assert fraction_rank(Matrix.from_rows(basis)) == len(basis)


def test_quotient_matrix_matches_the_rank_loop(monkeypatch):
    # random kernels, some dependent, in the dimensions of linf(1..5) and
    # lin_space(1..3): one elimination completes each the way the rank
    # test per standard vector does
    eliminations = []
    real = aoulab.linalg._bareiss
    monkeypatch.setattr(aoulab.linalg, "_bareiss", lambda *a, **kw: eliminations.append(1) or real(*a, **kw))
    r = random.Random(23)
    dims = [linf(n).dim for n in range(1, 6)] + [lin_space(n).dim for n in range(1, 4)]
    outcomes = set()
    for dim in dims:
        for _ in range(60):
            kernel = [tuple(row) for row in random_matrix(r, r.randint(0, dim), dim)]
            try:
                expected = rank_completed_quotient_matrix(kernel, dim)
            except InvariantViolation:
                expected = None
            eliminations.clear()
            if expected is None:
                with pytest.raises(InvariantViolation):
                    quotient_matrix(kernel, dim)
            else:
                assert quotient_matrix(kernel, dim).data == expected.data
            assert len(eliminations) == 1
            outcomes.add(expected is None)
    assert outcomes == {True, False}
