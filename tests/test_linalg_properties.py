"""Property tests of the integer elimination and dot-product kernels in
aoulab.linalg, checked against the Fraction Gauss-Jordan and term-by-term
dot oracles in conftest.

Derandomized with a bounded number of examples, so a run is deterministic
and takes a few seconds; skipped where hypothesis is not installed."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    fraction_det,
    fraction_dot,
    fraction_inverse,
    fraction_nullspace,
    fraction_rank,
    fraction_solve,
)

from aoulab.errors import ShapeError  # noqa: E402
from aoulab.linalg import (  # noqa: E402
    Matrix,
    combine,
    det,
    dot,
    idot,
    inverse,
    nullspace,
    rank,
    solve,
    zeros,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# small numerators over small and large coprime denominators
rationals = st.builds(
    Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 5, 10**9 + 7, 2**61 - 1))
)
# ints mixed with Fractions, as rows and vectors hold them
entries = st.one_of(rationals, st.integers(-8, 8))


@st.composite
def matrices(draw, max_rows=6, max_cols=7, square=False):
    m = draw(st.integers(0, max_rows))
    n = m if square else draw(st.integers(0, max_cols))
    flat = draw(st.lists(rationals, min_size=m * n, max_size=m * n))
    rows = [flat[i * n : (i + 1) * n] for i in range(m)]
    # rank deficiency on purpose: one row a multiple (maybe zero) of another
    if m >= 2 and draw(st.booleans()):
        i, j, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), draw(rationals)
        rows[i] = [c * x for x in rows[j]]
    return Matrix(tuple(tuple(row) for row in rows))


@PROPERTY
@given(matrices())
def test_rank_nullspace_agree_with_the_oracle(m):
    assert rank(m) == fraction_rank(m)
    basis = nullspace(m)
    assert basis == fraction_nullspace(m)
    assert len(basis) == m.cols - rank(m)
    assert all(all(x == 0 for x in m.apply(v)) for v in basis)


@PROPERTY
@given(matrices(), st.data())
def test_solve_agrees_with_the_oracle(m, data):
    b = tuple(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
    x = solve(m, b)
    assert x == fraction_solve(m, b)
    if x is not None:
        assert m.apply(x) == b


@PROPERTY
@given(matrices(square=True))
def test_det_and_inverse_agree_with_the_oracle(m):
    d = det(m)
    assert d == fraction_det(m)
    inv = fraction_inverse(m)
    if inv is None:
        assert d == 0
        with pytest.raises(ShapeError):
            inverse(m)
    else:
        assert d != 0 and inverse(m).data == inv.data


@st.composite
def vector_pairs(draw, elements=entries, max_len=8):
    n = draw(st.integers(0, max_len))
    a = draw(st.lists(elements, min_size=n, max_size=n))
    return tuple(a), tuple(draw(st.lists(elements, min_size=n, max_size=n)))


@PROPERTY
@given(vector_pairs())
def test_dot_agrees_with_the_oracle(pair):
    a, b = pair
    d = dot(a, b)
    assert type(d) is Fraction
    assert d == fraction_dot(a, b)


@PROPERTY
@given(vector_pairs(elements=st.integers(-(2**70), 2**70)))
def test_idot_agrees_with_the_oracle(pair):
    a, b = pair
    d = idot(a, b)
    assert type(d) is int
    assert d == fraction_dot(a, b)


@PROPERTY
@given(st.integers(0, 4), st.integers(0, 5), st.data())
def test_combine_agrees_with_the_oracle(k, n, data):
    coeffs = data.draw(st.lists(entries, min_size=k, max_size=k))
    vectors = [tuple(data.draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(k)]
    total = combine(coeffs, vectors, n)
    assert all(type(x) is Fraction for x in total)
    assert total == tuple(fraction_dot(coeffs, [v[j] for v in vectors]) for j in range(n))


@PROPERTY
@given(matrices(), st.data())
def test_apply_and_compose_agree_with_the_oracle(m, data):
    v = tuple(data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols)))
    assert m.apply(v) == tuple(fraction_dot(r, v) for r in m.data)
    # a matrix with no rows has no columns either
    k = data.draw(st.integers(0, 4)) if m.cols else 0
    rows = [data.draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m.cols)]
    other = Matrix(tuple(map(tuple, rows)))
    cols = list(zip(*other.data))
    assert (m @ other).data == tuple(tuple(fraction_dot(r, c) for c in cols) for r in m.data)


def test_empty_dot_products():
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    assert idot((), ()) == 0 and type(idot((), ())) is int
    assert combine((), (), 3) == zeros(3)
    assert combine([], [], 0) == ()


@pytest.mark.parametrize(
    "call",
    [
        lambda: dot((1, 2), (1,)),
        lambda: idot((1,), ()),
        lambda: combine((1, 2), ((1,),), 1),
        lambda: combine((1,), ((1, 2),), 1),
        lambda: combine((), ((1,),), 1),
    ],
)
def test_dot_kernels_reject_length_mismatches(call):
    with pytest.raises(ShapeError):
        call()
