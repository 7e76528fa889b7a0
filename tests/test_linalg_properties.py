"""Property tests of the integer elimination kernel in aoulab.linalg,
checked against the Fraction Gauss-Jordan oracle in conftest.

Derandomized with a bounded number of examples, so a run is deterministic
and takes a few seconds; skipped where hypothesis is not installed."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    fraction_det,
    fraction_inverse,
    fraction_nullspace,
    fraction_rank,
    fraction_solve,
)

from aoulab.errors import ShapeError  # noqa: E402
from aoulab.linalg import Matrix, det, inverse, nullspace, rank, solve  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# small numerators over small and large coprime denominators
rationals = st.builds(
    Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 5, 10**9 + 7, 2**61 - 1))
)


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
