"""Property tests of the integer geometry in aoulab.spaces and aoulab.maps:
extreme states, order-interval and unit-ball vertices, dual norms, the
Auerbach basis and factorize seed, local maxima of |det|, and the minimal
signed measures, each checked against its Fraction route, full-ball scan or
swap test in conftest.

The random spaces are V-rep and H-rep cones over rows (1, v), with units of
mixed denominators up to about 10^20. Derandomized with a bounded number of
examples, so a run is deterministic; skipped where hypothesis is not
installed."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    auerbach_oracle,
    fraction_ball_vertices,
    fraction_dot,
    fraction_interval_vertices,
    fraction_rank,
    fraction_states,
    full_ball_dual_norm,
    lp_min_l1_measure,
    no_swap_raises_det,
)

from aoulab.cones import Cone  # noqa: E402
from aoulab.linalg import Matrix  # noqa: E402
from aoulab.maps import _min_l1_measure, auerbach_basis, dual_norm  # noqa: E402
from aoulab.spaces import (  # noqa: E402
    AOUSpace,
    extreme_states,
    order_interval_vertices,
    unit_ball_half,
    unit_ball_vertices,
)
from aoulab.tensors import _seed_states  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

denominators = st.sampled_from((1, 2, 3, 7, 10**9 + 7, 10**20, 10**20 + 39))
rationals = st.builds(Fraction, st.integers(-6, 6), denominators)
positives = st.builds(Fraction, st.integers(1, 6), denominators)


@st.composite
def spaces(draw):
    """A pointed full-dimensional cone over k rows (1, v) that span, as
    generators with the unit a positive combination of them, or as
    inequalities with a unit whose first coordinate outweighs the rest on
    every row."""
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(dim, dim + 2))
    rows = [(Fraction(1),) + tuple(draw(rationals) for _ in range(dim - 1)) for _ in range(k)]
    assume(fraction_rank(Matrix.from_rows(rows)) == dim)
    if draw(st.booleans()):
        weights = [draw(positives) for _ in rows]
        unit = tuple(fraction_dot(weights, col) for col in zip(*rows))
        return AOUSpace(dim, Cone.from_generators(rows), unit)
    rest = tuple(draw(rationals) for _ in range(dim - 1))
    lead = draw(positives) + sum(abs(fraction_dot(row[1:], rest)) for row in rows)
    return AOUSpace(dim, Cone.from_inequalities(rows), (lead,) + rest)


@PROPERTY
@given(spaces())
def test_states_and_vertices_match_the_fraction_routes(sp):
    assert extreme_states(sp) == fraction_states(sp)
    assert order_interval_vertices(sp) == fraction_interval_vertices(sp)
    ball = unit_ball_vertices(sp)
    assert ball == fraction_ball_vertices(sp)
    assert unit_ball_half(sp) == [x for x in ball if next(c for c in x if c) > 0]


@PROPERTY
@given(spaces(), st.lists(rationals, min_size=4, max_size=4))
def test_dual_norm_and_measure_match_the_oracles(sp, coords):
    f = tuple(coords[: sp.dim])
    norm = dual_norm(sp, f)
    assert norm == full_ball_dual_norm(sp, f)
    states = extreme_states(sp)
    mu = _min_l1_measure(sp, f)
    oracle = lp_min_l1_measure(states, f)
    assert sum(map(abs, mu)) == sum(map(abs, oracle)) == norm
    assert tuple(fraction_dot(mu, col) for col in zip(*states)) == f
    if len(states) == sp.dim:
        # the states are a basis of the dual: the measure is unique
        assert mu == oracle


@PROPERTY
@given(spaces())
def test_factorize_seed_is_a_local_max_det(sp):
    # dim independent states that no single swap for another state improves
    states = extreme_states(sp)
    seed = [states[i] for i in _seed_states(sp)]
    assert fraction_rank(Matrix.from_rows(seed)) == sp.dim
    assert no_swap_raises_det(states, seed)


@PROPERTY
@given(spaces())
def test_auerbach_basis_is_a_local_max_det(sp):
    # an Auerbach system of ball vertices that no single swap for another
    # vertex improves, checked over the full Fraction ball
    basis, duals = auerbach_basis(sp)
    assert auerbach_oracle(sp, basis, duals)
    assert no_swap_raises_det(fraction_ball_vertices(sp), basis)
