"""Property tests of the integer-first cones, spaces and maps: a cone holds
its coprime integer rows with one scale per row, a space its unit as
(U, D), a map its matrix over one denominator.  Each integer path is
checked against the Fraction route in conftest that reads the views
hrep() and vrep() with a Fraction dot per row.

Rows mix denominators up to 10^30 with integer rows that are not coprime,
and the spaces include dimension 1.  Derandomized with a bounded number of
examples, as in test_linalg_properties; skipped where hypothesis is not
installed."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    fraction_ball_vertices,
    fraction_member,
    fraction_positive,
    fraction_states,
    fraction_validate,
    fraction_verify,
    lp_contains,
    lp_member,
)

from aoulab.cones import Cone, member  # noqa: E402
from aoulab.linalg import Matrix, vec  # noqa: E402
from aoulab.maps import UnitalMap, archimedean_quotient  # noqa: E402
from aoulab.serialize import dumps, loads  # noqa: E402
from aoulab.spaces import AOUSpace, extreme_states, unit_ball_vertices, validate  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

DENOMINATORS = (1, 2, 3, 7, 10**9 + 7, 10**30)
scales = st.builds(Fraction, st.integers(1, 9), st.sampled_from(DENOMINATORS))
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS))


@st.composite
def rows(draw, dim: int, min_size: int = 1, max_size: int = 5):
    """Rational rows, or integer rows with a common factor above 1."""
    k = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        return [tuple(draw(rationals) for _ in range(dim)) for _ in range(k)]
    out = []
    for _ in range(k):
        c = draw(st.integers(2, 6))
        out.append(tuple(c * draw(st.integers(-3, 3)) for _ in range(dim)))
    return out


@st.composite
def cones(draw):
    dim = draw(st.integers(1, 4))
    given = draw(rows(dim))
    if draw(st.booleans()):
        return Cone.from_generators(given, dim), given
    return Cone.from_inequalities(given, dim=dim), given


# AOU spaces with an interior unit: the orthant, the l1 cone {a0 >= sum |ai|}
# and its dual, each row scaled by a random positive rational or integer
# factor, as generators or as rows, in dimensions 1 to 3
def _orthant(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)], (1,) * n


def _l1(n):
    signs = [()]
    for _ in range(n - 1):
        signs = [s + (t,) for s in signs for t in (1, -1)]
    return [(1,) + s for s in signs], (1,) + (0,) * (n - 1)


@st.composite
def spaces(draw):
    n = draw(st.integers(1, 3))
    base, unit = draw(st.sampled_from((_orthant, _l1)))(n)
    scaled = []
    for r in base:
        c = draw(st.one_of(scales, st.integers(1, 6)))
        scaled.append(tuple(c * x for x in r))
    u = draw(scales)
    unit = tuple(u * x for x in unit)
    if draw(st.booleans()):
        return AOUSpace(n, Cone.from_generators(scaled, n), unit)
    return AOUSpace(n, Cone.from_inequalities(scaled, dim=n), unit)


@PROPERTY
@given(cones())
def test_views_return_the_given_rows(pair):
    cone, given = pair
    want = tuple(vec(r) for r in given if cone.inequalities is not None or any(r))
    assert (cone.vrep() if cone.generators is not None else cone.hrep()) == want
    # coprime integer rows, with the scales that give the rows back
    assert all(type(x) is int for r in cone.rows for x in r)
    back = loads(dumps(AOUSpace(cone.dim, cone, (1,) * cone.dim))).cone
    assert (back.rows, back.scales) == (cone.rows, cone.scales)


@PROPERTY
@given(cones())
def test_a_direct_construction_holds_the_same_rows(pair):
    # rows handed to Cone itself, as Fractions or as integers with a common
    # factor, are split as the public constructors split them
    cone, given = pair
    if cone.generators is not None:
        direct = Cone(cone.dim, generators=tuple(r for r in given if any(r)))
    else:
        direct = Cone(cone.dim, inequalities=tuple(given))
    assert (direct.rows, direct.scales, direct.strict) == (cone.rows, cone.scales, cone.strict)


@PROPERTY
@given(cones())
def test_integer_rows_describe_the_same_cone(pair):
    cone, _ = pair
    if cone.generators is not None:
        plain = Cone(cone.dim, generators=cone.generators)
    else:
        plain = Cone(cone.dim, inequalities=cone.inequalities)
    assert lp_contains(cone, plain) and lp_contains(plain, cone)


@PROPERTY
@given(cones(), st.data())
def test_member_and_verify_match_the_fraction_routes(pair, data):
    cone, given = pair
    queries = [tuple(data.draw(rationals) for _ in range(cone.dim)) for _ in range(3)]
    queries += [vec(r) for r in given]
    for v in queries:
        cert = member(cone, v)
        if cone.inequalities is not None:
            assert cert == fraction_member(cone, v)
        else:
            assert cert.verdict == lp_member(cone, v).verdict
        assert cert.verify(cone, v) and fraction_verify(cert, cone, v)


@PROPERTY
@given(spaces())
def test_geometry_matches_the_fraction_routes(space):
    assert extreme_states(space) == fraction_states(space)
    assert unit_ball_vertices(space) == sorted(fraction_ball_vertices(space))
    assert validate(space) == fraction_validate(space)


@PROPERTY
@given(spaces(), st.data())
def test_validate_on_any_unit_matches_the_fraction_route(space, data):
    unit = tuple(data.draw(rationals) for _ in range(space.dim))
    if any(unit):
        other = AOUSpace(space.dim, space.cone, unit)
        assert validate(other) == fraction_validate(other)


@PROPERTY
@given(spaces(), spaces(), st.data())
def test_positive_matches_the_fraction_route(source, target, data):
    rows = [[data.draw(rationals) for _ in range(source.dim)] for _ in range(target.dim)]
    m = UnitalMap(source, target, Matrix.from_rows(rows))
    assert m.positive == fraction_positive(m)


@PROPERTY
@given(st.integers(2, 4), st.data())
def test_quotient_generators_are_the_images_of_the_given_ones(n, data):
    # a V-source whose generators are not coprime integers: the orthant's
    # axes at random scales; J = span(e_i) is an order ideal of it
    factors = [data.draw(st.one_of(scales, st.integers(2, 6))) for _ in range(n)]
    gens = [tuple(c * int(i == j) for j in range(n)) for i, c in enumerate(factors)]
    space = AOUSpace(n, Cone.from_generators(gens, n), (1,) * n, label="src")
    i = data.draw(st.integers(0, n - 1))
    quotient, qmap = archimedean_quotient(space, [tuple(int(j == i) for j in range(n))])
    images = [qmap.matrix.apply(vec(g)) for g in gens]
    images = tuple(g for g in images if any(g))
    assert quotient.cone.vrep() == images
    assert json.loads(dumps(quotient))["cone"]["rows"] == [[str(x) for x in g] for g in images]
