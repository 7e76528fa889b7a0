"""Each value in aoulab.spaces and aoulab.maps has one route, with its proof
in the docstring; the routes that used to recompute it are the oracles here.

- `order_norm` (one LP) against the largest |f(v)| over the extreme states;
- `dual_norm` and `norm_bound_equiv` against f(e) - 2 min f over [0, e];
- `archimedeanize` against `validate`;
- `kadison_embed` against its unital and positive flags and the order
  norms on both sides;
- `_min_l1_measure` against the dual norm, as its mass;
- `block_positive` members against their certificate's verify, and each
  edit of the certificate's Gram shift against `conftest.evidence_oracle`.

The random spaces are linf and lin_space, the epsilon and pi spaces of small
factor pairs, simplicial V-spaces, V-rep and H-rep cones over rows (1, v)
with an interior unit, and the same with each row scaled by a rational of
large denominator such as 1/(10^9 + 7). Derandomized with a bounded number
of examples, so a run is deterministic; skipped where hypothesis is not
installed. The double descriptions the dropped routes ran are counted last."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    evidence_edits,
    evidence_oracle,
    fraction_apply,
    fraction_dot,
    fraction_rank,
    interval_dual_norm,
    is_aou,
    states_order_norm,
)

from aoulab.cones import Cone  # noqa: E402
from aoulab.linalg import Matrix  # noqa: E402
from aoulab.maps import _min_l1_measure, check_map, dual_norm, interval_min, norm_bound_equiv  # noqa: E402
from aoulab.psd_examples import BELL, SWAP, block_positive  # noqa: E402
from aoulab.spaces import (  # noqa: E402
    AOUSpace,
    archimedeanize,
    extreme_states,
    kadison_embed,
    lin_space,
    linf,
    order_norm,
    validate,
)
from aoulab.tensors import EPSILON, PI, tensor_space  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

LARGE = 10**9 + 7
denominators = st.sampled_from((1, 2, 3, 7, LARGE))
rationals = st.builds(Fraction, st.integers(-6, 6), denominators)
positives = st.builds(Fraction, st.integers(1, 6), denominators)

FIXED = [linf(n) for n in (1, 2, 3)] + [lin_space(n) for n in (1, 2, 3)]
FIXED += [
    tensor_space(left, right, kind).realized
    for left, right in ((linf(2), lin_space(1)), (lin_space(1), lin_space(1)), (lin_space(1), linf(2)))
    for kind in (EPSILON, PI)
]


@st.composite
def rows_over_one(draw, dim: int, k: int) -> list[tuple]:
    """k rows (1, v) that span Q^dim, each scaled by a positive rational."""
    rows = [(Fraction(1),) + tuple(draw(rationals) for _ in range(dim - 1)) for _ in range(k)]
    assume(fraction_rank(Matrix.from_rows(rows)) == dim)
    return [tuple(draw(positives) * x for x in row) for row in rows]


@st.composite
def spaces(draw):
    """A fixed space, or a pointed full-dimensional cone with an interior
    unit: simplicial or not, by generators, or by inequalities."""
    form = draw(st.sampled_from(("fixed", "generators", "inequalities")))
    if form == "fixed":
        return draw(st.sampled_from(FIXED))
    dim = draw(st.integers(2, 4))
    rows = draw(rows_over_one(dim, draw(st.integers(dim, dim + 2))))
    if form == "generators":
        weights = [draw(positives) for _ in rows]
        unit = tuple(fraction_dot(weights, col) for col in zip(*rows))
        return AOUSpace(dim, Cone.from_generators(rows), unit)
    # the first coordinate outweighs the rest on every row: a . e > 0
    rest = tuple(draw(rationals) for _ in range(dim - 1))
    lead = draw(positives) + sum(abs(fraction_dot(row[1:], rest)) / row[0] for row in rows)
    return AOUSpace(dim, Cone.from_inequalities(rows), (lead,) + rest)


@st.composite
def space_and_vector(draw):
    sp = draw(spaces())
    return sp, tuple(draw(rationals) for _ in range(sp.dim))


@PROPERTY
@given(space_and_vector())
def test_order_norm_is_the_largest_state_value(case):
    sp, v = case
    assert order_norm(sp, v) == states_order_norm(sp, v)


@PROPERTY
@given(space_and_vector(), positives)
def test_dual_norm_and_norm_bound_match_the_interval_side(case, eps):
    sp, f = case
    assert dual_norm(sp, f) == interval_dual_norm(sp, f)
    for bound in (Fraction(0), eps, -interval_min(sp, f)):
        assert norm_bound_equiv(sp, f, bound) == (interval_min(sp, f) >= -bound)


@st.composite
def non_archimedean_spaces(draw):
    """H-rep cones over rows (1, v) in the first m coordinates, m < dim
    giving a lineality, some rows strict when m = dim, with a unit whose
    first coordinate outweighs the rest on every row."""
    dim = draw(st.integers(2, 4))
    m = draw(st.integers(1, dim))
    k = draw(st.integers(1, m + 2))
    pad = (0,) * (dim - m)
    rows = [(Fraction(1),) + tuple(draw(rationals) for _ in range(m - 1)) + pad for _ in range(k)]
    strict = [draw(st.booleans()) for _ in rows]
    if m == dim:
        strict[draw(st.integers(0, k - 1))] = True
    rest = tuple(draw(rationals) for _ in range(dim - 1))
    lead = draw(positives) + sum(abs(fraction_dot(row[1:], rest)) for row in rows)
    return AOUSpace(dim, Cone.from_inequalities(rows, strict=strict), (lead,) + rest)


@PROPERTY
@given(non_archimedean_spaces())
def test_archimedeanize_gives_an_aou_space(sp):
    assert not is_aou(sp)
    arch, q = archimedeanize(sp)
    assert is_aou(arch)
    assert arch.unit == fraction_apply(q, sp.unit)


@PROPERTY
@given(space_and_vector())
def test_kadison_embedding_is_unital_positive_and_isometric(case):
    sp, v = case
    emb = kadison_embed(sp)
    assert emb.unital and emb.positive and check_map(emb).order_embedding
    assert order_norm(emb.target, emb.apply(v)) == order_norm(sp, v)


@PROPERTY
@given(space_and_vector())
def test_minimal_measure_has_the_dual_norm_as_its_mass(case):
    sp, f = case
    mu = _min_l1_measure(sp, f)
    assert sum(map(abs, mu)) == dual_norm(sp, f)
    assert tuple(fraction_dot(mu, col) for col in zip(*extreme_states(sp))) == f


@st.composite
def symmetric_4x4(draw):
    """Bell, Swap, the identity, or a random symmetric matrix with small
    rational entries."""
    form = draw(st.sampled_from(("bell", "swap", "identity", "random")))
    if form != "random":
        return {"bell": BELL, "swap": SWAP, "identity": Matrix.identity(4)}[form]
    upper = {(i, j): draw(rationals) for i in range(4) for j in range(i, 4)}
    return Matrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(4)] for i in range(4)])


@PROPERTY
@given(symmetric_4x4())
def test_every_block_positive_member_verifies(m):
    rep = block_positive(m)
    if rep.verdict == "certified_member":
        assert rep.evidence.verify(m)
        for edited, _ in evidence_edits(rep.evidence, m):
            assert edited.verify(m) is evidence_oracle(edited, m)
    if rep.verdict == "certified_non_member":
        x, y, value = rep.counterexample
        z = tuple(a * b for a in x for b in y)
        assert fraction_dot(z, fraction_apply(m, z)) == value < 0


# -- the double descriptions the dropped routes ran ---------------------------


def test_cold_epsilon_order_norm_runs_no_dd(dd_calls):
    # the states route read the epsilon cone's dual DD; the LP and the
    # gate read the cone's own rows
    left, right = lin_space(2), lin_space(2)
    extreme_states(left), extreme_states(right)
    eps = tensor_space(left, right, EPSILON).realized
    dd_calls.clear()
    assert order_norm(eps, eps.unit) == 1
    assert dd_calls == []


def test_archimedeanize_runs_one_dd(dd_calls):
    # the closure's, for its generators; validate ran the image's
    sp = AOUSpace(3, Cone.from_inequalities([(1, 1, 0), (1, -1, 0)], strict=[True, False]), (1, 0, 0))
    arch, _ = archimedeanize(sp)
    assert len(dd_calls) == 1
    assert validate(arch).pointed


def test_kadison_embed_with_warm_states_runs_no_dd(dd_calls):
    # the flags ran the DD of the target linf(k)
    sp = lin_space(2)
    extreme_states(sp)
    dd_calls.clear()
    emb = kadison_embed(sp)
    assert dd_calls == []
    assert emb.target.dim == 4
