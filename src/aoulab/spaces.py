"""Ordered vector spaces with a distinguished order unit.

An AOUSpace bundles an ambient dimension, a cone and a unit vector. The
operations here are the order-theoretic core: validation, Archimedeanization
(close the cone, quotient out the lineality of the closure), the order
norm, extreme states, the order interval and unit ball, and the evaluation
embedding into linf over the extreme states.

Each value has one route. The order norm is one LP over the cone rows,
proved optimal by its duality certificate; that it is the largest |f(v)|
over the extreme states (Paulsen & Tomforde, Vector spaces with an order
unit, 2009) is a test oracle. A unit that is not an order unit is refused
in one place, the gate `_require_order_unit`. A space caches its unit e as
(U, D), e = U / D, and works on its cone's integer rows: the order-unit
test of validate and of the gate is the sign of a . U; a state is an
integer extreme ray r of the dual cone over r . U; a vertex of [0, e] is a
pair (x, t) of one homogenized DD, and a ball vertex (2 D x - t U, t D).
maps and tensors compare these by cross-multiplication;
extreme_states and the vertex lists build one Fraction per returned
coordinate, once, cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import dd
from .cones import (
    SYM_PSD, Cone, _cached, _int_extreme_rays, _lineality, _pointed, _scales, close_and_lineality, dual,
    image_cone, int_hrep, pack_sym, unpack_sym, view,
)
from .errors import (
    InputError,
    NotPointedError,
    PolyhedralRequired,
    ShapeError,
    SizeLimitError,
)
from .linalg import Matrix, Vec, common_den, dot, idot, is_zero_vec, quotient_matrix, unit_vec, vec
from .lp import GE, solve_lp
from .psd import ldlt_psd


@dataclass(frozen=True, eq=False)
class AOUSpace:
    """(V, V+, e) with V = Q^dim in a fixed basis; frozen, so what is derived
    from its fields stays valid."""

    dim: int
    cone: Cone
    unit: Vec
    label: str = ""
    _derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "unit", vec(self.unit))
        if len(self.unit) != self.dim or self.cone.dim != self.dim:
            raise ShapeError("unit, cone and space dimensions must agree")
        if is_zero_vec(self.unit):
            raise InputError("the zero vector cannot be an order unit")

    def __repr__(self):
        return f"AOUSpace({self.label or self.dim})"


@dataclass(frozen=True)
class ValidationReport:
    order_unit: bool
    archimedean: bool
    pointed: bool
    certificates: dict


@_cached
def _int_unit(space: AOUSpace) -> tuple[list[int], int]:
    """The unit e as (U, D): integer numerators over one positive
    denominator, e = U / D."""
    return common_den(space.unit)


def order_unit_failures(rows, unit: list[int]) -> list[int]:
    """The indices of the nonzero integer rows a with a.U <= 0, for a unit
    e = U / D.

    The unit e is an order unit of the closed cone {x : Ax >= 0} iff there
    are none: rows with a.e > 0 bound |a.v| by a multiple of a.e, and a row
    with a.e <= 0 cannot dominate a basis direction i with a_i != 0.
    """
    return [i for i, a in enumerate(rows) if idot(a, unit) <= 0 and any(a)]


_LINE_IN_CONE = "cone is not pointed (it contains a line); states do not separate points"


def _require_order_unit(cone: Cone, space: AOUSpace) -> None:
    """The order-unit gate, the one place that refuses a unit: InputError,
    with row i of the closure's H-rows, at the scale the cone holds it, as
    certificate for the first index i `order_unit_failures` finds, unless
    the unit is an order unit of the closure of cone. A strict H-cone's
    closure has its own rows, read as they are, so no closed cone and no
    lineality basis is built.

    Every other test of the unit follows from this one (Gordan's theorem):
    a pointed closed cone whose nonzero H-rows are all positive on e is
    full-dimensional with e in its interior, so its dual is pointed, and
    every dual extreme ray, a nonnegative combination of those rows, and
    every biorthogonal coordinate of e in a simplicial cone is positive on
    e."""
    own = cone.inequalities is not None
    bad = order_unit_failures(cone.inequalities if own else int_hrep(cone), _int_unit(space)[0])
    if bad:
        raise InputError(
            "the unit is not an order unit: a cone row is not positive on it", certificate=view(cone, own)[bad[0]]
        )


def validate(space: AOUSpace) -> ValidationReport:
    """Order-unit and Archimedean flags with failure certificates.

    The unit is an order unit iff `order_unit_failures` finds no row of the
    closed cone. On failure, certificates["order_unit_basis_{i}"] is such a
    row a, for the smallest i with a_i != 0. Archimedean means closed cone,
    which for polyhedral representations is the absence of strict rows.
    """
    certificates: dict = {}
    if space.cone.kind == SYM_PSD:
        n = space.cone.psd_side
        # unit must be positive definite: u - unit is an order unit of the
        # PSD cone iff it is invertible and PSD
        res = ldlt_psd(unpack_sym(space.unit, n))
        order_unit = res.is_psd and all(d != 0 for d in res.diag)
        if not order_unit:
            certificates["order_unit"] = res.witness if not res.is_psd else "singular unit"
        return ValidationReport(order_unit, True, True, certificates)

    archimedean = not space.cone.has_strict_rows
    closed, lineality = close_and_lineality(space.cone)
    pointed = not lineality
    rows = int_hrep(closed)
    bad = order_unit_failures(rows, _int_unit(space)[0])
    order_unit = not bad
    if bad:
        i = min(next(j for j, x in enumerate(rows[k]) if x != 0) for k in bad)
        certificates[f"order_unit_basis_{i}"] = closed.hrep()[next(k for k in bad if rows[k][i])]
    return ValidationReport(order_unit, archimedean, pointed, certificates)


def archimedeanize(space: AOUSpace) -> tuple[AOUSpace, Matrix]:
    """Close the cone, then quotient by the lineality of the closure.

    Returns the Archimedean space and the quotient matrix q. For an already
    closed pointed cone this is the identity. A unit that is not an order
    unit of the closure C is bad input. Otherwise the result is an AOU
    space, with nothing left to check: q(C) is finitely generated, hence
    closed, so Archimedean. It is pointed: q(c1) = -q(c2) puts c1 + c2 in
    ker q, the lineality of C, so -c1 = c2 - (c1 + c2) lies in C, and
    q(c1) = 0. And q(e) is an order unit: r e +- v in C gives
    r q(e) +- q(v) in q(C), and q is onto.
    """
    space.cone.require_polyhedral("archimedeanize")
    closed, lin = close_and_lineality(space.cone)
    _require_order_unit(closed, space)
    if not lin:
        return AOUSpace(space.dim, closed, space.unit, space.label), Matrix.identity(space.dim)
    q = quotient_matrix(lin, space.dim)
    new_cone = image_cone(closed, q)
    new_unit = q.apply(space.unit)
    arch = AOUSpace(q.rows, new_cone, new_unit, label=f"{space.label}/arch" if space.label else "")
    return arch, q


def order_norm(space: AOUSpace, v) -> Fraction:
    """inf{r : -r*e <= v <= r*e}, exact; closed polyhedral cones only.

    The value is a norm only on an AOU space, so the space is refused
    first: a cone with a line (NotPointedError, with the lineality), then
    a unit that `_require_order_unit` refuses. Past that gate every H-row
    a has a.e > 0, so the one LP over the rows, r a.e >= |a.v| for every
    a, is feasible, and `solve_lp` proves its optimum by its duality
    certificate. Its value is the largest |f(v)| over the extreme states f
    (Paulsen & Tomforde, Vector spaces with an order unit, 2009), which
    the tests check.
    """
    space.cone.require_closed("order_norm")
    v = vec(v)
    if len(v) != space.dim:
        raise ShapeError(f"vector length {len(v)} != space dim {space.dim}")
    lineality = _lineality(space.cone)
    if lineality:
        raise NotPointedError(_LINE_IN_CONE, lineality=lineality)
    _require_order_unit(space.cone, space)
    # min r subject to r*e + v and r*e - v in the cone, r >= 0
    rows = []
    rhs = []
    for a in space.cone.hrep():
        ae = dot(a, space.unit)
        av = dot(a, v)
        rows.append((ae,))
        rhs.append(-av)
        rows.append((ae,))
        rhs.append(av)
    return solve_lp((1,), rows, rhs, [GE] * len(rows), nonneg=[True]).value


@_cached
def extreme_states(space: AOUSpace) -> list[Vec]:
    """Extreme rays of the dual cone, normalized to 1 on the unit, as the
    vectors of their coefficients.

    Every state is a convex combination of these, so state-quantified
    conditions reduce to this finite list. A cone with lineality raises
    NotPointedError, an InputError carrying the lineality basis: its states
    vanish on the lineality, so they cannot separate points.
    """
    den = _int_unit(space)[1]
    return [_fracs([den * x for x in r], s) for r, s in _int_states(space)]


@_cached
def _int_states(space: AOUSpace) -> list[tuple[dd.IntVec, int]]:
    """The extreme states r D / s, in their sorted order, as pairs (r, s):
    r an integer extreme ray of the dual cone, s = r . U > 0 for e = U / D.
    Pointedness is read off the one DD and, for a V-cone, one rank; a
    lineality basis is eliminated only for an error. A pointed cone then
    passes `_require_order_unit` or is refused there, and past the gate
    the dual is pointed with every ray positive on e (Gordan's theorem)."""
    if space.cone.kind == SYM_PSD:
        raise PolyhedralRequired(
            "sym_psd spaces have infinitely many extreme states; "
            "use the dedicated PSD oracles"
        )
    if not _pointed(space.cone):
        raise NotPointedError(_LINE_IN_CONE, lineality=close_and_lineality(space.cone)[1])
    _require_order_unit(space.cone, space)
    unit = _int_unit(space)[0]
    return _sorted_pairs([(r, idot(r, unit)) for r in _int_extreme_rays(dual(space.cone))])


def _sorted_pairs(pairs: list[tuple[dd.IntVec, int]]) -> list[tuple[dd.IntVec, int]]:
    """Pairs (x, t), t > 0, in the order of x / t: integer keys over lcm(t)."""
    den = lcm(*(t for _, t in pairs))
    return sorted(pairs, key=lambda p: [x * (den // p[1]) for x in p[0]])


def _fracs(nums, den: int) -> Vec:
    """nums / den, one Fraction per coordinate."""
    return tuple([Fraction(x, den) for x in nums])


def kadison_embed(space: AOUSpace):
    """v |-> (f_1(v), ..., f_k(v)) over the extreme states, into linf(k).
    Returns a UnitalMap, with nothing left to check: it is unital, as each
    f_i(e) = 1, positive, as each f_i is, and an order embedding, as the
    closed cone is the set where every extreme state is >= 0. It keeps the
    order norm, both sides being the largest |f_i(v)|.
    """
    from .maps import UnitalMap

    states = extreme_states(space)
    return UnitalMap(space, linf(len(states)), Matrix.from_rows(states))


# -- interval and ball geometry ------------------------------------------


@_cached
def _interval_pairs(space: AOUSpace) -> list[tuple[dd.IntVec, int]]:
    """The vertices x / t of [0, e] = {v : v in cone, e - v in cone} as the
    integer pairs (x, t) of one homogenized DD, which the order interval and
    the unit ball both read, in the vertices' sorted order; InputError when
    e is not an order unit. With e = U / D the rows a . v >= 0 and
    -D a . v >= -a . U are integer; a . U <= 0 on a nonzero row is an
    `order_unit_failures` row."""
    cone_rows = int_hrep(space.cone)
    _require_order_unit(space.cone, space)
    unit, den = _int_unit(space)
    rows, rhs = [], []
    for a in cone_rows:
        rows += (a, tuple(-den * x for x in a))
        rhs += (0, -idot(a, unit))
    return _sorted_pairs(dd.polytope_vertices(rows, rhs, space.dim))


@_cached
def _ball_rows(space: AOUSpace) -> list[tuple[dd.IntVec, int]]:
    """The vertices of the order-norm unit ball [-e, e] = 2 [0, e] - e as
    pairs (2 D x - t U, t D), numerators over a positive denominator, for
    the interval vertices x / t and e = U / D. The map p -> 2p - e is
    increasing in every coordinate, so they keep the sorted order."""
    unit, den = _int_unit(space)
    return [
        (tuple([2 * den * c - t * u for c, u in zip(x, unit)]), t * den) for x, t in _interval_pairs(space)
    ]


@_cached
def _ball_half_rows(space: AOUSpace) -> list[tuple[dd.IntVec, int]]:
    """The `_ball_rows` of `unit_ball_half`."""
    return [(x, t) for x, t in _ball_rows(space) if next(c for c in x if c) > 0]


@_cached
def order_interval_vertices(space: AOUSpace) -> list[Vec]:
    """Vertices of [0, e] = {v : v in cone, e - v in cone}, sorted;
    InputError when e is not an order unit."""
    return [_fracs(x, t) for x, t in _interval_pairs(space)]


@_cached
def unit_ball_vertices(space: AOUSpace) -> list[Vec]:
    """Vertices of the order-norm unit ball [-e, e], sorted."""
    return [_fracs(x, t) for x, t in _ball_rows(space)]


@_cached
def unit_ball_half(space: AOUSpace) -> list[Vec]:
    """One vertex of each +- pair of the unit ball, the one whose first
    nonzero coordinate is positive, in the ball's sorted order.

    The ball [-e, e] is symmetric, so its vertices come in pairs x, -x, and
    0, the midpoint of -e and e, is never one. A scan that cannot tell x
    from -x (||T(-x)|| = ||T x||, |f(-x)| = |f(x)|, |det| under a sign
    flip) needs only this half."""
    return [_fracs(x, t) for x, t in _ball_half_rows(space)]


# -- builders --------------------------------------------------------------

LIN_SPACE_CAP = 12


def linf(n: int) -> AOUSpace:
    """Coordinatewise order on Q^n with unit (1, ..., 1)."""
    if n < 1:
        raise InputError("linf(n) needs n >= 1")
    cone = Cone(n, generators=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    return AOUSpace(n, cone, (Fraction(1),) * n, label=f"linf({n})")


def lin_space(n: int) -> AOUSpace:
    """span{1, t_1, ..., t_n} inside C([-1,1]^n), coefficients (a_0, ..., a_n).

    The function a_0 + sum a_i t_i is nonnegative on the cube iff
    a_0 + sum sigma_i a_i >= 0 for every sign pattern sigma, giving 2^n rows.
    """
    if n < 1:
        raise InputError("lin_space(n) needs n >= 1")
    if n > LIN_SPACE_CAP:
        raise SizeLimitError(f"lin_space capped at n <= {LIN_SPACE_CAP} (2^n rows)")
    rows = tuple((1,) + tuple(-1 if mask >> i & 1 else 1 for i in range(n)) for mask in range(1 << n))
    cone = Cone(n + 1, inequalities=rows)
    return AOUSpace(n + 1, cone, unit_vec(0, n + 1), label=f"lin_space({n})")


def sym_space(n: int) -> AOUSpace:
    """Real symmetric n x n matrices, PSD cone, unit = identity."""
    if n < 1:
        raise InputError("sym_space(n) needs n >= 1")
    cone = Cone.sym_psd(n)
    return AOUSpace(cone.dim, cone, pack_sym(Matrix.identity(n)), label=f"sym_space({n})")


def dual_augmented(space: AOUSpace) -> AOUSpace:
    """V* + Q with cone {(f, t) : f(v) + t >= 0 for all 0 <= v <= e}.

    One inequality row (p, 1) per vertex p of the order interval suffices,
    since the interval is their convex hull: for the vertex x / t, the
    coprime row (x, t) at scale 1 / t. Unit = (0, ..., 0, 1): the
    constant-one functional slot.
    """
    space.cone.require_polyhedral("dual_augmented")
    pairs = _interval_pairs(space)
    rows = tuple(x + (t,) for x, t in pairs)
    cone = Cone(space.dim + 1, inequalities=rows, scales=_scales(Fraction(1, t) for _, t in pairs))
    unit = unit_vec(space.dim, space.dim + 1)
    return AOUSpace(space.dim + 1, cone, unit, label=f"dual_augmented({space.label})")
