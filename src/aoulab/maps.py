"""Linear maps between AOU spaces and the constructions built from them.

The map-level toolkit: unitality/positivity/embedding/isometry checks (a
unital map's isometry flag is its embedding flag, a non-unital map's one
cone equality between dual balls), order ideals and their quotients from
one image cone in V/J, order-quotient recognition by cone equality, unital
positive extension by LP feasibility, the order-interval minimum and the
norm-bound biconditional for functionals, Auerbach bases from ball
vertices, and the two perturbations that turn a unital map with norm close
to 1 into a nearby positive map, with exact bounds.  Each value and verdict
has one route, its proof in the docstring; the tests keep the second
routes as oracles.  The witness of a non-ideal, the lifts of an order
quotient and the minimal measures are read off verified conic
decompositions; the one LP is the extension's, and order-norm LPs are left
to `operator_norm`.

A map reads its matrix as integer numerators over one denominator, cached
once per matrix by `cones._int_matrix`, as `image_cone` does: positivity
is a sign test of the target's integer rows on the images of the
source's integer generators, the pull-back cone has the coprime rows
M^T a, and the isometry test's dual balls and the minimal measures' row
cones are built from the integer states of `spaces`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import comb, gcd
from typing import Sequence

from .cones import (
    SYM_PSD, Certificate, Cone, _cached, _int_matrix, _lineality, _pointed, _scales, contains, image_cone,
    int_hrep, int_vrep, member, same_cone, vrep_scales,
)
from .dd import _reduce
from .errors import InputError, InvariantViolation, ShapeError, SizeLimitError, require_holds
from .linalg import (
    Matrix,
    Vec,
    combine,
    common_den,
    dot,
    frac,
    idot,
    integerize,
    inverse,
    is_zero_vec,
    kron_vec,
    max_abs_det,
    quotient_matrix,
    rank,
    solve,
    unit_vec,
    vadd,
    vec,
    vscale,
    vsub,
    zeros,
)
from .lp import EQ, GE, OPTIMAL, solve_lp
from .spaces import (
    AOUSpace,
    _ball_half_rows,
    _ball_rows,
    _int_states,
    _int_unit,
    _require_order_unit,
    extreme_states,
    order_interval_vertices,
    order_norm,
    unit_ball_half,
)


@dataclass(frozen=True, eq=False)
class UnitalMap:
    """A linear map between AOU spaces; the flags are computed, not trusted,
    and cached on the frozen map."""

    source: AOUSpace
    target: AOUSpace
    matrix: Matrix
    _derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ShapeError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.dim}x{self.source.dim}"
            )

    @property
    @_cached
    def unital(self) -> bool:
        return self.matrix.apply(self.source.unit) == self.target.unit

    @property
    @_cached
    def positive(self) -> bool:
        """In integers, for m = M / d over one denominator: every target
        H-row is nonnegative on M g for every integer source generator g.
        A sym_psd target has no H-rep: each image takes the PSD test."""
        target = self.target.cone
        if target.kind == SYM_PSD:
            return all(member(target, self.apply(g)).verdict == "member" for g in int_vrep(self.source.cone))
        rows = _int_matrix(self.matrix)[0]
        images = [[idot(r, g) for r in rows] for g in int_vrep(self.source.cone)]
        return all(idot(a, x) >= 0 for a in int_hrep(target) for x in images)

    def apply(self, v) -> Vec:
        return self.matrix.apply(vec(v))

    def compose(self, inner: "UnitalMap") -> "UnitalMap":
        if inner.target is not self.source and inner.target.dim != self.source.dim:
            raise ShapeError("composition dimension mismatch")
        return UnitalMap(inner.source, self.target, self.matrix @ inner.matrix)


def _coeffs(space: AOUSpace, f) -> Vec:
    c = vec(f)
    if len(c) != space.dim:
        raise ShapeError(f"functional length {len(c)} != space dim {space.dim}")
    return c


# -- map classification ------------------------------------------------------


@dataclass(frozen=True)
class MapReport:
    unital: bool
    positive: bool
    order_embedding: bool
    isometry: bool


def _pullback_cone(m: UnitalMap) -> Cone:
    """{v : m(v) in target cone}: each integer target row a pulled back to
    the row M^T a, made coprime, for m = M / d."""
    cols = list(zip(*_int_matrix(m.matrix)[0]))
    rows = tuple(_reduce([idot(c, a) for c in cols]) for a in int_hrep(m.target.cone))
    return Cone(m.source.dim, inequalities=rows)


def _is_isometry(m: UnitalMap) -> bool:
    """Exact isometry test through dual balls, with no LP.

    The dual ball of the order norm is the convex hull of +-(extreme
    states) (Paulsen & Tomforde, Vector spaces with an order unit, 2009), and
    that of the pulled-back seminorm v -> ||m(v)|| is the hull of +-(g o m)
    over extreme target states. Two seminorms agree iff their dual balls
    do, so m is an isometry iff the hulls are equal: one cone equality
    between their height-1 lifts, the cones generated by the (p, 1). Both
    hulls are V-cones, pointed as every lift has positive height, so
    `same_cone` runs one DD, of the pulled-back hull, and decomposes each
    pulled-back lift over the source's lifts, verified by substitution.

    In integers: a state r D / s lifts to (r D, s), and g o m, for the
    target state g = r D' / s and m = M / d, to (M^T r D', d s).
    """
    rows, d = _int_matrix(m.matrix)
    cols, dt, ds = list(zip(*rows)), _int_unit(m.target)[1], _int_unit(m.source)[1]

    def lifted_hull(pairs) -> Cone:
        lifts = [_reduce(p + (s,)) for q, s in pairs for p in (q, tuple(-x for x in q))]
        return Cone(m.source.dim + 1, generators=tuple(lifts))

    pulled = [(tuple(dt * idot(c, r) for c in cols), d * s) for r, s in _int_states(m.target)]
    own = [(tuple(ds * x for x in r), s) for r, s in _int_states(m.source)]
    return same_cone(lifted_hull(pulled), lifted_hull(own))


def check_map(m: UnitalMap) -> MapReport:
    """Unital / positive / order-embedding / isometry flags, all exact.

    The embedding test compares the pullback cone with the source cone.
    The pullback contains the source exactly when the map is positive, as
    a . (M g) = (M^T a) . g, so only the other inclusion is tested. A
    unital map is an isometry for the order norms exactly when it is an
    order embedding: ||v|| <= r means r e +- v >= 0, which a unital order
    embedding carries both ways, and v >= 0 exactly when ||r e - v|| <= r
    for r = ||v|| (Paulsen & Tomforde, Vector spaces with an order unit,
    2009), which a unital isometry carries both ways. So only non-unital
    maps take the dual-ball isometry test.
    """
    unital = m.unital
    pullback = _pullback_cone(m)
    positive = m.positive
    embedding = positive and contains(m.source.cone, pullback)
    isometry = embedding if unital else _is_isometry(m)
    return MapReport(unital, positive, embedding, isometry)


# -- order ideals and quotients ----------------------------------------------


@dataclass(frozen=True)
class IdealReport:
    is_ideal: bool
    witness: tuple[Vec, Vec] | None = None  # (p, q): 0 <= q <= p, p in J, q not


def _behind(cone: Cone, m: Matrix) -> list[Vec]:
    """The generators of cone.vrep() that m does not kill, in order: those
    behind the generators of `image_cone(cone, m)`, picked from the integer
    rows it reads."""
    mrows = _int_matrix(m)[0]
    return [g for g, r in zip(cone.vrep(), int_vrep(cone)) if any(idot(a, r) for a in mrows)]


def _preimage(cert: Certificate, behind: list[Vec], dim: int) -> Vec:
    """The generators behind the terms of a decomposition over an
    `image_cone`, combined: a source element >= 0 mapped onto the
    decomposed vector."""
    terms = cert.decomposition
    return combine([c for _, c in terms], [behind[j] for j, _ in terms], dim)


def _ideal(space: AOUSpace, basis: Sequence) -> tuple[IdealReport, Matrix | None, Cone | None]:
    """`is_order_ideal`, with q = `quotient_matrix` of the first independent
    basis vectors and the image q(C), mapped from the cone's generators: J
    is an ideal when q(C) is pointed, and otherwise the witness lies behind
    -l and l for the first lineality basis vector l. J = V has no q."""
    space.cone.require_polyhedral("is_order_ideal")
    independent: list[Vec] = []
    for b in map(vec, basis):
        if len(b) != space.dim:
            raise ShapeError("ideal basis vector of wrong length")
        if rank(independent + [b]) > len(independent):
            independent.append(b)
    if len(independent) == space.dim:
        return IdealReport(True), None, None
    q = quotient_matrix(independent, space.dim)
    image = image_cone(space.cone, q)
    if _pointed(image):
        return IdealReport(True), q, image
    behind = _behind(space.cone, q)
    line = _lineality(image)[0]
    c1, c2 = (_preimage(member(image, w), behind, space.dim) for w in (vscale(-1, line), line))
    return IdealReport(False, witness=(vadd(c1, c2), c1)), q, image


def is_order_ideal(space: AOUSpace, basis: Sequence) -> IdealReport:
    """Decide whether J = span(basis) is an order ideal: p in J and
    0 <= q <= p force q in J. It is one exactly when the image q(C) of the
    cone in V/J is pointed, which one double description of the images of
    the generators decides. (=>) If q(c1) = -q(c2) != 0, then p = c1 + c2
    lies in J and 0 <= c1 <= p with c1 not in J: decomposing -l and l over
    the images, for a line l of q(C), gives such c1 and c2, the witness.
    (<=) If p is in J and 0 <= c <= p, then q(c) and -q(c) = q(p - c) both
    lie in q(C), so q(c) = 0.
    """
    return _ideal(space, basis)[0]


def archimedean_quotient(space: AOUSpace, basis: Sequence) -> tuple[AOUSpace, UnitalMap]:
    """The Archimedean quotient V/J by an order ideal J = span(basis)
    (Paulsen & Tomforde, Vector spaces with an order unit, 2009): the cone
    q(C), with unit q(e), for q = `quotient_matrix`. J is an order ideal
    exactly when q(C) is pointed: if q(c1) = -q(c2) != 0 then
    0 <= c1 <= c1 + c2 in J with c1 not in J, and if 0 <= c <= p in J then
    q(c) and -q(c) = q(p - c) lie in q(C). Finitely generated, q(C) is
    closed, so nothing is left to Archimedeanize. Raises when J is not an
    order ideal (with the (p, q) witness attached), swallows the unit, or
    leaves q(e) no order unit; `_quotient_holds` checks the result.
    """
    report, q, image = _ideal(space, basis)
    if not report.is_ideal:
        raise InputError("not an order ideal", certificate=report.witness)
    unit = q.apply(space.unit) if q is not None else ()
    if is_zero_vec(unit):
        raise InputError("order ideal contains the unit; quotient collapses")
    quotient = AOUSpace(q.rows, image, unit, label=f"{space.label}/J" if space.label else "")
    _require_order_unit(image, quotient)
    qmap = UnitalMap(space, quotient, q)
    require_holds(_quotient_holds(basis, qmap), "archimedean_quotient", space)
    return quotient, qmap


def _quotient_holds(basis: Sequence, qmap: UnitalMap) -> bool:
    """Whether qmap maps onto V/J, J = span(basis): q kills J with rank
    dim V - dim J = the target's dim, it is unital, the target cone is q(C)
    (its generators are images of generators, and q is positive), pointed.

    In integers, for q = M / d over one denominator: a vector is its
    coprime integer row with its positive scale in lowest terms, so the
    image of the generator s g, g coprime, is the row M g / h at the scale
    h s / d, h the gcd of M g, and a target generator is its own integer
    row at its own scale."""
    mrows, d = _int_matrix(qmap.matrix)
    jb = [integerize(b) for b in basis]
    source, target = qmap.source.cone, qmap.target.cone
    images = set()
    for g, s in zip(int_vrep(source), vrep_scales(source) or repeat(1)):
        img = [idot(a, g) for a in mrows]
        h = gcd(*img)
        if h:
            p, q = h * s.numerator, d * s.denominator
            k = gcd(p, q)
            images.add((tuple([x // h for x in img]), p // k, q // k))
    gens = {(g, s.numerator, s.denominator) for g, s in zip(int_vrep(target), vrep_scales(target) or repeat(1))}
    return (
        not any(idot(a, b) for a in mrows for b in jb)
        and rank(mrows) == qmap.target.dim == qmap.source.dim - rank(jb)
        and qmap.unital
        and gens <= images
        and qmap.positive
        and _pointed(target)
    )


@dataclass(frozen=True)
class QuotientReport:
    is_quotient: bool
    lifts: dict | None = None  # (generator index, eps) -> positive lift
    witness: Vec | None = None  # target generator with no positive preimage
    separating: Vec | None = None


EPS_SCHEDULE = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def is_order_quotient(m: UnitalMap) -> QuotientReport:
    """Decide whether m is an order quotient map, by cone equality.

    A unital positive surjection is an order quotient when every target
    element w >= 0 has, for each eps > 0, a lift v with m(v) = w and
    v + eps e >= 0, that is, when w lies in the closure of the image of the
    source cone. By Minkowski-Weyl the image of a closed polyhedral cone is
    finitely generated, hence closed, so this holds exactly when that image
    equals the target cone, that is, when every target generator is a
    member of the image. A negative answer carries the first target
    generator outside the image with a separating functional. A positive
    one carries, for each target generator w, the combination v of the
    source generators behind the terms of w's conic decomposition over the
    image: m(v) = w and v >= 0, so v lifts w exactly and v + eps e >= 0 for
    every eps in EPS_SCHEDULE.
    """
    if not m.unital or not m.positive:
        raise InputError("order-quotient test requires a unital positive map")
    if rank(m.matrix) != m.target.dim:
        raise InputError("order-quotient test requires a surjective map")

    img = image_cone(m.source.cone, m.matrix)
    behind = _behind(m.source.cone, m.matrix)
    lifts = {}
    for i, w in enumerate(m.target.cone.vrep()):
        cert = member(img, w)
        if cert.verdict != "member":
            return QuotientReport(False, witness=vec(w), separating=cert.witness)
        v = _preimage(cert, behind, m.source.dim)
        for eps in EPS_SCHEDULE:
            lifts[(i, eps)] = v
    return QuotientReport(True, lifts=lifts)


# -- extension ---------------------------------------------------------------


def extend_unital_positive(
    w2: AOUSpace, w1_basis: Sequence, values: Sequence, v: AOUSpace
) -> UnitalMap:
    """Extend a unital positive map given on a subspace of w2 to all of w2.

    The map is specified by its values on a basis of the subspace, which must
    contain the unit of w2 (with value the unit of v). Feasibility is one
    exact LP over the matrix entries; with a simplicial target cone a
    solution always exists, and infeasibility (reported with the LP's
    refutation certificate) means the preconditions fail. `solve_lp`
    checks its solution by substitution, and that proves every claim: the
    equality rows are M b_i = y_i and M e = e', and the >= rows are
    a . (M g) >= 0 over every generator g of w2 and H-row a of v.
    """
    basis = [vec(b) for b in w1_basis]
    vals = [vec(x) for x in values]
    if len(basis) != len(vals):
        raise ShapeError("one value per basis vector required")
    for b in basis:
        if len(b) != w2.dim:
            raise ShapeError("subspace basis lives in the wrong dimension")
    for x in vals:
        if len(x) != v.dim:
            raise ShapeError("values live in the wrong dimension")
    unit_coeffs = (
        solve(Matrix.from_rows(basis).transpose(), w2.unit) if basis else None
    )
    if unit_coeffs is None:
        raise InputError("the subspace must contain the unit of the big space")
    if combine(unit_coeffs, vals, v.dim) != v.unit:
        raise InputError("the given map is not unital on the subspace")

    # over M's row-major entries: M x = y as kron_vec(e_r, x) = y_r for the
    # pairs, then the units, and a . (M g) = kron_vec(a, g) >= 0 for each
    # generator g of w2 (outer loop) and H-row a of v (inner loop)
    nw, nv = w2.dim, v.dim
    rows, rhs, senses = [], [], []
    for x, y in [*zip(basis, vals), (w2.unit, v.unit)]:
        for r in range(nv):
            rows.append(kron_vec(unit_vec(r, nv), x))
            rhs.append(y[r])
            senses.append(EQ)
    hrows = v.cone.hrep()
    for g in w2.cone.vrep():
        for a in hrows:
            rows.append(kron_vec(a, g))
            rhs.append(Fraction(0))
            senses.append(GE)
    out = solve_lp(zeros(nv * nw), rows, rhs, senses)
    if out.status != OPTIMAL:
        raise InputError(
            "no unital positive extension exists (target cone not simplicial?)",
            certificate=out.dual_certificate,
        )
    matrix = Matrix.from_rows(out.primal[r * nw : (r + 1) * nw] for r in range(nv))
    return UnitalMap(w2, v, matrix)


# -- functional geometry -------------------------------------------------------


def interval_min(space: AOUSpace, f) -> Fraction:
    """Exact minimum of the functional over the order interval [0, e]: the
    least value at a vertex of the polytope, the interval containing 0.
    A unit that is not an order unit, or a non-pointed cone, is bad input
    (InputError)."""
    c = _coeffs(space, f)
    return min(dot(c, p) for p in order_interval_vertices(space))


def dual_norm(space: AOUSpace, f) -> Fraction:
    """Norm of a functional against the order norm: max |f| on the unit
    ball, one vertex of each +- pair, since |f(-x)| = |f(x)|, compared in
    integers over the ball's rows; one Fraction is built, the result."""
    nums, den = common_den(_coeffs(space, f))
    best, best_den = 0, 1
    for x, t in _ball_half_rows(space):
        v = abs(idot(nums, x))
        if v * best_den > best * t:
            best, best_den = v, t
    return Fraction(best, best_den * den)


def norm_bound_equiv(space: AOUSpace, f, eps) -> bool:
    """Exact biconditional: ||f|| <= 2*eps + f(e) iff f >= -eps on [0, e].

    The dual-norm side is returned; the interval side holds with it. The
    unit ball is 2 [0, e] - e, and p -> e - p maps [0, e] onto itself, so
    ||f|| = 2 max f - f(e) over [0, e] = f(e) - 2 min f over [0, e].
    """
    c = _coeffs(space, f)
    return dual_norm(space, c) <= 2 * frac(eps) + dot(c, space.unit)


# -- operator norms and Auerbach bases ----------------------------------------


def operator_norm(m, source: AOUSpace | None = None, target: AOUSpace | None = None) -> Fraction:
    """Exact operator norm between order norms: the max of ||T x|| over the
    source ball vertices. The ball is symmetric and ||T(-x)|| = ||T x||, so
    one vertex of each +- pair is taken, half the order norms."""
    if isinstance(m, UnitalMap):
        source, target, mat = m.source, m.target, m.matrix
    else:
        mat = m
        if source is None or target is None:
            raise ShapeError("matrix form needs explicit source and target spaces")
    return max(
        (order_norm(target, mat.apply(x)) for x in unit_ball_half(source)),
        default=Fraction(0),
    )


AUERBACH_DIM_CAP = 6
# most determinants the scan over ball-vertex tuples may take (C(verts, dim))
AUERBACH_SCAN_CAP = 20_000


def auerbach_basis(space: AOUSpace) -> tuple[list[Vec], list[Vec]]:
    """A basis of unit vectors whose dual basis is also made of unit
    functionals, found by maximizing |det| over tuples of ball vertices.

    Flipping the sign of a vertex keeps |det|, and a tuple holding both x
    and -x has det 0, so the scan takes one vertex of each +- pair:
    C(n/2, dim) tuples for n ball vertices instead of C(n, dim). It reads
    the half in reverse sorted order, the order in which a scan of the
    reversed full ball first meets each pair, so ties break the same way.

    Biorthogonality and all 2*dim unit-norm identities are verified exactly
    before returning, with no order-norm LP: ||x_i|| <= 1 because
    |a . x_i| <= a . e on every cone row a, so e +- x_i >= 0, and
    ||x_i|| >= x_i*(x_i) / ||x_i*||* = 1 by biorthogonality and the dual
    norm check.
    """
    if space.dim > AUERBACH_DIM_CAP:
        raise SizeLimitError(f"auerbach_basis capped at dimension {AUERBACH_DIM_CAP}")
    half = _ball_half_rows(space)[::-1]
    scan = comb(len(half), space.dim)
    if scan > AUERBACH_SCAN_CAP:
        raise SizeLimitError(
            f"auerbach_basis: scan of C({len(half)}, {space.dim}) = {scan} determinants "
            f"exceeds AUERBACH_SCAN_CAP = {AUERBACH_SCAN_CAP}"
        )
    best = max_abs_det([x for x, _ in half], [t for _, t in half], space.dim)
    if best is None:
        raise InvariantViolation("ball vertices failed to span; space not validated?")
    basis = [unit_ball_half(space)[-1 - i] for i in best]
    duals = list(inverse(Matrix.from_rows(basis).transpose()).data)
    # in integers: x = x' / t and e = U / D
    unit, den = _int_unit(space)
    rows = [(a, idot(a, unit)) for a in int_hrep(space.cone)]
    for i, xd in zip(best, duals):
        x, t = half[i]
        if any(den * abs(idot(a, x)) > t * au for a, au in rows) or dual_norm(space, xd) != 1:
            raise InvariantViolation("Auerbach unit-norm identity failed")
        if any(dot(xd, half[j][0]) != (half[j][1] if j == i else 0) for j in best):
            raise InvariantViolation("Auerbach biorthogonality failed")
    return basis, duals


# -- perturbation toward positivity --------------------------------------------


def _min_l1_measure(space: AOUSpace, f: Vec) -> list[Fraction]:
    """Signed weights mu over the extreme states with sum mu_j s_j = f and
    minimal l1 mass; the minimum equals the dual norm of f.

    The dual of min sum |mu_j| subject to sum mu_j s_j = f is max f(x) over
    the unit ball {x : |s_j(x)| <= 1}, attained at a ball vertex x; the
    first one is taken. By complementary slackness a feasible mu is a
    minimizer exactly when mu_j > 0 only where s_j(x) = 1 and mu_j < 0 only
    where s_j(x) = -1, and a minimizer exists. So mu is read off one conic
    decomposition of f over the states that are +-1 at x, each taken with
    that sign. When the states number dim, they are a basis of the dual and
    mu is the one solution of sum mu_j s_j = f, so no decomposition is
    searched. The callers' checks, `_pert_holds` and `_perturb_holds`,
    read the norms the masses stand for off the dual norms.
    """
    states = extreme_states(space)
    if len(states) == space.dim:
        # the states are a basis of the dual, so mu is unique
        mu = solve(Matrix(tuple(zip(*states))), f)
        if mu is None:
            raise InvariantViolation("simplicial states must span the dual")
        return list(mu)
    nums, best = common_den(f)[0], None
    for x, t in _ball_rows(space):
        v = idot(nums, x)
        if best is None or v * best[2] > best[1] * t:
            best = x, v, t
    x, _, t = best
    # s(x / t) = D r . x / (s t) for the state r D / s, with e = U / D
    unit_den, pairs = _int_unit(space)[1], _int_states(space)
    vals = [(unit_den * idot(r, x), s * t) for r, s in pairs]
    signed = [(j, 1 if v > 0 else -1) for j, (v, st) in enumerate(vals) if abs(v) == st]
    # the generator sign * states[j] is the coprime row sign * r at scale D / s
    gens = tuple(tuple(sign * c for c in pairs[j][0]) for j, sign in signed)
    scales = _scales(Fraction(unit_den, pairs[j][1]) for j, _ in signed)
    cone = Cone(space.dim, generators=gens, scales=scales)
    cert = member(cone, f)
    if cert.verdict != "member":
        raise InvariantViolation("states span the dual; f must decompose at its maximizer")
    mu = [Fraction(0)] * len(states)
    for i, c in cert.decomposition:
        j, sign = signed[i]
        mu[j] = sign * c
    return mu


def _is_standard_linf(space: AOUSpace) -> bool:
    """Unit (1, .., 1) and the nonnegative orthant as cone, read off the
    cone's own rows, generators and closed inequality rows alike, since the
    orthant is its own dual: nonnegative rows give a cone inside the
    orthant, and then all of it exactly when each e_i is a positive
    multiple of a row, as nonnegative vectors combine to e_i only through
    multiples of e_i."""
    space.cone.require_closed("pert")
    rows = space.cone.rows
    if space.unit != (Fraction(1),) * space.dim or any(x < 0 for row in rows for x in row):
        return False
    # a coprime nonnegative integer row with one nonzero entry is some e_i
    return len({row.index(1) for row in rows if sum(row) == 1}) == space.dim


def pert(t: UnitalMap) -> UnitalMap:
    """Replace a unital map into coordinatewise-ordered Q^k by the nearest
    positive one obtained from componentwise positive parts.

    Each row of t is represented as a minimal-mass signed combination of
    source states; dropping the negative part and renormalizing gives a
    state again. The result S is unital positive with ||t - S|| <= ||t|| - 1
    exactly, and S = t whenever ||t|| = 1.

    The norm of a map into linf(k) is the largest dual norm of its rows, so
    ||t|| is the largest row mass sum |mu_j|, that row's dual norm, and
    ||t - S|| the largest dual norm of a row of t - S: no order-norm LP.
    `_pert_holds`, the check `verify` runs, checks the result and both
    norms before they are returned.
    """
    return _pert_with_norms(t)[0]


def _require_unital(t: UnitalMap, verb: str) -> None:
    if not t.unital:
        raise InputError(f"{verb} requires a unital map")


def _require_pert_input(t: UnitalMap) -> None:
    _require_unital(t, "pert")
    if not _is_standard_linf(t.target):
        raise InputError("pert target must carry the coordinatewise order with unit (1,..,1)")


def _pert_with_norms(t: UnitalMap) -> tuple[UnitalMap, Fraction, Fraction]:
    """pert plus the two norms its bound states: (S, ||t - S||, ||t||),
    checked by `_pert_holds`. That check also fixes maps of norm one: for
    ||t|| = 1 the bound forces ||t - S|| = 0, and the order norm is a norm,
    so S = t."""
    _require_pert_input(t)
    functionals = extreme_states(t.source)
    new_rows, masses = [], []
    for r in range(t.target.dim):
        mu = _min_l1_measure(t.source, t.matrix.row(r))
        masses.append(sum(map(abs, mu)))
        pos_mass = sum((x for x in mu if x > 0), Fraction(0))
        if pos_mass <= 0:
            raise InvariantViolation("unital row must carry positive mass")
        new_rows.append(combine([max(x, 0) / pos_mass for x in mu], functionals, t.source.dim))
    s_map = UnitalMap(t.source, t.target, Matrix.from_rows(new_rows))
    gap = _norm_into(t.source, map(vsub, t.matrix.data, s_map.matrix.data))
    tnorm = max(masses)
    require_holds(_pert_holds(t, s_map, gap, tnorm), "pert", t.source, t.target)
    return s_map, gap, tnorm


def _norm_into(source: AOUSpace, rows) -> Fraction:
    """The norm of a map into linf(k) given by its rows: the largest dual
    norm of a row."""
    return max((dual_norm(source, row) for row in rows), default=Fraction(0))


def _positive_rows(source: AOUSpace, rows) -> bool:
    """Whether every row is a positive functional: f >= 0 on the cone
    exactly when ||f||* = f(e), since 0 <= x <= r e puts x - r e / 2 in
    the ball of radius r / 2, and -r e <= x <= r e bounds |f(x)| by
    f(e) r for positive f."""
    return all(dual_norm(source, f) == dot(f, source.unit) for f in rows)


def _pert_holds(t: UnitalMap, s_map: UnitalMap, distance: Fraction, norm: Fraction) -> bool:
    """Whether a pert result (S, ||t - S||, ||t||) holds for t: S unital
    and positive, row by row, the two norms exact as the largest dual norms
    of the rows of t and t - S, and ||t - S|| <= ||t|| - 1. Every test
    reads dual norms over the unit ball: no measure is decomposed and no
    cone is compared."""
    _require_pert_input(t)
    gap = _norm_into(t.source, map(vsub, t.matrix.data, s_map.matrix.data))
    return (
        s_map.unital
        and _positive_rows(t.source, s_map.matrix.data)
        and norm == _norm_into(t.source, t.matrix.data)
        and distance == gap
        and gap <= norm - 1
    )


def perturb(t: UnitalMap) -> tuple[UnitalMap, Fraction]:
    """Positive correction of a unital map into any polyhedral AOU target.

    Push the target into its state-evaluation copy of linf, apply pert
    there, and absorb the gap by adding (gap * total-variation functional)
    times the target unit. Returns (S, bound) with S positive and
    ||t - S|| <= dim(source) * (||t|| - 1) = bound, exactly.

    The Kadison embedding is isometric, so ||t|| equals the norm of the
    pushed map tp that pert computes; its ||tp - pert(tp)|| is the gap.
    `_perturb_holds`, the check `verify` runs, checks S, the bound and
    ||t|| before they are returned: no order-norm LP.
    """
    return _perturb_with_norm(t)[:2]


def _perturb_with_norm(t: UnitalMap) -> tuple[UnitalMap, Fraction, Fraction]:
    """perturb plus the norm it computes: (S, bound, ||t||), checked by
    `_perturb_holds`."""
    _require_unital(t, "perturb")
    from .spaces import kadison_embed

    emb = kadison_embed(t.target)
    tp = UnitalMap(t.source, emb.target, emb.matrix @ t.matrix)
    _, gap, tnorm = _pert_with_norms(tp)
    _, duals = auerbach_basis(t.source)
    states = extreme_states(t.source)
    # the sum of the total-variation functionals: each state weighs its total mass
    measures = [_min_l1_measure(t.source, xd) for xd in duals]
    mass = [sum(abs(mu[i]) for mu in measures) for i in range(len(states))]
    tv_total = combine(mass, states, t.source.dim)
    s_rows = [
        combine((1, gap * t.target.unit[r]), (t.matrix.row(r), tv_total), t.source.dim)
        for r in range(t.target.dim)
    ]
    s_map = UnitalMap(t.source, t.target, Matrix.from_rows(s_rows))
    bound = t.source.dim * (tnorm - 1)
    require_holds(_perturb_holds(t, s_map, bound, tnorm), "perturb", t.source, t.target)
    return s_map, bound, tnorm


def _perturb_holds(t: UnitalMap, s_map: UnitalMap, bound: Fraction, norm: Fraction) -> bool:
    """Whether a perturb result (S, bound, ||t||) holds for t: S positive,
    ||t|| exact, bound = dim(source) (||t|| - 1) and ||t - S|| <= bound.
    Composed with the Kadison embedding of the target, a map keeps its
    norm and its positivity, so each claim is read off the functionals
    g o t, g o S and g o (t - S) over the target's extreme states g."""
    _require_unital(t, "perturb")
    evaluate = Matrix.from_rows(extreme_states(t.target))
    diff = Matrix.from_rows(map(vsub, t.matrix.data, s_map.matrix.data))
    return (
        _positive_rows(t.source, (evaluate @ s_map.matrix).data)
        and norm == _norm_into(t.source, (evaluate @ t.matrix).data)
        and bound == t.source.dim * (norm - 1)
        and _norm_into(t.source, (evaluate @ diff).data) <= bound
    )
