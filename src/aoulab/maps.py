"""Linear maps between AOU spaces and the constructions built from them.

The map-level toolkit: unitality/positivity/embedding/isometry checks (a
unital map's isometry flag is its embedding flag, a non-unital map's one
cone equality between dual balls), order ideals and their quotients,
order-quotient recognition by cone equality, unital positive extension by
LP feasibility, the order-interval minimum and the norm-bound
biconditional for functionals, Auerbach bases from ball vertices, and the
two perturbation constructions that turn a unital map with norm close to 1
into a nearby positive map, with exact bounds.  Each verdict is decided by
one route; the tests keep the second routes as oracles.

Everything here reduces to vertex enumerations and cone equality or
membership, plus one exact LP: the extension's feasibility.  The witness
of a non-ideal, the lifts of an order quotient and the minimal measures
behind the perturbations are read off verified conic decompositions.  The
order-norm LPs are left to `operator_norm` alone: the perturbations read
their norms off their own minimal measures and row dual norms, and the
Auerbach basis its unit norms off the cone rows and its dual basis.  No
numeric tolerance appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Sequence

from .cones import Cone, _cached, close_and_lineality, contains, image_cone, int_hrep, member, same_cone
from .errors import InputError, InvariantViolation, ShapeError, SizeLimitError, require_holds
from .linalg import (
    Matrix,
    Vec,
    combine,
    common_den,
    dot,
    frac,
    idot,
    inverse,
    is_zero_vec,
    kron_vec,
    max_abs_det,
    quotient_matrix,
    rank,
    solve,
    unit_vec,
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
    archimedeanize,
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
        return contains(self.target.cone, image_cone(self.source.cone, self.matrix))

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
    """{v : m(v) in target cone}, as inequality rows pulled through m."""
    mt = m.matrix.transpose()
    rows = [mt.apply(a) for a in m.target.cone.hrep()]
    return Cone.from_inequalities(rows, dim=m.source.dim)


def _is_isometry(m: UnitalMap) -> bool:
    """Exact isometry test through dual balls, with no LP.

    The dual ball of the order norm is the convex hull of +-(extreme
    states) (Paulsen & Tomforde, Vector spaces with an order unit, 2009), and
    that of the pulled-back seminorm v -> ||m(v)|| is the hull of +-(g o m)
    over extreme target states. Two seminorms agree iff their dual balls
    do, so m is an isometry iff the hulls are equal: one cone equality
    between their height-1 lifts, the cones generated by the (p, 1).
    """
    mt = m.matrix.transpose()

    def lifted_hull(points: list[Vec]) -> Cone:
        lifts = [p + (1,) for q in points for p in (q, tuple(-x for x in q))]
        return Cone.from_generators(lifts, dim=m.source.dim + 1)

    pulled = [mt.apply(g.functional) for g in extreme_states(m.target)]
    source = [f.functional for f in extreme_states(m.source)]
    return same_cone(lifted_hull(pulled), lifted_hull(source))


def check_map(m: UnitalMap) -> MapReport:
    """Unital / positive / order-embedding / isometry flags, all exact.

    The embedding test compares the pullback cone with the source cone. A
    unital map is an isometry for the order norms exactly when it is an
    order embedding: ||v|| <= r means r e +- v >= 0, which a unital order
    embedding carries both ways, and v >= 0 exactly when ||r e - v|| <= r
    for r = ||v|| (Paulsen & Tomforde, Vector spaces with an order unit,
    2009), which a unital isometry carries both ways. So only non-unital
    maps take the dual-ball isometry test.
    """
    unital = m.unital
    positive = m.positive
    embedding = same_cone(_pullback_cone(m), m.source.cone)
    isometry = embedding if unital else _is_isometry(m)
    return MapReport(unital, positive, embedding, isometry)


# -- order ideals and quotients ----------------------------------------------


@dataclass(frozen=True)
class IdealReport:
    is_ideal: bool
    witness: tuple[Vec, Vec] | None = None  # (p, q): 0 <= q <= p, p in J, q not


def _in_span(basis: Sequence[Vec], v: Vec) -> bool:
    if not basis:
        return is_zero_vec(v)
    return solve(Matrix.from_rows(basis).transpose(), v) is not None


def is_order_ideal(space: AOUSpace, basis: Sequence) -> IdealReport:
    """Decide whether span(basis) is an order ideal: p in J and 0 <= q <= p
    force q in J.

    Equivalent cone form: every generator of cone /\\ (J - cone) must lie in
    J. Checking only positive elements of J would be unsound without a
    decomposition property, so the intersection cone is computed in full.
    A generator q outside J is the witness's q. It lies in J - cone, so its
    conic decomposition over +-basis and the negated cone generators splits
    it as q = p - c: the +-basis terms sum to p in J, and p - q = c lies in
    the cone.
    """
    space.cone.require_polyhedral("is_order_ideal")
    jb = [vec(b) for b in basis]
    for b in jb:
        if len(b) != space.dim:
            raise ShapeError("ideal basis vector of wrong length")
    jb = [b for b in jb if not is_zero_vec(b)]
    # J - cone as generators: +-basis and negated cone generators
    down_gens = [x for b in jb for x in (b, tuple(-y for y in b))]
    down_gens += [tuple(-x for x in g) for g in space.cone.vrep()]
    down = Cone.from_generators(down_gens, dim=space.dim)
    meet_rows = list(space.cone.hrep()) + list(down.hrep())
    meet = Cone.from_inequalities(meet_rows, dim=space.dim)
    for q in meet.vrep():
        if not _in_span(jb, q):
            cert = member(down, q)
            if cert.verdict != "member":
                raise InvariantViolation("meet-cone generator has no dominating ideal element")
            terms = [(i, c) for i, c in cert.decomposition if i < 2 * len(jb)]
            p = combine([c for _, c in terms], [down_gens[i] for i, _ in terms], space.dim)
            return IdealReport(False, witness=(p, q))
    return IdealReport(True)


def archimedean_quotient(space: AOUSpace, basis: Sequence) -> tuple[AOUSpace, UnitalMap]:
    """Quotient by an order ideal: project, then Archimedeanize the image.

    The returned map is unital, positive and surjective onto a validated
    space. Raises when the basis does not span an order ideal (with the
    (p, q) witness attached) or when the ideal swallows the unit.
    """
    report = is_order_ideal(space, basis)
    if not report.is_ideal:
        raise InputError("not an order ideal", certificate=report.witness)
    jb = [vec(b) for b in basis]
    jb = [b for b in jb if not is_zero_vec(b)]
    # reduce to an independent spanning set
    independent: list[Vec] = []
    for b in jb:
        if rank(Matrix.from_rows(independent + [b])) == len(independent) + 1:
            independent.append(b)
    if _in_span(independent, space.unit):
        raise InputError("order ideal contains the unit; quotient collapses")
    proj = quotient_matrix(independent, space.dim)
    closed, _ = close_and_lineality(space.cone)
    mid = AOUSpace(
        proj.rows,
        image_cone(closed, proj),
        proj.apply(space.unit),
        label=f"{space.label}/J" if space.label else "",
    )
    arch, q2 = archimedeanize(mid)
    full = q2 @ proj
    qmap = UnitalMap(space, arch, full)
    if not qmap.unital or not qmap.positive or rank(full) != arch.dim:
        raise InvariantViolation("quotient map must be unital positive surjective")
    return arch, qmap


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

    closed_src, _ = close_and_lineality(m.source.cone)
    img = image_cone(closed_src, m.matrix)
    # the source generators behind img's, dropping zero images as image_cone does
    behind = [g for g in closed_src.vrep() if not is_zero_vec(m.matrix.apply(g))]
    lifts = {}
    for i, w in enumerate(m.target.cone.vrep()):
        cert = member(img, w)
        if cert.verdict != "member":
            return QuotientReport(False, witness=vec(w), separating=cert.witness)
        terms = cert.decomposition
        v = combine([c for _, c in terms], [behind[j] for j, _ in terms], m.source.dim)
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
    refutation certificate) means the preconditions fail.
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
    ext = UnitalMap(w2, v, matrix)
    if not ext.unital or not ext.positive:
        raise InvariantViolation("extension LP returned a non-solution")
    return ext


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

    Both sides are computed independently and must agree; the common truth
    value is returned.
    """
    c = _coeffs(space, f)
    eps = frac(eps)
    lhs = dual_norm(space, c) <= 2 * eps + dot(c, space.unit)
    rhs = interval_min(space, c) >= -eps
    if lhs != rhs:
        raise InvariantViolation(
            f"norm bound biconditional split: norm side {lhs}, interval side {rhs}"
        )
    return lhs


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
    # in integers: x = x' / t, e = U / D and x* = n / d
    unit, den = common_den(space.unit)
    rows = [(a, idot(a, unit)) for a in int_hrep(space.cone)]
    for i, xd in zip(best, duals):
        (x, t), (n, d) = half[i], common_den(xd)
        if any(den * abs(idot(a, x)) > t * au for a, au in rows) or dual_norm(space, xd) != 1:
            raise InvariantViolation("Auerbach unit-norm identity failed")
        if any(idot(n, half[j][0]) != (d * half[j][1] if j == i else 0) for j in best):
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
    that sign, and its mass is checked to be f(x). When the states number
    dim, they are a basis of the dual and mu is the one solution of
    sum mu_j s_j = f, so no decomposition is searched.
    """
    states = extreme_states(space)
    nums, den = common_den(f)
    best = None
    for x, t in _ball_rows(space):
        v = idot(nums, x)
        if best is None or v * best[2] > best[1] * t:
            best = x, v, t
    x, fx, t = best
    if len(states) == space.dim:
        # the states are a basis of the dual, so mu is unique
        mu = solve(Matrix(tuple(zip(*(s.functional for s in states)))), f)
        if mu is None:
            raise InvariantViolation("simplicial states must span the dual")
    else:
        # s(x / t) = D r . x / (s t) for the state r D / s, with e = U / D
        unit_den = common_den(space.unit)[1]
        vals = [(unit_den * idot(r, x), s * t) for r, s in _int_states(space)]
        signed = [(j, 1 if v > 0 else -1) for j, (v, st) in enumerate(vals) if abs(v) == st]
        gens = [states[j].functional for j, _ in signed]
        cone = Cone.from_generators(
            [vscale(-1, g) if sign < 0 else g for g, (_, sign) in zip(gens, signed)], dim=space.dim
        )
        cert = member(cone, f)
        if cert.verdict != "member":
            raise InvariantViolation("states span the dual; f must decompose at its maximizer")
        mu = [Fraction(0)] * len(states)
        for i, c in cert.decomposition:
            j, sign = signed[i]
            mu[j] = sign * c
    # the mass sum |mu_j| is mu . sign(mu)
    if dot(mu, [(m > 0) - (m < 0) for m in mu]) != Fraction(fx, t * den):
        raise InvariantViolation("the measure must have the dual norm as its mass")
    return list(mu)


def _is_standard_linf(space: AOUSpace) -> bool:
    """Unit (1, .., 1) and the nonnegative orthant as cone, read off the
    cone's own rows, generators and closed inequality rows alike, since the
    orthant is its own dual: nonnegative rows give a cone inside the
    orthant, and then all of it exactly when each e_i is a positive
    multiple of a row, as nonnegative vectors combine to e_i only through
    multiples of e_i."""
    cone = space.cone
    cone.require_closed("pert")
    rows = cone.generators if cone.generators is not None else cone.inequalities
    if space.unit != (Fraction(1),) * space.dim or any(x < 0 for row in rows for x in row):
        return False
    axes = {next(i for i, x in enumerate(row) if x) for row in rows if sum(map(bool, row)) == 1}
    return len(axes) == space.dim


def pert(t: UnitalMap) -> UnitalMap:
    """Replace a unital map into coordinatewise-ordered Q^k by the nearest
    positive one obtained from componentwise positive parts.

    Each row of t is represented as a minimal-mass signed combination of
    source states; dropping the negative part and renormalizing gives a
    state again. The result S is unital positive with ||t - S|| <= ||t|| - 1
    exactly, and S = t whenever ||t|| = 1.

    The norm of a map into linf(k) is the largest dual norm of its rows, so
    ||t|| is the largest row mass sum |mu_j|, which `_min_l1_measure` checks
    to be that row's dual norm, and ||t - S|| the largest dual norm of a row
    of t - S: no order-norm LP. `_pert_holds`, the check `verify` runs,
    checks the result before it is returned.
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
    functionals = [s.functional for s in extreme_states(t.source)]
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
    tv_total = combine(mass, [s.functional for s in states], t.source.dim)
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
    evaluate = Matrix.from_rows(g.functional for g in extreme_states(t.target))
    diff = Matrix.from_rows(map(vsub, t.matrix.data, s_map.matrix.data))
    return (
        _positive_rows(t.source, (evaluate @ s_map.matrix).data)
        and norm == _norm_into(t.source, (evaluate @ t.matrix).data)
        and bound == t.source.dim * (norm - 1)
        and _norm_into(t.source, (evaluate @ diff).data) <= bound
    )
