"""Linear maps between AOU spaces and the constructions built from them.

The map-level toolkit: unitality/positivity/embedding/isometry checks (a
unital map's isometry flag is its embedding flag), order ideals and their
quotients, order-quotient recognition by cone equality, unital positive
extension by LP feasibility, the order-interval minimum and the norm-bound
biconditional for functionals, Auerbach bases from ball vertices, and the
two perturbation constructions that turn a unital map with norm close to 1
into a nearby positive map, with exact bounds.  Each verdict is decided by
one route; the tests keep the second routes as oracles.

Everything here reduces to exact LPs, vertex enumerations, and cone
membership; no numeric tolerance appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .cones import Cone, close_and_lineality, contains, image_cone, member, same_cone
from .errors import InputError, InvariantViolation, ShapeError, SizeLimitError
from .linalg import (
    Matrix,
    Vec,
    det,
    dot,
    inverse,
    is_zero_vec,
    rank,
    solve,
    unit_vec,
    vadd,
    vec,
    vscale,
    zeros,
)
from .lp import EQ, GE, OPTIMAL, solve_lp
from .spaces import (
    AOUSpace,
    archimedeanize,
    extreme_states,
    order_interval_vertices,
    order_norm,
    unit_ball_vertices,
)


@dataclass(frozen=True, eq=False)
class UnitalMap:
    """A linear map between AOU spaces; the flags are computed, not trusted,
    and cached on the frozen map."""

    source: AOUSpace
    target: AOUSpace
    matrix: Matrix
    _flags: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ShapeError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.dim}x{self.source.dim}"
            )

    @property
    def unital(self) -> bool:
        if "unital" not in self._flags:
            self._flags["unital"] = self.matrix.apply(self.source.unit) == self.target.unit
        return self._flags["unital"]

    @property
    def positive(self) -> bool:
        if "positive" not in self._flags:
            self._flags["positive"] = contains(
                self.target.cone, image_cone(self.source.cone, self.matrix)
            )
        return self._flags["positive"]

    def apply(self, v) -> Vec:
        return self.matrix.apply(vec(v))

    def compose(self, inner: "UnitalMap") -> "UnitalMap":
        if inner.target is not self.source and inner.target.dim != self.source.dim:
            raise ShapeError("composition dimension mismatch")
        return UnitalMap(inner.source, self.target, self.matrix @ inner.matrix)


@dataclass(frozen=True)
class Functional:
    """A linear functional on a space, kept with its space for norm queries."""

    space: AOUSpace
    coeffs: Vec

    def __call__(self, v) -> Fraction:
        return dot(self.coeffs, vec(v))


def _coeffs(space: AOUSpace, f) -> Vec:
    c = f.coeffs if isinstance(f, Functional) else vec(f)
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
    """Exact isometry test through dual balls.

    The dual ball of the pulled-back seminorm v -> ||m(v)|| is the convex
    hull of +-(g o m) over extreme target states; the map is an isometry iff
    that hull still contains every extreme source state (the reverse
    inclusion is automatic for unital positive maps).
    """
    mt = m.matrix.transpose()
    pulled = [mt.apply(g.functional) for g in extreme_states(m.target)]
    # the pulled-back dual ball may not fit inside the source dual ball when
    # m is not positive; both inclusions are needed in general
    if any(dual_norm(m.source, p) > 1 for p in pulled):
        return False
    points = pulled + [tuple(-x for x in p) for p in pulled]
    n = m.source.dim
    k = len(points)
    cols = Matrix.from_rows(points).transpose()
    for f in extreme_states(m.source):
        rows = [cols.row(i) for i in range(n)] + [(Fraction(1),) * k]
        rhs = list(f.functional) + [Fraction(1)]
        out = solve_lp(
            zeros(k), rows, rhs, [EQ] * (n + 1), bounds=[(0, None)] * k
        )
        if out.status != OPTIMAL:
            return False
    return True


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


def _in_span(basis: Sequence[Vec], v: Vec, dim: int) -> bool:
    if not basis:
        return is_zero_vec(v)
    return solve(Matrix.from_rows(basis).transpose(), v) is not None


def is_order_ideal(space: AOUSpace, basis: Sequence) -> IdealReport:
    """Decide whether span(basis) is an order ideal: p in J and 0 <= q <= p
    force q in J.

    Equivalent cone form: every generator of cone /\\ (J - cone) must lie in
    J. Checking only positive elements of J would be unsound without a
    decomposition property, so the intersection cone is computed in full.
    """
    space.cone.require_polyhedral("is_order_ideal")
    jb = [vec(b) for b in basis]
    for b in jb:
        if len(b) != space.dim:
            raise ShapeError("ideal basis vector of wrong length")
    jb = [b for b in jb if not is_zero_vec(b)]
    # J - cone as generators: +-basis and negated cone generators
    down_gens = []
    for b in jb:
        down_gens.append(b)
        down_gens.append(tuple(-x for x in b))
    down_gens += [tuple(-x for x in g) for g in space.cone.vrep()]
    down = Cone.from_generators(down_gens, dim=space.dim)
    meet_rows = list(space.cone.hrep()) + list(down.hrep())
    meet = Cone.from_inequalities(meet_rows, dim=space.dim)
    for q in meet.vrep():
        if not _in_span(jb, q, space.dim):
            p = _dominating_ideal_element(space, jb, q)
            return IdealReport(False, witness=(p, q))
    return IdealReport(True)


def _dominating_ideal_element(space: AOUSpace, jb: list[Vec], q: Vec) -> Vec:
    """Some p in J with p - q in the cone; exists whenever q in J - cone."""
    k = len(jb)
    rows = []
    rhs = []
    jt = Matrix.from_rows(jb).transpose() if jb else Matrix.zero(space.dim, 0)
    for a in space.cone.hrep():
        rows.append(tuple(dot(a, jt.col(j)) for j in range(k)))
        rhs.append(dot(a, q))
    out = solve_lp(zeros(k), rows, rhs, [GE] * len(rows))
    if out.status != OPTIMAL:
        raise InvariantViolation("meet-cone generator has no dominating ideal element")
    p = zeros(space.dim)
    for j in range(k):
        p = vadd(p, vscale(out.primal[j], jb[j]))
    return p


def _projection_along(space_dim: int, kernel_basis: list[Vec]) -> Matrix:
    """A surjection that kills exactly span(kernel_basis)."""
    basis = [list(b) for b in kernel_basis]
    for i in range(space_dim):
        cand = basis + [list(unit_vec(i, space_dim))]
        if rank(Matrix.from_rows(cand)) == len(cand):
            basis = cand
    if len(basis) != space_dim:
        raise InvariantViolation("kernel completion failed to reach a basis")
    b = Matrix.from_rows(basis).transpose()
    binv = inverse(b)
    return Matrix.from_rows(binv.data[len(kernel_basis):])


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
    if _in_span(independent, space.unit, space.dim):
        raise InputError("order ideal contains the unit; quotient collapses")
    proj = _projection_along(space.dim, independent)
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


def _lift_with_slack(m: UnitalMap, w: Vec, eps: Fraction) -> Vec | None:
    """Some v with m(v) = w and v + eps*e in the source cone, or None."""
    n = m.source.dim
    rows = list(m.matrix.data)
    rhs = list(w)
    senses = [EQ] * m.target.dim
    shift = vscale(eps, m.source.unit)
    for a in m.source.cone.hrep():
        rows.append(a)
        rhs.append(-dot(a, shift))
        senses.append(GE)
    out = solve_lp(zeros(n), rows, rhs, senses)
    return out.primal if out.status == OPTIMAL else None


def is_order_quotient(m: UnitalMap) -> QuotientReport:
    """Decide whether m is an order quotient map, by cone equality.

    A unital positive surjection is an order quotient when every target
    element w >= 0 has, for each eps > 0, a lift v with m(v) = w and
    v + eps e >= 0, that is, when w lies in the closure of the image of the
    source cone. By Minkowski-Weyl the image of a closed polyhedral cone is
    finitely generated, hence closed, so this holds exactly when that image
    equals the target cone. A positive answer carries the lifts for each
    target generator and eps in EPS_SCHEDULE; a negative one carries a
    target generator outside the image with a separating functional.
    """
    if not m.unital or not m.positive:
        raise InputError("order-quotient test requires a unital positive map")
    if rank(m.matrix) != m.target.dim:
        raise InputError("order-quotient test requires a surjective map")

    closed_src, _ = close_and_lineality(m.source.cone)
    img = image_cone(closed_src, m.matrix)
    if not contains(img, m.target.cone):  # img inside the target is automatic
        for w in m.target.cone.vrep():
            cert = member(img, w)
            if cert.verdict != "member":
                return QuotientReport(False, witness=vec(w), separating=cert.witness)
        raise InvariantViolation("cone inequality without a missing generator")
    lifts = {}
    for i, w in enumerate(m.target.cone.vrep()):
        for eps in EPS_SCHEDULE:
            v = _lift_with_slack(m, vec(w), eps)
            if v is None:
                raise InvariantViolation("lift LP infeasible although cones are equal")
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
    implied = zeros(v.dim)
    for c, x in zip(unit_coeffs, vals):
        implied = vadd(implied, vscale(c, x))
    if implied != v.unit:
        raise InputError("the given map is not unital on the subspace")

    nw, nv = w2.dim, v.dim
    nvars = nv * nw  # matrix entries, row major

    def entry(rr, cc):
        return rr * nw + cc

    rows, rhs, senses = [], [], []
    for b, val in zip(basis, vals):
        for r in range(nv):
            row = [Fraction(0)] * nvars
            for c in range(nw):
                row[entry(r, c)] = b[c]
            rows.append(tuple(row))
            rhs.append(val[r])
            senses.append(EQ)
    for r in range(nv):
        row = [Fraction(0)] * nvars
        for c in range(nw):
            row[entry(r, c)] = w2.unit[c]
        rows.append(tuple(row))
        rhs.append(v.unit[r])
        senses.append(EQ)
    vrows = v.cone.hrep()
    for g in w2.cone.vrep():
        for a in vrows:
            row = [Fraction(0)] * nvars
            for r in range(nv):
                if a[r] == 0:
                    continue
                for c in range(nw):
                    row[entry(r, c)] += a[r] * g[c]
            rows.append(tuple(row))
            rhs.append(Fraction(0))
            senses.append(GE)
    out = solve_lp(zeros(nvars), rows, rhs, senses)
    if out.status != OPTIMAL:
        raise InputError(
            "no unital positive extension exists (target cone not simplicial?)",
            certificate=out.dual_certificate,
        )
    matrix = Matrix.from_rows(
        [[out.primal[entry(r, c)] for c in range(nw)] for r in range(nv)]
    )
    ext = UnitalMap(w2, v, matrix)
    if not ext.unital or not ext.positive:
        raise InvariantViolation("extension LP returned a non-solution")
    return ext


# -- functional geometry -------------------------------------------------------


def interval_min(space: AOUSpace, f) -> Fraction:
    """Exact minimum of the functional over the order interval [0, e]: the
    least value at a vertex of the polytope, the interval containing 0.
    A non-pointed cone makes the interval unbounded (InputError)."""
    c = _coeffs(space, f)
    return min(dot(c, p) for p in order_interval_vertices(space))


def dual_norm(space: AOUSpace, f) -> Fraction:
    """Norm of a functional against the order norm: max |f| on the unit ball."""
    c = _coeffs(space, f)
    return max((abs(dot(c, x)) for x in unit_ball_vertices(space)), default=Fraction(0))


def norm_bound_equiv(space: AOUSpace, f, eps) -> bool:
    """Exact biconditional: ||f|| <= 2*eps + f(e) iff f >= -eps on [0, e].

    Both sides are computed independently and must agree; the common truth
    value is returned.
    """
    c = _coeffs(space, f)
    eps = Fraction(eps)
    lhs = dual_norm(space, c) <= 2 * eps + dot(c, space.unit)
    rhs = interval_min(space, c) >= -eps
    if lhs != rhs:
        raise InvariantViolation(
            f"norm bound biconditional split: norm side {lhs}, interval side {rhs}"
        )
    return lhs


# -- operator norms and Auerbach bases ----------------------------------------


def operator_norm(m, source: AOUSpace | None = None, target: AOUSpace | None = None) -> Fraction:
    """Exact operator norm between order norms: max over source ball vertices."""
    if isinstance(m, UnitalMap):
        source, target, mat = m.source, m.target, m.matrix
    else:
        mat = m
        if source is None or target is None:
            raise ShapeError("matrix form needs explicit source and target spaces")
    return max(
        (order_norm(target, mat.apply(x)) for x in unit_ball_vertices(source)),
        default=Fraction(0),
    )


AUERBACH_DIM_CAP = 6
# most determinants the scan over ball-vertex tuples may take (C(verts, dim))
AUERBACH_SCAN_CAP = 20_000


def auerbach_basis(space: AOUSpace) -> tuple[list[Vec], list[Vec]]:
    """A basis of unit vectors whose dual basis is also made of unit
    functionals, found by maximizing |det| over tuples of ball vertices.

    Biorthogonality and all 2*dim unit-norm identities are verified exactly
    before returning.
    """
    if space.dim > AUERBACH_DIM_CAP:
        raise SizeLimitError(f"auerbach_basis capped at dimension {AUERBACH_DIM_CAP}")
    verts = list(reversed(unit_ball_vertices(space)))
    scan = comb(len(verts), space.dim)
    if scan > AUERBACH_SCAN_CAP:
        raise SizeLimitError(
            f"auerbach_basis: scan of C({len(verts)}, {space.dim}) = {scan} determinants "
            f"exceeds AUERBACH_SCAN_CAP = {AUERBACH_SCAN_CAP}"
        )
    best = None
    best_abs = Fraction(0)
    for tup in combinations(verts, space.dim):
        d = abs(det(Matrix.from_rows(tup)))
        if d > best_abs:
            best_abs = d
            best = tup
    if best is None or best_abs == 0:
        raise InvariantViolation("ball vertices failed to span; space not validated?")
    basis = [vec(x) for x in best]
    duals = list(inverse(Matrix.from_rows(basis).transpose()).data)
    for i, (x, xd) in enumerate(zip(basis, duals)):
        if order_norm(space, x) != 1 or dual_norm(space, xd) != 1:
            raise InvariantViolation("Auerbach unit-norm identity failed")
        for j, y in enumerate(basis):
            if dot(xd, y) != (1 if i == j else 0):
                raise InvariantViolation("Auerbach biorthogonality failed")
    return basis, duals


# -- perturbation toward positivity --------------------------------------------


def _min_l1_measure(states: list, f: Vec) -> list[Fraction]:
    """Signed weights mu over the states with sum mu_j f_j = f and minimal
    l1 mass; the minimum equals the dual norm of f."""
    k = len(states)
    n = len(f)
    rows = []
    for i in range(n):
        rows.append(
            tuple(s.functional[i] for s in states) + tuple(-s.functional[i] for s in states)
        )
    out = solve_lp(
        (Fraction(1),) * (2 * k),
        rows,
        list(f),
        [EQ] * n,
        bounds=[(0, None)] * (2 * k),
    )
    if out.status != OPTIMAL:
        raise InvariantViolation("states span the dual; the measure LP cannot fail")
    return [out.primal[j] - out.primal[k + j] for j in range(k)]


def _is_standard_linf(space: AOUSpace) -> bool:
    return space.unit == (Fraction(1),) * space.dim and same_cone(
        space.cone, Cone.from_generators([unit_vec(i, space.dim) for i in range(space.dim)])
    )


def pert(t: UnitalMap) -> UnitalMap:
    """Replace a unital map into coordinatewise-ordered Q^k by the nearest
    positive one obtained from componentwise positive parts.

    Each row of t is represented as a minimal-mass signed combination of
    source states; dropping the negative part and renormalizing gives a
    state again. The result S is unital positive with ||t - S|| <= ||t|| - 1
    exactly, and S = t whenever ||t|| = 1.
    """
    return _pert_with_norms(t)[0]


def _pert_with_norms(t: UnitalMap) -> tuple[UnitalMap, Fraction, Fraction]:
    """pert plus the two norms its bound check computes: (S, ||t - S||, ||t||)."""
    if not t.unital:
        raise InputError("pert requires a unital map")
    if not _is_standard_linf(t.target):
        raise InputError("pert target must carry the coordinatewise order with unit (1,..,1)")
    states = extreme_states(t.source)
    new_rows = []
    for r in range(t.target.dim):
        mu = _min_l1_measure(states, t.matrix.row(r))
        pos_mass = sum((x for x in mu if x > 0), Fraction(0))
        if pos_mass <= 0:
            raise InvariantViolation("unital row must carry positive mass")
        row = zeros(t.source.dim)
        for x, s in zip(mu, states):
            if x > 0:
                row = vadd(row, vscale(x / pos_mass, s.functional))
        new_rows.append(row)
    s_map = UnitalMap(t.source, t.target, Matrix.from_rows(new_rows))
    if not s_map.unital or not s_map.positive:
        raise InvariantViolation("pert output must be unital positive")
    gap = operator_norm(
        Matrix.from_rows(
            [vadd(t.matrix.row(r), vscale(Fraction(-1), s_map.matrix.row(r))) for r in range(t.target.dim)]
        ),
        t.source,
        t.target,
    )
    tnorm = operator_norm(t)
    if gap > tnorm - 1:
        raise InvariantViolation(f"pert bound violated: ||t-S|| = {gap} > {tnorm - 1}")
    if tnorm == 1 and s_map.matrix.data != t.matrix.data:
        raise InvariantViolation("pert must fix maps of norm one")
    return s_map, gap, tnorm


def perturb(t: UnitalMap) -> tuple[UnitalMap, Fraction]:
    """Positive correction of a unital map into any polyhedral AOU target.

    Push the target into its state-evaluation copy of linf, apply pert
    there, and absorb the gap by adding (gap * total-variation functional)
    times the target unit. Returns (S, bound) with S positive and
    ||t - S|| <= dim(source) * (||t|| - 1) = bound, exactly.

    The Kadison embedding is isometric, so ||t|| equals the norm of the
    pushed map tp that pert computes; its ||tp - pert(tp)|| is the gap.
    """
    return _perturb_with_norm(t)[:2]


def _perturb_with_norm(t: UnitalMap) -> tuple[UnitalMap, Fraction, Fraction]:
    """perturb plus the norm it computes: (S, bound, ||t||)."""
    if not t.unital:
        raise InputError("perturb requires a unital map")
    from .spaces import kadison_embed

    emb = kadison_embed(t.target)
    tp = UnitalMap(t.source, emb.target, emb.matrix @ t.matrix)
    _, gap, tnorm = _pert_with_norms(tp)
    _, duals = auerbach_basis(t.source)
    states = extreme_states(t.source)
    tv_total = zeros(t.source.dim)  # sum of the total-variation functionals
    for xd in duals:
        mu = _min_l1_measure(states, xd)
        for x, s in zip(mu, states):
            tv_total = vadd(tv_total, vscale(abs(x), s.functional))
    s_rows = [
        vadd(t.matrix.row(r), vscale(gap * t.target.unit[r], tv_total))
        for r in range(t.target.dim)
    ]
    s_map = UnitalMap(t.source, t.target, Matrix.from_rows(s_rows))
    if not s_map.positive:
        raise InvariantViolation("perturb output must be positive")
    bound = t.source.dim * (tnorm - 1)
    diff = Matrix.from_rows(
        [
            vadd(t.matrix.row(r), vscale(Fraction(-1), s_map.matrix.row(r)))
            for r in range(t.target.dim)
        ]
    )
    if operator_norm(diff, t.source, t.target) > bound:
        raise InvariantViolation("perturb bound violated")
    return s_map, bound, tnorm
