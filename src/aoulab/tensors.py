"""Injective (epsilon) and projective (pi) tensor cones on ordered spaces.

The epsilon cone is cut out by the product functionals f (x) g over extreme
state pairs; the pi cone is generated by products of positive elements.  Both
realized spaces carry the product unit e_V (x) e_W.  Coordinates are row-major,
the convention of `linalg.kron_vec`: the (i, j) basis tensor lands at index
i * dim_W + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cones import (
    Certificate, Cone, _cached, _scales, dual, extreme_rays, int_hrep, int_vrep, is_simplicial, member,
    vrep_scales,
)
from .dd import _reduce
from .errors import InputError, InvariantViolation, ShapeError, SizeLimitError, require_holds
from .linalg import (
    Matrix,
    Vec,
    combine,
    dot,
    frac,
    idot,
    integerize,
    inverse,
    kron_vec,
    max_abs_det,
    rank,
    vadd,
    vec,
    vscale,
    vsub,
    zeros,
)
from .lp import GE, OPTIMAL, solve_lp
from .maps import UnitalMap
from .spaces import (
    AOUSpace,
    _int_states,
    _int_unit,
    _require_order_unit,
    extreme_states,
    linf,
    unit_ball_half,
    unit_ball_vertices,
)

EPSILON = "epsilon"
PI = "pi"

# most d x d determinants the seed scan of factorize may take (C(states, d))
FACTORIZE_SCAN_CAP = 20_000
# most entries (rows x columns, in the LP's standard form) of one defect LP:
# lin_space(3)'s largest is 57 x 101 = 5 757, while a 4-dim space with 8
# states poses 271 x 291 = 78 861 at its first step (308 x 337 posed over
# psi's entries, where it ran for minutes)
FACTORIZE_LP_CAP = 50_000


@dataclass(eq=False)
class TensorElement:
    """An element of V (x) W, stored as a dim_V x dim_W coefficient matrix."""

    left: AOUSpace
    right: AOUSpace
    coeffs: Matrix

    def __post_init__(self) -> None:
        if self.coeffs.rows != self.left.dim or self.coeffs.cols != self.right.dim:
            raise ShapeError(
                f"coefficient matrix is {self.coeffs.rows}x{self.coeffs.cols}, "
                f"expected {self.left.dim}x{self.right.dim}"
            )

    def flatten(self) -> Vec:
        return tuple(x for row in self.coeffs.data for x in row)

    @classmethod
    def from_flat(cls, left: AOUSpace, right: AOUSpace, flat: Vec) -> "TensorElement":
        flat = vec(flat)
        if len(flat) != left.dim * right.dim:
            raise ShapeError("flattened tensor has the wrong length")
        rows = [
            flat[i * right.dim : (i + 1) * right.dim] for i in range(left.dim)
        ]
        return cls(left, right, Matrix.from_rows(rows))

    @classmethod
    def simple(cls, left: AOUSpace, right: AOUSpace, v: Vec, w: Vec) -> "TensorElement":
        v, w = vec(v), vec(w)
        return cls(left, right, Matrix.from_rows([[x * y for y in w] for x in v]))


@dataclass(frozen=True, eq=False)
class TensorSpace:
    left: AOUSpace
    right: AOUSpace
    kind: str
    realized: AOUSpace


@_cached
def tensor_space(left: AOUSpace, right: AOUSpace, kind: str) -> TensorSpace:
    """The epsilon or pi tensor space of left and right, cached by left
    under (right, kind), so it lives as long as the left factor: a check
    reads the cone its construction built, and a certificate
    `member_tensor` gave verifies against it with the same generator and
    row indices.

    The epsilon cone is cut out by the products f (x) g of extreme states,
    the pi cone generated by the products v (x) w of cone generators. Both
    are AOU spaces with unit e_V (x) e_W. The one check is on the
    factors, in `_require_tensor_factors`: closed pointed cones, whose
    states pass the order-unit gate `_require_order_unit`. The proofs rest
    on what that gate tests, every nonzero factor H-row positive on its
    unit, which by Gordan's theorem puts the unit in the interior of a
    full-dimensional cone. Epsilon: the rows f (x) g are closed, span the
    dual, as each factor's extreme states span its own, and pair to
    f(e) g(e) = 1 with the unit. Pi: finitely generated, hence closed;
    (sum f) (x) (sum g) over the extreme states is positive on every
    nonzero generator v (x) w, so pi is pointed; and for r e_V +- v and
    s e_W +- w positive,

        (r e + v) (x) (s e + w) + (r e - v) (x) (s e - w) = 2 r s e (x) e + 2 v (x) w

    (and the same with w -> -w) puts r s e_V (x) e_W +- v (x) w in pi, so
    e_V (x) e_W is an order unit, as simple tensors span V (x) W.

    Both cones are built from integer rows in `kron_vec`'s layout: a
    product of coprime rows is coprime, as gcd_ij(a_i b_j) = gcd(a) gcd(b),
    at the product of their scales; the state r D / s is r at scale D / s."""
    if kind not in (EPSILON, PI):
        raise InputError(f"unknown tensor cone kind {kind!r}")
    _require_tensor_factors(left, right)
    dim = left.dim * right.dim
    if kind == EPSILON:
        lp, rp = _int_states(left), _int_states(right)
        den = _int_unit(left)[1] * _int_unit(right)[1]
        rows = tuple(tuple([x * y for x in f for y in g]) for f, _ in lp for g, _ in rp)
        scales = _scales(Fraction(den, s * t) for _, s in lp for _, t in rp)
        cone = Cone(dim, inequalities=rows, scales=scales)
    else:
        lg, rg = int_vrep(left.cone), int_vrep(right.cone)
        ls, rs = (vrep_scales(sp.cone) or (1,) * len(g) for sp, g in ((left, lg), (right, rg)))
        gens = tuple(tuple([x * y for x in v for y in w]) for v in lg for w in rg)
        cone = Cone(dim, generators=gens, scales=_scales(a * b for a in ls for b in rs))
    realized = AOUSpace(
        dim=dim,
        cone=cone,
        unit=kron_vec(left.unit, right.unit),
        label=f"{kind}({left.label},{right.label})",
    )
    return TensorSpace(left, right, kind, realized)


def member_tensor(ts: TensorSpace, z: TensorElement) -> Certificate:
    if z.left.dim != ts.left.dim or z.right.dim != ts.right.dim:
        raise ShapeError("tensor element does not match the tensor space")
    return member(ts.realized.cone, z.flatten())


def _require_tensor_factors(left: AOUSpace, right: AOUSpace) -> None:
    """What `tensor_space` asks of its factors: closed polyhedral cones,
    with extreme states, so pointed and with a unit past the order-unit
    gate `_require_order_unit`."""
    for sp in (left, right):
        sp.cone.require_closed("tensor cones")
    for sp in (left, right):
        _int_states(sp)


def tensor_map(s: UnitalMap, t: UnitalMap, kind: str) -> UnitalMap:
    """S (x) T between the kind's tensor spaces, for factors whose computed
    flags say unital and positive. It is unital, (S (x) T)(e (x) e) =
    Se (x) Te, and positive: on pi, v (x) w maps to the product Sv (x) Tw of
    positive elements; on epsilon, a target row f (x) g pulls back to
    (f o S) (x) (g o T), a product of positive functionals, hence a
    nonnegative combination of source rows f' (x) g'."""
    for m, name in ((s, "left"), (t, "right")):
        if not m.unital or not m.positive:
            raise InputError(f"{name} factor must be unital and positive")
    src = tensor_space(s.source, t.source, kind)
    tgt = tensor_space(s.target, t.target, kind)
    return UnitalMap(src.realized, tgt.realized, Matrix.kron(s.matrix, t.matrix))


def injective_banach_norm(z: TensorElement) -> Fraction:
    """Max of |(f (x) g)(z)| over extreme state pairs.

    This is the order norm of z in the epsilon tensor space: the epsilon
    cone is cut out by exactly these product functionals, and the order norm
    of an AOU space is the largest |s(z)| over its extreme states (Paulsen &
    Tomforde, Vector spaces with an order unit, 2009), which here are the
    normalized product states.  No epsilon space is built.
    """
    best = Fraction(0)
    coeffs_t = z.coeffs.transpose()
    for f in extreme_states(z.left):
        row = coeffs_t.apply(f)
        for g in extreme_states(z.right):
            best = max(best, abs(dot(row, g)))
    return best


@dataclass(frozen=True)
class Biorthogonal:
    """The extreme rays g_i of a simplicial cone, scaled to sum to the unit,
    and the states f_i with f_i(g_j) = delta_ij: every v is
    sum_i f_i(v) g_i, and v is positive exactly when each f_i(v) is."""

    rays: tuple[Vec, ...]
    states: tuple[Vec, ...]


@_cached
def _biorthogonal(space: AOUSpace) -> Biorthogonal:
    """The pair of a space whose cone is simplicial: the rows of the
    inverse of the ray matrix are biorthogonal to the rays, and the unit's
    coordinates in the ray basis scale both. A unit the order-unit gate
    `_require_order_unit` refuses is bad input; past it every coordinate
    is positive, as each row of the inverse is a facet row of the cone,
    positive on the interior point e."""
    _require_order_unit(space.cone, space)
    rays = extreme_rays(space.cone)
    try:
        duals = inverse(Matrix.from_rows(list(zip(*rays)))).data
    except ShapeError as exc:
        raise InvariantViolation("the extreme rays of a simplicial cone are not a basis") from exc
    alpha = [dot(h, space.unit) for h in duals]
    return Biorthogonal(
        tuple(vscale(a, g) for a, g in zip(alpha, rays)),
        tuple(vscale(1 / a, h) for a, h in zip(alpha, duals)),
    )


def _in_cone(rows, gens, v: Vec) -> bool:
    """v in the cone the rows cut out or, where rows is None, a positive
    multiple of one of gens: exact on the extreme rays of the cone gens
    generate, which biorthogonal rays and states are."""
    if rows is not None:
        return all(dot(a, v) >= 0 for a in rows)
    for g in gens:
        l = next((i for i, x in enumerate(g) if x), None)
        if l is not None and v[l] / g[l] > 0 and vscale(v[l] / g[l], g) == v:
            return True
    return False


def _biorthogonal_holds(space: AOUSpace, pair: Biorthogonal) -> bool:
    """Whether the pair proves the space's cone simplicial, with no double
    description: dim rays in the cone and dim positive functionals with
    f_i(g_j) = delta_ij, so every positive v is sum_i f_i(v) g_i with each
    f_i(v) >= 0. A pair of the wrong size is bad input."""
    cone, d = space.cone, space.dim
    cone.require_closed("nuclearity")
    if len(pair.rays) != d or len(pair.states) != d:
        raise ShapeError(f"{len(pair.rays)} rays and {len(pair.states)} states in dimension {d}")
    return (
        all(dot(f, g) == (i == j) for i, f in enumerate(pair.states) for j, g in enumerate(pair.rays))
        and all(_in_cone(cone.generators, cone.inequalities, f) for f in pair.states)
        and all(_in_cone(cone.inequalities, cone.generators, g) for g in pair.rays)
    )


@dataclass(frozen=True)
class NuclearityReport:
    nuclear: bool
    witness: TensorElement | None = None
    pi_certificate: Certificate | None = None
    epsilon_certificate: Certificate | None = None
    # nuclear: the simplicial factor, "left" or "right", and its pair
    factor: str | None = None
    biorthogonal: Biorthogonal | None = None


def is_nuclear_pairwise(left: AOUSpace, right: AOUSpace) -> NuclearityReport:
    """Exact equality test of the two tensor cones on left (x) right.

    pi = epsilon exactly when a factor is simplicial (Aubrun, Lami,
    Palazuelos & Plavala, Entangleability of cones, GAFA 31, 2021; Barker,
    Linear and Multilinear Algebra 4, 1976). The evidence for a simplicial
    factor V, left first, is its biorthogonal pair: each z in epsilon is
    sum_i g_i (x) (f_i (x) id) z, and each (f_i (x) id) z is positive, so
    no tensor cone is built.

    Otherwise the witness is the first extreme ray r of the epsilon cone,
    in its DD's order, parallel to no product generator: an epsilon
    extreme ray inside pi is a sum of pi generators, each then parallel to
    it. The sum s of the epsilon rows tight at r vanishes on epsilon only
    along r, so it is positive on every product generator p, and
    w = s - (delta / 2) u, for a row u positive at r and delta the least
    s.p / u.p over the p with u.p > 0, stays positive on them while
    w.r < 0. No facet of pi is built. `_nuclearity_holds`, the check
    `verify` runs, checks the report before it is returned.
    """
    _require_tensor_factors(left, right)
    for factor, sp in (("left", left), ("right", right)):
        if is_simplicial(sp.cone):
            report = NuclearityReport(True, factor=factor, biorthogonal=_biorthogonal(sp))
            break
    else:
        eps = tensor_space(left, right, EPSILON).realized.cone
        gens = int_vrep(tensor_space(left, right, PI).realized.cone)
        products = set(gens)
        ray = next((r for r in int_vrep(eps) if r not in products), None)
        if ray is None:
            raise InvariantViolation("every epsilon extreme ray is a product, yet no factor is simplicial")
        rows = int_hrep(eps)
        vals = [idot(a, ray) for a in rows]
        s = [sum(col) for col in zip(*(a for a, x in zip(rows, vals) if x == 0))]
        u = rows[next(i for i, x in enumerate(vals) if x > 0)]
        delta = min(Fraction(idot(s, p), idot(u, p)) for p in gens if idot(u, p) > 0)
        w = [2 * delta.denominator * x - delta.numerator * y for x, y in zip(s, u)]
        flat = vec(ray)
        report = NuclearityReport(
            nuclear=False,
            witness=TensorElement.from_flat(left, right, flat),
            pi_certificate=Certificate("non_member", "separating_functional", witness=vec(_reduce(w))),
            epsilon_certificate=member(eps, flat),
        )
    require_holds(_nuclearity_holds(left, right, report), "is_nuclear_pairwise", left, right)
    return report


def _nuclearity_holds(left: AOUSpace, right: AOUSpace, report: NuclearityReport) -> bool:
    """Whether the report's evidence proves its verdict, with no facet of pi.

    Nuclear: the named factor's biorthogonal pair (`_biorthogonal_holds`),
    with no double description. Not nuclear: the witness is in epsilon
    (row evaluation on the product-state rows) and out of pi (a functional
    nonnegative on every product generator).
    """
    if report.nuclear:
        for sp in (left, right):
            sp.cone.require_polyhedral("tensor cones")
        return _biorthogonal_holds(left if report.factor == "left" else right, report.biorthogonal)
    eps = tensor_space(left, right, EPSILON).realized.cone
    pi = tensor_space(left, right, PI).realized.cone
    flat = report.witness.flatten()
    return (
        report.pi_certificate.verdict == "non_member"
        and report.pi_certificate.verify(pi, flat)
        and report.epsilon_certificate.verdict == "member"
        and report.epsilon_certificate.verify(eps, flat)
    )


def is_nuclear_fd(space: AOUSpace) -> bool:
    """Nuclearity of a single finite-dimensional space: its cone is simplicial.

    The paper's local characterization makes a finite-dimensional AOU space
    nuclear exactly when its cone is simplicial, and pi = epsilon fails for
    every pair of non-simplicial factors (Aubrun, Lami, Palazuelos & Plavala,
    Entangleability of cones, GAFA 31, 2021), so one extreme-ray count
    decides it.
    """
    space.cone.require_polyhedral("nuclearity")
    return is_simplicial(space.cone)


@dataclass(frozen=True)
class SpaceNuclearity:
    """The nuclearity of one space with its evidence: the biorthogonal pair
    of a simplicial cone, or dim + 1 extreme rays, dim of them a basis, of
    a cone that is not."""

    nuclear: bool
    biorthogonal: Biorthogonal | None = None
    rays: tuple[Vec, ...] | None = None


def _space_nuclearity(space: AOUSpace) -> SpaceNuclearity:
    """`is_nuclear_fd` with its evidence, checked by `_space_nuclearity_holds`.
    A unit the order-unit gate `_require_order_unit` refuses is bad input,
    whichever way the cone decides; the gate runs past `is_nuclear_fd`'s
    own refusals of a cone with a line or of lower dimension."""
    nuclear = is_nuclear_fd(space)
    _require_order_unit(space.cone, space)
    if nuclear:
        report = SpaceNuclearity(True, biorthogonal=_biorthogonal(space))
    else:
        rays = extreme_rays(space.cone)
        picked: list[Vec] = []
        for g in rays:
            if len(picked) < space.dim and rank(picked + [g]) > len(picked):
                picked.append(g)
        picked.append(next(g for g in rays if g not in picked))
        report = SpaceNuclearity(False, rays=tuple(picked))
    require_holds(_space_nuclearity_holds(space, report), "nuclearity", space)
    return report


def _space_nuclearity_holds(space: AOUSpace, report: SpaceNuclearity) -> bool:
    """Whether the evidence proves the verdict on one space. Nuclear: the
    biorthogonal pair. Not nuclear: dim + 1 rays that span the space, no
    two on one line, each in the cone with H-rows tight at it of rank
    dim - 1, so the cone is full-dimensional and each ray spans its own
    minimal face. A line in the cone would lie in each of those faces, so
    the cone is pointed, and the rays are dim + 1 distinct extreme rays.
    A report with the wrong number of rays is bad input."""
    space.cone.require_closed("nuclearity")
    if report.nuclear:
        return _biorthogonal_holds(space, report.biorthogonal)
    # coprime integer rays keep their signs on the integer H-rows
    d, rays, rows = space.dim, [integerize(g) for g in report.rays], int_hrep(space.cone)
    if len(rays) != d + 1:
        raise ShapeError(f"{len(rays)} rays in dimension {d}, expected {d + 1}")
    lines = set(rays) | {tuple(-x for x in g) for g in rays}
    if len(lines) != 2 * (d + 1) or rank(rays) != d:
        return False
    for g in rays:
        vals = [idot(a, g) for a in rows]
        if any(x < 0 for x in vals) or rank([a for a, x in zip(rows, vals) if x == 0]) != d - 1:
            return False
    return True


@dataclass(frozen=True)
class DefectStep:
    """One greedy step of `factorize`: the defect LP's optimal psi (row
    major, dim x k) and nonzero dual multipliers proving it optimal, each
    on a named row of the LP over psi's entries and the bound t. A name is
    ("unit", r), the unit coordinate r of psi(1) = e; ("positive", j, a),
    cone row a of `hrep()` on psi(e_j); or ("defect", v, a, sign), cone row
    a of t (a . e) >= sign a . (psi phi(v) - v) at vertex v of
    `unit_ball_vertices`. The bound row t >= 0 is left out."""

    psi: tuple[Vec, ...]
    multipliers: tuple[tuple[tuple, Fraction], ...]


@dataclass(frozen=True)
class FactorizationResult:
    phi: UnitalMap
    psi: UnitalMap
    defect: Fraction
    success: bool
    states_used: int
    schedule: tuple[tuple[int, Fraction], ...]
    exhausted: bool
    steps: tuple[DefectStep, ...] = ()


def _best_psi(space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec]):
    """One LP: the unital positive psi: linf(k) -> space minimizing the worst
    order norm of psi(phi(v)) - v over the unit-ball vertices; returns psi,
    the optimum and nonzero multipliers on the rows `DefectStep` names.

    Column j < k-1 of psi is sum_i lam_ij g_i over the extreme rays g_i,
    lam >= 0, and column k-1 is e minus the others, whose cone rows stay.
    The bound t = t0 + u+ - u-, t0 the defect at lam = 0, meets t (a . e)
    >= +-a . (psi phi(v) - v) for each cone row a and one v of each +- pair,
    each row once, so every rhs is <= 0 and no phase 1 runs.  The unit
    multipliers solve column k-1's dual equation; column j's positive ones
    decompose over the cone rows its residual functional, whose value at
    g_i is the reduced cost of lam_ij.  SizeLimitError, unsolved, past
    FACTORIZE_LP_CAP standard-form entries."""
    d, k = space.dim, len(phi_rows)
    gens, hrows = extreme_rays(space.cone), space.cone.hrep()
    n, last = len(gens), k - 1
    ag = [[dot(a, g) for g in gens] for a in hrows]
    ae = [dot(a, space.unit) for a in hrows]
    rows = [tuple(-x for _ in range(last) for x in row) + (0, 0) for row in ag]
    rhs = [-x for x in ae]
    names = [("positive", last, a) for a in range(len(hrows))]
    defect: dict = {}
    keep = set(unit_ball_half(space))
    for vi, v in enumerate(vectors):
        if v not in keep:
            continue
        w = [dot(f, v) for f in phi_rows]
        diffs = [w[last] - x for x in w[:last]]
        for a, row in enumerate(hrows):
            coeff = tuple(c * x for c in diffs for x in ag[a])
            b = w[last] * ae[a] - dot(row, v)
            for sign, c, rhs_b in ((1, coeff, b), (-1, tuple(-x for x in coeff), -b)):
                defect.setdefault((c + (ae[a], -ae[a]), rhs_b), ("defect", vi, a, sign))
    t0 = max((b / c[-2] for c, b in defect if c[-2]), default=Fraction(0))
    rows += [c for c, _ in defect]
    rhs += [b - t0 * c[-2] for c, b in defect]
    names += defect.values()
    # standard form: lam, u+, u- and each row's slack are one column each
    entries = len(rows) * (n * last + 2 + len(rows))
    if entries > FACTORIZE_LP_CAP:
        raise SizeLimitError(
            f"factorize: defect LP of {len(rows)} rows over {k} states has {entries} "
            f"standard-form entries, over FACTORIZE_LP_CAP = {FACTORIZE_LP_CAP}"
        )
    obj = zeros(n * last) + (Fraction(1), Fraction(-1))
    out = solve_lp(obj, rows, rhs, [GE] * len(rows), nonneg=[True] * (n * last + 2))
    if out.status != OPTIMAL:
        raise InvariantViolation("defect LP must be solvable")
    gmat = Matrix.from_rows(list(zip(*gens)))
    cols = [gmat.apply(out.primal[j * n : (j + 1) * n]) for j in range(last)]
    cols.append(tuple(e - sum(c[r] for c in cols) for r, e in enumerate(space.unit)))
    # pos: the newest column's cone rows, weighted; dfc[j]: the defect rows' on column j
    duals = [(name, mu) for name, mu in zip(names, out.dual_certificate) if mu]
    positive = [(mu, hrows[name[2]]) for name, mu in duals if name[0] == "positive"]
    pos = combine([mu for mu, _ in positive], [a for _, a in positive], d)
    defects = [(mu * name[3], vectors[name[1]], hrows[name[2]]) for name, mu in duals if name[0] == "defect"]
    dfc = [combine([c * dot(f, v) for c, v, _ in defects], [a for *_, a in defects], d) for f in phi_rows]
    multipliers = [(("unit", r), x) for r, x in enumerate(vsub(dfc[last], pos)) if x]
    live = [a for a, row in enumerate(hrows) if any(row)]
    for j in range(last):
        cert = member(_row_cone(space.cone), vsub(vadd(pos, dfc[j]), dfc[last]))
        if cert.verdict != "member":
            raise InvariantViolation("a column's residual functional left the dual cone")
        multipliers += [(("positive", j, live[i]), c) for i, c in cert.decomposition if c]
    return Matrix.from_rows(list(zip(*cols))), t0 + out.value, tuple(multipliers + duals)


@_cached
def _row_cone(cone: Cone) -> Cone:
    """The dual cone, built once per cone; an H-cone's shares its DD."""
    return dual(cone) if cone.inequalities is not None else Cone(cone.dim, generators=tuple(int_hrep(cone)))


def _defect_lower_bound(
    space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec], hrows, multipliers
) -> Fraction | None:
    """The lower bound on the defect LP's optimum that the named multipliers
    prove, by weak duality, or None when they prove none: a multiplier of
    the wrong sign, or a combination of the rows that is not 0 on psi's
    entries and at most 1 on t (the objective, up to the bound row
    t >= 0). Each row is rebuilt from its name; a name of no row is bad
    input (InputError)."""
    d, k = space.dim, len(phi_rows)
    bounds = {"unit": (d,), "positive": (k, len(hrows)), "defect": (len(vectors), len(hrows), None)}
    acc = [[Fraction(0)] * k for _ in range(d)]
    t_coeff = bound = Fraction(0)
    for name, mu in multipliers:
        if not _names_a_row(name, bounds):
            raise InputError(f"multiplier names no row of the defect LP: {list(name)!r}")
        kind, idx = name[0], name[1:]
        if kind == "unit":
            (r,) = idx
            acc[r] = [x + mu for x in acc[r]]
            bound += mu * space.unit[r]
            continue
        if mu < 0:
            return None
        if kind == "positive":
            j, a = idx
            for i in range(d):
                acc[i][j] += mu * hrows[a][i]
            continue
        vi, a, sign = idx
        row, v = hrows[a], vectors[vi]
        w = [dot(f, v) for f in phi_rows]
        for i in range(d):
            for j in range(k):
                acc[i][j] -= mu * sign * row[i] * w[j]
        t_coeff += mu * dot(row, space.unit)
        bound -= mu * sign * dot(row, v)
    if any(any(r) for r in acc) or t_coeff > 1:
        return None
    return bound


def _names_a_row(name: tuple, bounds: dict) -> bool:
    """name is (kind, *indices) with each index an int below its bound in
    bounds[kind], or 1 or -1 where the bound is None (a sign)."""
    limits = bounds.get(name[0]) if name else None
    if limits is None or len(name) != len(limits) + 1:
        return False
    return all(
        type(i) is int and (i in (1, -1) if n is None else 0 <= i < n)
        for i, n in zip(name[1:], limits)
    )


def _seed_states(space: AOUSpace) -> list[int]:
    """The dim states with the largest |det| (the first such tuple), so phi
    starts injective; SizeLimitError past FACTORIZE_SCAN_CAP determinants.
    The states r D / s of `_int_states` have |det| = D^dim |idet(r)| / prod(s)."""
    pool, d = _int_states(space), space.dim
    scan = comb(len(pool), d)
    if scan > FACTORIZE_SCAN_CAP:
        raise SizeLimitError(
            f"factorize: seed scan of C({len(pool)}, {d}) = {scan} determinants "
            f"exceeds FACTORIZE_SCAN_CAP = {FACTORIZE_SCAN_CAP}"
        )
    seed = max_abs_det([r for r, _ in pool], [s for _, s in pool], d)
    return list(seed) if seed is not None else list(range(min(d, len(pool))))


def _residual_norms(pool: list[Vec], psi_phi: Matrix, half: list[Vec]) -> tuple[list[Vec], list[Fraction]]:
    """The residuals psi(phi(v)) - v over half, and their order norms, each
    the largest |s(residual)| over the extreme states s in pool."""
    residuals = [vsub(psi_phi.apply(v), v) for v in half]
    return residuals, [max(abs(dot(s, res)) for s in pool) for res in residuals]


def _next_state(pool: list[Vec], chosen: list[int], residuals: list[Vec], norms: list[Fraction]) -> int:
    """The state most violated by the worst residual (the first of equally
    bad residuals and states) among those not chosen yet."""
    residual = residuals[norms.index(max(norms))]
    remaining = [i for i in range(len(pool)) if i not in chosen]
    return max(remaining, key=lambda i: abs(dot(pool[i], residual)))


def factorize(space: AOUSpace, eps: Fraction | int = Fraction(1, 10)) -> FactorizationResult:
    """Approximate factorization of the identity through a coordinate space.

    phi collects state evaluations; psi is the best unital positive return map
    for the current state set, found by a single LP. The state set grows
    greedily (most violated state first) until the defect drops below eps or
    the states run out. The defect is taken over the unit ball vertices, so it
    equals the operator norm of psi . phi - id exactly. No defect is below a
    negative eps, so such an eps is bad input (InputError). A simplicial space
    factors exactly, with no ball enumerated. Once all m extreme states are
    chosen, the optimum is the least defect of any unital positive
    factorization through any linf(k'), since such a phi' is A phi_S, phi_S
    all m states and A row-stochastic.

    The loop needs no cap on the number of states: the two size caps stop
    every space with m > 64 states before its first step. In dimension
    d <= 2, m = d. For 3 <= d <= m - 3 the seed scan takes
    C(m, d) >= C(65, 3) = 43 680 determinants, past FACTORIZE_SCAN_CAP.
    For d >= m - 2 >= 63 the first defect LP has at least m >= 65 cone rows
    and at least 63 * 62 lambda columns, past FACTORIZE_LP_CAP.

    The LP and the residuals that pick the next state take one vertex of
    each +- pair, since the residual of -v is minus that of v. They read
    that half in reverse sorted order, the order in which the sorted ball
    first meets each pair, so the worst residual is the full scan's up to
    sign, and the next state, chosen by |f(residual)|, is the same. Each
    residual's order norm is the largest |s(residual)| over the extreme
    states s already in hand (Paulsen & Tomforde, Vector spaces with an
    order unit, 2009): no order-norm LP runs. Each greedy step keeps its psi
    and dual multipliers proving its optimum (`DefectStep`), the evidence
    `_factorization_holds`, the check `verify` runs, checks the result
    against before it is returned.
    """
    eps = frac(eps)
    if eps < 0:
        raise InputError(f"factorize: eps must be nonnegative, got {eps}")
    space.cone.require_closed("factorization")
    _require_order_unit(space.cone, space)
    d = space.dim

    if is_simplicial(space.cone):
        pair = _biorthogonal(space)
        res = FactorizationResult(
            phi=UnitalMap(space, linf(d), Matrix.from_rows(pair.states)),
            psi=UnitalMap(linf(d), space, Matrix.from_rows(list(zip(*pair.rays)))),
            defect=Fraction(0),
            success=True,
            states_used=d,
            schedule=((d, Fraction(0)),),
            exhausted=False,
        )
    else:
        pool = extreme_states(space)
        chosen = _seed_states(space)
        half = list(reversed(unit_ball_half(space)))
        schedule: list[tuple[int, Fraction]] = []
        steps: list[DefectStep] = []
        best: tuple[Fraction, Matrix, list[Vec]] | None = None
        while True:
            phi_rows = [pool[i] for i in chosen]
            psi_m, defect, multipliers = _best_psi(space, phi_rows, unit_ball_vertices(space))
            schedule.append((len(chosen), defect))
            steps.append(DefectStep(psi_m.data, multipliers))
            if best is None or defect < best[0]:
                best = (defect, psi_m, phi_rows)
            if defect <= eps or len(chosen) >= len(pool):
                break
            residuals, norms = _residual_norms(pool, psi_m @ Matrix.from_rows(phi_rows), half)
            chosen.append(_next_state(pool, chosen, residuals, norms))
        defect, psi_m, phi_rows = best
        k = len(phi_rows)
        res = FactorizationResult(
            phi=UnitalMap(space, linf(k), Matrix.from_rows(phi_rows)),
            psi=UnitalMap(linf(k), space, psi_m),
            defect=defect,
            success=defect <= eps,
            states_used=k,
            schedule=tuple(schedule),
            exhausted=len(chosen) >= len(pool),
            steps=tuple(steps),
        )
    require_holds(_factorization_holds(space, eps, res), "factorize", space)
    return res


def _factorization_holds(space: AOUSpace, eps: Fraction, res: FactorizationResult) -> bool:
    """Whether every claim of a factorize result holds, from its evidence
    and the space alone: no defect LP and no membership test.

    With no steps the claim is an exact factorization through linf(dim):
    psi phi = id with phi and psi unital positive, which only a simplicial
    space has. The columns of psi and the rows of phi are then a
    biorthogonal pair, checked by `_biorthogonal_holds` with no double
    description, and the units must match.

    With steps the check replays the greedy loop on the space's extreme
    states: the seed scan, then per step the count of states, psi's unit
    and positivity rows, its defect as the largest |s(residual)| over the
    states and the half ball (the order norm, Paulsen & Tomforde, Vector
    spaces with an order unit, 2009), the multipliers' lower bound on the
    LP optimum, which must meet that defect, the stopping rule and the next
    state. The best step must be the reported phi and psi. A psi of the
    wrong shape or a multiplier naming no row is bad input.
    """
    eps = frac(eps)
    if eps < 0:
        raise InputError(f"factorize: eps must be nonnegative, got {eps}")
    space.cone.require_closed("factorization")
    d = space.dim
    phi_m, psi_m = res.phi.matrix, res.psi.matrix
    if phi_m.rows != psi_m.cols:
        raise ShapeError(f"phi maps into dimension {phi_m.rows}, psi out of {psi_m.cols}")
    if not res.steps:
        ones = (Fraction(1),) * d
        return (
            (res.defect, res.success, res.states_used, res.exhausted) == (0, True, d, False)
            and res.schedule == ((d, Fraction(0)),)
            and phi_m.rows == d
            and phi_m.apply(space.unit) == ones
            and psi_m.apply(ones) == space.unit
            and _biorthogonal_holds(space, Biorthogonal(psi_m.transpose().data, phi_m.data))
        )

    vectors = unit_ball_vertices(space)
    pool = extreme_states(space)
    if len(pool) == d:
        # a simplicial space factors exactly, with no greedy step
        return False
    if len(res.schedule) != len(res.steps):
        raise ShapeError(f"{len(res.steps)} steps for a schedule of {len(res.schedule)}")
    hrows = space.cone.hrep()
    half = list(reversed(unit_ball_half(space)))
    chosen = _seed_states(space)
    best = None
    for n, (step, (k, defect)) in enumerate(zip(res.steps, res.schedule)):
        phi_rows = [pool[i] for i in chosen]
        psi = Matrix.from_rows(step.psi)
        if (psi.rows, psi.cols) != (d, len(chosen)):
            raise ShapeError(f"step {n}: psi is {psi.rows}x{psi.cols}, expected {d}x{len(chosen)}")
        if k != len(chosen) or psi.apply((Fraction(1),) * k) != space.unit:
            return False
        if any(dot(a, col) < 0 for col in psi.transpose().data for a in hrows):
            return False
        residuals, norms = _residual_norms(pool, psi @ Matrix.from_rows(phi_rows), half)
        if max(norms) != defect:
            return False
        if _defect_lower_bound(space, phi_rows, vectors, hrows, step.multipliers) != defect:
            return False
        if best is None or defect < best[0]:
            best = (defect, psi, phi_rows)
        stop = defect <= eps or k >= len(pool)
        if stop != (n == len(res.steps) - 1):
            return False
        if not stop:
            chosen.append(_next_state(pool, chosen, residuals, norms))
    defect, psi, phi_rows = best
    return (
        res.defect == defect
        and res.success == (defect <= eps)
        and res.states_used == len(phi_rows)
        and res.exhausted == (len(chosen) >= len(pool))
        and phi_m.data == tuple(phi_rows)
        and psi_m.data == psi.data
    )
