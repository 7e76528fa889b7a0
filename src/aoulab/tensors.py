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

from .cones import (
    Certificate, Cone, _cached, _scales, extreme_rays, int_hrep, int_vrep, is_simplicial, member,
    vrep_scales,
)
from .dd import _reduce
from .errors import InputError, InvariantViolation, ShapeError, SizeLimitError, require_holds
from .linalg import (
    Matrix,
    Vec,
    dot,
    frac,
    idot,
    integerize,
    inverse,
    kron_vec,
    max_det_exchange,
    rank,
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
)

EPSILON = "epsilon"
PI = "pi"

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
    whichever way the cone decides: `_biorthogonal` runs the gate on a
    simplicial cone and the checker on any other, past `is_nuclear_fd`'s
    own refusals of a cone with a line or of lower dimension."""
    nuclear = is_nuclear_fd(space)
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
    A report with the wrong number of rays is bad input, as is a unit the
    order-unit gate refuses, which `_space_nuclearity` refuses too."""
    space.cone.require_closed("nuclearity")
    _require_order_unit(space.cone, space)
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
    major, dim x k) and the nonzero dual multipliers of the LP `_best_psi`
    solved, each on a named row: ("positive", a), cone row a of `hrep()`
    on psi's newest column, or ("defect", v, a, sign), t (a . e) >= sign
    a . (psi phi(v) - v) at vertex v of `unit_ball_half`. The step holds
    no defect: `_greedy` reads it off psi's residuals, and the multipliers
    prove it optimal, the other columns' dual rows read at the generators
    of `int_vrep`: an H-cone's from the DD `extreme_states` runs, a
    V-cone's own."""

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


def _best_psi(space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec]) -> DefectStep:
    """One LP: the unital positive psi: linf(k) -> space minimizing the worst
    order norm of psi(phi(v)) - v over the ball vertices given, one of each
    +- pair, as a `DefectStep`: psi and the LP's nonzero dual multipliers
    on the rows it names. The optimum itself is not read; it is psi's
    residual norm, which those multipliers prove optimal.

    Column j < k-1 of psi is sum_i lam_ij g_i over the extreme rays g_i,
    lam >= 0, and column k-1 is e minus the others, whose cone rows stay.
    The bound t = t0 + u+ - u-, t0 the defect at lam = 0, meets t (a . e)
    >= +-a . (psi phi(v) - v) for each cone row a and each v, each row
    once, so every rhs is <= 0 and no phase 1 runs. It is bounded below:
    the two signs of one defect row add up to 2 (a . e)(u+ - u-) >= -2 t0
    (a . e), and past `factorize`'s order-unit gate a . e > 0, so u+ - u-
    >= -t0. SizeLimitError past FACTORIZE_LP_CAP standard-form entries;
    before any row is built when `factorize`'s (2d - 1) m rows pass it, m
    distinct nonzero cone rows."""
    d, k = space.dim, len(phi_rows)
    gens, hrows = extreme_rays(space.cone), space.cone.hrep()
    n, last = len(gens), k - 1
    _require_lp_fits((2 * d - 1) * len({a for a in hrows if any(a)}), n * last + 2, k, "at least ")
    ag = [[dot(a, g) for g in gens] for a in hrows]
    ae = [dot(a, space.unit) for a in hrows]
    rows = [tuple(-x for _ in range(last) for x in row) + (0, 0) for row in ag]
    rhs = [-x for x in ae]
    names = [("positive", a) for a in range(len(hrows))]
    defect: dict = {}
    for vi, v in enumerate(vectors):
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
    _require_lp_fits(len(rows), n * last + 2, k)
    obj = zeros(n * last) + (Fraction(1), Fraction(-1))
    out = solve_lp(obj, rows, rhs, [GE] * len(rows), nonneg=[True] * (n * last + 2))
    if out.status != OPTIMAL:
        raise InvariantViolation("defect LP must be solvable")
    gmat = Matrix.from_rows(list(zip(*gens)))
    cols = [gmat.apply(out.primal[j * n : (j + 1) * n]) for j in range(last)]
    cols.append(tuple(e - sum(c[r] for c in cols) for r, e in enumerate(space.unit)))
    duals = tuple((name, mu) for name, mu in zip(names, out.dual_certificate) if mu)
    return DefectStep(tuple(zip(*cols)), duals)


def _require_lp_fits(rows: int, cols: int, k: int, least: str = "") -> None:
    """SizeLimitError when rows rows over cols columns, plus a slack per
    row, pass FACTORIZE_LP_CAP entries; least marks lower bounds."""
    if rows * (cols + rows) > FACTORIZE_LP_CAP:
        raise SizeLimitError(
            f"factorize: defect LP of {least}{rows} rows over {k} states has {least}{rows * (cols + rows)} "
            f"standard-form entries, over FACTORIZE_LP_CAP = {FACTORIZE_LP_CAP}"
        )


def _defect_lower_bound(
    space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec], hrows, multipliers
) -> Fraction | None:
    """The lower bound on the defect LP's optimum that the named multipliers
    prove by weak duality of the LP `_best_psi` solves, or None when they
    prove none; a name of no row is bad input (InputError). With P the
    positivity and D the defect rows, each rebuilt from its name, and
    w = phi(v), each mu must be >= 0, sum_D mu (a . e) <= 1 (t, bounded by
    both signs, is >= 0), and for each column j < k-1

        F_j = sum_P mu a + sum_D mu sign (w_j - w_{k-1}) a

    >= 0 at each generator g of `int_vrep`, F_j . g the reduced cost of
    lam_gj. The bound, -sum_P mu (a . e) + sum_D mu sign (w_{k-1} (a . e)
    - a . v), holds for every unital positive psi: its columns j < k-1 are
    positive, so combinations of those generators, an H-cone's from the DD
    `extreme_states` runs and a V-cone's own, so no search runs."""
    last = len(phi_rows) - 1
    bounds = {"positive": (len(hrows),), "defect": (len(vectors), len(hrows), None)}
    funcs, t_coeff, bound = [zeros(space.dim)] * last, Fraction(0), Fraction(0)
    for name, mu in multipliers:
        if not _names_a_row(name, bounds):
            raise InputError(f"multiplier names no row of the defect LP: {list(name)!r}")
        if mu < 0:
            return None
        a = hrows[name[1] if name[0] == "positive" else name[2]]
        ae = dot(a, space.unit)
        if name[0] == "positive":
            scales, bound = [mu] * last, bound - mu * ae
        else:
            v, sign = vectors[name[1]], name[3]
            w = [dot(f, v) for f in phi_rows]
            scales = [mu * sign * (x - w[last]) for x in w[:last]]
            t_coeff, bound = t_coeff + mu * ae, bound + mu * sign * (w[last] * ae - dot(a, v))
        funcs = [[x + c * y for x, y in zip(f, a)] for f, c in zip(funcs, scales)]
    if t_coeff > 1 or any(dot(f, g) < 0 for f in funcs for g in int_vrep(space.cone)):
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
    """dim states whose |det| no exchange of one state raises
    (`linalg.max_det_exchange`), so phi starts injective. The states
    r D / s of `_int_states` are the rows r / s times D, which scales every
    det alike."""
    pool = _int_states(space)
    return max_det_exchange([r for r, _ in pool], [s for _, s in pool])


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

    The loop needs no cap on the number of states: FACTORIZE_LP_CAP stops
    every space with m > 64 states at its first defect LP, before it is
    built. Such a space is not simplicial, so d >= 3. The d seed states
    are independent, so v -> D(v), the d - 1 differences phi(v)_last -
    phi(v)_j, has rank d - 1 (its kernel is the line of e, where
    independent states agree), and the half ball's vertices, which span,
    have d - 1 images D(v) on distinct lines. For each such v, each of the
    m facet rows a and each sign the LP has a row whose psi part is
    +-D(v) (x) (a . g)_g over the generators g: all distinct, since a
    rank-one tensor fixes the lines of its factors and (a . g)_g, nonzero
    and nonnegative, determines a, the generators spanning. With the m
    positivity rows, which leave t out, that makes at least
    (2d - 1) m >= 325 rows, each with its slack column, so more than
    325^2 = 105 625 standard-form entries.

    The greedy loop is `_greedy`, the one `_factorization_holds` replays:
    each step's psi and the LP's own dual multipliers (`DefectStep`, from
    `_best_psi`) are checked as the loop takes them, so the result holds
    when the loop returns it, with no second pass.
    """
    eps = frac(eps)
    if eps < 0:
        raise InputError(f"factorize: eps must be nonnegative, got {eps}")
    space.cone.require_closed("factorization")
    _require_order_unit(space.cone, space)
    d = space.dim

    if not is_simplicial(space.cone):
        half = unit_ball_half(space)
        res = _greedy(space, eps, lambda n, phi_rows: _best_psi(space, phi_rows, half))
        require_holds(res is not None, "factorize", space)
        return res
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
    require_holds(_factorization_holds(space, eps, res), "factorize", space)
    return res


def _greedy(space: AOUSpace, eps: Fraction, step_at) -> FactorizationResult | None:
    """The greedy loop of `factorize`, with each step checked as it is
    taken; None when a step fails. step_at(n, phi_rows) gives step n's
    `DefectStep` for the states phi_rows, or None when there is none.

    The loop starts from the seed exchange (`_seed_states`) on the space's
    extreme states. Per step psi must be dim x k (ShapeError otherwise),
    unital and positive on each column by the cone rows. Its defect is the
    largest |s(residual)| over the states s and the residuals psi(phi(v))
    - v over the half ball (the order norm, Paulsen & Tomforde, Vector
    spaces with an order unit, 2009; the residual of -v is minus that of
    v), and the step's multipliers must bound the defect LP below by that
    defect (`_defect_lower_bound`), so it is the LP optimum. The loop stops
    once the defect is at most eps or every state is chosen; otherwise the
    state most violated by the worst residual comes next (`_next_state`).
    The half is read in reverse sorted order, the order in which the sorted
    ball first meets each pair, so the worst residual is the full scan's up
    to sign, and the pick is the same. The result is the best step's phi
    and psi, the first of equal defects.
    """
    d, pool, vectors, hrows = space.dim, extreme_states(space), unit_ball_half(space), space.cone.hrep()
    half = vectors[::-1]
    chosen = _seed_states(space)
    schedule: list[tuple[int, Fraction]] = []
    steps: list[DefectStep] = []
    best = None
    while True:
        phi_rows, k = [pool[i] for i in chosen], len(chosen)
        step = step_at(len(steps), phi_rows)
        if step is None:
            return None
        psi = Matrix.from_rows(step.psi)
        if (psi.rows, psi.cols) != (d, k):
            raise ShapeError(f"step {len(steps)}: psi is {psi.rows}x{psi.cols}, expected {d}x{k}")
        if psi.apply((Fraction(1),) * k) != space.unit or any(
            dot(a, col) < 0 for col in psi.transpose().data for a in hrows
        ):
            return None
        residuals, norms = _residual_norms(pool, psi @ Matrix.from_rows(phi_rows), half)
        defect = max(norms)
        if _defect_lower_bound(space, phi_rows, vectors, hrows, step.multipliers) != defect:
            return None
        schedule.append((k, defect))
        steps.append(step)
        if best is None or defect < best[0]:
            best = (defect, psi, phi_rows)
        if defect <= eps or k >= len(pool):
            break
        chosen.append(_next_state(pool, chosen, residuals, norms))
    defect, psi, phi_rows = best
    k = len(phi_rows)
    return FactorizationResult(
        phi=UnitalMap(space, linf(k), Matrix.from_rows(phi_rows)),
        psi=UnitalMap(linf(k), space, psi),
        defect=defect,
        success=defect <= eps,
        states_used=k,
        schedule=tuple(schedule),
        exhausted=len(chosen) >= len(pool),
        steps=tuple(steps),
    )


def _factorization_holds(space: AOUSpace, eps: Fraction, res: FactorizationResult) -> bool:
    """Whether every claim of a factorize result holds, from its evidence
    and the space alone: no defect LP and no membership test.

    With no steps the claim is an exact factorization through linf(dim):
    psi phi = id with phi and psi unital positive, which only a simplicial
    space has. The columns of psi and the rows of phi are then a
    biorthogonal pair, checked by `_biorthogonal_holds` with no double
    description, and the units must match.

    With steps, which a simplicial space's result has none of, the check
    runs `_greedy` on the stored steps, so each is checked as factorize
    checked it, and the loop must end with the last step and give every
    field of the result. A psi of the wrong shape, a schedule of another
    length than the steps or a multiplier naming no row is bad input.
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
    if len(extreme_states(space)) == d:
        return False
    if len(res.schedule) != len(res.steps):
        raise ShapeError(f"{len(res.steps)} steps for a schedule of {len(res.schedule)}")
    got = _greedy(space, eps, lambda n, _: res.steps[n] if n < len(res.steps) else None)
    fields = ("defect", "success", "states_used", "schedule", "exhausted", "steps")
    return (
        got is not None
        and all(getattr(got, f) == getattr(res, f) for f in fields)
        and (got.phi.matrix.data, got.psi.matrix.data) == (phi_m.data, psi_m.data)
    )
