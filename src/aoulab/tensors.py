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
from itertools import combinations
from math import comb

from .cones import (
    Certificate, Cone, _cached, contains, dual, extreme_rays, int_hrep, int_vrep, is_simplicial, member
)
from .errors import InputError, InvariantViolation, ShapeError, SizeLimitError
from .linalg import (
    Matrix,
    Vec,
    det,
    dot,
    frac,
    inverse,
    kron_vec,
    rank,
    solve,
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
    _not_an_order_unit,
    extreme_states,
    linf,
    order_unit_failures,
    unit_ball_half,
    unit_ball_vertices,
)

EPSILON = "epsilon"
PI = "pi"

FACTORIZE_STATE_CAP = 64
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


def _assert_epsilon_aou(space: AOUSpace) -> None:
    """The epsilon cone is closed by construction; pointedness is the rows
    spanning the dual, and since every row pairs to 1 with the unit, the
    order unit property reduces to that pairing being positive."""
    cone = space.cone
    if cone.has_strict_rows:
        raise InvariantViolation("epsilon cone must be closed")
    if rank(Matrix.from_rows(cone.inequalities)) != space.dim:
        raise InvariantViolation("epsilon cone is not pointed")
    if order_unit_failures(cone.inequalities, space.unit):
        raise InvariantViolation("epsilon unit fails the order unit test")


def _assert_pi_aou(ts_realized: AOUSpace, left: AOUSpace, right: AOUSpace) -> None:
    """Finitely generated, hence closed; pointedness is certified by a
    strictly positive product functional.  The product unit is an order unit
    because each factor unit is one of its own cone, which is the row test of
    `validate`: for r e_V +- v and s e_W +- w positive,

        (r e + v) (x) (s e + w) + (r e - v) (x) (s e - w) = 2 r s e (x) e + 2 v (x) w

    (and the same with w -> -w) puts 2 r s e_V (x) e_W +- 2 v (x) w in the pi
    cone, and simple tensors span V (x) W.  A factor unit off the interior is
    bad input that `extreme_states` rejects first, so the row test is an
    invariant."""
    if ts_realized.cone.has_strict_rows:
        raise InvariantViolation("pi cone must be closed")
    f0 = vec([0] * left.dim)
    for st in extreme_states(left):
        f0 = tuple(a + b for a, b in zip(f0, st.functional))
    g0 = vec([0] * right.dim)
    for st in extreme_states(right):
        g0 = tuple(a + b for a, b in zip(g0, st.functional))
    phi = kron_vec(f0, g0)
    for g in ts_realized.cone.generators:
        if dot(phi, g) <= 0:
            raise InvariantViolation("pi cone is not pointed")
    for sp in (left, right):
        if order_unit_failures(sp.cone.hrep(), sp.unit):
            raise InvariantViolation("factor unit fails the order unit test")


def _product_cone(left: AOUSpace, right: AOUSpace, kind: str) -> Cone:
    """The epsilon cone, cut out by the products f (x) g of extreme states,
    or the pi cone, generated by the products v (x) w of cone generators."""
    dim = left.dim * right.dim
    if kind == EPSILON:
        rows = [
            kron_vec(f.functional, g.functional)
            for f in extreme_states(left)
            for g in extreme_states(right)
        ]
        return Cone.from_inequalities(rows, dim=dim)
    gens = [kron_vec(v, w) for v in left.cone.vrep() for w in right.cone.vrep()]
    return Cone.from_generators(gens, dim)


@_cached
def tensor_space(left: AOUSpace, right: AOUSpace, kind: str) -> TensorSpace:
    """The epsilon or pi tensor space of left and right, cached by left
    under (right, kind), so it lives as long as the left factor."""
    if kind not in (EPSILON, PI):
        raise InputError(f"unknown tensor cone kind {kind!r}")
    for sp in (left, right):
        sp.cone.require_polyhedral("tensor cones")
    realized = AOUSpace(
        dim=left.dim * right.dim,
        cone=_product_cone(left, right, kind),
        unit=kron_vec(left.unit, right.unit),
        label=f"{kind}({left.label},{right.label})",
    )
    if kind == EPSILON:
        _assert_epsilon_aou(realized)
    else:
        _assert_pi_aou(realized, left, right)
    return TensorSpace(left, right, kind, realized)


def member_tensor(ts: TensorSpace, z: TensorElement) -> Certificate:
    if z.left.dim != ts.left.dim or z.right.dim != ts.right.dim:
        raise ShapeError("tensor element does not match the tensor space")
    return member(ts.realized.cone, z.flatten())


def _checked_product_cone(left: AOUSpace, right: AOUSpace, kind: str) -> Cone:
    """`_product_cone` for a report check, on factors that pass what
    `tensor_space` asks of them: polyhedral, with extreme states. A
    certificate `member_tensor` gave verifies against it with the same
    generator and row indices, and since the realized space is not built,
    a pi check needs no facet of pi."""
    for sp in (left, right):
        sp.cone.require_polyhedral("tensor cones")
        extreme_states(sp)
    return _product_cone(left, right, kind)


def tensor_map(s: UnitalMap, t: UnitalMap, kind: str) -> UnitalMap:
    for m, name in ((s, "left"), (t, "right")):
        if not m.unital or not m.positive:
            raise InputError(f"{name} factor must be unital and positive")
    src = tensor_space(s.source, t.source, kind)
    tgt = tensor_space(s.target, t.target, kind)
    m = UnitalMap(src.realized, tgt.realized, Matrix.kron(s.matrix, t.matrix))
    if not m.unital:
        raise InvariantViolation("tensor of unital maps lost the unit")
    if kind == PI:
        # positivity on pi holds iff every product generator maps into the
        # target cone; the generator list is exactly the product list
        if not m.positive:
            raise InvariantViolation("tensor map is not positive on the pi cone")
    else:
        # dual route: (S (x) T)^T (f (x) g) = (S^T f) (x) (T^T g), so it is
        # enough that each factor pulls extreme target states into the conic
        # hull of source states
        for factor in (s, t):
            hull = Cone.from_generators(
                [st.functional for st in extreme_states(factor.source)],
                factor.source.dim,
            )
            mt = factor.matrix.transpose()
            pulled = Cone.from_generators(
                [mt.apply(st.functional) for st in extreme_states(factor.target)],
                factor.source.dim,
            )
            if not contains(hull, pulled):
                raise InvariantViolation("tensor map is not positive on the epsilon cone")
    return m


def injective_banach_norm(z: TensorElement) -> Fraction:
    """Max of |(f (x) g)(z)| over extreme state pairs.

    This is the order norm of z in the epsilon tensor space: the epsilon
    cone is cut out by exactly these product functionals, and the order norm
    of an AOU space is the largest |s(z)| over its extreme states (Paulsen &
    Tomforde, Vector spaces with an order unit, 2009), which here are the
    normalized product states.  No epsilon space is built.
    """
    best = Fraction(0)
    for f in extreme_states(z.left):
        row = z.coeffs.transpose().apply(f.functional)
        for g in extreme_states(z.right):
            best = max(best, abs(dot(row, g.functional)))
    return best


@dataclass(frozen=True)
class NuclearityReport:
    nuclear: bool
    witness: TensorElement | None = None
    pi_certificate: Certificate | None = None
    epsilon_certificate: Certificate | None = None
    # nuclear: the conic decomposition over the pi generators of each
    # epsilon extreme ray, in the order of int_vrep of the epsilon cone
    pi_decompositions: tuple[tuple[tuple[int, Fraction], ...], ...] | None = None


def is_nuclear_pairwise(left: AOUSpace, right: AOUSpace) -> NuclearityReport:
    """Exact equality test of the two tensor cones on left (x) right.

    The pi cone always sits inside the epsilon cone; that inclusion is
    asserted.  Equality is decided by running every extreme ray of the
    epsilon cone through a pi membership test, so a negative answer comes
    with an explicit element of epsilon minus pi and a Farkas witness, and
    a positive one with each ray's decomposition over the pi generators.
    """
    eps = tensor_space(left, right, EPSILON)
    pi = tensor_space(left, right, PI)
    pi_cone = pi.realized.cone
    if not contains(eps.realized.cone, pi_cone):
        raise InvariantViolation("pi generator escapes the epsilon cone")
    # an epsilon extreme ray inside pi must be parallel to a listed pi
    # generator (extremality in the ambient cone), so only the unmatched
    # rays can separate the cones; test those first
    gen_index: dict = {}
    for idx, g in enumerate(int_vrep(pi_cone)):
        gen_index.setdefault(g, idx)
    rays = int_vrep(eps.realized.cone)
    decompositions = [()] * len(rays)
    matched, unmatched = [], []
    for i, ray in enumerate(rays):
        (matched if ray in gen_index else unmatched).append(i)
    for i in unmatched:
        ray = vec(rays[i])
        cert = member(pi_cone, ray)
        if cert.verdict == "non_member":
            z = TensorElement.from_flat(left, right, ray)
            eps_cert = member(eps.realized.cone, ray)
            if eps_cert.verdict != "member":
                raise InvariantViolation("epsilon extreme ray left its own cone")
            return NuclearityReport(
                nuclear=False,
                witness=z,
                pi_certificate=cert,
                epsilon_certificate=eps_cert,
            )
        decompositions[i] = cert.decomposition
    for i in matched:
        ray = rays[i]
        idx = gen_index[ray]
        g = pi_cone.generators[idx]
        j = next(c for c, x in enumerate(g) if x != 0)
        cert = Certificate(
            verdict="member",
            kind="conic_decomposition",
            decomposition=((idx, ray[j] / g[j]),),
        )
        if not cert.verify(pi_cone, ray):
            raise InvariantViolation("matched ray decomposition failed to verify")
        decompositions[i] = cert.decomposition
    return NuclearityReport(nuclear=True, pi_decompositions=tuple(decompositions))


def _nuclearity_holds(left: AOUSpace, right: AOUSpace, report: NuclearityReport) -> bool:
    """Whether the report's evidence proves its verdict, from the product
    generators and product-state rows alone.

    Not nuclear: the witness is in epsilon (row evaluation) and out of pi
    (a functional nonnegative on every product generator). Nuclear: each
    epsilon extreme ray, from the DD of the epsilon rows, is the stated
    combination of pi generators, so epsilon lies in pi, and pi always lies
    in epsilon. No facet of pi is built and no membership is decided.
    """
    eps = _checked_product_cone(left, right, EPSILON)
    pi = _product_cone(left, right, PI)
    if not report.nuclear:
        flat = report.witness.flatten()
        return (
            report.pi_certificate.verdict == "non_member"
            and report.pi_certificate.verify(pi, flat)
            and report.epsilon_certificate.verdict == "member"
            and report.epsilon_certificate.verify(eps, flat)
        )
    rays = int_vrep(eps)
    if len(report.pi_decompositions) != len(rays):
        raise ShapeError(
            f"{len(report.pi_decompositions)} pi decompositions for {len(rays)} epsilon extreme rays"
        )
    return all(
        Certificate("member", "conic_decomposition", decomposition=terms).verify(pi, ray)
        for ray, terms in zip(rays, report.pi_decompositions)
    )


def is_nuclear_fd(space: AOUSpace) -> bool:
    """Nuclearity of a single finite-dimensional space: its cone is simplicial.

    The paper's local characterization makes a finite-dimensional AOU space
    nuclear exactly when its cone is simplicial, and pi = epsilon fails for
    every pair of non-simplicial factors (Aubrun, Lami, Palazuelos & Plavala,
    Entangleability of cones, GAFA 31, 2021), so one rank test decides it.
    """
    space.cone.require_polyhedral("nuclearity")
    return is_simplicial(space.cone)


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
        for a, row in enumerate(hrows):
            for sign in (1, -1):
                coeff = tuple(-sign * (w[j] - w[last]) * x for j in range(last) for x in ag[a])
                key = (coeff + (ae[a], -ae[a]), sign * (w[last] * ae[a] - dot(row, v)))
                defect.setdefault(key, ("defect", vi, a, sign))
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
    pos, dfc = zeros(d), [zeros(d)] * k
    for name, mu in duals:
        if name[0] == "positive":
            pos = vadd(pos, vscale(mu, hrows[name[2]]))
        else:
            _, vi, a, sign = name
            dfc = [vadd(x, vscale(mu * sign * dot(f, vectors[vi]), hrows[a])) for x, f in zip(dfc, phi_rows)]
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
    return dual(cone) if cone.inequalities is not None else Cone.from_generators(cone.hrep(), cone.dim)


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


def _seed_states(pool: list[Vec], d: int) -> list[int]:
    """The d states with the largest |det| (the first such tuple), so phi
    starts injective; SizeLimitError past FACTORIZE_SCAN_CAP determinants."""
    scan = comb(len(pool), d)
    if scan > FACTORIZE_SCAN_CAP:
        raise SizeLimitError(
            f"factorize: seed scan of C({len(pool)}, {d}) = {scan} determinants "
            f"exceeds FACTORIZE_SCAN_CAP = {FACTORIZE_SCAN_CAP}"
        )
    best_det, seed = None, None
    for combo in combinations(range(len(pool)), d):
        dv = abs(det(Matrix.from_rows([pool[i] for i in combo])))
        if best_det is None or dv > best_det:
            best_det, seed = dv, combo
    return list(seed) if seed is not None and best_det else list(range(min(d, len(pool))))


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

    The LP and the tightness check that recomputes the defect take one vertex
    of each +- pair, since the residual of -v is minus that of v. The check
    reads that half in reverse sorted order, the order in which the sorted
    ball first meets each pair, so the worst residual it picks is the full
    scan's up to sign, and the next state, chosen by |f(residual)|, is the
    same. Each residual's order norm is the largest |s(residual)| over the
    extreme states s already in hand (Paulsen & Tomforde, Vector spaces with
    an order unit, 2009): no order-norm LP runs, and the check does not rest
    on the defect LP it checks. Each greedy step keeps its psi and dual
    multipliers proving its optimum (`DefectStep`), the evidence
    `_factorization_holds` checks a result against.
    """
    eps = frac(eps)
    if eps < 0:
        raise InputError(f"factorize: eps must be nonnegative, got {eps}")
    space.cone.require_polyhedral("factorization")
    bad = order_unit_failures(int_hrep(space.cone), space.unit)
    if bad:
        raise _not_an_order_unit(bad[0])
    d = space.dim

    if is_simplicial(space.cone):
        rays = extreme_rays(space.cone)
        basis_cols = Matrix.from_rows(list(zip(*rays))) if d else Matrix.identity(0)
        alpha = solve(basis_cols, space.unit)
        if alpha is None or not all(a > 0 for a in alpha):
            raise InvariantViolation(
                "factorize: the unit is not a positive combination of the extreme rays"
            )
        scaled = [tuple(a * x for x in ray) for a, ray in zip(alpha, rays)]
        psi_m = Matrix.from_rows(list(zip(*scaled)))
        try:
            phi_m = inverse(psi_m)
        except ShapeError as exc:
            raise InvariantViolation("factorize: the scaled extreme rays are not a basis") from exc
        phi = UnitalMap(space, linf(d), phi_m)
        psi = UnitalMap(linf(d), space, psi_m)
        if not (phi.unital and phi.positive and psi.unital and psi.positive):
            raise InvariantViolation("factorize: simplicial phi or psi is not unital positive")
        if (psi_m @ phi_m).data != Matrix.identity(d).data:
            raise InvariantViolation("factorize: simplicial psi . phi is not the identity")
        return FactorizationResult(
            phi=phi,
            psi=psi,
            defect=Fraction(0),
            success=True,
            states_used=d,
            schedule=((d, Fraction(0)),),
            exhausted=False,
        )

    pool = [s.functional for s in extreme_states(space)]
    chosen = _seed_states(pool, d)
    half = list(reversed(unit_ball_half(space)))
    schedule: list[tuple[int, Fraction]] = []
    steps: list[DefectStep] = []
    best: tuple[Fraction, Matrix, list[Vec]] | None = None
    while True:
        phi_rows = [pool[i] for i in chosen]
        psi_m, defect, multipliers = _best_psi(space, phi_rows, unit_ball_vertices(space))
        # the LP bound is tight: recompute the defect from the solution
        residuals, norms = _residual_norms(pool, psi_m @ Matrix.from_rows(phi_rows), half)
        recomputed = max(norms, default=Fraction(0))
        if recomputed != defect:
            raise InvariantViolation("defect LP bound is not tight")
        schedule.append((len(chosen), defect))
        steps.append(DefectStep(psi_m.data, multipliers))
        if best is None or defect < best[0]:
            best = (defect, psi_m, phi_rows)
        if defect <= eps or len(chosen) >= min(len(pool), FACTORIZE_STATE_CAP):
            break
        chosen.append(_next_state(pool, chosen, residuals, norms))

    defect, psi_m, phi_rows = best
    k = len(phi_rows)
    phi = UnitalMap(space, linf(k), Matrix.from_rows(phi_rows))
    psi = UnitalMap(linf(k), space, psi_m)
    if not (phi.unital and phi.positive):
        raise InvariantViolation("factorize: phi into linf(k) is not unital positive")
    if not (psi.unital and psi.positive):
        raise InvariantViolation("factorize: psi from linf(k) is not unital positive")
    return FactorizationResult(
        phi=phi,
        psi=psi,
        defect=defect,
        success=defect <= eps,
        states_used=k,
        schedule=tuple(schedule),
        exhausted=len(chosen) >= min(len(pool), FACTORIZE_STATE_CAP),
        steps=tuple(steps),
    )


def _column_in_cone(cone: Cone, v: Vec) -> bool:
    """v in the cone, by the rows of an H-cone or, in a V-cone, as a
    positive multiple of a generator: exact on the extreme rays, which the
    columns of a simplicial psi are."""
    if cone.inequalities is not None:
        return all(dot(a, v) >= 0 for a in cone.inequalities)
    for g in cone.generators:
        l = next(i for i, x in enumerate(g) if x)
        if v[l] / g[l] > 0 and vscale(v[l] / g[l], g) == v:
            return True
    return False


def _factorization_holds(space: AOUSpace, eps: Fraction, res: FactorizationResult) -> bool:
    """Whether every claim of a factorize result holds, from its evidence
    and the space alone: no defect LP and no membership test.

    With no steps the claim is an exact factorization through linf(dim):
    psi phi = id with phi and psi unital positive, which only a simplicial
    space has. phi is positive when it is nonnegative on every generator;
    psi when each column is in the cone, by the rows of an H-cone or, in a
    V-cone, as a positive multiple of a generator, which each extreme ray
    is.

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
    if not res.steps:
        ones = (Fraction(1),) * d
        return (
            (res.defect, res.success, res.states_used, res.exhausted) == (0, True, d, False)
            and res.schedule == ((d, Fraction(0)),)
            and phi_m.rows == d
            and phi_m.apply(space.unit) == ones
            and psi_m.apply(ones) == space.unit
            and (psi_m @ phi_m).data == Matrix.identity(d).data
            and all(x >= 0 for g in space.cone.vrep() for x in phi_m.apply(g))
            and all(_column_in_cone(space.cone, col) for col in psi_m.transpose().data)
        )

    vectors = unit_ball_vertices(space)
    pool = [s.functional for s in extreme_states(space)]
    if len(pool) == d:
        # a simplicial space factors exactly, with no greedy step
        return False
    if len(res.schedule) != len(res.steps):
        raise ShapeError(f"{len(res.steps)} steps for a schedule of {len(res.schedule)}")
    hrows = space.cone.hrep()
    half = list(reversed(unit_ball_half(space)))
    chosen = _seed_states(pool, d)
    limit = min(len(pool), FACTORIZE_STATE_CAP)
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
        stop = defect <= eps or k >= limit
        if stop != (n == len(res.steps) - 1):
            return False
        if not stop:
            chosen.append(_next_state(pool, chosen, residuals, norms))
    defect, psi, phi_rows = best
    return (
        res.defect == defect
        and res.success == (defect <= eps)
        and res.states_used == len(phi_rows)
        and res.exhausted == (len(chosen) >= limit)
        and phi_m.data == tuple(phi_rows)
        and psi_m.data == psi.data
    )
