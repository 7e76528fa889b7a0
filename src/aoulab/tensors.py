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

from .cones import Certificate, Cone, _cached, contains, extreme_rays, int_vrep, is_simplicial, member
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
    vec,
    vsub,
    zeros,
)
from .lp import GE, OPTIMAL, solve_lp
from .maps import UnitalMap, _unital_positive_rows
from .spaces import (
    AOUSpace,
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


@_cached
def tensor_space(left: AOUSpace, right: AOUSpace, kind: str) -> TensorSpace:
    """The epsilon or pi tensor space of left and right, cached by left
    under (right, kind), so it lives as long as the left factor."""
    if kind not in (EPSILON, PI):
        raise InputError(f"unknown tensor cone kind {kind!r}")
    for sp in (left, right):
        sp.cone.require_polyhedral("tensor cones")
    dim = left.dim * right.dim
    unit = kron_vec(left.unit, right.unit)
    if kind == EPSILON:
        rows = [
            kron_vec(f.functional, g.functional)
            for f in extreme_states(left)
            for g in extreme_states(right)
        ]
        cone = Cone.from_inequalities(rows, dim=dim)
    else:
        gens = [
            kron_vec(v, w)
            for v in left.cone.vrep()
            for w in right.cone.vrep()
        ]
        cone = Cone.from_generators(gens, dim)
    realized = AOUSpace(
        dim=dim,
        cone=cone,
        unit=unit,
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


def is_nuclear_pairwise(left: AOUSpace, right: AOUSpace) -> NuclearityReport:
    """Exact equality test of the two tensor cones on left (x) right.

    The pi cone always sits inside the epsilon cone; that inclusion is
    asserted.  Equality is decided by running every extreme ray of the
    epsilon cone through a pi membership test, so a negative answer comes
    with an explicit element of epsilon minus pi and a Farkas witness.
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
    matched, unmatched = [], []
    for ray in int_vrep(eps.realized.cone):
        (matched if ray in gen_index else unmatched).append(ray)
    for ray in map(vec, unmatched):
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
    for ray in matched:
        idx = gen_index[ray]
        g = pi_cone.generators[idx]
        j = next(i for i, x in enumerate(g) if x != 0)
        cert = Certificate(
            verdict="member",
            kind="conic_decomposition",
            decomposition=((idx, ray[j] / g[j]),),
        )
        if not cert.verify(pi_cone, ray):
            raise InvariantViolation("matched ray decomposition failed to verify")
    return NuclearityReport(nuclear=True)


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
class FactorizationResult:
    phi: UnitalMap
    psi: UnitalMap
    defect: Fraction
    success: bool
    states_used: int
    schedule: tuple[tuple[int, Fraction], ...]
    exhausted: bool


def _best_psi(space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec]):
    """One LP: the unital positive psi: linf(k) -> space minimizing the worst
    order norm of psi(phi(v)) - v over the given vectors.  Variables are the
    dim x k entries of psi, row-major, plus the defect bound t (last
    variable), with t (a . e) >= +-(a . psi(phi(v)) - a . v) for each H-row a.

    Each defect row (coefficients, rhs) is added once: v and -v give the
    same two rows with the signs swapped, and unit-ball vertices come in
    such pairs."""
    d, k = space.dim, len(phi_rows)
    rows, rhs, senses = _unital_positive_rows(linf(k), space, (), extra=1)
    hrows = space.cone.hrep()
    defect_rows: dict = {}
    for v in vectors:
        w = tuple(dot(row, v) for row in phi_rows)
        for a in hrows:
            ae, av, aw = dot(a, space.unit), dot(a, v), kron_vec(a, w)
            for sign in (1, -1):
                defect_rows.setdefault((tuple(-sign * x for x in aw) + (ae,), -sign * av))
    for coeff, b in defect_rows:
        rows.append(coeff)
        rhs.append(b)
        senses.append(GE)
    obj = zeros(d * k) + (Fraction(1),)
    out = solve_lp(obj, rows, rhs, senses, nonneg=[False] * (d * k) + [True])
    if out.status != OPTIMAL:
        raise InvariantViolation("defect LP must be solvable")
    return Matrix.from_rows(out.primal[i * k : (i + 1) * k] for i in range(d)), out.value


def _residual_norms(pool: list[Vec], psi_phi: Matrix, half: list[Vec]) -> tuple[list[Vec], list[Fraction]]:
    """The residuals psi(phi(v)) - v over half, and their order norms, each
    the largest |s(residual)| over the extreme states s in pool."""
    residuals = [vsub(psi_phi.apply(v), v) for v in half]
    return residuals, [max(abs(dot(s, res)) for s in pool) for res in residuals]


def factorize(space: AOUSpace, eps: Fraction | int = Fraction(1, 10)) -> FactorizationResult:
    """Approximate factorization of the identity through a coordinate space.

    phi collects state evaluations; psi is the best unital positive return
    map for the current state set, found by a single LP.  The state set
    grows greedily (most violated state first) until the defect drops below
    eps or the states run out.  The defect is taken over the unit ball
    vertices, so it equals the operator norm of psi . phi - id exactly.  No
    defect is below a negative eps, so such an eps is bad input (InputError).

    The LP poses its rows over every ball vertex; the tightness check
    recomputes the defect over one vertex of each +- pair, since the
    residual of -v is minus that of v and has the same norm.  It reads that
    half in reverse sorted order, the order in which the sorted ball first
    meets each pair, so the worst residual it picks is the full scan's up
    to sign, and the next state, chosen by |f(residual)|, is the same.
    Each residual's order norm is the largest |s(residual)| over the
    extreme states s already in hand (Paulsen & Tomforde, Vector spaces
    with an order unit, 2009): no order-norm LP runs, and the check does
    not rest on the defect LP it checks.
    """
    eps = frac(eps)
    if eps < 0:
        raise InputError(f"factorize: eps must be nonnegative, got {eps}")
    space.cone.require_polyhedral("factorization")
    vectors = unit_ball_vertices(space)
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
    scan = comb(len(pool), d)
    if scan > FACTORIZE_SCAN_CAP:
        raise SizeLimitError(
            f"factorize: seed scan of C({len(pool)}, {d}) = {scan} determinants "
            f"exceeds FACTORIZE_SCAN_CAP = {FACTORIZE_SCAN_CAP}"
        )
    # seed: d states with the largest |det|, so phi starts injective
    best_det, seed = None, None
    for combo in combinations(range(len(pool)), d):
        dv = abs(det(Matrix.from_rows([pool[i] for i in combo])))
        if best_det is None or dv > best_det:
            best_det, seed = dv, combo
    chosen = list(seed) if seed is not None and best_det else list(range(min(d, len(pool))))
    half = list(reversed(unit_ball_half(space)))
    schedule: list[tuple[int, Fraction]] = []
    best: tuple[Fraction, Matrix, list[Vec]] | None = None
    while True:
        phi_rows = [pool[i] for i in chosen]
        psi_m, defect = _best_psi(space, phi_rows, vectors)
        # the LP bound is tight: recompute the defect from the solution
        residuals, norms = _residual_norms(pool, psi_m @ Matrix.from_rows(phi_rows), half)
        recomputed = max(norms, default=Fraction(0))
        if recomputed != defect:
            raise InvariantViolation("defect LP bound is not tight")
        schedule.append((len(chosen), defect))
        if best is None or defect < best[0]:
            best = (defect, psi_m, phi_rows)
        if defect <= eps or len(chosen) >= min(len(pool), FACTORIZE_STATE_CAP):
            break
        # add the state most violated by the worst residual (the first of
        # equally bad ones)
        residual = residuals[norms.index(recomputed)]
        remaining = [i for i in range(len(pool)) if i not in chosen]
        chosen.append(max(remaining, key=lambda i: abs(dot(pool[i], residual))))

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
    )
