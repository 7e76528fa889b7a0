"""Shared test helpers: independent oracles the implementations are checked
against, plus deterministic random generators for the randomized suites.

The oracles deliberately use different algorithms from the package (subset
enumeration and characteristic polynomials instead of double description and
LDL^T; one exact LP per generator or basis vector instead of facet incidence
and H-row sign tests; the rank of the facet rows tight at a generator
instead of comparing tight-row bitmasks; explicit product decompositions instead of the factor
row test for pi units; Gauss-Jordan over Fractions instead of fraction-free
integer elimination; a Fraction product and sum per term instead of one
numerator over a common denominator) so agreement is meaningful.  Some are second routes to a
verdict that the package decides by one route: pairwise cone equality against
a battery of partners for single-space nuclearity, and pi membership of
every epsilon extreme ray for pairwise nuclearity, where the package reads
it off simpliciality, the largest |f(v)| over the extreme states for the
order norm, where the package solves one LP, f(e) - 2 min f over [0, e]
for the dual norm, `validate` for the spaces `archimedeanize` builds,
the meet cone /\\ (J - cone) for order ideals and the Archimedeanization
of the projected cone for quotients, where the package reads the image
cone in V/J, the induced map on the kernel quotient for order quotients,
the epsilon order norm for the injective norm, one LP over the cone rows for the minimum of a
functional on the order interval, one LP per source state for the
isometry of a map, one LP for the minimal-mass signed measure of a
functional over the states, and the pull-back of each factor's extreme
states for the positivity of a tensor map on epsilon, which the package
proves in `tensor_map`'s docstring and does not check.  The LP builders
(`extension_lp_rows`, `psi_lp_without_dedup`, `psi_lp_in_generators`)
index the matrix entries by hand instead of through `kron_vec`, and the
last one takes the start defect off the extreme states instead of the
cone rows; `defect_bound_oracle` decides factorize's multipliers by weak
duality over that last LP's rows, where the package sums one functional
per column and tests it at the cone's generators.  The full-ball scans
(operator norm, dual norm, Auerbach |det| scan by Fraction elimination)
visit every vertex of the unit ball, where the package takes one vertex of
each +- pair; the |det| scans are the maxima the package's single-vertex
exchange is compared with, and `no_swap_raises_det` tests its local
maximality by a Fraction determinant per swap. `auerbach_oracle` decides
an Auerbach claim by the states' order norms and full-ball dual norms.  The Fraction routes of the geometry (`fraction_states`,
`fraction_interval_vertices`, `fraction_ball_vertices` and
`fraction_max_det`, for the factorize seed scan, and
`fraction_next_state`, for factorize's greedy pick) divide
Fraction rays and vertices and take Fraction determinants, where the package keeps the DD's integer rows and
builds one Fraction per returned coordinate; `greedy_oracle` recomputes
factorize's schedule, best step and flags from a report's psi by those
routes over the full ball.  The Fraction routes of the
integer cones, spaces and maps (`fraction_validate`, `fraction_member`,
`fraction_verify`, `fraction_positive`) read the Fraction views hrep() and
vrep() with a Fraction dot per row, where the package reads the coprime
integer rows with their scales.  `own_rows_oracle` splits a cone's rows
by Fraction arithmetic and `integerize`, as the constructors did before
the split moved into `Cone.__post_init__`.  `rerun_verifies` confirms a CLI report by running its verb
again and comparing the results through a JSON round trip, where `verify`
checks the evidence of the seven verbs that carry it, and
`argparse_parser` reads argv with the argparse parser the verb table once
built, where `cli._parse` matches argv against the table by hand.  The block form of a
4x4 matrix on the 2 (x) 2 square is expanded as a polynomial in x0, x1,
y0, y1 (`biquadratic_form`, `sum_of_bilinear_squares`), where
`psd_examples.sos_matches` tests one linear identity, and
`blockwise_transpose` transposes the 2x2 blocks, where the package's
partial transpose moves entries by index; `grid_counterexample` scans
`block_positive`'s grid with a Fraction product per term, where the
package takes `dot` of z and m z, and `unfiltered_block_positive` tries
every Gram shift, where the package skips those m's diagonal rules out.
`polytope_vertices` runs one homogenized DD from scratch, where the
package's order interval resumes the cone's own DD.  `evidence_oracle` decides
whether a PSD-example verdict's evidence proves its claim from those two
and characteristic polynomials, for the sweep of `evidence_edits`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

import aoulab.dd
from aoulab.cli import _META_KEYS, _VERBS, _plain
from aoulab.cones import (
    Certificate,
    Cone,
    close_and_lineality,
    contains,
    dual,
    extreme_rays,
    image_cone,
    int_hrep,
    int_vrep,
    member,
    same_cone,
)
from aoulab.errors import InputError, InvariantViolation, ShapeError
from aoulab.linalg import (
    Matrix, Vec, combine, frac, integerize, is_zero_vec, quotient_matrix, unit_vec, vec, zeros
)
from aoulab.lp import EQ, GE, INFEASIBLE, OPTIMAL, solve_lp
from aoulab.psd import ldlt_psd
from aoulab.maps import IdealReport, UnitalMap, interval_min
from aoulab.spaces import (
    AOUSpace, ValidationReport, archimedeanize, extreme_states, lin_space, linf, order_norm,
    unit_ball_vertices, validate,
)
from aoulab.tensors import EPSILON, PI, TensorElement, _seed_states, kron_vec, tensor_space


@pytest.fixture()
def dd_calls(monkeypatch) -> list:
    """One entry per dd_pair call made while the test runs: its row count."""
    calls = []
    real = aoulab.dd.dd_pair

    def counted(rows, dim):
        calls.append(len(rows))
        return real(rows, dim)

    monkeypatch.setattr(aoulab.dd, "dd_pair", counted)
    return calls


@pytest.fixture()
def dd_resumes(monkeypatch) -> list:
    """One entry per `dd.resume` call made while the test runs: the number
    of rows it inserts."""
    calls = []
    real = aoulab.dd.resume

    def counted(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(aoulab.dd, "resume", counted)
    return calls


def refused_norms() -> list[tuple[AOUSpace, Vec]]:
    """(space, v) pairs whose v the unit dominates, yet order_norm refuses:
    the orthant with its unit on a facet, the half-plane {x1 >= 0}, whose
    lineality is (0, 1), and the ray cone((1, 0)), not full-dimensional."""
    return [
        (AOUSpace(2, Cone.from_generators([(1, 0), (0, 1)]), (1, 0)), (1, 0)),
        (AOUSpace(2, Cone.from_inequalities([(1, 0)]), (1, 0)), (1, 0)),
        (AOUSpace(2, Cone.from_generators([(1, 0)], dim=2), (1, 0)), (Fraction(1, 2), 0)),
    ]


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_frac(r: random.Random, lo: int = -4, hi: int = 4, den: int = 3) -> Fraction:
    return Fraction(r.randint(lo, hi), r.randint(1, den))


def rand_vec(r: random.Random, n: int, lo: int = -4, hi: int = 4, den: int = 3) -> Vec:
    return vec([rand_frac(r, lo, hi, den) for _ in range(n)])


# -- Fraction arithmetic: the oracles for the integer kernels in linalg -------


def fraction_dot(a, b) -> Fraction:
    """a . b with one Fraction product and one Fraction sum per term: the
    oracle for linalg's dot kernel, which keeps one integer numerator over a
    common denominator. The oracles below do their own arithmetic with it."""
    if len(a) != len(b):
        raise ShapeError(f"dot: length {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def fraction_apply(m: Matrix, v) -> Vec:
    """m v by fraction_dot, row by row."""
    return tuple(fraction_dot(r, v) for r in m.data)


def fraction_eliminate(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan over Fractions, in place: pivots are searched in the
    first ncols columns, each pivot row is divided by its pivot and the
    pivot column is cleared in every other row. Returns (reduced rows,
    pivot cols)."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_rref(m: Matrix) -> tuple[Matrix, list[int]]:
    rows, pivots = fraction_eliminate([list(r) for r in m.data], m.cols)
    return Matrix.from_rows(rows), pivots


def fraction_rank(m: Matrix) -> int:
    return len(fraction_rref(m)[1])


def fraction_solve(m: Matrix, b) -> Vec | None:
    """One solution of m x = b with the free variables zero; None if none."""
    rows = [list(r) + [frac(x)] for r, x in zip(m.data, b)]
    rows, pivots = fraction_eliminate(rows, m.cols)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * m.cols
    for i, c in enumerate(pivots):
        x[c] = rows[i][-1]
    return tuple(x)


def fraction_nullspace(m: Matrix) -> list[Vec]:
    """Kernel basis, one vector per free column of the reduced form."""
    reduced, pivots = fraction_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced.data[i][fc]
        basis.append(tuple(v))
    return basis


def fraction_inverse(m: Matrix) -> Matrix | None:
    """m^-1 by reducing [m | I]; None when m is singular."""
    n = m.rows
    rows = [list(r) + list(unit_vec(i, n)) for i, r in enumerate(m.data)]
    rows, pivots = fraction_eliminate(rows, n)
    return Matrix.from_rows([r[n:] for r in rows]) if len(pivots) == n else None


def rank_completed_quotient_matrix(kernel, dim: int) -> Matrix:
    """`quotient_matrix` by one rank test per standard vector: e_i joins the
    basis B when it is independent of the vectors before it, and the rows
    of (B^T)^-1 past the kernel are the quotient. Dependent kernel vectors
    never complete to a basis."""
    basis = [vec(v) for v in kernel]
    for i in range(dim):
        cand = basis + [unit_vec(i, dim)]
        if fraction_rank(Matrix.from_rows(cand)) == len(cand):
            basis = cand
    inv = fraction_inverse(Matrix.from_rows(basis).transpose()) if len(basis) == dim else None
    if inv is None:
        raise InvariantViolation("kernel completion failed to reach a basis")
    return Matrix(inv.data[len(kernel):])


def fraction_det(m: Matrix) -> Fraction:
    """Product of the pivots of forward elimination over Fractions, with a
    sign flip per row swap."""
    n = m.rows
    rows = [list(r) for r in m.data]
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def brute_extreme_rays(rows: list[Vec], dim: int) -> set[tuple[int, ...]]:
    """Extreme rays of a pointed cone {x : rows . x >= 0} by subset search.

    A direction is an extreme ray iff it is feasible and the rows tight at it
    have rank dim-1. Enumerate row subsets of size dim-1, take nullspaces.
    """
    out: set[tuple[int, ...]] = set()
    for subset in combinations(range(len(rows)), dim - 1):
        # the empty subset (dim 1) leaves the whole line free
        ns = fraction_nullspace(Matrix.from_rows([rows[i] for i in subset])) if subset else Matrix.identity(dim).data
        if len(ns) != 1:
            continue
        for cand in (ns[0], tuple(-x for x in ns[0])):
            if all(fraction_dot(r, cand) >= 0 for r in rows):
                tight = [r for r in rows if fraction_dot(r, cand) == 0]
                if (fraction_rank(Matrix.from_rows(tight)) if tight else 0) == dim - 1:
                    out.add(integerize(cand))
    return out


def lp_member(cone: Cone, v) -> Certificate:
    """Membership in a V-rep cone by one LP, v = G c with c >= 0, with no
    double description: an optimum is a conic decomposition, and the Farkas
    multipliers of an infeasible LP give a separating functional. Other
    cones go through `member`, which decides them by H-row evaluation or
    LDL^T, also without a DD."""
    if cone.generators is None:
        return member(cone, v)
    v = vec(v)
    if len(v) != cone.dim:
        raise ShapeError(f"vector length {len(v)} != cone dim {cone.dim}")
    gens = cone.vrep()
    if not gens:
        if is_zero_vec(v):
            return Certificate("member", "conic_decomposition", decomposition=())
        # the zero cone: any functional negative on v separates
        w = tuple(-x for x in v)
        return Certificate("non_member", "separating_functional", witness=w)
    cols = Matrix.from_rows(gens).transpose()
    out = solve_lp(
        zeros(len(gens)),
        [cols.row(i) for i in range(cone.dim)],
        v,
        [EQ] * cone.dim,
        nonneg=[True] * len(gens),
    )
    if out.status == OPTIMAL:
        decomp = tuple(
            (j, out.primal[j]) for j in range(len(gens)) if out.primal[j] != 0
        )
        cert = Certificate("member", "conic_decomposition", decomposition=decomp)
    else:
        if out.status != INFEASIBLE:
            raise InvariantViolation("membership LP can only be optimal or infeasible")
        # Farkas multipliers on the equality rows give f with f.G <= 0,
        # f.v > 0; negate for the standard orientation.
        f = out.dual_certificate[: cone.dim]
        w = vec(integerize([-x for x in f]))
        cert = Certificate("non_member", "separating_functional", witness=w)
    if not cert.verify(cone, v):
        raise InvariantViolation("membership certificate failed re-verification")
    return cert


def lp_extreme_rays(cone: Cone) -> list[Vec]:
    """Extreme rays of a pointed V-rep cone by redundancy LPs: a deduplicated
    generator is extreme iff it is not in the cone of the others."""
    gens = [vec(g) for g in dict.fromkeys(integerize(g) for g in cone.generators)]
    rays = []
    for i, g in enumerate(gens):
        others = Cone.from_generators([h for j, h in enumerate(gens) if j != i], dim=cone.dim)
        if lp_member(others, g).verdict != "member":
            rays.append(g)
    return sorted(rays)


def rank_extreme_rays(cone: Cone) -> list[Vec]:
    """Extreme rays of a pointed V-rep cone by the rank test on its facet
    rows: a deduplicated generator is extreme iff the rows tight at it have
    rank dim - 1 (a zero generator has every row tight, of rank dim)."""
    rows = int_hrep(cone)
    rays = []
    for g in dict.fromkeys(int_vrep(cone)):
        tight = [r for r in rows if fraction_dot(r, g) == 0]
        if (fraction_rank(Matrix.from_rows(tight)) if tight else 0) == cone.dim - 1:
            rays.append(g)
    return [vec(g) for g in sorted(rays)]


def lp_is_pointed(cone: Cone) -> bool:
    """A V-rep cone is pointed iff no convex combination of its (nonzero)
    generators is zero: one feasibility LP."""
    gens = cone.generators
    if not gens:
        return True
    rows = [tuple(g[i] for g in gens) for i in range(cone.dim)] + [(1,) * len(gens)]
    out = solve_lp(
        (0,) * len(gens),
        rows,
        (0,) * cone.dim + (1,),
        [EQ] * len(rows),
        nonneg=[True] * len(gens),
    )
    return out.status != OPTIMAL


def lp_contains(outer: Cone, inner: Cone) -> bool:
    """outer >= inner by one membership test (an LP for V-rep outer cones)
    per generator of inner."""
    return all(lp_member(outer, g).verdict == "member" for g in inner.vrep())


def lp_order_unit_failure(space: AOUSpace) -> int | None:
    """First basis index i that no multiple of the unit dominates, or None
    when the unit is an order unit: per basis vector, the LP
    min r s.t. r*e +- e_i in the closed cone, r >= 0."""
    closed, _ = close_and_lineality(space.cone)
    for i in range(space.dim):
        v = unit_vec(i, space.dim)
        rows, rhs = [], []
        for a in closed.hrep():
            rows += [(fraction_dot(a, space.unit),)] * 2
            rhs += [-fraction_dot(a, v), fraction_dot(a, v)]
        out = solve_lp((1,), rows, rhs, [GE] * len(rows), nonneg=[True])
        if out.status != OPTIMAL:
            return i
    return None


def _unit_shift_decomposition(gens: tuple[Vec, ...], unit: Vec, b: Vec):
    """Minimal r with r*unit - b a conic combination of gens, plus the
    coefficients; None when no r works."""
    dim = len(unit)
    rows = [tuple([unit[c]] + [-g[c] for g in gens]) for c in range(dim)]
    out = solve_lp(
        vec([1] + [0] * len(gens)),
        rows,
        list(b),
        [EQ] * dim,
        nonneg=[True] * (1 + len(gens)),
    )
    if out.status != OPTIMAL:
        return None
    return out.primal[0], out.primal[1:]


def _cone_coefficients(gens: tuple[Vec, ...], target: Vec) -> Vec | None:
    rows = [tuple(g[c] for g in gens) for c in range(len(target))]
    out = solve_lp(
        vec([0] * len(gens)),
        rows,
        list(target),
        [EQ] * len(target),
        nonneg=[True] * len(gens),
    )
    return out.primal if out.status == OPTIMAL else None


def lp_pi_order_unit(left: AOUSpace, right: AOUSpace) -> None:
    """Raise InvariantViolation unless e_V (x) e_W is an order unit of the pi
    cone of left (x) right, by explicit decompositions: per factor and basis
    vector b, the least r with r e +- b a conic combination of the factor
    generators (2 dim + 1 LPs per factor), then the products of those
    decompositions are expanded over the pi generators and must rebuild
    r s e (x) e +- b (x) c exactly."""
    vg, wg = left.cone.vrep(), right.cone.vrep()
    gens = [kron_vec(v, w) for v in vg for w in wg]
    unit = kron_vec(left.unit, right.unit)
    # per factor and basis vector: coefficients of r e + b and r e - b over
    # the factor generators, with one shared r (padded by the decomposition
    # of the unit itself)
    factor_dec = []
    for sp, basis_gens in ((left, vg), (right, wg)):
        eta = _cone_coefficients(basis_gens, sp.unit)
        if eta is None:
            raise InvariantViolation("factor unit escaped its own cone")
        per_basis = []
        for i in range(sp.dim):
            b = unit_vec(i, sp.dim)
            plus = _unit_shift_decomposition(basis_gens, sp.unit, tuple(-x for x in b))
            minus = _unit_shift_decomposition(basis_gens, sp.unit, b)
            if plus is None or minus is None:
                raise InvariantViolation("factor unit fails the order unit test")
            r = max(plus[0], minus[0])
            lam_p = tuple(x + (r - plus[0]) * h for x, h in zip(plus[1], eta))
            lam_m = tuple(x + (r - minus[0]) * h for x, h in zip(minus[1], eta))
            per_basis.append((r, lam_p, lam_m))
        factor_dec.append(per_basis)

    # (r e + v)(x)(s e + w) + (r e - v)(x)(s e - w) = 2 r s e(x)e + 2 v(x)w
    nw = len(wg)
    dim = len(unit)
    for i in range(left.dim):
        r, lam_p, lam_m = factor_dec[0][i]
        for j in range(right.dim):
            s, mu_p, mu_m = factor_dec[1][j]
            b_flat = kron_vec(unit_vec(i, left.dim), unit_vec(j, right.dim))
            for sgn in (1, -1):
                pairs = ((lam_p, mu_p), (lam_m, mu_m)) if sgn == 1 else ((lam_p, mu_m), (lam_m, mu_p))
                total = [Fraction(0)] * dim
                for lam, mu in pairs:
                    for a, la in enumerate(lam):
                        for bix, muv in enumerate(mu):
                            c = la * muv / 2
                            if c:
                                g = gens[a * nw + bix]
                                for t in range(dim):
                                    total[t] += c * g[t]
                expect = tuple(r * s * u + sgn * x for u, x in zip(unit, b_flat))
                if tuple(total) != expect:
                    raise InvariantViolation("pi unit fails the order unit test")


def epsilon_pullback_positive(s: UnitalMap, t: UnitalMap) -> bool:
    """S (x) T is positive on the epsilon cones by its factors, with no
    flag of the tensor map: it pulls a row f (x) g back to
    (S^T f) (x) (T^T g), so it is enough that each factor pulls every
    extreme target state into the cone the source states generate, one LP
    per pulled state (`lp_contains`)."""
    for m in (s, t):
        hull = Cone.from_generators(extreme_states(m.source), m.source.dim)
        mt = m.matrix.transpose()
        pulled = [mt.apply(st) for st in extreme_states(m.target)]
        if not lp_contains(hull, Cone.from_generators(pulled, m.source.dim)):
            return False
    return True


def extension_lp_rows(w2: AOUSpace, basis: list[Vec], vals: list[Vec], v: AOUSpace):
    """The feasibility LP of `maps.extend_unital_positive` as (rows, rhs,
    senses), built with its own index arithmetic over the row-major matrix
    entries: the given values, then the units, then one positivity row per
    source generator and target H-row."""
    nw, nv = w2.dim, v.dim
    nvars = nv * nw

    def entry(rr, cc):
        return rr * nw + cc

    rows, rhs, senses = [], [], []
    for b, val in list(zip(basis, vals)) + [(w2.unit, v.unit)]:
        for r in range(nv):
            row = [Fraction(0)] * nvars
            for c in range(nw):
                row[entry(r, c)] = b[c]
            rows.append(tuple(row))
            rhs.append(val[r])
            senses.append(EQ)
    for g in w2.cone.vrep():
        for a in v.cone.hrep():
            row = [Fraction(0)] * nvars
            for r in range(nv):
                for c in range(nw):
                    row[entry(r, c)] += a[r] * g[c]
            rows.append(tuple(row))
            rhs.append(Fraction(0))
            senses.append(GE)
    return rows, rhs, senses


def psi_lp_without_dedup(space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec]):
    """The factorization defect LP of `tensors._best_psi` as (obj, rows,
    rhs, senses, nonneg), with every defect row kept, duplicates included."""
    d, k = space.dim, len(phi_rows)
    nvars = d * k + 1
    t_ix = d * k
    hrows = space.cone.hrep()
    rows, rhs, senses = [], [], []
    for i in range(d):
        coeff = [Fraction(0)] * nvars
        for j in range(k):
            coeff[i * k + j] = Fraction(1)
        rows.append(tuple(coeff))
        rhs.append(space.unit[i])
        senses.append(EQ)
    for j in range(k):
        for a in hrows:
            coeff = [Fraction(0)] * nvars
            for i in range(d):
                coeff[i * k + j] = a[i]
            rows.append(tuple(coeff))
            rhs.append(Fraction(0))
            senses.append(GE)
    for v in vectors:
        w = tuple(fraction_dot(row, v) for row in phi_rows)
        for a in hrows:
            ae = fraction_dot(a, space.unit)
            av = fraction_dot(a, v)
            for sign in (1, -1):
                coeff = [Fraction(0)] * nvars
                coeff[t_ix] = ae
                for i in range(d):
                    for j in range(k):
                        coeff[i * k + j] = -sign * a[i] * w[j]
                rows.append(tuple(coeff))
                rhs.append(-sign * av)
                senses.append(GE)
    obj = [Fraction(0)] * nvars
    obj[t_ix] = Fraction(1)
    return vec(obj), rows, rhs, senses, [False] * (d * k) + [True]


def psi_lp_in_generators(space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec]):
    """The defect LP in the form `tensors._best_psi` solves, as (obj, rows,
    rhs, senses, nonneg), over every given vector, duplicates included.

    Variables: lam[j][i] (column j < k - 1 of psi as a combination of the
    extreme rays g_i) at index j * n + i, then u+ and u-, all nonnegative;
    column k - 1 is e minus the others and the bound is t0 + u+ - u-, t0
    the defect of the map x -> x_{k-1} e, here the largest |s(x_{k-1} e -
    v)| over the extreme states s and the vectors v."""
    gens, hrows = extreme_rays(space.cone), space.cone.hrep()
    n, last = len(gens), len(phi_rows) - 1
    nvars = n * last + 2
    t0 = psi_lp_start_defect(space, phi_rows, vectors)
    rows, rhs = [], []
    for a in hrows:
        coeff = [Fraction(0)] * nvars
        for j in range(last):
            for i, g in enumerate(gens):
                coeff[j * n + i] = -fraction_dot(a, g)
        rows.append(tuple(coeff))
        rhs.append(-fraction_dot(a, space.unit))
    for v in vectors:
        w = [fraction_dot(f, v) for f in phi_rows]
        for a in hrows:
            ae, av = fraction_dot(a, space.unit), fraction_dot(a, v)
            for sign in (1, -1):
                coeff = [Fraction(0)] * nvars
                for j in range(last):
                    for i, g in enumerate(gens):
                        coeff[j * n + i] = -sign * (w[j] - w[last]) * fraction_dot(a, g)
                coeff[nvars - 2], coeff[nvars - 1] = ae, -ae
                rows.append(tuple(coeff))
                rhs.append(sign * (w[last] * ae - av) - t0 * ae)
    obj = [Fraction(0)] * nvars
    obj[nvars - 2], obj[nvars - 1] = Fraction(1), Fraction(-1)
    return vec(obj), rows, rhs, [GE] * len(rows), [True] * nvars


def psi_lp_start_defect(space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec]) -> Fraction:
    """The t0 of `psi_lp_in_generators`: the largest |s(x_{k-1} e - v)|
    over the extreme states s and the vectors v."""
    last = phi_rows[-1]
    return max(abs(fraction_dot(last, v) - fraction_dot(s, v)) for s in extreme_states(space) for v in vectors)


def defect_bound_oracle(space: AOUSpace, phi_rows: list[Vec], vectors: list[Vec]):
    """proves(multipliers, defect): whether the named multipliers prove
    `defect` optimal for the LP `psi_lp_in_generators` poses over the
    vectors, by weak duality over its rows, one multiplier y per row:
    ("positive", a) names the a-th row, ("defect", v, a, sign) the row of
    vector v, cone row a and sign. Each named multiplier scales its row's
    inequality, so each must be >= 0; the multipliers a name repeats add
    up. Every bounded t is >= 0, so the row u+ - u- >= -t0 may join with
    nu = 1 - (y's weight on u+). The claim holds when nu >= 0,
    y^T A + nu (0, .., 0, 1, -1) <= c column by column and
    b . y - t0 nu + t0 == defect."""
    obj, rows, rhs, _, _ = psi_lp_in_generators(space, phi_rows, vectors)
    t0, m = psi_lp_start_defect(space, phi_rows, vectors), len(space.cone.hrep())

    def proves(multipliers, defect) -> bool:
        y = [Fraction(0)] * len(rows)
        for name, mu in multipliers:
            if name[0] == "positive":
                y[name[1]] += mu
            else:
                _, v, a, sign = name
                y[m + 2 * (v * m + a) + (sign == -1)] += mu
        used = [(yr, row, b) for yr, row, b in zip(y, rows, rhs) if yr]
        nu = 1 - sum(yr * row[-2] for yr, row, _ in used)
        cols = [sum(yr * row[c] for yr, row, _ in used) for c in range(len(obj))]
        cols[-2], cols[-1] = cols[-2] + nu, cols[-1] - nu
        return (
            all(mu >= 0 for _, mu in multipliers)
            and nu >= 0
            and all(x <= c for x, c in zip(cols, obj))
            and sum(yr * b for yr, _, b in used) - t0 * nu + t0 == defect
        )

    return proves


def multiplier_edits(multipliers, n_vectors: int, n_rows: int):
    """Each edit of one named multiplier of a factorize step: +-1/7, x 8/7,
    its sign flipped, dropped, its vertex or cone row index moved by one
    within range, a defect row's sign flipped, and split in two on the
    same row: into halves, the one edit that keeps the proof, and into
    mu + 1/7 and -1/7, whose sum is mu but whose second term flips its
    row."""
    for i, (name, mu) in enumerate(multipliers):
        rest = (multipliers[:i], multipliers[i + 1 :])
        for x in (mu + Fraction(1, 7), mu - Fraction(1, 7), mu * Fraction(8, 7), -mu):
            yield rest[0] + ((name, x),) + rest[1]
        yield rest[0] + rest[1]
        for x, y in ((mu / 2, mu / 2), (mu + Fraction(1, 7), Fraction(-1, 7))):
            yield rest[0] + ((name, x), (name, y)) + rest[1]
        limits = (n_rows,) if name[0] == "positive" else (n_vectors, n_rows)
        for at, n in enumerate(limits, start=1):
            for step in (1, -1):
                if 0 <= name[at] + step < n:
                    yield rest[0] + ((name[:at] + (name[at] + step,) + name[at + 1 :], mu),) + rest[1]
        if name[0] == "defect":
            yield rest[0] + ((name[:3] + (-name[3],), mu),) + rest[1]


def greedy_oracle(space: AOUSpace, eps, steps):
    """factorize's greedy loop recomputed from the psi of the given steps,
    as (schedule, (psi, phi_rows) of the first step of least defect,
    success, states_used, exhausted); None when the steps end before the
    loop stops or run past it. The seed is `tensors._seed_states` (pinned
    to `fraction_max_det`), each defect the largest order norm
    (`states_order_norm`) of psi phi(v) - v over every vertex of the ball
    by Fraction products, and each pick `fraction_next_state`, where the
    package reads one vertex of each +- pair, and checks the multipliers
    too."""
    pool, verts = extreme_states(space), unit_ball_vertices(space)
    chosen, schedule = list(_seed_states(space)), []
    for n, step in enumerate(steps):
        phi_rows = [pool[i] for i in chosen]
        psi_phi = Matrix.from_rows([[fraction_dot(row, col) for col in zip(*phi_rows)] for row in step.psi])
        residuals = [tuple(x - y for x, y in zip(fraction_apply(psi_phi, v), v)) for v in verts]
        defect = max(states_order_norm(space, res) for res in residuals)
        schedule.append((len(chosen), defect))
        if defect <= eps or len(chosen) >= len(pool):
            if n != len(steps) - 1:
                return None
            best = min(range(len(schedule)), key=lambda i: schedule[i][1])
            k, least = schedule[best]
            return tuple(schedule), (steps[best].psi, phi_rows[:k]), least <= eps, k, len(chosen) >= len(pool)
        chosen.append(fraction_next_state(space, pool, chosen, psi_phi))
    return None


def as_vertices(pairs) -> list[Vec]:
    """The integer pairs (x, t) of `polytope_vertices` as the sorted
    vertices x / t."""
    return sorted(tuple(Fraction(c, t) for c in x) for x, t in pairs)


def own_rows_oracle(rows, dim: int, scales=None, drop_zero: bool = False):
    """(own rows, scales, own view, DD) of the cone built from rows (and
    given scales) by the route the package took before the split moved
    into Cone.__post_init__, by Fraction arithmetic: each row integerized,
    its scale the ratio of a nonzero entry to the integer one (1 for a zero
    row) times its given scale, None when every scale is 1; zero rows left
    out when drop_zero (from_generators); the own view the rows as given
    times the given scales; the DD that of the integerized rows, which
    dd_pair took as they are."""
    rows = [vec(r) for r in rows]
    given = scales or [1] * len(rows)
    keep = [i for i, r in enumerate(rows) if any(r) or not drop_zero]
    ints = tuple(integerize(rows[i]) for i in keep)
    out = [
        given[i] * next((x / y for x, y in zip(rows[i], h) if y), Fraction(1)) for i, h in zip(keep, ints)
    ]
    view = tuple(tuple(given[i] * x for x in rows[i]) for i in keep)
    return ints, (tuple(out) if any(s != 1 for s in out) else None), view, aoulab.dd.dd_pair(ints, dim)


def polytope_vertices(rows, rhs, dim: int) -> list[tuple[tuple[int, ...], int]]:
    """Vertices of the polytope {x : row_i . x >= rhs_i}, for integer rows
    and rhs, from scratch: one homogenized DD of the coprime rows
    (row_i, -rhs_i) and t >= 0, one pair (x, t), t > 0, per extreme ray, in
    the DD's order, with the vertex x / t. This is the route the package's
    order interval took before it resumed the cone's own DD. The set must
    be bounded; an empty one gives []."""
    hom = [integerize((*r, -b)) for r, b in zip(rows, rhs)]
    lin, rays = aoulab.dd.dd_pair(hom + [(0,) * dim + (1,)], dim + 1)
    assert not lin and all(r[-1] > 0 for r in rays), "unbounded polytope"
    return [(r[:-1], r[-1]) for r in rays]


def rational_polytope_vertices(rows, rhs, dim: int) -> list[tuple[tuple[int, ...], int]]:
    """`polytope_vertices` of rational rows: each a . x >= b is handed
    over as the integer inequality it is a positive multiple of."""
    ints = [integerize(tuple(a) + (-frac(b),)) for a, b in zip(rows, rhs)]
    return polytope_vertices([h[:-1] for h in ints], [-h[-1] for h in ints], dim)


def brute_polytope_vertices(rows: list[Vec], rhs: list[Fraction], dim: int) -> set[Vec]:
    """Vertices of {x : rows . x >= rhs} by basis enumeration."""
    out: set[Vec] = set()
    for subset in combinations(range(len(rows)), dim):
        sub = Matrix.from_rows([rows[i] for i in subset])
        if fraction_rank(sub) != dim:
            continue
        x = fraction_solve(sub, [rhs[i] for i in subset])
        if x is None:
            continue
        if all(fraction_dot(r, x) >= b for r, b in zip(rows, rhs)):
            out.add(x)
    return out


def charpoly(m: Matrix) -> list[Fraction]:
    """Coefficients of det(tI - A), ascending degree, by Faddeev-LeVerrier."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = Matrix.identity(n)
    a = m
    for k in range(1, n + 1):
        mk = a.compose(mk)
        c = -sum(mk.data[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        mk = Matrix.from_rows(
            [[mk.data[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        )
    return coeffs


def psd_by_descartes(m: Matrix) -> bool:
    """A symmetric matrix is PSD iff det(tI-A) has no sign change pattern
    admitting a negative root: with all-real roots, all roots >= 0 iff the
    coefficients of det(tI-A) alternate as (-1)^(n-k) c_k >= 0."""
    cs = charpoly(m)
    n = m.rows
    return all((-1) ** (n - k) * cs[k] >= 0 for k in range(n + 1))


# -- the block form as a polynomial: the oracle for psd_examples.sos_matches --

def _padd(p: dict, mono: tuple, c: Fraction) -> None:
    if c == 0:
        return
    nc = p.get(mono, Fraction(0)) + c
    if nc == 0:
        p.pop(mono, None)
    else:
        p[mono] = nc


def biquadratic_form(m: Matrix) -> dict:
    """(x (x) y)^T m (x (x) y) as a polynomial in x0, x1, y0, y1: a dict
    from exponent tuples to nonzero Fraction coefficients."""
    p = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    mono = [0, 0, 0, 0]
                    mono[i] += 1
                    mono[k] += 1
                    mono[2 + j] += 1
                    mono[2 + l] += 1
                    _padd(p, tuple(mono), m.data[2 * i + j][2 * k + l])
    return p


def sum_of_bilinear_squares(squares) -> dict:
    """sum over c of (sum_{ij} c_{2i+j} x_i y_j)^2 as a polynomial."""
    p = {}
    for c in squares:
        c = vec(c)
        for a in range(4):
            for b in range(4):
                ia, ja = divmod(a, 2)
                ib, jb = divmod(b, 2)
                mono = [0, 0, 0, 0]
                mono[ia] += 1
                mono[ib] += 1
                mono[2 + ja] += 1
                mono[2 + jb] += 1
                _padd(p, tuple(mono), c[a] * c[b])
    return p


def grid_counterexample(m: Matrix):
    """The first simple tensor x (x) y on `block_positive`'s grid, x over
    the nonzero pairs of {-2, -1, -1/2, 0, 1/2, 1, 2} and y under it, with
    z^T m z < 0 for z = x (x) y, as (x, y, z^T m z) by a Fraction product
    per term; None when there is none."""
    grid = [Fraction(v) for v in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)]
    pairs = [(a, b) for a in grid for b in grid if a or b]
    for x in pairs:
        for y in pairs:
            z = [a * b for a in x for b in y]
            value = sum(z[i] * m.data[i][j] * z[j] for i in range(4) for j in range(4))
            if value < 0:
                return x, y, value
    return None


def unfiltered_block_positive(m: Matrix):
    """`block_positive`'s search with no filter on m's diagonal, as
    (verdict, shift, counterexample): every Gram shift t in its order,
    0, 2 (m_03 - m_12) and k / 2 for |k| <= 33, once each, m + t R tested by
    LDL^T, then `grid_counterexample`."""
    relation = {(0, 3): Fraction(-1, 2), (3, 0): Fraction(-1, 2), (1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
    shifts = [Fraction(0), 2 * (m.data[0][3] - m.data[1][2])] + [Fraction(k, 2) for k in range(-33, 34)]
    for t in dict.fromkeys(shifts):
        shifted = Matrix.from_rows([[m.data[i][j] + t * relation.get((i, j), 0) for j in range(4)] for i in range(4)])
        if ldlt_psd(shifted).is_psd:
            return "certified_member", t, None
    found = grid_counterexample(m)
    return ("undecided" if found is None else "certified_non_member"), None, found


def blockwise_transpose(m: Matrix) -> Matrix:
    """The partial transpose of a 4x4 matrix on the 2 (x) 2 square, as the
    transpose of each of its four 2x2 blocks."""
    blocks = [[[row[2 * bc:2 * bc + 2] for row in m.data[2 * br:2 * br + 2]] for bc in range(2)] for br in range(2)]
    return Matrix.from_rows(
        [[blocks[br][bc][c][r] for bc in range(2) for c in range(2)] for br in range(2) for r in range(2)]
    )


# -- edits of PSD-example evidence, and the oracle that decides them ---------

_SEVENTH = Fraction(1, 7)


def _number_edits(x):
    return [e for e in (x + _SEVENTH, x - _SEVENTH, -x) if e != x]


def _vector_edits(v):
    """Each entry +-1/7 and sign-flipped, and each two unequal neighbours
    swapped."""
    out = [v[:i] + (e,) + v[i + 1:] for i, x in enumerate(v) for e in _number_edits(x)]
    return out + [v[:i] + (v[i + 1], v[i]) + v[i + 2:] for i in range(len(v) - 1) if v[i] != v[i + 1]]


def _symmetric_edits(m):
    """Each entry on or above the diagonal +-1/7 and sign-flipped, with its
    mirror, so the matrix stays symmetric."""
    out = []
    for i in range(m.rows):
        for j in range(i, m.rows):
            for e in _number_edits(m.data[i][j]):
                rows = [list(row) for row in m.data]
                rows[i][j] = rows[j][i] = e
                out.append(Matrix.from_rows(rows))
    return out


def evidence_edits(v, m):
    """(verdict, matrix) pairs, one per edit of one rational leaf of the
    evidence or one term dropped from a sum; a psd_factorization's evidence
    is the matrix itself."""
    if v.kind == "psd_factorization":
        return [(v, e) for e in _symmetric_edits(m)]
    if v.kind == "gram_shift":
        return [(dataclasses.replace(v, shift=e), m) for e in _number_edits(v.shift)]
    if v.kind == "polynomial_identity":
        sos = v.sos
        edits = [sos[:i] + (e,) + sos[i + 1:] for i, c in enumerate(sos) for e in _vector_edits(c)]
        edits += [sos[:i] + sos[i + 1:] for i in range(len(sos))]
        return [(dataclasses.replace(v, sos=e), m) for e in edits]
    if v.kind == "product_decomposition":
        prods = v.products
        edits = [
            prods[:i] + (pair[:k] + (e,) + pair[k + 1:],) + prods[i + 1:]
            for i, pair in enumerate(prods)
            for k, f in enumerate(pair)
            for e in _symmetric_edits(f)
        ]
        edits += [prods[:i] + prods[i + 1:] for i in range(len(prods))]
        return [(dataclasses.replace(v, products=e), m) for e in edits]
    return [(dataclasses.replace(v, direction=e), m) for e in _vector_edits(v.direction)] + [
        (dataclasses.replace(v, value=e), m) for e in _number_edits(v.value)
    ]


def evidence_oracle(v, m) -> bool:
    """Whether the evidence proves v's claim for m, decided without
    psd_examples: characteristic polynomials for PSD, the polynomial
    engine for sums of squares, Fraction dots for the directions."""
    if v.kind == "psd_factorization":
        return psd_by_descartes(m)
    if v.kind == "gram_shift":
        # z1 z2 - z0 z3, the quadric that vanishes on simple tensors
        segre = {(0, 3): Fraction(-1, 2), (3, 0): Fraction(-1, 2), (1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
        shifted = [[x + v.shift * segre.get((i, j), 0) for j, x in enumerate(row)] for i, row in enumerate(m.data)]
        return psd_by_descartes(Matrix.from_rows(shifted))
    if v.kind == "polynomial_identity":
        return biquadratic_form(m) == sum_of_bilinear_squares(v.sos)
    if v.kind == "product_decomposition":
        if not all(psd_by_descartes(f) for pair in v.products for f in pair):
            return False
        total = [
            [sum((p.data[i // 2][j // 2] * q.data[i % 2][j % 2] for p, q in v.products), Fraction(0)) for j in range(4)]
            for i in range(4)
        ]
        return Matrix.from_rows(total).data == m.data
    w = blockwise_transpose(m) if v.kind == "partial_transpose_witness" else m
    return fraction_dot(v.direction, fraction_apply(w, v.direction)) == v.value < 0


def random_unital_into_linf(r, source, k, spread=4):
    """Random unital map into linf(k): rows are signed state mixtures with
    total weight one."""
    states = extreme_states(source)
    rows = []
    for _ in range(k):
        w = [Fraction(r.randint(-spread, spread), r.randint(1, 3)) for _ in states]
        total = sum(w)
        if total == 0:
            w[0] += 1
            total = 1
        w = [x / total for x in w]
        row = vec([0] * source.dim)
        for c, s in zip(w, states):
            row = tuple(a + c * b for a, b in zip(row, s))
        rows.append(row)
    return UnitalMap(source, linf(k), Matrix.from_rows(rows))


# -- second routes: verdicts the package decides one way, re-decided here -----


# partners of known nuclearity: the coordinatewise spaces and lin_space(1)
# have simplicial cones, lin_space(2) (the cone over a square) does not
NUCLEARITY_BATTERY = (
    (linf(1), True),
    (linf(2), True),
    (linf(3), True),
    (lin_space(1), True),
    (lin_space(2), False),
)


def pi_membership_witness(left: AOUSpace, right: AOUSpace) -> Vec | None:
    """pi = epsilon on left (x) right with no simpliciality test: the first
    extreme ray of the epsilon cone, in its DD's order, that `member` on the
    pi cone (which reads pi's facets) puts outside pi, or None when every
    ray lies in pi. A ray equal to a product generator lies in pi as it is."""
    eps = tensor_space(left, right, EPSILON).realized.cone
    pi = tensor_space(left, right, PI).realized.cone
    products = set(int_vrep(pi))
    for ray in int_vrep(eps):
        if ray not in products and member(pi, vec(ray)).verdict == "non_member":
            return vec(ray)
    return None


def battery_nuclearity(space: AOUSpace, battery=NUCLEARITY_BATTERY) -> bool | None:
    """Nuclearity of a space by pairwise cone equality against partners of
    known nuclearity, with no simpliciality test of the space itself.

    pi = epsilon on V (x) W exactly when V or W is nuclear (Aubrun, Lami,
    Palazuelos & Plavala, Entangleability of cones, GAFA 31, 2021). So every
    nuclear partner must give equal cones, and each non-nuclear partner gives
    the verdict; None when the battery has no non-nuclear partner.
    """
    verdicts = set()
    for partner, partner_nuclear in battery:
        equal = pi_membership_witness(space, partner) is None
        if partner_nuclear and not equal:
            raise InvariantViolation(f"pi != epsilon against the nuclear {partner.label}")
        if not partner_nuclear:
            verdicts.add(equal)
    if len(verdicts) > 1:
        raise InvariantViolation("non-nuclear partners disagree")
    return verdicts.pop() if verdicts else None


def solve_factor(target: Matrix, through: Matrix) -> Matrix | None:
    """X with X @ through == target, exact; None if inconsistent."""
    tt = through.transpose()
    rows = []
    for r in range(target.rows):
        x = fraction_solve(tt, target.row(r))
        if x is None:
            return None
        rows.append(x)
    cand = Matrix.from_rows(rows)
    return cand if (cand @ through).data == target.data else None


def _in_fraction_span(basis: list[Vec], v: Vec) -> bool:
    if not basis:
        return is_zero_vec(v)
    return fraction_solve(Matrix.from_rows(basis).transpose(), v) is not None


def meet_is_order_ideal(space: AOUSpace, basis) -> IdealReport:
    """Order ideal by the meet cone /\\ (J - cone), where the package reads
    pointedness of the image cone in V/J: every generator of the meet must
    lie in J. A generator q outside J lies in J - cone, so its conic
    decomposition over +-basis and the negated cone generators splits it as
    q = p - c with p in J and c in the cone, the witness (p, q)."""
    jb = [b for b in map(vec, basis) if not is_zero_vec(b)]
    down_gens = [x for b in jb for x in (b, tuple(-y for y in b))]
    down_gens += [tuple(-x for x in g) for g in space.cone.vrep()]
    down = Cone.from_generators(down_gens, dim=space.dim)
    meet = Cone.from_inequalities(list(space.cone.hrep()) + list(down.hrep()), dim=space.dim)
    for q in meet.vrep():
        if not _in_fraction_span(jb, q):
            terms = [(i, c) for i, c in member(down, q).decomposition if i < 2 * len(jb)]
            p = combine([c for _, c in terms], [down_gens[i] for i, _ in terms], space.dim)
            return IdealReport(False, witness=(p, q))
    return IdealReport(True)


def archimedeanized_quotient(space: AOUSpace, basis) -> tuple[AOUSpace, UnitalMap]:
    """V/J by projecting the closed cone and Archimedeanizing the image,
    where the package takes the image itself: the ideal test of
    `meet_is_order_ideal`, then `archimedeanize`, and positivity by cone
    inclusion of the image."""
    if not meet_is_order_ideal(space, basis).is_ideal:
        raise InputError("not an order ideal")
    independent: list[Vec] = []
    for b in map(vec, basis):
        if fraction_rank(Matrix.from_rows(independent + [b])) == len(independent) + 1:
            independent.append(b)
    if _in_fraction_span(independent, space.unit):
        raise InputError("order ideal contains the unit; quotient collapses")
    proj = quotient_matrix(independent, space.dim)
    closed, _ = close_and_lineality(space.cone)
    mid = AOUSpace(
        proj.rows,
        image_cone(closed, proj),
        fraction_apply(proj, space.unit),
        label=f"{space.label}/J" if space.label else "",
    )
    arch, q2 = archimedeanize(mid)
    full = q2 @ proj
    qmap = UnitalMap(space, arch, full)
    if (
        fraction_apply(full, space.unit) != arch.unit
        or not contains(arch.cone, image_cone(space.cone, full))
        or fraction_rank(full) != arch.dim
    ):
        raise InvariantViolation("quotient map must be unital positive surjective")
    return arch, qmap


def kernel_quotient_is_order_quotient(m: UnitalMap) -> bool:
    """Order-quotient test through the first isomorphism theorem: ker m of a
    unital positive surjection is an order ideal, and m is an order quotient
    exactly when the map it induces on the Archimedean quotient by ker m is
    a unital order isomorphism onto the target."""
    quotient, q = archimedeanized_quotient(m.source, fraction_nullspace(m.matrix))
    induced = solve_factor(m.matrix, q.matrix)
    return (
        induced is not None
        and quotient.dim == m.target.dim
        and fraction_det(induced) != 0
        and same_cone(image_cone(quotient.cone, induced), m.target.cone)
        and fraction_apply(induced, quotient.unit) == m.target.unit
    )


def epsilon_order_norm(z: TensorElement) -> Fraction:
    """The order norm of z in the realized epsilon tensor space."""
    return order_norm(tensor_space(z.left, z.right, EPSILON).realized, z.flatten())


# -- the second routes the package dropped from its values --------------------


def states_order_norm(space: AOUSpace, v) -> Fraction:
    """The largest |f(v)| over the extreme states f, the order norm of an
    AOU space (Paulsen & Tomforde, Vector spaces with an order unit, 2009),
    where the package solves one LP over the cone rows."""
    return max((abs(fraction_dot(f, v)) for f in extreme_states(space)), default=Fraction(0))


def interval_dual_norm(space: AOUSpace, f) -> Fraction:
    """f(e) - 2 min f over [0, e], the interval side of the norm bound,
    where the package reads max |f| over one half of the unit ball."""
    return fraction_dot(f, space.unit) - 2 * interval_min(space, f)


def is_aou(space: AOUSpace) -> bool:
    """validate's order-unit, Archimedean and pointed flags, all three:
    what `archimedeanize` proves of its result and no longer checks."""
    rep = validate(space)
    return rep.order_unit and rep.archimedean and rep.pointed



def lp_interval_min(space: AOUSpace, f) -> Fraction:
    """min f over the order interval [0, e] by one LP over the cone rows,
    where the package takes the least value at a vertex of the interval."""
    rows, rhs = [], []
    for a in space.cone.hrep():
        rows += [a, tuple(-x for x in a)]
        rhs += [Fraction(0), -fraction_dot(a, space.unit)]
    out = solve_lp(vec(f), rows, rhs, [GE] * len(rows))
    if out.status != OPTIMAL:
        raise InvariantViolation("order interval must be a nonempty polytope")
    return out.value


def lp_is_isometry(m: UnitalMap) -> bool:
    """Isometry by dual-ball inclusions, where the package compares the two
    hulls as cones: every pulled-back target state g o m has dual norm at
    most 1, and each extreme source state is a convex combination of the
    +-(g o m), one feasibility LP per state."""
    mt = m.matrix.transpose()
    pulled = [fraction_apply(mt, g) for g in extreme_states(m.target)]
    if any(full_ball_dual_norm(m.source, p) > 1 for p in pulled):
        return False
    points = pulled + [tuple(-x for x in p) for p in pulled]
    n, k = m.source.dim, len(points)
    cols = Matrix.from_rows(points).transpose()
    for f in extreme_states(m.source):
        rows = [cols.row(i) for i in range(n)] + [(Fraction(1),) * k]
        out = solve_lp((0,) * k, rows, list(f) + [1], [EQ] * (n + 1), nonneg=[True] * k)
        if out.status != OPTIMAL:
            return False
    return True


def lp_min_l1_measure(states: list, f: Vec) -> list[Fraction]:
    """Signed weights mu over the states with sum mu_j f_j = f and minimal
    l1 mass, by one LP over the positive and negative parts, where the
    package reads them off a conic decomposition at a maximizing ball
    vertex; the minimum equals the dual norm of f."""
    k = len(states)
    n = len(f)
    rows = []
    for i in range(n):
        rows.append(
            tuple(s[i] for s in states) + tuple(-s[i] for s in states)
        )
    out = solve_lp(
        (Fraction(1),) * (2 * k),
        rows,
        list(f),
        [EQ] * n,
        nonneg=[True] * (2 * k),
    )
    if out.status != OPTIMAL:
        raise InvariantViolation("states span the dual; the measure LP cannot fail")
    return [out.primal[j] - out.primal[k + j] for j in range(k)]


# -- full-ball scans: the symmetric scans the package halves ------------------


def ball_scan_spaces(r: random.Random) -> list[AOUSpace]:
    """linf(1..4), lin_space(1..4), the epsilon and pi spaces of
    linf(2) (x) lin_space(1) and lin_space(2) (x) linf(2), and three random
    pointed V-rep spaces (generators with first coordinate 1, unit their
    sum once they span)."""
    spaces = [linf(n) for n in range(1, 5)] + [lin_space(n) for n in range(1, 5)]
    for left, right in ((linf(2), lin_space(1)), (lin_space(2), linf(2))):
        spaces += [tensor_space(left, right, kind).realized for kind in (EPSILON, PI)]
    while len(spaces) < 15:
        dim = r.randint(2, 4)
        gens = [(1,) + rand_vec(r, dim - 1) for _ in range(dim + 2)]
        if fraction_rank(Matrix.from_rows(gens)) == dim:
            unit = tuple(sum(g[i] for g in gens) for i in range(dim))
            spaces.append(AOUSpace(dim, Cone.from_generators(gens), unit))
    return spaces


def full_ball_operator_norm(mat: Matrix, source: AOUSpace, target: AOUSpace) -> Fraction:
    """max ||T x|| over every vertex x of the source ball."""
    return max(
        (order_norm(target, fraction_apply(mat, x)) for x in unit_ball_vertices(source)),
        default=Fraction(0),
    )


def full_ball_dual_norm(space: AOUSpace, f) -> Fraction:
    """max |f(x)| over every vertex x of the ball."""
    c = vec(f)
    return max((abs(fraction_dot(c, x)) for x in unit_ball_vertices(space)), default=Fraction(0))


def full_ball_auerbach_scan(space: AOUSpace) -> list[Vec]:
    """The first dim-tuple of ball vertices, over the whole ball in reverse
    sorted order, with the largest |det| by Fraction elimination."""
    best, best_abs = None, Fraction(0)
    for tup in combinations(list(reversed(unit_ball_vertices(space))), space.dim):
        d = abs(fraction_det(Matrix.from_rows(tup)))
        if d > best_abs:
            best, best_abs = tup, d
    return list(best)


# -- Fraction routes of the integer geometry ---------------------------------


def fraction_states(space: AOUSpace) -> list[Vec]:
    """Each extreme ray f of the dual cone divided by f(e), sorted."""
    rays = extreme_rays(dual(space.cone))
    return sorted(tuple(x / fraction_dot(f, space.unit) for x in f) for f in rays)


def interval_rows(space: AOUSpace) -> tuple[list[Vec], list[Fraction]]:
    """[0, e] as the Fraction rows a.v >= 0 and -a.v >= -a.e over the
    H-rep: (rows, rhs)."""
    rows, rhs = [], []
    for a in space.cone.hrep():
        rows += [a, tuple(-x for x in a)]
        rhs += [Fraction(0), -fraction_dot(a, space.unit)]
    return rows, rhs


def fraction_interval_vertices(space: AOUSpace) -> list[Vec]:
    """The vertices of [0, e], from scratch over `interval_rows`, sorted."""
    return as_vertices(rational_polytope_vertices(*interval_rows(space), space.dim))


def fraction_ball_vertices(space: AOUSpace) -> list[Vec]:
    """[-e, e] = 2 [0, e] - e, vertex by vertex."""
    return [tuple(2 * x - u for x, u in zip(p, space.unit)) for p in fraction_interval_vertices(space)]


def fraction_validate(space: AOUSpace) -> ValidationReport:
    """validate over the Fraction rows hrep() of the closed cone: a row a
    fails the unit when a.e <= 0 by a Fraction dot."""
    closed, lineality = close_and_lineality(space.cone)
    bad = [a for a in closed.hrep() if fraction_dot(a, space.unit) <= 0 and any(a)]
    certificates = {}
    if bad:
        i = min(next(j for j, x in enumerate(a) if x) for a in bad)
        certificates[f"order_unit_basis_{i}"] = next(a for a in bad if a[i])
    return ValidationReport(not bad, not space.cone.has_strict_rows, not lineality, certificates)


def fraction_member(cone: Cone, v) -> Certificate:
    """Membership in an H-cone by a Fraction dot of each row of hrep()."""
    v = vec(v)
    for i, row in enumerate(cone.hrep()):
        if fraction_dot(row, v) < 0:
            return Certificate("non_member", "separating_functional", witness=row, payload={"row_index": i})
    return Certificate("member", "hrep_evaluation")


def fraction_verify(cert: Certificate, cone: Cone, v) -> bool:
    """A polyhedral certificate checked over the Fraction views: the
    decomposition summed term by term over vrep(), the rows of hrep()
    evaluated, the separating functional dotted with vrep() or compared
    with the row of hrep() it names."""
    v = vec(v)
    if cert.kind == "conic_decomposition":
        gens = cone.vrep()
        total = [Fraction(0)] * cone.dim
        for i, c in cert.decomposition:
            total = [x + c * g for x, g in zip(total, gens[i])]
        return all(c >= 0 for _, c in cert.decomposition) and tuple(total) == v
    if cert.kind == "hrep_evaluation":
        return all(fraction_dot(row, v) >= 0 for row in cone.hrep())
    w = cert.witness
    if fraction_dot(w, v) >= 0:
        return False
    if cone.generators is not None:
        return all(fraction_dot(w, g) >= 0 for g in cone.vrep())
    return cone.hrep()[cert.payload["row_index"]] == w


def fraction_positive(m: UnitalMap) -> bool:
    """Every Fraction row of the target's hrep() nonnegative on the image
    of every Fraction generator of the source's vrep()."""
    images = [fraction_apply(m.matrix, g) for g in m.source.cone.vrep()]
    return all(fraction_dot(a, x) >= 0 for a in m.target.cone.hrep() for x in images)


def fraction_max_det(vectors: list[Vec], k: int) -> tuple[int, ...] | None:
    """The first k-tuple of indices, in combinations order, with the largest
    nonzero |det| by Fraction elimination; None when all are 0."""
    best, best_abs = None, Fraction(0)
    for tup in combinations(range(len(vectors)), k):
        d = abs(fraction_det(Matrix.from_rows([vectors[i] for i in tup])))
        if d > best_abs:
            best, best_abs = tup, d
    return best


def fraction_next_state(space: AOUSpace, pool: list[Vec], chosen: list[int], psi_phi: Matrix) -> int:
    """The state factorize adds next, by a Fraction scan of the full sorted
    ball: the first residual psi phi(v) - v of largest order norm, the
    largest |s(residual)| over the states s in pool, then the first state
    not chosen with the largest |s(residual)|."""
    worst, worst_norm = None, Fraction(-1)
    for v in fraction_ball_vertices(space):
        residual = tuple(fraction_dot(row, v) - x for row, x in zip(psi_phi.data, v))
        norm = max(abs(fraction_dot(s, residual)) for s in pool)
        if norm > worst_norm:
            worst, worst_norm = residual, norm
    best, best_value = None, Fraction(-1)
    for i, s in enumerate(pool):
        if i not in chosen and abs(fraction_dot(s, worst)) > best_value:
            best, best_value = i, abs(fraction_dot(s, worst))
    return best


def no_swap_raises_det(candidates: list[Vec], basis: list[Vec]) -> bool:
    """Whether no candidate put in place of one basis vector gives a larger
    |det|, by Fraction elimination of every swapped matrix, where the
    package reads the ratio of the two determinants off one inverse."""
    best = abs(fraction_det(Matrix.from_rows(basis)))
    return all(
        abs(fraction_det(Matrix.from_rows(basis[:i] + [y] + basis[i + 1 :]))) <= best
        for y in candidates
        for i in range(len(basis))
    )


def auerbach_oracle(space: AOUSpace, basis, duals) -> bool:
    """Whether basis and duals are an Auerbach system: dim of each,
    biorthogonal by Fraction dots, each vector of order norm 1 as the
    largest |f(x)| over the extreme states and each functional of dual norm
    1 over the full ball, where the package reads the vectors' norms off
    the cone rows and the duals' over one vertex of each +- pair."""
    if not len(basis) == len(duals) == space.dim:
        return False
    return (
        all(fraction_dot(f, x) == (i == j) for i, f in enumerate(duals) for j, x in enumerate(basis))
        and all(states_order_norm(space, x) == 1 for x in basis)
        and all(full_ball_dual_norm(space, f) == 1 for f in duals)
    )


# -- the re-run oracle for CLI reports ------------------------------------------


def rerun_verifies(report: dict) -> bool:
    """Whether running the report's verb again on its embedded inputs gives
    its stored result, compared after a JSON round trip of the fresh one."""
    spec = _VERBS[report["verb"]]
    fresh = _plain(spec.run(*(a.decode(report["inputs"][a.key]) for a in spec.args)))
    stored = {k: v for k, v in report.items() if k not in _META_KEYS}
    return json.loads(json.dumps(fresh, sort_keys=True)) == stored


# -- the argparse oracle for the CLI's table parser ------------------------------


class _ArgparseParser(argparse.ArgumentParser):
    # usage problems exit 1, as in the CLI, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def argparse_parser() -> argparse.ArgumentParser:
    """The parser the CLI built from its verb table before it read argv
    against the table itself: parse_args gives a Namespace whose vars are
    the verb, --format and each argument's text by key."""
    parser = _ArgparseParser(prog="aoulab")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_ArgparseParser)
    for verb, spec in _VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=spec.help)
        for a in spec.args:
            kw = {"required": a.default is None, "default": a.default} if a.option else {}
            p.add_argument(f"--{a.key}" if a.option else a.key, choices=a.choices, help=a.help, **kw)
    return parser
