"""Exact rational linear programming with verifiable certificates.

Two-phase primal simplex over Fraction with Bland's rule, so termination is
guaranteed and every answer is exact. Every problem is a minimization over
free and nonnegative variables subject to >= and = rows; a caller writes a
row a.x <= b as the negated row -a.x >= -b. The objective must be bounded
below on the feasible set (each library caller's docstring says why its
is); an unbounded one raises InputError. Each outcome carries a
certificate that re-verifies by substitution:

  optimal     primal point satisfying every row, plus dual multipliers with
              sum_i mu_i * a_i == objective and sum_i mu_i * b_i == value,
              mu_i >= 0 on >=-rows, equality rows unrestricted.

  infeasible  a Farkas witness: multipliers, nonnegative on >=-rows and of
              either sign on equality rows, combining the rows to 0 and the
              rhs to a positive number, i.e. a proof of 0 >= positive.

Each nonnegativity flag becomes an explicit row x_j >= 0 appended after the
caller's rows, and certificates cover that expanded system (LPOutcome.system
holds it).

Standard form: a nonnegative variable is one column, and its row stays out
of the tableau; every free variable is split as x = u - w. Each row starts
the basis from a zero-cost unit column where one exists, normally its slack
(a rhs-0 row whose slack is -1 is negated first); only the remaining rows
get a phase-1 artificial. A row's multiplier is read from the reduced cost
of the column that started it; the multiplier of a nonnegativity row is its
column's reduced cost, which for a Farkas witness is the phase-1 one,
-y.A_j. Pivots touch only the pivot row's nonzero columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InvariantViolation, ShapeError
from .linalg import _ONE, _ZERO, Vec, combine, dot, frac, integerize, unit_vec, vec, zeros

EQ, GE = "=", ">="

OPTIMAL, INFEASIBLE = "optimal", "infeasible"


@dataclass(frozen=True)
class LPSystem:
    """The expanded constraint system a certificate refers to."""

    objective: Vec
    rows: tuple[Vec, ...]
    rhs: Vec
    senses: tuple[str, ...]
    n_user_rows: int


@dataclass(frozen=True)
class LPOutcome:
    status: str
    system: LPSystem
    primal: Vec | None = None
    value: Fraction | None = None
    dual_certificate: Vec | None = None

    def verify(self) -> bool:
        try:
            verify_outcome(self)
        except InvariantViolation:
            return False
        return True


def _pivot(tab: list[list[Fraction]], basis: list[int], r: int, j: int) -> None:
    row = tab[r]
    nz = [k for k, x in enumerate(row) if x]
    pv = row[j]
    if pv != 1:
        for k in nz:
            row[k] /= pv
    for i, other in enumerate(tab):
        f = other[j]
        if f and i != r:
            for k in nz:
                other[k] -= f * row[k]
    basis[r] = j


def _run_simplex(tab: list[list[Fraction]], basis: list[int], allowed: int) -> int | None:
    """Run simplex to optimality on tableau with objective as last row.

    Columns [0, allowed) may enter the basis. Returns None at optimality or
    the entering column index when unbounded. Bland's rule throughout.
    """
    m = len(tab) - 1
    obj = tab[m]
    while True:
        enter = None
        for j in range(allowed):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            return None
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return enter
        _pivot(tab, basis, leave, enter)


def _standard_simplex(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> tuple[str, Vec | None, Vec, Vec]:
    """min c.x s.t. a x = b, x >= 0, for c.x bounded below there.

    Returns (status, x, y, d). y are row multipliers relative to the
    input rows (internal row sign flips already undone) and d = c - y.A the
    reduced costs of the columns: at optimality d >= 0 and y.b = value; at
    infeasibility y and d come from phase 1, where c is zero, so y.A = -d <= 0
    with y.b > 0.
    """
    m, n = len(a), len(c)
    rows = [list(r) for r in a]
    rhs = list(b)
    flip = [_ONE] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            flip[i] = -_ONE

    # Each row starts from a zero-cost unit column (a slack) where one
    # exists; a rhs-0 row holding a -1 unit column is negated to use it.
    # The remaining rows get an artificial column each.
    start: list[int | None] = [None] * m
    for j, col in enumerate(zip(*rows)):
        if c[j] != 0:
            continue
        nz = [i for i, x in enumerate(col) if x]
        if len(nz) != 1 or start[nz[0]] is not None:
            continue
        i = nz[0]
        if col[i] == 1:
            start[i] = j
        elif col[i] == -1 and rhs[i] == 0:
            rows[i] = [-x for x in rows[i]]
            flip[i] = -flip[i]
            start[i] = j
    arts = [i for i in range(m) if start[i] is None]
    for t, i in enumerate(arts):
        start[i] = n + t

    tab = []
    for i in range(m):
        row = rows[i] + [_ZERO] * len(arts) + [rhs[i]]
        if start[i] >= n:
            row[start[i]] = _ONE
        tab.append(row)
    basis = list(start)

    if arts:
        # phase 1: minimize the sum of the artificials
        obj = [_ZERO] * n + [_ONE] * len(arts) + [_ZERO]
        for i in arts:
            for k, x in enumerate(tab[i]):
                if x:
                    obj[k] -= x
        tab.append(obj)
        if _run_simplex(tab, basis, n) is not None:
            raise InvariantViolation("phase-1 objective is bounded below by zero")
        if obj[-1] < 0:
            y = tuple(
                flip[i] * ((1 if start[i] >= n else 0) - obj[start[i]]) for i in range(m)
            )
            return INFEASIBLE, None, y, tuple(obj[:n])

        tab.pop()
        # Drive basic artificials out so they cannot creep back above zero
        # in phase 2. A row with no real coefficient left is redundant; its
        # artificial stays basic at zero and the row never changes again.
        for i in range(m):
            if basis[i] >= n:
                for j in range(n):
                    if tab[i][j] != 0:
                        _pivot(tab, basis, i, j)
                        break

    # phase 2: real objective; artificial columns stay in the tableau (never
    # entering) so every row's multiplier stays readable from the reduced
    # cost of the column that started it.
    obj = list(c) + [_ZERO] * (len(arts) + 1)
    for i in range(m):
        cb = c[basis[i]] if basis[i] < n else 0
        if cb:
            for k, x in enumerate(tab[i]):
                if x:
                    obj[k] -= cb * x
    tab.append(obj)
    if _run_simplex(tab, basis, n) is not None:
        raise InputError("the objective is unbounded below")
    y = tuple(flip[i] * -obj[start[i]] for i in range(m))
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return OPTIMAL, tuple(x), y, tuple(obj[:n])


def solve_lp(
    objective: Sequence,
    rows: Sequence[Sequence],
    rhs: Sequence,
    senses: Sequence[str],
    *,
    nonneg: Sequence[bool] | None = None,
) -> LPOutcome:
    """Minimize objective.x subject to rows[i].x (sense_i) rhs[i], each
    sense >= or =.

    nonneg, when given, flags each variable that must be >= 0; each flag
    becomes an explicit row after the user rows. The returned outcome
    always self-verifies before it is handed back. InputError when the
    objective is unbounded below on a nonempty feasible set.
    """
    c = vec(objective)
    n = len(c)
    ext_rows = [vec(r) for r in rows]
    ext_rhs = [frac(x) for x in rhs]
    ext_senses = list(senses)
    if len(ext_rows) != len(ext_rhs) or len(ext_rows) != len(ext_senses):
        raise ShapeError("rows, rhs, senses must align")
    for r in ext_rows:
        if len(r) != n:
            raise ShapeError("row length differs from objective length")
    for s in ext_senses:
        if s not in (EQ, GE):
            raise ShapeError(f"unknown sense {s!r}")
    n_user = len(ext_rows)
    flags = [False] * n if nonneg is None else list(nonneg)
    if len(flags) != n:
        raise ShapeError("nonneg must give one flag per variable")
    # a nonnegative variable is one x >= 0 column; its row x_j >= 0 stays in
    # the system but not in the tableau
    pos = [j for j in range(n) if flags[j]]
    for j in pos:
        ext_rows.append(unit_vec(j, n))
        ext_rhs.append(_ZERO)
        ext_senses.append(GE)

    system = LPSystem(
        objective=c,
        rows=tuple(ext_rows),
        rhs=vec(ext_rhs),
        senses=tuple(ext_senses),
        n_user_rows=n_user,
    )

    # standard form: column j is x_j itself when x_j >= 0, else u_j of
    # x_j = u_j - w_j, with the w columns next and one slack per >= row
    free = [j for j in range(n) if not flags[j]]
    n_slack = ext_senses[:n_user].count(GE)
    a_std = []
    slack = n + len(free)
    for r, s in zip(ext_rows, ext_senses[:n_user]):
        row = list(r) + [-r[j] for j in free] + [_ZERO] * n_slack
        if s == GE:
            row[slack] = -_ONE
            slack += 1
        a_std.append(row)
    c_std = list(c) + [-c[j] for j in free] + [_ZERO] * n_slack

    status, xz, y, d = _standard_simplex(a_std, ext_rhs[:n_user], c_std)

    # multipliers per system row: y on the tableau rows, and on the row of a
    # nonnegative column that column's reduced cost (the phase-1 one, -y.A_j,
    # for a Farkas witness)
    mult = list(y) + [d[j] for j in pos]

    if status == INFEASIBLE:
        out = LPOutcome(INFEASIBLE, system, dual_certificate=vec(integerize(mult)))
        verify_outcome(out)
        return out

    x = list(xz[:n])
    for k, j in enumerate(free):
        x[j] -= xz[n + k]
    x = tuple(x)
    out = LPOutcome(OPTIMAL, system, primal=x, value=dot(c, x), dual_certificate=vec(mult))
    verify_outcome(out)
    return out


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise InvariantViolation(f"certificate check failed: {what}")


def verify_outcome(out: LPOutcome) -> None:
    """Re-verify an LPOutcome by exact substitution; raises on any failure."""
    sys_ = out.system
    rows, rhs, senses = sys_.rows, sys_.rhs, sys_.senses
    n = len(sys_.objective)

    if out.status == OPTIMAL:
        _check(out.primal is not None and out.dual_certificate is not None, "missing parts")
        # the message is built for a failing row alone, so a value past the
        # int/str digit limit is never written out on a row that holds
        for r, b, s in zip(rows, rhs, senses):
            v = dot(r, out.primal)
            if not (v >= b if s == GE else v == b):
                _check(False, f"row {r} . x = {v}, not {s} {b}")
        _check(dot(sys_.objective, out.primal) == out.value, "objective value mismatch")
        mu = out.dual_certificate
        _check(len(mu) == len(rows), "dual length")
        for m_i, s in zip(mu, senses):
            if s == GE:
                _check(m_i >= 0, "dual sign on >= row")
        _check(combine(mu, rows, n) == sys_.objective, "dual combination != objective")
        _check(dot(mu, rhs) == out.value, "dual value != primal value")
    elif out.status == INFEASIBLE:
        yv = out.dual_certificate
        _check(yv is not None and len(yv) == len(rows), "missing farkas")
        for y_i, s in zip(yv, senses):
            if s == GE:
                _check(y_i >= 0, "farkas sign on >= row")
        _check(combine(yv, rows, n) == zeros(n), "farkas combination != 0")
        _check(dot(yv, rhs) > 0, "farkas rhs combination not positive")
    else:
        raise InvariantViolation(f"unknown status {out.status}")
