"""Exact positive semidefiniteness via LDL^T over the rationals.

No pivoting is needed: when a diagonal entry vanishes, either its whole row
vanishes too (the matrix restricts to the complement) or the matrix is not
PSD and a rational witness direction falls out in closed form. Witnesses
lift back through the elimination so the returned x always satisfies
x^T A x < 0 exactly; factorizations satisfy A = L D L^T exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, ShapeError
from .linalg import Matrix, Vec, dot, frac, vec


@dataclass(frozen=True)
class PsdResult:
    is_psd: bool
    lower: Matrix | None = None
    diag: Vec | None = None
    witness: Vec | None = None


def _quad_form(a: list[list[Fraction]], x: list[Fraction]) -> Fraction:
    return dot(x, [dot(row, x) for row in a])


def _ldlt(a: list[list[Fraction]]) -> tuple[bool, list[list[Fraction]], list[Fraction], list[Fraction] | None]:
    n = len(a)
    if n == 0:
        return True, [], [], None
    d = a[0][0]
    head = a[0]
    if d < 0:
        return False, [], [], [Fraction(1)] + [Fraction(0)] * (n - 1)
    if d == 0:
        bad = next((j for j in range(1, n) if head[j] != 0), None)
        if bad is not None:
            # 2x2 principal minor [[0, c], [c, m]] with c != 0 is indefinite:
            # x = (t, -sign(c)) gives -2t|c| + m, negative for large t.
            c = head[bad]
            t = a[bad][bad] / (2 * abs(c)) + 1
            x = [Fraction(0)] * n
            x[0] = t
            x[bad] = Fraction(-1) if c > 0 else Fraction(1)
            return False, [], [], x
        sub = [row[1:] for row in a[1:]]
        ok, lower, diag, wit = _ldlt(sub)
        col = [Fraction(0)] * (n - 1)
        if not ok:
            return False, [], [], [Fraction(0)] + wit
        return True, _extend(lower, col), [Fraction(0)] + diag, None
    col = [a[i][0] / d for i in range(1, n)]
    sub = [
        [a[i][j] - a[i][0] * a[j][0] / d for j in range(1, n)]
        for i in range(1, n)
    ]
    ok, lower, diag, wit = _ldlt(sub)
    if not ok:
        top = -dot(a[0][1:], wit) / d
        return False, [], [], [top] + wit
    return True, _extend(lower, col), [d] + diag, None


def _extend(lower: list[list[Fraction]], col: list[Fraction]) -> list[list[Fraction]]:
    """Prepend a unit column: [[1, 0], [col, lower]]."""
    n = len(col) + 1
    out = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for i, row in enumerate(lower):
        out.append([col[i]] + row)
    return out


def ldlt_psd(m: Matrix) -> PsdResult:
    """Decide PSD for a symmetric rational matrix, with exact certificate."""
    if m.rows != m.cols:
        raise ShapeError("ldlt_psd: square matrix required")
    a = [[frac(x) for x in row] for row in m.data]
    n = len(a)
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ShapeError(f"ldlt_psd: not symmetric at ({i},{j})")
    ok, lower, diag, wit = _ldlt(a)
    if not ok:
        x = vec(wit)
        if _quad_form(a, list(x)) >= 0:
            raise InvariantViolation("non-PSD witness failed to be negative")
        return PsdResult(False, witness=x)
    lo = Matrix.from_rows(lower) if n else Matrix.from_rows([])
    dv = vec(diag)
    # A = L D L^T, checked exactly
    ld = Matrix.from_rows([[lo.data[i][k] * dv[k] for k in range(n)] for i in range(n)])
    if ld.compose(lo.transpose()).data != m.data:
        raise InvariantViolation("LDL^T reconstruction mismatch")
    return PsdResult(True, lower=lo, diag=dv)
