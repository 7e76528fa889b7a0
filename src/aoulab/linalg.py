"""Exact rational vectors and matrices.

Every decision procedure in this package runs over fractions.Fraction; no
float ever enters a comparison. Vectors are plain tuples of Fractions,
matrices are immutable row-major tuples of such tuples. The helpers here are
deliberately small: Gaussian elimination with exact pivots covers solve,
rank, nullspace, determinant and inverse at the problem sizes we care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import ShapeError

Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings. Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ShapeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(i: int, n: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ShapeError(f"dot: length {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def integerize(a: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to coprime integers.

    Preserves direction (the scale is positive), so it is safe for rays and
    halfspace normals. The zero vector maps to itself.
    """
    a = [frac(x) for x in a]
    if all(x == 0 for x in a):
        return (0,) * len(a)
    denom_lcm = 1
    for x in a:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [x.numerator * (denom_lcm // x.denominator) for x in a]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def sign_canonical(a: Sequence[Fraction]) -> tuple[int, ...]:
    """integerize plus a sign flip so the first nonzero entry is positive.

    Only for objects where both directions are equivalent (lines, equality
    row normals), never for rays.
    """
    w = integerize(a)
    for x in w:
        if x != 0:
            return w if x > 0 else tuple(-v for v in w)
    return w


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix, row major."""

    data: tuple[Vec, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        data = tuple(vec(r) for r in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ShapeError("ragged rows")
        return cls(data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(unit_vec(i, n) for i in range(n)))

    @classmethod
    def zero(cls, m: int, n: int) -> "Matrix":
        return cls(tuple(zeros(n) for _ in range(m)))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def apply(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ShapeError(f"apply: matrix is {self.rows}x{self.cols}, vector has {len(v)}")
        return tuple(dot(r, v) for r in self.data)

    def compose(self, other: "Matrix") -> "Matrix":
        """self @ other as linear maps (apply other first)."""
        if self.cols != other.rows:
            raise ShapeError(f"compose: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose()
        return Matrix(tuple(tuple(dot(r, c) for c in ot.data) for r in self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.compose(other)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.cols)))

    def kron(self, other: "Matrix") -> "Matrix":
        out = []
        for a_row in self.data:
            for b_row in other.data:
                out.append(tuple(a * b for a in a_row for b in b_row))
        return Matrix(tuple(out))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.data and other.data and self.cols != other.cols:
            raise ShapeError("vstack: column mismatch")
        return Matrix(self.data + other.data)


def _eliminate(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place forward+back elimination; returns (reduced rows, pivot cols)."""
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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    rows = [list(r) for r in m.data]
    rows, pivots = _eliminate(rows, m.cols)
    return Matrix.from_rows(rows), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of m x = b, free variables set to zero; None if none."""
    if len(b) != m.rows:
        raise ShapeError("solve: rhs length mismatch")
    rows = [list(r) + [frac(x)] for r, x in zip(m.data, b)]
    if not rows:
        return zeros(m.cols)
    rows, pivots = _eliminate(rows, m.cols)
    for row in rows[len(pivots):]:
        if row[-1] != 0:
            return None
    x = [Fraction(0)] * m.cols
    for i, c in enumerate(pivots):
        x[c] = rows[i][-1]
    return tuple(x)


def nullspace(m: Matrix) -> list[Vec]:
    """Basis of {x : m x = 0}, one vector per free column."""
    reduced, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced.data[i][fc]
        basis.append(tuple(v))
    return basis


def det(m: Matrix) -> Fraction:
    if m.rows != m.cols:
        raise ShapeError("det: square matrix required")
    n = m.rows
    rows = [list(r) for r in m.data]
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeError("inverse: square matrix required")
    n = m.rows
    rows = [list(r) + list(unit_vec(i, n)) for i, r in enumerate(m.data)]
    rows, pivots = _eliminate(rows, n)
    if len(pivots) != n:
        raise ShapeError("inverse: singular matrix")
    return Matrix.from_rows([r[n:] for r in rows])
