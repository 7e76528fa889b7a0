"""Exact rational vectors and matrices, and the integer kernels under them.

No float ever enters a comparison. The public types are tuples of
fractions.Fraction for vectors (vec passes one that is all Fractions as it
is) and immutable row-major tuples of such tuples for matrices. Cones,
spaces and maps keep integers under them; common_den (numerators over one
positive denominator) and integerize (coprime, same direction) turn
rational input into integers once, where it enters.

dot keeps an integer numerator over the lcm of the term denominators and
builds one Fraction at the end, idot sums integer rows with no Fraction,
and combine takes one dot per coordinate; Matrix.apply, compose and
kron_vec go through the same arithmetic. A float or other inexact entry
raises ShapeError, as in frac.

rank, nullspace, solve, det and inverse share one fraction-free Bareiss
elimination over Python ints: each row is scaled to integers once (a row
of ints as it is), every entry stays an exact minor, and Fractions are
built only from the final pivot rows; rank builds none. idet and
max_det_exchange (a basis among rows with positive scales whose |det| no
single exchange raises) run on integer rows. quotient_matrix turns a
kernel basis into a surjection that kills exactly that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import InvariantViolation, ShapeError

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
    """A tuple of Fractions; one that is already so is returned as it is."""
    if type(xs) is tuple and all(type(x) is Fraction for x in xs):
        return xs
    return tuple(frac(x) for x in xs)


_ZERO, _ONE = Fraction(0), Fraction(1)


def zeros(n: int) -> Vec:
    return (_ZERO,) * n


def unit_vec(i: int, n: int) -> Vec:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """a . b over ints and Fractions, always a Fraction."""
    if len(a) != len(b):
        raise ShapeError(f"dot: length {len(a)} vs {len(b)}")
    num, den = 0, 1
    try:
        for x, y in zip(a, b):
            p = x.numerator * y.numerator
            if p:
                q = x.denominator * y.denominator
                if den % q:
                    g = gcd(den, q)
                    num, den = num * (q // g) + p * (den // g), den // g * q
                else:
                    num += p * (den // q)
    except (AttributeError, TypeError):
        raise ShapeError("dot: exact rational entries expected") from None
    return Fraction(num, den)


def idot(a: Sequence[int], b: Sequence[int]) -> int:
    """a . b for integer rows, always an int."""
    if len(a) != len(b):
        raise ShapeError(f"idot: length {len(a)} vs {len(b)}")
    try:
        s = sum(map(mul, a, b))
        if type(s) is int:
            return s
    except TypeError:
        pass
    raise ShapeError("idot: integer entries expected")


def combine(coeffs: Sequence[Fraction], vectors: Sequence[Sequence[Fraction]], n: int) -> Vec:
    """sum_i coeffs[i] * vectors[i] over vectors of length n; zeros(n) when
    there are none."""
    if len(coeffs) != len(vectors) or any(len(v) != n for v in vectors):
        raise ShapeError(f"combine: {len(coeffs)} coefficients, {len(vectors)} vectors, length {n}")
    return tuple(dot(coeffs, col) for col in zip(*vectors)) if vectors else zeros(n)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def kron_vec(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    """a (x) b in row-major coordinates: entry i * len(b) + j is a_i b_j.

    Tensor coordinates use this layout, and so do LPs over the entries m of
    an unknown matrix M, read row by row: (M x)_r = kron_vec(e_r, x) . m and
    a . (M g) = kron_vec(a, g) . m. Over a common denominator, with one
    Fraction per nonzero entry."""
    (an, ad), (bn, bd) = common_den(a), common_den(b)
    return tuple([Fraction(x * y, ad * bd) if x and y else _ZERO for x in an for y in bn])


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def common_den(a: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, den) with a = numerators / den, den the lcm of the
    entries' denominators; ints pass as Fractions over 1."""
    den = lcm(*(x.denominator for x in a))
    return [x.numerator * (den // x.denominator) for x in a], den


def integerize(a: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to coprime integers.

    Preserves direction (the scale is positive), so it is safe for rays and
    halfspace normals. The zero vector maps to itself. Ints and Fractions
    pass as they are, as in _int_rows; other entries go through frac.
    """
    ints = common_den([x if isinstance(x, (int, Fraction)) else frac(x) for x in a])[0]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g else (0,) * len(ints)


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix, row major."""

    data: tuple[Vec, ...]
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

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


def _int_rows(rows: Iterable[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators: (integer rows, scales).

    Ints and Fractions both carry numerator and denominator, so rows that
    are already integer pass with scale 1 and no Fraction is built."""
    pairs = [common_den(row) for row in rows]
    return [p for p, _ in pairs], [d for _, d in pairs]


def _bareiss(rows: list[list[int]], ncols: int, back: bool) -> tuple[list[int], int, int]:
    """Fraction-free elimination of integer rows in place (Bareiss, Math.
    Comp. 22, 1968): pivots are searched in the first ncols columns, and each
    step replaces row i by (p * row_i - row_i[c] * pivot_row) / prev, where p
    is the new pivot and prev the one before. Every entry stays a minor of
    the input, so the division is exact and no gcd is taken.

    With back=False only the rows below each pivot are eliminated (rank and
    determinant). With back=True the rows above are too (Gauss-Jordan), and
    every pivot entry then equals the last pivot d, so row i divided by d is
    row i of the reduced row echelon form; the rows past the rank are zero
    on the first ncols columns.

    Returns (pivot columns, last pivot d, sign of the row permutation)."""
    pivots: list[int] = []
    prev, sign, r, m = 1, 1, 0, len(rows)
    for c in range(ncols):
        if r == m:
            break
        for k in range(r, m):
            if rows[k][c]:
                break
        else:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i in range(0 if back else r + 1, m):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, prev, sign


def _rows_and_cols(m: Matrix | Sequence[Sequence[int]]) -> tuple[Sequence[Sequence], int]:
    if isinstance(m, Matrix):
        return m.data, m.cols
    ncols = len(m[0]) if m else 0
    if any(len(r) != ncols for r in m):
        raise ShapeError("ragged rows")
    return m, ncols


def rank(m: Matrix | Sequence[Sequence[int]]) -> int:
    """Rank of a Matrix, or of a plain sequence of integer rows (which skips
    the conversion to Fractions; rows of Fractions are accepted too)."""
    rows, ncols = _rows_and_cols(m)
    return len(_bareiss(_int_rows(rows)[0], ncols, back=False)[0])


def solve(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of m x = b, free variables set to zero; None if none."""
    if len(b) != m.rows:
        raise ShapeError("solve: rhs length mismatch")
    if not m.rows:
        return zeros(m.cols)
    rows = _int_rows(r + (frac(x),) for r, x in zip(m.data, b))[0]
    pivots, d, _ = _bareiss(rows, m.cols, back=True)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[-1], d)
    return tuple(x)


def nullspace(m: Matrix | Sequence[Sequence[int]]) -> list[Vec]:
    """Basis of {x : m x = 0}, one vector per free column; m is a Matrix or
    a nonempty sequence of rows, as for rank."""
    rows, ncols = _rows_and_cols(m)
    rows = _int_rows(rows)[0]
    pivots, d, _ = _bareiss(rows, ncols, back=True)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(tuple(v))
    return basis


def idet(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: Bareiss on a copy."""
    work = [list(r) for r in rows]
    pivots, d, sign = _bareiss(work, len(work), back=False)
    return sign * d if len(pivots) == len(work) else 0


def max_det_exchange(rows: Sequence[Sequence[int]], scales: Sequence[int]) -> list[int]:
    """Indices, increasing, of a basis among the rows divided by their
    positive scales whose |det| no exchange of one row raises (the maxvol
    iteration of Goreinov & Tyrtyshnikov, Contemp. Math. 280, 2001).

    It starts from the first independent rows. For the basis B and its
    dual functionals f_i, f_i(y) = det(B with y in slot i) / det(B)
    (Cramer), so while some row y has |f_i(y)| > 1 for a slot i, the
    largest such swap is made, the first row and then the first slot on
    ties, slots in increasing index order. |det| grows at every swap and
    takes finitely many values, so the loop ends, with |f_i(y)| <= 1 for
    every row y and slot i. In integers: for the basis rows x_i / t_i,
    [X^T | I] reduces to [p I | A] with A = p (X^T)^-1, and
    f_i(y / s) = t_i (A y)_i / (p s), so |t_i (A y)_i| / s is compared
    crosswise with |p| and then with the best swap so far. InvariantViolation
    when the rows do not span."""
    n, k = len(rows), len(rows[0])
    basis = _bareiss([list(col) for col in zip(*rows)], n, back=False)[0]
    if len(basis) != k:
        raise InvariantViolation("max_det_exchange: the rows do not span")
    while True:
        cols = zip(*(rows[b] for b in basis))
        work = [list(col) + [int(i == j) for j in range(k)] for i, col in enumerate(cols)]
        best, num, den = None, abs(_bareiss(work, k, back=True)[1]), 1
        for j, (y, s) in enumerate(zip(rows, scales)):
            for i, b in enumerate(basis):
                v = abs(idot(work[i][k:], y)) * scales[b]
                if v * den > num * s:
                    best, num, den = (j, i), v, s
        if best is None:
            return basis
        basis[best[1]] = best[0]
        basis.sort()


def det(m: Matrix) -> Fraction:
    """Exact determinant: idet of the row-scaled integer matrix, whose
    determinant is det(m) times the product of the row scales."""
    if m.rows != m.cols:
        raise ShapeError("det: square matrix required")
    rows, scales = _int_rows(m.data)
    return Fraction(idet(rows), prod(scales))


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeError("inverse: square matrix required")
    n = m.rows
    rows, scales = _int_rows(m.data)
    # [s_i * row_i | s_i * e_i] reduces to [I | m^-1]
    for i, (row, s) in enumerate(zip(rows, scales)):
        row.extend(s if j == i else 0 for j in range(n))
    pivots, d, _ = _bareiss(rows, n, back=True)
    if len(pivots) != n:
        raise ShapeError("inverse: singular matrix")
    return Matrix(tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows))


def quotient_matrix(kernel: Sequence[Vec], dim: int) -> Matrix:
    """A surjection Q^dim -> Q^(dim - k) whose kernel is exactly the span of
    the k independent kernel vectors. One Gauss-Jordan elimination of
    [K^T | I] finds, as its pivot columns past k, the first standard vectors
    that complete the kernel to a basis B, and leaves (B^T)^-1 in place of
    I; its rows past k are dual to the completion."""
    k = len(kernel)
    rows, scales = _int_rows([v[i] for v in kernel] for i in range(dim))
    for i, (row, s) in enumerate(zip(rows, scales)):
        row.extend(s if j == i else 0 for j in range(dim))
    pivots, d, _ = _bareiss(rows, k + dim, back=True)
    if pivots[:k] != list(range(k)):
        raise InvariantViolation("quotient_matrix: the kernel vectors are dependent")
    return Matrix(tuple(tuple(Fraction(x, d) for x in row[k:]) for row in rows[k:]))
