"""Exact separability and block-positivity oracles for 4x4 symmetric
matrices viewed as elements of the 2 (x) 2 tensor square.

Three cones appear: the PSD cone, the pi cone generated by Kronecker
products of PSD pairs, and the epsilon cone of block-positive matrices
(nonnegative on all simple tensors x (x) y).  pi sits inside PSD sits
inside epsilon.  Membership claims are decided by LDL^T factorizations,
partial-transpose functionals, and one linear test for sums of squares:
the block form m -> (x (x) y)^T m (x (x) y) has the Segre relation's span
as its kernel on symmetric 4x4 matrices, so two matrices have the same
block form exactly when they differ by a multiple of it.  A general
block-positivity query gets a three-valued answer whose positive verdicts
always carry substitution-checkable evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantViolation, ShapeError
from .linalg import Matrix, Vec, dot, frac, vec
from .psd import ldlt_psd

BELL = Matrix.from_rows(
    [(1, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 1)]
)
SWAP = Matrix.from_rows(
    [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
)
I4 = Matrix.identity(4)

# the one quadric vanishing on simple tensors in the 2 (x) 2 square:
# z^T R z = z1 z2 - z0 z3
SEGRE_RELATION = Matrix.from_rows(
    [
        (0, 0, 0, Fraction(-1, 2)),
        (0, 0, Fraction(1, 2), 0),
        (0, Fraction(1, 2), 0, 0),
        (Fraction(-1, 2), 0, 0, 0),
    ]
)


def _segre_shift(m: Matrix, t: Fraction) -> Matrix:
    """m + t*R for the Segre relation R."""
    return Matrix.from_rows(
        [[m.data[i][j] + t * SEGRE_RELATION.data[i][j] for j in range(4)] for i in range(4)]
    )


def _require_sym4(m: Matrix) -> None:
    if m.rows != 4 or m.cols != 4:
        raise ShapeError("expected a 4x4 matrix")
    for i in range(4):
        for j in range(i):
            if m.data[i][j] != m.data[j][i]:
                raise InputError("matrix must be symmetric")


def partial_transpose(m: Matrix) -> Matrix:
    """Transpose on the second 2x2 factor: entry ((i,j),(k,l)) moves to
    ((i,l),(k,j)) in the row-major 2 (x) 2 index convention."""
    _require_sym4(m)
    out = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + j][2 * k + l] = m.data[2 * i + l][2 * k + j]
    return Matrix.from_rows(out)


def sos_matches(m: Matrix, squares: tuple[Vec, ...]) -> bool:
    """Does the block form of m equal the given sum of bilinear squares?

    The block form m -> (x (x) y)^T m (x (x) y) is linear on symmetric 4x4
    matrices and sends c c^T to the square (c . (x (x) y))^2.  It maps their
    10 entries onto the 9 monomials x_i x_k y_j y_l and sends the Segre
    relation R to 0, so its kernel is span(R).  The forms match exactly
    when D = m - sum c c^T is a multiple t R of R, and as R[0][3] = -1/2,
    t = -2 D[0][3].  A square with other than four entries is a ShapeError.
    """
    _require_sym4(m)
    squares = [vec(c) for c in squares]
    if any(len(c) != 4 for c in squares):
        raise ShapeError("a bilinear square needs four coefficients")
    rest = [[x - sum(c[i] * c[j] for c in squares) for j, x in enumerate(row)] for i, row in enumerate(m.data)]
    return not any(any(row) for row in _segre_shift(Matrix.from_rows(rest), 2 * rest[0][3]).data)


# -- verdicts --------------------------------------------------------------

# the claim and cone each kind of evidence supports, and the field that holds
# the evidence (None: the matrix itself is the evidence)
_KINDS = {
    "psd_factorization": ("member", "psd", None),
    "negative_direction": ("non_member", "psd", "direction"),
    "partial_transpose_witness": ("non_member", "pi", "direction"),
    "psd_superset": ("non_member", "pi", "direction"),
    "product_decomposition": ("member", "pi", "products"),
    "gram_shift": ("member", "epsilon", "shift"),
    "polynomial_identity": ("member", "epsilon", "sos"),
}


@dataclass(frozen=True)
class TensorVerdict:
    """One membership claim about a 4x4 symmetric matrix, with enough data
    to re-check it from scratch.

    The pi cone is generated by the products pp^T (x) qq^T = zz^T of simple
    tensors z = p (x) q, and <W, zz^T> is the block form of W at (p, q).
    The three direction kinds share one test, d^T w d == value < 0, with
    w = m, or w = PT(m) for partial_transpose_witness; what makes that
    test enough holds for every d, so nothing else is checked:
    - negative_direction: a negative value refutes PSD;
    - psd_superset: d^T m d = <dd^T, m>, and the block form of dd^T is
      (d . (x (x) y))^2 >= 0, so dd^T is nonnegative on pi;
    - partial_transpose_witness: d^T PT(m) d = <PT(dd^T), m>, and the
      partial transpose keeps the block form, so PT(dd^T) has the same
      square (Horodecki, Horodecki & Horodecki, Phys. Lett. A 223, 1996).
    gram_shift needs only the LDL^T of m + t R: the block form of the Segre
    relation R is the constant 0, so m and m + t R agree on simple tensors.
    """

    claim: str  # "member" | "non_member"
    cone: str  # "psd" | "pi" | "epsilon"
    kind: str
    direction: Vec | None = None
    value: Fraction | None = None
    shift: Fraction | None = None
    sos: tuple[Vec, ...] | None = None
    products: tuple[tuple[Matrix, Matrix], ...] | None = None

    def verify(self, m: Matrix) -> bool:
        """True when the evidence proves the claim for m; a claim or cone
        its kind cannot support, or evidence missing or malformed (a
        direction or square without four entries, a product not a pair of
        2x2 matrices, a shift or value not an exact rational) gives False."""
        if self.kind not in _KINDS:
            return False
        claim, cone, evidence = _KINDS[self.kind]
        if (self.claim, self.cone) != (claim, cone):
            return False
        if evidence is not None and getattr(self, evidence) is None:
            return False
        try:
            _require_sym4(m)
            return self._verify(m)
        except (InputError, InvariantViolation, ValueError, ZeroDivisionError):
            return False

    def _verify(self, m: Matrix) -> bool:
        if self.kind == "psd_factorization":
            return ldlt_psd(m).is_psd
        if self.kind == "gram_shift":
            return ldlt_psd(_segre_shift(m, frac(self.shift))).is_psd
        if self.kind == "polynomial_identity":
            return sos_matches(m, self.sos)
        if self.kind == "product_decomposition":
            factors = [f for pair in self.products if isinstance(pair, tuple) and len(pair) == 2 for f in pair]
            if len(factors) != 2 * len(self.products) or any(
                not isinstance(f, Matrix) or (f.rows, f.cols) != (2, 2) or not ldlt_psd(f).is_psd for f in factors
            ):
                return False
            krons = [p.kron(q).data for p, q in self.products]
            return all(sum((k[i][j] for k in krons), Fraction(0)) == m.data[i][j] for i in range(4) for j in range(4))
        d = self.direction
        w = partial_transpose(m) if self.kind == "partial_transpose_witness" else m
        return dot(d, w.apply(d)) == frac(self.value) < 0


@dataclass(frozen=True)
class WitnessReport:
    label: str
    matrix: Matrix
    verdicts: dict

    def verify(self) -> bool:
        return all(v.verify(self.matrix) for v in self.verdicts.values())


@dataclass(frozen=True)
class BlockPositivityReport:
    verdict: str  # "certified_member" | "certified_non_member" | "undecided"
    evidence: TensorVerdict | None = None
    counterexample: tuple[Vec, Vec, Fraction] | None = None


_GRID = tuple(
    frac(v) for v in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)
)
# the nonzero grid points of the plane, in the order the search visits them
_PAIRS = tuple((a, b) for a in _GRID for b in _GRID if a or b)
# the Gram shifts tried after the two informed guesses: -33/2, ..., 33/2
_SHIFTS = tuple(Fraction(k, 2) for k in range(-33, 34))


def block_positive(m: Matrix) -> BlockPositivityReport:
    """Three-valued block positivity of a symmetric 4x4 matrix.

    Membership is certified by a rational t with m + t*R PSD (R is the
    Segre relation, invisible on simple tensors); non-membership by a
    rational simple tensor with negative value.  Neither search is
    complete, so "undecided" is a possible honest answer.  A member's
    gram_shift verdict holds by the search that found it: its verify is
    the LDL^T of m + t*R that has just come out PSD.  R's diagonal is
    zero, so a negative diagonal entry of m survives every shift and no
    shift is tried, and a zero one needs its row of m + t*R zero (as in any
    PSD matrix): only that t, if any, is tried.
    """
    _require_sym4(m)
    zero = [i for i in range(4) if m.data[i][i] == 0]
    candidates = () if any(m.data[i][i] < 0 for i in range(4)) else [
        t
        for t in (Fraction(0), 2 * (m.data[0][3] - m.data[1][2])) + _SHIFTS
        if not any(m.data[i][j] + t * SEGRE_RELATION.data[i][j] for i in zero for j in range(4))
    ]
    for t in dict.fromkeys(candidates):
        if ldlt_psd(_segre_shift(m, t)).is_psd:
            ev = TensorVerdict(claim="member", cone="epsilon", kind="gram_shift", shift=t)
            return BlockPositivityReport(verdict="certified_member", evidence=ev)
    for x in _PAIRS:
        for y in _PAIRS:
            z = tuple(a * b for a in x for b in y)
            v = dot(z, m.apply(z))
            if v < 0:
                return BlockPositivityReport(verdict="certified_non_member", counterexample=(x, y, v))
    return BlockPositivityReport(verdict="undecided")


def psd_example_suite() -> list[WitnessReport]:
    """The two boundary examples and the identity, fully certified.

    Bell is PSD yet outside the pi cone (partial transpose witness); Swap
    is block positive, by the identity (x (x) y)^T S (x (x) y) = (x.y)^2,
    yet not PSD.  Bell = vv^T, v = (1, 0, 0, 1), has the same block form
    (x.y)^2, so one square is both epsilon verdicts.  The identity matrix
    belongs to all three cones.  Swap's one LDL^T gives the direction d,
    d^T Swap d < 0, behind its two non-member verdicts and, as
    Swap = PT(Bell), behind Bell's pi one.
    Each report's closing `verify` is the one check; it runs the one
    LDL^T of Bell and of the identity.
    """
    d = ldlt_psd(SWAP).witness
    if d is None:
        raise InvariantViolation("Swap must not be PSD")
    value = dot(d, SWAP.apply(d))
    psd_member = TensorVerdict(claim="member", cone="psd", kind="psd_factorization")
    i2 = Matrix.identity(2)
    xy_squared = TensorVerdict("member", "epsilon", "polynomial_identity", sos=(vec((1, 0, 0, 1)),))
    reports = [
        WitnessReport(
            label="bell",
            matrix=BELL,
            verdicts={
                "psd": psd_member,
                "pi": TensorVerdict(
                    claim="non_member",
                    cone="pi",
                    kind="partial_transpose_witness",
                    direction=d,
                    value=value,
                ),
                "epsilon": xy_squared,
            },
        ),
        WitnessReport(
            label="swap",
            matrix=SWAP,
            verdicts={
                "psd": TensorVerdict("non_member", "psd", "negative_direction", direction=d, value=value),
                "pi": TensorVerdict("non_member", "pi", "psd_superset", direction=d, value=value),
                "epsilon": xy_squared,
            },
        ),
        WitnessReport(
            label="identity",
            matrix=I4,
            verdicts={
                "psd": psd_member,
                "pi": TensorVerdict(
                    claim="member",
                    cone="pi",
                    kind="product_decomposition",
                    products=((i2, i2),),
                ),
                "epsilon": TensorVerdict(
                    claim="member",
                    cone="epsilon",
                    kind="polynomial_identity",
                    sos=(
                        vec((1, 0, 0, 0)),
                        vec((0, 1, 0, 0)),
                        vec((0, 0, 1, 0)),
                        vec((0, 0, 0, 1)),
                    ),
                ),
            },
        ),
    ]
    for rep in reports:
        if not rep.verify():
            raise InvariantViolation(f"suite report {rep.label} failed to verify")
    return reports
