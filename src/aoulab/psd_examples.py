"""Exact separability and block-positivity oracles for 4x4 symmetric
matrices viewed as elements of the 2 (x) 2 tensor square.

Three cones appear: the PSD cone, the pi cone generated by Kronecker
products of PSD pairs, and the epsilon cone of block-positive matrices
(nonnegative on all simple tensors x (x) y).  pi sits inside PSD sits
inside epsilon.  Membership claims are decided by LDL^T factorizations,
partial-transpose functionals, and exact polynomial identities; a general
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


# -- tiny exact polynomial engine over the variables x0, x1, y0, y1 -------

Poly = dict


def _padd(p: Poly, mono: tuple, c: Fraction) -> None:
    if c == 0:
        return
    nc = p.get(mono, Fraction(0)) + c
    if nc == 0:
        p.pop(mono, None)
    else:
        p[mono] = nc


def biquadratic_form(m: Matrix) -> Poly:
    """(x (x) y)^T m (x (x) y) as a polynomial in x0, x1, y0, y1."""
    _require_sym4(m)
    p: Poly = {}
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


def bilinear_square(c: Vec) -> Poly:
    """(sum_{ij} c_{2i+j} x_i y_j)^2 as a polynomial."""
    c = vec(c)
    p: Poly = {}
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


def sos_matches(m: Matrix, squares: tuple[Vec, ...]) -> bool:
    """Does the block form of m equal the given sum of bilinear squares?"""
    total: Poly = {}
    for c in squares:
        for mono, coeff in bilinear_square(c).items():
            _padd(total, mono, coeff)
    return total == biquadratic_form(m)


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
    to re-check it from scratch."""

    claim: str  # "member" | "non_member"
    cone: str  # "psd" | "pi" | "epsilon"
    kind: str
    direction: Vec | None = None
    value: Fraction | None = None
    shift: Fraction | None = None
    sos: tuple[Vec, ...] | None = None
    functional: Matrix | None = None
    products: tuple[tuple[Matrix, Matrix], ...] | None = None

    def verify(self, m: Matrix) -> bool:
        """True when the evidence proves the claim for m; a claim or cone
        its kind cannot support, missing evidence or malformed evidence
        gives False."""
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
        except (InputError, InvariantViolation):
            return False

    def _verify(self, m: Matrix) -> bool:
        if self.kind == "psd_factorization":
            return ldlt_psd(m).is_psd
        if self.kind == "negative_direction":
            v = dot(self.direction, m.apply(self.direction))
            return v == self.value and v < 0
        if self.kind == "partial_transpose_witness":
            # d^T PT(m) d < 0 while <PT(dd^T), P (x) Q> = (d.(p (x) q))^2 >= 0
            # on every product of PSD matrices, so PT(dd^T) separates m
            # from the pi cone
            d = self.direction
            pt = partial_transpose(m)
            v = dot(d, pt.apply(d))
            if not (v == self.value and v < 0):
                return False
            w = partial_transpose(
                Matrix.from_rows([[a * b for b in d] for a in d])
            )
            if self.functional is not None and w.data != self.functional.data:
                return False
            return sos_matches(w, (d,))
        if self.kind == "gram_shift":
            # m + t*R is PSD and R vanishes on simple tensors, so the block
            # form of m is a sum of squares on simple tensors
            if not ldlt_psd(_segre_shift(m, self.shift)).is_psd:
                return False
            return biquadratic_form(SEGRE_RELATION) == {}
        if self.kind == "polynomial_identity":
            return sos_matches(m, self.sos)
        if self.kind == "product_decomposition":
            total = [[Fraction(0)] * 4 for _ in range(4)]
            for p, q in self.products:
                if {p.rows, p.cols, q.rows, q.cols} != {2}:
                    return False
                if not ldlt_psd(p).is_psd or not ldlt_psd(q).is_psd:
                    return False
                kr = p.kron(q)
                for i in range(4):
                    for j in range(4):
                        total[i][j] += kr.data[i][j]
            return Matrix.from_rows(total).data == m.data
        # psd_superset: the functional M -> d^T M d is nonnegative on every
        # simple product (d^T (pp^T (x) qq^T) d = (d.(p (x) q))^2, checked
        # below), hence on pi, yet negative on m
        d = self.direction
        v = dot(d, m.apply(d))
        if not (v == self.value and v < 0):
            return False
        outer = Matrix.from_rows([[a * b for b in d] for a in d])
        return sos_matches(outer, (d,))


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
# the Gram shifts tried after the two informed guesses: -33/2, ..., 33/2
_SHIFTS = tuple(Fraction(k, 2) for k in range(-33, 34))


def block_positive(m: Matrix) -> BlockPositivityReport:
    """Three-valued block positivity of a symmetric 4x4 matrix.

    Membership is certified by a rational t with m + t*R PSD (R is the
    Segre relation, invisible on simple tensors); non-membership by a
    rational simple tensor with negative value.  Neither search is
    complete, so "undecided" is a possible honest answer.
    """
    _require_sym4(m)
    candidates = (Fraction(0), 2 * (m.data[0][3] - m.data[1][2])) + _SHIFTS
    seen = set()
    for t in candidates:
        if t in seen:
            continue
        seen.add(t)
        if ldlt_psd(_segre_shift(m, t)).is_psd:
            ev = TensorVerdict(claim="member", cone="epsilon", kind="gram_shift", shift=t)
            if not ev.verify(m):
                raise InvariantViolation("gram shift certificate failed to verify")
            return BlockPositivityReport(verdict="certified_member", evidence=ev)
    for x0 in _GRID:
        for x1 in _GRID:
            if x0 == 0 and x1 == 0:
                continue
            x = (x0, x1)
            for y0 in _GRID:
                for y1 in _GRID:
                    if y0 == 0 and y1 == 0:
                        continue
                    y = (y0, y1)
                    z = tuple(a * b for a in x for b in y)
                    v = dot(z, m.apply(z))
                    if v < 0:
                        return BlockPositivityReport(
                            verdict="certified_non_member",
                            counterexample=(x, y, v),
                        )
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
                    functional=partial_transpose(Matrix.from_rows([[a * b for b in d] for a in d])),
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
