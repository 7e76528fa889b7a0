"""Convex cones with certified membership.

A Cone is either polyhedral, given by generators (V-rep) or by inequality
rows with optional strict flags (H-rep), or the cone of positive
semidefinite symmetric n x n matrices stored as packed upper-triangle
vectors (kind sym_psd), which refuses conversion with a typed error and
decides membership by the exact LDL^T test. Cones are frozen; a value
derived from a frozen object (cone, space, map, matrix) is computed once by
`_cached` and kept in its _derived dict, the package's one cache.

A polyhedral cone's data are its own rows as coprime integer tuples, each
with the positive scale that gives back the row as it was given. The rows
are split so in one place, Cone.__post_init__, however the cone is built,
one pass per row; the constructors only infer the dimension and drop zero
generators. Below it nothing checks the rows again: the double
description trusts them, and a caller of `dd.dd_pair` that breaks the
contract gets a valid but non-canonical description. Everything else reads
the integers: the double description, run at most once per cone and
shared with its dual (same rows), int_vrep and int_hrep, membership and
certificates, extreme rays, pointedness and containment. hrep() and vrep()
are Fraction views for callers outside the library, built once.

Every membership answer is a Certificate that re-verifies by substitution:
a conic decomposition over named generators, a violated inequality row, a
separating functional nonnegative on all generators and negative on the
query, or an exact PSD factorization / negative direction. No LP decides
membership: an H-cone evaluates its rows, and a V-cone reads the facet
rows of its one DD, where the first violated row separates and a
Caratheodory face walk over the generators decomposes a member.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import mul
from typing import Sequence

from . import dd
from .dd import IntVec
from .errors import (
    InputError,
    InvariantViolation,
    NotPointedError,
    PolyhedralRequired,
    ShapeError,
    StrictConeError,
)
from .linalg import (
    Matrix,
    Vec,
    combine,
    common_den,
    dot,
    idot,
    nullspace,
    rank,
    vec,
)
from .psd import ldlt_psd

POLYHEDRAL = "polyhedral"
SYM_PSD = "sym_psd"


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def pack_sym(m: Matrix) -> Vec:
    """Upper triangle of a symmetric matrix, row by row: (i,j) with i <= j."""
    if m.rows != m.cols:
        raise ShapeError("pack_sym: square matrix required")
    for i in range(m.rows):
        for j in range(i):
            if m.data[i][j] != m.data[j][i]:
                raise ShapeError("pack_sym: not symmetric")
    return tuple(m.data[i][j] for i in range(m.rows) for j in range(i, m.rows))


def unpack_sym(v: Sequence[Fraction], n: int) -> Matrix:
    if len(v) != sym_dim(n):
        raise ShapeError(f"unpack_sym: length {len(v)} != {sym_dim(n)}")
    rows = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = v[k]
            k += 1
    return Matrix.from_rows(rows)


def _cached(fn):
    """fn(obj, *args), computed once per frozen obj and kept in obj._derived
    under fn's name, or (name, *args) when there are args. A call that
    raises stores nothing."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = (name, *args) if args else name
        derived = obj._derived
        if key not in derived:
            derived[key] = fn(obj, *args)
        return derived[key]

    return wrapper


@dataclass(frozen=True, eq=False)
class Cone:
    """dim-dimensional cone; exactly one representation is primal at build
    time, held as coprime integer rows, with scales[i] > 0 the rational that
    gives back row i as it was given (None: every scale is 1). The other is
    derived lazily from the cone's double description."""

    dim: int
    generators: tuple[IntVec, ...] | None = None
    inequalities: tuple[IntVec, ...] | None = None
    strict: tuple[bool, ...] | None = None
    kind: str = POLYHEDRAL
    psd_side: int | None = None
    scales: tuple[Fraction | int, ...] | None = None
    _derived: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # the one place where own rows become coprime integer tuples, with
        # their scales multiplied into any given
        own = self.generators is not None
        name = "generators" if own else "inequalities"
        rows = getattr(self, name)
        if rows is not None:
            rows, scales = _split(rows, self.dim, "generator" if own else "row")
            if self.scales:
                scales = _scales(map(mul, self.scales, scales) if scales else self.scales)
            object.__setattr__(self, name, rows)
            object.__setattr__(self, "scales", scales)
        if self.inequalities is not None:
            st = (False,) * len(rows) if self.strict is None else tuple(map(bool, self.strict))
            if len(st) != len(rows):
                raise ShapeError("strict flags must align with rows")
            object.__setattr__(self, "strict", st)

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence], dim: int | None = None) -> "Cone":
        gens = tuple(gens)
        cone = cls(dim=_dim(gens, dim, "generator"), generators=gens)
        if all(map(any, cone.generators)):
            return cone
        rows, scales = _nonzero(cone.generators, cone.scales)
        return cls(dim=cone.dim, generators=rows, scales=scales)

    @classmethod
    def from_inequalities(
        cls, rows: Sequence[Sequence], strict: Sequence[bool] | None = None, dim: int | None = None
    ) -> "Cone":
        rows = tuple(rows)
        return cls(dim=_dim(rows, dim, "row"), inequalities=rows, strict=strict)

    @classmethod
    def sym_psd(cls, n: int) -> "Cone":
        return cls(dim=sym_dim(n), kind=SYM_PSD, psd_side=n)

    # -- representation access ------------------------------------------

    @property
    def is_polyhedral(self) -> bool:
        return self.kind == POLYHEDRAL

    @property
    def has_strict_rows(self) -> bool:
        return bool(self.strict) and any(self.strict)

    def require_polyhedral(self, what: str) -> None:
        if not self.is_polyhedral:
            raise PolyhedralRequired(
                f"{what} is defined for polyhedral cones only; "
                f"sym_psd membership goes through the PSD oracles"
            )

    def require_closed(self, what: str) -> None:
        """Polyhedral without strict rows: the cones whose other
        representation is well defined."""
        self.require_polyhedral(what)
        if self.has_strict_rows:
            raise StrictConeError("close_and_lineality first: cone has strict rows")

    @property
    def rows(self) -> tuple[IntVec, ...]:
        """The cone's own integer rows, generators or inequalities."""
        return self.generators if self.generators is not None else self.inequalities

    def vrep(self) -> tuple[Vec, ...]:
        """Generators as Fractions; lines appear as +- pairs. Strict cones
        must be closed first (their generator form would silently change
        the set)."""
        self.require_closed("generator representation")
        return view(self, self.generators is not None)

    def hrep(self) -> tuple[Vec, ...]:
        """Closed inequality rows (no strict flags) as Fractions."""
        self.require_closed("inequality representation")
        return view(self, self.inequalities is not None)


def _dim(rows: tuple[Sequence, ...], dim: int | None, what: str) -> int:
    """dim as given, or else the length of the first row."""
    if dim is None and not rows:
        raise ShapeError(f"dim required for an empty {what} list")
    return len(rows[0]) if dim is None else dim


def _split(rows: Sequence[Sequence], dim: int, what: str):
    """(coprime integer rows, scales) of rational rows of length dim: row i
    is the integer row times scales[i]. Rows of ints, as the decoder hands
    them over, build a Fraction only for a gcd above 1."""
    out, scales = [], []
    for r in rows:
        nums, den = (r, 1) if all(type(x) is int for x in r) else common_den(vec(r))
        if len(nums) != dim:
            raise ShapeError(f"{what} length mismatch")
        g = gcd(*nums)
        out.append(tuple([x // g for x in nums]) if g > 1 else tuple(nums))
        scales.append(1 if g in (0, den) else Fraction(g, den))
    return tuple(out), _scales(scales)


def _nonzero(rows: tuple[IntVec, ...], scales: tuple | None):
    """(rows, scales) without the zero rows, which generate nothing."""
    keep = [i for i, r in enumerate(rows) if any(r)]
    if len(keep) == len(rows):
        return rows, scales
    return tuple(rows[i] for i in keep), scales and _scales(scales[i] for i in keep)


def _scales(scales) -> tuple | None:
    """Row scales as a cone keeps them: None when every one is 1."""
    scales = tuple(scales)
    return scales if any(s != 1 for s in scales) else None


@_cached
def view(cone: Cone, own: bool) -> tuple[Vec, ...]:
    """A representation as Fractions, for callers outside the library: the
    own rows at the scale they were given (strict flags aside, as
    serialization writes them), or the DD's at scale 1."""
    if not own:
        return tuple(vec(v) for v in _dd_other(cone))
    return tuple(_own_row(cone, i) for i in range(len(cone.rows)))


def _own_row(cone: Cone, i: int) -> Vec:
    """Row i of the cone's own rows at its given scale, as Fractions."""
    s = cone.scales[i] if cone.scales else 1
    return tuple([Fraction(x * s.numerator, s.denominator) for x in cone.rows[i]])


@_cached
def _dd(cone: Cone) -> tuple[list[IntVec], list[IntVec]]:
    """dd_pair of the cone's own rows: the generator form of an H-cone, the
    dual cone, so the facet rows, of a V-cone."""
    return dd.dd_pair(cone.rows, cone.dim)


def _dd_other(cone: Cone) -> list[IntVec]:
    """The representation the DD derives, lines as +- pairs."""
    lin, rays = _dd(cone)
    return rays + [x for l in lin for x in (l, tuple(-v for v in l))]


def int_vrep(cone: Cone) -> Sequence[IntVec]:
    """vrep() as coprime integer tuples: a V-cone's own rows, an H-cone's
    its DD's."""
    cone.require_closed("generator representation")
    return _dd_other(cone) if cone.generators is None else cone.generators


def vrep_scales(cone: Cone) -> tuple | None:
    """The scales that turn int_vrep into vrep(): a V-cone's own, None for
    the DD rays of an H-cone."""
    return cone.scales if cone.generators is not None else None


def int_hrep(cone: Cone) -> Sequence[IntVec]:
    """hrep() as coprime integer tuples: an H-cone's own rows, a V-cone's
    its DD's."""
    cone.require_closed("inequality representation")
    return _dd_other(cone) if cone.inequalities is None else cone.inequalities


@_cached
def _columns(cone: Cone) -> list[list[int]]:
    """a . g for every integer H-row a, one list per integer generator g of
    a V-cone."""
    rows = int_hrep(cone)
    return [[idot(a, g) for a in rows] for g in cone.generators]


def _face_walk(
    gens: Sequence[IntVec], cols: list[list[int]], r: list[int], slack: list[int], den: int
) -> tuple[list[tuple[int, Fraction]], list[int], int] | None:
    """Caratheodory walk over the integer generators gens from r / den, a
    point of the cone C cut out by some integer rows, with cols[j] the
    values of those rows at gens[j] and slack their values at r. Every
    generator must lie in C, so every column is nonnegative.

    Each step takes the first generator g that is tight on every row tight
    at the residual and has a nonzero column, so g lies in the residual's
    minimal face F of C and outside its lineality, and subtracts t g for
    the largest t that keeps the residual in C, by an exact ratio test. The
    first row that turns tight leaves the face smaller, so there are at
    most dim steps. Returns the terms (generator index, t) in units of
    gens and the residual r / den where no row is slack: zero, or a point
    of the lineality. Returns None when the walk stalls, when no generator
    is left for a residual with a slack row; that cannot happen when gens
    generate C, since then F is generated by the generators it contains,
    and they do not all lie in the lineality, as the residual does not."""
    terms = []
    while any(slack):
        tight = [i for i, s in enumerate(slack) if s == 0]
        j, col = next(
            ((j, col) for j, col in enumerate(cols) if any(col) and all(col[i] == 0 for i in tight)),
            (None, None),
        )
        if j is None:
            return None
        p, q = None, 1
        for s, c in zip(slack, col):
            if c > 0 and (p is None or s * q < p * c):
                p, q = s, c
        terms.append((j, Fraction(p, den * q)))
        r = [q * x - p * y for x, y in zip(r, gens[j])]
        slack = [q * s - p * c for s, c in zip(slack, col)]
        den *= q
        g = gcd(den, *r)
        if g > 1:
            r = [x // g for x in r]
            slack = [s // g for s in slack]
            den //= g
    return terms, r, den


@_cached
def _lineality_lift(cone: Cone) -> tuple[Cone, list[int]]:
    """The pointed cone over (g, 1) for the integer generators g of a V-cone
    that lie in its lineality, and their indices."""
    inside = [j for j, col in enumerate(_columns(cone)) if not any(col)]
    return Cone(cone.dim + 1, generators=tuple(cone.generators[j] + (1,) for j in inside)), inside


# the verdict each kind of evidence supports, and whether its cone is PSD
_KINDS = {
    "conic_decomposition": ("member", False),
    "hrep_evaluation": ("member", False),
    "psd_factorization": ("member", True),
    "separating_functional": ("non_member", False),
    "negative_direction": ("non_member", True),
}


def _is_term(entry, n_gens: int) -> bool:
    """A decomposition term (index, coefficient): an int index (not a bool)
    below n_gens and a nonnegative int or Fraction coefficient."""
    if not (isinstance(entry, tuple) and len(entry) == 2):
        return False
    idx, coeff = entry
    return type(idx) is int and 0 <= idx < n_gens and type(coeff) in (int, Fraction) and coeff >= 0


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence for a membership verdict."""

    verdict: str  # "member" | "non_member"
    kind: str
    decomposition: tuple[tuple[int, Fraction], ...] | None = None
    witness: Vec | None = None
    payload: dict | None = None

    def verify(self, cone: Cone, v: Sequence[Fraction]) -> bool:
        """True when the evidence proves the verdict for v; tampered or
        malformed evidence (a verdict its kind cannot support, an index out
        of range or a decomposition term that is not an (index, rational)
        pair, a vector of the wrong length, a separating row of an H-cone
        without its row index) gives False."""
        v = vec(v)
        if _KINDS.get(self.kind) != (self.verdict, cone.kind == SYM_PSD) or len(v) != cone.dim:
            return False
        if self.kind == "conic_decomposition":
            # c units of vrep()[i] are c * s units of the integer generator
            gens, s, terms = int_vrep(cone), vrep_scales(cone), self.decomposition or ()
            if not all(_is_term(entry, len(gens)) for entry in terms):
                return False
            coeffs = [c * s[i] if s else c for i, c in terms]
            return combine(coeffs, [gens[i] for i, _ in terms], cone.dim) == v
        if self.kind == "hrep_evaluation":
            r = common_den(v)[0]
            return all(idot(a, r) >= 0 for a in int_hrep(cone))
        if self.kind == "separating_functional":
            w = self.witness
            if w is None or len(w) != cone.dim or dot(w, v) >= 0:
                return False
            if cone.generators is not None:
                return all(dot(w, g) >= 0 for g in cone.generators)
            # w must be one of the rows, named by the index member stores
            i = (self.payload or {}).get("row_index")
            return type(i) is int and 0 <= i < len(cone.inequalities) and _own_row(cone, i) == w
        if self.kind == "psd_factorization":
            return ldlt_psd(unpack_sym(v, cone.psd_side)).is_psd
        x = self.witness  # negative_direction
        if x is None or len(x) != cone.psd_side:
            return False
        return dot(x, unpack_sym(v, cone.psd_side).apply(x)) < 0


def member(cone: Cone, v: Sequence[Fraction]) -> Certificate:
    """Certified membership test. Strict-flagged cones are rejected: their
    membership is only well defined after closing.

    An H-cone answers from its own rows, a sym_psd cone from LDL^T. A V-cone
    reads int_hrep, the facet rows of its one DD: the first row in that
    order negative on v is the separating functional of a non-member, and
    a member's conic decomposition comes from `_face_walk`, with a second
    walk for a residual left in the lineality. The certificate is verified
    before it is returned."""
    v = vec(v)
    if len(v) != cone.dim:
        raise ShapeError(f"vector length {len(v)} != cone dim {cone.dim}")
    if cone.kind == SYM_PSD:
        res = ldlt_psd(unpack_sym(v, cone.psd_side))
        if res.is_psd:
            return Certificate("member", "psd_factorization")
        return Certificate("non_member", "negative_direction", witness=res.witness)
    if cone.has_strict_rows:
        raise StrictConeError("membership undefined with strict rows; close the cone first")
    if cone.inequalities is not None:
        r = common_den(v)[0]
        for i, row in enumerate(cone.inequalities):
            if idot(row, r) < 0:
                return Certificate(
                    "non_member", "separating_functional", witness=_own_row(cone, i), payload={"row_index": i}
                )
        return Certificate("member", "hrep_evaluation")
    cert = _generator_member(cone, v)
    if not cert.verify(cone, v):
        raise InvariantViolation("membership certificate failed re-verification")
    return cert


def _generator_member(cone: Cone, v: Vec) -> Certificate:
    """Membership in a V-cone from its integer H-rep, in integers: v is
    scaled by the common denominator of its entries."""
    rows = int_hrep(cone)
    r, den = common_den(v)
    slack = [idot(a, r) for a in rows]
    bad = next((a for a, s in zip(rows, slack) if s < 0), None)
    if bad is not None:
        return Certificate("non_member", "separating_functional", witness=vec(bad))
    walk = _face_walk(cone.generators, _columns(cone), r, slack, den)
    if walk is None:
        raise InvariantViolation("no generator in the minimal face of a point of the cone")
    terms, r, den = walk
    if any(r):
        # the residual lies in the lineality: walk in the pointed cone over
        # (g, 1), g the generators inside the lineality, from its lowest
        # point (r, p / q) above the residual; rows (b, beta) of that cone
        # have beta >= 0 and bound the height below by -b.r / beta
        lift, inside = _lineality_lift(cone)
        lift_rows = int_hrep(lift)
        p, q = None, 1
        for b in lift_rows:
            br = -idot(b[:-1], r)
            if b[-1] > 0 and (p is None or br * q > p * b[-1]):
                p, q = br, b[-1]
        lifted = [q * x for x in r] + [p]
        walk = _face_walk(lift.generators, _columns(lift), lifted, [idot(b, lifted) for b in lift_rows], den * q)
        if walk is None or any(walk[1]):
            raise InvariantViolation("lineality residual left the lifted cone")
        terms += [(inside[k], t) for k, t in walk[0]]
    # t units of the integer generator are t / s units of vrep()[j] = s g
    s = cone.scales
    decomp = tuple((j, t / s[j] if s else t) for j, t in sorted(terms))
    return Certificate("member", "conic_decomposition", decomposition=decomp)


def dual(cone: Cone) -> Cone:
    """Dual cone under the standard pairing; a representation swap that
    shares the cone's double description, since both have the same rows.

    The dual only sees the closure, so strict flags are dropped. sym_psd is
    self-dual and is returned as such.
    """
    if cone.kind == SYM_PSD:
        return cone
    if cone.generators is not None:
        out = Cone(cone.dim, inequalities=cone.generators, scales=cone.scales)
    else:
        rows, scales = _nonzero(cone.inequalities, cone.scales)
        out = Cone(cone.dim, generators=rows, scales=scales)
    out._derived[_dd.__name__] = _dd(cone)
    return out


@_cached
def _lineality(cone: Cone) -> list[Vec]:
    """Basis of the lineality of the closure: the common kernel of its rows,
    for the certificates of non-pointed cones; `_pointed` decides."""
    rows = cone.inequalities if cone.inequalities is not None else int_hrep(cone)
    return nullspace(rows) if rows else list(Matrix.identity(cone.dim).data)


@_cached
def _pointed(cone: Cone) -> bool:
    """Whether the closure holds no line, read off the one DD: an H-cone's
    lineality basis is empty, or a V-cone's facet rows have full rank."""
    if cone.generators is None:
        return not _dd(cone)[0]
    return rank(int_hrep(cone)) == cone.dim


def close_and_lineality(cone: Cone) -> tuple[Cone, list[Vec]]:
    """Drop strict flags; return the closure and a basis of its lineality."""
    cone.require_polyhedral("close_and_lineality")
    if cone.has_strict_rows:
        cone = Cone(cone.dim, inequalities=cone.inequalities, scales=cone.scales)
    return cone, _lineality(cone)


@_cached
def extreme_rays(cone: Cone) -> list[Vec]:
    """Minimal generating set (coprime integer coordinates) of a pointed
    closed cone. Non-pointed input raises NotPointedError with the lineality
    basis attached rather than silently reducing.

    Both routes read the cone's one double description. An H-cone's rays
    are the DD's. A V-cone's DD gives its facet rows, and a nonzero
    generator g is extreme iff no other generator is tight on every row
    tight at g: one that is lies in g's minimal face, which is then at
    least two-dimensional. The test compares tight-row bitmasks, so no LP
    and no rank per generator runs."""
    cone.require_closed("extreme_rays")
    return [vec(r) for r in _int_extreme_rays(cone)]


@_cached
def _int_extreme_rays(cone: Cone) -> list[IntVec]:
    """extreme_rays as coprime integer tuples."""
    if not _pointed(cone):
        lineality = _lineality(cone) if cone.generators is not None else [vec(l) for l in _dd(cone)[0]]
        raise NotPointedError(
            f"cone has lineality of dimension {len(lineality)}", lineality=lineality
        )
    if cone.generators is None:
        return _dd(cone)[1]
    # parallel generators share one coprime integer tuple, since a pointed
    # cone holds no opposite pair; zero generators are left out
    masks = {}
    for g, col in zip(cone.generators, _columns(cone)):
        if any(g):
            masks.setdefault(g, sum(1 << i for i, c in enumerate(col) if c == 0))
    return sorted(g for g, m in masks.items() if all(n & m != m or h == g for h, n in masks.items()))


def is_simplicial(cone: Cone) -> bool:
    """Pointed, closed, full-dimensional, with exactly dim extreme rays that
    are linearly independent. Validation failures raise typed errors."""
    cone.require_closed("is_simplicial")
    rays = _int_extreme_rays(cone)  # raises NotPointedError when not pointed
    full = rank(rays) == cone.dim
    if not full:
        raise InputError("is_simplicial requires a full-dimensional cone")
    return len(rays) == cone.dim


@_cached
def _int_matrix(m: Matrix) -> tuple[list[IntVec], int]:
    """m as (M, d): rows of integer numerators over one positive
    denominator, m = M / d."""
    nums, den = common_den([x for row in m.data for x in row])
    n = m.cols
    return [tuple(nums[i * n : i * n + n]) for i in range(m.rows)], den


def image_cone(cone: Cone, m: Matrix) -> Cone:
    """Forward image of a closed polyhedral cone: map the generators, drop
    zero images. The result may be non-pointed; that is the caller's concern.

    In integers, for m = M / d over one denominator: the image of the
    generator s g, g coprime, is M g s / d, kept as the coprime row
    M g / h with scale h s / d, h the gcd of M g; so vrep() of the image
    is m applied to vrep() of the cone."""
    cone.require_polyhedral("image_cone")
    if m.cols != cone.dim:
        raise ShapeError(f"matrix expects dim {m.cols}, cone has {cone.dim}")
    mrows, den = _int_matrix(m)
    rows, scales = [], []
    for g, s in zip(int_vrep(cone), vrep_scales(cone) or repeat(1)):
        img = [idot(r, g) for r in mrows]
        h = gcd(*img)
        if h:
            p, q = h * s.numerator, den * s.denominator
            rows.append(tuple([x // h for x in img]))
            scales.append(1 if p == q else Fraction(p, q))
    return Cone(m.rows, generators=tuple(rows), scales=_scales(scales))


def contains(outer: Cone, inner: Cone) -> bool:
    """outer >= inner for closed cones, inner polyhedral.

    A polyhedral outer cone is decided by integer sign tests: every H-row
    of outer must be nonnegative on every V-generator of inner. That reads
    the DD of a V-cone outer and of an H-cone inner, so an equality by
    contains both ways runs both DDs; `same_cone` runs one. A sym_psd
    outer cone has no H-rep, so each generator goes through the exact PSD
    test."""
    if outer.dim != inner.dim:
        raise ShapeError(f"contains: cone dims {outer.dim} and {inner.dim} differ")
    if outer.kind == SYM_PSD:
        return all(member(outer, g).verdict == "member" for g in int_vrep(inner))
    gens = int_vrep(inner)
    if not gens:
        return True
    rows = int_hrep(outer)
    return all(idot(a, g) >= 0 for g in gens for a in rows)


def same_cone(a: Cone, b: Cone) -> bool:
    """Set equality of closed polyhedral cones from one double description.

    Call a V-cone argument the inner cone, b when both are, and the other
    the outer cone. When the outer cone is pointed, only its DD runs.
    inner <= outer is the sign test of `contains`, on the columns of the
    outer H-rows at the inner generators. outer <= inner holds iff every
    generator of the outer V-rep (a V-cone's own, an H-cone's DD rays) is
    a nonnegative combination of the inner generators. A generator that is
    an inner one is its own decomposition; any other is decomposed by
    `_face_walk` over those columns, and the decomposition is verified by
    substitution before True is returned. The walk cannot stall when the
    cones are equal: every face of the outer cone is then generated by the
    inner generators it contains. So a stalled walk proves the cones
    differ, and with inner <= outer that is outer not <= inner.

    Two H-cones, with no generators on either side to walk over, and a
    non-pointed outer cone, where a walk may end at a point of the
    lineality that it does not decompose, take contains both ways."""
    outer, inner = (b, a) if b.generators is None else (a, b)
    gens = inner.generators
    if gens is None or outer.dim != inner.dim or outer.kind == SYM_PSD or not is_pointed(outer):
        return contains(a, b) and contains(b, a)
    rows = int_hrep(outer)
    cols = [[idot(r, g) for r in rows] for g in gens]
    if any(c < 0 for col in cols for c in col):
        return False
    own = set(gens)
    for v in int_vrep(outer):
        if v in own:
            continue
        walk = _face_walk(gens, cols, list(v), [idot(r, v) for r in rows], 1)
        if walk is None:
            return False
        terms = walk[0]
        if combine([t for _, t in terms], [gens[j] for j, _ in terms], outer.dim) != v:
            raise InvariantViolation("conic decomposition failed re-verification")
    return True


def is_pointed(cone: Cone) -> bool:
    cone.require_closed("is_pointed")
    return _pointed(cone)
