"""Convex cones with certified membership.

A Cone is either polyhedral, given by generators (V-rep) or by inequality
rows with optional strict flags (H-rep), or the cone of positive
semidefinite symmetric n x n matrices stored as packed upper-triangle
vectors (kind sym_psd). Cones are frozen, so what is derived from their
fields stays valid. sym_psd cones refuse conversion with a typed error and
delegate membership to the exact LDL^T test.

A value derived from a frozen object (cone, space, map) is computed once
by `_cached` and kept in the object's _derived dict, the package's one
cache. A polyhedral cone runs double description on its own rows at most
once and keeps the result, coprime integer tuples. Everything derived reads
that one pair: the other representation (vrep() of an H-cone, hrep() of a
V-cone), extreme_rays, contains, is_pointed and close_and_lineality. dual()
hands the pair to the dual cone, whose DD input is the same rows. The
cone's own rows are integerized once as well, for the DD and for
int_vrep/int_hrep. Work stays in integers; Fractions are built only for
what public functions return.

Every membership answer is a Certificate that re-verifies by substitution:
a conic decomposition over named generators, a violated inequality row, a
separating functional that is nonnegative on all generators and negative on
the query, or an exact PSD factorization / negative direction. Membership
solves no LP: an H-cone evaluates its rows, and a V-cone reads the integer
H-rep of its one DD, where the first violated row separates and a
Caratheodory face walk over the generators decomposes a member.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from . import dd
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
    integerize,
    is_zero_vec,
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
    time, the other is derived lazily from the cone's double description."""

    dim: int
    generators: tuple[Vec, ...] | None = None
    inequalities: tuple[Vec, ...] | None = None
    strict: tuple[bool, ...] | None = None
    kind: str = POLYHEDRAL
    psd_side: int | None = None
    _derived: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence], dim: int | None = None) -> "Cone":
        gv = tuple(vec(g) for g in gens)
        if dim is None:
            if not gv:
                raise ShapeError("dim required for an empty generator list")
            dim = len(gv[0])
        for g in gv:
            if len(g) != dim:
                raise ShapeError("generator length mismatch")
        return cls(dim=dim, generators=tuple(g for g in gv if not is_zero_vec(g)))

    @classmethod
    def from_inequalities(
        cls, rows: Sequence[Sequence], strict: Sequence[bool] | None = None, dim: int | None = None
    ) -> "Cone":
        rv = tuple(vec(r) for r in rows)
        if dim is None:
            if not rv:
                raise ShapeError("dim required for an empty row list")
            dim = len(rv[0])
        for r in rv:
            if len(r) != dim:
                raise ShapeError("row length mismatch")
        st = tuple(bool(s) for s in strict) if strict is not None else (False,) * len(rv)
        if len(st) != len(rv):
            raise ShapeError("strict flags must align with rows")
        return cls(dim=dim, inequalities=rv, strict=st)

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

    def vrep(self) -> tuple[Vec, ...]:
        """Generators; lines appear as +- pairs. Strict cones must be closed
        first (their generator form would silently change the set)."""
        self.require_closed("generator representation")
        return self.generators if self.generators is not None else self._from_dd()

    def hrep(self) -> tuple[Vec, ...]:
        """Closed inequality rows (no strict flags)."""
        self.require_closed("inequality representation")
        return self.inequalities if self.inequalities is not None else self._from_dd()

    @_cached
    def _from_dd(self) -> tuple[Vec, ...]:
        """The derived representation as Fractions."""
        return tuple(vec(v) for v in _dd_other(self))


@_cached
def _own_int_rows(cone: Cone) -> list[dd.IntVec]:
    """The cone's own rows (generators or inequalities) as coprime integer
    tuples."""
    rows = cone.generators if cone.generators is not None else cone.inequalities
    return [integerize(r) for r in rows]


@_cached
def _dd(cone: Cone) -> tuple[list[dd.IntVec], list[dd.IntVec]]:
    """dd_pair of the cone's own rows (generators or inequalities): the
    generator form of an H-cone, the dual cone, so the facet rows, of a
    V-cone."""
    return dd.dd_pair(_own_int_rows(cone), cone.dim)


def _dd_other(cone: Cone) -> list[dd.IntVec]:
    """The representation the DD derives, lines as +- pairs."""
    lin, rays = _dd(cone)
    return rays + [x for l in lin for x in (l, tuple(-v for v in l))]


def int_vrep(cone: Cone) -> list[dd.IntVec]:
    """vrep() as coprime integer tuples; an H-cone's are its DD's own."""
    cone.require_closed("generator representation")
    return _dd_other(cone) if cone.generators is None else _own_int_rows(cone)


def int_hrep(cone: Cone) -> list[dd.IntVec]:
    """hrep() as coprime integer tuples; a V-cone's are its DD's own."""
    cone.require_closed("inequality representation")
    return _dd_other(cone) if cone.inequalities is None else _own_int_rows(cone)


@_cached
def _columns(cone: Cone) -> list[list[int]]:
    """a . g for every integer H-row a, one list per integer generator g of
    a V-cone."""
    rows = int_hrep(cone)
    return [[idot(a, g) for a in rows] for g in _own_int_rows(cone)]


def _face_walk(
    cone: Cone, r: list[int], slack: list[int], den: int
) -> tuple[list[tuple[int, Fraction]], list[int], int]:
    """Caratheodory walk from r / den, a point of the V-cone, with slack the
    values of int_hrep(cone) at r.

    Each step takes the first generator g that is tight on every row tight
    at the residual and lies outside the lineality, so g is in the
    residual's minimal face, and subtracts t g for the largest t that keeps
    the residual in the cone, by an exact ratio test. The first row that
    turns tight leaves the face smaller, so there are at most dim steps.
    Returns the terms (generator index, t) in units of the integer
    generators and the residual r / den where no such generator is left:
    zero, or a point of the lineality."""
    own = _own_int_rows(cone)
    terms = []
    while any(slack):
        tight = [i for i, s in enumerate(slack) if s == 0]
        j, col = next(
            (
                (j, col)
                for j, col in enumerate(_columns(cone))
                if any(col) and all(col[i] == 0 for i in tight)
            ),
            (None, None),
        )
        if j is None:
            raise InvariantViolation("no generator in the minimal face of a point of the cone")
        p, q = None, 1
        for s, c in zip(slack, col):
            if c > 0 and (p is None or s * q < p * c):
                p, q = s, c
        terms.append((j, Fraction(p, den * q)))
        r = [q * x - p * y for x, y in zip(r, own[j])]
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
    own = _own_int_rows(cone)
    return Cone.from_generators([own[j] + (1,) for j in inside], dim=cone.dim + 1), inside


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
            gens, terms = cone.vrep(), self.decomposition or ()
            if not all(_is_term(entry, len(gens)) for entry in terms):
                return False
            return combine([c for _, c in terms], [gens[i] for i, _ in terms], cone.dim) == v
        if self.kind == "hrep_evaluation":
            return all(dot(row, v) >= 0 for row in cone.hrep())
        if self.kind == "separating_functional":
            w = self.witness
            if w is None or len(w) != cone.dim or dot(w, v) >= 0:
                return False
            if cone.generators is not None:
                return all(dot(w, g) >= 0 for g in cone.generators)
            # w must be one of the rows, named by the index member stores
            rows, i = cone.inequalities, (self.payload or {}).get("row_index")
            return type(i) is int and 0 <= i < len(rows) and rows[i] == w
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
        for i, row in enumerate(cone.inequalities):
            if dot(row, v) < 0:
                return Certificate(
                    "non_member", "separating_functional", witness=row, payload={"row_index": i}
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
    terms, r, den = _face_walk(cone, r, slack, den)
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
        more, rest, _ = _face_walk(lift, lifted, [idot(b, lifted) for b in lift_rows], den * q)
        if any(rest):
            raise InvariantViolation("lineality residual left the lifted cone")
        terms += [(inside[k], t) for k, t in more]
    # t units of the integer generator are t * own / g units of g
    own = _own_int_rows(cone)
    decomp = []
    for j, t in sorted(terms):
        g = cone.generators[j]
        l = next(i for i, x in enumerate(g) if x)
        decomp.append((j, t * own[j][l] / g[l]))
    return Certificate("member", "conic_decomposition", decomposition=tuple(decomp))


def dual(cone: Cone) -> Cone:
    """Dual cone under the standard pairing; a representation swap that
    shares the cone's double description, since both have the same rows.

    The dual only sees the closure, so strict flags are dropped. sym_psd is
    self-dual and is returned as such.
    """
    if cone.kind == SYM_PSD:
        return cone
    if cone.generators is not None:
        out = Cone.from_inequalities(cone.generators, dim=cone.dim)
    else:
        out = Cone.from_generators(cone.inequalities, dim=cone.dim)
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
        cone = Cone.from_inequalities(cone.inequalities, dim=cone.dim)
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
def _int_extreme_rays(cone: Cone) -> list[dd.IntVec]:
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
    for g, col in zip(_own_int_rows(cone), _columns(cone)):
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


def image_cone(cone: Cone, m: Matrix) -> Cone:
    """Forward image of a closed polyhedral cone: map the generators, drop
    zero images. The result may be non-pointed; that is the caller's concern."""
    cone.require_polyhedral("image_cone")
    if m.cols != cone.dim:
        raise ShapeError(f"matrix expects dim {m.cols}, cone has {cone.dim}")
    images = [m.apply(g) for g in cone.vrep()]
    return Cone.from_generators([g for g in images if not is_zero_vec(g)], dim=m.rows)


def contains(outer: Cone, inner: Cone) -> bool:
    """outer >= inner for closed cones, inner polyhedral.

    A polyhedral outer cone is decided by integer sign tests: every H-row
    of outer must be nonnegative on every V-generator of inner. A sym_psd
    outer cone has no H-rep, so each generator goes through the exact PSD
    test."""
    if outer.dim != inner.dim:
        raise ShapeError(f"contains: cone dims {outer.dim} and {inner.dim} differ")
    if outer.kind == SYM_PSD:
        return all(member(outer, g).verdict == "member" for g in inner.vrep())
    gens = int_vrep(inner)
    if not gens:
        return True
    rows = int_hrep(outer)
    return all(idot(a, g) >= 0 for g in gens for a in rows)


def same_cone(a: Cone, b: Cone) -> bool:
    """Set equality of closed polyhedral cones: contains, both ways."""
    return contains(a, b) and contains(b, a)


def is_pointed(cone: Cone) -> bool:
    cone.require_closed("is_pointed")
    return _pointed(cone)
