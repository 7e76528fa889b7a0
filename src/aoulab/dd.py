"""Double description: exact conversion between halfspace and generator form.

dd_pair(rows, dim) returns a lineality basis L and extreme rays R with
{x : a . x >= 0 for every row a} = span(L) + cone(R), all as coprime integer
tuples. The same output answers two questions. Read as an H-rep, the rows
cut out the cone span(L) + cone(R). Read as generators, they span the dual
of that cone, so R together with L as +- pairs are the facet rows of
cone(rows). `cones.Cone` runs dd_pair at most once per cone on its own
rows, shares the result with its dual cone, and keeps the integers; callers
build Fractions only where they return them.

The incremental algorithm starts from the full space (lineality = standard
basis) and inserts halfspaces in a deterministic order (normalized,
deduplicated, lexicographically sorted), so outputs are stable across runs.
Adjacency during ray splitting uses the combinatorial test on active sets,
held as bitmasks over processed rows.

All arithmetic is integer: inputs are scaled to coprime integers and the
update rules clear denominators, which keeps this fast without giving up
exactness. New rays have no accidental zero activities because the two
parents sit strictly on opposite sides of the inserted hyperplane and agree
in sign everywhere else, so the bitmask bookkeeping is exact.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import InputError, ShapeError
from .linalg import idot, integerize, vec

IntVec = tuple[int, ...]


def _reduce(v: Sequence[int]) -> IntVec:
    """v over the gcd of its entries; the zero vector as it is."""
    g = gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else tuple(v)


def _project(a: IntVec, v: IntVec, b0: IntVec, pa: int) -> IntVec:
    """v moved along b0 onto {x : a . x = 0}, where pa = a . b0 > 0; a v
    already on it is returned as it is (it is coprime, as every DD ray)."""
    f = idot(a, v)
    if not f:
        return v
    return _reduce([pa * x - f * y for x, y in zip(v, b0)])


def _is_coprime_int(h) -> bool:
    """h is a tuple of ints with gcd 1 (or all zero), so integerize(h) == h."""
    return type(h) is tuple and all(type(x) is int for x in h) and gcd(*h) <= 1


def dd_pair(halfspaces: Sequence[Sequence], dim: int) -> tuple[list[IntVec], list[IntVec]]:
    """Minimal (lineality basis, extreme rays) of {x : h . x >= 0 for all h}.

    Rows that are already coprime integer tuples, as `cones` passes a
    cone's own rows, are taken as they are; others are integerized."""
    rows: list[IntVec] = []
    seen = set()
    for h in halfspaces:
        hv = h if _is_coprime_int(h) else integerize(h)
        if len(hv) != dim:
            raise ShapeError(f"halfspace length {len(hv)} != dim {dim}")
        if all(x == 0 for x in hv) or hv in seen:
            continue
        seen.add(hv)
        rows.append(hv)
    rows.sort()

    lineality: list[IntVec] = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[IntVec] = []
    active: list[int] = []  # tight-row bitmask per ray, over processed rows

    for idx, a in enumerate(rows):
        bit = 1 << idx
        pivot_at = None
        for i, b in enumerate(lineality):
            if idot(a, b) != 0:
                pivot_at = i
                break
        if pivot_at is not None:
            # A lineality direction crosses the hyperplane: it becomes a ray,
            # everything else is projected along it onto {a . x = 0}.
            b0 = lineality.pop(pivot_at)
            pa = idot(a, b0)
            if pa < 0:
                b0 = tuple(-x for x in b0)
                pa = -pa
            lineality = [_project(a, b, b0, pa) for b in lineality]
            rays = [_project(a, r, b0, pa) for r in rays]
            # projected rays land on the new hyperplane; b0 was orthogonal to
            # every earlier row, strictly positive on this one
            active = [mask | bit for mask in active]
            rays.append(b0)
            active.append(bit - 1)
            continue

        vals = [idot(a, r) for r in rays]
        minus = [i for i, v in enumerate(vals) if v < 0]
        if not minus:
            for i, v in enumerate(vals):
                if v == 0:
                    active[i] |= bit
            continue
        plus = [i for i, v in enumerate(vals) if v > 0]
        new_rays: list[IntVec] = []
        new_active: list[int] = []
        for p in plus:
            ap, vp, rp = active[p], vals[p], rays[p]
            for q in minus:
                z = ap & active[q]
                # adjacent unless a third ray is tight on every row tight at both
                for k, mask in enumerate(active):
                    if mask & z == z and k != p and k != q:
                        break
                else:
                    new_rays.append(_reduce([vp * x - vals[q] * y for x, y in zip(rays[q], rp)]))
                    new_active.append(z | bit)
        kept_rays = []
        kept_active = []
        for i, v in enumerate(vals):
            if v > 0:
                kept_rays.append(rays[i])
                kept_active.append(active[i])
            elif v == 0:
                kept_rays.append(rays[i])
                kept_active.append(active[i] | bit)
        rays = kept_rays + new_rays
        active = kept_active + new_active

    return sorted(lineality), sorted(rays)


def polytope_vertices(
    rows: Sequence[Sequence], rhs: Sequence, dim: int
) -> list[tuple[IntVec, int]]:
    """Vertices of the polytope {x : row_i . x >= rhs_i}, by homogenization:
    one pair (x, t) per extreme ray of the homogenized cone, in the DD's
    order, with x a tuple of ints and t > 0, and the vertex x / t.

    Raises InputError when the set is unbounded (a recession direction is
    attached as the certificate). The empty polytope returns [].
    """
    hom = [tuple(r) + (-b,) for r, b in zip(rows, rhs)]
    hom.append(tuple([0] * dim + [1]))
    lin, rays = dd_pair(hom, dim + 1)
    if lin:
        raise InputError(
            "unbounded feasible set (contains a line)",
            certificate=[vec(l) for l in lin],
        )
    verts = [(r[:-1], r[-1]) for r in rays if any(r)]
    for x, t in verts:
        if t == 0:
            raise InputError("unbounded feasible set (recession direction)", certificate=vec(x))
    return verts
