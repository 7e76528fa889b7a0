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

All arithmetic is integer. The rows come in as coprime integer tuples: a
cone's are split so once, where the cone is built (`cones.Cone`), and
polytope_vertices reduces its own homogenized rows, so dd_pair trusts its
input and scales nothing. A caller that breaks the contract with integer
rows that have a common factor still gets a valid description, only not
the canonical one (a row and its multiple are not merged); a Fraction
entry raises ShapeError once the kernel evaluates its row. The update
rules clear denominators, which keeps this fast without giving up
exactness. New rays have no accidental zero activities because the two
parents sit strictly on opposite sides of the inserted hyperplane and agree
in sign everywhere else, so the bitmask bookkeeping is exact.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import InputError, ShapeError
from .linalg import idot, vec

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


def dd_pair(halfspaces: Sequence[IntVec], dim: int) -> tuple[list[IntVec], list[IntVec]]:
    """Minimal (lineality basis, extreme rays) of {x : h . x >= 0 for all h},
    for coprime integer rows h, deduplicated and sorted here."""
    distinct = set()
    for h in halfspaces:
        if len(h) != dim:
            raise ShapeError(f"halfspace length {len(h)} != dim {dim}")
        if any(h):
            distinct.add(tuple(h))
    rows = sorted(distinct)

    lineality: list[IntVec] = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[IntVec] = []
    active: list[int] = []  # tight-row bitmask per ray, over processed rows

    for idx, a in enumerate(rows):
        bit = 1 << idx
        pivot_at = next((i for i, b in enumerate(lineality) if idot(a, b)), None)
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
        new_rays: list[IntVec] = []
        new_active: list[int] = []
        for p in [i for i, v in enumerate(vals) if v > 0]:
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
        # the rays with a . r >= 0 stay, those on the hyperplane tight on it
        keep = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in keep] + new_rays
        active = [active[i] if vals[i] else active[i] | bit for i in keep] + new_active

    return sorted(lineality), sorted(rays)


def polytope_vertices(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], dim: int
) -> list[tuple[IntVec, int]]:
    """Vertices of the polytope {x : row_i . x >= rhs_i}, for integer rows
    and rhs, by homogenization: one pair (x, t) per extreme ray of the
    cone of the rows (row_i, -rhs_i), reduced here to coprime integers, in
    the DD's order, with x a tuple of ints and t > 0, and the vertex x / t.

    Raises InputError when the set is unbounded (a recession direction is
    attached as the certificate). The empty polytope returns [].
    """
    hom = [_reduce((*r, -b)) for r, b in zip(rows, rhs)]
    hom.append((0,) * dim + (1,))
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
