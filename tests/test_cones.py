"""Cone layer: certified membership, duals, closure, simpliciality, images."""

import dataclasses
from fractions import Fraction

import pytest

import aoulab.cones
from aoulab.cones import (
    Certificate,
    Cone,
    _dd,
    close_and_lineality,
    contains,
    dual,
    extreme_rays,
    image_cone,
    is_pointed,
    is_simplicial,
    member,
    pack_sym,
    same_cone,
    sym_dim,
    unpack_sym,
)
from aoulab.errors import (
    InputError,
    NotPointedError,
    PolyhedralRequired,
    ShapeError,
    StrictConeError,
)
from aoulab.linalg import Matrix, dot, nullspace, vec
from aoulab.spaces import AOUSpace, extreme_states, lin_space, linf
from aoulab.tensors import PI, tensor_space
from conftest import (
    fraction_rank,
    lp_contains,
    lp_extreme_rays,
    lp_is_pointed,
    lp_member,
    own_rows_oracle,
    rand_vec,
    rank_extreme_rays,
    rng,
)


def orthant(n):
    return Cone.from_generators([[1 if j == i else 0 for j in range(n)] for i in range(n)])


WEDGE = Cone.from_generators([(1, 1), (1, -1)])  # {a0 >= |a1|} by generators


class TestMember:
    def test_orthant_member_with_decomposition(self):
        cert = member(orthant(2), (1, 2))
        assert cert.verdict == "member"
        assert cert.kind == "conic_decomposition"
        coeffs = dict(cert.decomposition)
        assert coeffs == {0: Fraction(1), 1: Fraction(2)}
        assert cert.verify(orthant(2), vec((1, 2)))

    def test_orthant_non_member_witness(self):
        cert = member(orthant(2), (1, -1))
        assert cert.verdict == "non_member"
        w = cert.witness
        assert dot(w, vec((1, -1))) < 0
        assert dot(w, vec((1, 0))) >= 0 and dot(w, vec((0, 1))) >= 0

    def test_wedge_non_member_witness(self):
        # (0,1) sits outside cone{(1,1),(1,-1)}; any separating f has
        # f(1,1) >= 0, f(1,-1) >= 0, f(0,1) < 0
        cert = member(WEDGE, (0, 1))
        assert cert.verdict == "non_member"
        w = cert.witness
        assert dot(w, vec((1, 1))) >= 0
        assert dot(w, vec((1, -1))) >= 0
        assert dot(w, vec((0, 1))) < 0

    def test_wedge_member_on_boundary(self):
        cert = member(WEDGE, (2, 2))
        assert cert.verdict == "member"
        assert cert.verify(WEDGE, vec((2, 2)))

    def test_hrep_membership_row_witness(self):
        cone = Cone.from_inequalities([(1, 1), (1, -1)])
        assert member(cone, (3, 1)).verdict == "member"
        cert = member(cone, (-1, 0))
        assert cert.verdict == "non_member"
        assert cert.payload["row_index"] in (0, 1)
        assert dot(cert.witness, vec((-1, 0))) < 0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            member(orthant(2), (1, 2, 3))

    def test_strict_cone_rejected(self):
        cone = Cone.from_inequalities([(1, 0)], strict=[True], dim=2)
        with pytest.raises(StrictConeError):
            member(cone, (1, 0))

    def test_zero_cone(self):
        zero = Cone.from_generators([], dim=2)
        assert member(zero, (0, 0)).verdict == "member"
        assert member(zero, (1, 0)).verdict == "non_member"


def _agreement_cones(r):
    """V-cones for the membership agreement test: fixed pointed,
    lower-dimensional and non-pointed ones (the whole space, a half-space, a
    line), then random ones with a duplicate, a parallel and a zero
    generator added. The zero generator goes in through the constructor,
    which from_generators would drop it from."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cones = [
        orthant(3),
        WEDGE,
        Cone.from_generators([(1, 1, 0), (1, -1, 0), (1, 0, 0)]),  # a 2-D cone in Q^3
        Cone.from_generators(e + [tuple(-x for x in g) for g in e]),  # Q^3
        Cone.from_generators([(-2, 1, 1), (-2, -1, 1), (0, 2, 1), (-3, 1, -3), (3, 0, -1)]),  # Q^3
        Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),  # x1 >= 0
        Cone.from_generators([(1, 1, 0), (-1, 1, 0), (0, -1, 0), (0, 0, 1)]),  # x3 >= 0
        Cone.from_generators([(1, 2, 0), (-1, -2, 0)]),  # a line
        Cone.from_generators([(1, 2), (-2, -4)]),  # a line, parallel generators
        Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, -1, 0)]),  # a half-plane in Q^3
        Cone.from_generators([], dim=2),
    ]
    for _ in range(40):
        dim = r.randint(1, 4)
        gens = [rand_vec(r, dim, lo=-3, hi=3, den=2) for _ in range(r.randint(1, dim + 3))]
        g = gens[r.randrange(len(gens))]
        gens += [g, tuple(Fraction(r.randint(1, 3), r.randint(1, 2)) * x for x in g)]
        gens = [vec(x) for x in gens if any(x)]
        gens.insert(r.randint(0, len(gens)), vec([0] * dim))
        cones.append(Cone(dim=dim, generators=tuple(gens)))
    return cones


def test_member_agrees_with_lp_oracle():
    # the face walk on the cone's double description against one LP per
    # query; queries: random vectors, the generators and their negatives,
    # zero, and random conic combinations of random subsets of generators
    r = rng(7331)
    verdicts = set()
    non_pointed = 0
    for cone in _agreement_cones(r):
        gens = cone.generators
        queries = [rand_vec(r, cone.dim) for _ in range(4)] + [vec([0] * cone.dim)]
        queries += list(gens) + [tuple(-x for x in g) for g in gens]
        for _ in range(4):
            combo = [Fraction(0)] * cone.dim
            for g in gens:
                if r.random() < 0.6:
                    c = Fraction(r.randint(0, 4), r.randint(1, 3))
                    combo = [x + c * y for x, y in zip(combo, g)]
            queries.append(tuple(combo))
        non_pointed += not is_pointed(cone)
        for v in queries:
            got, want = member(cone, v), lp_member(cone, v)
            assert got.verdict == want.verdict, (cone, v)
            assert got.verify(cone, v) and want.verify(cone, v)
            verdicts.add(got.verdict)
    assert verdicts == {"member", "non_member"}
    assert non_pointed >= 8


class TestDual:
    def test_orthant_self_dual(self):
        assert same_cone(dual(orthant(3)), orthant(3))

    def test_wedge_dual_rows(self):
        d = dual(WEDGE)
        assert d.inequalities == (vec((1, 1)), vec((1, -1)))
        # and as a set: the dual wedge is itself rotated onto the same cone
        assert same_cone(d, WEDGE)

    def test_ray_dual_is_halfplane(self):
        ray = Cone.from_generators([(1, 0)], dim=2)
        d = dual(ray)
        assert member(d, (5, -7)).verdict == "member"
        assert member(d, (-1, 0)).verdict == "non_member"

    def test_double_dual_is_closure(self):
        for cone in (orthant(3), WEDGE, Cone.from_generators([(1, 0), (1, 1), (0, 1)])):
            assert same_cone(dual(dual(cone)), cone)

    def test_sym_psd_self_dual(self):
        c = Cone.sym_psd(2)
        assert dual(c) is c


class TestCloseAndLineality:
    def test_strict_halfplane(self):
        cone = Cone.from_inequalities([(1, 0)], strict=[True], dim=2)
        closed, lin = close_and_lineality(cone)
        assert closed.strict == (False,)
        assert member(closed, (0, 5)).verdict == "member"
        assert [tuple(l) for l in lin] == [(0, 1)]

    def test_orthant_closed_no_lineality(self):
        closed, lin = close_and_lineality(orthant(3))
        assert same_cone(closed, orthant(3))
        assert lin == []

    def test_full_space(self):
        full = Cone.from_inequalities([], dim=2)
        closed, lin = close_and_lineality(full)
        assert len(lin) == 2
        assert member(closed, (-3, 7)).verdict == "member"

    def test_idempotent(self):
        cone = Cone.from_inequalities([(1, 1, 0), (0, 1, 1)], strict=[True, False])
        once, lin1 = close_and_lineality(cone)
        twice, lin2 = close_and_lineality(once)
        assert once.inequalities == twice.inequalities
        assert lin1 == lin2


class TestSimplicial:
    def test_orthant_simplicial(self):
        assert is_simplicial(orthant(3))

    def test_l1_type_cone_not_simplicial(self):
        # {a0 >= |a1| + |a2|} has 4 extreme rays in dimension 3
        rows = [(1, s1, s2) for s1 in (1, -1) for s2 in (1, -1)]
        cone = Cone.from_inequalities(rows)
        assert not is_simplicial(cone)
        assert len(extreme_rays(cone)) == 4

    def test_dim2_wedge_simplicial(self):
        cone = Cone.from_inequalities([(1, -1), (1, 1)])
        assert is_simplicial(cone)

    def test_not_pointed_raises(self):
        halfplane = Cone.from_inequalities([(1, 0)], dim=2)
        with pytest.raises(NotPointedError) as ei:
            is_simplicial(halfplane)
        assert ei.value.lineality == [vec((0, 1))]

    def test_not_full_dim_raises(self):
        flat = Cone.from_generators([(1, 0), (-1, 0)], dim=2)
        with pytest.raises(InputError):
            is_simplicial(flat)


class TestImageCone:
    def test_orthant_projection(self):
        proj = Matrix.from_rows([(1, 0, 0), (0, 1, 0)])
        assert same_cone(image_cone(orthant(3), proj), orthant(2))

    def test_wedge_to_ray(self):
        proj = Matrix.from_rows([(1, 0)])
        img = image_cone(WEDGE, proj)
        assert same_cone(img, Cone.from_generators([(1,)], dim=1))

    def test_lineality_appears(self):
        m = Matrix.from_rows([(1, -1, 0), (0, 0, 1)])
        img = image_cone(orthant(3), m)
        halfplane = Cone.from_inequalities([(0, 1)], dim=2)
        assert same_cone(img, halfplane)
        assert not is_pointed(img)

    def test_dimension_zero(self):
        # the zero space's cone maps to a cone of zero images, which is {0}
        img = image_cone(Cone.from_generators([], dim=0), Matrix(((),)))
        assert (img.dim, img.vrep()) == (1, ())

    def test_identity_image(self):
        for cone in (orthant(3), WEDGE):
            assert same_cone(image_cone(cone, Matrix.identity(cone.dim)), cone)


class TestSymPsd:
    def test_pack_unpack_roundtrip(self):
        m = Matrix.from_rows([(1, 2), (2, 5)])
        assert unpack_sym(pack_sym(m), 2) == m
        assert sym_dim(3) == 6

    def test_psd_member(self):
        c = Cone.sym_psd(2)
        cert = member(c, pack_sym(Matrix.from_rows([(2, 1), (1, 2)])))
        assert cert.verdict == "member" and cert.kind == "psd_factorization"

    def test_indefinite_non_member(self):
        c = Cone.sym_psd(2)
        v = pack_sym(Matrix.from_rows([(1, 0), (0, -1)]))
        cert = member(c, v)
        assert cert.verdict == "non_member" and cert.kind == "negative_direction"
        assert cert.verify(c, v)

    def test_contains_in_a_psd_outer_cone(self):
        # the PSD cone has no H-rep: each generator takes the exact PSD test
        def cone(*matrices):
            return Cone.from_generators([pack_sym(Matrix.from_rows(m)) for m in matrices])

        psd = Cone.sym_psd(2)
        assert contains(psd, cone([(1, 0), (0, 0)], [(1, 1), (1, 1)], [(0, 0), (0, 1)]))
        assert not contains(psd, cone([(1, 0), (0, 0)], [(1, 2), (2, 1)], [(0, 0), (0, 1)]))

    def test_polyhedral_ops_rejected(self):
        c = Cone.sym_psd(2)
        for op in (extreme_rays, is_simplicial, close_and_lineality):
            with pytest.raises(PolyhedralRequired):
                op(c)
        with pytest.raises(PolyhedralRequired):
            image_cone(c, Matrix.identity(3))


class TestExtremeRays:
    def test_redundant_generators_dropped(self):
        cone = Cone.from_generators([(1, 0), (0, 1), (1, 1), (2, 0)])
        assert extreme_rays(cone) == [vec((0, 1)), vec((1, 0))]

    def test_vrep_not_pointed(self):
        cone = Cone.from_generators([(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NotPointedError):
            extreme_rays(cone)

    def test_vrep_against_redundancy_lps_randomized(self):
        r = rng(4242)
        seen = {True: 0, False: 0}
        for dim in range(1, 6):
            for _ in range(12):
                gens = [rand_vec(r, dim, lo=-2, hi=3, den=1) for _ in range(r.randint(1, dim + 3))]
                cone = Cone.from_generators(gens, dim)
                pointed = lp_is_pointed(cone)
                seen[pointed] += 1
                if pointed:
                    assert extreme_rays(cone) == lp_extreme_rays(cone)
                else:
                    with pytest.raises(NotPointedError):
                        extreme_rays(cone)
        assert seen[True] > 20 and seen[False] > 5

    def test_incidence_test_matches_the_rank_oracle(self):
        # dims 1-5 with duplicate, positive-multiple and zero generators (a
        # Cone built directly keeps zeros) and, every third cone, all
        # generators inside the hyperplane of the last coordinate
        r = rng(4343)
        seen = {True: 0, False: 0}
        for dim in range(1, 6):
            for trial in range(18):
                gens = [rand_vec(r, dim, lo=-2, hi=3, den=1) for _ in range(r.randint(1, dim + 3))]
                if trial % 3 == 0 and dim > 1:
                    gens = [g[:-1] + (Fraction(0),) for g in gens]
                extra = [tuple(r.randint(1, 3) * x for x in r.choice(gens)) for _ in range(2)]
                extra += [r.choice(gens), (Fraction(0),) * dim]
                gens += extra
                r.shuffle(gens)
                cone = Cone(dim=dim, generators=tuple(gens))
                pointed = lp_is_pointed(Cone.from_generators(gens, dim))
                seen[pointed] += 1
                if pointed:
                    assert extreme_rays(cone) == rank_extreme_rays(cone)
                else:
                    with pytest.raises(NotPointedError):
                        extreme_rays(cone)
        assert seen[True] > 30 and seen[False] > 5

    def test_vrep_duplicate_parallel_and_zero_generators(self):
        gens = [(0, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0), (0, 3, 0), (0, 1, 0), (1, 1, 1), (0, 0, 0)]
        cone = Cone(dim=3, generators=tuple(vec(g) for g in gens))
        assert extreme_rays(cone) == lp_extreme_rays(cone) == rank_extreme_rays(cone)
        assert extreme_rays(cone) == [vec((0, 1, 0)), vec((1, 0, 0)), vec((1, 1, 1))]

    def test_direct_construction_splits_rows_that_are_not_coprime_integers(self):
        # a cone's own rows are coprime integer tuples however it is built:
        # (2, 0, 0) is held as (1, 0, 0) at scale 2, and the ray survives
        cone = Cone(dim=3, generators=((1, 0, 0), (2, 0, 0), (0, Fraction(1, 2), 0)))
        assert cone.generators == ((1, 0, 0), (1, 0, 0), (0, 1, 0))
        assert cone.vrep() == (vec((1, 0, 0)), vec((2, 0, 0)), vec((0, "1/2", 0)))
        assert extreme_rays(cone) == [vec((0, 1, 0)), vec((1, 0, 0))]
        h = Cone(dim=2, inequalities=((Fraction(1, 3), 0), (0, 4)))
        assert (h.inequalities, h.strict) == (((1, 0), (0, 1)), (False, False))
        assert h.hrep() == (vec(("1/3", 0)), vec((0, 4)))
        with pytest.raises(ShapeError, match="strict flags must align"):
            Cone(dim=2, inequalities=((1, 0),), strict=(True, False))

    def test_vrep_lower_dimensional_pointed(self):
        # a 2-D wedge inside the plane x3 = 0 of Q^3: its H-rep carries the
        # plane as an equality (a +- row pair)
        cone = Cone.from_generators([(1, 0, 0), (1, 1, 0), (0, 1, 0), (2, 1, 0)])
        assert vec((0, 0, 1)) in cone.hrep() and vec((0, 0, -1)) in cone.hrep()
        assert extreme_rays(cone) == lp_extreme_rays(cone) == [vec((0, 1, 0)), vec((1, 0, 0))]
        ray = Cone.from_generators([(1, 2, 0), (2, 4, 0)])
        assert extreme_rays(ray) == lp_extreme_rays(ray) == [vec((1, 2, 0))]

    def test_vrep_linf1_single_ray(self):
        cone = Cone.from_generators([(3,)])
        assert extreme_rays(cone) == [vec((1,))]

    def test_vrep_not_pointed_reports_lineality(self):
        cone = Cone.from_generators([(1, 0, 0), (-1, 1, 0), (0, -1, 0), (0, 0, 1)])
        with pytest.raises(NotPointedError) as exc:
            extreme_rays(cone)
        lin = exc.value.lineality
        assert len(lin) == 2 and fraction_rank(Matrix.from_rows(lin)) == 2
        for l in lin:
            assert l[2] == 0
            for d in (l, tuple(-x for x in l)):
                assert member(cone, d).verdict == "member"

    def test_vrep_caches_the_hrep_of_its_dd(self, dd_calls):
        cone = Cone.from_generators([(1, 0), (1, 1), (0, 1)])
        extreme_rays(cone)
        assert cone.hrep() is cone.hrep()
        assert cone.hrep() == (vec((0, 1)), vec((1, 0)))
        assert len(dd_calls) == 1

    def test_hrep_matches_vrep_route(self):
        rows = [(1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 1)]
        h = Cone.from_inequalities(rows)
        via_h = extreme_rays(h)
        v = Cone.from_generators(h.vrep())
        assert extreme_rays(v) == via_h


def contract_rows(r, dim: int) -> list[tuple]:
    """Seeded rows of length dim as a caller may hand them over: Fractions
    with denominators up to 10^20, ints with a common factor, zero rows
    (ints or Fractions) and positive multiples of earlier rows."""
    rows = []
    for _ in range(r.randint(1, 6)):
        kind = r.randrange(4)
        if kind == 0:
            row = tuple(Fraction(r.randint(-(10**20), 10**20), r.randint(1, 10**20)) for _ in range(dim))
        elif kind == 1:
            k = r.randint(2, 12)
            row = tuple(k * r.randint(-5, 5) for _ in range(dim))
        elif kind == 2 or not rows:
            row = tuple(r.choice((0, Fraction(0))) for _ in range(dim))
        else:
            c = r.choice((r.randint(1, 9), Fraction(r.randint(1, 10**12), r.randint(1, 10**12))))
            row = tuple(c * x for x in r.choice(rows))
        rows.append(row)
    return rows


class TestRowContract:
    # a cone's own rows become coprime integer tuples with scales in one
    # place, however the cone is built; the route the package took before,
    # splitting in the constructors, is the oracle

    def check(self, cone, rows, dim, scales=None, drop_zero=False):
        ints, out, own_view, (lin, rays) = own_rows_oracle(rows, dim, scales, drop_zero)
        other = tuple(vec(v) for v in rays + [x for l in lin for x in (l, tuple(-v for v in l))])
        assert (cone.dim, cone.rows, cone.scales, _dd(cone)) == (dim, ints, out, (lin, rays))
        assert all(type(x) is int for row in cone.rows for x in row)
        v_cone = cone.generators is not None
        assert (cone.vrep(), cone.hrep()) == ((own_view, other) if v_cone else (other, own_view))

    def test_constructors_and_direct_cones_split_as_before(self):
        r = rng(2809)
        for trial in range(120):
            dim = r.randint(1, 4)
            rows = contract_rows(r, dim)
            given = tuple(r.choice((1, Fraction(r.randint(1, 10**6), r.randint(1, 10**6)))) for _ in rows)
            self.check(Cone.from_generators(rows, dim if trial % 2 else None), rows, dim, drop_zero=True)
            self.check(Cone.from_inequalities(rows, dim=dim if trial % 2 else None), rows, dim)
            self.check(Cone(dim, generators=tuple(rows)), rows, dim)
            self.check(Cone(dim, inequalities=tuple(rows)), rows, dim)
            self.check(Cone(dim, generators=tuple(rows), scales=given), rows, dim, scales=given)
            self.check(Cone(dim, inequalities=tuple(rows), scales=given), rows, dim, scales=given)

    def test_empty_row_lists(self):
        for dim in (0, 1):
            self.check(Cone.from_generators([], dim), [], dim, drop_zero=True)
            self.check(Cone.from_inequalities([], dim=dim), [], dim)
            self.check(Cone(dim, generators=()), [], dim)
            self.check(Cone(dim, inequalities=()), [], dim)
        with pytest.raises(ShapeError, match="dim required"):
            Cone.from_generators([])


class TestOneDoubleDescription:
    # a cone runs dd_pair on its own rows at most once, and its dual, whose
    # DD input is the same rows, reuses that run

    V_CONE_GENS = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]

    def v_space(self):
        return AOUSpace(3, Cone.from_generators(self.V_CONE_GENS), (2, 3, 2))

    def test_h_cone_extreme_rays_then_vrep(self, dd_calls):
        cone = Cone.from_inequalities([(1, 1, 0), (1, -1, 0), (0, 0, 1)])
        rays = extreme_rays(cone)
        gens = cone.vrep()
        # a second call hands back the object the first one built
        assert extreme_rays(cone) is rays and cone.vrep() is gens
        assert len(dd_calls) == 1

    def test_v_space_states_hrep_and_extreme_rays(self, dd_calls):
        space = self.v_space()
        first = (extreme_states(space), space.cone.hrep(), extreme_rays(space.cone))
        again = (extreme_states(space), space.cone.hrep(), extreme_rays(space.cone))
        assert all(a is b for a, b in zip(again, first))
        assert len(dd_calls) == 1

    def test_h_space_states_then_vrep(self, dd_calls):
        space = lin_space(2)
        extreme_states(space)
        space.cone.vrep()
        assert len(dd_calls) == 1

    def test_cold_states_run_one_dd_and_no_nullspace(self, dd_calls, monkeypatch):
        # both pointedness facts come from the shared DD and one integer
        # rank; a lineality basis is eliminated only for an error
        calls = []

        def counted(m):
            calls.append(m)
            return nullspace(m)

        monkeypatch.setattr(aoulab.cones, "nullspace", counted)
        for space in (lin_space(3), linf(3), self.v_space()):
            dd_calls.clear()
            extreme_states(space)
            assert len(dd_calls) == 1 and calls == []
        with pytest.raises(NotPointedError):
            extreme_states(AOUSpace(2, Cone.from_inequalities([(1, 0)]), (1, 0)))
        assert len(calls) == 1

    def test_second_contains_integerizes_nothing(self, monkeypatch):
        # a cone holds its integer rows from the start, so neither the
        # first contains, which runs the DDs, nor the second integerizes;
        # the DD itself scales nothing
        calls = []

        def counted(fn):
            return lambda *a: calls.append(fn.__name__) or fn(*a)

        a = Cone.from_generators([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
        b = Cone.from_generators([(2, 1, 1), (1, 0, 0)])
        monkeypatch.setattr(aoulab.cones, "common_den", counted(aoulab.cones.common_den))
        assert contains(a, b) and not contains(b, a)
        assert contains(a, b) and not contains(b, a)
        assert calls == []

    def test_pi_tensor_space_runs_one_dd_per_factor(self, dd_calls):
        tensor_space(self.v_space(), linf(2), PI)
        assert len(dd_calls) == 2

    def test_dual_of_dual_shares_the_run(self, dd_calls):
        cone = Cone.from_generators(self.V_CONE_GENS)
        assert dual(dual(cone)).hrep() == cone.hrep()
        assert len(dd_calls) == 1

    def test_public_returns_are_fractions(self):
        def all_fractions(vectors):
            return all(type(x) is Fraction for v in vectors for x in v)

        h_cone = Cone.from_inequalities([(1, 1, 0), (1, -1, 0), (0, 0, 1)])
        v_cone = Cone.from_generators(self.V_CONE_GENS)
        for cone in (h_cone, v_cone, dual(h_cone), dual(v_cone)):
            assert all_fractions(cone.vrep()) and all_fractions(cone.hrep())
            assert all_fractions(extreme_rays(cone))
        for space in (self.v_space(), lin_space(2)):
            assert all_fractions(extreme_states(space))
        for cone in (Cone.from_inequalities([(1, 0, 0)]), Cone.from_generators([(1, 0), (-1, 0), (0, 1)])):
            with pytest.raises(NotPointedError) as exc:
                extreme_rays(cone)
            assert exc.value.lineality and all_fractions(exc.value.lineality)
            assert all_fractions(close_and_lineality(cone)[1])


def test_member_dual_adjunction_randomized():
    # v in C  iff  f(v) >= 0 for every extreme ray f of the dual cone
    r = rng(20240)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(30):
        extra = [rand_vec(r, 3, lo=-3, hi=3, den=2) for _ in range(r.randint(1, 3))]
        cone = Cone.from_generators([vec(b) for b in basis] + [g for g in extra if any(g)])
        dual_rays = extreme_rays(dual(cone))
        for _ in range(6):
            v = rand_vec(r, 3)
            verdict = member(cone, v).verdict
            by_dual = all(dot(f, v) >= 0 for f in dual_rays)
            assert (verdict == "member") == by_dual


def test_certificates_reverify_randomized():
    r = rng(977)
    for _ in range(25):
        gens = [rand_vec(r, 3, lo=-2, hi=3, den=2) for _ in range(4)]
        cone = Cone.from_generators([g for g in gens if any(g)] or [(1, 0, 0)], dim=3)
        v = rand_vec(r, 3)
        cert = member(cone, v)
        assert cert.verify(cone, v)


class TestTamperedCertificates:
    # every tampered certificate must verify False, never raise
    ORTHANT_H = Cone.from_inequalities([(1, 0), (0, 1)])

    def test_flipped_verdict(self):
        v = vec((1, 2))
        for cone in (orthant(2), self.ORTHANT_H):
            cert = member(cone, v)
            assert cert.verify(cone, v)
            flipped = dataclasses.replace(cert, verdict="non_member")
            assert not flipped.verify(cone, v)
        assert not Certificate("non_member", "hrep_evaluation").verify(self.ORTHANT_H, v)
        outside = vec((1, -1))
        for cone in (orthant(2), self.ORTHANT_H):
            cert = member(cone, outside)
            assert cert.verify(cone, outside)
            assert not dataclasses.replace(cert, verdict="member").verify(cone, outside)
        psd = Cone.sym_psd(2)
        for m in ([(2, 1), (1, 2)], [(1, 0), (0, -1)]):
            packed = pack_sym(Matrix.from_rows(m))
            cert = member(psd, packed)
            assert cert.verify(psd, packed)
            flipped = "member" if cert.verdict == "non_member" else "non_member"
            assert not dataclasses.replace(cert, verdict=flipped).verify(psd, packed)

    def test_unknown_kind_and_wrong_cone_type(self):
        v = vec((1, 2))
        assert not Certificate("member", "trust_me").verify(orthant(2), v)
        assert not Certificate("member", "psd_factorization").verify(orthant(2), v)
        packed = pack_sym(Matrix.from_rows([(2, 1), (1, 2)]))
        assert not Certificate("member", "hrep_evaluation").verify(Cone.sym_psd(2), packed)

    @pytest.mark.parametrize("index", [-1, 2, 7])
    def test_row_index_out_of_range(self, index):
        v = vec((-1, 0))
        cert = member(self.ORTHANT_H, v)
        assert cert.payload == {"row_index": 0} and cert.verify(self.ORTHANT_H, v)
        bad = dataclasses.replace(cert, payload={"row_index": index})
        assert not bad.verify(self.ORTHANT_H, v)

    @pytest.mark.parametrize("index", [-1, 2, 7])
    def test_decomposition_index_out_of_range(self, index):
        v = vec((1, 2))
        cert = member(orthant(2), v)
        assert cert.verify(orthant(2), v)
        bad = dataclasses.replace(cert, decomposition=((0, Fraction(1)), (index, Fraction(2))))
        assert not bad.verify(orthant(2), v)

    @pytest.mark.parametrize("witness", [(), (-1,), (-1, 0, 0)])
    def test_wrong_length_witness(self, witness):
        v = vec((-1, 0))
        for cone in (orthant(2), self.ORTHANT_H):
            cert = member(cone, v)
            assert cert.verify(cone, v)
            bad = dataclasses.replace(cert, witness=vec(witness), payload=None)
            assert not bad.verify(cone, v)
        psd = Cone.sym_psd(2)
        packed = pack_sym(Matrix.from_rows([(1, 0), (0, -1)]))
        cert = member(psd, packed)
        assert not dataclasses.replace(cert, witness=vec(witness)).verify(psd, packed)

    def test_wrong_length_vector(self):
        for cone in (orthant(2), self.ORTHANT_H):
            cert = member(cone, (1, 2))
            assert not cert.verify(cone, (1, 2, 0))

    @pytest.mark.parametrize(
        "decomposition",
        [
            ((0,),),
            ((0, 1, 5),),
            ((Fraction(1, 2), 1),),
            ((True, 2),),  # as an index, True would read generator 1
            (0,),
            ("01",),
        ],
    )
    def test_malformed_decomposition_entry(self, decomposition):
        v = vec((0, 2))
        cert = Certificate("member", "conic_decomposition", decomposition=((1, Fraction(2)),))
        assert cert.verify(orthant(2), v)
        bad = dataclasses.replace(cert, decomposition=decomposition)
        assert not bad.verify(orthant(2), v)

    def test_separating_row_needs_its_index(self, dd_calls):
        v = vec((-1, 0))
        cert = Certificate("non_member", "separating_functional", witness=vec((1, 0)))
        assert not cert.verify(self.ORTHANT_H, v)
        assert dataclasses.replace(cert, payload={"row_index": 0}).verify(self.ORTHANT_H, v)
        assert not dataclasses.replace(cert, payload={"row_index": True}).verify(self.ORTHANT_H, v)
        assert dd_calls == []


def test_same_cone_across_representations():
    rows = [(1, 1), (1, -1)]
    h = Cone.from_inequalities(rows)
    v = Cone.from_generators([(1, 1), (1, -1)])
    # {a0 >= |a1|} happens to be self-dual, so both reps describe one set
    assert same_cone(h, v)
    assert contains(orthant(2), Cone.from_generators([(1, 0)], dim=2))
    assert not contains(Cone.from_generators([(1, 0)], dim=2), orthant(2))


class TestSameCone:
    @staticmethod
    def noisy(r, rays, dim):
        """rays with a zero generator, a duplicate, a parallel multiple and
        a redundant sum thrown in at random places: the same cone."""
        gens = list(rays)
        for extra in ((0,) * dim, rays[0], tuple(3 * x for x in rays[-1]), tuple(map(sum, zip(*rays)))):
            gens.insert(r.randint(0, len(gens)), extra)
        return Cone(dim, generators=tuple(gens))

    def test_against_lp_oracle_randomized(self):
        # seeded pairs over all four representation pairs: equal cones
        # with noisy generators, a cone and a strict subcone, unrelated
        # cones, pointed or not, each compared both ways with the LPs
        r = rng(3030)
        seen = set()
        for _ in range(160):
            dim = r.randint(1, 4)
            gens = [rand_vec(r, dim, lo=-2, hi=2, den=2) for _ in range(r.randint(1, dim + 3))]
            a = Cone.from_generators(gens, dim)
            if a.generators and r.random() < 0.5:
                a = Cone.from_inequalities(a.hrep(), dim=dim)
            pick = r.randrange(3)
            if pick == 0 or not a.generators or not is_pointed(a):
                b = Cone.from_generators([rand_vec(r, dim, lo=-2, hi=2) for _ in range(r.randint(1, dim + 2))], dim)
            else:
                rays = [tuple(map(int, g)) for g in extreme_rays(a)]
                if pick == 1 and len(rays) > 1:
                    rays.pop(r.randrange(len(rays)))  # b is a strict subcone
                b = self.noisy(r, rays, dim) if rays else Cone(dim, generators=())
            if r.random() < 0.3 and b.generators:
                b = Cone.from_inequalities(b.hrep(), dim=dim)
            want = lp_contains(a, b) and lp_contains(b, a)
            for x, y in ((a, b), (b, a)):
                # fresh copies, so no DD of an earlier call is cached
                x, y = (Cone(c.dim, c.generators, c.inequalities, scales=c.scales) for c in (x, y))
                assert same_cone(x, y) == want
                seen.add((x.generators is None, y.generators is None, is_pointed(x) and is_pointed(y), want))
        assert {(hx, hy) for hx, hy, _, _ in seen} == {(True, True), (True, False), (False, True), (False, False)}
        assert {(p, w) for _, _, p, w in seen} == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("hrep", [False, True])
    def test_round_trip_runs_no_dd_beyond_the_cones_own(self, dd_calls, hrep):
        # the V-cone has a non-extreme generator, so one decomposition
        # takes a face walk; the rebuilt cone's DD never runs
        cone = Cone.from_generators([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, 1)])
        if hrep:
            cone = Cone.from_inequalities(cone.hrep())
        dd_calls.clear()
        assert same_cone(cone, Cone.from_generators(extreme_rays(cone))) is True
        assert len(dd_calls) == 1

    @pytest.mark.parametrize("hrep", [False, True])
    def test_dropped_extreme_ray_is_caught(self, hrep):
        # the same round trip with one extreme ray left out: every
        # generator of the subcone lies in the cone, so with the cone first
        # only the walk from the dropped ray's generator finds the difference
        gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, 1)]
        cone = Cone.from_generators(gens)
        if hrep:
            cone = Cone.from_inequalities(cone.hrep())
        rays = extreme_rays(cone)
        for i in range(len(rays)):
            tampered = Cone.from_generators(rays[:i] + rays[i + 1 :])
            assert contains(cone, tampered)
            assert same_cone(cone, tampered) is False
            assert same_cone(tampered, cone) is False

    def test_faulty_ray_list_is_caught_from_the_own_generators(self):
        # a V-cone whose extreme-ray list lost a ray, as a faulty DD would
        # give it: the round trip rebuilds a strict subcone, which the walks
        # from the cone's own generators find, where a lookup of the same
        # list among the rebuilt generators could not
        gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, 1)]
        for i in range(4):
            cone = Cone.from_generators(gens)
            rays = aoulab.cones._int_extreme_rays(cone)
            cone._derived["_int_extreme_rays"] = rays[:i] + rays[i + 1 :]
            assert same_cone(cone, Cone.from_generators(extreme_rays(cone))) is False

    def test_non_pointed_and_h_cones_keep_both_inclusions(self, dd_calls):
        # a half-plane against its generators: a non-pointed outer cone
        # runs contains both ways, so both DDs; so do two H-cones
        half = Cone.from_inequalities([(1, 0)])
        assert same_cone(half, Cone.from_generators([(1, 0), (0, 1), (0, -1)]))
        assert len(dd_calls) == 2
        assert same_cone(Cone.from_inequalities([(1, 0), (0, 1)]), Cone.from_inequalities([(0, 1), (1, 0), (1, 1)]))


def test_contains_against_membership_lps_randomized():
    r = rng(5151)
    verdicts = set()
    for _ in range(60):
        dim = r.randint(1, 4)
        cones = []
        for _ in range(2):
            gens = [rand_vec(r, dim, lo=-2, hi=3, den=2) for _ in range(r.randint(1, dim + 2))]
            cone = Cone.from_generators(gens, dim)
            if r.random() < 0.5 and cone.generators:
                cone = Cone.from_inequalities(cone.hrep(), dim=dim)
            cones.append(cone)
        a, b = cones
        for outer, inner in ((a, b), (b, a), (a, a)):
            got = contains(outer, inner)
            assert got == lp_contains(outer, inner)
            verdicts.add(got)
        assert same_cone(a, b) == (lp_contains(a, b) and lp_contains(b, a))
    assert verdicts == {True, False}


def test_contains_rejects_strict_rows_and_dim_mismatch():
    with pytest.raises(ShapeError):
        contains(orthant(2), orthant(3))
    with pytest.raises(ShapeError):
        same_cone(orthant(2), orthant(3))
    strict = Cone.from_inequalities([(1, 0), (0, 1)], strict=[True, False])
    with pytest.raises(StrictConeError):
        contains(strict, orthant(2))
    with pytest.raises(StrictConeError):
        contains(orthant(2), strict)
    with pytest.raises(StrictConeError):
        same_cone(strict, orthant(2))
