"""AOU space layer: builders, validation, Archimedeanization, norms, states."""

import dataclasses
from fractions import Fraction

import pytest
from conftest import (
    as_vertices, ball_scan_spaces, lp_order_unit_failure, rand_frac, rand_vec, rational_polytope_vertices,
    refused_norms, rng,
)

import aoulab.cones
from aoulab.cones import Cone, close_and_lineality, member, same_cone
from aoulab.errors import InputError, NotPointedError, PolyhedralRequired, ShapeError, SizeLimitError
from aoulab.linalg import Matrix, dot, vec
from aoulab.maps import UnitalMap
from aoulab.spaces import (
    AOUSpace,
    archimedeanize,
    dual_augmented,
    extreme_states,
    kadison_embed,
    lin_space,
    linf,
    order_interval_vertices,
    order_norm,
    sym_space,
    unit_ball_half,
    unit_ball_vertices,
    validate,
)
from aoulab.tensors import EPSILON, PI, tensor_space


class TestBuilders:
    def test_linf(self):
        sp = linf(2)
        assert sp.dim == 2 and sp.unit == vec((1, 1))
        assert same_cone(sp.cone, Cone.from_generators([(1, 0), (0, 1)]))

    def test_lin_space(self):
        sp = lin_space(2)
        assert sp.dim == 3 and sp.unit == vec((1, 0, 0))
        rows = set(sp.cone.inequalities)
        assert rows == {vec((1, s1, s2)) for s1 in (1, -1) for s2 in (1, -1)}

    def test_lin_space_cap(self):
        with pytest.raises(SizeLimitError):
            lin_space(13)

    def test_sym_space(self):
        sp = sym_space(2)
        assert sp.dim == 3 and sp.unit == vec((1, 0, 1))
        rep = validate(sp)
        assert rep.order_unit and rep.archimedean

    def test_dual_augmented_of_linf1(self):
        sp = dual_augmented(linf(1))
        assert sp.dim == 2 and sp.unit == vec((0, 1))
        assert set(sp.cone.inequalities) == {vec((0, 1)), vec((1, 1))}

    def test_zero_unit_rejected(self):
        with pytest.raises(InputError):
            AOUSpace(2, Cone.from_generators([(1, 0), (0, 1)]), (0, 0))


class TestValidate:
    def test_linf2_fully_valid(self):
        rep = validate(linf(2))
        assert rep.order_unit and rep.archimedean and rep.pointed

    def test_boundary_unit_not_order_unit(self):
        sp = AOUSpace(2, Cone.from_generators([(1, 0), (0, 1)]), (1, 0))
        rep = validate(sp)
        assert not rep.order_unit
        assert rep.certificates  # the violating row is attached

    def test_singular_psd_unit_is_no_order_unit(self):
        # diag(1, 0) is PSD but singular, so no multiple of it dominates
        # diag(0, 1)
        rep = validate(AOUSpace(3, Cone.sym_psd(2), (1, 0, 0)))
        assert not rep.order_unit and rep.certificates == {"order_unit": "singular unit"}

    def test_unit_on_a_facet_row_certificate(self):
        # lin_space(1) is {a0 >= |a1|}; (1, 1) lies on the facet a0 - a1 = 0
        sp = AOUSpace(2, lin_space(1).cone, (1, 1))
        rep = validate(sp)
        assert not rep.order_unit
        assert lp_order_unit_failure(sp) == 0
        a = rep.certificates["order_unit_basis_0"]
        assert a in sp.cone.hrep() and dot(a, sp.unit) <= 0 and a[0] != 0

    def test_unit_outside_the_cone_row_certificate(self):
        cone = Cone.from_generators([(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)])
        sp = AOUSpace(3, cone, (0, -1, 1))
        rep = validate(sp)
        assert not rep.order_unit
        (key, a), = rep.certificates.items()
        i = int(key.rsplit("_", 1)[1])
        assert i == lp_order_unit_failure(sp)
        assert a in cone.hrep() and dot(a, sp.unit) <= 0 and a[i] != 0

    def test_states_of_a_strict_cone_meet_the_gate_on_its_own_rows(self, monkeypatch):
        # the closure of a strict H-cone has the cone's own rows: the gate
        # refuses the unit on the row it holds as (0, 1) at scale 2, as it
        # was given, and builds no closed cone and no lineality basis
        def no_nullspace(m):
            raise AssertionError("lineality basis built")

        monkeypatch.setattr(aoulab.cones, "nullspace", no_nullspace)
        sp = AOUSpace(2, Cone.from_inequalities([(1, 0), (0, 2)], strict=[True, False]), (1, 0))
        with pytest.raises(InputError, match="the unit is not an order unit") as info:
            extreme_states(sp)
        assert info.value.certificate == (0, 2)

    def test_order_unit_against_norm_lps_randomized(self):
        r = rng(31337)
        verdicts = set()
        for _ in range(40):
            dim = r.randint(1, 4)
            gens = [rand_vec(r, dim, lo=-1, hi=3, den=1) for _ in range(r.randint(1, dim + 2))]
            if not any(any(g) for g in gens):
                continue
            unit = rand_vec(r, dim, lo=-1, hi=3, den=2)
            if not any(unit):
                continue
            sp = AOUSpace(dim, Cone.from_generators(gens, dim), unit)
            rep = validate(sp)
            fail = lp_order_unit_failure(sp)
            assert rep.order_unit == (fail is None)
            if fail is not None:
                a = rep.certificates[f"order_unit_basis_{fail}"]
                assert dot(a, unit) <= 0 and a[fail] != 0
            verdicts.add(rep.order_unit)
        assert verdicts == {True, False}

    def test_strict_cone_not_archimedean(self):
        sp = AOUSpace(1, Cone.from_inequalities([(1,)], strict=[True]), (1,))
        rep = validate(sp)
        assert rep.order_unit and not rep.archimedean

    def test_battery_validates(self):
        for sp in (linf(1), linf(4), lin_space(1), lin_space(3), dual_augmented(linf(2))):
            rep = validate(sp)
            assert rep.order_unit and rep.archimedean and rep.pointed, sp.label


class TestArchimedeanize:
    def test_already_archimedean_identity(self):
        sp = linf(3)
        arch, q = archimedeanize(sp)
        assert q.data == Matrix.identity(3).data
        assert same_cone(arch.cone, sp.cone) and arch.unit == sp.unit

    def test_strict_halfplane_collapses(self):
        sp = AOUSpace(2, Cone.from_inequalities([(1, 0)], strict=[True]), (1, 0))
        arch, q = archimedeanize(sp)
        assert arch.dim == 1 and arch.unit == vec((1,))
        assert member(arch.cone, (1,)).verdict == "member"
        assert member(arch.cone, (-1,)).verdict == "non_member"
        assert q.apply((0, 5)) == vec((0,))  # the extra direction dies

    def test_ray_space_unchanged(self):
        sp = AOUSpace(1, Cone.from_generators([(1,)]), (1,))
        arch, q = archimedeanize(sp)
        assert arch.dim == 1 and q.data == Matrix.identity(1).data

    def test_idempotent(self):
        sp = AOUSpace(
            3,
            Cone.from_inequalities([(1, 1, 0), (1, -1, 0)], strict=[True, True]),
            (1, 0, 0),
        )
        arch, q = archimedeanize(sp)
        arch2, q2 = archimedeanize(arch)
        assert arch2.dim == arch.dim
        assert q2.data == Matrix.identity(arch.dim).data

    def test_unit_that_is_no_order_unit_of_the_closure_is_bad_input(self):
        # with a line in the closure, and without one
        quadrant = AOUSpace(3, Cone.from_inequalities([(1, 0, 0), (0, 1, 0)]), (1, 0, 0))
        outside = AOUSpace(2, linf(2).cone, (1, -1))
        for sp, row in ((quadrant, (0, 1, 0)), (outside, (0, 1))):
            with pytest.raises(InputError) as exc:
                archimedeanize(sp)
            assert exc.value.certificate == row

    def test_one_certificate_for_a_bad_unit(self, tmp_path):
        # validate, archimedeanize and order_norm all name the row (0, 1/3)
        # at the scale the cone holds it, not its coprime form (0, 1)
        sp = AOUSpace(2, Cone.from_inequalities([("1/2", 0), (0, "1/3")]), (1, 0))
        row = (Fraction(0), Fraction(1, 3))
        assert validate(sp).certificates == {"order_unit_basis_1": row}
        for refuse in (lambda: archimedeanize(sp), lambda: order_norm(sp, (1, 0))):
            with pytest.raises(InputError) as exc:
                refuse()
            assert exc.value.certificate == row and type(exc.value.certificate[1]) is Fraction

    def test_universal_property_randomized(self):
        # any unital positive map into an Archimedean space factors exactly
        # through the quotient
        sp = AOUSpace(
            3,
            Cone.from_inequalities([(1, 1, 0), (1, -1, 0)], strict=[True, True]),
            (1, 0, 0),
        )
        arch, q = archimedeanize(sp)
        r = rng(515)
        duals = [vec((1, 1, 0)), vec((1, -1, 0))]  # dual rays of the closure
        for _ in range(20):
            rows = []
            for _ in range(2):
                lam = Fraction(r.randint(0, 4), 4)
                rows.append(
                    tuple(lam * a + (1 - lam) * b for a, b in zip(duals[0], duals[1]))
                )
            phi = Matrix.from_rows(rows)
            # solve phi = phibar . q exactly
            qt = q.transpose()
            phibar_rows = []
            for i in range(2):
                x = None
                from aoulab.linalg import solve

                x = solve(qt, phi.row(i))
                assert x is not None
                phibar_rows.append(x)
            phibar = Matrix.from_rows(phibar_rows)
            assert (phibar @ q).data == phi.data


class TestFrozen:
    # caches hold what was derived from the fields, so the fields stay put
    def test_fields_cannot_be_reassigned(self):
        sp = linf(2)
        order_norm(sp, (1, 0))
        m = UnitalMap(sp, linf(1), Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2))]))
        right = linf(1)
        ts = tensor_space(sp, right, PI)
        for obj, name, value in (
            (sp, "unit", vec((2, 2))),
            (sp.cone, "generators", ()),
            (m, "matrix", Matrix.identity(2)),
            (ts, "realized", sp),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        assert order_norm(sp, (1, 0)) == 1
        assert tensor_space(sp, right, PI) is ts and ts.realized.dim == 2

    def test_unit_is_stored_as_fractions(self):
        unit = AOUSpace(2, Cone.from_generators([(1, 0), (0, 1)]), (1, 2)).unit
        assert unit == (1, 2) and all(type(x) is Fraction for x in unit)


class TestOrderNorm:
    def test_sup_norm_on_linf(self):
        assert order_norm(linf(2), (1, -1)) == 1
        assert order_norm(linf(3), (2, Fraction(-5, 2), 1)) == Fraction(5, 2)

    def test_unit_has_norm_one(self):
        for sp in (linf(3), lin_space(2), dual_augmented(linf(1))):
            assert order_norm(sp, sp.unit) == 1

    def test_coefficient_sum_on_lin_space(self):
        assert order_norm(lin_space(2), (0, 1, 1)) == 2
        assert order_norm(lin_space(3), (1, 1, -1, 1)) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            order_norm(linf(2), (1, 2, 3))

    def test_undominated_vector_rejected(self):
        # boundary unit on the orthant: no multiple of (1,0) dominates (0,1)
        sp = AOUSpace(2, Cone.from_generators([(1, 0), (0, 1)]), (1, 0))
        with pytest.raises(InputError):
            order_norm(sp, (0, 1))

    def test_refuses_units_off_the_interior_of_dominated_vectors(self):
        # the LP is feasible on each, so the refusal comes from the space:
        # a unit on a facet, a cone with a line, a cone of too small a
        # dimension; the types are pinned, the messages are not
        orthant, half_plane, ray = refused_norms()
        with pytest.raises(InputError):
            order_norm(*orthant)
        with pytest.raises(NotPointedError) as info:
            order_norm(*half_plane)
        assert info.value.lineality == [(0, 1)]
        with pytest.raises(InputError):
            order_norm(*ray)

    def test_norm_axioms_randomized(self):
        r = rng(2218)
        for sp in (linf(3), lin_space(2)):
            for _ in range(25):
                v = rand_vec(r, sp.dim)
                w = rand_vec(r, sp.dim)
                c = rand_frac(r)
                nv, nw = order_norm(sp, v), order_norm(sp, w)
                assert order_norm(sp, [c * x for x in v]) == abs(c) * nv
                assert order_norm(sp, [a + b for a, b in zip(v, w)]) <= nv + nw
                assert (nv == 0) == all(x == 0 for x in v)


class TestExtremeStates:
    def test_linf_coordinates(self):
        sts = extreme_states(linf(3))
        assert set(sts) == {vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, 1))}

    def test_lin_space_1_endpoints(self):
        sts = extreme_states(lin_space(1))
        assert set(sts) == {vec((1, 1)), vec((1, -1))}

    def test_lin_space_2_sign_patterns(self):
        sts = extreme_states(lin_space(2))
        assert set(sts) == {
            vec((1, s1, s2)) for s1 in (1, -1) for s2 in (1, -1)
        }

    def test_states_are_kept_under_the_bare_name(self):
        # the key the benchmark reads for spaces.extreme_states.hit_ratio
        sp = lin_space(2)
        states = extreme_states(sp)
        assert sp._derived["extreme_states"] is states
        assert extreme_states(sp) is states

    def test_states_are_states(self):
        for sp in (linf(2), lin_space(2), dual_augmented(linf(1))):
            for s in extreme_states(sp):
                assert dot(s, sp.unit) == 1
                for g in sp.cone.vrep():
                    assert dot(s, g) >= 0

    def test_sym_psd_refused(self):
        with pytest.raises(PolyhedralRequired):
            extreme_states(sym_space(2))

    def test_lineality_refused_with_its_basis(self):
        # all of Q^3, and the half-plane {x1 >= 0} and {x1 > 0} with x2 free:
        # the states vanish on the lineality, so they cannot separate points
        whole = Cone.from_generators([(-2, 1, 1), (-2, -1, 1), (0, 2, 1), (-3, 1, -3), (3, 0, -1)])
        cases = [
            (AOUSpace(3, whole, (-4, 3, -1)), 3),
            (AOUSpace(2, Cone.from_generators([(1, 0), (0, 1), (0, -1)]), (1, 0)), 1),
            (AOUSpace(2, Cone.from_inequalities([(1, 0)], strict=[True]), (1, 0)), 1),
        ]
        for sp, lin_dim in cases:
            for _ in range(2):
                # a call that raises caches nothing, so the next one raises too
                with pytest.raises(NotPointedError) as exc:
                    extreme_states(sp)
                assert "extreme_states" not in sp._derived
            lineality = exc.value.certificate
            assert len(lineality) == lin_dim
            closed = close_and_lineality(sp.cone)[0]
            for g in lineality:
                for x in (g, tuple(-c for c in g)):
                    assert member(closed, x).verdict == "member"


class TestKadisonEmbed:
    def test_linf_is_identity_up_to_order(self):
        emb = kadison_embed(linf(3))
        assert sorted(emb.matrix.data) == sorted(Matrix.identity(3).data)

    def test_lin_space_1_onto_linf2(self):
        emb = kadison_embed(lin_space(1))
        assert emb.target.dim == 2
        assert set(emb.matrix.data) == {vec((1, 1)), vec((1, -1))}
        # order isomorphism: the image cone is the full orthant
        from aoulab.cones import image_cone

        assert same_cone(image_cone(lin_space(1).cone, emb.matrix), emb.target.cone)

    def test_lin_space_2_image(self):
        emb = kadison_embed(lin_space(2))
        img = emb.apply((0, 1, 1))
        assert sorted(img) == [vec((-2, 0, 0, 2))[i] for i in range(4)]
        assert order_norm(emb.target, img) == 2

    def test_norm_preserved_and_cone_reflected(self):
        r = rng(62)
        for sp in (linf(2), lin_space(1), lin_space(2)):
            emb = kadison_embed(sp)
            for _ in range(15):
                v = rand_vec(r, sp.dim)
                assert order_norm(sp, v) == order_norm(emb.target, emb.apply(v))
                in_cone = member(sp.cone, v).verdict == "member"
                assert in_cone == all(x >= 0 for x in emb.apply(v))


class TestIntervalAndBall:
    def test_linf2_interval_is_square(self):
        assert order_interval_vertices(linf(2)) == [
            vec((0, 0)),
            vec((0, 1)),
            vec((1, 0)),
            vec((1, 1)),
        ]

    def test_linf2_ball_is_square(self):
        assert unit_ball_vertices(linf(2)) == [
            vec((-1, -1)),
            vec((-1, 1)),
            vec((1, -1)),
            vec((1, 1)),
        ]

    def test_lin_space1_ball_is_diamond(self):
        assert set(unit_ball_vertices(lin_space(1))) == {
            vec((1, 0)),
            vec((-1, 0)),
            vec((0, 1)),
            vec((0, -1)),
        }

    def test_interval_and_ball_share_one_dd(self, dd_calls):
        for sp in (linf(3), lin_space(2), lin_space(3)):
            sp.cone.hrep()  # a V-cone's facets are a DD of their own
            dd_calls.clear()
            order_interval_vertices(sp)
            unit_ball_vertices(sp)
            assert len(dd_calls) == 1

    def test_ball_is_the_dd_of_the_ball_rows(self):
        # [-e, e] = {v : a.v >= -a.e and -a.v >= -a.e for every row a}
        spaces = [linf(n) for n in range(1, 5)] + [lin_space(n) for n in range(1, 5)]
        for left, right in ((linf(2), lin_space(1)), (lin_space(2), linf(2))):
            spaces += [tensor_space(left, right, kind).realized for kind in (EPSILON, PI)]
        for sp in spaces:
            rows, rhs = [], []
            for a in sp.cone.hrep():
                ae = dot(a, sp.unit)
                rows += [a, tuple(-x for x in a)]
                rhs += [-ae, -ae]
            assert unit_ball_vertices(sp) == as_vertices(rational_polytope_vertices(rows, rhs, sp.dim))

    def test_ball_half_holds_one_vertex_of_each_pair(self):
        # half and -half split the ball: together all of it, no vertex in both
        dim_one = [
            AOUSpace(1, Cone.from_generators([(1,)]), (2,)),
            AOUSpace(1, Cone.from_generators([(-1,)]), (-3,)),
        ]
        for sp in ball_scan_spaces(rng(61)) + dim_one:
            ball, half = unit_ball_vertices(sp), unit_ball_half(sp)
            neg = [tuple(-x for x in v) for v in half]
            assert sorted(half + neg) == ball
            assert not set(half) & set(neg)
            assert half == sorted(half) and unit_ball_half(sp) is half
        assert [unit_ball_half(sp) for sp in dim_one] == [[vec((2,))], [vec((3,))]]

    def test_ball_vertices_have_norm_one(self):
        for sp in (linf(3), lin_space(2), dual_augmented(linf(1))):
            for x in unit_ball_vertices(sp):
                assert order_norm(sp, x) == 1


class TestDualAugmented:
    def test_positive_entries_force_nonnegative_scalar(self):
        # (f, t) in the cone means f + t*1 >= 0 on [0, e]; at v = 0 this
        # forces t >= 0, visible as the row (0, ..., 0, 1)
        for base in (linf(1), linf(2), lin_space(1)):
            aug = dual_augmented(base)
            zero_row = vec([0] * base.dim + [1])
            assert zero_row in set(aug.cone.inequalities)

    def test_functional_embedding_is_order_embedding(self):
        r = rng(8833)
        from aoulab.cones import dual

        for base in (linf(2), lin_space(1)):
            aug = dual_augmented(base)
            dual_cone = dual(base.cone)
            for _ in range(20):
                f = rand_vec(r, base.dim)
                lifted = vec(list(f) + [0])
                assert (member(dual_cone, f).verdict == "member") == (
                    member(aug.cone, lifted).verdict == "member"
                )
