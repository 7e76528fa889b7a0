"""Tensor layer: cone constructions, cross norms, nuclearity, factorization,
and the PSD-backed 2x2 example suite."""

import dataclasses
import gc
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    battery_nuclearity,
    biquadratic_form,
    blockwise_transpose,
    defect_bound_oracle,
    epsilon_order_norm,
    epsilon_pullback_positive,
    evidence_edits,
    evidence_oracle,
    fraction_apply,
    fraction_dot,
    fraction_inverse,
    fraction_max_det,
    fraction_next_state,
    fraction_rank,
    grid_counterexample,
    greedy_oracle,
    kernel_quotient_is_order_quotient,
    lp_is_pointed,
    lp_pi_order_unit,
    multiplier_edits,
    pi_membership_witness,
    psi_lp_in_generators,
    psi_lp_without_dedup,
    rand_frac,
    rand_vec,
    random_unital_into_linf,
    rng,
    states_order_norm,
    sum_of_bilinear_squares,
    unfiltered_block_positive,
)

from aoulab.cones import Cone, extreme_rays, is_simplicial, member
from aoulab.errors import InputError, InvariantViolation, NotPointedError, ShapeError, SizeLimitError
from aoulab.linalg import Matrix, det, dot, vec, vscale, vsub
from aoulab.lp import EQ, GE, solve_lp
import aoulab.maps
import aoulab.psd_examples
from aoulab.maps import UnitalMap, archimedean_quotient, check_map, is_order_quotient, operator_norm, pert
from aoulab.psd_examples import (
    BELL,
    I4,
    SEGRE_RELATION,
    SWAP,
    TensorVerdict,
    block_positive,
    partial_transpose,
    psd_example_suite,
    sos_matches,
)
from aoulab import tensors
from aoulab.spaces import (
    AOUSpace,
    extreme_states,
    lin_space,
    linf,
    order_norm,
    unit_ball_half,
    unit_ball_vertices,
    validate,
)
from aoulab.tensors import (
    EPSILON,
    PI,
    Biorthogonal,
    DefectStep,
    SpaceNuclearity,
    TensorElement,
    _biorthogonal,
    _biorthogonal_holds,
    _nuclearity_holds,
    _space_nuclearity,
    _space_nuclearity_holds,
    factorize,
    injective_banach_norm,
    is_nuclear_fd,
    is_nuclear_pairwise,
    kron_vec,
    member_tensor,
    tensor_map,
    tensor_space,
)

L2, L3 = linf(2), linf(3)
LS1, LS2, LS3 = lin_space(1), lin_space(2), lin_space(3)

# frozen witness of epsilon \ pi on lin_space(2) (x) lin_space(2); the padded
# variant is the same ray inside lin_space(3) (x) lin_space(2)
LS2_WITNESS = ((2, 0, 0), (0, -1, -1), (0, -1, 1))
LS3_WITNESS = ((2, 0, 0), (0, -1, -1), (0, -1, 1), (0, 0, 0))


def identity_map(space):
    return UnitalMap(space, space, Matrix.identity(space.dim))


def random_simplicial(r, d):
    """A V-rep cone on d independent integer generators, unit a positive
    combination of them."""
    while True:
        gens = [tuple(r.randint(-2, 3) for _ in range(d)) for _ in range(d)]
        if det(Matrix.from_rows(gens)) != 0:
            break
    weights = [r.randint(1, 3) for _ in gens]
    unit = tuple(sum(w * g[c] for w, g in zip(weights, gens)) for c in range(d))
    return AOUSpace(d, Cone.from_generators(gens, dim=d), unit, label=f"simplicial({d})")


def random_non_simplicial(r, d):
    """A pointed full-dimensional V-rep cone with more than d extreme rays,
    unit the sum of its generators."""
    while True:
        gens = [tuple(r.randint(-2, 3) for _ in range(d)) for _ in range(d + 2)]
        unit = tuple(sum(g[c] for g in gens) for c in range(d))
        if not any(unit):
            continue
        space = AOUSpace(d, Cone.from_generators(gens, dim=d), unit, label="random")
        report = validate(space)
        if report.order_unit and report.pointed and not is_simplicial(space.cone):
            return space


def random_factor(r):
    """linf(1..3), lin_space(1..2), a simplicial V-space or a non-simplicial
    3-dim V-cone: small enough that a pair's pi facet DD is quick."""
    pick = r.randrange(4)
    if pick == 0:
        return linf(r.randint(1, 3))
    if pick == 1:
        return lin_space(r.randint(1, 2))
    if pick == 2:
        return random_simplicial(r, r.randint(2, 3))
    return random_non_simplicial(r, 3)


class TestTensorSpace:
    def test_kron_vec_convention(self):
        # row-major pairing: kron(A, B) applied to v (x) w is Av (x) Bw
        r = rng(7)
        a = Matrix.from_rows([rand_vec(r, 3) for _ in range(3)])
        b = Matrix.from_rows([rand_vec(r, 2) for _ in range(2)])
        v, w = rand_vec(r, 3), rand_vec(r, 2)
        assert Matrix.kron(a, b).apply(kron_vec(v, w)) == kron_vec(
            a.apply(v), b.apply(w)
        )

    def test_linf_square_both_kinds_are_the_orthant(self):
        coords = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
        eps = tensor_space(L2, L2, EPSILON)
        assert eps.realized.dim == 4
        assert eps.realized.unit == (1, 1, 1, 1)
        assert {tuple(row) for row in eps.realized.cone.inequalities} == coords
        pi = tensor_space(L2, L2, PI)
        assert {tuple(g) for g in pi.realized.cone.generators} == coords

    def test_cache_returns_same_object(self):
        assert tensor_space(L2, L3, EPSILON) is tensor_space(L2, L3, EPSILON)
        assert tensor_space(L2, L3, EPSILON) is not tensor_space(L2, L3, PI)
        # the key is the right factor itself, not its dimension or label
        other = linf(3)
        assert tensor_space(L2, other, EPSILON) is not tensor_space(L2, L3, EPSILON)
        assert tensor_space(L2, other, EPSILON).right is other

    def test_cache_entries_live_as_long_as_the_left_space(self):
        gc.collect()
        pairs = [(lin_space(1), linf(2)) for _ in range(3)]
        refs = [weakref.ref(tensor_space(a, b, PI)) for a, b in pairs]
        gc.collect()
        # nobody holds the tensor spaces but their left factors
        for (a, b), ref in zip(pairs, refs):
            assert tensor_space(a, b, PI) is ref()
        spaces = [weakref.ref(sp) for pair in pairs for sp in pair]
        del pairs, a, b
        gc.collect()
        assert all(ref() is None for ref in refs + spaces)

    def test_pi_order_unit_agrees_with_decomposition_oracle(self):
        # the factor row test against explicit product decompositions of
        # r s e (x) e +- (basis tensor) by exact LPs
        r = rng(17)
        pairs = [(linf(m), lin_space(n)) for m in (1, 2, 3) for n in (1, 2)]
        pairs += [(lin_space(1), linf(2)), (lin_space(2), lin_space(1))]
        for d in (2, 3):
            simp = random_simplicial(r, d)
            pairs += [(simp, lin_space(2)), (linf(2), simp)]
        for left, right in pairs:
            lp_pi_order_unit(left, right)
            ts = tensor_space(left, right, PI)
            assert ts.realized.unit == kron_vec(left.unit, right.unit)

    def test_random_pairs_validate_and_agree_with_the_lp_oracles(self):
        # tensor_space proves both spaces AOU in its docstring; here both
        # realized spaces validate, and the LPs confirm pi's pointedness
        # and unit
        r = rng(61)
        for _ in range(24):
            left, right = random_factor(r), random_factor(r)
            for kind in (EPSILON, PI):
                rep = validate(tensor_space(left, right, kind).realized)
                assert rep.order_unit and rep.archimedean and rep.pointed
            assert lp_is_pointed(tensor_space(left, right, PI).realized.cone)
            lp_pi_order_unit(left, right)

    def test_pi_rejects_factor_units_off_the_interior(self):
        on_facet = AOUSpace(2, linf(2).cone, (1, 0))
        outside = AOUSpace(2, linf(2).cone, (1, -1))
        flat = AOUSpace(2, Cone.from_generators([(1, 0)], dim=2), (1, 0))
        for bad in (on_facet, outside, flat):
            for left, right in ((bad, linf(2)), (lin_space(1), bad)):
                with pytest.raises(InvariantViolation):
                    lp_pi_order_unit(left, right)
                # bad input: the states reject it first, for both kinds
                for kind in (PI, EPSILON):
                    with pytest.raises(InputError):
                        tensor_space(left, right, kind)

    def test_pi_spaces_and_nuclearity_solve_no_tensor_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("tensors.solve_lp called")

        monkeypatch.setattr(tensors, "solve_lp", no_lp)
        ts = tensor_space(lin_space(2), lin_space(2), PI)
        assert ts.realized.dim == 9
        assert is_nuclear_fd(linf(3)) is True

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            tensor_space(L2, L2, "gamma")

    def test_pi_inside_epsilon(self):
        for left, right in ((LS2, LS2), (LS3, LS2), (L3, LS2)):
            eps = tensor_space(left, right, EPSILON)
            pi = tensor_space(left, right, PI)
            for g in pi.realized.cone.generators:
                assert all(dot(row, g) >= 0 for row in eps.realized.cone.inequalities)

    def test_universal_property_instance(self):
        # a bilinear form nonnegative on positive pairs induces a functional
        # nonnegative on the whole pi cone, and only then
        r = rng(11)
        pi = tensor_space(L2, L3, PI)
        for _ in range(20):
            c = [[abs(rand_frac(r)) for _ in range(3)] for _ in range(2)]
            flat = vec([x for row in c for x in row])
            assert all(dot(flat, g) >= 0 for g in pi.realized.cone.generators)
        bad = vec((1, 1, 1, 1, 1, -1))
        assert any(dot(bad, g) < 0 for g in pi.realized.cone.generators)


class TestTensorElement:
    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            TensorElement(L2, L3, Matrix.identity(2))

    def test_flatten_roundtrip(self):
        z = TensorElement.simple(L2, L3, (1, 2), (3, 4, 5))
        assert z.coeffs.data == ((3, 4, 5), (6, 8, 10))
        back = TensorElement.from_flat(L2, L3, z.flatten())
        assert back.coeffs.data == z.coeffs.data

    def test_membership_certificates(self):
        pi = tensor_space(L2, L2, PI)
        inside = TensorElement.simple(L2, L2, (1, 0), (1, 1))
        cert = member_tensor(pi, inside)
        assert cert.verdict == "member"
        assert cert.verify(pi.realized.cone, inside.flatten())
        outside = TensorElement.simple(L2, L2, (1, -1), (1, 1))
        cert = member_tensor(pi, outside)
        assert cert.verdict == "non_member"
        assert cert.verify(pi.realized.cone, outside.flatten())


class TestInjectiveNorm:
    def test_coefficient_matrix_in_linf(self):
        # for linf factors the extreme states are coordinates, so the norm
        # is the largest absolute entry
        z = TensorElement(L2, L2, Matrix.from_rows([(1, -2), (0, 3)]))
        assert injective_banach_norm(z) == 3

    def test_unit_has_norm_one(self):
        for left, right in ((L2, L3), (LS2, L2), (LS2, LS2)):
            unit = TensorElement.from_flat(
                left, right, kron_vec(left.unit, right.unit)
            )
            assert injective_banach_norm(unit) == 1

    def test_cross_norm_on_simple_tensors(self):
        r = rng(23)
        spaces = (L2, L3, LS1, LS2)
        for _ in range(25):
            left = r.choice(spaces)
            right = r.choice(spaces)
            v = rand_vec(r, left.dim)
            w = rand_vec(r, right.dim)
            z = TensorElement.simple(left, right, v, w)
            product = order_norm(left, v) * order_norm(right, w)
            assert injective_banach_norm(z) == product
            pi = tensor_space(left, right, PI)
            assert order_norm(pi.realized, z.flatten()) == product

    def test_matches_epsilon_order_norm(self):
        r = rng(29)
        for left, right in ((LS2, L2), (L2, LS1), (LS1, LS2)):
            for _ in range(10):
                z = TensorElement.from_flat(left, right, rand_vec(r, left.dim * right.dim))
                assert injective_banach_norm(z) == epsilon_order_norm(z)

    def test_builds_no_epsilon_space(self, monkeypatch):
        def no_tensor_space(*args):
            raise AssertionError("injective_banach_norm built a tensor space")

        monkeypatch.setattr(tensors, "tensor_space", no_tensor_space)
        z = TensorElement(L2, LS1, Matrix.from_rows([(1, -2), (0, 3)]))
        assert injective_banach_norm(z) == 3


class TestNuclearity:
    def test_linf_pairs_nuclear(self):
        assert is_nuclear_pairwise(L2, L2).nuclear
        assert is_nuclear_pairwise(L3, L2).nuclear
        assert is_nuclear_pairwise(LS1, L3).nuclear

    def test_lin_space_pair_not_nuclear(self):
        rep = is_nuclear_pairwise(LS2, LS2)
        assert not rep.nuclear
        assert rep.witness.coeffs.data == LS2_WITNESS
        eps = tensor_space(LS2, LS2, EPSILON)
        pi = tensor_space(LS2, LS2, PI)
        flat = rep.witness.flatten()
        assert rep.epsilon_certificate.verdict == "member"
        assert rep.epsilon_certificate.verify(eps.realized.cone, flat)
        assert rep.pi_certificate.verdict == "non_member"
        assert rep.pi_certificate.kind == "separating_functional"
        assert rep.pi_certificate.verify(pi.realized.cone, flat)
        # the closed-form functional also kills the witness directly
        sep = rep.pi_certificate.witness
        assert dot(sep, flat) < 0
        assert all(dot(sep, g) >= 0 for g in pi.realized.cone.generators)

    def test_mixed_pair_witness(self):
        rep = is_nuclear_pairwise(LS3, LS2)
        assert not rep.nuclear
        assert rep.witness.coeffs.data == LS3_WITNESS

    @pytest.mark.parametrize("left, right", [(LS2, LS2), (LS3, LS2), (LS2, LS3)], ids=["ls2,ls2", "ls3,ls2", "ls2,ls3"])
    def test_witness_is_the_first_ray_outside_pi(self, left, right):
        # the membership oracle reads pi's facets; the closed form must pick
        # the same ray and separate it from every product generator
        rep = is_nuclear_pairwise(left, right)
        assert rep.witness.flatten() == pi_membership_witness(left, right)
        pi = tensor_space(left, right, PI).realized.cone
        assert member(pi, rep.witness.flatten()).verdict == "non_member"
        assert _nuclearity_holds(left, right, rep)

    @pytest.mark.parametrize("left, right", [(L2, LS2), (LS2, L3), (LS1, LS2), (L2, L3)], ids=["l2,ls2", "ls2,l3", "ls1,ls2", "l2,l3"])
    def test_simplicial_factor_gives_its_pair(self, left, right):
        rep = is_nuclear_pairwise(left, right)
        factor = left if is_simplicial(left.cone) else right
        assert rep.nuclear and rep.factor == ("left" if factor is left else "right")
        assert rep.biorthogonal == _biorthogonal(factor)
        assert rep.witness is rep.pi_certificate is rep.epsilon_certificate is None
        assert pi_membership_witness(left, right) is None
        assert _nuclearity_holds(left, right, rep)

    def test_simplicial_factor_runs_no_tensor_dd(self, dd_calls):
        # one DD per factor, its own; no epsilon cone, no pi facets
        left, right = linf(2), lin_space(2)
        assert is_nuclear_pairwise(left, right).nuclear
        assert sorted(dd_calls) == [2, 4]
        assert ("tensor_space", right, EPSILON) not in left._derived
        assert ("tensor_space", right, PI) not in left._derived

    def test_non_nuclear_pair_builds_no_pi_facets(self, dd_calls):
        left, right = lin_space(3), lin_space(2)
        assert not is_nuclear_pairwise(left, right).nuclear
        pi = tensor_space(left, right, PI).realized.cone
        assert "_dd" not in pi._derived
        # the two factors' DDs and the epsilon cone's, on its 8 x 4 rows
        assert sorted(dd_calls) == [4, 8, 32]

    def test_biorthogonal_pair(self):
        r = rng(37)
        for space in [L2, L3, linf(4), LS1] + [random_simplicial(r, d) for d in (2, 3, 3, 4)]:
            pair = _biorthogonal(space)
            rays = extreme_rays(space.cone)
            assert len(pair.rays) == len(pair.states) == space.dim
            # each scaled ray is a positive multiple of an extreme ray, and
            # together they sum to the unit
            for g, ray in zip(pair.rays, rays):
                c = next(x / y for x, y in zip(g, ray) if y)
                assert c > 0 and g == tuple(c * y for y in ray)
            assert tuple(map(sum, zip(*pair.rays))) == space.unit
            # the states are the rows of the inverse of the scaled ray matrix
            inv = fraction_inverse(Matrix.from_rows(list(zip(*pair.rays))))
            assert pair.states == inv.data
            assert _biorthogonal_holds(space, pair)

    def test_biorthogonal_check_rejects_tampered_pairs(self):
        pair = _biorthogonal(LS1)
        scaled = Biorthogonal((tuple(2 * x for x in pair.rays[0]),) + pair.rays[1:], pair.states)
        off = Biorthogonal(pair.rays, ((pair.states[0][0] + Fraction(1, 7),) + pair.states[0][1:],) + pair.states[1:])
        # (1, 0) lies inside the cone, so its biorthogonal partner (0, 1)
        # is not positive on the ray (1, -1)
        inner = Biorthogonal((vec((1, 0)), vec((1, 1))), (vec((1, -1)), vec((0, 1))))
        for bad in (scaled, off, inner):
            assert not _biorthogonal_holds(LS1, bad)
        with pytest.raises(ShapeError):
            _biorthogonal_holds(LS1, Biorthogonal(pair.rays[:1], pair.states[:1]))

    def test_space_nuclearity_evidence(self):
        r = rng(41)
        spaces = [L2, L3, LS1, LS2, LS3] + [random_simplicial(r, 3), random_non_simplicial(r, 3)]
        for space in spaces:
            rep = _space_nuclearity(space)
            assert rep.nuclear is is_nuclear_fd(space)
            assert _space_nuclearity_holds(space, rep)
            if rep.nuclear:
                assert rep.biorthogonal == _biorthogonal(space) and rep.rays is None
                continue
            # dim + 1 of the extreme rays, the first dim a basis
            assert len(rep.rays) == space.dim + 1
            assert set(rep.rays) <= set(extreme_rays(space.cone))
            assert fraction_rank(Matrix.from_rows(rep.rays[:-1])) == space.dim
            # a ray doubled, a ray inside the cone, or one ray short
            doubled = rep.rays[:-1] + (rep.rays[0],)
            inner = rep.rays[:-1] + (space.unit,)
            for bad in (doubled, inner):
                assert not _space_nuclearity_holds(space, SpaceNuclearity(False, rays=bad))
            with pytest.raises(ShapeError):
                _space_nuclearity_holds(space, SpaceNuclearity(False, rays=rep.rays[:-1]))

    def test_evidence_about_a_bad_unit_is_bad_input(self):
        # the checker runs the gate _space_nuclearity runs: lin_space(2)'s
        # report does not hold for its cone with a unit on a facet
        moved = AOUSpace(3, LS2.cone, (1, 1, 0))
        with pytest.raises(InputError, match="not an order unit") as exc:
            _space_nuclearity_holds(moved, _space_nuclearity(LS2))
        assert exc.value.certificate == (1, -1, 1)

    def test_non_nuclear_evidence_needs_a_pointed_full_cone(self):
        # Q^1 as a cone: +1 and -1 pass the tight-rank test, but lie on one line
        line = AOUSpace(1, Cone.from_generators([(1,), (-1,)]), (1,))
        rays = ((Fraction(1),), (Fraction(-1),))
        assert not _space_nuclearity_holds(line, SpaceNuclearity(False, rays=rays))
        # two independent rays of the half-plane {x0 >= 0} with its line
        half = AOUSpace(2, Cone.from_inequalities([(1, 0)]), (1, 0))
        rays = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
        assert not _space_nuclearity_holds(half, SpaceNuclearity(False, rays=rays))

    def test_fd_battery_matches_simpliciality(self):
        for space in (linf(1), L2, L3, linf(4), LS1, LS2, LS3):
            assert is_nuclear_fd(space) == is_simplicial(space.cone)
            assert is_nuclear_fd(space) == battery_nuclearity(space)

    def test_fd_matches_battery_on_random_spaces(self):
        r = rng(31)
        spaces = [random_simplicial(r, d) for d in (2, 3, 3)]
        spaces += [random_non_simplicial(r, 3) for _ in range(3)]
        verdicts = [is_nuclear_fd(space) for space in spaces]
        assert verdicts == [True] * 3 + [False] * 3
        assert verdicts == [battery_nuclearity(space) for space in spaces]

    def test_custom_battery(self):
        # every nuclear partner gives equal cones, whatever the space; each
        # non-nuclear partner reproduces the single-space verdict
        assert battery_nuclearity(LS2, ((L2, True),)) is None
        assert battery_nuclearity(LS2, ((L2, True), (LS3, False))) is is_nuclear_fd(LS2) is False
        assert battery_nuclearity(L3, ((L2, True), (LS2, False))) is is_nuclear_fd(L3) is True


class TestTensorMap:
    def test_identity_tensor_identity(self):
        for kind in (EPSILON, PI):
            m = tensor_map(identity_map(L2), identity_map(L3), kind)
            assert m.matrix.data == Matrix.identity(6).data
            assert m.unital and m.positive

    @staticmethod
    def random_factor_map(r, source):
        """The identity of source, or a unital positive map into linf(1..2)."""
        if r.randrange(3) == 0:
            return identity_map(source)
        while not (m := random_unital_into_linf(r, source, r.randint(1, 2), spread=1)).positive:
            pass
        return m

    def test_random_factor_maps_give_unital_positive_maps(self):
        # tensor_map proves its result unital and positive in its
        # docstring; here the flags and the epsilon pull-back confirm it
        r = rng(67)
        for _ in range(16):
            s = self.random_factor_map(r, random_factor(r))
            t = self.random_factor_map(r, random_factor(r))
            assert epsilon_pullback_positive(s, t)
            for kind in (EPSILON, PI):
                m = tensor_map(s, t, kind)
                assert m.unital and m.positive

    def test_warm_tensor_map_runs_no_dd(self, dd_calls):
        # with the factors and both tensor spaces built, the map is its
        # Kronecker product: no cone of the result is built or converted
        s = identity_map(LS2)
        t = UnitalMap(L2, L3, Matrix.from_rows([(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))]))
        for kind in (EPSILON, PI):
            assert s.unital and s.positive and t.unital and t.positive
            tensor_space(s.source, t.source, kind)
            tensor_space(s.target, t.target, kind)
            dd_calls.clear()
            m = tensor_map(s, t, kind)
            assert dd_calls == []
            assert m.matrix.data == Matrix.kron(s.matrix, t.matrix).data

    def test_lin_space_three_square_builds_no_pi_facets(self):
        ls3 = lin_space(3)
        m = tensor_map(identity_map(ls3), identity_map(ls3), PI)
        assert m.matrix.data == Matrix.identity(16).data
        assert "_dd" not in m.target.cone._derived

    def test_requires_positive_unital_factors(self):
        skew = UnitalMap(L2, L2, Matrix.from_rows([(2, -1), (0, 1)]))
        with pytest.raises(InputError):
            tensor_map(skew, identity_map(L2), PI)

    def test_embedding_tensor_identity_is_epsilon_embedding(self):
        iota = UnitalMap(
            L2,
            L3,
            Matrix.from_rows([(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))]),
        )
        assert check_map(iota).order_embedding
        big = tensor_map(iota, identity_map(L2), EPSILON)
        rep = check_map(big)
        assert rep.order_embedding and rep.isometry

    def test_quotient_tensor_identity_is_pi_quotient(self):
        q = UnitalMap(
            L3,
            L2,
            Matrix.from_rows([(1, 0, 0), (0, Fraction(1, 2), Fraction(1, 2))]),
        )
        assert is_order_quotient(q).is_quotient
        big = tensor_map(q, identity_map(L2), PI)
        assert is_order_quotient(big).is_quotient
        assert kernel_quotient_is_order_quotient(q) and kernel_quotient_is_order_quotient(big)


class TestFactorize:
    def test_simplicial_spaces_factor_exactly(self):
        for space, k in ((L3, 3), (LS1, 2)):
            res = factorize(space)
            assert res.success and res.defect == 0 and not res.exhausted
            assert res.states_used == k
            assert res.schedule == ((k, Fraction(0)),)
            assert res.phi.source is space and res.phi.target.label == f"linf({k})"
            comp = res.psi.compose(res.phi)
            assert comp.matrix.data == Matrix.identity(space.dim).data
            assert res.phi.positive and res.psi.positive

    def test_unit_that_is_no_order_unit_is_bad_input(self):
        # the orthant's unit must be interior; (0, 1) is not positive on
        # a unit on a facet or outside the cone
        for unit in ((1, 0), (1, -1)):
            with pytest.raises(InputError) as exc:
                factorize(AOUSpace(2, linf(2).cone, unit))
            assert exc.value.certificate == (0, 1)

    def test_non_pointed_cone_is_refused_with_its_lineality(self):
        # the simpliciality test refuses it before any ball is enumerated
        space = AOUSpace(2, Cone.from_generators([(1, 0), (0, 1), (0, -1)]), (1, 0))
        with pytest.raises(NotPointedError) as exc:
            factorize(space)
        assert exc.value.lineality == [(0, 1)]

    def test_more_states_than_the_lp_budget_raises_at_once(self, monkeypatch):
        # lin_space(5) and lin_space(6), 32 and 64 states in dimension 6 and
        # 7: the first defect LP is refused before any row is built, on the
        # (2d - 1) m rows of factorize's docstring, with no |det| scan before
        # it; the LPs have 353 and 833 rows
        def unsolved(*args, **kwargs):
            raise AssertionError("an LP over the budget was solved")

        def unbuilt(*args):
            raise AssertionError("a row of an LP over the budget was built")

        monkeypatch.setattr(tensors, "solve_lp", unsolved)
        monkeypatch.setattr(tensors, "dot", unbuilt)
        for n, gens, entries in ((5, 10, 142208), (6, 12, 753792)):
            space = lin_space(n)
            rows = (2 * space.dim - 1) * 2**n
            start = time.perf_counter()
            with pytest.raises(SizeLimitError, match=rf"^factorize: defect LP of at least {rows} rows over {n + 1} "
                               rf"states has at least {entries} standard-form entries, over FACTORIZE_LP_CAP = 50000$"):
                factorize(space)
            assert time.perf_counter() - start < 1
            assert entries == rows * (rows + gens * n + 2) and len(extreme_rays(space.cone)) == gens

    def test_seed_is_the_scan_on_the_workload_space(self):
        # lin_space(2) is the greedy case the benchmark's reports run
        states = extreme_states(LS2)
        assert tuple(tensors._seed_states(LS2)) == fraction_max_det(states, 3) == (0, 1, 2)

    # 4-dim, V-rep, 8 extreme states: its first defect LP, over 4 states, is
    # 271 rows by 291 standard-form columns; posed over psi's entries it was
    # 308 by 337 and ran for minutes unbudgeted
    FOUR_DIM = AOUSpace(
        4,
        Cone.from_generators(
            [(-2, 0, 2, 2), (0, 2, 0, 0), (-1, 1, 1, 2), (3, 2, 0, 1), (-1, -1, 2, 1), (2, 1, -1, -1)]
        ),
        (1, 5, 4, 5),
    )

    def test_defect_lp_over_budget_raises_unsolved(self, monkeypatch):
        def unsolved(*args, **kwargs):
            raise AssertionError("an LP over the budget was solved")

        monkeypatch.setattr(tensors, "solve_lp", unsolved)
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=r"271 rows over 4 states has 78861 standard-form entries"):
            factorize(self.FOUR_DIM)
        assert time.perf_counter() - start < 1

    def test_lin_space_three_fits_the_budget(self, monkeypatch):
        # its largest defect LP is 57 x 101 = 5757 standard-form entries:
        # nonnegative columns only, plus one slack per >= row; every rhs is
        # <= 0, so the simplex starts from the slack basis with no phase 1
        posed = []

        def spy(obj, rows, rhs, senses, **kwargs):
            posed.append((len(rows) * (len(obj) + len(rows)), max(rhs), set(senses), all(kwargs["nonneg"])))
            return solve_lp(obj, rows, rhs, senses, **kwargs)

        monkeypatch.setattr(tensors, "solve_lp", spy)
        res = factorize(LS3)
        assert len(posed) == 5
        for entries, top, senses, nonneg in posed:
            assert entries <= 6000 and top <= 0 and senses == {GE} and nonneg
        two_thirds = Fraction(2, 3)
        assert res.schedule == tuple((k, two_thirds) for k in range(4, 9))
        assert (res.defect, res.success, res.states_used, res.exhausted) == (two_thirds, False, 4, True)
        assert [len(step.psi[0]) for step in res.steps] == list(range(4, 9))
        assert tensors._factorization_holds(LS3, Fraction(1, 10), res)

    def test_lin_space_two_stalls_at_one_half(self):
        res = factorize(LS2)
        assert not res.success and res.exhausted
        assert res.defect == Fraction(1, 2)
        assert res.states_used == 4
        assert res.schedule == ((3, Fraction(1)), (4, Fraction(1, 2)))
        # the reported defect is the true operator norm of the round trip
        # defect on the unit ball, recomputed independently
        comp = res.psi.compose(res.phi)
        worst = Fraction(0)
        for v in unit_ball_vertices(LS2):
            diff = tuple(a - b for a, b in zip(comp.apply(v), v))
            worst = max(worst, order_norm(LS2, diff))
        assert worst == res.defect

    def test_defect_lp_rows_are_added_once(self, monkeypatch):
        sizes = []

        def spy(obj, rows, *args, **kwargs):
            sizes.append(len(rows))
            return solve_lp(obj, rows, *args, **kwargs)

        monkeypatch.setattr(tensors, "solve_lp", spy)
        assert factorize(lin_space(2)).schedule == ((3, Fraction(1)), (4, Fraction(1, 2)))
        assert sizes == [21, 21]
        space = lin_space(2)
        pool = extreme_states(space)
        verts = unit_ball_vertices(space)
        assert [len(psi_lp_without_dedup(space, pool[:k], verts)[1]) for k in (3, 4)] == [63, 67]
        assert [len(psi_lp_in_generators(space, pool[:k], verts)[1]) for k in (3, 4)] == [52, 52]

    def test_defect_lp_value_matches_undeduplicated_rows(self, monkeypatch):
        # at every greedy step the optimum is the full-ball LP's over psi's
        # entries: the step's psi with t at the scheduled defect meets every
        # row of that LP, and the step's multipliers bound it below by the
        # same value (weak duality). Except on lin_space(3), whose five
        # full-ball LPs take about 10 s, that LP is also solved
        phis = []
        original = tensors._best_psi

        def recording(space, phi_rows, verts):
            phis.append(phi_rows)
            return original(space, phi_rows, verts)

        monkeypatch.setattr(tensors, "_best_psi", recording)
        r = rng(29)
        for space in [LS2, LS3] + [random_non_simplicial(r, 3) for _ in range(3)]:
            phis.clear()
            res = factorize(space)
            assert len(res.schedule) == len(phis) >= 2
            verts, half, hrows = unit_ball_vertices(space), unit_ball_half(space), space.cone.hrep()
            for phi_rows, step, (_, value) in zip(phis, res.steps, res.schedule, strict=True):
                obj, rows, rhs, senses, nonneg = psi_lp_without_dedup(space, phi_rows, verts)
                x = tuple(e for row in step.psi for e in row) + (value,)
                assert dot(obj, x) == value >= 0
                for row, b, sense in zip(rows, rhs, senses):
                    assert dot(row, x) == b if sense == EQ else dot(row, x) >= b
                assert tensors._defect_lower_bound(space, phi_rows, half, hrows, step.multipliers) == value
                if space is not LS3:
                    assert solve_lp(obj, rows, rhs, senses, nonneg=nonneg).value == value
        # state sets the greedy loop does not pick, which put another state
        # in the eliminated last column: the solved full-ball LP's value is
        # psi's worst residual norm and the multipliers' bound
        for space in (lin_space(2), random_non_simplicial(rng(29), 3)):
            pool = extreme_states(space)
            verts, hrows = [vec(v) for v in unit_ball_vertices(space)], space.cone.hrep()
            assert len(pool) == 4
            for chosen in ([0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 2, 3]):
                phi_rows = [pool[i] for i in chosen]
                step = original(space, phi_rows, verts)
                obj, rows, rhs, senses, nonneg = psi_lp_without_dedup(space, phi_rows, verts)
                value = solve_lp(obj, rows, rhs, senses, nonneg=nonneg).value
                psi_phi = Matrix.from_rows(step.psi) @ Matrix.from_rows(phi_rows)
                assert max(states_order_norm(space, vsub(psi_phi.apply(v), v)) for v in verts) == value
                assert tensors._defect_lower_bound(space, phi_rows, verts, hrows, step.multipliers) == value

    @staticmethod
    def v_square() -> AOUSpace:
        # a fresh V-cone: the cone over the square with corners (+-1, 0)
        # and (0, +-1)
        return AOUSpace(3, Cone.from_generators([(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)]), (1, 0, 0))

    def test_cold_v_cone_factorize_runs_two_dds(self, dd_calls, dd_resumes):
        # the cone's, which gives its states and H-rows, and the unit
        # ball's, which resumes it by the 4 rows of e - C; the check reads
        # the cone's own generators, and no dual cone is built for the
        # multipliers
        res = factorize(self.v_square())
        assert res.schedule == ((3, Fraction(1)), (4, Fraction(1, 2)))
        assert dd_calls == [4] and dd_resumes == [4]

    def test_every_multiplier_edit_agrees_with_weak_duality(self, monkeypatch):
        # each multiplier of each step edited (conftest.multiplier_edits);
        # the oracle recomputes weak duality over psi_lp_in_generators' rows
        phis = []
        original = tensors._best_psi

        def recording(space, phi_rows, verts):
            phis.append(phi_rows)
            return original(space, phi_rows, verts)

        monkeypatch.setattr(tensors, "_best_psi", recording)
        r = rng(29)
        seen = Counter()
        for space in [LS2, LS3, self.v_square()] + [random_non_simplicial(r, 3) for _ in range(3)]:
            phis.clear()
            res = factorize(space)
            half, m = unit_ball_half(space), len(space.cone.hrep())
            for s, (step, phi_rows, (_, defect)) in enumerate(zip(res.steps, phis, res.schedule, strict=True)):
                proves = defect_bound_oracle(space, phi_rows, half)
                assert proves(step.multipliers, defect)
                for edited in multiplier_edits(step.multipliers, len(half), m):
                    steps = res.steps[:s] + (dataclasses.replace(step, multipliers=edited),) + res.steps[s + 1 :]
                    want = proves(edited, defect)
                    holds = tensors._factorization_holds(space, Fraction(1, 10), dataclasses.replace(res, steps=steps))
                    assert holds is want, (space.label, s, edited)
                    seen[want] += 1
        # 732 edits of 68 multipliers; only the 68 splits into halves keep
        # the proof
        assert seen == {False: 664, True: 68}

    def test_defect_lp_rows_match_the_index_oracle(self, monkeypatch):
        # the positivity rows of the newest column in order, then the
        # oracle's defect rows over the full ball, each once
        posed = []

        def spy(obj, rows, rhs, senses, **kwargs):
            posed.append((obj, list(zip(rows, rhs)), list(senses), kwargs["nonneg"]))
            return solve_lp(obj, rows, rhs, senses, **kwargs)

        monkeypatch.setattr(tensors, "solve_lp", spy)
        r = rng(29)
        for space in (lin_space(2), random_non_simplicial(r, 3)):
            pool = extreme_states(space)
            verts = [vec(v) for v in unit_ball_vertices(space)]
            m = len(space.cone.hrep())
            for k in (3, 4):
                obj, rows, rhs, senses, nonneg = psi_lp_in_generators(space, pool[:k], verts)
                oracle = list(zip(rows, rhs))
                tensors._best_psi(space, pool[:k], verts)
                got_obj, got, got_senses, got_nonneg = posed.pop()
                assert (got_obj, got_senses, got_nonneg) == (obj, senses[: len(got)], nonneg)
                assert got[:m] == oracle[:m]
                assert sorted(got[m:]) == sorted(set(oracle[m:]))

    def test_simplicial_branch_enumerates_no_ball(self, monkeypatch):
        calls = []
        original = tensors.unit_ball_half
        monkeypatch.setattr(tensors, "unit_ball_half", lambda space: calls.append(space) or original(space))
        simplicial = random_simplicial(rng(53), 3)
        for space in (L3, simplicial):
            assert factorize(space).defect == 0
        # a bad unit is refused with the first cone row that fails it
        message = "^the unit is not an order unit: a cone row is not positive on it$"
        bad = (
            (AOUSpace(3, L3.cone, (1, 1, 0)), (0, 0, 1)),
            (AOUSpace(3, simplicial.cone, vsub((0, 0, 0), simplicial.unit)), (-2, 3, 7)),
            (AOUSpace(3, Cone.from_inequalities([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), (1, 2, -1)), (0, 0, 1)),
        )
        for space, row in bad:
            with pytest.raises(InputError, match=message) as exc:
                factorize(space)
            assert exc.value.certificate == row
        assert calls == []

    def test_recheck_solves_no_order_norm_lp(self, monkeypatch):
        # the recheck reads each residual's norm off the extreme states; the
        # defect LPs, posed in aoulab.tensors, are the only LPs left
        import aoulab.spaces

        def no_lp(*args, **kwargs):
            raise AssertionError("order-norm LP solved")

        monkeypatch.setattr(aoulab.spaces, "solve_lp", no_lp)
        res = factorize(lin_space(2))
        assert res.schedule == ((3, Fraction(1)), (4, Fraction(1, 2)))

    @staticmethod
    def random_non_simplicial_space(r):
        # generators (1, x, y) of a cone over a polygon with 4 or more corners
        while True:
            gens = [(1,) + rand_vec(r, 2, -3, 3, 1) for _ in range(5)]
            cone = Cone.from_generators(gens, dim=3)
            if fraction_rank(Matrix.from_rows(gens)) == 3 and not is_simplicial(cone):
                return AOUSpace(3, cone, tuple(sum(g[i] for g in gens) for i in range(3)))

    @pytest.mark.parametrize("seed", [None, 4127], ids=["lin_space(2)", "random"])
    def test_recheck_norms_match_the_order_norm(self, monkeypatch, seed):
        space = LS2 if seed is None else self.random_non_simplicial_space(rng(seed))
        rounds = []
        original = tensors._residual_norms

        def recording(pool, psi_phi, half):
            rounds.append(original(pool, psi_phi, half))
            return rounds[-1]

        seeds = []
        original_seed = tensors._seed_states
        monkeypatch.setattr(tensors, "_residual_norms", recording)
        monkeypatch.setattr(tensors, "_seed_states", lambda space: seeds.append(space) or original_seed(space))
        res = factorize(space)
        # the loop seeds once and takes residuals once per step, for its
        # defect and the next pick; the check replays the same n rounds on
        # the stored psi
        n = len(res.schedule)
        assert n >= 1 and len(rounds) == n and seeds == [space]
        assert tensors._factorization_holds(space, Fraction(1, 10), res)
        assert len(rounds) == 2 * n and rounds[:n] == rounds[n:]
        for residuals, norms in rounds:
            assert norms == [order_norm(space, v) for v in residuals]
        for (_, norms), (_, defect) in zip(rounds, res.schedule):
            assert max(norms) == defect

    def test_next_state_matches_the_fraction_scan(self):
        # _factorization_holds replays the greedy pick with the same
        # _next_state as factorize, so the pick is pinned to the oracle: on
        # each step's psi, and on seeded random psi phi and state sets
        r = rng(29)
        spaces = [LS2, LS3] + [random_non_simplicial(r, 3) for _ in range(3)]
        spaces.append(self.random_non_simplicial_space(rng(4127)))
        picks = 0
        for space in spaces:
            pool = extreme_states(space)
            half = list(reversed(unit_ball_half(space)))

            def check(chosen, psi_phi):
                got = tensors._next_state(pool, chosen, *tensors._residual_norms(pool, psi_phi, half))
                assert got == fraction_next_state(space, pool, chosen, psi_phi)
                return got

            chosen = tensors._seed_states(space)
            for step in factorize(space).steps[:-1]:
                chosen.append(check(chosen, Matrix.from_rows(step.psi) @ Matrix.from_rows([pool[i] for i in chosen])))
                picks += 1
            for _ in range(5):
                k = r.randint(1, len(pool) - 1)
                psi_phi = Matrix.from_rows([rand_vec(r, space.dim, -2, 2, 2) for _ in range(space.dim)])
                check(r.sample(range(len(pool)), k), psi_phi)
                picks += 1
        assert picks >= 40

    def test_greedy_oracle_agrees_on_the_factorize_battery(self):
        # every fresh report holds, and the oracle recomputes its schedule,
        # best step and flags from its psi alone
        r = rng(29)
        spaces = [LS2, LS3, self.v_square()] + [random_non_simplicial(r, 3) for _ in range(3)]
        spaces.append(self.random_non_simplicial_space(rng(4127)))
        for space in spaces:
            for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                res = factorize(space, eps)
                assert tensors._factorization_holds(space, eps, res)
                schedule, (psi, phi_rows), success, used, exhausted = greedy_oracle(space, eps, res.steps)
                assert (schedule, success, used, exhausted) == (res.schedule, res.success, res.states_used, res.exhausted)
                assert (psi, tuple(phi_rows)) == (res.psi.matrix.data, res.phi.matrix.data)
                assert min(defect for _, defect in schedule) == res.defect

    def test_false_claims_of_the_greedy_loop(self):
        # a step given to a simplicial report, a psi column moved out of the
        # cone with psi still unital, a step appended after the stop and the
        # last step dropped: no claim holds, and the oracle sees the steps
        # stop too late or too soon
        eps = Fraction(1, 10)
        exact = factorize(L3)
        given = dataclasses.replace(exact, steps=(DefectStep(exact.psi.matrix.data, ()),))
        assert not tensors._factorization_holds(L3, eps, given)
        res = factorize(LS2)
        first = res.steps[0]
        cols = [list(c) for c in zip(*first.psi)]
        cols[0], cols[-1] = [-x for x in cols[0]], [x + 2 * y for x, y in zip(cols[-1], cols[0])]
        assert any(dot(a, cols[0]) < 0 for a in LS2.cone.hrep())
        moved = DefectStep(tuple(zip(*cols)), first.multipliers)
        tampered = {
            "out of the cone": dataclasses.replace(res, steps=(moved,) + res.steps[1:]),
            "after the stop": dataclasses.replace(res, steps=res.steps + res.steps[-1:], schedule=res.schedule + res.schedule[-1:]),
            "last dropped": dataclasses.replace(res, steps=res.steps[:-1], schedule=res.schedule[:-1]),
        }
        for name, claim in tampered.items():
            assert not tensors._factorization_holds(LS2, eps, claim), name
        assert greedy_oracle(LS2, eps, res.steps) is not None
        assert greedy_oracle(LS2, eps, tampered["after the stop"].steps) is None
        assert greedy_oracle(LS2, eps, tampered["last dropped"].steps) is None

    @pytest.mark.parametrize("off", [Fraction(1, 7), Fraction(-1, 7)])
    def test_defect_off_by_a_seventh_breaks_the_recheck(self, monkeypatch, off):
        # every multiplier scaled by 1 + off proves a bound off by a seventh
        # of the defect
        original = tensors._best_psi

        def scaled(*args):
            step = original(*args)
            return DefectStep(step.psi, tuple((name, mu * (1 + off)) for name, mu in step.multipliers))

        monkeypatch.setattr(tensors, "_best_psi", scaled)
        with pytest.raises(InvariantViolation, match=r"^factorize\(lin_space\(2\)\): result fails its check$"):
            factorize(LS2)

    @pytest.mark.parametrize(
        "space", [linf(1), AOUSpace(1, Cone.from_generators([(3,)]), (2,))], ids=["linf1", "ray"]
    )
    def test_one_dimensional_spaces_factor_exactly(self, space):
        res = factorize(space)
        assert (res.success, res.defect, res.schedule) == (True, 0, ((1, Fraction(0)),))
        comp = res.psi.compose(res.phi).matrix
        assert max(order_norm(space, vsub(comp.apply(v), v)) for v in unit_ball_vertices(space)) == 0

    def test_loose_tolerance_accepts_lin_space_two(self):
        res = factorize(LS2, eps=Fraction(1, 2))
        assert res.success and res.defect <= Fraction(1, 2)

    @pytest.mark.parametrize("space", [LS2, linf(2)], ids=["lin_space(2)", "linf(2)"])
    def test_negative_tolerance_is_bad_input(self, space):
        # no defect is at most a negative eps, greedy or simplicial
        with pytest.raises(InputError, match="eps must be nonnegative"):
            factorize(space, eps=Fraction(-1, 10))
        assert factorize(space, eps=0).defect >= 0


def swap_two_states(monkeypatch):
    original = tensors._biorthogonal
    monkeypatch.setattr(
        tensors,
        "_biorthogonal",
        lambda space: (lambda p: Biorthogonal(p.rays, (p.states[1], p.states[0]) + p.states[2:]))(original(space)),
    )


def flip_the_separating_functional(monkeypatch):
    original = tensors._reduce
    monkeypatch.setattr(tensors, "_reduce", lambda w: vscale(-1, original(w)))


def double_the_first_ray(monkeypatch):
    original = tensors.extreme_rays
    monkeypatch.setattr(tensors, "extreme_rays", lambda cone: [vscale(2, original(cone)[0])] + original(cone))


def double_the_measures(monkeypatch):
    # S is unchanged, but ||t|| is read as twice the true row mass
    original = aoulab.maps._min_l1_measure
    monkeypatch.setattr(aoulab.maps, "_min_l1_measure", lambda space, f: [2 * x for x in original(space, f)])


def skew_the_quotient_matrix(monkeypatch):
    # q's first entry off by 1/7: q no longer kills J, yet its image is a
    # pointed cone with an order unit, so only the check sees it
    original = aoulab.maps.quotient_matrix

    def skewed(kernel, dim):
        q = original(kernel, dim)
        return Matrix(((q.data[0][0] + Fraction(1, 7),) + q.data[0][1:],) + q.data[1:])

    monkeypatch.setattr(aoulab.maps, "quotient_matrix", skewed)


@pytest.mark.parametrize(
    "tamper, construct, name",
    [
        (swap_two_states, lambda: factorize(L3), r"factorize\(linf\(3\)\)"),
        (swap_two_states, lambda: is_nuclear_pairwise(L2, LS2), r"is_nuclear_pairwise\(linf\(2\), lin_space\(2\)\)"),
        (flip_the_separating_functional, lambda: is_nuclear_pairwise(LS2, LS2), r"is_nuclear_pairwise\(lin_space\(2\), lin_space\(2\)\)"),
        (swap_two_states, lambda: _space_nuclearity(L3), r"nuclearity\(linf\(3\)\)"),
        (double_the_first_ray, lambda: _space_nuclearity(LS2), r"nuclearity\(lin_space\(2\)\)"),
        (double_the_measures, lambda: pert(UnitalMap(L2, L2, Matrix.identity(2))), r"pert\(linf\(2\), linf\(2\)\)"),
        (skew_the_quotient_matrix, lambda: archimedean_quotient(linf(4), [(1, 0, 0, 0)]), r"archimedean_quotient\(linf\(4\)\)"),
    ],
    ids=["factorize-simplicial", "nuclear-pair-simplicial", "nuclear-pair-witness", "nuclear-simplicial", "nuclear-rays", "pert", "quotient"],
)
def test_a_broken_construction_fails_its_check(monkeypatch, tamper, construct, name):
    # each construction ends with the checker verify runs, which sees the
    # tampered result and names what was computed
    tamper(monkeypatch)
    with pytest.raises(InvariantViolation, match=f"^{name}: result fails its check$"):
        construct()


class TestTamperedVerdicts:
    # a verdict proves its claim only for the cone its kind supports, and
    # missing or malformed evidence is a failed check, never an exception
    SUITE = {rep.label: rep for rep in psd_example_suite()}
    CONES = ("psd", "pi", "epsilon")

    def test_psd_factorization_proves_no_pi_membership(self):
        assert TensorVerdict("member", "psd", "psd_factorization").verify(BELL)
        assert not TensorVerdict("member", "pi", "psd_factorization").verify(BELL)
        assert not TensorVerdict("member", "epsilon", "psd_factorization").verify(BELL)

    def test_relabelled_suite_verdicts_fail(self):
        for rep in self.SUITE.values():
            for v in rep.verdicts.values():
                assert v.verify(rep.matrix)
                flipped = "member" if v.claim == "non_member" else "non_member"
                assert not dataclasses.replace(v, claim=flipped).verify(rep.matrix)
                for cone in self.CONES:
                    if cone != v.cone:
                        assert not dataclasses.replace(v, cone=cone).verify(rep.matrix)

    def test_non_member_gram_shift_fails(self):
        ev = block_positive(BELL).evidence
        assert ev.verify(BELL)
        assert not dataclasses.replace(ev, claim="non_member").verify(BELL)
        assert not TensorVerdict("non_member", "epsilon", "gram_shift", shift=Fraction(0)).verify(BELL)

    @pytest.mark.parametrize(
        "claim, cone, kind",
        [
            ("non_member", "psd", "negative_direction"),
            ("non_member", "pi", "partial_transpose_witness"),
            ("non_member", "pi", "psd_superset"),
            ("member", "pi", "product_decomposition"),
            ("member", "epsilon", "gram_shift"),
            ("member", "epsilon", "polynomial_identity"),
        ],
    )
    def test_missing_evidence_fails(self, claim, cone, kind):
        for m in (BELL, SWAP, I4):
            assert not TensorVerdict(claim, cone, kind).verify(m)

    def test_malformed_evidence_fails(self):
        pt = self.SUITE["bell"].verdicts["pi"]
        assert not dataclasses.replace(pt, direction=vec((0, 1, -1))).verify(BELL)
        one = Matrix.identity(1)
        assert not TensorVerdict("member", "pi", "product_decomposition", products=((one, one),)).verify(I4)
        assert not TensorVerdict("member", "psd", "unknown_kind").verify(I4)
        assert not TensorVerdict("member", "epsilon", "gram_shift", shift=Fraction(0)).verify(Matrix.identity(3))
        # directions and squares have four entries, products are pairs of
        # 2x2 matrices, for every kind that carries them; a short square
        # or a lone factor used to raise, a long square to pass on its
        # first four entries
        bad_vectors = [vec(x) for x in ((1, 0, 0), (0, 1, -1), (1, 0, 0, 1, 5), (1, 0, 0, 1, 0), (0, 1, -1, 0, 0))]
        i2 = Matrix.identity(2)
        bad_products = [
            ((i2,),),
            ((i2, i2, i2),),
            ((i2, i2.data),),
            ((i2, None),),
            (i2,),
            ((Matrix.identity(1), Matrix.identity(4)),),
            ((i2, Matrix.from_rows([(1, 0, 0), (0, 1, 0)])),),
            ((i2, i2), (i2,)),
        ]
        checked = set()
        for rep in self.SUITE.values():
            for v in rep.verdicts.values():
                assert v.verify(rep.matrix)
                if v.direction is not None:
                    edits = [dataclasses.replace(v, direction=d) for d in bad_vectors]
                elif v.sos is not None:
                    edits = [dataclasses.replace(v, sos=(c,)) for c in bad_vectors]
                    edits += [dataclasses.replace(v, sos=v.sos + (c,)) for c in bad_vectors]
                elif v.products is not None:
                    edits = [dataclasses.replace(v, products=p) for p in bad_products]
                else:
                    continue
                checked.add(v.kind)
                for bad in edits:
                    assert bad.verify(rep.matrix) is False
        assert checked == {
            "negative_direction",
            "partial_transpose_witness",
            "psd_superset",
            "polynomial_identity",
            "product_decomposition",
        }
        assert TensorVerdict("member", "epsilon", "polynomial_identity", sos=(vec((1, 0, 0)),)).verify(SWAP) is False
        assert TensorVerdict("member", "epsilon", "polynomial_identity", sos=(vec((1, 0, 0, 1, 5)),)).verify(SWAP) is False
        assert TensorVerdict("member", "pi", "product_decomposition", products=((i2,),)).verify(I4) is False
        # a shift or value that is no exact rational proves nothing: a bad
        # string used to raise TypeError, a float value to take part in the
        # decision; a string that is a rational is read as one
        ev = block_positive(BELL).evidence
        assert dataclasses.replace(ev, shift=str(ev.shift)).verify(BELL)
        neg = self.SUITE["swap"].verdicts["psd"]
        assert dataclasses.replace(neg, value=str(neg.value)).verify(SWAP)
        for bad in ("x", "1/0", float(ev.shift)):
            assert dataclasses.replace(ev, shift=bad).verify(BELL) is False
        for bad in ("x", "1/0", float(neg.value)):
            assert dataclasses.replace(neg, value=bad).verify(SWAP) is False
        assert TensorVerdict("member", "epsilon", "gram_shift", shift="1/2").verify(SWAP) is False

    def test_every_evidence_edit_agrees_with_an_oracle(self):
        # every suite verdict, and the Gram shifts block_positive finds for
        # sum c c^T + t R over seeded squares c and half-integers t
        suite = [(v, rep.matrix) for rep in self.SUITE.values() for v in rep.verdicts.values()]
        cases = list(suite)
        r = rng(4133)
        for _ in range(40):
            squares = [rand_vec(r, 4) for _ in range(r.randint(1, 3))]
            t = Fraction(r.randint(-12, 12), 2)
            m = Matrix.from_rows(
                [[sum(c[i] * c[j] for c in squares) + t * SEGRE_RELATION.data[i][j] for j in range(4)]
                 for i in range(4)]
            )
            rep = block_positive(m)
            assert rep.verdict == "certified_member"
            cases.append((rep.evidence, m))
        seen = Counter()
        for v, m in cases:
            assert v.verify(m) and evidence_oracle(v, m)
            for edited, em in evidence_edits(v, m):
                want = evidence_oracle(edited, em)
                assert edited.verify(em) is want, (edited, em)
                seen[(edited.kind, want)] += 1
        # 298 edits by (kind, the oracle's verdict), verify agreeing on each:
        # 242 make the claim false
        assert seen == {
            ("psd_factorization", True): 26,
            ("psd_factorization", False): 21,
            ("negative_direction", True): 1,
            ("negative_direction", False): 15,
            ("partial_transpose_witness", True): 1,
            ("partial_transpose_witness", False): 15,
            ("psd_superset", True): 1,
            ("psd_superset", False): 15,
            ("product_decomposition", False): 17,
            ("gram_shift", True): 23,
            ("gram_shift", False): 91,
            ("polynomial_identity", True): 4,
            ("polynomial_identity", False): 68,
        }
        # each suite direction on each suite matrix, with its value there:
        # a value that is not negative proves nothing
        moved = Counter()
        for v, _ in suite:
            for m in (BELL, SWAP, I4) if v.direction is not None else ():
                w = blockwise_transpose(m) if v.kind == "partial_transpose_witness" else m
                there = dataclasses.replace(v, value=fraction_dot(v.direction, fraction_apply(w, v.direction)))
                want = evidence_oracle(there, m)
                assert there.verify(m) is want
                moved[want] += 1
        assert moved == {True: 3, False: 6}


class TestPartialTranspose:
    def test_involution_and_bell_swap(self):
        assert partial_transpose(BELL).data == SWAP.data
        assert partial_transpose(SWAP).data == BELL.data
        r = rng(31)
        for _ in range(10):
            rows = [[rand_frac(r) for _ in range(4)] for _ in range(4)]
            for i in range(4):
                for j in range(i):
                    rows[i][j] = rows[j][i]
            m = Matrix.from_rows(rows)
            assert partial_transpose(partial_transpose(m)).data == m.data

    def test_requires_symmetry(self):
        with pytest.raises(InputError):
            partial_transpose(Matrix.from_rows([[0] * 4, [1] + [0] * 3, [0] * 4, [0] * 4]))


class TestBlockForms:
    def test_segre_relation_vanishes_on_simple_tensors(self):
        assert biquadratic_form(SEGRE_RELATION) == {}
        r = rng(37)
        for _ in range(10):
            x = rand_vec(r, 2)
            y = rand_vec(r, 2)
            z = kron_vec(x, y)
            assert dot(z, SEGRE_RELATION.apply(z)) == 0

    def test_swap_is_inner_product_squared(self):
        assert sos_matches(SWAP, (vec((1, 0, 0, 1)),))
        # Bell differs from Swap by the Segre relation only, so its block
        # form is the same square; the identity matrix genuinely differs
        assert sos_matches(BELL, (vec((1, 0, 0, 1)),))
        assert not sos_matches(I4, (vec((1, 0, 0, 1)),))

    def test_sos_matches_agrees_with_the_polynomial_engine(self):
        # true cases: sum c c^T + t R over 0-3 squares c; false ones: the
        # same with one entry and its mirror moved (never a multiple of R),
        # and a random symmetric matrix
        r = rng(4111)
        seen = Counter()
        for _ in range(300):
            squares = tuple(rand_vec(r, 4) for _ in range(r.randint(0, 3)))
            t = rand_frac(r)
            shifted = [
                [sum((c[i] * c[j] for c in squares), Fraction(0)) + t * SEGRE_RELATION.data[i][j] for j in range(4)]
                for i in range(4)
            ]
            moved = [list(row) for row in shifted]
            i, j = r.randint(0, 3), r.randint(0, 3)
            moved[i][j] = moved[j][i] = moved[i][j] + rand_frac(r, 1, 4)
            upper = [[rand_frac(r) for _ in range(4)] for _ in range(4)]
            noise = [[upper[min(i, j)][max(i, j)] for j in range(4)] for i in range(4)]
            for rows, expected in ((shifted, True), (moved, False), (noise, None)):
                m = Matrix.from_rows(rows)
                want = biquadratic_form(m) == sum_of_bilinear_squares(squares)
                assert expected in (None, want)
                assert sos_matches(m, squares) == want
                seen[want] += 1
        assert seen[True] == 300 and seen[False] == 600

    def test_the_identities_behind_the_direction_and_shift_kinds(self):
        # TensorVerdict's docstring proves these once for every d, where a
        # check per verdict used to run them: dd^T and its partial
        # transpose have the block form (d . (x (x) y))^2, and the Segre
        # relation's is 0, so a Gram shift leaves the block form as it is
        assert biquadratic_form(SEGRE_RELATION) == {}
        r = rng(4127)
        for _ in range(200):
            d, t = rand_vec(r, 4), rand_frac(r)
            outer = Matrix.from_rows([[a * b for b in d] for a in d])
            square = sum_of_bilinear_squares((d,))
            assert biquadratic_form(outer) == square
            assert biquadratic_form(blockwise_transpose(outer)) == square
            shifted = [[x + t * rel for x, rel in zip(row, rels)] for row, rels in zip(outer.data, SEGRE_RELATION.data)]
            assert biquadratic_form(Matrix.from_rows(shifted)) == square

    def test_identity_is_sum_of_four_squares(self):
        squares = tuple(
            vec(tuple(1 if i == k else 0 for i in range(4))) for k in range(4)
        )
        assert sos_matches(I4, squares)


class TestPsdExampleSuite:
    def test_expected_verdicts(self):
        suite = {rep.label: rep for rep in psd_example_suite()}
        assert set(suite) == {"bell", "swap", "identity"}
        claims = {
            label: {cone: v.claim for cone, v in rep.verdicts.items()}
            for label, rep in suite.items()
        }
        assert claims["bell"] == {"psd": "member", "pi": "non_member", "epsilon": "member"}
        assert claims["swap"] == {"psd": "non_member", "pi": "non_member", "epsilon": "member"}
        assert claims["identity"] == {"psd": "member", "pi": "member", "epsilon": "member"}
        for rep in suite.values():
            assert rep.verify()

    def test_one_ldlt_per_matrix(self, monkeypatch):
        # Bell's epsilon verdict is a sum of squares, so its one LDL^T is
        # the psd verdict's
        calls = []
        original = aoulab.psd_examples.ldlt_psd
        monkeypatch.setattr(aoulab.psd_examples, "ldlt_psd", lambda m: calls.append(m.data) or original(m))
        psd_example_suite()
        i2 = Matrix.identity(2).data
        assert Counter(calls) == {SWAP.data: 1, BELL.data: 1, I4.data: 1, i2: 2}

    def test_bell_witness_values(self):
        suite = {rep.label: rep for rep in psd_example_suite()}
        v = suite["bell"].verdicts["pi"]
        assert tuple(v.direction) == (0, 1, -1, 0)
        assert v.value == -2
        w = suite["swap"].verdicts["psd"]
        assert w.value == dot(w.direction, SWAP.apply(w.direction))
        assert w.value == -2

    def test_tampered_verdicts_fail(self):
        suite = {rep.label: rep for rep in psd_example_suite()}
        v = suite["bell"].verdicts["pi"]
        assert not dataclasses.replace(v, value=Fraction(-1)).verify(BELL)
        assert not v.verify(SWAP)
        assert not suite["swap"].verdicts["epsilon"].verify(I4)

    def test_block_positivity_decisions(self):
        swap = block_positive(SWAP)
        assert swap.verdict == "certified_member"
        assert swap.evidence.shift == -2
        bell = block_positive(BELL)
        assert bell.verdict == "certified_member"
        assert bell.evidence.shift == 0
        assert block_positive(I4).verdict == "certified_member"
        neg = block_positive(Matrix.from_rows(
            [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]
        ))
        assert neg.verdict == "certified_non_member"
        x, y, value = neg.counterexample
        z = kron_vec(x, y)
        m = Matrix.from_rows([(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)])
        assert dot(z, m.apply(z)) == value < 0

    def test_negative_diagonal_skips_every_shift(self, monkeypatch):
        # R's diagonal is zero, so no Gram shift mends a negative diagonal
        # entry: no LDL^T runs, and the grid search gives the Fraction
        # scan's counterexample
        calls = []
        original = aoulab.psd_examples.ldlt_psd
        monkeypatch.setattr(aoulab.psd_examples, "ldlt_psd", lambda m: calls.append(m) or original(m))
        r = rng(31)
        matrices = [Matrix.from_rows([(-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])]
        for _ in range(6):
            upper = {(i, j): rand_frac(r) for i in range(4) for j in range(i, 4)}
            i = r.randrange(4)
            upper[i, i] = -abs(upper[i, i]) - 1
            matrices.append(Matrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(4)] for i in range(4)]))
        for m in matrices:
            rep = block_positive(m)
            assert rep.verdict == "certified_non_member"
            assert rep.counterexample == grid_counterexample(m)
        assert calls == []

    def test_zero_diagonal_row_that_no_shift_zeroes_skips_every_shift(self, monkeypatch):
        # m_00 = 0 but m_01 = 1, and R_01 = 0: no shift zeroes row 0 of
        # m + t R, as a PSD matrix with a zero diagonal entry needs, so no
        # LDL^T runs (all 67 shifts were tried before the filter)
        calls = []
        original = aoulab.psd_examples.ldlt_psd
        monkeypatch.setattr(aoulab.psd_examples, "ldlt_psd", lambda m: calls.append(m) or original(m))
        m = Matrix.from_rows([(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        rep = block_positive(m)
        assert calls == []
        assert (rep.verdict, rep.evidence, rep.counterexample) == unfiltered_block_positive(m)
        assert rep.verdict == "certified_non_member" and rep.counterexample == grid_counterexample(m)

    def test_zero_diagonal_filter_agrees_with_the_unfiltered_search(self, monkeypatch):
        # seeded symmetric 4x4 matrices with one or two zero diagonal
        # entries, half of those rows left with only their R entry, so that
        # one shift zeroes them: the same verdict, shift and counterexample
        # as trying every shift, with at most one LDL^T per matrix
        calls = []
        original = aoulab.psd_examples.ldlt_psd
        monkeypatch.setattr(aoulab.psd_examples, "ldlt_psd", lambda m: calls.append(m) or original(m))
        r = rng(4099)
        seen = Counter()
        for _ in range(24):
            upper = {(i, j): Fraction(r.randint(-3, 3), r.choice((1, 2))) for i in range(4) for j in range(i, 4)}
            for i in range(4):
                upper[i, i] = Fraction(r.randint(2, 9))
            for i in r.sample(range(4), r.randint(1, 2)):
                upper[i, i] = Fraction(0)
                if r.random() < 0.5:
                    for j in range(4):
                        if j != 3 - i:
                            upper[min(i, j), max(i, j)] = Fraction(0)
            m = Matrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(4)] for i in range(4)])
            calls.clear()
            rep = block_positive(m)
            want = unfiltered_block_positive(m)
            assert (rep.verdict, rep.evidence and rep.evidence.shift, rep.counterexample) == want
            assert len(calls) <= 1
            seen[rep.verdict] += 1
        assert seen["certified_member"] >= 4 and seen["certified_non_member"] >= 4, seen

    def test_block_positive_can_be_undecided(self):
        # no shift tried makes m + t R PSD and no grid tensor is negative
        m = Matrix.from_rows([(4, 1, 3, -1), (1, 2, 3, 1), (3, 3, 5, 3), (-1, 1, 3, 2)])
        rep = block_positive(m)
        assert (rep.verdict, rep.evidence, rep.counterexample) == ("undecided", None, None)
        assert grid_counterexample(m) is None

    def test_swap_minus_two_relations_is_bell(self):
        shifted = Matrix.from_rows(
            [
                [SWAP.data[i][j] - 2 * SEGRE_RELATION.data[i][j] for j in range(4)]
                for i in range(4)
            ]
        )
        assert shifted.data == BELL.data
