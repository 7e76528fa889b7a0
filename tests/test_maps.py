"""Map layer: classification, ideals, quotients, extension, perturbation."""

import time
from fractions import Fraction

import pytest
from conftest import (
    archimedeanized_quotient,
    auerbach_oracle,
    ball_scan_spaces,
    extension_lp_rows,
    fraction_apply,
    fraction_dot,
    fraction_rank,
    fraction_solve,
    full_ball_auerbach_scan,
    full_ball_dual_norm,
    full_ball_operator_norm,
    kernel_quotient_is_order_quotient,
    lp_interval_min,
    lp_is_isometry,
    lp_member,
    lp_min_l1_measure,
    meet_is_order_ideal,
    no_swap_raises_det,
    rand_frac,
    rand_vec,
    random_unital_into_linf,
    rng,
)

import aoulab.cones
import aoulab.maps
import aoulab.spaces
from aoulab.cones import Cone, contains, extreme_rays, member, same_cone
from aoulab.errors import (
    InputError,
    InvariantViolation,
    PolyhedralRequired,
    ShapeError,
    StrictConeError,
)
from aoulab.linalg import Matrix, dot, vec, vscale, vsub
from aoulab.lp import solve_lp
from aoulab.maps import (
    UnitalMap,
    archimedean_quotient,
    auerbach_basis,
    check_map,
    dual_norm,
    extend_unital_positive,
    interval_min,
    is_order_ideal,
    is_order_quotient,
    norm_bound_equiv,
    operator_norm,
    pert,
    perturb,
)
from aoulab.serialize import to_dict
from aoulab.spaces import (
    AOUSpace,
    dual_augmented,
    extreme_states,
    kadison_embed,
    lin_space,
    linf,
    order_norm,
    sym_space,
    unit_ball_vertices,
    validate,
)
from aoulab.tensors import EPSILON, tensor_space

L1, L2, L3 = linf(1), linf(2), linf(3)
AVG = UnitalMap(L2, L1, Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2))]))
SKEW = UnitalMap(L2, L2, Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2)), (0, 1)]))
SYMMETRIC = UnitalMap(
    L2, L2, Matrix.from_rows([(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(3, 2))])
)


def group_merge_maps(r, count):
    """Group-merge quotients linf(n) -> linf(m), n = 2..4: rows average
    disjoint blocks of coordinates; always order quotients."""
    maps = []
    for _ in range(count):
        n = r.randint(2, 4)
        blocks = [[] for _ in range(r.randint(1, n - 1) if n > 1 else 1)]
        for i in range(n):
            blocks[r.randrange(len(blocks))].append(i)
        blocks = [b for b in blocks if b]
        rows = []
        for b in blocks:
            row = [Fraction(0)] * n
            for i in b:
                row[i] = Fraction(1, len(b))
            rows.append(tuple(row))
        maps.append(UnitalMap(linf(n), linf(len(blocks)), Matrix.from_rows(rows)))
    return maps


# the half-plane x1 >= 0 and the wedge x1 >= |x2|, each with a line in its cone
HALF_PLANE = AOUSpace(2, Cone.from_inequalities([(1, 0)]), (1, 0), label="half-plane")
WEDGE = AOUSpace(3, Cone.from_inequalities([(1, 1, 0), (1, -1, 0)]), (1, 0, 0), label="wedge")


def in_span(basis, v):
    basis = [b for b in basis if any(b)]
    if not basis:
        return not any(v)
    return fraction_solve(Matrix.from_rows(basis).transpose(), v) is not None


class TestCheckMap:
    def test_identity(self):
        rep = check_map(UnitalMap(L2, L2, Matrix.identity(2)))
        assert (rep.unital, rep.positive, rep.order_embedding, rep.isometry) == (
            True,
            True,
            True,
            True,
        )

    def test_positive_into_a_psd_target(self):
        # a sym_psd target has no H-rep: the image of each source generator
        # takes the PSD test; both maps send (1, 1) to the identity
        target = AOUSpace(3, Cone.sym_psd(2), (1, 0, 1))
        diagonal = UnitalMap(L2, target, Matrix.from_rows([(1, 0), (0, 0), (0, 1)]))
        skew = UnitalMap(L2, target, Matrix.from_rows([(1, 0), (1, -1), (0, 1)]))
        assert diagonal.unital and skew.unital
        assert diagonal.positive and not skew.positive

    def test_kadison_of_lin_space_1(self):
        rep = check_map(kadison_embed(lin_space(1)))
        assert rep.unital and rep.positive and rep.order_embedding and rep.isometry

    def test_averaging_is_no_embedding(self):
        rep = check_map(AVG)
        assert rep.unital and rep.positive
        assert not rep.order_embedding and not rep.isometry

    def test_non_unital_flagged(self):
        m = UnitalMap(L2, L2, Matrix.from_rows([(2, 0), (0, 1)]))
        assert not check_map(m).unital

    def test_embedding_iff_isometry_randomized(self):
        # check_map reads a unital map's isometry flag off the embedding
        # test; the dual-ball test must agree on unital maps, positive or not
        r = rng(404)
        seen = set()
        for sp in (L2, L3, lin_space(1), lin_space(2)):
            states = extreme_states(sp)
            for trial in range(26):
                k = r.randint(1, 3)
                if trial % 2:
                    m = random_unital_into_linf(r, sp, k)
                else:
                    # state mixtures, and every state when embedding
                    rows = [] if trial % 4 else list(states)
                    for _ in range(k):
                        w = [Fraction(r.randint(0, 3)) for _ in states]
                        if not any(w):
                            w[0] = Fraction(1)
                        mix = [sum(c * s[i] for c, s in zip(w, states)) for i in range(sp.dim)]
                        rows.append(vec([x / sum(w) for x in mix]))
                    m = UnitalMap(sp, linf(len(rows)), Matrix.from_rows(rows))
                rep = check_map(m)
                assert rep.unital
                assert rep.isometry == rep.order_embedding == lp_is_isometry(m)
                seen.add((rep.positive, rep.isometry))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_embedding_takes_one_inclusion_past_positivity(self, monkeypatch):
        # the pull-back contains the source exactly when the map is
        # positive, so one contains call decides a positive map's embedding
        # flag and none a map that is not positive; a PSD target has no
        # pull-back cone and stays refused
        calls = []

        def counted(outer, inner):
            calls.append((outer, inner))
            return contains(outer, inner)

        monkeypatch.setattr(aoulab.maps, "contains", counted)
        identity = UnitalMap(L2, L2, Matrix.identity(2))
        for m, flags in ((identity, (True, True)), (AVG, (True, False)), (SYMMETRIC, (False, False))):
            calls.clear()
            rep = check_map(m)
            assert (rep.positive, rep.order_embedding) == flags
            assert [outer for outer, _ in calls] == ([m.source.cone] if rep.positive else [])
        psd = UnitalMap(L1, sym_space(2), Matrix.from_rows([(1,), (0,), (1,)]))
        with pytest.raises(PolyhedralRequired):
            check_map(psd)

    def test_isometry_of_non_unital_maps(self):
        # -id keeps every norm but reverses the order; 2 id keeps the order
        # but doubles every norm
        for sp in (L2, lin_space(1), lin_space(2)):
            eye = Matrix.identity(sp.dim).data
            rep = check_map(UnitalMap(sp, sp, Matrix.from_rows([[-x for x in row] for row in eye])))
            assert not rep.unital and not rep.order_embedding and rep.isometry
            rep = check_map(UnitalMap(sp, sp, Matrix.from_rows([[2 * x for x in row] for row in eye])))
            assert not rep.unital and rep.order_embedding and not rep.isometry
        r = rng(405)
        for _ in range(20):
            sp = r.choice((L2, lin_space(1)))
            rows = [rand_vec(r, sp.dim, lo=-2, hi=2, den=2) for _ in range(2)]
            m = UnitalMap(sp, L2, Matrix.from_rows(rows))
            if not m.unital:
                assert check_map(m).isometry == lp_is_isometry(m)

    def test_non_unital_isometry_equality_runs_one_dd(self, monkeypatch, dd_calls):
        # the cone equality between the two lifted hulls runs the DD of
        # one hull only, whether the map is an isometry or not
        real, runs = aoulab.maps.same_cone, []

        def counted(a, b):
            before = len(dd_calls)
            out = real(a, b)
            runs.append((out, len(dd_calls) - before))
            return out

        monkeypatch.setattr(aoulab.maps, "same_cone", counted)
        for sp in (L2, lin_space(1), lin_space(2)):
            eye = Matrix.identity(sp.dim).data
            for k in (-1, 2):
                rep = check_map(UnitalMap(sp, sp, Matrix.from_rows([[k * x for x in row] for row in eye])))
                assert not rep.unital and rep.isometry == (k == -1)
        assert runs == [(True, 1), (False, 1)] * 3

    def test_isometry_test_solves_no_lp(self, monkeypatch):
        # the dual-ball test is one cone equality: no LP, no dual norm
        def forbidden(*args, **kwargs):
            raise AssertionError("LP route called")

        # cones imports no LP at all (tests/test_source.py)
        monkeypatch.setattr(aoulab.maps, "solve_lp", forbidden)
        monkeypatch.setattr(aoulab.maps, "dual_norm", forbidden)
        for sp in (L2, lin_space(1), lin_space(2)):
            eye = Matrix.identity(sp.dim).data
            flip = UnitalMap(sp, sp, Matrix.from_rows([[-x for x in row] for row in eye]))
            double = UnitalMap(sp, sp, Matrix.from_rows([[2 * x for x in row] for row in eye]))
            assert aoulab.maps._is_isometry(flip) and not aoulab.maps._is_isometry(double)
        drop = UnitalMap(L3, L2, Matrix.from_rows([(1, 0, 0), (0, 1, 0)]))
        assert not aoulab.maps._is_isometry(drop)
        assert aoulab.maps._is_isometry(kadison_embed(lin_space(2)))

    def test_positive_against_membership_lps_randomized(self):
        r = rng(707)
        spaces = (L2, L3, lin_space(1), lin_space(2))
        verdicts = set()
        for _ in range(40):
            src, tgt = r.choice(spaces), r.choice(spaces)
            rows = [[Fraction(r.randint(-1, 4), r.randint(1, 2)) for _ in range(src.dim)] for _ in range(tgt.dim)]
            m = UnitalMap(src, tgt, Matrix.from_rows(rows))
            want = all(
                member(tgt.cone, m.apply(g)).verdict == "member" for g in src.cone.vrep()
            )
            assert m.positive == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_flags_are_computed_once(self, monkeypatch):
        calls = []
        apply, int_hrep = Matrix.apply, aoulab.maps.int_hrep
        monkeypatch.setattr(Matrix, "apply", lambda m, v: calls.append("apply") or apply(m, v))
        monkeypatch.setattr(aoulab.maps, "int_hrep", lambda cone: calls.append("int_hrep") or int_hrep(cone))
        m = UnitalMap(L2, L1, Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2))]))
        assert m.unital and m.positive
        assert "apply" in calls and calls.count("int_hrep") == 1
        calls.clear()
        assert m.unital and m.positive
        assert calls == []

    def test_positive_into_strict_cone_rejected(self):
        strict = AOUSpace(2, Cone.from_inequalities([(1, 0), (0, 1)], strict=[True, False]), (1, 1))
        with pytest.raises(StrictConeError):
            UnitalMap(L2, strict, Matrix.identity(2)).positive


def assert_witness(space, basis, witness):
    # 0 <= q <= p, p in J and q not, by membership LPs
    p, q = witness
    assert in_span(basis, p) and not in_span(basis, q)
    assert lp_member(space.cone, q).verdict == "member"
    assert lp_member(space.cone, vsub(p, q)).verdict == "member"


def assert_same_quotient(space, basis):
    # the quotient and its map serialize as the Archimedeanization oracle's
    got, want = archimedean_quotient(space, basis), archimedeanized_quotient(space, basis)
    assert [to_dict(x) for x in got] == [to_dict(x) for x in want]


class TestOrderIdeal:
    def test_zero_ideal(self):
        for basis in ([], [(0, 0)]):
            assert is_order_ideal(L2, basis).is_ideal
            assert_same_quotient(L2, basis)

    def test_diagonal_line_in_linf3(self):
        assert is_order_ideal(L3, [(1, -1, 0)]).is_ideal

    def test_coordinate_axis_in_linf2(self):
        assert is_order_ideal(L2, [(1, 0)]).is_ideal

    def test_diagonal_in_linf2_fails_with_witness(self):
        rep = is_order_ideal(L2, [(1, 1)])
        assert not rep.is_ideal
        p, q = rep.witness
        # 0 <= q <= p, p in the span, q outside it
        assert member(L2.cone, q).verdict == "member"
        assert member(L2.cone, vsub(p, q)).verdict == "member"
        assert p[0] == p[1]
        assert q[0] != q[1]

    def test_full_space_is_ideal(self):
        assert is_order_ideal(L2, [(1, 0), (0, 1)]).is_ideal

    def test_witnesses_on_random_subspaces(self):
        # 0 <= q <= p with p in J and q not, checked by membership LPs, and
        # every verdict the meet-cone oracle's; an ideal that leaves out the
        # unit has the oracle's quotient. Bases may repeat a vector, hold a
        # multiple of one, or hold zero
        r = rng(6121)
        spaces = [linf(n) for n in (2, 3, 4)] + [lin_space(n) for n in (1, 2, 3)] + [HALF_PLANE, WEDGE]
        verdicts = []
        for _ in range(120):
            sp = r.choice(spaces)
            basis = [
                tuple(r.randint(-1, 1) for _ in range(sp.dim))
                for _ in range(r.randint(1, sp.dim - 1))
            ]
            extra = r.choice(("duplicate", "parallel", "zero", None))
            if extra == "duplicate":
                basis.append(basis[0])
            elif extra == "parallel":
                basis.append(tuple(-2 * x for x in basis[-1]))
            elif extra == "zero":
                basis.insert(r.randrange(len(basis) + 1), (0,) * sp.dim)
            rep = is_order_ideal(sp, basis)
            verdicts.append(rep.is_ideal)
            assert rep.is_ideal == meet_is_order_ideal(sp, basis).is_ideal
            if rep.is_ideal:
                if not in_span(basis, sp.unit):
                    assert_same_quotient(sp, basis)
                continue
            assert_witness(sp, basis, rep.witness)
        # a subspace that meets the cone only in 0 is an ideal
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    def test_proper_subspace_holding_the_unit(self):
        basis = [(1, 1, 1), (1, 0, 0)]
        rep = is_order_ideal(L3, basis)
        assert not rep.is_ideal and not meet_is_order_ideal(L3, basis).is_ideal
        assert_witness(L3, basis, rep.witness)
        with pytest.raises(InputError, match="not an order ideal") as exc:
            archimedean_quotient(L3, basis)
        assert exc.value.certificate == rep.witness

    def test_redundant_basis_vectors(self):
        # duplicate, parallel and zero vectors leave J and its quotient as they are
        for sp, line in ((L3, (1, -1, 0)), (WEDGE, (0, 0, 1))):
            redundant = [line, (0,) * sp.dim, line, vscale(-2, line)]
            got = [to_dict(x) for x in archimedean_quotient(sp, redundant)]
            assert got == [to_dict(x) for x in archimedean_quotient(sp, [line])]
            assert_same_quotient(sp, redundant)

    def test_one_dd_per_quotient(self, dd_calls):
        # the image cone's DD decides the ideal and carries the quotient; a
        # rejected kernel adds the DD of its lineality lift, over which
        # member decomposes the line behind the witness
        archimedean_quotient(linf(4), [(1, 0, 0, 0), (0, 0, 1, 0)])
        assert len(dd_calls) == 1
        dd_calls.clear()
        with pytest.raises(InputError, match="not an order ideal"):
            archimedean_quotient(linf(4), [(1, 1, 0, 0)])
        assert len(dd_calls) == 2


class TestArchimedeanQuotient:
    def test_zero_ideal_is_isomorphic_copy(self):
        sp, q = archimedean_quotient(L2, [])
        assert sp.dim == 2 and q.matrix.data == Matrix.identity(2).data

    def test_linf3_by_diagonal_line(self):
        sp, q = archimedean_quotient(L3, [(1, -1, 0)])
        assert sp.dim == 2
        assert q.unital and q.positive
        from aoulab.spaces import validate

        rep = validate(sp)
        assert rep.order_unit and rep.archimedean and rep.pointed

    def test_linf2_by_axis_is_linf1(self):
        sp, q = archimedean_quotient(L2, [(1, 0)])
        assert sp.dim == 1
        assert order_norm(sp, sp.unit) == 1

    def test_non_ideal_rejected(self):
        with pytest.raises(InputError):
            archimedean_quotient(L2, [(1, 1)])

    def test_the_quotient_matrix_is_put_in_integers_once(self, monkeypatch):
        # image_cone and the quotient map's positivity read one integer
        # form of q, cached on the matrix
        sizes = []
        for mod in (aoulab.cones, aoulab.maps):
            original = mod.common_den
            monkeypatch.setattr(mod, "common_den", lambda a, f=original: sizes.append(len(a)) or f(a))
        sp, q = archimedean_quotient(L3, [(1, 0, 0)])
        assert sizes == [6] and q.positive and sizes == [6]

    def test_quotient_check_against_fraction_images_randomized(self):
        # the checker compares integer rows at their scales; the oracle maps
        # vrep() in Fractions. Orthants with scaled generators, and the
        # quotient with one target generator kept, doubled or cut to a third
        r = rng(2727)
        seen = set()
        for _ in range(30):
            n = r.randint(2, 4)
            gens = [[Fraction(r.randint(1, 3), r.randint(1, 3)) * (i == j) for j in range(n)] for i in range(n)]
            sp = AOUSpace(n, Cone.from_generators(gens), (1,) * n)
            basis = [[int(i == j) for j in range(n)] for i in r.sample(range(n), r.randint(1, n - 1))]
            quotient, qmap = archimedean_quotient(sp, basis)
            tgt = list(quotient.cone.vrep())
            i = r.randrange(len(tgt))
            for k in (1, 2, Fraction(1, 3)):
                cone = Cone.from_generators(tgt[:i] + [vscale(k, tgt[i])] + tgt[i + 1 :])
                m = UnitalMap(sp, AOUSpace(quotient.dim, cone, quotient.unit), qmap.matrix)
                want = set(cone.vrep()) <= {fraction_apply(qmap.matrix, g) for g in sp.cone.vrep()}
                assert aoulab.maps._quotient_holds(basis, m) == want == (k == 1)
                seen.add(want)
        assert seen == {True, False}

    def test_ideal_containing_unit_rejected(self):
        # J = V is an ideal whose quotient collapses
        with pytest.raises(InputError, match="contains the unit"):
            archimedean_quotient(L2, [(1, 0), (0, 1)])


class TestOrderQuotient:
    # a lift v >= 0 with m(v) = w gives v + eps e >= 0 for every eps > 0;
    # a few eps are checked
    EPS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))

    def test_identity(self):
        rep = is_order_quotient(UnitalMap(L2, L2, Matrix.identity(2)))
        assert rep.is_quotient

    def test_averaging_map(self):
        rep = is_order_quotient(AVG)
        assert rep.is_quotient
        # every lift v satisfies m(v) = w and v + eps*e in the cone
        gens = AVG.target.cone.vrep()
        assert len(rep.lifts) == len(gens)
        for v, w in zip(rep.lifts, gens):
            assert AVG.apply(v) == vec(w)
            for eps in self.EPS:
                shifted = tuple(x + eps * u for x, u in zip(v, AVG.source.unit))
                assert member(AVG.source.cone, shifted).verdict == "member"

    def test_positive_bijection_that_skews_the_cone(self):
        m = SKEW
        assert m.unital and m.positive
        rep = is_order_quotient(m)
        assert not rep.is_quotient
        assert rep.witness is not None and rep.separating is not None
        # the separating functional certifies the missing generator
        img = [m.apply(g) for g in L2.cone.vrep()]
        assert all(dot(rep.separating, x) >= 0 for x in img)
        assert dot(rep.separating, rep.witness) < 0

    def test_non_surjective_rejected(self):
        m = UnitalMap(L1, L2, Matrix.from_rows([(1,), (1,)]))
        with pytest.raises(InputError):
            is_order_quotient(m)

    def test_norm_quotients_randomized(self):
        for m in group_merge_maps(rng(7321), 10):
            assert is_order_quotient(m).is_quotient
            assert kernel_quotient_is_order_quotient(m)

    def test_lifts_are_exact(self):
        # m v = w with v >= 0, so v + eps e >= 0 for every eps; dropping the
        # first coordinate of linf(3) sends the first source generator to
        # zero, ahead of the generators behind the image's
        drop = UnitalMap(L3, L2, Matrix.from_rows([(0, 1, 0), (0, 0, 1)]))
        for m in [drop, AVG] + group_merge_maps(rng(8117), 12):
            rep = is_order_quotient(m)
            assert rep.is_quotient
            gens = m.target.cone.vrep()
            assert len(rep.lifts) == len(gens)
            for v, w in zip(rep.lifts, gens):
                assert m.apply(v) == vec(w)
                assert lp_member(m.source.cone, v).verdict == "member"
                for eps in self.EPS:
                    shifted = tuple(x + eps * u for x, u in zip(v, m.source.unit))
                    assert lp_member(m.source.cone, shifted).verdict == "member"

    def test_agrees_with_kernel_quotient_route(self):
        skews = (
            SKEW,
            # a surjection with a kernel whose image cone misses both axes
            UnitalMap(
                L3,
                L2,
                Matrix.from_rows([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                                  (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))]),
            ),
        )
        for m in (UnitalMap(L2, L2, Matrix.identity(2)), AVG) + skews:
            assert is_order_quotient(m).is_quotient == kernel_quotient_is_order_quotient(m)
        assert [is_order_quotient(m).is_quotient for m in skews] == [False, False]


class TestExtension:
    def test_unit_line_extends_to_a_state(self):
        ext = extend_unital_positive(L2, [(1, 1)], [(1,)], L1)
        assert ext.unital and ext.positive

    def test_identity_through_full_basis(self):
        ext = extend_unital_positive(L2, [(1, 1), (1, -1)], [(1, 1), (1, -1)], L2)
        assert ext.matrix.data == Matrix.identity(2).data

    def test_partial_map_from_lin_space_2(self):
        ls2 = lin_space(2)
        ext = extend_unital_positive(ls2, [(1, 0, 0), (0, 1, 1)], [(1, 1), (2, -2)], L2)
        assert ext.unital and ext.positive
        assert ext.apply((0, 1, 1)) == vec((2, -2))

    def test_contraction_violation_infeasible(self):
        ls2 = lin_space(2)
        with pytest.raises(InputError) as ei:
            extend_unital_positive(ls2, [(1, 0, 0), (0, 1, 1)], [(1, 0, 0), (0, 3, 0)], ls2)
        assert ei.value.certificate is not None

    def test_unit_outside_subspace_rejected(self):
        with pytest.raises(InputError):
            extend_unital_positive(L2, [(1, 0)], [(1,)], L1)


class TestExtensionLP:
    @staticmethod
    def _cases():
        # a positive vector sent to a non-positive one: infeasible
        yield L3, [L3.unit, vec((1, 0, 0))], [L2.unit, vec((2, -1))], L2
        # the unit and b sent to the unit and s(b) e for a state s: feasible
        b = vec((0, 1, -1))
        for w2 in (L3, lin_space(2)):
            s = extreme_states(w2)[0]
            for v in (L2, L3, lin_space(1), lin_space(2)):
                yield w2, [w2.unit, b], [v.unit, tuple(dot(s, b) * x for x in v.unit)], v

    def test_rows_match_the_index_oracle(self, monkeypatch):
        posed = []

        def spy(obj, rows, rhs, senses, **kwargs):
            out = solve_lp(obj, rows, rhs, senses, **kwargs)
            posed.append(((list(rows), list(rhs), list(senses)), out))
            return out

        monkeypatch.setattr(aoulab.maps, "solve_lp", spy)
        feasible = []
        for w2, basis, vals, v in self._cases():
            oracle = extension_lp_rows(w2, basis, vals, v)
            try:
                ext = extend_unital_positive(w2, basis, vals, v)
            except InputError:
                ext = None
            feasible.append(ext is not None)
            system, out = posed.pop()
            assert system == oracle
            if ext is not None:
                n = w2.dim
                assert ext.matrix.data == tuple(out.primal[r * n : (r + 1) * n] for r in range(v.dim))
        assert feasible == [False] + [True] * 8 and not posed


class TestIntervalAndNormBound:
    def test_coordinate_functional(self):
        assert interval_min(L2, (1, 0)) == 0
        assert norm_bound_equiv(L2, (1, 0), 0)

    def test_boundary_tie(self):
        assert interval_min(L2, (1, -1)) == -1
        assert dual_norm(L2, (1, -1)) == 2
        assert norm_bound_equiv(L2, (1, -1), 1)

    def test_both_sides_fail(self):
        assert interval_min(L2, (1, -2)) == -2
        assert dual_norm(L2, (1, -2)) == 3
        assert not norm_bound_equiv(L2, (1, -2), 1)

    def test_float_eps_rejected(self):
        # a float must not take part in the verdict
        with pytest.raises(ShapeError):
            norm_bound_equiv(L2, (1, 1), 0.5)
        assert norm_bound_equiv(L2, (1, 1), "1/2")

    def test_interval_min_matches_lp(self):
        r = rng(31)
        spaces = [linf(n) for n in (1, 2, 3)] + [lin_space(n) for n in (1, 2, 3)]
        while len(spaces) < 10:
            # generators with first coordinate 1 span a pointed cone, and
            # their sum is interior once they span the space
            dim = r.randint(2, 4)
            gens = [(1,) + rand_vec(r, dim - 1) for _ in range(dim + 2)]
            if fraction_rank(Matrix.from_rows(gens)) == dim:
                unit = tuple(sum(g[i] for g in gens) for i in range(dim))
                spaces.append(AOUSpace(dim, Cone.from_generators(gens), unit))
        for sp in spaces:
            for _ in range(8):
                f = rand_vec(r, sp.dim)
                assert interval_min(sp, f) == lp_interval_min(sp, f)

    def test_interval_min_rejects_non_pointed_cone(self):
        # [0, e] holds the line spanned by (0, 1), as does the unit ball
        halfplane = AOUSpace(2, Cone.from_inequalities([(1, 0)]), (1, 0))
        for query in (interval_min, dual_norm):
            with pytest.raises(InputError):
                query(halfplane, (0, 1))

    def test_unit_that_is_no_order_unit_is_bad_input(self):
        # on a facet of the orthant and outside it; row (0, 1) is not
        # positive on either unit
        for unit in ((1, 0), (1, -1)):
            sp = AOUSpace(2, L2.cone, unit)
            queries = (
                lambda: interval_min(sp, (1, 0)),
                lambda: dual_norm(sp, (1, 0)),
                lambda: norm_bound_equiv(sp, (1, 0), 1),
                lambda: auerbach_basis(sp),
            )
            for query in queries:
                with pytest.raises(InputError) as exc:
                    query()
                assert exc.value.certificate == (0, 1)

    def test_biconditional_randomized(self):
        r = rng(19)
        spaces = [L2, L3, lin_space(1), lin_space(2)]
        for _ in range(120):
            sp = spaces[r.randrange(len(spaces))]
            f = rand_vec(r, sp.dim)
            eps = abs(rand_frac(r))
            norm_bound_equiv(sp, f, eps)  # raises if the two sides split
            # force boundary ties too
            tie = -interval_min(sp, f)
            if tie >= 0:
                assert norm_bound_equiv(sp, f, tie)


class TestOperatorNormAndAuerbach:
    def test_operator_norm_examples(self):
        t = Matrix.from_rows([(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(3, 2))])
        assert operator_norm(t, L2, L2) == 2
        assert operator_norm(AVG) == 1

    def test_auerbach_linf1(self):
        basis, duals = auerbach_basis(L1)
        assert basis == [vec((1,))] and duals == [vec((1,))]

    def test_auerbach_linf2(self):
        basis, duals = auerbach_basis(L2)
        assert basis == [vec((1, 1)), vec((1, -1))]
        assert duals == [vec((Fraction(1, 2), Fraction(1, 2))), vec((Fraction(1, 2), Fraction(-1, 2)))]

    def test_auerbach_identities_battery(self):
        for sp in (L3, lin_space(1), lin_space(2), dual_augmented(linf(1)), linf(5)):
            basis, duals = auerbach_basis(sp)
            assert len(basis) == sp.dim
            for i, (x, xd) in enumerate(zip(basis, duals)):
                assert order_norm(sp, x) == 1
                assert dual_norm(sp, xd) == 1
                for j, y in enumerate(basis):
                    assert dot(xd, y) == (1 if i == j else 0)

    def test_auerbach_answers_past_the_old_scan_caps(self):
        # the max-|det| scan refused all four: C(32, 6) = 906192 tuples for
        # linf(6), and dimensions 7 to 9 were past its cap
        epsilon = tensor_space(lin_space(2), lin_space(2), EPSILON).realized
        for sp in (linf(6), linf(7), lin_space(7), epsilon):
            start = time.perf_counter()
            basis, duals = auerbach_basis(sp)
            assert time.perf_counter() - start < 1
            assert aoulab.maps._auerbach_holds(sp, basis, duals)


def auerbach_edits(basis: list, duals: list):
    """Every edit of an Auerbach claim: each rational leaf of basis and
    duals moved by +-1/7, scaled by 8/7 and negated, each pair of
    neighbouring entries of a vector swapped, and each vector dropped."""
    for side, vectors in enumerate((basis, duals)):
        for i, v in enumerate(vectors):
            edited = []
            for k, x in enumerate(v):
                for y in (x + Fraction(1, 7), x - Fraction(1, 7), x * Fraction(8, 7), -x):
                    edited.append(v[:k] + (y,) + v[k + 1 :])
            for k in range(len(v) - 1):
                edited.append(v[:k] + (v[k + 1], v[k]) + v[k + 2 :])
            for w in edited + [None]:
                new = vectors[:i] + ([] if w is None else [w]) + vectors[i + 1 :]
                yield (new, duals) if side == 0 else (basis, new)


def test_auerbach_check_agrees_with_the_oracle_on_every_edit():
    # _auerbach_holds decides the claim exactly, so it must reject every
    # edit the oracle rejects and accept the rest; edits that leave the
    # claim as it was (a zero negated or scaled, equal entries swapped)
    # are not counted
    spaces = [linf(n) for n in range(1, 5)] + [lin_space(n) for n in range(1, 4)]
    spaces += ball_scan_spaces(rng(43))[12:] + ball_scan_spaces(rng(9))[12:]
    edits = rejected = 0
    for sp in spaces:
        basis, duals = auerbach_basis(sp)
        for b, d in auerbach_edits(basis, duals):
            if (b, d) == (basis, duals):
                continue
            verdict = auerbach_oracle(sp, b, d)
            assert aoulab.maps._auerbach_holds(sp, b, d) is verdict, (sp.label, b, d)
            edits += 1
            rejected += not verdict
    assert (edits, rejected) == (930, 930)


class TestBallHalfScans:
    # the symmetric scans read one vertex of each +- pair of the ball; the
    # full-ball oracles read every vertex
    SPACES = ball_scan_spaces(rng(43))

    def test_operator_norm_matches_full_ball(self):
        r = rng(47)
        for sp in self.SPACES:
            for target in (linf(2), sp):
                mat = Matrix.from_rows([rand_vec(r, sp.dim) for _ in range(target.dim)])
                assert operator_norm(mat, sp, target) == full_ball_operator_norm(mat, sp, target)

    def test_dual_norm_matches_full_ball(self):
        r = rng(53)
        for sp in self.SPACES:
            for _ in range(4):
                f = rand_vec(r, sp.dim)
                assert dual_norm(sp, f) == full_ball_dual_norm(sp, f)

    def test_auerbach_exchange_is_a_local_max_and_the_scan_on_the_workload(self):
        # every basis is an Auerbach system that no single swap of a ball
        # vertex improves; it is the full scan's first max-|det| tuple on
        # the spaces the benchmark's reports use, and may be another, equally
        # valid, elsewhere (ties and local maxima)
        for sp in self.SPACES:
            basis, duals = auerbach_basis(sp)
            assert auerbach_oracle(sp, basis, duals)
            assert no_swap_raises_det(unit_ball_vertices(sp), basis)
        for sp in (linf(2), linf(3), lin_space(1), lin_space(2), lin_space(3)):
            assert auerbach_basis(sp)[0] == full_ball_auerbach_scan(sp)

    def test_operator_norm_takes_one_norm_per_pair(self, monkeypatch):
        calls = []

        def counting(space, v):
            calls.append(v)
            return order_norm(space, v)

        monkeypatch.setattr(aoulab.maps, "order_norm", counting)
        r, sp = rng(59), lin_space(3)
        mat = Matrix.from_rows([rand_vec(r, 4) for _ in range(3)])
        operator_norm(mat, sp, L3)
        assert len(calls) == len(unit_ball_vertices(sp)) // 2 == 4


class TestPert:
    def test_positive_map_fixed(self):
        t = UnitalMap(L2, L2, Matrix.identity(2))
        assert pert(t).matrix.data == t.matrix.data

    def test_single_row_jordan_split(self):
        t = UnitalMap(L2, L1, Matrix.from_rows([(Fraction(3, 2), Fraction(-1, 2))]))
        s = pert(t)
        assert s.matrix.data == ((Fraction(1), Fraction(0)),)

    def test_symmetric_example(self):
        t = SYMMETRIC
        s = pert(t)
        assert s.matrix.data == Matrix.identity(2).data
        diff = Matrix.from_rows([vsub(t.matrix.row(i), s.matrix.row(i)) for i in range(2)])
        assert operator_norm(diff, L2, L2) == operator_norm(t) - 1 == 1

    def test_non_unital_rejected(self):
        with pytest.raises(InputError):
            pert(UnitalMap(L2, L2, Matrix.from_rows([(2, 0), (0, 1)])))

    def test_randomized_bound(self):
        r = rng(5150)
        spaces = [L2, lin_space(1), lin_space(2)]
        found = 0
        for _ in range(40):
            sp = spaces[r.randrange(len(spaces))]
            t = random_unital_into_linf(r, sp, r.randint(1, 3), spread=2)
            tn = operator_norm(t)
            if tn > 3:
                continue
            found += 1
            s = pert(t)
            assert s.unital and s.positive
            diff = Matrix.from_rows(
                [vsub(t.matrix.row(i), s.matrix.row(i)) for i in range(t.target.dim)]
            )
            assert operator_norm(diff, sp, t.target) <= tn - 1
            if tn == 1:
                assert s.matrix.data == t.matrix.data
        assert found >= 20


class TestMinimalMeasure:
    def test_matches_the_measure_lp(self):
        # the oracle's mass, f rebuilt exactly, and weight only on states
        # that are +-1, with the weight's sign, at a vertex maximizing f
        r = rng(3313)
        for sp in ball_scan_spaces(r):
            states = extreme_states(sp)
            verts = unit_ball_vertices(sp)
            for _ in range(3):
                f = rand_vec(r, sp.dim)
                mu = aoulab.maps._min_l1_measure(sp, f)
                oracle = lp_min_l1_measure(extreme_states(sp), f)
                assert len(mu) == len(states)
                assert sum(map(abs, mu)) == sum(map(abs, oracle))
                rebuilt = tuple(sum(m * s[i] for m, s in zip(mu, states)) for i in range(sp.dim))
                assert rebuilt == f
                top = max(dot(f, x) for x in verts)
                assert any(
                    all(m == 0 or dot(s, x) == (1 if m > 0 else -1) for m, s in zip(mu, states))
                    for x in verts
                    if dot(f, x) == top
                )

    def test_simplicial_measure_is_one_solve(self, monkeypatch):
        # dim states are a basis of the dual, so the measure is unique: the
        # LP's, found with no conic decomposition
        def refuse(*args):
            raise AssertionError("a decomposition was searched")

        monkeypatch.setattr(aoulab.maps, "member", refuse)
        r = rng(3319)
        spaces = [linf(n) for n in range(1, 5)] + [lin_space(1)]
        while len(spaces) < 10:
            dim = r.randint(2, 4)
            gens = [rand_vec(r, dim, den=10**20 + 39) for _ in range(dim)]
            if fraction_rank(Matrix.from_rows(gens)) == dim:
                weights = [Fraction(r.randint(1, 5), r.choice((1, 3, 10**20))) for _ in gens]
                unit = tuple(fraction_dot(weights, col) for col in zip(*gens))
                spaces.append(AOUSpace(dim, Cone.from_generators(gens), unit))
        for sp in spaces:
            for _ in range(3):
                f = rand_vec(r, sp.dim, den=7)
                assert aoulab.maps._min_l1_measure(sp, f) == lp_min_l1_measure(extreme_states(sp), f)

    def test_zero_functional_has_no_mass(self):
        assert aoulab.maps._min_l1_measure(lin_space(2), (0, 0, 0)) == [0] * 4


def test_positive_rows_match_cone_inclusion():
    # f >= 0 on the cone exactly when ||f||* = f(e), the test the pert and
    # perturb checks run; the map's positive flag, by cone inclusion, is
    # the oracle
    r = rng(3301)
    seen = {True: 0, False: 0}
    for sp in ball_scan_spaces(rng(43)):
        if sp.dim > 4:
            continue
        for k in (1, 2):
            t = random_unital_into_linf(r, sp, k, spread=1)
            assert aoulab.maps._positive_rows(sp, t.matrix.data) == t.positive
            seen[t.positive] += 1
    assert min(seen.values()) >= 3


class TestPerturb:
    def test_positive_map_fixed(self):
        t = UnitalMap(L2, L2, Matrix.identity(2))
        s, bound = perturb(t)
        assert s.matrix.data == t.matrix.data and bound == 0

    def test_symmetric_example(self):
        t = SYMMETRIC
        s, bound = perturb(t)
        assert bound == 2
        assert s.positive
        diff = Matrix.from_rows([vsub(t.matrix.row(i), s.matrix.row(i)) for i in range(2)])
        assert operator_norm(diff, L2, L2) <= 2

    def test_small_norm_excess(self):
        t = UnitalMap(
            lin_space(1), L2, Matrix.from_rows([(1, Fraction(5, 4)), (1, Fraction(-5, 4))])
        )
        assert operator_norm(t) == Fraction(5, 4)
        s, bound = perturb(t)
        assert bound == Fraction(1, 2)
        assert s.positive

    def test_randomized_positive_with_bound(self):
        r = rng(909)
        pairs = [(L2, lin_space(1)), (lin_space(1), L2), (L2, L3)]
        checked = 0
        for _ in range(30):
            src, tgt = pairs[r.randrange(len(pairs))]
            states = extreme_states(tgt)
            # random unital map: columns correct the unit defect through a state
            raw = Matrix.from_rows(
                [[rand_frac(r, -2, 2, 2) for _ in range(src.dim)] for _ in range(tgt.dim)]
            )
            defect = vsub(tgt.unit, raw.apply(src.unit))
            sigma = extreme_states(src)[0]
            rows = [
                tuple(raw.data[i][j] + defect[i] * sigma[j] for j in range(src.dim))
                for i in range(tgt.dim)
            ]
            t = UnitalMap(src, tgt, Matrix.from_rows(rows))
            tn = operator_norm(t)
            if tn > 3:
                continue
            checked += 1
            s, bound = perturb(t)
            assert s.positive
            assert bound == src.dim * (tn - 1)
            diff = Matrix.from_rows(
                [vsub(s.matrix.row(i), t.matrix.row(i)) for i in range(tgt.dim)]
            )
            assert operator_norm(diff, src, tgt) <= bound
        assert checked >= 10


def matrix_diff(t, s):
    return Matrix.from_rows(map(vsub, t.matrix.data, s.matrix.data))


# 1-dim spaces: linf(1), and the ray of (3) with unit (2)
RAY = AOUSpace(1, Cone.from_generators([(3,)]), (2,), label="ray")
# the orthant and the cone over a square, with duplicate and parallel rows
# (and a redundant one on the orthant)
ORTHANT_ROWS = AOUSpace(2, Cone.from_inequalities([(1, 0), (1, 0), (2, 0), (0, 1), (0, 3), (1, 1)]), (1, 1))
SQUARE_ROWS = AOUSpace(
    3,
    Cone.from_inequalities(list(lin_space(2).cone.hrep()) + [(2, 2, 2), (1, 1, -1), (3, -3, 3)]),
    (1, 0, 0),
)


class TestNormsFromEvidence:
    # pert and perturb read their norms off their minimal measures and row
    # dual norms, auerbach its unit norms off the cone rows and the dual
    # basis; the LP routes of operator_norm and order_norm are the oracles

    @staticmethod
    def check_against_operator_norm(t):
        tn = operator_norm(t)
        if aoulab.maps._is_standard_linf(t.target):
            s, gap, norm = aoulab.maps._pert_with_norms(t)
            assert norm == tn
            assert gap == operator_norm(matrix_diff(t, s), t.source, t.target) <= tn - 1
        s, bound, norm = aoulab.maps._perturb_with_norm(t)
        assert norm == tn and bound == t.source.dim * (tn - 1)
        assert operator_norm(matrix_diff(t, s), t.source, t.target) <= bound

    def test_perturbation_norms_on_the_acceptance_maps(self):
        # the random maps of the perturbation acceptance test
        r = rng(601)
        battery = (L2, L3, lin_space(1), lin_space(2))
        kept = 0
        while kept < 100:
            t = random_unital_into_linf(r, battery[kept % len(battery)], r.randint(1, 3))
            if not 1 < operator_norm(t) <= 3:
                continue
            self.check_against_operator_norm(t)
            kept += 1

    def test_perturbation_norms_on_group_merges(self):
        for t in group_merge_maps(rng(7321), 10):
            self.check_against_operator_norm(t)
            assert aoulab.maps._pert_with_norms(t)[1:] == (0, 1)

    def test_perturb_correction_into_non_coordinate_targets(self):
        # ||e (x) f|| = ||f||* needs ||e|| = 1 in the target, not linf
        r = rng(6047)
        checked = 0
        for src, tgt in [(L2, lin_space(1)), (lin_space(1), lin_space(2)), (lin_space(2), lin_space(2))] * 4:
            sigma = extreme_states(src)[0]
            raw = Matrix.from_rows([rand_vec(r, src.dim, -2, 2, 2) for _ in range(tgt.dim)])
            defect = vsub(tgt.unit, raw.apply(src.unit))
            rows = [[x + d * c for x, c in zip(row, sigma)] for row, d in zip(raw.data, defect)]
            t = UnitalMap(src, tgt, Matrix.from_rows(rows))
            if operator_norm(t) > 1:
                self.check_against_operator_norm(t)
                checked += 1
        assert checked == 12

    def test_auerbach_unit_norms_on_the_scan_spaces(self):
        checked = 0
        for sp in ball_scan_spaces(rng(43)):
            basis, duals = auerbach_basis(sp)
            assert [order_norm(sp, x) for x in basis] == [1] * sp.dim
            assert [full_ball_dual_norm(sp, xd) for xd in duals] == [1] * sp.dim
            checked += 1
        assert checked == 15

    def test_doubled_ball_vertex_breaks_the_auerbach_check(self, monkeypatch):
        # the exchange reads the true ball, and the basis is built from the
        # stubbed one: 2 x_1 and its dual x_1*/2 are biorthogonal to the
        # rest, and the row check ||2 x_1|| <= 1 catches them
        sp = lin_space(2)
        first = auerbach_basis(sp)[0][0]
        half = aoulab.maps.unit_ball_half
        monkeypatch.setattr(
            aoulab.maps,
            "unit_ball_half",
            lambda space: [vscale(2, x) if x == first else x for x in half(space)],
        )
        with pytest.raises(InvariantViolation, match=r"^auerbach\(lin_space\(2\)\): result fails its check$"):
            auerbach_basis(sp)

    @pytest.mark.parametrize(
        "t, off",
        [
            # ||t - S|| = gap ||tv_total||* meets the bound 2 exactly
            (SYMMETRIC, Fraction(1, 7)),
            # gap 1/7, and S = t with the row (15/14, -1/14) is not positive
            (UnitalMap(L2, L2, Matrix.from_rows([(Fraction(15, 14), Fraction(-1, 14)), (0, 1)])), Fraction(-1, 7)),
        ],
        ids=["bound", "positivity"],
    )
    def test_gap_off_by_a_seventh_breaks_the_perturb_check(self, monkeypatch, t, off):
        # pert's own check passes on its true gap; _perturb_holds sees the
        # S perturb builds from the tampered one
        original = aoulab.maps._pert_with_norms
        monkeypatch.setattr(
            aoulab.maps,
            "_pert_with_norms",
            lambda t: (lambda s, gap, norm: (s, gap + off, norm))(*original(t)),
        )
        with pytest.raises(InvariantViolation, match=r"^perturb\(linf\(2\), linf\(2\)\): result fails its check$"):
            perturb(t)

    @pytest.mark.parametrize(
        "space", [L1, RAY, ORTHANT_ROWS, SQUARE_ROWS], ids=["linf1", "ray", "orthant", "square"]
    )
    def test_degenerate_spaces(self, space):
        basis, duals = auerbach_basis(space)
        assert [order_norm(space, x) for x in basis] == [1] * space.dim
        assert [full_ball_dual_norm(space, xd) for xd in duals] == [1] * space.dim
        # rows that are states make a unital positive map into linf(k); the
        # row 2 s_1 - s_k is unital too, and not positive when s_1 != s_k
        states = extreme_states(space)
        for rows in ([states[0]], [states[0], states[-1]], [vsub(vscale(2, states[0]), states[-1])]):
            t = UnitalMap(space, linf(len(rows)), Matrix.from_rows(rows))
            self.check_against_operator_norm(t)


def test_witnesses_lifts_and_measures_solve_no_lp(monkeypatch):
    # order-ideal witnesses, quotient lifts and the perturbations' minimal
    # measures are read off conic decompositions
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_lp called")

    monkeypatch.setattr(aoulab.maps, "solve_lp", no_lp)
    assert not is_order_ideal(L2, [(1, 1)]).is_ideal
    assert is_order_quotient(AVG).is_quotient
    assert not is_order_quotient(SKEW).is_quotient
    assert pert(SYMMETRIC).matrix.data == Matrix.identity(2).data
    assert perturb(SYMMETRIC)[0].positive


def test_cone_structure_questions_solve_no_lp(monkeypatch):
    # extreme rays, inclusion, positivity and the order-unit test are
    # decided by DD, facet incidence and row signs alone
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_lp called")

    # cones imports no LP at all (tests/test_source.py)
    for module in (aoulab.spaces, aoulab.maps):
        monkeypatch.setattr(module, "solve_lp", no_lp)
    ls3 = lin_space(3)
    assert len(extreme_states(ls3)) == 8
    rep = validate(ls3)
    assert rep.order_unit and rep.archimedean and rep.pointed
    assert same_cone(ls3.cone, Cone.from_generators(extreme_rays(ls3.cone), ls3.dim))
    m = UnitalMap(lin_space(1), L2, Matrix.from_rows([(1, 1), (1, -1)]))
    assert m.positive
