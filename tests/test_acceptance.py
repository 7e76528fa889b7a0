"""Acceptance gate.

One test per criterion.  Everything here is exact, so tolerances reduce to
equalities plus wall-clock caps.  Each test prints one PASS/FAIL line so a
full run reads as a nine-line scoreboard.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    battery_nuclearity,
    brute_extreme_rays,
    kernel_quotient_is_order_quotient,
    lp_is_isometry,
    lp_member,
    rand_frac,
    rand_vec,
    random_unital_into_linf,
    rng,
)

from aoulab.cones import Cone, extreme_rays, is_pointed, is_simplicial, member, same_cone
from aoulab.linalg import Matrix, dot, integerize, unit_vec, vec
from aoulab.lp import GE, OPTIMAL, solve_lp
from aoulab.maps import (
    UnitalMap,
    archimedean_quotient,
    auerbach_basis,
    check_map,
    dual_norm,
    interval_min,
    is_order_quotient,
    norm_bound_equiv,
    operator_norm,
)
from aoulab.psd_examples import psd_example_suite
from aoulab.spaces import extreme_states, lin_space, linf, order_norm
from aoulab.tensors import (
    EPSILON,
    PI,
    TensorElement,
    factorize,
    injective_banach_norm,
    is_nuclear_fd,
    is_nuclear_pairwise,
    tensor_map,
    tensor_space,
)

BATTERY = (linf(2), linf(3), lin_space(1), lin_space(2))


@contextmanager
def scoreboard(line: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {line}: FAIL")
        raise
    print(f"ACCEPTANCE {line}: PASS")


def identity_map(space):
    return UnitalMap(space, space, Matrix.identity(space.dim))


def test_matrix_examples_exact_and_fast():
    with scoreboard("1/9 matrix example suite, exact, under a second"):
        t0 = time.monotonic()
        suite = {rep.label: rep for rep in psd_example_suite()}
        bell, swap = suite["bell"], suite["swap"]
        assert bell.verdicts["psd"].claim == "member"
        assert bell.verdicts["pi"].claim == "non_member"
        assert bell.verdicts["pi"].kind == "partial_transpose_witness"
        assert swap.verdicts["epsilon"].claim == "member"
        assert swap.verdicts["epsilon"].kind == "polynomial_identity"
        assert swap.verdicts["psd"].claim == "non_member"
        assert swap.verdicts["psd"].kind == "negative_direction"
        for rep in suite.values():
            assert rep.verify()
        assert time.monotonic() - t0 < 1.0


def test_nuclearity_verdicts_with_witnesses():
    with scoreboard("2/9 nuclearity verdicts, witnesses, two routes agree"):
        t0 = time.monotonic()
        nuclear = [linf(n) for n in (1, 2, 3, 4)] + [lin_space(1)]
        for sp in nuclear:
            assert is_nuclear_fd(sp) is True
            assert is_simplicial(sp.cone) is True
            assert battery_nuclearity(sp) is True
        for n, partner in ((2, lin_space(2)), (3, lin_space(2))):
            sp = lin_space(n)
            assert is_nuclear_fd(sp) is False
            assert is_simplicial(sp.cone) is False
            assert battery_nuclearity(sp) is False
            rep = is_nuclear_pairwise(sp, partner)
            assert rep.nuclear is False and rep.witness is not None
            flat = rep.witness.flatten()
            eps = tensor_space(sp, partner, EPSILON)
            pi = tensor_space(sp, partner, PI)
            assert rep.epsilon_certificate.verify(eps.realized.cone, flat)
            assert rep.pi_certificate.verify(pi.realized.cone, flat)
            sep = rep.pi_certificate.witness
            assert dot(sep, flat) < 0
            assert all(dot(sep, g) >= 0 for g in pi.realized.cone.generators)
        assert time.monotonic() - t0 < 10.0


def test_cross_norms_on_simple_tensors():
    with scoreboard("3/9 cross norms on 200 simple tensors, both cones"):
        r = rng(301)
        combos = [(a, b) for a in BATTERY for b in BATTERY]
        for a, b in combos:
            eps = tensor_space(a, b, EPSILON)
            pi = tensor_space(a, b, PI)
            for g in pi.realized.cone.generators:
                assert all(dot(row, g) >= 0 for row in eps.realized.cone.inequalities)
        checked = 0
        for i in range(200):
            a, b = combos[i % len(combos)]
            v = rand_vec(r, a.dim)
            w = rand_vec(r, b.dim)
            z = TensorElement.simple(a, b, v, w)
            product = order_norm(a, v) * order_norm(b, w)
            assert order_norm(tensor_space(a, b, EPSILON).realized, z.flatten()) == product
            assert order_norm(tensor_space(a, b, PI).realized, z.flatten()) == product
            checked += 1
        assert checked >= 200


def test_injective_norm_is_epsilon_order_norm():
    with scoreboard("4/9 injective norm equals epsilon order norm, 200 tensors"):
        r = rng(401)
        combos = [(a, b) for a in BATTERY for b in BATTERY]
        checked = 0
        for i in range(200):
            a, b = combos[i % len(combos)]
            z = TensorElement.from_flat(a, b, rand_vec(r, a.dim * b.dim))
            eps = tensor_space(a, b, EPSILON).realized
            assert injective_banach_norm(z) == order_norm(eps, z.flatten())
            checked += 1
        assert checked >= 200


def _embedding_instances(r):
    """Unital order embeddings into coordinatewise spaces: the coordinate
    rows pin every source entry, extra rows are random states."""
    out = []
    for k, m in ((2, 3), (2, 4), (3, 4), (3, 5)):
        for _ in range(3):
            rows = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
            for _ in range(m - k):
                w = [Fraction(r.randint(0, 4)) for _ in range(k)]
                total = sum(w) or Fraction(1)
                if sum(w) == 0:
                    w[0] = total
                rows.append(tuple(x / total for x in w))
            out.append(UnitalMap(linf(k), linf(m), Matrix.from_rows(rows)))
    return out


def _quotient_instances(r):
    """Group merges linf(n) -> linf(m) plus quotients by diagonal ideals."""
    out = []
    for n, m in ((3, 2), (4, 2), (4, 3), (5, 3)):
        for _ in range(2):
            groups = [[] for _ in range(m)]
            for j in range(n):
                groups[j % m].append(j)
            r.shuffle(groups)
            rows = []
            for grp in groups:
                row = [Fraction(0)] * n
                for j in grp:
                    row[j] = Fraction(1, len(grp))
                rows.append(tuple(row))
            out.append(UnitalMap(linf(n), linf(m), Matrix.from_rows(rows)))
    _, q3 = archimedean_quotient(linf(3), [(0, 1, -1)])
    _, q4 = archimedean_quotient(linf(4), [(1, -1, 0, 0)])
    out += [q3, q4]
    return out


def test_tensoring_preserves_embeddings_and_quotients():
    with scoreboard("5/9 embedding (x) id on epsilon, quotient (x) id on pi, 20 instances"):
        r = rng(501)
        partners = (linf(2), lin_space(1))
        embeddings = _embedding_instances(r)
        quotients = _quotient_instances(r)
        instances = 0
        for i, (iota, q) in enumerate(zip(embeddings, quotients)):
            w = partners[i % len(partners)]
            big = tensor_map(iota, identity_map(w), EPSILON)
            for m in (iota, big):
                rep = check_map(m)
                assert rep.order_embedding and rep.isometry and lp_is_isometry(m)
            bigq = tensor_map(q, identity_map(w), PI)
            for m in (q, bigq):
                assert is_order_quotient(m).is_quotient
                assert kernel_quotient_is_order_quotient(m)
            instances += 2
        assert instances >= 20


def test_perturbation_bounds_and_auerbach_identities():
    with scoreboard("6/9 pert/perturb bounds on 100 maps, Auerbach identities"):
        from aoulab.maps import pert, perturb

        r = rng(601)
        kept = 0
        while kept < 100:
            source = BATTERY[kept % len(BATTERY)]
            k = r.randint(1, 3)
            t = random_unital_into_linf(r, source, k)
            tn = operator_norm(t)
            if not (1 < tn <= 3):
                continue
            s = pert(t)
            assert s.unital and s.positive
            diff = Matrix.from_rows(
                [
                    [a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(t.matrix.data, s.matrix.data)
                ]
            )
            assert operator_norm(diff, t.source, t.target) <= tn - 1
            s2, bound = perturb(t)
            assert s2.positive
            assert bound == t.source.dim * (tn - 1)
            diff2 = Matrix.from_rows(
                [
                    [a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(t.matrix.data, s2.matrix.data)
                ]
            )
            assert operator_norm(diff2, t.source, t.target) <= bound
            kept += 1
        for space in BATTERY:
            basis, duals = auerbach_basis(space)
            for i, f in enumerate(duals):
                assert dual_norm(space, f) == 1
                for j, b in enumerate(basis):
                    assert dot(f, b) == (1 if i == j else 0)
            for b in basis:
                assert order_norm(space, b) == 1


def test_norm_bound_biconditional():
    with scoreboard("7/9 norm bound biconditional on 500 pairs with ties"):
        r = rng(701)
        checked = 0
        i = 0
        while checked < 500:
            space = BATTERY[i % len(BATTERY)]
            i += 1
            f = rand_vec(r, space.dim)
            eps = abs(rand_frac(r))
            norm_bound_equiv(space, f, eps)  # raises if the routes split
            checked += 1
            tie = -interval_min(space, f)
            if tie >= 0:
                assert norm_bound_equiv(space, f, tie) is True
                checked += 1
            tie2 = (dual_norm(space, f) - dot(f, space.unit)) / 2
            if tie2 >= 0:
                assert norm_bound_equiv(space, f, tie2) is True
                checked += 1
        assert checked >= 500


def test_factorization_through_coordinatewise_spaces():
    with scoreboard("8/9 exact factorization on simplicial battery, defect floor otherwise"):
        for space in (linf(1), linf(2), linf(3), linf(4), lin_space(1)):
            res = factorize(space)
            assert res.success and res.defect == 0
            comp = res.psi.compose(res.phi)
            assert comp.matrix.data == Matrix.identity(space.dim).data
            assert res.phi.unital and res.phi.positive
            assert res.psi.unital and res.psi.positive
        res = factorize(lin_space(2))
        assert not res.success and res.exhausted
        assert res.defect == Fraction(1, 2)
        assert all(d >= Fraction(1, 2) for _, d in res.schedule)
        assert [k for k, _ in res.schedule] == [3, 4]


def test_kernel_soundness_on_random_cones():
    with scoreboard("9/9 DD round-trip, LP duality, certificates on 500 cones"):
        r = rng(901)
        cones_done = 0
        certs = verified = 0
        while cones_done < 500:
            dim = r.randint(1, 6)
            k = r.randint(dim, dim + 3)
            if cones_done % 2 == 0:
                gens = [rand_vec(r, dim, den=1) for _ in range(k)]
                cone = Cone.from_generators(gens, dim)
            else:
                rows = [rand_vec(r, dim, den=1) for _ in range(k)]
                cone = Cone.from_inequalities(rows, dim=dim)
            if not is_pointed(cone):
                continue
            rays = extreme_rays(cone)
            rebuilt = Cone.from_generators(rays, dim)
            assert same_cone(cone, rebuilt)
            # same_cone and extreme_rays rest on DD; check both without it
            if cone.inequalities is not None:
                assert {integerize(x) for x in rays} == brute_extreme_rays(list(cone.inequalities), dim)
            else:
                for g in cone.generators:
                    cert = lp_member(rebuilt, g)
                    assert cert.verdict == "member" and cert.verify(rebuilt, g)
                assert {integerize(x) for x in rays} <= {integerize(g) for g in cone.generators}
            pt = rand_vec(r, dim, den=2)
            cert = member(cone, pt)
            certs += 1
            verified += bool(cert.verify(cone, pt))
            cones_done += 1
        assert cones_done >= 500
        # direct LP duality: every outcome must re-verify by substitution
        for _ in range(60):
            n = r.randint(1, 4)
            m = r.randint(1, 5)
            rows = [rand_vec(r, n) for _ in range(m)]
            rhs = [rand_frac(r) for _ in range(m)]
            # each row a . x <= b or >= b, a <= row posed as -a . x >= -b
            signs = [r.choice((-1, 1)) for _ in range(m)]
            rows = [vec(s * x for x in row) for s, row in zip(signs, rows)]
            rhs = [s * b for s, b in zip(signs, rhs)]
            # the box -5 <= x_j <= 5 as rows
            for j in range(n):
                rows += [unit_vec(j, n), vec(-x for x in unit_vec(j, n))]
                rhs += [Fraction(-5), Fraction(-5)]
            out = solve_lp(rand_vec(r, n), rows, rhs, [GE] * len(rows))
            certs += 1
            verified += bool(out.verify())
        assert verified == certs
