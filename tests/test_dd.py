from fractions import Fraction

import pytest
from conftest import (
    as_vertices, brute_extreme_rays, brute_polytope_vertices, polytope_vertices, rand_frac, rand_vec,
    rational_polytope_vertices, rng,
)

import aoulab.dd
from aoulab.cones import Cone, _dd, extreme_rays
from aoulab.dd import dd_pair
from aoulab.errors import NotPointedError, ShapeError
from aoulab.linalg import dot, integerize, vec
from aoulab.spaces import AOUSpace, order_interval_vertices


def test_orthant_rays():
    lin, rays = dd_pair([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert lin == []
    assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_abs_value_cone():
    # {a0 >= |a1|} has the two diagonal rays
    lin, rays = dd_pair([[1, 1], [1, -1]], 2)
    assert lin == []
    assert sorted(rays) == [(1, -1), (1, 1)]


def test_ell1_cone_dim3():
    # {a0 >= |a1| + |a2|}: four extreme rays
    rows = [[1, s1, s2] for s1 in (1, -1) for s2 in (1, -1)]
    lin, rays = dd_pair(rows, 3)
    assert lin == []
    assert sorted(rays) == [(1, -1, 0), (1, 0, -1), (1, 0, 1), (1, 1, 0)]


def test_halfplane_lineality():
    lin, rays = dd_pair([[1, 0]], 2)
    assert lin == [(0, 1)]
    assert rays == [(1, 0)]
    with pytest.raises(NotPointedError) as exc:
        extreme_rays(Cone.from_inequalities([[1, 0]], dim=2))
    assert exc.value.lineality == [vec((0, 1))]


def test_full_space_and_origin():
    lin, rays = dd_pair([], 2)
    assert len(lin) == 2 and rays == []
    lin, rays = dd_pair([[1, 0], [-1, 0], [0, 1], [0, -1]], 2)
    assert lin == [] and rays == []


def test_duplicate_and_scaled_rows_ignored():
    # the cone splits "1/2" and 2 off its rows, so the DD sees one row (1, 1)
    cone = Cone.from_inequalities([[1, 1], ["1/2", "1/2"], [2, 2], [1, -1]])
    assert cone.inequalities == ((1, 1), (1, 1), (1, 1), (1, -1))
    assert cone.scales == (1, Fraction(1, 2), 2, 1)
    assert _dd(cone) == ([], [(1, -1), (1, 1)])
    assert cone.vrep() == (vec((1, -1)), vec((1, 1)))


def test_coprime_integer_tuples_taken_as_they_are(monkeypatch):
    handed = []
    real = aoulab.dd.dd_pair

    def recorded(rows, dim):
        handed.append(rows)
        return real(rows, dim)

    monkeypatch.setattr(aoulab.dd, "dd_pair", recorded)
    gens = [(1, 0, 0), (0, 2, 0), (0, 0, Fraction(1, 3)), (1, 1, 1)]
    rows = [(1, 1, 1), (1, -1, 0), (0, 1, -1), ("2", 0, 1)]
    # a cone's first hrep()/vrep() hands dd_pair its own rows, the coprime
    # integer tuples it split them into when it was built
    cones = [Cone.from_generators(gens), Cone.from_inequalities(rows)]
    cones[0].hrep()
    cones[1].vrep()
    assert [c.rows for c in cones] == [((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (*rows[:3], (2, 0, 1))]
    assert all(h is c.rows for h, c in zip(handed, cones))
    # anything else is split by the cone first: non-coprime, bool or
    # Fraction entries, directly given or through from_inequalities
    plain = real([(1, 1), (1, -1)], 2)
    for scaled in ([(2, 2), (3, -3)], [(True, True), (1, -1)], [vec((1, 1)), vec((1, -1))]):
        for cone in (Cone.from_inequalities(scaled), Cone(2, inequalities=tuple(scaled))):
            assert cone.inequalities == ((1, 1), (1, -1))
            assert _dd(cone) == plain
    assert all(type(x) is int for rows in handed for row in rows for x in row)


def test_fraction_row_raises_shape_error():
    # dd_pair trusts its rows to be integers and does not scale them
    with pytest.raises(ShapeError, match="integer entries"):
        dd_pair([(Fraction(1, 2), 1), (1, -1)], 2)


def test_roundtrip_hrep_vrep():
    rows = [[1, 1, 1], [1, -1, 0], [0, 1, -1], [2, 0, 1]]
    gens = Cone.from_inequalities(rows).vrep()
    back = Cone.from_generators(gens).hrep()
    gens2 = Cone.from_inequalities(back).vrep()
    assert sorted(integerize(g) for g in gens) == sorted(integerize(g) for g in gens2)


def test_random_cones_match_brute_force():
    r = rng(99)
    for trial in range(40):
        dim = r.randint(2, 4)
        rows = [rand_vec(r, dim) for _ in range(r.randint(dim, 7))]
        lin, rays = dd_pair([integerize(x) for x in rows], dim)
        if lin:
            continue  # oracle assumes pointed
        expected = brute_extreme_rays([vec(x) for x in rows], dim)
        assert set(rays) == expected


def test_rays_satisfy_rows_exactly():
    r = rng(5)
    for trial in range(30):
        dim = r.randint(2, 5)
        rows = [rand_vec(r, dim) for _ in range(6)]
        lin, rays = dd_pair([integerize(x) for x in rows], dim)
        for ray in rays:
            assert all(dot(vec(row), vec(ray)) >= 0 for row in rows)
        for l in lin:
            assert all(dot(vec(row), vec(l)) == 0 for row in rows)


def test_polytope_vertices_square():
    rows = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    rhs = [0, -1, 0, -1]
    vs = as_vertices(polytope_vertices(rows, rhs, 2))
    assert set(vs) == {vec([0, 0]), vec([0, 1]), vec([1, 0]), vec([1, 1])}


def test_polytope_vertices_random_vs_oracle():
    r = rng(123)
    for trial in range(25):
        dim = r.randint(1, 3)
        rows = [rand_vec(r, dim) for _ in range(r.randint(dim + 1, 6))]
        rhs = [rand_frac(r) for _ in rows]
        for j in range(dim):
            e = [Fraction(0)] * dim
            e[j] = Fraction(1)
            rows += [vec(e), vec([-x for x in e])]
            rhs += [Fraction(-4), Fraction(-4)]
        vs = as_vertices(rational_polytope_vertices(rows, rhs, dim))
        assert set(vs) == brute_polytope_vertices(rows, rhs, dim)


def test_interval_with_a_line_is_refused_before_the_resume(dd_resumes):
    # [0, e] is unbounded exactly when the cone holds a line: the half-plane
    # {x0 >= 0}, as a V-cone and as an H-cone, is refused by the pointedness
    # test, with the lineality (0, 1), before any row of e - C is inserted
    for cone in (Cone.from_generators([(1, 0), (0, 1), (0, -1)]), Cone.from_inequalities([(1, 0)])):
        with pytest.raises(NotPointedError) as exc:
            order_interval_vertices(AOUSpace(2, cone, (1, 0)))
        assert exc.value.lineality == [vec((0, 1))]
    assert dd_resumes == []


def test_integer_rows_match_brute_force():
    # the kernel on integer rows as cones hand them over, coprime or not,
    # with duplicates and rows that vanish on earlier rays: the rays of a
    # pointed cone against subset search, the lineality against the rows
    r = rng(4177)
    seen = 0
    for trial in range(60):
        dim = r.randint(2, 4)
        k = r.randint(dim, dim + 4)
        rows = [tuple(r.randint(1, 3) * r.randint(-2, 2) for _ in range(dim)) for _ in range(k)]
        rows += [rows[0], tuple(2 * x for x in rows[-1])]
        lin, rays = dd_pair(rows, dim)
        assert all(all(dot(a, l) == 0 for a in rows) for l in lin)
        assert all(all(dot(a, x) >= 0 for a in rows) for x in rays)
        if not lin:
            seen += 1
            assert set(rays) == brute_extreme_rays([vec(a) for a in rows], dim)
    assert seen > 20
