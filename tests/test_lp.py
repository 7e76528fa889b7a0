from fractions import Fraction

import pytest
from conftest import brute_extreme_rays, brute_polytope_vertices, rand_frac, rand_vec, rng

from aoulab.errors import ShapeError
from aoulab.linalg import dot, unit_vec, vec
from aoulab.lp import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, solve_lp, verify_outcome


def test_min_of_negated_objective_with_upper_bound():
    # max x s.t. x <= 1, posed as min -x: the <=-row carries dual -1
    out = solve_lp([-1], [[1]], [1], [LE])
    assert out.status == OPTIMAL
    assert out.primal == vec([1])
    assert out.value == -1
    assert out.dual_certificate == vec([-1])


def test_infeasible_pair_farkas_witness():
    out = solve_lp([0], [[1], [1]], [1, 0], [GE, LE])
    assert out.status == INFEASIBLE
    assert out.dual_certificate == vec([1, 1])


def test_order_norm_shaped_lp():
    # minimize r with r(1,1) - (3,-2) >= 0 and r(1,1) + (3,-2) >= 0;
    # oracle: max |coordinate| of (3,-2).
    target = vec([3, -2])
    rows = [[1], [1], [1], [1]]
    rhs = [target[0], target[1], -target[0], -target[1]]
    out = solve_lp([1], rows, rhs, [GE] * 4)
    assert out.status == OPTIMAL
    assert out.value == max(abs(x) for x in target) == 3


def test_unbounded_with_ray():
    out = solve_lp([-1], [[1]], [0], [GE])
    assert out.status == UNBOUNDED
    assert out.ray is not None and out.ray[0] > 0


def test_equality_rows_and_bounds():
    # min x + y s.t. x + y + z = 3, z <= 1 (a box row), x,y >= 0
    out = solve_lp(
        [1, 1, 0],
        [[1, 1, 1], [0, 0, 1]],
        [3, 1],
        [EQ, LE],
        nonneg=[True, True, False],
    )
    assert out.status == OPTIMAL
    assert out.value == 2
    assert len(out.system.rows) == 4  # two user rows + two nonnegativity rows


def test_shape_errors():
    with pytest.raises(ShapeError):
        solve_lp([1, 2], [[1]], [0], [GE])
    with pytest.raises(ShapeError):
        solve_lp([1], [[1]], [0], ["<"])
    with pytest.raises(ShapeError):
        solve_lp([1, 2], [[1, 1]], [0], [GE], nonneg=[True])


def test_randomized_against_vertex_oracle():
    # Bounded random LPs: simplex optimum must match brute-force vertex scan.
    r = rng(20260814)
    for trial in range(60):
        n = r.randint(1, 3)
        rows = [rand_vec(r, n) for _ in range(r.randint(n + 1, 6))]
        rhs = [rand_frac(r) for _ in rows]
        # add a box so the region is bounded
        for j in range(n):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            rows += [vec(e)]
            rhs += [Fraction(-5)]
            rows += [vec([-x for x in e])]
            rhs += [Fraction(-5)]
        c = rand_vec(r, n)
        out = solve_lp(c, rows, rhs, [GE] * len(rows))
        verts = brute_polytope_vertices(rows, rhs, n)
        if out.status == INFEASIBLE:
            assert not verts
            continue
        assert out.status == OPTIMAL
        assert verts
        assert out.value == min(dot(c, v) for v in verts)
        verify_outcome(out)


def test_random_infeasible_certificates_verify():
    r = rng(7)
    found = 0
    for trial in range(80):
        n = r.randint(1, 3)
        rows = [rand_vec(r, n) for _ in range(6)]
        rhs = [rand_frac(r, lo=1, hi=5) for _ in rows]
        senses = [r.choice([GE, LE, EQ]) for _ in rows]
        out = solve_lp([0] * n, rows, rhs, senses)
        if out.status == INFEASIBLE:
            found += 1
            verify_outcome(out)
    assert found > 5


def _as_ge_rows(rows, rhs, senses, n, nonneg):
    """The feasible region as rows . x >= rhs, for the oracles."""
    ge_rows, ge_rhs = [], []
    for row, b, s in zip(rows, rhs, senses):
        if s in (GE, EQ):
            ge_rows.append(vec(row))
            ge_rhs.append(Fraction(b))
        if s in (LE, EQ):
            ge_rows.append(vec(-x for x in row))
            ge_rhs.append(-Fraction(b))
    for j in nonneg:
        ge_rows.append(unit_vec(j, n))
        ge_rhs.append(Fraction(0))
    return ge_rows, ge_rhs


def _rand_rhs(r):
    # rhs 0 and negative rhs as often as positive
    return r.choice([Fraction(0), -rand_frac(r, lo=1), rand_frac(r, lo=1)])


def test_nonnegative_bound_is_a_row_of_the_system():
    out = solve_lp([1], [], [], [], nonneg=[True])
    assert out.status == OPTIMAL and out.value == 0
    assert out.system.rows == (vec([1]),) and out.system.n_user_rows == 0
    assert out.dual_certificate == vec([1])
    out = solve_lp([0], [[1]], [-1], [LE], nonneg=[True])
    assert out.status == INFEASIBLE
    assert out.system.rows == (vec([1]), vec([1]))
    assert out.dual_certificate == vec([1, 1])


def test_mixed_bounds_and_senses_against_vertex_oracle():
    # nonnegative variables mixed with free ones, EQ/LE/GE rows with rhs 0
    # and negative rhs, both directions (a maximum as the minimum of -c); a
    # box keeps every region bounded.
    r = rng(20261018)
    seen = set()
    for trial in range(80):
        n = r.randint(1, 3)
        nonneg = [j for j in range(n) if r.random() < 0.5]
        m = r.randint(1, 4)
        rows = [rand_vec(r, n) for _ in range(m)]
        rhs = [_rand_rhs(r) for _ in range(m)]
        senses = [r.choice([EQ, LE, GE]) for _ in range(m)]
        for j in range(n):
            rows += [unit_vec(j, n), unit_vec(j, n)]
            rhs += [Fraction(5), Fraction(-5)]
            senses += [LE, GE]
        c = rand_vec(r, n)
        if r.random() < 0.5:
            c = vec(-x for x in c)
        out = solve_lp(c, rows, rhs, senses, nonneg=[j in nonneg for j in range(n)])
        verify_outcome(out)
        sys_ = out.system
        assert sys_.n_user_rows == len(rows)
        assert sys_.rows[len(rows):] == tuple(unit_vec(j, n) for j in nonneg)
        assert sys_.senses[len(rows):] == (GE,) * len(nonneg)
        assert sys_.rhs[len(rows):] == (0,) * len(nonneg)
        verts = brute_polytope_vertices(*_as_ge_rows(rows, rhs, senses, n, nonneg), n)
        seen.add(out.status)
        if not verts:
            assert out.status == INFEASIBLE
            continue
        assert out.status == OPTIMAL
        assert out.value == min(dot(c, v) for v in verts)
    assert seen == {OPTIMAL, INFEASIBLE}


def test_nonnegative_lps_against_vertex_and_ray_oracles():
    # x >= 0 makes the region pointed: it is empty iff it has no vertex, and
    # unbounded iff an extreme ray of its recession cone improves.
    r = rng(1955)
    seen = set()
    for trial in range(60):
        n = r.randint(2, 3)
        m = r.randint(1, 3)
        rows = [rand_vec(r, n) for _ in range(m)]
        rhs = [_rand_rhs(r) for _ in range(m)]
        senses = [r.choice([EQ, LE, GE]) for _ in range(m)]
        c = rand_vec(r, n)
        if r.random() < 0.5:
            c = vec(-x for x in c)
        out = solve_lp(c, rows, rhs, senses, nonneg=[True] * n)
        verify_outcome(out)
        ge_rows, ge_rhs = _as_ge_rows(rows, rhs, senses, n, range(n))
        verts = brute_polytope_vertices(ge_rows, ge_rhs, n)
        improving = [d for d in brute_extreme_rays(ge_rows, n) if dot(c, d) < 0]
        seen.add(out.status)
        if not verts:
            assert out.status == INFEASIBLE
        elif improving:
            assert out.status == UNBOUNDED
            x, d = out.primal, out.ray
            assert all(dot(row, x) >= b for row, b in zip(ge_rows, ge_rhs))
            assert all(dot(row, d) >= 0 for row in ge_rows)
            assert dot(c, d) < 0
        else:
            assert out.status == OPTIMAL
            assert out.value == min(dot(c, v) for v in verts)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_beale_cycling_example_terminates():
    # Beale (1955): from the all-slack basis the largest-coefficient rule
    # cycles on this degenerate LP; Bland's rule must reach the optimum.
    c = [Fraction(-3, 4), 20, Fraction(-1, 2), 6]
    rows = [[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3], [0, 0, 1, 0]]
    rhs, senses = [0, 0, 1], [LE] * 3
    out = solve_lp(c, rows, rhs, senses, nonneg=[True] * 4)
    assert out.status == OPTIMAL
    assert out.value == Fraction(-5, 4)
    verts = brute_polytope_vertices(*_as_ge_rows(rows, rhs, senses, 4, range(4)), 4)
    assert out.value == min(dot(vec(c), v) for v in verts)
