"""The three benchmark workloads and their output oracles.

Constructing a workload, ``Workload(al, seed, workdir)``, is its set-up;
it then serves requests by index: ``request(i)`` returns a Request whose
``call`` is the timed library work and whose ``check`` compares the result
with an oracle the benchmark computes itself.  Request kinds follow a fixed cycle; the seed
drives only the data, so two seeds exercise the same mix of code paths and a
run always ends on a whole cycle.  Inputs reach the library through its
public functions only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable


class Mismatch(Exception):
    """A library answer disagreed with the benchmark's oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _rq(r: random.Random, lo=-4, hi=4, den=3) -> Fraction:
    return Fraction(r.randint(lo, hi), r.randint(1, den))


def _rvec(r: random.Random, n: int, lo=-4, hi=4, den=3) -> tuple:
    return tuple(_rq(r, lo, hi, den) for _ in range(n))


# -- closed forms for the two space families --------------------------------------
#
# linf(n): coordinatewise order, unit (1..1), states are the coordinate
# evaluations.  lin_space(n): affine functions a0 + sum a_i t_i on [-1,1]^n,
# states are evaluations at the cube vertices, (1, sigma).


def states_closed(family: str, n: int) -> list[tuple]:
    if family == "linf":
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [(1,) + s for s in product((1, -1), repeat=n)]


def norm_closed(family: str, v) -> Fraction:
    if family == "linf":
        return max(abs(x) for x in v)
    return sum((abs(x) for x in v), Fraction(0))


def dual_norm_closed(family: str, f) -> Fraction:
    # the unit balls are the cube and the cross-polytope, so the dual norms
    # are l1 and linf
    if family == "linf":
        return sum((abs(x) for x in f), Fraction(0))
    return max(abs(x) for x in f)


def operator_norm_closed(family: str, rows) -> Fraction:
    """Norm of a map into linf(k), given by its rows, from linf or lin_space."""
    if family == "linf":
        return max(sum((abs(x) for x in row), Fraction(0)) for row in rows)
    return max(abs(x) for row in rows for x in row)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _pairings(left, right, coeffs) -> list[Fraction]:
    """(f (x) g)(z) over closed-form state pairs of a tensor element."""
    out = []
    for f in states_closed(*left):
        row = [_dot(f, [coeffs[i][j] for i in range(len(f))]) for j in range(len(coeffs[0]))]
        for g in states_closed(*right):
            out.append(_dot(row, g))
    return out


def _unital_rows(r: random.Random, family: str, n: int, k: int, positive=False) -> list[tuple]:
    """k rows of a unital map from linf(n) or lin_space(n-1) into linf(k)."""
    rows = []
    for _ in range(k):
        if family == "linf":
            if positive:
                w = [Fraction(r.randint(0, 4)) for _ in range(n)]
                w[r.randrange(n)] += 1
                rows.append(tuple(x / sum(w) for x in w))
            else:
                head = _rvec(r, n - 1)
                rows.append(head + (1 - sum(head, Fraction(0)),))
        else:
            rows.append((Fraction(1),) + _rvec(r, n - 1))
    return rows


def _det(rows) -> Fraction:
    m = [list(map(Fraction, row)) for row in rows]
    n, d = len(m), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def _psd_by_minors(m) -> bool:
    """A symmetric matrix is PSD iff every principal minor is nonnegative."""
    n = len(m)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if _det([[m[i][j] for j in idx] for i in idx]) < 0:
            return False
    return True


# -- norm-queries -------------------------------------------------------------------


class NormQueries:
    """Warm queries against a fixed battery whose caches setup has filled."""

    BASE = (("linf", 2), ("linf", 3), ("lin", 1), ("lin", 2), ("lin", 3))
    PAIRS = ((("linf", 2), ("lin", 1)), (("lin", 2), ("linf", 2)))

    def __init__(self, al, seed: int, workdir: str):
        self.al, self.seed = al, seed
        self.spaces = {}
        for fam, n in self.BASE:
            self.spaces[(fam, n)] = al.linf(n) if fam == "linf" else al.lin_space(n)
        self.tensors = {}
        for a, b in self.PAIRS:
            for kind in (al.EPSILON, al.PI):
                ts = al.tensor_space(self.spaces[a], self.spaces[b], kind)
                self.tensors[(a, b, kind)] = ts.realized
        for sp in list(self.spaces.values()) + list(self.tensors.values()):
            al.extreme_states(sp)
            al.unit_ball_vertices(sp)
        cycle = []
        for key in self.BASE:
            cycle += [("order_norm", key), ("norm_bound_equiv", key), ("dual_norm", key)]
        cycle += [("order_norm_tensor", key) for key in self.tensors]
        cycle += [("operator_norm", (key, k)) for key in self.BASE for k in (2, 3)]
        cycle += [("injective_banach_norm", pair) for pair in self.PAIRS]
        self.cycle = cycle

    def _label(self, key) -> str:
        fam, n = key
        return f"linf({n})" if fam == "linf" else f"lin_space({n})"

    def _dim(self, key) -> int:
        return self.spaces[key].dim

    def request(self, i: int) -> Request:
        al, r = self.al, _rng(self.seed, i)
        kind, key = self.cycle[i % len(self.cycle)]
        if kind in ("order_norm", "dual_norm", "norm_bound_equiv"):
            sp, fam, v = self.spaces[key], key[0], _rvec(r, self._dim(key))
            label = self._label(key)
            if kind == "order_norm":
                want = norm_closed(fam, v)
                return Request(kind, label, lambda: al.order_norm(sp, v),
                               lambda got: expect(got == want, f"order_norm {got} != {want}"))
            if kind == "dual_norm":
                want = dual_norm_closed(fam, v)
                return Request(kind, label, lambda: al.dual_norm(sp, v),
                               lambda got: expect(got == want, f"dual_norm {got} != {want}"))
            eps = Fraction(r.randint(0, 4), 4)
            want = dual_norm_closed(fam, v) <= 2 * eps + _dot(v, sp.unit)
            return Request(kind, label, lambda: al.norm_bound_equiv(sp, v, eps),
                           lambda got: expect(got == want, f"norm_bound_equiv {got} != {want}"))
        if kind == "order_norm_tensor":
            a, b, tk = key
            v, w = _rvec(r, self._dim(a)), _rvec(r, self._dim(b))
            flat = tuple(x * y for x in v for y in w)
            want = norm_closed(a[0], v) * norm_closed(b[0], w)
            sp = self.tensors[key]
            return Request("order_norm", f"{tk}({self._label(a)},{self._label(b)})",
                           lambda: al.order_norm(sp, flat),
                           lambda got: expect(got == want, f"tensor norm {got} != {want}"))
        if kind == "operator_norm":
            src, k = key
            rows = _unital_rows(r, src[0], self._dim(src), k)
            m = al.UnitalMap(self.spaces[src], self.spaces[("linf", k)], al.Matrix.from_rows(rows))
            want = operator_norm_closed(src[0], rows)
            return Request(kind, f"{self._label(src)}->linf({k})", lambda: al.operator_norm(m),
                           lambda got: expect(got == want, f"operator_norm {got} != {want}"))
        a, b = key
        v, w = _rvec(r, self._dim(a)), _rvec(r, self._dim(b))
        z = al.TensorElement.simple(self.spaces[a], self.spaces[b], v, w)
        want = norm_closed(a[0], v) * norm_closed(b[0], w)
        return Request(kind, f"{self._label(a)},{self._label(b)}", lambda: al.injective_banach_norm(z),
                       lambda got: expect(got == want, f"injective norm {got} != {want}"))


# -- cone-structure -------------------------------------------------------------------


class ConeStructure:
    """Cold structure derivation: every request builds its cone or space
    from raw data, so no derived representation is cached."""

    def __init__(self, al, seed: int, workdir: str):
        self.al, self.seed = al, seed
        # Random cones from the generator of the acceptance kernel-soundness
        # test (integer entries in [-4, 4], k = dim..dim+3 rows or
        # generators), stratified over the cycle so that every run draws the
        # same mix.  Left out: dim 1 (single rays), dim 6, and dim-5 cones
        # with 7 or 8 rows or generators, whose cost has a coefficient of
        # variation up to 1.4 and a tail to 10 s that a 20-s run cannot
        # average.
        shapes = [(d, k) for d in range(2, 5) for k in range(d, d + 4)] + [(5, 5), (5, 6)]
        cones = [("cone_" + rep, shape) for shape in shapes for rep in ("V", "H")]
        # lin_space(2) and lin_space(3) are deterministic; their copies put the
        # median request inside lin_space(2) and the 90th percentile inside
        # lin_space(3), so neither percentile hinges on which random cones
        # happen to border it.
        spaces = [("lin_space_structure", 2)] * 7 + [("lin_space_structure", 3)] * 3
        spaces += [("lin_space_structure", 4)]
        syms = [("sym_member", n) for n in (2, 3, 4)]
        self.cycle = cones + spaces + syms

    def request(self, i: int) -> Request:
        al, r = self.al, _rng(self.seed, i)
        kind, arg = self.cycle[i % len(self.cycle)]
        if kind.startswith("cone_"):
            return self._cone(kind, arg, r)
        n = arg
        if kind == "lin_space_structure":
            def call():
                sp = al.lin_space(n)
                return al.extreme_states(sp), al.unit_ball_vertices(sp), al.validate(sp)

            def check(got):
                states, verts, rep = got
                expect(len(states) == 2**n, f"{len(states)} states, want {2**n}")
                want = {tuple(s * int(j == c) for j in range(n + 1)) for c in range(n + 1) for s in (1, -1)}
                expect(set(verts) == want, "ball vertices are not +-e_i")
                expect(rep.order_unit and rep.archimedean and rep.pointed, "validate flags")

            return Request(kind, f"lin_space({n})", call, check)
        shift = r.randint(0, 3)
        m = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m[a][b] = m[b][a] = _rq(r, -3, 3, 2) + (shift if a == b else 0)
        packed = tuple(m[a][b] for a in range(n) for b in range(a, n))
        want = _psd_by_minors(m)

        def call():
            cone = al.sym_space(n).cone
            cert = al.member(cone, packed)
            return cert.verdict, cert.verify(cone, packed)

        def check(got):
            verdict, ok = got
            expect(ok, "psd certificate failed to verify")
            expect((verdict == "member") == want, f"psd verdict {verdict}, minors say {want}")

        return Request(kind, f"sym_space({n})", call, check)

    def _cone(self, kind: str, shape: tuple, r: random.Random) -> Request:
        al, (dim, k) = self.al, shape
        data = [_rvec(r, dim, den=1) for _ in range(k)]
        pt = _rvec(r, dim, den=2)
        hrep = kind == "cone_H"

        def call():
            cone = al.Cone.from_inequalities(data, dim=dim) if hrep else al.Cone.from_generators(data, dim)
            rays = same = None
            if al.is_pointed(cone):
                rays = al.extreme_rays(cone)
                same = al.same_cone(cone, al.Cone.from_generators(rays, dim))
            cert = al.member(cone, pt)
            return rays, same, cert.verdict, cert.verify(cone, pt)

        def check(got):
            rays, same, verdict, ok = got
            expect(ok, "membership certificate failed to verify")
            if rays is not None:
                expect(same is True, "DD round trip changed the cone")
            if hrep:
                inside = all(_dot(row, pt) >= 0 for row in data)
                expect((verdict == "member") == inside, "H-cone membership verdict")
                for ray in rays or ():
                    expect(all(_dot(row, ray) >= 0 for row in data), "extreme ray leaves the cone")

        return Request(kind, f"dim{dim},k{k}", call, check)


# -- cli-reports ---------------------------------------------------------------------


class CliReports:
    """The end-user path: in-process CLI verbs on JSON fixtures, each valid
    report re-run by ``verify``."""

    def __init__(self, al, seed: int, workdir: str):
        self.al, self.seed, self.workdir = al, seed, workdir
        self.report_path = os.path.join(workdir, "report.json")
        r = random.Random(seed)
        spaces = {
            "linf2": al.linf(2),
            "linf3": al.linf(3),
            "linf4": al.linf(4),
            "lin1": al.lin_space(1),
            "lin2": al.lin_space(2),
            "lin3": al.lin_space(3),
        }
        self.paths = {name: self._write(name, sp) for name, sp in spaces.items()}
        fam = {"linf2": ("linf", 2), "linf3": ("linf", 3), "lin1": ("lin", 1), "lin2": ("lin", 2)}
        self.cycle: list[tuple[str, str, list, Callable]] = []
        add = self.cycle.append
        # Every slot of a block has a fixed verb and shape; the seed draws
        # only the numbers, so each run sees the same mix.  Two deterministic
        # requests are repeated so that a percentile falls inside them
        # rather than on the border of two random strata: auerbach on
        # linf(3), four per block, holds the median, and states on
        # lin_space(3), three per block, holds the 90th percentile.
        for block in range(4):
            for j, (n, k) in enumerate(((2, 1), (2, 2), (3, 2), (3, 3))):
                rows = _unital_rows(r, "linf", n, k, positive=j % 2 == 0)
                p = self._map(f"map{block}{j}", spaces[f"linf{n}"], rows)
                want = all(x >= 0 for row in rows for x in row)
                add(("check-map", f"linf({n})->linf({k})", ["check-map", p],
                     lambda d, want=want: expect(d["positive"] is want and d["unital"], "check-map flags")))
            for n, kept in ((3, 1), (3, 2), (4, 2), (4, 3)):
                keep = r.sample(range(n), kept)
                kernel = [[int(c == i) for c in range(n)] for i in range(n) if i not in keep]
                add(("quotient", f"linf({n})/{n - kept}", ["quotient", self.paths[f"linf{n}"], "--kernel", str(kernel)],
                     lambda d, dim=kept: expect(d["space"]["dim"] == dim, "quotient dimension")))
            for j, (src, k) in enumerate((("linf2", 2), ("lin2", 2), ("linf2", 3))):
                rows = _unital_rows(r, fam[src][0], spaces[src].dim, k)
                p = self._map(f"pert{block}{j}", spaces[src], rows)
                want = operator_norm_closed(fam[src][0], rows)
                add(("pert", f"{src}->linf({k})", ["pert", p], lambda d, want=want: self._check_pert(d, want)))
            for j, src in enumerate(("linf2", "lin2")):
                rows = _unital_rows(r, fam[src][0], spaces[src].dim, 2)
                p = self._map(f"perturb{block}{j}", spaces[src], rows)
                want = operator_norm_closed(fam[src][0], rows)
                dim = spaces[src].dim
                add(("perturb", f"{src}->linf(2)", ["perturb", p],
                     lambda d, want=want, dim=dim: expect(
                         Fraction(d["norm"]) == want and Fraction(d["bound"]) == dim * (want - 1),
                         "perturb norm or bound")))
            for j, (a, b) in enumerate((("linf2", "linf2"), ("linf2", "lin1"), ("lin1", "lin1"), ("lin1", "linf2"))):
                coeffs = [list(_rvec(r, spaces[b].dim)) for _ in range(spaces[a].dim)]
                p = self._elem(f"tn{block}{j}", spaces[a], spaces[b], coeffs)
                want = max(abs(x) for x in _pairings(fam[a], fam[b], coeffs))
                add(("tensor-norm", f"{a},{b}", ["tensor-norm", p],
                     lambda d, want=want: expect(Fraction(d["norm"]) == want, "tensor norm")))
            # one factor simplicial, so the pi and epsilon cones agree and
            # both verdicts follow from the state pairings
            for j, (kind, a, b) in enumerate(
                ((al.PI, "linf2", "linf2"), (al.EPSILON, "linf2", "lin1"), (al.PI, "lin1", "linf2"), (al.EPSILON, "linf2", "linf2"))
            ):
                coeffs = [list(_rvec(r, spaces[b].dim, lo=-1)) for _ in range(spaces[a].dim)]
                p = self._elem(f"tm{block}{j}", spaces[a], spaces[b], coeffs)
                inside = all(x >= 0 for x in _pairings(fam[a], fam[b], coeffs))
                add(("tensor-member", f"{kind}:{a},{b}", ["tensor-member", p, "--kind", kind],
                     lambda d, inside=inside: expect((d["verdict"] == "member") == inside, "tensor member")))
            for dim in (2, 3):
                p = self._write(f"simp{block}{dim}", self._simplicial(r, dim))
                add(("factorize", f"simplicial({dim})", ["factorize", p],
                     lambda d: expect(d["success"] is True and d["defect"] == "0", "simplicial factorization")))
            for name in ("lin2", "linf2", "linf3", "linf3", "linf3", "linf3"):
                add(("auerbach", name, ["auerbach", self.paths[name]], lambda d, fam=fam[name]: self._check_auerbach(d, fam)))
            for n in (1, 2, 3, 3, 3):
                add(("states", f"lin_space({n})", ["states", self.paths[f"lin{n}"]],
                     lambda d, n=n: expect(len(d["states"]) == 2**n, "state count")))
            n = 3 + block % 2
            i, j = r.sample(range(n), 2)
            kernel = [[int(c in (i, j)) for c in range(n)]]
            add(("quotient-invalid", f"linf({n})", ["quotient", self.paths[f"linf{n}"], "--kernel", str(kernel)], None))
            add(("nuclear-pair", "linf2,lin2", ["nuclear-pair", self.paths["linf2"], self.paths["lin2"]],
                 lambda d: expect(d["nuclear"] is True, "linf2 x lin2 is nuclear")))
        add(("nuclear", "linf(3)", ["nuclear", self.paths["linf3"]],
             lambda d: expect(d["nuclear"] is True, "linf(3) is nuclear")))
        add(("nuclear", "lin_space(2)", ["nuclear", self.paths["lin2"]],
             lambda d: expect(d["nuclear"] is False, "lin_space(2) is not nuclear")))
        add(("nuclear-pair", "lin2,lin2", ["nuclear-pair", self.paths["lin2"], self.paths["lin2"]],
             lambda d: expect(d["nuclear"] is False and d["pi_certificate"]["verdict"] == "non_member",
                              "lin_space(2) (x) lin_space(2) is not nuclear")))
        add(("examples", "paper", ["examples", "paper"], lambda d: expect(d["all_match"] is True, "examples")))
        add(("factorize", "lin_space(2)", ["factorize", self.paths["lin2"]],
             lambda d: expect(d["defect"] == "1/2" and d["success"] is False
                              and d["schedule"] == [[3, "1"], [4, "1/2"]], "lin_space(2) factorization")))

    # fixtures ---------------------------------------------------------------------

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.al.dumps(obj))
        return path

    def _map(self, name, source, rows) -> str:
        al = self.al
        return self._write(name, al.UnitalMap(source, al.linf(len(rows)), al.Matrix.from_rows(rows)))

    def _elem(self, name, left, right, coeffs) -> str:
        return self._write(name, self.al.TensorElement(left, right, self.al.Matrix.from_rows(coeffs)))

    def _simplicial(self, r: random.Random, d: int):
        al = self.al
        while True:
            gens = [tuple(r.randint(-2, 3) for _ in range(d)) for _ in range(d)]
            if _det(gens) != 0:
                break
        weights = [r.randint(1, 3) for _ in range(d)]
        unit = tuple(sum(w * g[c] for w, g in zip(weights, gens)) for c in range(d))
        return al.AOUSpace(d, al.Cone.from_generators(gens, dim=d), unit, label=f"simplicial{d}")

    # oracles ------------------------------------------------------------------------

    @staticmethod
    def _check_pert(d, want) -> None:
        norm, dist = Fraction(d["norm"]), Fraction(d["distance"])
        expect(norm == want, f"pert norm {norm} != {want}")
        expect(dist <= norm - 1, "pert distance exceeds ||t|| - 1")

    @staticmethod
    def _check_auerbach(d, fam) -> None:
        basis = [[Fraction(x) for x in v] for v in d["basis"]]
        duals = [[Fraction(x) for x in v] for v in d["duals"]]
        for i, (x, xd) in enumerate(zip(basis, duals)):
            expect(norm_closed(fam[0], x) == 1 and dual_norm_closed(fam[0], xd) == 1, "auerbach unit norms")
            for j, y in enumerate(basis):
                expect(_dot(xd, y) == (i == j), "auerbach biorthogonality")

    # requests ---------------------------------------------------------------------------

    def request(self, i: int) -> Request:
        kind, label, argv, check = self.cycle[i % len(self.cycle)]
        main = self.al.cli.main
        if check is None:
            def call():
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv, out=io.StringIO())
                return code, err.getvalue()

            def check_invalid(got):
                code, err = got
                expect(code == 2, f"invalid request exited {code}, want 2")
                expect("aoulab: certificate:" in err, "invalid request printed no certificate")

            return Request(kind, label, call, check_invalid)

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--format", "json"], out=out)
                text = out.getvalue()
                with open(self.report_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                vout = io.StringIO()
                vcode = main(["verify", self.report_path], out=vout)
            return code, text, vcode, vout.getvalue(), err.getvalue()

        def check_valid(got):
            code, text, vcode, vtext, err = got
            expect(code == 0, f"{kind} exited {code}: {err.strip()}")
            expect(vcode == 0 and vtext == "true\n", f"verify said {vtext.strip()!r} ({vcode})")
            check(json.loads(text))

        return Request(kind, label, call, check_valid)


WORKLOADS = {"norm-queries": NormQueries, "cone-structure": ConeStructure, "cli-reports": CliReports}
