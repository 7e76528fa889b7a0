"""Spans around the public functions of aoulab, installed from outside.

The library is not modified: a Tracer replaces each traced function by a
wrapper on every module (and class) that holds a reference to it, because
aoulab modules import their helpers by name (``from .lp import solve_lp``)
and a wrapper on the defining module alone would miss those calls.  Spans
are kept in flat lists in memory and written out once, at the end of a run;
``restore`` puts every original back.

A span records its name, start, end, parent span and request index.  Self
time is the span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from time import perf_counter

# Layers, in the order the metrics are reported.  A layer traces every public
# function its module defines, minus SKIP: helpers called per entry or per
# number, whose spans would cost more than the work they time.
LAYERS = (
    "linalg",
    "lp",
    "dd",
    "psd",
    "cones",
    "spaces",
    "maps",
    "tensors",
    "psd_examples",
    "serialize",
    "cli",
)
ONLY = {"linalg": ("rank", "nullspace", "solve", "det", "inverse")}
SKIP = {
    "cones": ("sym_dim", "pack_sym", "unpack_sym"),
    "tensors": ("kron_vec",),
    "serialize": ("decode_frac",),
}
# Methods traced on classes: the certificate checks (cones.cert_verify_s).
METHODS = (("cones", "Certificate", "verify"), ("psd_examples", "TensorVerdict", "verify"))

_MARK = "__bench_wrapped__"


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the union of its direct
    children's intervals, clipped to the span itself."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            elif ce > cur_e:
                cur_e = ce
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(max(e - s - covered, 0.0))
    return out


def _bits(values) -> int:
    best = 0
    for x in values or ():
        if isinstance(x, Fraction):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
        else:
            best = max(best, int(x).bit_length())
    return best


class Tracer:
    """Install with ``install()``, group work with ``request(i, kind)``,
    undo with ``restore()``."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self._stack: list[int] = []
        self._req = -1
        self._patches: list[tuple[object, str, object]] = []
        # per-call observations, turned into metrics after the run
        self.lp_calls: list[tuple[int, str, int, int, object, object]] = []
        self.dd_calls: list[tuple[int, int]] = []
        self.hits: dict[str, list[bool]] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._req)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def request(self, index: int, kind: str, fn):
        """Run fn() as request `index`, under a root span named after kind."""
        self._req = index
        idx = self._open("request:" + kind)
        try:
            return fn()
        finally:
            self._close(idx)
            self._req = -1

    def add_spans(self, name: str, intervals) -> None:
        """Record leaf spans after the fact, each under the innermost span
        that was open when it started (spans nest, so a stack sweep finds
        it)."""
        order = sorted(range(len(self.starts)), key=self.starts.__getitem__)
        stack: list[int] = []
        k = 0
        for s, e in sorted(intervals):
            while k < len(order) and self.starts[order[k]] <= s:
                while stack and self.ends[stack[-1]] <= self.starts[order[k]]:
                    stack.pop()
                stack.append(order[k])
                k += 1
            while stack and self.ends[stack[-1]] <= s:
                stack.pop()
            parent = stack[-1] if stack else -1
            self.names.append(name)
            self.starts.append(s)
            self.ends.append(e)
            self.parents.append(parent)
            self.requests.append(self.requests[parent] if parent >= 0 else -1)

    # -- installation ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        before, after = self._hooks(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe = before(args) if before else None
            idx = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if after:
                after(idx, args, result, probe)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _hooks(self, name: str):
        if name == "lp.solve_lp":
            def after(idx, args, out, _):
                sys_ = out.system
                self.lp_calls.append(
                    (idx, out.status, len(sys_.rows), len(sys_.objective), out.primal, out.dual_certificate)
                )
            return None, after
        if name == "dd.dd_pair":
            def after(idx, args, out, _):
                lin, rays = out
                self.dd_calls.append((len(args[0]), len(lin) + len(rays)))
            return None, after
        if name == "spaces.extreme_states":
            def before(args):
                derived = getattr(args[0], "_derived", None)
                return None if derived is None else "extreme_states" in derived
            def after(idx, args, out, hit):
                if hit is not None:
                    self.hits.setdefault(name, []).append(hit)
            return before, after
        if name == "tensors.tensor_space":
            tensors = sys.modules["aoulab.tensors"]
            def before(args):
                cache = getattr(tensors, "_TENSOR_CACHE", None)
                return None if cache is None else len(cache)
            def after(idx, args, out, size):
                if size is not None:
                    self.hits.setdefault(name, []).append(len(tensors._TENSOR_CACHE) == size)
            return before, after
        return None, None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = {n: m for n, m in sys.modules.items() if n == "aoulab" or n.startswith("aoulab.")}
        for layer in LAYERS:
            mod = pkg["aoulab." + layer]
            names = ONLY.get(layer) or [
                n
                for n, v in vars(mod).items()
                if not n.startswith("_")
                and callable(v)
                and getattr(v, "__module__", None) == mod.__name__
                and type(v).__name__ == "function"
                and n not in SKIP.get(layer, ())
            ]
            for n in names:
                original = getattr(mod, n)
                wrapper = self._wrapper(f"{layer}.{n}", original)
                for holder in pkg.values():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(pkg["aoulab." + layer], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrapper(f"{layer}.{cls_name}.{meth}", original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.starts)):
                fh.write(
                    json.dumps(
                        [i, self.names[i], self.starts[i], self.ends[i], self.parents[i], self.requests[i]]
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Per-span-name call counts, self and total seconds, plus the raw
        per-layer observations the metrics are made from."""
        selfs = self_times(self.starts, self.ends, self.parents)
        by_name: dict[str, list[float]] = {}
        for i, name in enumerate(self.names):
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += selfs[i]
            row[2] += self.ends[i] - self.starts[i]
        lp_parent_member = 0
        for idx, *_ in self.lp_calls:
            p = self.parents[idx]
            if p >= 0 and self.names[p] == "cones.member":
                lp_parent_member += 1
        return {
            "by_name": by_name,
            "lp": {
                "calls": len(self.lp_calls),
                "rows": sum(c[2] for c in self.lp_calls),
                "cols": sum(c[3] for c in self.lp_calls),
                "infeasible": sum(1 for c in self.lp_calls if c[1] == "infeasible"),
                "max_bits": max((max(_bits(c[4]), _bits(c[5])) for c in self.lp_calls), default=0),
                "under_member": lp_parent_member,
            },
            "dd": {
                "calls": len(self.dd_calls),
                "rows_in": sum(c[0] for c in self.dd_calls),
                "rays_out": sum(c[1] for c in self.dd_calls),
            },
            "hits": {k: (sum(v), len(v)) for k, v in self.hits.items()},
        }


def installed_wrappers() -> list[str]:
    """Names in aoulab modules and traced classes that still hold a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "aoulab" and not name.startswith("aoulab."):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, _MARK, False):
                        found.append(f"{name}.{attr}.{meth}")
    return found
