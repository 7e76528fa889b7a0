"""aoulab benchmark: one closed-loop caller, seeded workloads, exact oracles.

    python3 bench/run.py --workload norm-queries --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``aoulab`` from its
``src`` directory.  One process, one caller: each request waits for the
previous one.  Requests follow a fixed cycle of kinds (the seed drives only
their data); the timed phase runs whole cycles until at least ``--seconds``
have passed and at least MIN_REQUESTS requests have completed, so the 90th
percentile has ten samples beyond it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
same loop untraced for half the time, then replays exactly those requests
with spans installed around every public aoulab function, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is the result object; the line before it is a detail object with the
environment, the per-kind latency breakdown and, when tracing, layer shares.
See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Tracer, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

MIN_REQUESTS = 100
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark itself cannot run here (not a failed request)."""


def import_aoulab():
    """Import aoulab fresh from this checkout's src (dropping any earlier
    import, so each set-up pays for the import)."""
    for name in [n for n in sys.modules if n == "aoulab" or n.startswith("aoulab.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import aoulab
        import aoulab.cli  # noqa: F401  (not re-exported by the package)
    except ImportError as exc:
        raise BenchError(f"cannot import aoulab from {src}: {exc}") from exc
    if not Path(aoulab.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"aoulab imported from {aoulab.__file__}, not from {src}")
    return aoulab


REF_EVERY_S = 0.05
REF_WINDOW_S = 1.0
REF_MIN_INSIDE = 5
REF_NOMINAL_S = 1e-3


_REF_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(8)] for i in range(7)]


def reference_unit() -> None:
    """Fixed stdlib work used as the yardstick of machine speed: exact
    Gauss-Jordan elimination of a 7x8 rational matrix, the same list and
    Fraction work as the simplex pivots aoulab spends its time in."""
    rows = [list(r) for r in _REF_MATRIX]
    n = len(rows)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]


class SpeedProbe:
    """Times reference_unit() every REF_EVERY_S from a SIGALRM handler, so
    that the machine's speed is sampled during long requests too.

    On a shared host the speed of the same code drifts by up to 2x over tens
    of seconds.  A request's cost in reference units is its latency, less the
    probe's own time inside it, divided by the median reference time taken
    during it (or within REF_WINDOW_S of it, for short requests).  That
    drift does not move the cost."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def _tick(self, *_):
        t0 = time.perf_counter()
        reference_unit()
        self.times.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def inside(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.times, start)
        return self.costs[lo : bisect.bisect_left(self.times, end)]

    def speed(self, start: float, end: float) -> float:
        costs = self.inside(start, end)
        if len(costs) < REF_MIN_INSIDE:
            costs = self.inside(start - REF_WINDOW_S, end + REF_WINDOW_S)
        return statistics.median(costs)


@dataclass
class Row:
    kind: str
    label: str
    start: float
    latency: float
    error: str | None
    ref: float = 0.0

    @property
    def cost(self) -> float:
        """Latency in reference units."""
        return self.latency / self.ref


def run_loop(wl, seconds: float, min_requests: int, count: int | None = None, tracer=None):
    """Closed loop over requests 0, 1, ...; returns one Row per request.
    With `count`, runs exactly that many; otherwise whole cycles until
    `seconds` have passed and `min_requests` have completed."""
    rows, intervals = [], []
    cycle = len(wl.cycle)
    with SpeedProbe() as probe:
        t_end = time.perf_counter() + seconds
        i = 0
        while True:
            if count is not None:
                if i >= count:
                    break
            elif i % cycle == 0 and i >= min_requests and time.perf_counter() >= t_end:
                break
            req = wl.request(i)
            t0 = time.perf_counter()
            try:
                got = tracer.request(i, req.kind, req.call) if tracer else req.call()
                error = None
            except Exception as exc:  # a raising request is a failed request
                got, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if error is None:
                try:
                    req.check(got)
                except Mismatch as exc:
                    error = f"wrong answer: {exc}"
            rows.append(Row(req.kind, req.label, t0, t1 - t0, error))
            intervals.append((t0, t1))
            i += 1
    if tracer:
        # the probe interrupted whatever span was open; book its time to a
        # span of its own so that it counts in no layer's self time
        tracer.add_spans("request:probe", [(t, t + c) for t, c in zip(probe.times, probe.costs)])
    for row, (t0, t1) in zip(rows, intervals):
        row.latency -= sum(probe.inside(t0, t1))
        row.ref = probe.speed(t0, t1)
    return rows


def quantile(xs, q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(rows, setup_s: float) -> dict:
    """The gated metrics: costs in reference units, set-up time and memory."""
    cost = [r.cost for r in rows]
    return {
        "ops_per_kref": {"value": 1e3 * len(cost) / sum(cost), "unit": "1/kref"},
        "latency_p50_ref": {"value": statistics.median(cost), "unit": "ref"},
        "latency_p90_ref": {"value": quantile(cost, 0.90), "unit": "ref"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def wall_clock(rows, setup_s: float) -> dict:
    """The same run in wall-clock units, with the failure ratio."""
    lat = [r.latency for r in rows]
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": quantile(lat, 0.90) * 1e3, "unit": "ms"},
        "failed_ratio": {"value": sum(r.error is not None for r in rows) / len(rows), "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "reference_unit_ms": {"value": statistics.median(r.ref for r in rows) * 1e3, "unit": "ms"},
    }


def breakdown(rows) -> list:
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.kind, r.label), []).append(r)
    return [
        {
            "kind": k,
            "label": l,
            "n": len(v),
            "median_ms": statistics.median(r.latency for r in v) * 1e3,
            "median_ref": statistics.median(r.cost for r in v),
        }
        for (k, l), v in sorted(groups.items())
    ]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_of(span_name: str) -> str:
    """Layer of a span; time a request spends outside every traced function
    is 'unattributed' (benchmark glue and untraced library code), and the
    speed probe's own spans are 'probe'."""
    if span_name == "request:probe":
        return "probe"
    return "unattributed" if span_name.startswith("request:") else span_name.split(".")[0]


def per_layer(summary: dict, n: int, overhead: float) -> dict:
    """Per-layer metrics; times and call counts are per traced request."""
    by = summary["by_name"]

    def self_s(*names):
        return sum(by.get(x, (0, 0.0, 0.0))[1] for x in names) / n

    def layer_self(layer):
        return sum(v[1] for k, v in by.items() if layer_of(k) == layer) / n

    def calls(*names):
        return sum(by.get(x, (0, 0, 0))[0] for x in names) / n

    def layer_calls(layer):
        return sum(v[0] for k, v in by.items() if layer_of(k) == layer) / n

    def hit_ratio(name):
        hits, total = summary["hits"].get(name, (0, 0))
        return _ratio(hits, total)

    lp, dd = summary["lp"], summary["dd"]
    member_calls = by.get("cones.member", (0,))[0]
    m = {
        "lp.calls": (lp["calls"] / n, "1/req"),
        "lp.self_s": (layer_self("lp"), "s/req"),
        "lp.verify_s": (self_s("lp.verify_outcome"), "s/req"),
        "lp.rows_mean": (_ratio(lp["rows"], lp["calls"]), "count"),
        "lp.cols_mean": (_ratio(lp["cols"], lp["calls"]), "count"),
        "lp.infeasible_share": (_ratio(lp["infeasible"], lp["calls"]), "ratio"),
        "lp.max_bits": (lp["max_bits"], "bits"),
        "dd.calls": (dd["calls"] / n, "1/req"),
        "dd.self_s": (layer_self("dd"), "s/req"),
        "dd.rows_in": (_ratio(dd["rows_in"], dd["calls"]), "count"),
        "dd.rays_out": (_ratio(dd["rays_out"], dd["calls"]), "count"),
        "linalg.calls": (layer_calls("linalg"), "1/req"),
        "linalg.self_s": (layer_self("linalg"), "s/req"),
        "psd.calls": (layer_calls("psd"), "1/req"),
        "psd.self_s": (layer_self("psd"), "s/req"),
        "cones.member.calls": (calls("cones.member"), "1/req"),
        "cones.member.self_s": (self_s("cones.member"), "s/req"),
        "cones.member.lp_share": (_ratio(lp["under_member"], member_calls), "ratio"),
        "cones.extreme_rays.calls": (calls("cones.extreme_rays"), "1/req"),
        "cones.extreme_rays.self_s": (self_s("cones.extreme_rays"), "s/req"),
        "cones.same_cone.self_s": (self_s("cones.same_cone"), "s/req"),
        "cones.same_cone.total_s": (by.get("cones.same_cone", (0, 0.0, 0.0))[2] / n, "s/req"),
        "cones.cert_verify_s": (self_s("cones.Certificate.verify"), "s/req"),
        "spaces.order_norm.calls": (calls("spaces.order_norm"), "1/req"),
        "spaces.order_norm.self_s": (self_s("spaces.order_norm"), "s/req"),
        "spaces.extreme_states.self_s": (self_s("spaces.extreme_states"), "s/req"),
        "spaces.extreme_states.hit_ratio": (hit_ratio("spaces.extreme_states"), "ratio"),
        "spaces.vertices.self_s": (
            self_s("spaces.unit_ball_vertices", "spaces.order_interval_vertices"), "s/req"),
        "spaces.validate.self_s": (self_s("spaces.validate"), "s/req"),
        "maps.check_map.self_s": (self_s("maps.check_map"), "s/req"),
        "maps.is_order_quotient.self_s": (self_s("maps.is_order_quotient"), "s/req"),
        "maps.archimedean_quotient.self_s": (self_s("maps.archimedean_quotient"), "s/req"),
        "maps.operator_norm.self_s": (self_s("maps.operator_norm"), "s/req"),
        "maps.pert.self_s": (self_s("maps.pert", "maps.perturb"), "s/req"),
        "tensors.tensor_space.self_s": (self_s("tensors.tensor_space"), "s/req"),
        "tensors.tensor_space.hit_ratio": (hit_ratio("tensors.tensor_space"), "ratio"),
        "tensors.nuclear.self_s": (self_s("tensors.is_nuclear_pairwise", "tensors.is_nuclear_fd"), "s/req"),
        "tensors.factorize.self_s": (self_s("tensors.factorize"), "s/req"),
        "tensors.injective_norm.self_s": (self_s("tensors.injective_banach_norm"), "s/req"),
        "psd_examples.self_s": (layer_self("psd_examples"), "s/req"),
        "serialize.self_s": (layer_self("serialize"), "s/req"),
        "cli.self_s": (layer_self("cli"), "s/req"),
        "unattributed.self_s": (layer_self("unattributed"), "s/req"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.requests": (n, "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def layer_shares(summary: dict) -> dict:
    """Share of traced request time spent in each layer's own code."""
    totals: dict = {}
    for name, (_, self_time, _) in summary["by_name"].items():
        layer = layer_of(name)
        if layer != "probe":
            totals[layer] = totals.get(layer, 0.0) + self_time
    whole = sum(totals.values())
    return {k: round(v / whole, 4) for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has none
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aoulab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = BENCH / "out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not (ROOT / "src" / "aoulab").is_dir():
            raise BenchError(f"no aoulab sources under {ROOT / 'src'}")
        workdir.mkdir(parents=True, exist_ok=True)
        windows = []
        with SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                al = import_aoulab()
                wl = WORKLOADS[args.workload](al, args.seed, str(workdir))
                windows.append((t0, time.perf_counter()))
        setups = [t1 - t0 - sum(probe.inside(t0, t1)) for t0, t1 in windows]
        # gated: set-up cost in reference units, as seconds of a machine on
        # which reference_unit() takes REF_NOMINAL_S
        setup_s = REF_NOMINAL_S * statistics.median(
            wall / probe.speed(t0, t1) for wall, (t0, t1) in zip(setups, windows)
        )

        if args.trace == 0:
            rows = run_loop(wl, args.seconds, MIN_REQUESTS)
            metrics = end_to_end(rows, setup_s)
            attempted = rows
            extra = {}
        else:
            plain = run_loop(wl, args.seconds / 2, 0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_loop(wl, 0, 0, count=len(plain), tracer=tracer)
            finally:
                tracer.restore()
            left = installed_wrappers()
            if left:
                raise BenchError(f"wrappers left installed: {left}")
            overhead = sum(r.cost for r in traced) / sum(r.cost for r in plain)
            summary = tracer.summary()
            tracer.write_spans(str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl"))
            metrics = per_layer(summary, len(traced), overhead)
            attempted = plain + traced
            rows = plain
            extra = {
                "layer_shares": layer_shares(summary),
                "wall_overhead_ratio": sum(r.latency for r in traced) / sum(r.latency for r in plain),
            }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in attempted if r.error is not None]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "requests": len(rows),
        "cycle": len(wl.cycle),
        "setup_samples_s": setups,
        "end_to_end": end_to_end(rows, setup_s),
        "wall_clock": wall_clock(rows, statistics.median(setups)),
        "by_kind": breakdown(rows),
        "first_failures": [f"{r.kind} {r.label}: {r.error}" for r in failures[:5]],
        **extra,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(attempted),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
