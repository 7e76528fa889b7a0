"""Tests of the benchmark's own machinery: self-time arithmetic, wrapper
installation and removal, and agreement of the metric names with
BENCHMARK.json.  Run with ``python3 -m pytest bench``."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer, installed_wrappers, self_times  # noqa: E402


def test_self_time_without_children_is_duration():
    assert self_times([1.0], [3.5], [-1]) == [2.5]


def test_self_time_subtracts_nested_children_only_once():
    # root [0,10] has children [1,3] and [4,8]; [4,8] has a child [5,6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_merges_overlaps_and_clips_to_the_parent():
    # children [1,4] and [3,6] overlap; [9,12] sticks out of the parent [0,10]
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.fixture()
def al():
    return run.import_aoulab()


def test_wrappers_reach_every_import_and_are_restored(al):
    originals = {
        "lp": al.lp.solve_lp,
        "spaces": al.spaces.solve_lp,
        "verify": al.cones.Certificate.__dict__["verify"],
        "dd": al.dd.dd_pair,
    }
    space = al.lin_space(2)
    cone = al.Cone.from_generators([(1, 0), (1, 1)], 2)
    tracer = Tracer()
    tracer.install()
    try:
        assert al.spaces.solve_lp is not originals["spaces"]
        assert al.lp.solve_lp is al.spaces.solve_lp is al.solve_lp
        assert installed_wrappers()
        tracer.request(0, "norm", lambda: al.order_norm(space, (1, 1, -1)))
        tracer.request(1, "member", lambda: al.member(cone, (3, 1)).verify(cone, (3, 1)))
    finally:
        tracer.restore()
    assert installed_wrappers() == []
    assert al.lp.solve_lp is originals["lp"] and al.spaces.solve_lp is originals["spaces"]
    assert al.cones.Certificate.__dict__["verify"] is originals["verify"]
    assert al.dd.dd_pair is originals["dd"]

    names = tracer.names
    lp = names.index("lp.solve_lp")
    assert names[tracer.parents[lp]] == "spaces.order_norm"
    assert names[tracer.parents[names.index("lp.verify_outcome")]] == "lp.solve_lp"
    assert "dd.dd_pair" in names and "cones.Certificate.verify" in names
    assert set(tracer.requests) == {0, 1}
    summary = tracer.summary()
    assert summary["lp"]["under_member"] == names.count("cones.member") == 5
    assert summary["hits"]["spaces.extreme_states"] == (0, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rows = [run.Row("k", "l", float(i), 0.01 * (i + 1), None, 0.001) for i in range(20)]
    e2e = run.end_to_end(rows, 0.5)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    summary = Tracer().summary()
    layer = run.per_layer(summary, 1, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        got = e2e.get(m["name"]) or layer[m["name"]]
        assert got["unit"] == m["unit"]


def test_added_spans_nest_under_the_innermost_open_span():
    tracer = Tracer()
    # request 0 spans [0,10] with a child [2,6]; nothing is open at 12
    tracer.names += ["request:x", "lp.solve_lp"]
    tracer.starts += [0.0, 2.0]
    tracer.ends += [10.0, 6.0]
    tracer.parents += [-1, 0]
    tracer.requests += [0, 0]
    tracer.add_spans("request:probe", [(3.0, 3.5), (7.0, 7.5), (12.0, 12.5)])
    assert tracer.parents[2:] == [1, 0, -1]
    assert tracer.requests[2:] == [0, 0, -1]
    assert self_times(tracer.starts, tracer.ends, tracer.parents)[:2] == pytest.approx([5.5, 3.5])
