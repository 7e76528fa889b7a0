"""Fraction budgets: the constructions cProfile counts on paths that keep
the double description's integer rows until a public function returns.

A count above its budget means Fractions are built and taken apart again
somewhere between the decoder, the DD and the returned values."""

import cProfile
import io
import pstats

from aoulab.cli import main
from aoulab.serialize import dumps
from aoulab.spaces import extreme_states, lin_space, linf, unit_ball_vertices, validate


def fractions_built(fn) -> int:
    """The Fraction.__new__ calls made while fn() runs."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(
        stat[1]
        for (path, _, name), stat in pstats.Stats(prof).stats.items()
        if path.endswith("fractions.py") and name == "__new__"
    )


def test_cold_states_build_one_fraction_per_coordinate():
    # lin_space(3) has 8 states in dimension 4: 32 coordinates, plus at
    # most one scale per state
    assert fractions_built(lambda: extreme_states(lin_space(3))) <= 40


def test_cold_structure_request_builds_only_returned_coordinates():
    # a fresh lin_space(3) and its states, ball and validate: 8 states and
    # 8 ball vertices of 4 coordinates each, and no Fraction besides
    def request():
        sp = lin_space(3)
        return extreme_states(sp), unit_ball_vertices(sp), validate(sp)

    request()
    assert fractions_built(request) <= 64


def test_floor_request_budget(tmp_path):
    # the cheapest report and its verify: `states` of lin_space(1), whose
    # two states of two coordinates come out of the decoded file, once for
    # the report and once for its re-run, and the unit's two entries, once
    # per decode; the cone's integer rows are decoded as ints
    space, report = tmp_path / "space.json", tmp_path / "report.json"
    space.write_text(dumps(lin_space(1)))

    def request():
        out = io.StringIO()
        assert main(["states", str(space), "--format", "json"], out=out) == 0
        report.write_text(out.getvalue())
        assert main(["verify", str(report)], out=io.StringIO()) == 0

    request()
    assert fractions_built(request) <= 12


def test_refused_quotient_budget(tmp_path, capsys):
    # `quotient linf(4) --kernel [[1,1,0,0]]` is refused with its (p, q)
    # witness; the generators behind the image cone are picked from its
    # integer rows, with no Fraction image per generator
    space = tmp_path / "space.json"
    space.write_text(dumps(linf(4)))

    def request():
        assert main(["quotient", str(space), "--kernel", "[[1,1,0,0]]"], out=io.StringIO()) == 2

    request()
    assert fractions_built(request) <= 63
    assert "not an order ideal" in capsys.readouterr().err
