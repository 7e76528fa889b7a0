"""Front end: verbs, exit codes, canonical output, and the verify pass."""

import io
import json
from fractions import Fraction

import pytest

from aoulab.cli import _VERBS, _build_parser, main
from aoulab.cones import Cone
from aoulab.linalg import Matrix
from aoulab.maps import UnitalMap
from aoulab.serialize import dumps
from aoulab.spaces import AOUSpace, lin_space, linf
from aoulab.tensors import TensorElement


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(dumps(obj) if not isinstance(obj, str) else obj)
        paths[name] = str(p)
        return str(p)

    write("linf1.json", linf(1))
    write("linf2.json", linf(2))
    write("linf3.json", linf(3))
    write("lin2.json", lin_space(2))
    write(
        "avg.json",
        UnitalMap(linf(2), linf(1), Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2))])),
    )
    write(
        "skew.json",
        UnitalMap(
            linf(2),
            linf(2),
            Matrix.from_rows([(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(3, 2))]),
        ),
    )
    write("elem.json", TensorElement(linf(2), linf(2), Matrix.from_rows([(1, -2), (0, 3)])))
    paths["dir"] = str(tmp_path)
    paths["write"] = write
    return paths


class TestExitCodes:
    def test_computed_is_zero_even_for_negative_verdicts(self, files):
        code, out = run(["nuclear", files["lin2.json"]])
        assert code == 0 and out.strip() == "false"

    def test_unknown_verb_is_usage(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage(self, files):
        assert main(["norm", files["linf2.json"]]) == 1

    def test_missing_file_is_input_error(self):
        assert main(["validate", "no-such-file.json"]) == 2

    def test_bad_vector_is_input_error(self, files):
        assert main(["norm", files["linf2.json"], "--vector", "[1,-1"]) == 2

    def test_wrong_object_type_is_input_error(self, files):
        assert main(["check-map", files["linf2.json"]]) == 2

    def test_version_mismatch_is_input_error(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        text = (tmp_path / "linf2.json").read_text().replace('"version": 1', '"version": 9')
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 2


class TestParserReuse:
    def test_one_parser_serves_a_call_sequence(self, files, tmp_path, capsys):
        # a verb, a usage error, then verify of the verb's report, as a
        # long-running caller would issue them
        report = tmp_path / "report.json"

        def sequence(fresh_parser):
            results = []
            for argv in (
                ["validate", files["lin2.json"], "--format", "json"],
                ["norm", files["linf2.json"]],
                ["verify", str(report)],
            ):
                if fresh_parser:
                    _build_parser.cache_clear()
                code, out = run(argv)
                if argv[0] == "validate":
                    report.write_text(out)
                results.append((code, out, capsys.readouterr().err))
            return results

        fresh = sequence(True)
        _build_parser.cache_clear()
        reused = sequence(False)
        assert _build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0]
        assert "required: --vector" in reused[1][2]
        assert reused[2][1] == "true\n"


class TestScalarVerbs:
    def test_norm_prints_the_value(self, files):
        code, out = run(["norm", files["linf2.json"], "--vector", "[1,-1]"])
        assert code == 0 and out == "1\n"

    def test_norm_accepts_rational_strings(self, files):
        code, out = run(["norm", files["lin2.json"], "--vector", '["1/2", 0, "1/2"]'])
        assert code == 0 and out == "1\n"

    def test_tensor_norm(self, files):
        code, out = run(["tensor-norm", files["elem.json"]])
        assert code == 0 and out == "3\n"


class TestReports:
    def test_validate_json(self, files):
        code, out = run(["validate", files["linf2.json"], "--format", "json"])
        d = json.loads(out)
        assert code == 0
        assert d["verb"] == "validate" and d["version"] == 1
        assert d["order_unit"] and d["archimedean"] and d["pointed"]

    def test_json_output_is_deterministic(self, files):
        a = run(["states", files["lin2.json"], "--format", "json"])
        b = run(["states", files["lin2.json"], "--format", "json"])
        assert a == b

    def test_nuclear_pair_shape(self, files):
        code, out = run(
            ["nuclear-pair", files["lin2.json"], files["lin2.json"], "--format", "json"]
        )
        d = json.loads(out)
        assert code == 0
        assert d["nuclear"] is False
        assert d["witness"]["coeffs"] == [
            ["2", "0", "0"],
            ["0", "-1", "-1"],
            ["0", "-1", "1"],
        ]
        assert d["pi_certificate"]["verdict"] == "non_member"

    def test_check_map_flags(self, files):
        code, out = run(["check-map", files["avg.json"], "--format", "json"])
        d = json.loads(out)
        assert code == 0
        assert d["unital"] and d["positive"]
        assert not d["order_embedding"] and not d["isometry"]

    def test_quotient_and_factorize(self, files):
        code, out = run(
            ["quotient", files["linf3.json"], "--kernel", "[[0,1,-1]]", "--format", "json"]
        )
        assert code == 0 and json.loads(out)["space"]["dim"] == 2
        code, out = run(["factorize", files["lin2.json"], "--format", "json"])
        d = json.loads(out)
        assert code == 0
        assert d["defect"] == "1/2" and d["success"] is False
        assert d["schedule"] == [[3, "1"], [4, "1/2"]]

    def test_factorize_negative_eps_exits_two(self, files, capsys):
        capsys.readouterr()
        code, out = run(["factorize", files["lin2.json"], "--eps", "-1"])
        err = capsys.readouterr().err
        assert_invalid_input(code, out, err)
        assert "eps must be nonnegative" in err

    def test_extend_infeasible_exits_two(self, files):
        # asks for a functional of norm three on a norm-one element
        code = main(
            [
                "extend",
                files["lin2.json"],
                files["linf2.json"],
                "--basis",
                "[[1,0,0],[0,1,0]]",
                "--values",
                "[[1,1],[3,3]]",
            ]
        )
        assert code == 2


class TestRoundtrip:
    def test_canonicalizes_rationals(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(
            json.dumps(
                {
                    "version": 1,
                    "type": "space",
                    "label": "x",
                    "dim": 1,
                    "unit": ["2/4"],
                    "cone": {"rep": "generators", "rows": [["6/4"]]},
                }
            )
        )
        code, out = run(["roundtrip", str(p)])
        assert code == 0
        d = json.loads(out)
        assert d["unit"] == ["1/2"] and d["cone"]["rows"] == [["3/2"]]

    def test_idempotent_and_preserves_strict_flags(self, tmp_path):
        p = tmp_path / "strict.json"
        p.write_text(
            json.dumps(
                {
                    "version": 1,
                    "type": "space",
                    "label": "s",
                    "dim": 2,
                    "unit": ["1", "1"],
                    "cone": {
                        "rep": "inequalities",
                        "rows": [["1", "0"], ["0", "1"]],
                        "strict": [True, False],
                    },
                }
            )
        )
        code, once = run(["roundtrip", str(p)])
        assert code == 0
        assert json.loads(once)["cone"]["strict"] == [True, False]
        q = tmp_path / "canon.json"
        q.write_text(once)
        code, twice = run(["roundtrip", str(q)])
        assert code == 0 and once == twice


# one verify round trip per report verb; a verb added to the table without a
# case here fails the parametrized test below.  Test ids number the cases in
# this order (argv0, argv1, ...), so a new case goes at the end.
ROUND_TRIPS = {
    "validate": ["validate", "{linf2}"],
    "norm": ["norm", "{linf2}", "--vector", "[1,-1]"],
    "states": ["states", "{lin2}"],
    "archimedeanize": ["archimedeanize", "{linf2}"],
    "quotient": ["quotient", "{linf3}", "--kernel", "[[0,1,-1]]"],
    "check-map": ["check-map", "{avg}"],
    "pert": ["pert", "{skew}"],
    "perturb": ["perturb", "{skew}"],
    "auerbach": ["auerbach", "{lin2}"],
    "tensor-member": ["tensor-member", "{elem}", "--kind", "pi"],
    "tensor-norm": ["tensor-norm", "{elem}"],
    "nuclear": ["nuclear", "{lin2}"],
    "nuclear-pair": ["nuclear-pair", "{lin2}", "{lin2}"],
    "factorize": ["factorize", "{lin2}"],
    "extend": ["extend", "{lin2}", "{linf2}", "--basis", "[[1,0,0],[0,1,0]]", "--values", "[[1,1],[1,-1]]"],
    "examples": ["examples", "paper"],
}


def round_trip_id(verb):
    return f"argv{list(ROUND_TRIPS).index(verb)}" if verb in ROUND_TRIPS else verb


def fresh_report(files, argv) -> str:
    sub = {f"{{{name[:-5]}}}": path for name, path in files.items() if name.endswith(".json")}
    code, out = run([sub.get(a, a) for a in argv] + ["--format", "json"])
    assert code == 0
    return out


class TestVerify:
    @pytest.mark.parametrize("verb", list(_VERBS), ids=round_trip_id)
    def test_fresh_reports_verify(self, files, tmp_path, verb):
        report = tmp_path / "report.json"
        report.write_text(fresh_report(files, ROUND_TRIPS[verb]))
        code, out = run(["verify", str(report)])
        assert code == 0 and out.strip() == "true"

    def test_tampered_report_fails(self, files, tmp_path):
        code, out = run(["norm", files["linf2.json"], "--vector", "[1,-1]", "--format", "json"])
        d = json.loads(out)
        d["norm"] = "2"
        report = tmp_path / "tampered.json"
        report.write_text(json.dumps(d))
        code, out = run(["verify", str(report)])
        assert code == 3 and out.strip() == "false"

    def test_non_report_rejected(self, files):
        assert main(["verify", files["linf2.json"]]) == 2


# cone objects a space file may hold that are not cones; the space around
# them is linf(1), so a bool n would otherwise pass as a 1 x 1 PSD cone
MALFORMED_CONES = {
    "sym_psd_without_n": {"rep": "sym_psd"},
    "sym_psd_string_n": {"rep": "sym_psd", "n": "x"},
    "sym_psd_list_n": {"rep": "sym_psd", "n": [2]},
    "sym_psd_bool_n": {"rep": "sym_psd", "n": True},
    "strict_not_a_list": {"rep": "inequalities", "rows": [["1"]], "strict": 5},
}
# space fields that are not what they claim; around linf(1) a bool dim would
# otherwise pass as dimension 1
MALFORMED_SPACE_FIELDS = {
    "bool_dim": {"dim": True},
}


def assert_invalid_input(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("aoulab: invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("cone", list(MALFORMED_CONES.values()), ids=list(MALFORMED_CONES))
def test_malformed_cone_in_space_file(files, tmp_path, capsys, cone):
    d = json.loads(open(files["linf1.json"]).read())
    d["cone"] = cone
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    code, out = run(["validate", str(path)])
    assert_invalid_input(code, out, capsys.readouterr().err)


@pytest.mark.parametrize(
    "fields", list(MALFORMED_SPACE_FIELDS.values()), ids=list(MALFORMED_SPACE_FIELDS)
)
def test_malformed_field_in_space_file(files, tmp_path, capsys, fields):
    d = json.loads(open(files["linf1.json"]).read())
    d.update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    code, out = run(["validate", str(path)])
    assert_invalid_input(code, out, capsys.readouterr().err)


# spaces whose cone contains a line, with the lineality basis each reports:
# all of Q^3 from five generators, and the half-plane {x1 >= 0}
NON_POINTED_SPACES = {
    "whole_space": (
        AOUSpace(
            3,
            Cone.from_generators([(-2, 1, 1), (-2, -1, 1), (0, 2, 1), (-3, 1, -3), (3, 0, -1)]),
            (-4, 3, -1),
        ),
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    ),
    "half_plane": (AOUSpace(2, Cone.from_generators([(1, 0), (0, 1), (0, -1)]), (1, 0)), [["0", "1"]]),
}


@pytest.mark.parametrize("name", list(NON_POINTED_SPACES))
@pytest.mark.parametrize("verb", ["states", "nuclear-pair"])
def test_non_pointed_space_is_invalid_input(files, capsys, name, verb):
    space, lineality = NON_POINTED_SPACES[name]
    path = files["write"](f"{name}.json", space)
    argv = [verb, path] + ([files["linf2.json"]] if verb == "nuclear-pair" else [])
    capsys.readouterr()
    code, out = run(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err[0] == "aoulab: invalid input: cone is not pointed (it contains a line); states do not separate points"
    assert json.loads(err[1].removeprefix("aoulab: certificate: ")) == lineality


# spaces whose unit is not an order unit, with the one cone row each
# reports: the orthant with a unit on a facet and with one outside the cone,
# and {x0 >= 0, x1 >= 0} in Q^3, whose closure has a line, with unit (1, 0, 0)
BAD_UNIT_SPACES = {
    "unit_on_facet": (AOUSpace(2, linf(2).cone, (1, 0)), ["0", "1"]),
    "unit_outside": (AOUSpace(2, linf(2).cone, (1, -1)), ["0", "1"]),
    "quadrant_in_q3": (
        AOUSpace(3, Cone.from_inequalities([(1, 0, 0), (0, 1, 0)]), (1, 0, 0)),
        ["0", "1", "0"],
    ),
}


@pytest.mark.parametrize("name", list(BAD_UNIT_SPACES))
@pytest.mark.parametrize("verb", ["auerbach", "factorize", "archimedeanize"])
def test_unit_that_is_no_order_unit_is_invalid_input(files, capsys, name, verb):
    space, row = BAD_UNIT_SPACES[name]
    path = files["write"](f"{name}.json", space)
    capsys.readouterr()
    code, out = run([verb, path])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err[0] == "aoulab: invalid input: the unit is not an order unit: a cone row is not positive on it"
    assert json.loads(err[1].removeprefix("aoulab: certificate: ")) == row


class TestMalformedReports:
    # a hand-edited report is invalid input (exit 2), never a traceback
    def verify_edited(self, files, tmp_path, capsys, argv, edit):
        d = json.loads(fresh_report(files, argv))
        edit(d)
        report = tmp_path / "edited.json"
        report.write_text(json.dumps(d))
        capsys.readouterr()
        code, out = run(["verify", str(report)])
        err = capsys.readouterr().err
        assert_invalid_input(code, out, err)
        return err

    @pytest.mark.parametrize("cone", list(MALFORMED_CONES.values()), ids=list(MALFORMED_CONES))
    def test_malformed_cone(self, files, tmp_path, capsys, cone):
        def edit(d):
            d["inputs"]["space"]["cone"] = cone

        self.verify_edited(files, tmp_path, capsys, ["validate", "{linf1}"], edit)

    @pytest.mark.parametrize(
        "fields", list(MALFORMED_SPACE_FIELDS.values()), ids=list(MALFORMED_SPACE_FIELDS)
    )
    def test_malformed_space_field(self, files, tmp_path, capsys, fields):
        def edit(d):
            d["inputs"]["space"].update(fields)

        self.verify_edited(files, tmp_path, capsys, ["validate", "{linf1}"], edit)

    def test_missing_inputs(self, files, tmp_path, capsys):
        self.verify_edited(files, tmp_path, capsys, ["nuclear", "{lin2}"], lambda d: d.pop("inputs"))

    def test_list_inputs(self, files, tmp_path, capsys):
        def edit(d):
            d["inputs"] = [d["inputs"]["space"]]

        self.verify_edited(files, tmp_path, capsys, ["nuclear", "{lin2}"], edit)

    def test_verb_that_is_no_string(self, files, tmp_path, capsys):
        def edit(d):
            d["verb"] = [d["verb"]]

        self.verify_edited(files, tmp_path, capsys, ["nuclear", "{lin2}"], edit)

    def test_missing_input_key(self, files, tmp_path, capsys):
        argv = ["norm", "{linf2}", "--vector", "[1,-1]"]
        err = self.verify_edited(files, tmp_path, capsys, argv, lambda d: d["inputs"].pop("vector"))
        assert "vector" in err

    def test_unexpected_input_key(self, files, tmp_path, capsys):
        def edit(d):
            d["inputs"]["extra"] = 1

        self.verify_edited(files, tmp_path, capsys, ["nuclear", "{lin2}"], edit)

    def test_bad_rational_eps(self, files, tmp_path, capsys):
        def edit(d):
            d["inputs"]["eps"] = "abc"

        err = self.verify_edited(files, tmp_path, capsys, ["factorize", "{lin2}"], edit)
        assert "'abc'" in err

    def test_examples_choice_outside_the_table(self, files, tmp_path, capsys):
        def edit(d):
            d["inputs"]["which"] = "textbook"

        err = self.verify_edited(files, tmp_path, capsys, ["examples", "paper"], edit)
        assert "paper" in err and "'textbook'" in err


class TestExamples:
    def test_reference_examples_all_match(self):
        code, out = run(["examples", "paper", "--format", "json"])
        d = json.loads(out)
        assert code == 0
        assert d["all_match"] is True
        assert d["matrix_examples"]["bell"] == {
            "psd": "member",
            "pi": "non_member",
            "epsilon": "member",
        }
        assert d["matrix_examples"]["swap"]["psd"] == "non_member"
        assert d["lin_space_2_square_nuclear"] is False
        assert d["non_nuclearity_witness"]["coeffs"][0] == ["2", "0", "0"]

    def test_examples_verify_roundtrip(self, tmp_path):
        code, out = run(["examples", "paper", "--format", "json"])
        report = tmp_path / "examples.json"
        report.write_text(out)
        code, out = run(["verify", str(report)])
        assert code == 0 and out.strip() == "true"


class TestNormsFromEvidence:
    @pytest.mark.parametrize(
        "verb, name",
        [
            ("pert", "skew.json"),
            ("perturb", "skew.json"),
            ("auerbach", "lin2.json"),
            ("auerbach", "linf3.json"),
        ],
    )
    def test_report_solves_no_order_norm_lp(self, files, monkeypatch, tmp_path, verb, name):
        # pert and perturb read their norms off their minimal measures and
        # rank-one correction, auerbach its unit norms off the cone rows and
        # the dual basis; the order norm is the only LP aoulab.spaces poses
        import aoulab.spaces

        def no_lp(*args, **kwargs):
            raise AssertionError("order-norm LP solved")

        monkeypatch.setattr(aoulab.spaces, "solve_lp", no_lp)
        code, out = run([verb, files[name], "--format", "json"])
        assert code == 0
        report = tmp_path / "report.json"
        report.write_text(out)
        assert run(["verify", str(report)]) == (0, "true\n")
        d = json.loads(out)
        if verb == "pert":
            assert (d["norm"], d["distance"]) == ("2", "1")
        elif verb == "perturb":
            assert (d["norm"], d["bound"]) == ("2", "2")
