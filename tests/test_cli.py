"""Front end: verbs, exit codes, canonical output, and the verify pass."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import aoulab.cli
import aoulab.cones
import aoulab.maps
import aoulab.spaces
import aoulab.tensors
from aoulab.cli import _EVIDENCE_KEYS, _FORMAT, _META_KEYS, _VERBS, _parse, _plain, main
from aoulab.cones import Cone
from aoulab.errors import InvariantViolation
from aoulab.linalg import Matrix, inverse
from aoulab.maps import UnitalMap
from aoulab.psd_examples import WitnessReport
from aoulab.serialize import canonical_json, dumps, element_from_dict, map_from_dict, space_from_dict
from aoulab.spaces import AOUSpace, lin_space, linf
from aoulab.tensors import EPSILON, PI, TensorElement
from conftest import (
    argparse_parser, ball_scan_spaces, rand_vec, random_unital_into_linf, refused_norms, rerun_verifies, rng
)


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


# file contents no reader takes: bytes that are not UTF-8, and JSON nested
# past the interpreter's recursion limit
UNREADABLE = {"not_utf8": b"\xff\xfe{}", "nested_too_deep": b"[" * 200_000}


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

    @pytest.mark.parametrize("verb", ["validate", "verify", "roundtrip"])
    @pytest.mark.parametrize("name", list(UNREADABLE))
    def test_unreadable_file_is_input_error(self, tmp_path, capsys, verb, name):
        path = tmp_path / "bad.json"
        path.write_bytes(UNREADABLE[name])
        code, out = run([verb, str(path)])
        assert_invalid_input(code, out, capsys.readouterr().err)

    def test_vector_nested_too_deep_is_input_error(self, files, capsys):
        code, out = run(["norm", files["linf2.json"], "--vector", "[" * 200_000])
        assert_invalid_input(code, out, capsys.readouterr().err)

    def test_closed_stdout_ends_quietly(self, files, tmp_path):
        # stdout is a pipe whose reader has gone before the run starts: no
        # traceback on stderr, and the exit code the run would have had
        code, text = run(["norm", files["linf2.json"], "--vector", "[1,-1]", "--format", "json"])
        (tmp_path / "true.json").write_text(text)
        (tmp_path / "false.json").write_text(json.dumps(json.loads(text) | {"norm": "2"}))
        cases = [
            (["validate", files["linf2.json"]], 0),
            (["states", files["lin2.json"], "--format", "json"], 0),
            (["verify", str(tmp_path / "true.json")], 0),
            (["verify", str(tmp_path / "false.json"), "--format", "json"], 3),
            (["roundtrip", files["lin2.json"]], 0),
            (["-h"], 0),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(aoulab.cli.__file__).parents[1]))
        for argv, want in cases:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                argv = [sys.executable, "-m", "aoulab", *argv]
                proc = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (want, b""), argv


class TestCallSequence:
    def test_a_call_sequence_matches_fresh_calls(self, files, tmp_path, capsys):
        # a verb, a usage error, then verify of the verb's report, as a
        # long-running caller would issue them, against each call in a
        # fresh interpreter
        report = tmp_path / "report.json"
        sequence = (
            ["validate", files["lin2.json"], "--format", "json"],
            ["norm", files["linf2.json"]],
            ["verify", str(report)],
        )
        env = dict(os.environ, PYTHONPATH=str(Path(aoulab.cli.__file__).parents[1]))
        fresh, reused = [], []
        for argv in sequence:
            proc = subprocess.run(
                [sys.executable, "-m", "aoulab", *argv], env=env, capture_output=True, text=True, timeout=60
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
            if argv[0] == "validate":
                report.write_text(proc.stdout)
        for argv in sequence:
            code, out = run(argv)
            reused.append((code, out, capsys.readouterr().err))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0]
        assert reused[1][2] == "aoulab: error: norm requires --vector VECTOR\n"
        assert reused[2][1] == "true\n"


# -- argv against the verb table, with argparse as the oracle ------------------

# argument texts that neither parser reads as an option
TEXTS = ("a.json", "[1,-1]", "[[1,0,0],[0,1,0]]", "1/10", "x=y", "two words")


def valid_argv(r, verb) -> list[str]:
    """argv for the verb's row: each positional in table order, each
    required option, and each option with a default (--format too) half the
    time, as `--key value` or `--key=value`, in shuffled order among the
    positionals."""
    args = _VERBS[verb].args + (_FORMAT,)
    value = lambda a: r.choice(a.choices or TEXTS)
    options = [
        [f"--{a.key}={value(a)}"] if r.random() < 0.5 else [f"--{a.key}", value(a)]
        for a in args
        if a.option and (a.default is None or r.random() < 0.5)
    ]
    r.shuffle(options)
    positionals, argv = [[value(a)] for a in args if not a.option], [verb]
    while options or positionals:
        argv += (options if options and (not positionals or r.random() < 0.5) else positionals).pop(0)
    return argv


def malformed_argvs(verb) -> dict:
    """name -> argv that is the verb's full argv with one fault: an unknown
    option, an extra positional, a positional or required option missing, a
    value outside the choices, or an option with no value."""
    args = _VERBS[verb].args + (_FORMAT,)

    def argv(skip=None, bad=None, tail=()):
        words = [verb]
        for a in (a for a in args if a is not skip):
            value = "bogus" if a is bad else a.choices[0] if a.choices else "a.json"
            words += [f"--{a.key}", value] if a.option else [value]
        return words + list(tail)

    cases = {"unknown_option": argv(tail=["--bogus", "1"]), "extra_positional": argv(tail=["extra.json"])}
    for a in args:
        if not a.option or a.default is None:
            cases[f"missing_{a.key}"] = argv(skip=a)
        if a.choices:
            cases[f"bad_{a.key}"] = argv(bad=a)
        if a.option:
            cases[f"no_value_{a.key}"] = argv(skip=a, tail=[f"--{a.key}"])
    return cases


MALFORMED_ARGV = {
    "no_verb": [],
    "unknown_verb": ["frobnicate", "a.json"],
    "option_before_verb": ["--format", "json", "validate", "a.json"],
} | {f"{verb}:{name}": argv for verb in _VERBS for name, argv in malformed_argvs(verb).items()}


class TestTableParser:
    @pytest.mark.parametrize("verb", list(_VERBS))
    def test_valid_argv_parses_as_argparse_does(self, verb):
        r = rng(300 + list(_VERBS).index(verb))
        for _ in range(12):
            argv = valid_argv(r, verb)
            assert _parse(argv) == vars(argparse_parser().parse_args(argv)), argv

    @pytest.mark.parametrize("name", list(MALFORMED_ARGV))
    def test_malformed_argv_is_refused_by_both(self, capsys, name):
        argv = MALFORMED_ARGV[name]
        with pytest.raises(SystemExit) as exc:
            argparse_parser().parse_args(argv)
        assert exc.value.code == 1
        capsys.readouterr()
        assert run(argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("aoulab: error: ") and err.count("\n") == 1

    # where the grammar departs from argparse's, on purpose
    def test_abbreviated_option_is_refused(self, files):
        argv = ["validate", files["linf2.json"], "--form", "json"]
        assert argparse_parser().parse_args(argv).format == "json"
        assert main(argv) == 1

    def test_repeated_option_is_refused(self, files):
        argv = ["validate", files["linf2.json"], "--format", "json", "--format", "text"]
        assert argparse_parser().parse_args(argv).format == "text"
        assert main(argv) == 1

    def test_option_value_may_start_with_a_dash(self, files, capsys):
        argv = ["factorize", files["lin2.json"], "--eps", "-1/10"]
        with pytest.raises(SystemExit):
            argparse_parser().parse_args(argv)
        assert _parse(argv)["eps"] == "-1/10"
        assert _parse(argv) == vars(argparse_parser().parse_args(argv[:2] + ["--eps=-1/10"]))
        assert main(argv) == 2  # a negative eps is invalid input

    @pytest.mark.parametrize("word", ["--", "-"])
    def test_other_words_with_a_dash_name_options(self, files, word):
        argv = ["validate", word, files["linf2.json"]] if word == "--" else ["validate", word]
        assert argparse_parser().parse_args(argv).space == argv[-1]
        assert main(argv) == 1

    @pytest.mark.parametrize("verb", [None, *_VERBS])
    def test_help_is_read_from_the_table(self, verb):
        code, out = run(["--help"] if verb is None else [verb, "-h"])
        assert code == 0 and out.startswith("usage: aoulab ")
        args = () if verb is None else _VERBS[verb].args + (_FORMAT,)
        names = list(_VERBS) if verb is None else [f"--{a.key}" for a in args if a.option]
        names += [a.choices[0] if a.choices else a.key.upper() for a in args if not a.option]
        names += [a.help for a in args if a.help] + [_VERBS[verb].help if verb else ""]
        assert all(name in out for name in names)


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

    def test_factorize_over_the_lp_budget_exits_two(self, files, capsys):
        space = AOUSpace(
            4,
            Cone.from_generators(
                [(-2, 0, 2, 2), (0, 2, 0, 0), (-1, 1, 1, 2), (3, 2, 0, 1), (-1, -1, 2, 1), (2, 1, -1, -1)]
            ),
            (1, 5, 4, 5),
        )
        capsys.readouterr()
        code, out = run(["factorize", files["write"]("four.json", space)])
        err = capsys.readouterr().err
        assert_invalid_input(code, out, err)
        assert "FACTORIZE_LP_CAP" in err

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


def test_plain_refuses_what_no_check_reads_back():
    # a report holds only values the decoder inverts; anything else is a bug
    with pytest.raises(InvariantViolation, match="float"):
        _plain({"norm": 0.5})


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


REPORT_VERBS = [verb for verb, spec in _VERBS.items() if spec.report]


def round_trip_id(verb):
    return f"argv{list(ROUND_TRIPS).index(verb)}" if verb in ROUND_TRIPS else verb


def fresh_report(files, argv, fmt="json") -> str:
    sub = {f"{{{name[:-5]}}}": path for name, path in files.items() if name.endswith(".json")}
    code, out = run([sub.get(a, a) for a in argv] + ["--format", fmt])
    assert code == 0
    return out


class TestVerify:
    @pytest.mark.parametrize("verb", REPORT_VERBS, ids=round_trip_id)
    def test_fresh_reports_verify(self, files, tmp_path, verb):
        report = tmp_path / "report.json"
        report.write_text(fresh_report(files, ROUND_TRIPS[verb]))
        code, out = run(["verify", str(report)])
        assert code == 0 and out.strip() == "true"

    @pytest.mark.parametrize("verb", REPORT_VERBS, ids=round_trip_id)
    def test_report_bytes_are_json_dumps(self, files, verb):
        out = fresh_report(files, ROUND_TRIPS[verb])
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("verb", REPORT_VERBS, ids=round_trip_id)
    def test_text_report_is_the_json_result(self, files, verb):
        # the text form is the JSON report without its meta and evidence
        # keys: a lone string, bool or int alone, else one line per key in
        # sorted order with its value as sorted JSON
        report = json.loads(fresh_report(files, ROUND_TRIPS[verb]))
        result = {k: v for k, v in report.items() if k not in _META_KEYS + _EVIDENCE_KEYS}
        value = next(iter(result.values())) if len(result) == 1 else None
        if isinstance(value, str):
            want = f"{value}\n"
        elif isinstance(value, (bool, int)):
            want = f"{json.dumps(value)}\n"
        else:
            want = "".join(f"{key}: {json.dumps(result[key], sort_keys=True)}\n" for key in sorted(result))
        assert fresh_report(files, ROUND_TRIPS[verb], "text") == want

    def test_report_that_is_no_json_is_invalid_input(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text('{"type": "report",')
        assert main(["verify", str(report)]) == 2

    def test_report_of_another_version_is_invalid_input(self, files, tmp_path):
        d = json.loads(fresh_report(files, ROUND_TRIPS["validate"]))
        report = tmp_path / "report.json"
        report.write_text(json.dumps({**d, "version": 2}))
        assert main(["verify", str(report)]) == 2

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
    "null_label": {"label": None},
    "list_label": {"label": ["x"]},
    "bool_label": {"label": True},
}


def assert_invalid_input(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("aoulab: invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("cone", list(MALFORMED_CONES.values()), ids=list(MALFORMED_CONES))
def test_malformed_cone_in_space_file(files, tmp_path, capsys, cone):
    d = json.loads(Path(files["linf1.json"]).read_text())
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
    d = json.loads(Path(files["linf1.json"]).read_text())
    d.update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    code, out = run(["validate", str(path)])
    assert_invalid_input(code, out, capsys.readouterr().err)


@pytest.mark.parametrize(
    "fields", list(MALFORMED_SPACE_FIELDS.values()), ids=list(MALFORMED_SPACE_FIELDS)
)
def test_malformed_field_in_roundtrip(files, tmp_path, capsys, fields):
    d = json.loads(Path(files["linf1.json"]).read_text())
    d.update(fields)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    code, out = run(["roundtrip", str(path)])
    assert_invalid_input(code, out, capsys.readouterr().err)


# spaces whose cone contains a line, with the lineality basis each reports:
# all of Q^3 from five generators, the half-plane {x1 >= 0}, and the
# H-cone {x0 + x1 + x2 >= 0, x0 - x1 + 2 x2 >= 0}, whose rows' kernel is
# spanned by (-3/2, 1/2, 1)
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
    "h_cone_line": (
        AOUSpace(3, Cone.from_inequalities([(1, 1, 1), (1, -1, 2)]), (1, 0, 0)),
        [["-3/2", "1/2", "1"]],
    ),
}


@pytest.mark.parametrize("name", list(NON_POINTED_SPACES))
@pytest.mark.parametrize("verb", ["states", "nuclear-pair", "nuclear", "factorize", "auerbach", "norm"])
def test_non_pointed_space_is_invalid_input(files, capsys, name, verb):
    # every verb that needs the cone pointed refuses a line one way: one
    # message, and _lineality's basis as the certificate
    space, lineality = NON_POINTED_SPACES[name]
    path = files["write"](f"{name}.json", space)
    argv = [verb, path] + ([files["linf2.json"]] if verb == "nuclear-pair" else [])
    argv += ["--vector", json.dumps(["1"] * space.dim)] if verb == "norm" else []
    capsys.readouterr()
    code, out = run(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err[0] == "aoulab: invalid input: cone is not pointed (it contains a line); states do not separate points"
    assert json.loads(err[1].removeprefix("aoulab: certificate: ")) == lineality


# a space of dim 0, and a map and a tensor element around it, as files hold them
ZERO_SPACE = {
    "version": 1, "type": "space", "label": "zero", "dim": 0, "unit": [], "cone": {"rep": "generators", "rows": []}
}
DIM_0 = {
    "space": ZERO_SPACE,
    "map": {"version": 1, "type": "map", "source": ZERO_SPACE, "target": ZERO_SPACE, "matrix": []},
    "element": {"version": 1, "type": "tensor_element", "left": ZERO_SPACE, "right": ZERO_SPACE, "coeffs": []},
}
FILE_KINDS = {space_from_dict: "space", map_from_dict: "map", element_from_dict: "element"}
FILE_VERBS = [verb for verb in _VERBS if verb not in ("examples", "verify")]


@pytest.mark.parametrize("verb", FILE_VERBS)
def test_dim_0_input_is_invalid_input(files, capsys, verb):
    # every verb that reads a file (roundtrip's path too) refuses a space of
    # dim 0, alone or inside a map or tensor element, with one message; each
    # other required argument is its first choice or an empty JSON list
    argv = [verb]
    for a in _VERBS[verb].args:
        kind = "space" if a.load is None else FILE_KINDS.get(a.decode)
        if kind:
            argv.append(files["write"](f"{a.key}.json", json.dumps(DIM_0[kind])))
        elif a.default is None:
            argv += [f"--{a.key}", a.choices[0] if a.choices else "[]"]
    capsys.readouterr()
    code, out = run(argv)
    assert (code, out, capsys.readouterr().err) == (2, "", "aoulab: invalid input: bad dimension 0\n")


@pytest.mark.parametrize("argv, key", [(["validate", "{linf1}"], "space"), (["pert", "{skew}"], "map")])
def test_report_about_a_dim_0_input_is_invalid_input(files, tmp_path, capsys, argv, key):
    # verify decodes a report's inputs before it re-runs or checks the verb
    report = json.loads(fresh_report(files, argv))
    report["inputs"][key] = DIM_0[key]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    code, out = run(["verify", str(path)])
    assert (code, out, capsys.readouterr().err) == (2, "", "aoulab: invalid input: bad dimension 0\n")


@pytest.mark.parametrize("case", range(3), ids=["unit_on_facet", "half_plane", "ray"])
def test_norm_of_a_dominated_vector_in_a_bad_space_is_invalid_input(files, capsys, case):
    space, v = refused_norms()[case]
    path = files["write"](f"refused{case}.json", space)
    capsys.readouterr()
    code, out = run(["norm", path, "--vector", json.dumps([str(x) for x in v])])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("aoulab: invalid input: ")


# spaces whose unit is not an order unit, with the one cone row each
# reports: the orthant with a unit on a facet and with one outside the cone,
# the non-simplicial cone of lin_space(2) with a unit on a facet, and
# {x0 >= 0, x1 >= 0} in Q^3, whose closure has a line, with unit (1, 0, 0)
BAD_UNIT_SPACES = {
    "unit_on_facet": (AOUSpace(2, linf(2).cone, (1, 0)), ["0", "1"]),
    "unit_outside": (AOUSpace(2, linf(2).cone, (1, -1)), ["0", "1"]),
    "lin2_unit_on_facet": (AOUSpace(3, lin_space(2).cone, (1, 1, 0)), ["1", "-1", "1"]),
    "quadrant_in_q3": (
        AOUSpace(3, Cone.from_inequalities([(1, 0, 0), (0, 1, 0)]), (1, 0, 0)),
        ["0", "1", "0"],
    ),
}


# the verbs that need states or a simplicial pair see only the pointed
# cones: the quadrant in Q^3 is refused there for its line first
BAD_UNIT_CASES = [
    pytest.param(verb, name, id=f"{verb}-{name}")
    for verb, names in (
        ("auerbach", list(BAD_UNIT_SPACES)),
        ("factorize", list(BAD_UNIT_SPACES)),
        ("archimedeanize", list(BAD_UNIT_SPACES)),
        ("states", ["unit_on_facet", "unit_outside", "lin2_unit_on_facet"]),
        ("nuclear", ["unit_on_facet", "unit_outside", "lin2_unit_on_facet"]),
        ("nuclear-pair", ["unit_on_facet", "unit_outside", "lin2_unit_on_facet"]),
    )
    for name in names
]


@pytest.mark.parametrize("verb, name", BAD_UNIT_CASES)
def test_unit_that_is_no_order_unit_is_invalid_input(files, capsys, name, verb):
    # one gate refuses the unit for every verb, with the same message and
    # row; nuclear-pair meets the bad factor on the right, past a
    # simplicial left one
    space, row = BAD_UNIT_SPACES[name]
    path = files["write"](f"{name}.json", space)
    capsys.readouterr()
    code, out = run([verb, files["linf2.json"], path] if verb == "nuclear-pair" else [verb, path])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err[0] == "aoulab: invalid input: the unit is not an order unit: a cone row is not positive on it"
    assert json.loads(err[1].removeprefix("aoulab: certificate: ")) == row


def test_nuclear_report_about_a_bad_unit_is_invalid_input(files, tmp_path, capsys):
    # the checker runs the gate the construction runs: lin_space(2)'s
    # not-nuclear report, moved to a unit on a facet, is refused as
    # `aoulab nuclear` refuses that space
    report = json.loads(run(["nuclear", files["lin2.json"], "--format", "json"])[1])
    report["inputs"]["space"]["unit"] = ["1", "1", "0"]
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    code, out = run(["verify", str(path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and out == ""
    assert err[0] == "aoulab: invalid input: the unit is not an order unit: a cone row is not positive on it"


# integers past Python's int/str limit (4300 digits unless a process sets
# another), which the front end neither lifts nor lets end in a traceback
LONG = "1" + "0" * 5000


@pytest.mark.parametrize("form, message", [("string", "bad rational"), ("json_int", "malformed JSON")])
@pytest.mark.parametrize("verb", ["validate", "states"])
def test_cone_row_past_the_digit_limit_is_invalid_input(files, capsys, verb, form, message):
    d = json.loads(dumps(linf(2)))
    d["cone"]["rows"][0][0] = LONG
    text = json.dumps(d) if form == "string" else json.dumps(d).replace(f'"{LONG}"', LONG)
    path = files["write"](f"long_{form}.json", text)
    capsys.readouterr()
    code, out = run([verb, path])
    err = capsys.readouterr().err
    assert_invalid_input(code, out, err)
    assert err.startswith(f"aoulab: invalid input: {message}")


def test_result_past_the_digit_limit_is_a_size_limit(files, capsys):
    # ||v|| = 10^3000 / 10^-3000 has 6001 digits: computed exactly, and
    # refused where the report is written
    tiny = "1/1" + "0" * 3000
    d = json.loads(dumps(linf(2)))
    d["unit"] = [tiny, tiny]
    path = files["write"]("tiny_unit.json", json.dumps(d))
    capsys.readouterr()
    code, out = run(["norm", path, "--vector", json.dumps(["1" + "0" * 3000, "0"])])
    err = capsys.readouterr().err
    assert_invalid_input(code, out, err)
    assert err.startswith("aoulab: invalid input: a rational too long to write: ")


def at(path):
    """An edit that replaces the value at path (keys and indices) with the
    last item."""

    def edit(d, value):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return lambda value: lambda d: edit(d, value)


# evidence edits that make a checked report malformed: a wrong length, an
# entry that is no rational, a row name out of range, a missing or extra key
FACTORIZE_LIN2 = ["factorize", "{lin2}"]
FIRST_NAME = ["steps", 0, "multipliers", 0, 0]
LAST_NAME = ["steps", 0, "multipliers", -1, 0]
NUCLEAR_PAIR = ["nuclear-pair", "{linf2}", "{lin2}"]
MALFORMED_EVIDENCE = {
    "psi_row_too_long": (FACTORIZE_LIN2, lambda d: d["steps"][0]["psi"][0].append("0")),
    "psi_row_missing": (FACTORIZE_LIN2, lambda d: d["steps"][1]["psi"].pop()),
    "one_step_short": (FACTORIZE_LIN2, lambda d: d["steps"].pop()),
    "psi_entry_no_rational": (FACTORIZE_LIN2, at(["steps", 0, "psi", 0, 0])("half")),
    "psi_entry_a_float": (FACTORIZE_LIN2, at(["steps", 0, "psi", 0, 0])(0.5)),
    "multiplier_no_rational": (FACTORIZE_LIN2, at(["steps", 0, "multipliers", 0, 1])("x")),
    "multiplier_not_canonical": (FACTORIZE_LIN2, at(["steps", 0, "multipliers", 0, 1])("2/2")),
    "vertex_out_of_range": (FACTORIZE_LIN2, at(LAST_NAME)(["defect", 99, 0, 1])),
    "cone_row_out_of_range": (FACTORIZE_LIN2, at(FIRST_NAME)(["positive", 4])),
    "unit_coordinate_out_of_range": (FACTORIZE_LIN2, at(FIRST_NAME)(["unit", 3])),
    "sign_out_of_range": (FACTORIZE_LIN2, at(LAST_NAME)(["defect", 1, 0, 2])),
    "unknown_row_kind": (FACTORIZE_LIN2, at(FIRST_NAME)(["slack", 0])),
    "bool_row_index": (FACTORIZE_LIN2, at(FIRST_NAME)(["positive", True])),
    "schedule_entry_no_pair": (FACTORIZE_LIN2, lambda d: d["schedule"][0].append("1")),
    "steps_missing": (FACTORIZE_LIN2, lambda d: d.pop("steps")),
    "extra_result_key": (FACTORIZE_LIN2, at(["extra"])(1)),
    "pert_distance_no_rational": (["pert", "{skew}"], at(["distance"])("one")),
    "pert_map_row_too_long": (["pert", "{skew}"], lambda d: d["map"]["matrix"][0].append("0")),
    "perturb_norm_missing": (["perturb", "{skew}"], lambda d: d.pop("norm")),
    "perturb_bound_no_rational": (["perturb", "{skew}"], at(["bound"])([2])),
    "perturb_map_row_missing": (["perturb", "{skew}"], lambda d: d["map"]["matrix"].pop()),
    "certificate_witness_too_short": (
        ["tensor-member", "{elem}", "--kind", "pi"],
        lambda d: d["certificate"]["witness"].pop(),
    ),
    "decomposition_coefficient_no_rational": (
        ["tensor-member", "{elem}", "--kind", "pi"],
        lambda d: d["certificate"].update(decomposition=[[0, "one"]]),
    ),
    "certificate_no_object": (["tensor-member", "{elem}", "--kind", "pi"], at(["certificate"])("yes")),
    "certificate_payload_a_list": (
        ["tensor-member", "{elem}", "--kind", "epsilon"],
        at(["certificate", "payload"])([0]),
    ),
    "nuclear_one_state_short": (NUCLEAR_PAIR, lambda d: d["biorthogonal"]["states"].pop()),
    "nuclear_ray_too_long": (NUCLEAR_PAIR, lambda d: d["biorthogonal"]["rays"][0].append("0")),
    "nuclear_factor_unknown": (NUCLEAR_PAIR, at(["factor"])("middle")),
    "nuclear_pair_no_object": (NUCLEAR_PAIR, at(["biorthogonal"])([])),
    "nuclear_flag_a_string": (NUCLEAR_PAIR, at(["nuclear"])("true")),
    "nuclear_keys_of_both_verdicts": (NUCLEAR_PAIR, lambda d: d.__setitem__("witness", d["inputs"]["left"])),
    "nuclear_witness_functional_too_long": (
        ["nuclear-pair", "{lin2}", "{lin2}"],
        lambda d: d["pi_certificate"]["witness"].append("0"),
    ),
    "nuclear_space_one_ray_short": (["nuclear", "{lin2}"], lambda d: d["rays"].pop()),
    "nuclear_space_ray_entry_no_rational": (["nuclear", "{lin2}"], at(["rays", 0, 0])("one")),
    "nuclear_space_keys_of_both_verdicts": (["nuclear", "{linf2}"], at(["rays"])([])),
    "nuclear_space_state_too_short": (["nuclear", "{linf2}"], lambda d: d["biorthogonal"]["states"][0].pop()),
    "auerbach_basis_vector_too_long": (["auerbach", "{lin2}"], lambda d: d["basis"][0].append("0")),
    "auerbach_dual_entry_no_rational": (["auerbach", "{linf2}"], at(["duals", 1, 0])("half")),
    "auerbach_duals_missing": (["auerbach", "{linf2}"], lambda d: d.pop("duals")),
}


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

    @pytest.mark.parametrize(
        "label", [b'"lin_space\xff(2)"', b"[" * 100_000 + b"]" * 100_000], ids=list(UNREADABLE)
    )
    def test_unreadable_report(self, files, tmp_path, capsys, label):
        # a report whose space label is no UTF-8, or is JSON nested too deep
        text = fresh_report(files, ["nuclear", "{lin2}"]).encode()
        report = tmp_path / "edited.json"
        report.write_bytes(text.replace(b'"lin_space(2)"', label))
        capsys.readouterr()
        code, out = run(["verify", str(report)])
        assert_invalid_input(code, out, capsys.readouterr().err)

    @pytest.mark.parametrize("name", list(MALFORMED_EVIDENCE))
    def test_malformed_evidence(self, files, tmp_path, capsys, name):
        argv, edit = MALFORMED_EVIDENCE[name]
        self.verify_edited(files, tmp_path, capsys, argv, edit)


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

    def test_suite_is_verified_once(self, monkeypatch):
        # psd_example_suite verifies each report before it returns them
        labels = []
        real = WitnessReport.verify
        monkeypatch.setattr(WitnessReport, "verify", lambda rep: labels.append(rep.label) or real(rep))
        code, out = run(["examples", "paper", "--format", "json"])
        assert code == 0 and json.loads(out)["certificates_verified"] is True
        assert sorted(labels) == ["bell", "identity", "swap"]

    def test_examples_that_do_not_match_exit_three(self, monkeypatch):
        # the suite's claims for Bell turned around: the report is written,
        # and says so
        original = aoulab.cli.psd_example_suite

        def turned():
            reports = original()
            bell = reports[0]
            verdicts = {cone: dataclasses.replace(v, claim="non_member") for cone, v in bell.verdicts.items()}
            return [dataclasses.replace(bell, verdicts=verdicts)] + reports[1:]

        monkeypatch.setattr(aoulab.cli, "psd_example_suite", turned)
        code, out = run(["examples", "paper", "--format", "json"])
        assert code == 3 and json.loads(out)["all_match"] is False

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


# -- evidence checks -------------------------------------------------------------
#
# verify checks factorize, pert, perturb, auerbach, tensor-member, nuclear
# and nuclear-pair reports from their evidence; `rerun_verifies` (conftest)
# is the re-run oracle each verdict is held against.

RAY = AOUSpace(1, Cone.from_generators([(3,)]), (2,), label="ray")
BASE_SPACES = {
    "linf1": linf(1),
    "linf2": linf(2),
    "linf3": linf(3),
    "lin1": lin_space(1),
    "lin2": lin_space(2),
    "ray": RAY,
}
SKEW = UnitalMap(
    linf(2), linf(2), Matrix.from_rows([(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(3, 2))])
)
AVG = UnitalMap(linf(2), linf(1), Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2))]))
# unital, of norm 3, and not positive
LEAN = UnitalMap(linf(2), linf(2), Matrix.from_rows([(2, -1), (0, 1)]))
CHECKED_VERBS = ("factorize", "pert", "perturb", "auerbach", "tensor-member", "nuclear", "nuclear-pair")


def check_cases() -> dict:
    """name -> (verb, arguments): objects go to files, strings stay argv."""
    scan = ball_scan_spaces(rng(9))
    # linf(4), the epsilon and pi spaces of linf(2) (x) lin_space(1), and
    # the random V-rep spaces the defect LP budget admits
    extra = [scan[3], scan[8], scan[9]] + [sp for sp in scan[12:] if sp.dim <= 3]
    cases = {f"factorize:{name}": ("factorize", [sp]) for name, sp in BASE_SPACES.items()}
    cases |= {f"factorize:scan{i}": ("factorize", [sp]) for i, sp in enumerate(extra)}
    cases |= {f"nuclear:{name}": ("nuclear", [sp]) for name, sp in BASE_SPACES.items()}
    cases |= {f"nuclear:scan{i}": ("nuclear", [sp]) for i, sp in enumerate(extra)}
    cases |= {f"auerbach:{name}": ("auerbach", [sp]) for name, sp in BASE_SPACES.items()}
    cases |= {f"auerbach:scan{i}": ("auerbach", [sp]) for i, sp in enumerate(scan)}
    r = rng(71)
    sources = list(BASE_SPACES.values()) + [sp for sp in scan if sp.dim <= 4]
    maps = {"skew": SKEW, "avg": AVG, "lean": LEAN}
    maps |= {f"random{i}": random_unital_into_linf(r, src, 1 + i % 3) for i, src in enumerate(sources)}
    # a unital map into lin_space(1), a target that is not coordinatewise
    maps["into_lin1"] = UnitalMap(
        linf(2), lin_space(1), Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2)), (1, -1)])
    )
    for name, m in maps.items():
        if name != "into_lin1":
            cases[f"pert:{name}"] = ("pert", [m])
        cases[f"perturb:{name}"] = ("perturb", [m])
    pairs = [
        ("linf2", "linf2"),
        ("linf2", "lin1"),
        ("lin1", "lin2"),
        ("lin2", "lin2"),
        ("ray", "linf2"),
        ("linf3", "ray"),
        ("lin2", "lin1"),
    ]
    r = rng(73)
    for a, b in pairs:
        left, right = BASE_SPACES[a], BASE_SPACES[b]
        elements = {
            # a member of both cones, and its negative, in neither
            "unit": TensorElement.simple(left, right, left.unit, right.unit),
            "negated": TensorElement.simple(left, right, left.unit, tuple(-x for x in right.unit)),
            "noisy": TensorElement(
                left, right, Matrix.from_rows([rand_vec(r, right.dim, -1, 3) for _ in range(left.dim)])
            ),
        }
        for kind in (EPSILON, PI):
            for label, z in elements.items():
                cases[f"tensor-member:{kind}:{a},{b}:{label}"] = ("tensor-member", [z, "--kind", kind])
        cases[f"nuclear-pair:{a},{b}"] = ("nuclear-pair", [left, right])
    cases["nuclear:lin3"] = ("nuclear", [lin_space(3)])
    # a cone over a pentagon: each ray's rows that are not tight there have
    # rank d, where on lin_space(n) they have rank d - 1, as the tight ones do
    pentagon = [(1, 1, 0), (1, 0, 1), (1, -1, 1), (1, -1, 0), (1, 0, -1)]
    cases["nuclear:pentagon"] = ("nuclear", [AOUSpace(3, Cone.from_generators(pentagon), (1, 0, 0))])
    return cases


CHECK_CASES = check_cases()


@pytest.fixture(scope="module")
def checked_reports(tmp_path_factory):
    """A fresh json report of each check case."""
    work = tmp_path_factory.mktemp("checked")
    reports = {}
    for name, (verb, args) in CHECK_CASES.items():
        argv = [verb]
        for i, a in enumerate(args):
            if not isinstance(a, str):
                path = work / f"{name.replace(':', '_')}_{i}.json"
                path.write_text(dumps(a))
                a = str(path)
            argv.append(a)
        code, out = run(argv + ["--format", "json"])
        assert code == 0, name
        reports[name] = json.loads(out)
    return reports


def verify_report(tmp_path, report: dict):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return run(["verify", str(path)])


def nudge(path, delta):
    """An edit that adds delta to the rational at path."""

    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = str(Fraction(d[path[-1]]) + delta)

    return edit


def scale(path, c):
    """An edit that multiplies the vector at path by c."""

    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = [str(c * Fraction(x)) for x in d[path[-1]]]

    return edit


def simplicial_claim(d):
    """An edit of lin_space(2)'s report, which is not nuclear, to claim the
    biorthogonal pair of its first three extreme rays: states with
    f_i(g_j) = delta_ij, which are not positive, since those rays do not
    span the cone."""
    rays = Matrix.from_rows([tuple(map(Fraction, g)) for g in d.pop("rays")[:3]])
    states = inverse(rays).transpose()  # f_i . g_j = delta_ij
    d["nuclear"] = True
    d["biorthogonal"] = {"object": "Biorthogonal", "rays": _plain(rays.data), "states": _plain(states.data)}


def negated_ray(d):
    """The last of lin_space(2)'s four extreme rays negated: still four rays
    spanning the space, no two on a line, but that one outside the cone."""
    d["rays"][-1] = [str(-Fraction(x)) for x in d["rays"][-1]]


def t_itself(key, value):
    """An edit that claims t itself as S, with value under key: every
    claim but S's positivity holds."""

    def edit(d):
        d["map"] = d["inputs"]["map"]
        d[key] = value

    return edit


def doubled_pair(d):
    """The first basis vector doubled and its dual halved."""
    scale(["basis", 0], 2)(d)
    scale(["duals", 0], Fraction(1, 2))(d)


# edits of a fresh report that leave it well-formed and make a claim false
WITNESS_ENTRY = at(["certificate", "witness", 0])
TAMPERS = {
    "factorize_defect": ("factorize:lin2", at(["defect"])("1/3")),
    "factorize_schedule_value": ("factorize:lin2", at(["schedule", 0, 1])("3/4")),
    "factorize_psi_entry": ("factorize:lin2", at(["steps", 1, "psi", 1, 0])("-1/4")),
    "factorize_first_psi_entry": ("factorize:lin2", at(["steps", 0, "psi", 0, 1])("-1/3")),
    "factorize_multiplier": ("factorize:lin2", at(["steps", 1, "multipliers", 0, 1])("-1/4")),
    "factorize_map_row": ("factorize:lin2", at(["psi", "matrix", 1])(["-1/8", "1/8", "-1/8", "1/8"])),
    "factorize_simplicial_map_row": ("factorize:linf2", at(["phi", "matrix", 0])(["1", "1"])),
    "pert_distance": ("pert:skew", at(["distance"])("1/2")),
    "pert_norm": ("pert:skew", at(["norm"])("3")),
    "pert_map_row": ("pert:skew", at(["map", "matrix", 0])(["0", "1"])),
    "pert_map_not_positive": ("pert:lean", t_itself("distance", "0")),
    "perturb_bound": ("perturb:skew", at(["bound"])("3")),
    "perturb_norm": ("perturb:skew", at(["norm"])("3")),
    "perturb_map_row": ("perturb:skew", at(["map", "matrix", 0])(["3/2", "-1/2"])),
    "perturb_map_not_positive": ("perturb:lean", t_itself("bound", "4")),
    "tensor_member_verdict": ("tensor-member:pi:linf2,linf2:unit", at(["verdict"])("non_member")),
    "tensor_member_witness": ("tensor-member:pi:linf2,linf2:negated", WITNESS_ENTRY("-1")),
    "tensor_member_row_witness": ("tensor-member:epsilon:lin1,lin2:negated", WITNESS_ENTRY("-1")),
    "tensor_member_decomposition": (
        "tensor-member:pi:lin1,lin2:unit",
        at(["certificate", "decomposition", 0, 1])("7"),
    ),
    "tensor_member_kind": ("tensor-member:pi:linf2,linf2:unit", at(["kind"])("epsilon")),
    "nuclear_flag_true": ("nuclear-pair:linf2,lin1", at(["nuclear"])(False)),
    "nuclear_flag_false": ("nuclear-pair:lin2,lin2", at(["nuclear"])(True)),
    "nuclear_scaled_ray": ("nuclear-pair:lin1,lin2", scale(["biorthogonal", "rays", 1], 2)),
    "nuclear_state_off": ("nuclear-pair:linf2,lin1", nudge(["biorthogonal", "states", 0, 0], Fraction(1, 7))),
    "nuclear_flipped_factor": ("nuclear-pair:linf2,lin1", at(["factor"])("right")),
    "nuclear_space_flag_true": ("nuclear:linf3", at(["nuclear"])(False)),
    "nuclear_space_flag_false": ("nuclear:lin2", at(["nuclear"])(True)),
    "nuclear_space_scaled_ray": ("nuclear:lin1", scale(["biorthogonal", "rays", 0], Fraction(1, 2))),
    "nuclear_space_state_off": ("nuclear:ray", nudge(["biorthogonal", "states", 0, 0], Fraction(1, 7))),
    "nuclear_space_ray_doubled": ("nuclear:lin2", lambda d: d["rays"].__setitem__(-1, d["rays"][0])),
    "nuclear_space_ray_inside": ("nuclear:lin2", at(["rays", -1])(["1", "0", "0"])),
    "nuclear_space_simplicial_claim": ("nuclear:lin2", simplicial_claim),
    "nuclear_space_negated_ray": ("nuclear:lin2", negated_ray),
    "nuclear_witness": ("nuclear-pair:lin2,lin2", at(["witness", "coeffs", 0, 0])("1")),
    "auerbach_basis_entry": ("auerbach:lin2", nudge(["basis", 0, 0], Fraction(1, 7))),
    "auerbach_dual_scaled": ("auerbach:linf3", scale(["duals", 1], Fraction(8, 7))),
    "auerbach_basis_reordered": ("auerbach:linf2", lambda d: d["basis"].reverse()),
    # still biorthogonal: the row check sees ||2 x_1|| = 2
    "auerbach_doubled_pair": ("auerbach:lin2", doubled_pair),
    "auerbach_doubled_pair_linf3": ("auerbach:linf3", doubled_pair),
}


# edits of an embedded map or tensor element outside its matrix: the object
# rebuilt around the inputs' spaces is not the stored one, a false claim
EMBEDDED_TAMPERS = {
    "pert_map_source_label": ("pert:skew", at(["map", "source", "label"])("other")),
    "perturb_map_target_unit": ("perturb:skew", at(["map", "target", "unit"])(["1", "2"])),
    "factorize_phi_entry_an_int": ("factorize:lin2", at(["phi", "matrix", 0, 0])(1)),
    "factorize_psi_extra_key": ("factorize:lin2", at(["psi", "extra"])(1)),
    "nuclear_witness_left_label": ("nuclear-pair:lin2,lin2", at(["witness", "left", "label"])("other")),
}


class TestEvidenceChecks:
    @pytest.mark.parametrize("name", list(CHECK_CASES))
    def test_fresh_report_passes_check_and_oracle(self, checked_reports, tmp_path, name):
        report = checked_reports[name]
        assert verify_report(tmp_path, report) == (0, "true\n")
        assert rerun_verifies(report)
        assert canonical_json(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_cases_reach_both_branches_and_verdicts(self, checked_reports):
        reports = checked_reports.values()
        steps = [len(d["steps"]) for d in reports if d["verb"] == "factorize"]
        assert 0 in steps and max(steps) >= 2
        assert {d["verdict"] for d in reports if d["verb"] == "tensor-member"} == {"member", "non_member"}
        assert {d["nuclear"] for d in reports if d["verb"] == "nuclear-pair"} == {True, False}
        assert {d["nuclear"] for d in reports if d["verb"] == "nuclear"} == {True, False}
        assert {d["factor"] for d in reports if d["verb"] == "nuclear-pair" and d["nuclear"]} == {"left", "right"}
        assert {d["distance"] != "0" for d in reports if d["verb"] == "pert"} == {True, False}

    @pytest.mark.parametrize("name", list(TAMPERS))
    def test_tampered_report_is_false(self, checked_reports, tmp_path, name):
        case, edit = TAMPERS[name]
        report = json.loads(json.dumps(checked_reports[case]))
        edit(report)
        assert report != checked_reports[case]
        assert verify_report(tmp_path, report) == (3, "false\n")
        assert not rerun_verifies(report)

    @pytest.mark.parametrize("name", list(EMBEDDED_TAMPERS))
    def test_embedded_object_off_its_canonical_form_is_false(self, checked_reports, tmp_path, name):
        case, edit = EMBEDDED_TAMPERS[name]
        report = json.loads(json.dumps(checked_reports[case]))
        edit(report)
        assert verify_report(tmp_path, report) == (3, "false\n")
        assert not rerun_verifies(report)

    def test_decoder_inverts_plain(self, checked_reports, tmp_path, monkeypatch):
        # what each check decodes renders back to the stored result fields
        decoded = []
        real = aoulab.cli._decoder

        def spy(*args, **kwargs):
            decode = real(*args, **kwargs)
            return lambda *a: decoded.append(decode(*a)) or decoded[-1]

        monkeypatch.setattr(aoulab.cli, "_decoder", spy)
        for name, report in checked_reports.items():
            decoded.clear()
            assert verify_report(tmp_path, report) == (0, "true\n"), name
            [result] = decoded
            fields = vars(result) if dataclasses.is_dataclass(result) else result
            stored = {k: v for k, v in report.items() if k not in ("version", "type", "verb", "inputs")}
            assert _plain({k: v for k, v in fields.items() if v is not None}) == stored, name

    def test_checks_run_no_search(self, checked_reports, tmp_path, monkeypatch):
        # no LP, no membership decision, no minimal measure and none of the
        # five runners, wherever a check could reach them
        def refuse(*args, **kwargs):
            raise AssertionError("a check ran a search")

        for module in (aoulab.maps, aoulab.spaces, aoulab.tensors):
            monkeypatch.setattr(module, "solve_lp", refuse)
        for module in (aoulab.cones, aoulab.maps, aoulab.tensors):
            monkeypatch.setattr(module, "member", refuse)
        for module, name in (
            (aoulab.maps, "_min_l1_measure"),
            (aoulab.maps, "_pert_with_norms"),
            (aoulab.maps, "_perturb_with_norm"),
            (aoulab.maps, "auerbach_basis"),
            (aoulab.maps, "max_det_exchange"),
            (aoulab.tensors, "factorize"),
            (aoulab.tensors, "is_nuclear_pairwise"),
            (aoulab.tensors, "_space_nuclearity"),
            (aoulab.tensors, "_biorthogonal"),
            (aoulab.tensors, "is_simplicial"),
            (aoulab.tensors, "extreme_rays"),
            (aoulab.tensors, "member_tensor"),
            (aoulab.tensors, "_best_psi"),
            (aoulab.cli, "_run_tensor_member"),
        ):
            monkeypatch.setattr(module, name, refuse)
        for verb in CHECKED_VERBS:
            monkeypatch.setitem(_VERBS, verb, dataclasses.replace(_VERBS[verb], run=refuse))
        for name, report in checked_reports.items():
            assert verify_report(tmp_path, report) == (0, "true\n"), name


# -- a generated malformed-report sweep ------------------------------------------
#
# One fresh report per checked verb and branch.  Every result object (the
# result and each object nested in it) loses each key in turn and gains an
# extra one, every value turns null, and every leaf takes values of the
# wrong type: each edit must be invalid input.  An embedded map or tensor
# element is a leaf here, since an edit inside it is checked against its
# canonical form and gives a claim that does not hold; the free-form
# certificate payload is left out, and a certificate's optional evidence
# may be null.

SWEEP_CASES = {
    "factorize:simplicial": "factorize:linf2",
    "factorize:greedy": "factorize:lin2",
    "pert": "pert:skew",
    "perturb": "perturb:skew",
    "tensor-member:pi:member": "tensor-member:pi:linf2,linf2:unit",
    "tensor-member:pi:non_member": "tensor-member:pi:linf2,linf2:negated",
    "tensor-member:epsilon:member": "tensor-member:epsilon:linf2,linf2:unit",
    "tensor-member:epsilon:non_member": "tensor-member:epsilon:lin1,lin2:negated",
    "nuclear-pair:nuclear": "nuclear-pair:linf2,lin1",
    "nuclear-pair:not_nuclear": "nuclear-pair:lin2,lin2",
    "nuclear:nuclear": "nuclear:linf2",
    "nuclear:not_nuclear": "nuclear:lin2",
    "auerbach": "auerbach:lin2",
}


NULLABLE = {"Certificate": ("decomposition", "witness", "payload")}


def wrong_values(leaf) -> list:
    """Values of the wrong type for a leaf: a float, a scalar wrapped in a
    list, null, and, where an int or a rational belongs, a bool and the
    non-canonical "2/2"."""
    values = [0.5, [leaf]] + ([] if leaf is None else [None])
    rational = isinstance(leaf, str) and leaf.lstrip("-").replace("/", "", 1).isdigit()
    if rational or type(leaf) is int:
        values += [True, "2/2"]
    if type(leaf) is bool:
        values.append(int(leaf))
    return values


def malformed_edits(node, path=()):
    """(path, edit) for every malformed edit of a result's objects and leaves."""
    if isinstance(node, dict) and "type" not in node:
        for key in node:
            yield (*path, key, "dropped"), lambda d, p=(*path, key): locate(d, p[:-1]).pop(p[-1])
        yield (*path, "extra"), lambda d, p=path: locate(d, p).__setitem__("extra", "1")
        for key, value in node.items():
            if isinstance(value, (dict, list)) and key not in NULLABLE.get(node.get("object"), ()):
                yield (*path, key, None), lambda d, p=(*path, key): locate(d, p[:-1]).__setitem__(p[-1], None)
            if key != "payload":
                yield from malformed_edits(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from malformed_edits(value, (*path, i))
    else:
        for value in wrong_values(node):
            yield (*path, value), lambda d, p=path, v=value: locate(d, p[:-1]).__setitem__(p[-1], v)


def locate(d, path):
    for key in path:
        d = d[key]
    return d


@pytest.mark.parametrize("name", list(SWEEP_CASES))
def test_every_malformed_edit_is_invalid_input(checked_reports, tmp_path, capsys, name):
    report = checked_reports[SWEEP_CASES[name]]
    result = {k: v for k, v in report.items() if k not in ("version", "type", "verb", "inputs")}
    edits = list(malformed_edits(result))
    found = []
    for where, edit in edits:
        edited = json.loads(json.dumps(report))
        edit(edited)
        capsys.readouterr()
        code, out = verify_report(tmp_path, edited)
        err = capsys.readouterr().err
        if (code, out, err.startswith("aoulab: invalid input: "), err.count("\n")) != (2, "", True, 1):
            found.append((where, code, out, err))
    assert len(edits) > 10 and not found, found
