"""JSON round-trips must be bit exact and reject malformed input loudly."""

import io
import json
from fractions import Fraction

import pytest

from aoulab.cli import main
from aoulab.cones import Cone
from aoulab.errors import InputError
from aoulab.linalg import Matrix
from aoulab.maps import UnitalMap
from aoulab.serialize import (
    canonical_json,
    decode_frac,
    dumps,
    element_from_dict,
    element_to_dict,
    from_dict,
    loads,
    map_from_dict,
    map_to_dict,
    space_from_dict,
    space_to_dict,
)
from aoulab.spaces import AOUSpace, lin_space, linf, sym_space
from aoulab.tensors import TensorElement


def spaces_equal(a: AOUSpace, b: AOUSpace) -> bool:
    return (
        a.dim == b.dim
        and a.unit == b.unit
        and a.label == b.label
        and a.cone.kind == b.cone.kind
        and a.cone.generators == b.cone.generators
        and a.cone.inequalities == b.cone.inequalities
        and a.cone.strict == b.cone.strict
        and a.cone.psd_side == b.cone.psd_side
    )


class TestSpaceRoundTrip:
    def test_named_spaces(self):
        for sp in (linf(3), lin_space(2), sym_space(2)):
            again = space_from_dict(space_to_dict(sp))
            assert spaces_equal(sp, again)

    def test_generator_backed_cone_with_fractions(self):
        cone = Cone.from_generators(
            [(Fraction(1, 3), 0), (Fraction(2, 7), Fraction(5, 2))], 2
        )
        sp = AOUSpace(2, cone, (Fraction(1, 3), 1), label="odd")
        again = space_from_dict(space_to_dict(sp))
        assert spaces_equal(sp, again)

    def test_strict_rows_survive(self):
        cone = Cone.from_inequalities(
            [(1, 0), (0, 1)], strict=[True, False], dim=2
        )
        sp = AOUSpace(2, cone, (1, 1), label="open")
        again = space_from_dict(space_to_dict(sp))
        assert spaces_equal(sp, again)

    def test_canonical_text_form(self):
        text = dumps(linf(2))
        assert text == dumps(loads(text))
        assert json.loads(text)["version"] == 1


class TestMapAndElementRoundTrip:
    def test_map(self):
        m = UnitalMap(
            linf(2),
            linf(1),
            Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2))]),
        )
        again = map_from_dict(map_to_dict(m))
        assert again.matrix.data == m.matrix.data
        assert spaces_equal(again.source, m.source)
        assert spaces_equal(again.target, m.target)

    def test_element(self):
        z = TensorElement.simple(linf(2), lin_space(1), (1, -2), (3, Fraction(1, 5)))
        again = element_from_dict(element_to_dict(z))
        assert again.coeffs.data == z.coeffs.data
        assert spaces_equal(again.left, z.left)

    def test_dispatch(self):
        z = TensorElement.simple(linf(2), linf(2), (1, 0), (0, 1))
        assert isinstance(loads(dumps(z)), TensorElement)
        assert isinstance(loads(dumps(linf(2))), AOUSpace)


class TestRejection:
    def test_version_required(self):
        d = space_to_dict(linf(2))
        d["version"] = 2
        with pytest.raises(InputError):
            space_from_dict(d)
        d.pop("version")
        with pytest.raises(InputError):
            space_from_dict(d)

    def test_bad_rational(self):
        d = space_to_dict(linf(2))
        d["unit"] = ["1/0", "1"]
        with pytest.raises(InputError):
            space_from_dict(d)
        d["unit"] = [1.5, "1"]
        with pytest.raises(InputError):
            space_from_dict(d)

    def test_wrong_type_tag(self):
        with pytest.raises(InputError):
            map_from_dict(space_to_dict(linf(2)))
        with pytest.raises(InputError):
            from_dict({"version": 1, "type": "mystery"})

    def test_malformed_json(self):
        with pytest.raises(InputError):
            loads("{not json")

    def test_unknown_cone_rep(self):
        d = space_to_dict(linf(2))
        d["cone"] = {"rep": "oracle"}
        with pytest.raises(InputError):
            space_from_dict(d)


class TestCanonicalJson:
    VALUES = [
        {},
        [],
        "",
        {"b": {}, "a": [[]], "": []},
        [1, "2", None, True, False, [], {}],
        {"z": 1, "\u00e9": 2, "A": 3, "a b": {"y": [{"x": None}]}},
        "h\u00e9llo \u2713 \u2028 \U0001f600 \ud800",
        "\x00\x01\x1f\x7f \" \\ / \t\n\r\b\f",
        {"\x00key\n": "\u00ff"},
        10**200,
        -(2**64) - 1,
        0,
        True,
        False,
        None,
    ]

    @pytest.mark.parametrize("value", VALUES, ids=range(len(VALUES)))
    def test_matches_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_objects_match_json_dumps(self):
        cone = Cone.from_generators([(Fraction(1, 3), 0), (Fraction(2, 7), Fraction(5, 2))], 2)
        objects = [
            AOUSpace(2, cone, (Fraction(1, 3), 1), label="\u00e9t\u00e9 \u2713"),
            lin_space(2),
            sym_space(2),
            UnitalMap(linf(2), linf(1), Matrix.from_rows([(Fraction(1, 2), Fraction(1, 2))])),
            TensorElement(linf(2), lin_space(1), Matrix.from_rows([(1, -2), (0, 3)])),
        ]
        for obj in objects:
            d = json.loads(dumps(obj))
            assert dumps(obj) == json.dumps(d, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [1.5, (1, 2), {1: "a"}, {"a": 1, 2: "b"}, Fraction(1, 2), {"a": {1, 2}}, b"x", [float("nan")]],
        ids=["float", "tuple", "int_key", "mixed_keys", "fraction", "set", "bytes", "nested_float"],
    )
    def test_rejects_values_json_would_not_read_back(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)


class TestRationalGrammar:
    """The rationals a file may hold: every string fractions.Fraction reads,
    and JSON ints. The canonical -?digits(/digits)? form is only the common
    case; the other rows pin what the decoder keeps accepting and
    rejecting."""

    ACCEPTED = [
        ("2/4", Fraction(1, 2)),
        ("-0", Fraction(0)),
        ("+3", Fraction(3)),
        (" 1", Fraction(1)),
        ("1_0", Fraction(10)),
        ("٣", Fraction(3)),
        ("0.5", Fraction(1, 2)),
        ("1e2", Fraction(100)),
        ("-12/08", Fraction(-3, 2)),
        ("7", Fraction(7)),
        (7, Fraction(7)),
        (-3, Fraction(-3)),
        (10**30, Fraction(10**30)),
    ]
    REJECTED = ["3/-4", " 3 / 4", "1/0", "", "0x10", 1.5, True]

    @staticmethod
    def _space(entry) -> dict:
        # the entry is a generator coordinate, where every rational is valid
        rows = [["1", "0"], ["0", "1"], ["1", entry]]
        return {"version": 1, "type": "space", "dim": 2, "label": "", "unit": ["1", "1"],
                "cone": {"rep": "generators", "rows": rows}}

    @staticmethod
    def _cli(tmp_path, verb, d):
        path = tmp_path / f"{verb}.json"
        path.write_text(json.dumps(d))
        buf = io.StringIO()
        return main([verb, "--format", "json", str(path)], out=buf), buf.getvalue()

    @pytest.mark.parametrize("entry,value", ACCEPTED, ids=[repr(e) for e, _ in ACCEPTED])
    def test_accepted(self, entry, value, tmp_path):
        got = decode_frac(entry)
        assert type(got) is Fraction and got == value
        d = self._space(entry)
        code, text = self._cli(tmp_path, "validate", d)
        assert code == 0
        report = json.loads(text)
        assert report["inputs"]["space"]["cone"]["rows"][2] == ["1", str(value)]
        code, text = self._cli(tmp_path, "roundtrip", d)
        assert code == 0 and json.loads(text) == self._space(str(value))
        report["inputs"]["space"]["cone"]["rows"][2][1] = entry
        assert self._cli(tmp_path, "verify", report)[0] == 0

    @pytest.mark.parametrize("entry", REJECTED, ids=[repr(e) for e in REJECTED])
    def test_rejected(self, entry, tmp_path, capsys):
        with pytest.raises(InputError):
            decode_frac(entry)
        d = self._space(entry)
        assert self._cli(tmp_path, "validate", d)[0] == 2
        assert self._cli(tmp_path, "roundtrip", d)[0] == 2
        code, text = self._cli(tmp_path, "validate", self._space("1/2"))
        report = json.loads(text)
        report["inputs"]["space"]["cone"]["rows"][2][1] = entry
        assert self._cli(tmp_path, "verify", report)[0] == 2
        assert "aoulab: invalid input: " in capsys.readouterr().err
