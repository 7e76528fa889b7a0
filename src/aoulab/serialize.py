"""Versioned JSON for spaces, maps, and tensor elements.

Rationals travel as exact "p/q" strings and keys are emitted sorted, so
every object has one canonical text form and round-trips bit for bit.
`canonical_json` writes that form for objects and CLI reports alike.
Only format version 1 exists.

A file may hold a rational as a JSON int or as a string that
fractions.Fraction reads: blanks around the whole, an optional sign, then
digits (any Unicode decimal digits, single underscores between them) and
either /digits, with no sign or blank inside, or a decimal form such as
".5" or "1e-2". So "2/4", "-0", "+3", " 1", "1_0", "0.5" and
"1e2" decode, to 1/2, 0, 3, 1, 10, 1/2 and 100. "3/-4", " 3 / 4", "1/0",
"", "0x10", JSON floats and booleans are invalid input. The canonical
-?digits(/digits)? form, the only one written, takes the fast path.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .cones import Cone, view
from .errors import InputError, SizeLimitError
from .linalg import Matrix, Vec, frac
from .maps import UnitalMap
from .spaces import AOUSpace
from .tensors import TensorElement

VERSION = 1
_CANONICAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]+")


def _enc_frac(x: Fraction | int) -> str:
    """The canonical text of a rational; SizeLimitError past Python's limit
    on the digits of an int written as text, which is shared by the whole
    process and so left as it is."""
    try:
        return str(x) if type(x) is int else str(frac(x))
    except ValueError as exc:
        raise SizeLimitError(f"a rational too long to write: {exc}") from exc


def decode_frac(s) -> Fraction:
    """A JSON int, or a string in the grammar of the module docstring; the
    canonical form is read with int() and one Fraction."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise InputError(f"expected a rational encoded as a string, got {s!r}")
    try:
        if type(s) is str and _CANONICAL.fullmatch(s):
            p, _, q = s.partition("/")
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r}") from exc


def _enc_vec(v: Vec) -> list:
    return [_enc_frac(x) for x in v]


def decode_vec(items) -> Vec:
    if not isinstance(items, list):
        raise InputError("expected a list of rationals")
    return tuple([decode_frac(x) for x in items])


def decode_rows(items, row=decode_vec) -> list:
    if not isinstance(items, list):
        raise InputError("expected a list of rows")
    return [row(r) for r in items]


def _cone_row(items) -> tuple:
    """A cone row: one whose entries are all integers, JSON ints or
    canonical strings, as a tuple of ints, which the cone takes as it is."""
    if isinstance(items, list) and all(type(x) is int or type(x) is str and _INTEGER.fullmatch(x)
                                       for x in items):
        try:
            return tuple([int(x) for x in items])
        except ValueError:
            pass  # a string past the int digit limit, which decode_frac refuses
    return decode_vec(items)


def _check_header(d, expected_type: str) -> None:
    if not isinstance(d, dict):
        raise InputError("expected a JSON object")
    if d.get("version") != VERSION:
        raise InputError(f"unsupported format version {d.get('version')!r}")
    if d.get("type") != expected_type:
        raise InputError(f"expected type {expected_type!r}, got {d.get('type')!r}")


def _cone_to_dict(cone: Cone) -> dict:
    if not cone.is_polyhedral:
        return {"rep": "sym_psd", "n": cone.psd_side}
    # integer rows at scale 1 are written as they are
    rows = [_enc_vec(r) for r in (view(cone, True) if cone.scales else cone.rows)]
    if cone.generators is not None:
        return {"rep": "generators", "rows": rows}
    return {"rep": "inequalities", "rows": rows, "strict": list(cone.strict)}


def _cone_from_dict(d, dim: int) -> Cone:
    if not isinstance(d, dict):
        raise InputError("cone must be a JSON object")
    rep = d.get("rep")
    if rep == "sym_psd":
        n = d.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InputError(f"sym_psd side n must be a positive integer, got {n!r}")
        cone = Cone.sym_psd(n)
        if cone.dim != dim:
            raise InputError("sym_psd side does not match the space dimension")
        return cone
    if rep == "generators":
        return Cone.from_generators(decode_rows(d.get("rows"), _cone_row), dim)
    if rep == "inequalities":
        strict = d.get("strict")
        if strict is not None and not (
            isinstance(strict, list) and all(isinstance(s, bool) for s in strict)
        ):
            raise InputError("strict flags must be a list of booleans")
        return Cone.from_inequalities(decode_rows(d.get("rows"), _cone_row), strict=strict, dim=dim)
    raise InputError(f"unknown cone representation {rep!r}")


def space_to_dict(space: AOUSpace) -> dict:
    return {
        "version": VERSION,
        "type": "space",
        "label": space.label,
        "dim": space.dim,
        "unit": _enc_vec(space.unit),
        "cone": _cone_to_dict(space.cone),
    }


def space_from_dict(d) -> AOUSpace:
    _check_header(d, "space")
    dim = d.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0:
        raise InputError(f"bad dimension {dim!r}")
    label = d.get("label", "")
    if not isinstance(label, str):
        raise InputError(f"space label must be a string, got {label!r}")
    return AOUSpace(
        dim=dim,
        cone=_cone_from_dict(d.get("cone"), dim),
        unit=decode_vec(d.get("unit")),
        label=label,
    )


def map_to_dict(m: UnitalMap) -> dict:
    return {
        "version": VERSION,
        "type": "map",
        "source": space_to_dict(m.source),
        "target": space_to_dict(m.target),
        "matrix": [_enc_vec(row) for row in m.matrix.data],
    }


def map_from_dict(d) -> UnitalMap:
    _check_header(d, "map")
    return UnitalMap(
        space_from_dict(d.get("source")),
        space_from_dict(d.get("target")),
        Matrix.from_rows(decode_rows(d.get("matrix"))),
    )


def element_to_dict(z: TensorElement) -> dict:
    return {
        "version": VERSION,
        "type": "tensor_element",
        "left": space_to_dict(z.left),
        "right": space_to_dict(z.right),
        "coeffs": [_enc_vec(row) for row in z.coeffs.data],
    }


def element_from_dict(d) -> TensorElement:
    _check_header(d, "tensor_element")
    return TensorElement(
        space_from_dict(d.get("left")),
        space_from_dict(d.get("right")),
        Matrix.from_rows(decode_rows(d.get("coeffs"))),
    )


_FROM = {"space": space_from_dict, "map": map_from_dict, "tensor_element": element_from_dict}


def to_dict(obj) -> dict:
    if isinstance(obj, AOUSpace):
        return space_to_dict(obj)
    if isinstance(obj, UnitalMap):
        return map_to_dict(obj)
    if isinstance(obj, TensorElement):
        return element_to_dict(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def from_dict(d):
    if not isinstance(d, dict):
        raise InputError("expected a JSON object")
    kind = d.get("type")
    if kind not in _FROM:
        raise InputError(f"unknown object type {kind!r}")
    return _FROM[kind](d)


def canonical_json(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2) plus a newline, byte for
    byte, for values built of dicts with string keys, lists, strings, ints,
    bools and None; any other value raises TypeError. json.dumps runs its
    pure-Python encoder whenever it indents; this one joins the text of
    each container at once."""
    return _json(value, "\n") + "\n"


def _json(x, nl: str) -> str:
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is list:
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in x]) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        if any(type(k) is not str for k in x):
            raise TypeError(f"JSON object keys must be strings: {list(x)!r}")
        inner = nl + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    if t is int:
        return str(x)
    raise TypeError(f"not a JSON value: {t.__name__}")


def dumps(obj) -> str:
    return canonical_json(to_dict(obj))


def loads(text: str):
    try:
        d = json.loads(text)
    except ValueError as exc:  # malformed, or an int past the digit limit
        raise InputError(f"malformed JSON: {exc}") from exc
    return from_dict(d)
