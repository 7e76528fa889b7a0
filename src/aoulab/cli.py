"""Command-line front end.

Every verb loads its inputs, runs one library operation, and emits a report
that embeds both the inputs and the result, so `verify` can confirm the
report from the report alone.  Seven verbs are checked from the evidence
their reports carry, with no search run again: `factorize` from each
greedy step's psi and defect-LP dual multipliers, `pert` and `perturb` from
the map's integer sign test and dual norms over the unit ball and the
target's extreme states,
`auerbach` from biorthogonality, the cone rows at the basis and the dual
norms of the duals, `tensor-member` and `nuclear-pair` from their
certificates against the product generators and product-state rows, and
`nuclear` and a nuclear `nuclear-pair` from a simplicial cone's
biorthogonal rays and states, or from extreme rays past the dimension.
Each of those checks is one decoder, which reads the stored result back by
the type hints of the library's result types, plus one library checker: a
`_*_holds`, or for `tensor-member` the certificate's own `verify`.
`verify` re-runs every other verb and compares the result with the
report's.

argv is read against the verb table, which `-h` prints: the verb, then its
row's arguments and --format, positionals in table order and options as
`--key value` or `--key=value` in any order, each at most once and spelled
in full.  An option takes the next word as its value, whatever it starts
with; any other word that starts with "-" names an option.
Exit codes: 0 the computation ran (whatever the verdict; `verify` exits 3
on a report that does not hold), 1 a malformed command line, 2 invalid
input, 3 internal invariant breach.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import types
import typing
from fractions import Fraction
from typing import Callable

from .cones import Certificate
from .errors import InputError, InvariantViolation
from .linalg import Matrix, Vec
from .maps import (
    UnitalMap,
    _auerbach_holds,
    _pert_holds,
    _pert_with_norms,
    _perturb_holds,
    _perturb_with_norm,
    archimedean_quotient,
    auerbach_basis,
    check_map,
    extend_unital_positive,
)
from .psd_examples import psd_example_suite
from .serialize import (
    VERSION,
    _enc_frac,
    canonical_json,
    decode_frac,
    decode_rows,
    decode_vec,
    dumps,
    element_from_dict,
    loads,
    map_from_dict,
    space_from_dict,
    to_dict,
)
from .spaces import (
    AOUSpace,
    archimedeanize,
    extreme_states,
    lin_space,
    linf,
    order_norm,
    validate,
)
from .tensors import (
    EPSILON,
    PI,
    FactorizationResult,
    NuclearityReport,
    SpaceNuclearity,
    TensorElement,
    _factorization_holds,
    _nuclearity_holds,
    _space_nuclearity,
    _space_nuclearity_holds,
    factorize,
    injective_banach_norm,
    is_nuclear_pairwise,
    member_tensor,
    tensor_space,
)

EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_BREACH = 0, 1, 2, 3

_META_KEYS = ("version", "type", "verb", "inputs")
# result keys that hold evidence for `verify` alone: the json form carries
# them, the text form shows the claims without them
_EVIDENCE_KEYS = ("steps", "factor", "biorthogonal", "rays")


def _plain(obj):
    """Render result payloads as JSON-able data with exact rationals."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return _enc_frac(obj)
    if isinstance(obj, (AOUSpace, UnitalMap, TensorElement)):
        return to_dict(obj)
    if isinstance(obj, (tuple, list)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        out = {"object": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                out[f.name] = _plain(getattr(obj, f.name))
        return out
    raise InvariantViolation(f"a report cannot carry a {type(obj).__name__}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InputError(f"malformed {what}: {exc}") from exc


# -- runners with more than one step; the table below holds the rest ---------
#
# A runner takes the decoded arguments in table order and returns the result
# fields; `_result` renders them with `_plain`.


def _fields_of(fn):
    """A runner reporting fn's result dataclass: its public fields that are
    not None."""
    return lambda *args: {
        k: v for k, v in vars(fn(*args)).items() if not k.startswith("_") and v is not None
    }


def _run_archimedeanize(space):
    arch, proj = archimedeanize(space)
    return {"space": arch, "projection": proj.data}


def _run_tensor_member(z, kind):
    cert = member_tensor(tensor_space(z.left, z.right, kind), z)
    return {"kind": kind, "verdict": cert.verdict, "certificate": cert}


def _run_examples(_which):
    expected = {
        "bell": {"psd": "member", "pi": "non_member", "epsilon": "member"},
        "swap": {"psd": "non_member", "pi": "non_member", "epsilon": "member"},
        "identity": {"psd": "member", "pi": "member", "epsilon": "member"},
    }
    # psd_example_suite raises on a report that fails its verify
    got = {rep.label: {cone: v.claim for cone, v in rep.verdicts.items()} for rep in psd_example_suite()}
    pair = is_nuclear_pairwise(lin_space(2), lin_space(2))
    out = {"matrix_examples": got, "certificates_verified": True, "lin_space_2_square_nuclear": pair.nuclear}
    out["all_match"] = got == expected and pair.nuclear is False
    if pair.witness is not None:
        out["non_nuclearity_witness"] = pair.witness
    return out


# -- checks: a stored result against the decoded inputs, with no re-run -------
#
# A check declares the key shapes its result may take, decodes the result
# with `_decoder`, which inverts `_plain` by the result types' type hints,
# and returns what its library checker says.  A result with missing or extra
# keys, or a value of the wrong type or shape, is invalid input; a
# well-formed claim that does not hold gives False.


class _Refuted(Exception):
    """An embedded map or tensor element that is not the canonical one
    rebuilt around the inputs' spaces: a claim that does not hold."""


def _rational(x) -> Fraction:
    """A rational in the canonical "p/q" text reports carry."""
    value = decode_frac(x)
    if not isinstance(x, str) or str(value) != x:
        raise InputError(f"expected a rational in canonical form, got {x!r}")
    return value


def _expect(ok, what: str, x):
    """x, unless ok is false: then invalid input, a value `_plain` cannot
    have rendered."""
    if not ok:
        raise InputError(f"expected {what}, got {x!r}")
    return x


def _list(x) -> list:
    return _expect(isinstance(x, list), "a list", x)


def _rebuilt(make, x, where: str):
    """make of the matrix embedded in the object x under where; _Refuted
    unless x is its canonical form."""
    rows = decode_rows(_expect(isinstance(x, dict), "an embedded object", x).get(where))
    obj = make(Matrix.from_rows(rows))
    if to_dict(obj) != x:
        raise _Refuted
    return obj


@functools.cache
def _value_decoder(tp) -> Callable:
    """The closure that inverts `_plain` for one type hint, built once per
    hint: decode(x, key, (dim, rebuild)) reads the value x stored under key."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is Fraction:
        return lambda x, key, ctx: _rational(x)
    if origin in (typing.Union, types.UnionType):  # X | None
        inner = _value_decoder(args[0])
        return lambda x, key, ctx: None if x is None else inner(x, key, ctx)
    what = f"a {tp.__name__}" if isinstance(tp, type) else ""
    if tp in (bool, int, str, dict):
        return lambda x, key, ctx: _expect(type(x) is tp, what, x)
    if tp in (UnitalMap, TensorElement):
        where = "matrix" if tp is UnitalMap else "coeffs"
        return lambda x, key, ctx: _rebuilt(ctx[1][key], x, where)
    if tp is tuple:  # a row name, which starts with its kind
        return lambda x, key, ctx: tuple(_expect(_list(x) and type(x[0]) is str, "a row name", x))
    if args == (Fraction, ...):  # a vector, of length dim where dim is given
        return lambda x, key, ctx: tuple(
            map(_rational, _expect(ctx[0] in (None, len(_list(x))), "a vector", x))
        )
    if origin is tuple and args[-1] is Ellipsis:
        item = _value_decoder(args[0])
        return lambda x, key, ctx: tuple([item(v, key, ctx) for v in _list(x)])
    if origin is tuple:
        items, what = tuple(map(_value_decoder, args)), f"{len(args)} entries"
        return lambda x, key, ctx: tuple(
            [f(v, key, ctx) for f, v in zip(items, _expect(len(_list(x)) == len(items), what, x))]
        )
    fields = _fields_decoder(tp)  # any other hint is a dataclass, rendered with its name

    def dataclass(x, key, ctx):
        _expect(isinstance(x, dict) and x.get("object") == tp.__name__, what, x)
        return fields({k: v for k, v in x.items() if k != "object"}, (), ctx)

    return dataclass


@functools.cache
def _fields_decoder(spec) -> Callable:
    """The closure that decodes an object by spec, a dataclass or the
    (key, hint) pairs of a dict of hints, built once per spec: the key set
    of d must be one of shapes (by default spec's)."""
    hints = typing.get_type_hints(spec) if isinstance(spec, type) else dict(spec)
    decoders, default = {k: _value_decoder(tp) for k, tp in hints.items()}, [sorted(hints)]

    def decode(d, shapes, ctx):
        keys = [sorted(s) for s in shapes] or default
        if not isinstance(d, dict) or sorted(d) not in keys:
            raise InputError(f"expected an object with one of the key sets {keys}, got {d!r}")
        out = {k: decoders[k](v, k, ctx) for k, v in d.items()}
        return spec(**out) if isinstance(spec, type) else out

    return decode


def _decoder(dim: int | None = None, **rebuild) -> Callable:
    """The inverse of `_plain` for one check: decode(spec, d, *shapes)
    reads the object d, whose key set must be one of shapes (by default
    spec's), decoding each value by its type hint in spec, a dict of hints
    or a dataclass, which it then builds.  Every vector (a tuple of
    rationals) must have length dim where dim is given.  A map or tensor
    element embedded under the key k is rebuild[k] of its matrix, and
    raises _Refuted unless the report holds its canonical form.  A value
    `_plain` cannot have rendered from its hint is invalid input, as is a
    null in d itself, where no checked runner returns None (`_fields_of`
    drops None fields); only objects nested in d store None as null."""

    def decode(spec, d, *shapes):
        if isinstance(d, dict) and any(v is None for v in d.values()):
            raise InputError(f"a result stores no null, got {d!r}")
        key = spec if isinstance(spec, type) else tuple(spec.items())
        return _fields_decoder(key)(d, shapes, (dim, rebuild))

    return decode


def _map_check(key: str, holds):
    """The check of a pert or perturb result: the map S, a rational under
    key (the distance or the bound) and the norm of t."""

    def check(t, result) -> bool:
        decode = _decoder(map=lambda m: UnitalMap(t.source, t.target, m))
        r = decode({"map": UnitalMap, key: Fraction, "norm": Fraction}, result)
        return holds(t, r["map"], r[key], r["norm"])

    return check


def _check_tensor_member(z, kind, result) -> bool:
    decode = _decoder(z.left.dim * z.right.dim)
    r = decode({"certificate": Certificate, "kind": str, "verdict": str}, result)
    cert = r["certificate"]
    return (
        r["kind"] == kind
        and r["verdict"] == cert.verdict
        and cert.verify(tensor_space(z.left, z.right, kind).realized.cone, z.flatten())
    )


def _check_nuclear_pair(left, right, result) -> bool:
    factor = result.get("factor")
    if factor not in ("left", "right", None):
        raise InputError(f"factor must be left or right, got {factor!r}")
    # a biorthogonal pair is about the named factor, a certificate about the tensor
    dim = left.dim * right.dim if factor is None else (left if factor == "left" else right).dim
    decode = _decoder(dim, witness=lambda c: TensorElement(left, right, c))
    report = decode(
        NuclearityReport,
        result,
        ("biorthogonal", "factor", "nuclear"),
        ("epsilon_certificate", "nuclear", "pi_certificate", "witness"),
    )
    return report.nuclear == (report.witness is None) and _nuclearity_holds(left, right, report)


def _check_nuclear(space, result) -> bool:
    decode = _decoder(space.dim)
    report = decode(SpaceNuclearity, result, ("biorthogonal", "nuclear"), ("nuclear", "rays"))
    return report.nuclear == (report.rays is None) and _space_nuclearity_holds(space, report)


def _check_auerbach(space, result) -> bool:
    r = _decoder(space.dim)({"basis": tuple[Vec, ...], "duals": tuple[Vec, ...]}, result)
    return _auerbach_holds(space, r["basis"], r["duals"])


def _check_factorize(space, eps, result) -> bool:
    coordinates = functools.cache(linf)  # phi's target is psi's source
    decode = _decoder(
        phi=lambda m: UnitalMap(space, coordinates(m.rows), m),
        psi=lambda m: UnitalMap(coordinates(m.cols), space, m),
    )
    return _factorization_holds(space, eps, decode(FactorizationResult, result))


def _roundtrip(path: str, fmt: str, out) -> int:
    _write(out, dumps(loads(_read(path))))
    return EXIT_OK


def _verify(path: str, fmt: str, out) -> int:
    report = _parse_json(_read(path), "report")
    if not isinstance(report, dict) or report.get("type") != "report":
        raise InputError("not a report file")
    if report.get("version") != VERSION:
        raise InputError(f"unsupported report version {report.get('version')!r}")
    verb = report.get("verb")
    if not isinstance(verb, str) or verb not in _VERBS or not _VERBS[verb].report:
        raise InputError(f"report carries unknown verb {verb!r}")
    inputs, keys = report.get("inputs"), sorted(a.key for a in _VERBS[verb].args)
    if not isinstance(inputs, dict) or sorted(inputs) != keys:
        raise InputError(f"{verb} inputs must be an object with the keys {keys}")
    inputs = [a.decode(inputs[a.key]) for a in _VERBS[verb].args]
    stored = {k: report[k] for k in report if k not in _META_KEYS}
    check = _VERBS[verb].check
    # `_plain` yields only what JSON parses back to itself, so the re-run
    # result compares with the stored one directly
    try:
        verified = check(*inputs, stored) if check else stored == _result(verb, inputs)
    except _Refuted:
        verified = False
    verdict = {"version": VERSION, "type": "report", "verb": "verify", "inputs": {"report": verb}}
    _write(out, _render({**verdict, "verified": verified}, fmt))
    return EXIT_OK if verified else EXIT_BREACH


# -- the verb table ------------------------------------------------------------
#
# One row per verb: help text, arguments, runner, and the check that
# `verify` runs in place of the runner, where the report carries evidence
# for one.  The argv parser, the dispatch, `--help` and `verify` all read it.
# An argument is spelled `key` (positional) or `--key` (option).  `load`
# turns its argv text into the value the report embeds under `key` and the
# runner's argument; `decode` turns an embedded value into the runner's
# argument and rejects, as invalid input, any value `load` could not have
# made.  `roundtrip` and `verify` make no report: their runners take the
# argv text and the format, write their own output and return the exit code.


@dataclasses.dataclass(frozen=True)
class _Arg:
    key: str
    load: Callable[[str], tuple[object, object]] | None = None
    decode: Callable[[object], object] | None = None
    option: bool = False
    help: str | None = None
    choices: tuple[str, ...] | None = None
    default: str | None = None


def _file(key, cls, what, from_dict, help=None) -> _Arg:
    def load(path):
        obj = loads(_read(path))
        if not isinstance(obj, cls):
            raise InputError(f"{path} does not hold a {what}")
        return to_dict(obj), obj

    return _Arg(key, load, from_dict, help=help)


def _space(key="space", help=None) -> _Arg:
    return _file(key, AOUSpace, "space", space_from_dict, help)


_MAP = _file("map", UnitalMap, "map", map_from_dict)
_ELEMENT = _file("element", TensorElement, "tensor element", element_from_dict)


def _as_embedded(parse, decode):
    """A load that embeds what parse makes of the text and decodes that."""

    def load(text):
        value = parse(text)
        return value, decode(value)

    return load


def _json(key, decode, help) -> _Arg:
    parse = lambda text: _parse_json(text, f"--{key}")
    return _Arg(key, _as_embedded(parse, decode), decode, True, help)


def _choice(key, choices, option=False) -> _Arg:
    def decode(value):
        if value not in choices:
            raise InputError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        return value

    return _Arg(key, _as_embedded(str, decode), decode, option, choices=choices)


@dataclasses.dataclass(frozen=True)
class _Verb:
    help: str
    args: tuple[_Arg, ...]
    run: Callable[..., dict]
    check: Callable[..., bool] | None = None
    report: bool = True


_VERBS = {
    "validate": _Verb("order-unit, Archimedean, pointedness flags", (_space(),), _fields_of(validate)),
    "norm": _Verb(
        "order norm of a vector",
        (_space(), _json("vector", decode_vec, 'JSON list, e.g. "[1,-1]"')),
        lambda space, v: {"norm": order_norm(space, v)},
    ),
    "states": _Verb(
        "extreme states of the space", (_space(),), lambda space: {"states": extreme_states(space)}
    ),
    "archimedeanize": _Verb("Archimedeanization and its projection", (_space(),), _run_archimedeanize),
    "quotient": _Verb(
        "Archimedean quotient by an order ideal",
        (_space(), _json("kernel", decode_rows, "JSON list of basis rows")),
        lambda space, kernel: dict(zip(("space", "map"), archimedean_quotient(space, kernel))),
    ),
    "check-map": _Verb("unital/positive/embedding/isometry flags", (_MAP,), _fields_of(check_map)),
    "extend": _Verb(
        "extend a partial unital positive map",
        (
            _space(help="the big space"),
            _space("target", help="the value space"),
            _json("basis", decode_rows, "JSON rows spanning the subspace"),
            _json("values", decode_rows, "JSON rows of images"),
        ),
        lambda space, target, basis, values: {"map": extend_unital_positive(space, basis, values, target)},
    ),
    "pert": _Verb(
        "nearest positive map, coordinatewise target",
        (_MAP,),
        lambda m: dict(zip(("map", "distance", "norm"), _pert_with_norms(m))),
        _map_check("distance", _pert_holds),
    ),
    "perturb": _Verb(
        "positive correction with the dimension bound",
        (_MAP,),
        lambda m: dict(zip(("map", "bound", "norm"), _perturb_with_norm(m))),
        _map_check("bound", _perturb_holds),
    ),
    "auerbach": _Verb(
        "Auerbach system of the unit ball",
        (_space(),),
        lambda space: dict(zip(("basis", "duals"), auerbach_basis(space))),
        _check_auerbach,
    ),
    "tensor-member": _Verb(
        "membership of a tensor element in one tensor cone",
        (_ELEMENT, _choice("kind", (EPSILON, PI), option=True)),
        _run_tensor_member,
        _check_tensor_member,
    ),
    "tensor-norm": _Verb(
        "injective norm of a tensor element", (_ELEMENT,), lambda z: {"norm": injective_banach_norm(z)}
    ),
    "nuclear": _Verb(
        "nuclearity of one space", (_space(),), _fields_of(_space_nuclearity), _check_nuclear
    ),
    "nuclear-pair": _Verb(
        "equality of the two tensor cones on a pair",
        (_space("left"), _space("right")),
        _fields_of(is_nuclear_pairwise),
        _check_nuclear_pair,
    ),
    "factorize": _Verb(
        "approximate factorization through a coordinatewise space",
        (
            _space(),
            _Arg("eps", _as_embedded(str, decode_frac), decode_frac, True, "defect tolerance", default="1/10"),
        ),
        _fields_of(factorize),
        _check_factorize,
    ),
    "examples": _Verb(
        "run the built-in worked examples and check their verdicts",
        (_choice("which", ("paper",)),),
        _run_examples,
    ),
    "roundtrip": _Verb(
        "canonical serialization of a file",
        (_Arg("path", help="a space, map or tensor element file"),),
        _roundtrip,
        report=False,
    ),
    "verify": _Verb(
        "confirm a report: factorize, pert, perturb, auerbach, tensor-member, nuclear and "
        "nuclear-pair from the evidence they carry, any other verb by running it again",
        (_Arg("report", help="a report written with --format json"),),
        _verify,
        report=False,
    ),
}


def _result(verb: str, args: list) -> dict:
    """The verb's result fields, rendered with `_plain`."""
    result = _plain(_VERBS[verb].run(*args))
    if any(k in result for k in _META_KEYS):
        raise InvariantViolation("result keys collide with report metadata")
    return result


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(report)
    result = {k: v for k, v in report.items() if k not in _META_KEYS + _EVIDENCE_KEYS}
    if len(result) == 1:
        value = next(iter(result.values()))
        if isinstance(value, str):
            return f"{value}\n"
        if isinstance(value, (bool, int)):
            return f"{json.dumps(value)}\n"
    return "".join(f"{key}: {json.dumps(result[key], sort_keys=True)}\n" for key in sorted(result))


def _write(out, text: str) -> None:
    """Write and flush every output of `main`. A reader that has closed the
    pipe ends the output quietly: out then points at os.devnull, so the
    interpreter's closing flush cannot fail again, and the run keeps its
    exit code."""
    try:
        out.write(text)
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


# -- argv, read from the verb table (the grammar is in the module docstring) ----

_FORMAT = _Arg("format", option=True, help="report format", choices=("text", "json"), default="text")


class _UsageError(Exception):
    """A malformed command line (exit 1), refused before any input is read."""


def _spelling(a: _Arg) -> str:
    value = "{" + ",".join(a.choices) + "}" if a.choices else a.key.upper()
    if not a.option:
        return value
    return f"--{a.key} {value}" if a.default is None else f"[--{a.key} {value}]"


def _help(verb: str | None) -> str:
    """The usage text of one verb, or of them all."""
    if verb is None:
        usage, about = "VERB ... (aoulab VERB -h lists its arguments)", __doc__.splitlines()[0]
        rows = [(v, spec.help) for v, spec in _VERBS.items()]
    else:
        args, about = _VERBS[verb].args + (_FORMAT,), _VERBS[verb].help
        usage, rows = " ".join([verb, *map(_spelling, args)]), [(_spelling(a), a.help or "") for a in args]
    width = max(len(name) for name, _ in rows) + 2
    lines = "".join(f"  {name:<{width}}{text}".rstrip() + "\n" for name, text in rows)
    return f"usage: aoulab {usage}\n\n{about}\n\n{lines}"


def _parse(argv: list[str]) -> dict[str, str] | str:
    """The verb under "verb" and each argument's text under its key, or the
    help text where -h or --help stands in place of an option."""
    verb = argv[0] if argv else None
    if verb in ("-h", "--help"):
        return _help(None)
    if verb not in _VERBS:
        raise _UsageError(f"expected a verb, one of {', '.join(_VERBS)}; got {verb!r}")
    args = _VERBS[verb].args + (_FORMAT,)
    options = {f"--{a.key}": a for a in args if a.option}
    positionals, words, got = iter([a for a in args if not a.option]), iter(argv[1:]), {"verb": verb}
    for word in words:
        if word in ("-h", "--help"):
            return _help(verb)
        if word.startswith("-"):
            name, eq, value = word.partition("=")
            a = options.get(name)
            if a is None:
                raise _UsageError(f"{verb} has no option {name}")
            value = value if eq else next(words, None)
            if value is None or a.key in got:
                raise _UsageError(f"{name} takes one value" if value is None else f"{name} given twice")
        elif (a := next(positionals, None)) is None:
            raise _UsageError(f"unexpected argument {word!r}")
        else:
            value = word
        if a.choices and value not in a.choices:
            raise _UsageError(f"{_spelling(a)} must be one of {', '.join(a.choices)}, got {value!r}")
        got[a.key] = value
    for a in args:
        if a.key not in got and (not a.option or a.default is None):
            raise _UsageError(f"{verb} requires {_spelling(a)}")
        got.setdefault(a.key, a.default)
    return got


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"aoulab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(args, str):  # -h or --help
        _write(out, args)
        return EXIT_OK
    verb, spec = args["verb"], _VERBS[args["verb"]]
    try:
        if not spec.report:
            return spec.run(*[args[a.key] for a in spec.args], args["format"], out)
        loaded = [a.load(args[a.key]) for a in spec.args]
        inputs = {a.key: embedded for a, (embedded, _) in zip(spec.args, loaded)}
        report = {"version": VERSION, "type": "report", "verb": verb, "inputs": inputs}
        report |= _result(verb, [arg for _, arg in loaded])
        _write(out, _render(report, args["format"]))
        if verb == "examples" and not report.get("all_match", False):
            return EXIT_BREACH
        return EXIT_OK
    except InputError as exc:
        print(f"aoulab: invalid input: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            certificate = json.dumps(_plain(exc.certificate), sort_keys=True)
            print(f"aoulab: certificate: {certificate}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"aoulab: invariant breach: {exc}", file=sys.stderr)
        return EXIT_BREACH


if __name__ == "__main__":
    raise SystemExit(main())
