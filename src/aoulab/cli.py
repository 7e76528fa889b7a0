"""Command-line front end.

Every verb loads its inputs, runs one library operation, and emits a report
that embeds both the inputs and the result, so `verify` can re-run the
computation from the report alone and confirm it bit for bit.  Exit codes:
0 the computation ran (whatever the verdict), 1 usage error, 2 invalid
input, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import Callable

from .errors import InputError, InvariantViolation
from .maps import (
    UnitalMap,
    _pert_with_norms,
    _perturb_with_norm,
    archimedean_quotient,
    auerbach_basis,
    check_map,
    extend_unital_positive,
)
from .psd_examples import psd_example_suite
from .serialize import (
    VERSION,
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
    order_norm,
    validate,
)
from .tensors import (
    EPSILON,
    PI,
    TensorElement,
    factorize,
    injective_banach_norm,
    is_nuclear_fd,
    is_nuclear_pairwise,
    member_tensor,
    tensor_space,
)

EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_BREACH = 0, 1, 2, 3

_META_KEYS = ("version", "type", "verb", "inputs")


def _plain(obj):
    """Render result payloads as JSON-able data with exact rationals."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
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
    return repr(obj)


def _json_text(d) -> str:
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_typed(path: str, want, what: str):
    obj = loads(_read(path))
    if not isinstance(obj, want):
        raise InputError(f"{path} does not hold a {what}")
    return obj


def _parse_json_flag(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {what}: {exc}") from exc


# -- runners with more than one step; the table below holds the rest ---------
#
# A runner takes the decoded arguments in table order and returns the result
# fields; `_report` renders them with `_plain`.


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
    suite = {rep.label: rep for rep in psd_example_suite()}
    got = {
        label: {cone: v.claim for cone, v in rep.verdicts.items()}
        for label, rep in suite.items()
    }
    verified = all(rep.verify() for rep in suite.values())
    pair = is_nuclear_pairwise(lin_space(2), lin_space(2))
    all_match = got == expected and verified and pair.nuclear is False
    out = {
        "matrix_examples": got,
        "certificates_verified": verified,
        "lin_space_2_square_nuclear": pair.nuclear,
        "all_match": all_match,
    }
    if pair.witness is not None:
        out["non_nuclearity_witness"] = pair.witness
    return out


# -- the verb table ------------------------------------------------------------
#
# One row per report verb: help text, arguments, runner.  The parser, the argv
# path and `verify` all read it.  An argument is spelled `key` (positional) or
# `--key` (option).  `load` turns its argv text into the value the report
# embeds under `key`; `decode` turns an embedded value into the runner's
# argument and rejects, as invalid input, any value `load` could not have made.


@dataclasses.dataclass(frozen=True)
class _Arg:
    key: str
    load: Callable[[str], object]
    decode: Callable[[object], object]
    option: bool = False
    help: str | None = None
    choices: tuple[str, ...] | None = None
    default: str | None = None


def _file(key, cls, what, from_dict, help=None) -> _Arg:
    return _Arg(key, lambda path: to_dict(_load_typed(path, cls, what)), from_dict, help=help)


def _space(key="space", help=None) -> _Arg:
    return _file(key, AOUSpace, "space", space_from_dict, help)


_MAP = _file("map", UnitalMap, "map", map_from_dict)
_ELEMENT = _file("element", TensorElement, "tensor element", element_from_dict)


def _json(key, decode, help) -> _Arg:
    return _Arg(key, lambda text: _parse_json_flag(text, f"--{key}"), decode, True, help)


def _choice(key, choices, option=False) -> _Arg:
    def decode(value):
        if value not in choices:
            raise InputError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        return value

    return _Arg(key, str, decode, option, choices=choices)


@dataclasses.dataclass(frozen=True)
class _Verb:
    help: str
    args: tuple[_Arg, ...]
    run: Callable[..., dict]


_VERBS = {
    "validate": _Verb(
        "order-unit, Archimedean, pointedness flags", (_space(),), _fields_of(validate)
    ),
    "norm": _Verb(
        "order norm of a vector",
        (_space(), _json("vector", decode_vec, 'JSON list, e.g. "[1,-1]"')),
        lambda space, v: {"norm": order_norm(space, v)},
    ),
    "states": _Verb(
        "extreme states of the space",
        (_space(),),
        lambda space: {"states": [s.functional for s in extreme_states(space)]},
    ),
    "archimedeanize": _Verb(
        "Archimedeanization and its projection", (_space(),), _run_archimedeanize
    ),
    "quotient": _Verb(
        "Archimedean quotient by an order ideal",
        (_space(), _json("kernel", decode_rows, "JSON list of basis rows")),
        lambda space, kernel: dict(zip(("space", "map"), archimedean_quotient(space, kernel))),
    ),
    "check-map": _Verb(
        "unital/positive/embedding/isometry flags", (_MAP,), _fields_of(check_map)
    ),
    "extend": _Verb(
        "extend a partial unital positive map",
        (
            _space(help="the big space"),
            _space("target", help="the value space"),
            _json("basis", decode_rows, "JSON rows spanning the subspace"),
            _json("values", decode_rows, "JSON rows of images"),
        ),
        lambda space, target, basis, values: {
            "map": extend_unital_positive(space, basis, values, target)
        },
    ),
    "pert": _Verb(
        "nearest positive map, coordinatewise target",
        (_MAP,),
        lambda m: dict(zip(("map", "distance", "norm"), _pert_with_norms(m))),
    ),
    "perturb": _Verb(
        "positive correction with the dimension bound",
        (_MAP,),
        lambda m: dict(zip(("map", "bound", "norm"), _perturb_with_norm(m))),
    ),
    "auerbach": _Verb(
        "Auerbach system of the unit ball",
        (_space(),),
        lambda space: dict(zip(("basis", "duals"), auerbach_basis(space))),
    ),
    "tensor-member": _Verb(
        "membership of a tensor element in one tensor cone",
        (_ELEMENT, _choice("kind", (EPSILON, PI), option=True)),
        _run_tensor_member,
    ),
    "tensor-norm": _Verb(
        "injective norm of a tensor element",
        (_ELEMENT,),
        lambda z: {"norm": injective_banach_norm(z)},
    ),
    "nuclear": _Verb(
        "nuclearity of one space", (_space(),), lambda space: {"nuclear": is_nuclear_fd(space)}
    ),
    "nuclear-pair": _Verb(
        "equality of the two tensor cones on a pair",
        (_space("left"), _space("right")),
        _fields_of(is_nuclear_pairwise),
    ),
    "factorize": _Verb(
        "approximate factorization through a coordinatewise space",
        (_space(), _Arg("eps", str, decode_frac, True, "defect tolerance, a rational", default="1/10")),
        _fields_of(factorize),
    ),
    "examples": _Verb(
        "run the built-in worked examples and check their verdicts",
        (_choice("which", ("paper",)),),
        _run_examples,
    ),
}


def _report(verb: str, inputs) -> dict:
    """Decode the embedded inputs against the verb's row, run it, and wrap
    the result as a report."""
    spec = _VERBS[verb]
    keys = sorted(a.key for a in spec.args)
    if not isinstance(inputs, dict) or sorted(inputs) != keys:
        raise InputError(f"{verb} inputs must be an object with the keys {keys}")
    result = _plain(spec.run(*(a.decode(inputs[a.key]) for a in spec.args)))
    if any(k in result for k in _META_KEYS):
        raise InvariantViolation("result keys collide with report metadata")
    return {"version": VERSION, "type": "report", "verb": verb, "inputs": inputs, **result}


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(_json_text(report))
        return
    result = {k: v for k, v in report.items() if k not in _META_KEYS}
    if len(result) == 1:
        value = next(iter(result.values()))
        if isinstance(value, str):
            out.write(f"{value}\n")
            return
        if isinstance(value, (bool, int)):
            out.write(f"{json.dumps(value)}\n")
            return
    for key in sorted(result):
        out.write(f"{key}: {json.dumps(result[key], sort_keys=True)}\n")


# -- argv plumbing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit status 2 is reserved for invalid input files, so usage problems
    # exit 1 instead of argparse's default 2
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and reused after that:
    # building costs about a hundred times as much as parsing
    parser = _Parser(prog="aoulab", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)
    for verb, spec in _VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=spec.help)
        for a in spec.args:
            kw = {"required": a.default is None, "default": a.default} if a.option else {}
            p.add_argument(f"--{a.key}" if a.option else a.key, choices=a.choices, help=a.help, **kw)
    for verb, help_text, arg in (
        ("roundtrip", "canonical serialization of a file", "path"),
        ("verify", "re-run a report and confirm it bit for bit", "report"),
    ):
        sub.add_parser(verb, parents=[common], help=help_text).add_argument(arg)
    return parser


def _cmd_roundtrip(args, out) -> int:
    out.write(dumps(loads(_read(args.path))))
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    try:
        report = json.loads(_read(args.report))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed report: {exc}") from exc
    if not isinstance(report, dict) or report.get("type") != "report":
        raise InputError("not a report file")
    if report.get("version") != VERSION:
        raise InputError(f"unsupported report version {report.get('version')!r}")
    verb = report.get("verb")
    if not isinstance(verb, str) or verb not in _VERBS:
        raise InputError(f"report carries unknown verb {verb!r}")
    fresh = _report(verb, report.get("inputs"))
    stored = {k: report[k] for k in report if k not in _META_KEYS}
    recomputed = {
        k: json.loads(_json_text(v)) for k, v in fresh.items() if k not in _META_KEYS
    }
    verified = stored == recomputed
    _emit(
        {"version": VERSION, "type": "report", "verb": "verify",
         "inputs": {"report": report.get("verb")}, "verified": verified},
        args.format,
        out,
    )
    return EXIT_OK if verified else EXIT_BREACH


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.verb == "roundtrip":
            return _cmd_roundtrip(args, out)
        if args.verb == "verify":
            return _cmd_verify(args, out)
        spec = _VERBS[args.verb]
        report = _report(args.verb, {a.key: a.load(getattr(args, a.key)) for a in spec.args})
        _emit(report, args.format, out)
        if args.verb == "examples" and not report.get("all_match", False):
            return EXIT_BREACH
        return EXIT_OK
    except InputError as exc:
        print(f"aoulab: invalid input: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(
                f"aoulab: certificate: {json.dumps(_plain(exc.certificate), sort_keys=True)}",
                file=sys.stderr,
            )
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"aoulab: invariant breach: {exc}", file=sys.stderr)
        return EXIT_BREACH


if __name__ == "__main__":
    raise SystemExit(main())
