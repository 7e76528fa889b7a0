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
    decode_rows,
    decode_vec,
    dumps,
    element_from_dict,
    element_to_dict,
    loads,
    map_from_dict,
    map_to_dict,
    space_from_dict,
    space_to_dict,
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
    if isinstance(obj, AOUSpace):
        return space_to_dict(obj)
    if isinstance(obj, UnitalMap):
        return map_to_dict(obj)
    if isinstance(obj, TensorElement):
        return element_to_dict(obj)
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


# -- one runner per verb, operating on the embedded-inputs dict ------------


def _run_validate(inputs):
    rep = validate(space_from_dict(inputs["space"]))
    return {
        "order_unit": rep.order_unit,
        "archimedean": rep.archimedean,
        "pointed": rep.pointed,
        "certificates": _plain(rep.certificates),
    }


def _run_norm(inputs):
    sp = space_from_dict(inputs["space"])
    return {"norm": _plain(order_norm(sp, decode_vec(inputs["vector"])))}


def _run_states(inputs):
    sp = space_from_dict(inputs["space"])
    return {"states": [_plain(s.functional) for s in extreme_states(sp)]}


def _run_archimedeanize(inputs):
    sp, proj = archimedeanize(space_from_dict(inputs["space"]))
    return {"space": space_to_dict(sp), "projection": _plain(proj.data)}


def _run_quotient(inputs):
    sp = space_from_dict(inputs["space"])
    quotient, qmap = archimedean_quotient(sp, decode_rows(inputs["kernel"]))
    return {"space": space_to_dict(quotient), "map": map_to_dict(qmap)}


def _run_check_map(inputs):
    rep = check_map(map_from_dict(inputs["map"]))
    return {
        "unital": rep.unital,
        "positive": rep.positive,
        "order_embedding": rep.order_embedding,
        "isometry": rep.isometry,
    }


def _run_extend(inputs):
    m = extend_unital_positive(
        space_from_dict(inputs["space"]),
        decode_rows(inputs["basis"]),
        decode_rows(inputs["values"]),
        space_from_dict(inputs["target"]),
    )
    return {"map": map_to_dict(m)}


def _run_pert(inputs):
    s, distance, norm = _pert_with_norms(map_from_dict(inputs["map"]))
    return {"map": map_to_dict(s), "distance": _plain(distance), "norm": _plain(norm)}


def _run_perturb(inputs):
    s, bound, norm = _perturb_with_norm(map_from_dict(inputs["map"]))
    return {"map": map_to_dict(s), "bound": _plain(bound), "norm": _plain(norm)}


def _run_auerbach(inputs):
    basis, duals = auerbach_basis(space_from_dict(inputs["space"]))
    return {"basis": _plain(basis), "duals": _plain(duals)}


def _run_tensor_member(inputs):
    z = element_from_dict(inputs["element"])
    ts = tensor_space(z.left, z.right, inputs["kind"])
    cert = member_tensor(ts, z)
    return {"kind": inputs["kind"], "verdict": cert.verdict, "certificate": _plain(cert)}


def _run_tensor_norm(inputs):
    z = element_from_dict(inputs["element"])
    return {"norm": _plain(injective_banach_norm(z))}


def _run_nuclear(inputs):
    return {"nuclear": is_nuclear_fd(space_from_dict(inputs["space"]))}


def _run_nuclear_pair(inputs):
    rep = is_nuclear_pairwise(
        space_from_dict(inputs["left"]), space_from_dict(inputs["right"])
    )
    out = {"nuclear": rep.nuclear}
    if rep.witness is not None:
        out["witness"] = element_to_dict(rep.witness)
        out["pi_certificate"] = _plain(rep.pi_certificate)
        out["epsilon_certificate"] = _plain(rep.epsilon_certificate)
    return out


def _run_factorize(inputs):
    sp = space_from_dict(inputs["space"])
    res = factorize(sp, eps=Fraction(inputs["eps"]))
    return {
        "defect": _plain(res.defect),
        "success": res.success,
        "states_used": res.states_used,
        "schedule": _plain(res.schedule),
        "exhausted": res.exhausted,
        "phi": map_to_dict(res.phi),
        "psi": map_to_dict(res.psi),
    }


def _run_examples(inputs):
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
        out["non_nuclearity_witness"] = element_to_dict(pair.witness)
    return out


_RUNNERS = {
    "validate": _run_validate,
    "norm": _run_norm,
    "states": _run_states,
    "archimedeanize": _run_archimedeanize,
    "quotient": _run_quotient,
    "check-map": _run_check_map,
    "extend": _run_extend,
    "pert": _run_pert,
    "perturb": _run_perturb,
    "auerbach": _run_auerbach,
    "tensor-member": _run_tensor_member,
    "tensor-norm": _run_tensor_norm,
    "nuclear": _run_nuclear,
    "nuclear-pair": _run_nuclear_pair,
    "factorize": _run_factorize,
    "examples": _run_examples,
}


def _report(verb: str, inputs: dict) -> dict:
    result = _RUNNERS[verb](inputs)
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

    def add(name, help_text, *specs):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for args, kwargs in specs:
            p.add_argument(*args, **kwargs)
        return p

    add("validate", "order-unit, Archimedean, pointedness flags", (("space",), {}))
    add(
        "norm",
        "order norm of a vector",
        (("space",), {}),
        (("--vector",), {"required": True, "help": 'JSON list, e.g. "[1,-1]"'}),
    )
    add("states", "extreme states of the space", (("space",), {}))
    add("archimedeanize", "Archimedeanization and its projection", (("space",), {}))
    add(
        "quotient",
        "Archimedean quotient by an order ideal",
        (("space",), {}),
        (("--kernel",), {"required": True, "help": "JSON list of basis rows"}),
    )
    add("check-map", "unital/positive/embedding/isometry flags", (("map",), {}))
    add(
        "extend",
        "extend a partial unital positive map",
        (("space",), {"help": "the big space"}),
        (("target",), {"help": "the value space"}),
        (("--basis",), {"required": True, "help": "JSON rows spanning the subspace"}),
        (("--values",), {"required": True, "help": "JSON rows of images"}),
    )
    add("pert", "nearest positive map, coordinatewise target", (("map",), {}))
    add("perturb", "positive correction with the dimension bound", (("map",), {}))
    add("auerbach", "Auerbach system of the unit ball", (("space",), {}))
    add(
        "tensor-member",
        "membership of a tensor element in one tensor cone",
        (("element",), {}),
        (("--kind",), {"required": True, "choices": (EPSILON, PI)}),
    )
    add("tensor-norm", "injective norm of a tensor element", (("element",), {}))
    add("nuclear", "nuclearity of one space", (("space",), {}))
    add(
        "nuclear-pair",
        "equality of the two tensor cones on a pair",
        (("left",), {}),
        (("right",), {}),
    )
    add(
        "factorize",
        "approximate factorization through a coordinatewise space",
        (("space",), {}),
        (("--eps",), {"default": "1/10", "help": "defect tolerance, a rational"}),
    )
    add(
        "examples",
        "run the built-in worked examples and check their verdicts",
        (("which",), {"choices": ("paper",)}),
    )
    add("roundtrip", "canonical serialization of a file", (("path",), {}))
    add("verify", "re-run a report and confirm it bit for bit", (("report",), {}))
    return parser


def _inputs_from_args(args) -> dict:
    verb = args.verb
    if verb in ("validate", "states", "archimedeanize", "nuclear", "auerbach"):
        return {"space": space_to_dict(_load_typed(args.space, AOUSpace, "space"))}
    if verb == "norm":
        return {
            "space": space_to_dict(_load_typed(args.space, AOUSpace, "space")),
            "vector": _parse_json_flag(args.vector, "--vector"),
        }
    if verb == "quotient":
        return {
            "space": space_to_dict(_load_typed(args.space, AOUSpace, "space")),
            "kernel": _parse_json_flag(args.kernel, "--kernel"),
        }
    if verb in ("check-map", "pert", "perturb"):
        return {"map": map_to_dict(_load_typed(args.map, UnitalMap, "map"))}
    if verb == "extend":
        return {
            "space": space_to_dict(_load_typed(args.space, AOUSpace, "space")),
            "target": space_to_dict(_load_typed(args.target, AOUSpace, "space")),
            "basis": _parse_json_flag(args.basis, "--basis"),
            "values": _parse_json_flag(args.values, "--values"),
        }
    if verb in ("tensor-member", "tensor-norm"):
        inputs = {
            "element": element_to_dict(
                _load_typed(args.element, TensorElement, "tensor element")
            )
        }
        if verb == "tensor-member":
            inputs["kind"] = args.kind
        return inputs
    if verb == "nuclear-pair":
        return {
            "left": space_to_dict(_load_typed(args.left, AOUSpace, "space")),
            "right": space_to_dict(_load_typed(args.right, AOUSpace, "space")),
        }
    if verb == "factorize":
        try:
            Fraction(args.eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad --eps {args.eps!r}") from exc
        return {
            "space": space_to_dict(_load_typed(args.space, AOUSpace, "space")),
            "eps": args.eps,
        }
    if verb == "examples":
        return {"which": args.which}
    raise InvariantViolation(f"no input builder for verb {verb!r}")


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
    if verb not in _RUNNERS:
        raise InputError(f"report carries unknown verb {verb!r}")
    fresh = _report(verb, report["inputs"])
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
        report = _report(args.verb, _inputs_from_args(args))
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
