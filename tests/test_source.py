"""Properties of the package source itself."""

import ast
import re
import types
from pathlib import Path

import aoulab

PACKAGE = Path(aoulab.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_no_assert_statements():
    # `python -O` strips assert; invariants must raise InvariantViolation
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}: {name}" for name in _unused_imports(tree)]
    assert not found, found


def _module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return names


def _read_names(trees) -> set[str]:
    """Every name package code reads, bare or as an attribute."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _parse_package() -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_no_unreferenced_private_names():
    # a module-level _name that no code in the package reads is dead code
    trees = _parse_package()
    referenced = _read_names(trees)
    found = [
        f"{file}: {name} (line {line})"
        for file, tree in trees.items()
        for name, line in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert not found, found


def test_no_unreferenced_public_names():
    # a module-level public name that the package neither re-exports from
    # __init__ nor reads anywhere is an entry point no caller has
    trees = _parse_package()
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    referenced = _read_names(trees)
    found = [
        f"{file}: {name} (line {line})"
        for file, tree in trees.items()
        if file != "__init__.py"
        for name, line in _module_level_names(tree)
        if not name.startswith("_") and name not in exported and name not in referenced
    ]
    assert not found, found


# every name `import aoulab` gives, so that adding or removing a public name
# shows in this test's diff
PUBLIC_API = {
    "AOUSpace", "AoulabError", "BELL", "BlockPositivityReport", "Certificate", "Cone", "DefectStep",
    "EPSILON", "EQ", "FactorizationResult", "GE", "I4", "INFEASIBLE", "InputError", "InvariantViolation",
    "LE", "LPOutcome", "MapReport", "Matrix", "NotPointedError", "NuclearityReport", "OPTIMAL", "PI",
    "PolyhedralRequired", "PsdResult", "QuotientReport", "SEGRE_RELATION", "SWAP", "ShapeError",
    "SizeLimitError", "StrictConeError", "TensorElement", "TensorSpace", "TensorVerdict", "UNBOUNDED",
    "UnitalMap", "ValidationReport", "Vec", "WitnessReport", "archimedean_quotient", "archimedeanize",
    "auerbach_basis", "block_positive", "check_map", "contains", "det", "dot", "dual", "dual_augmented",
    "dual_norm", "dumps", "extend_unital_positive", "extreme_rays", "extreme_states", "factorize", "frac",
    "from_dict", "image_cone", "injective_banach_norm", "integerize", "interval_min", "inverse",
    "is_nuclear_fd", "is_nuclear_pairwise", "is_order_ideal", "is_order_quotient", "is_pointed",
    "is_simplicial", "kadison_embed", "kron_vec", "ldlt_psd", "lin_space", "linf", "loads", "member",
    "member_tensor", "norm_bound_equiv", "nullspace", "operator_norm", "order_interval_vertices",
    "order_norm", "pack_sym", "partial_transpose", "pert", "perturb", "psd_example_suite", "rank",
    "same_cone", "solve", "solve_lp", "sos_matches", "sym_dim", "sym_space", "tensor_map", "tensor_space",
    "to_dict", "unit_ball_vertices", "unpack_sym", "validate", "vec",
}


def test_public_api_is_the_listed_names():
    exported = {n for n, v in vars(aoulab).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == PUBLIC_API, (sorted(exported - PUBLIC_API), sorted(PUBLIC_API - exported))


def test_no_global_statements():
    # a module global rebound from inside a function is state shared by
    # every caller that no argument shows
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert not found, found


def test_no_floats():
    # no float ever takes part in a decision: no float literal, no float()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            if literal or call:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_fraction_of_a_parameter():
    # Fraction(x) takes a float x as a binary fraction, so a float argument
    # would take part in a decision; only the two coercions that check the
    # type first may call it on a parameter
    allowed = {("linalg.py", "frac"), ("serialize.py", "decode_frac")}
    found = []
    for file, tree in _parse_package().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (file, getattr(fn, "name", None)) in allowed:
                continue
            a = fn.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "Fraction"
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in params
                ):
                    found.append(f"{file}:{node.lineno} Fraction({node.args[0].id})")
    assert not found, found


def _imports_lp(node) -> bool:
    """An import of the lp module or of names from it, relative or absolute."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "lp" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        from_lp = (node.module or "").split(".")[-1] == "lp"
        return from_lp or any(alias.name == "lp" for alias in node.names)
    return False


def test_cones_imports_no_lp():
    # membership reads the cone's double description; no LP may decide it
    path = PACKAGE / "cones.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"cones.py:{node.lineno}" for node in ast.walk(tree) if _imports_lp(node)]
    assert not found, found


def test_one_cache_mechanism():
    # derived values are kept by cones._cached alone: no other module
    # touches the _derived attribute (declaring the field is a name, not an
    # attribute), and no module keeps a cache of its own by weak reference
    found = []
    for file, tree in _parse_package().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_derived" and file != "cones.py":
                found.append(f"{file}:{node.lineno} ._derived")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                names += [alias.name for alias in node.names]
                if "weakref" in (n.split(".")[0] for n in names):
                    found.append(f"{file}:{node.lineno} import weakref")
    assert not found, found


def _is_name_call(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


# each construction and the checker `verify` runs on its result
CHECKED_CONSTRUCTIONS = {
    ("maps.py", "archimedean_quotient"): "_quotient_holds",
    ("maps.py", "auerbach_basis"): "_auerbach_holds",
    ("maps.py", "_pert_with_norms"): "_pert_holds",
    ("maps.py", "_perturb_with_norm"): "_perturb_holds",
    ("tensors.py", "factorize"): "_factorization_holds",
    ("tensors.py", "is_nuclear_pairwise"): "_nuclearity_holds",
    ("tensors.py", "_space_nuclearity"): "_space_nuclearity_holds",
}


def test_one_check_per_construction():
    # a construction checks its result by one call to its checker and reads
    # no .unital or .positive flag, so no second check of the same claims
    # comes back beside the one verify runs
    trees = _parse_package()
    found = []
    for (file, name), checker in CHECKED_CONSTRUCTIONS.items():
        [fn] = [node for node in trees[file].body if isinstance(node, ast.FunctionDef) and node.name == name]
        nodes = list(ast.walk(fn))
        calls = [n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
        if [c for c in calls if c.startswith("_") and c.endswith("_holds")] != [checker]:
            found.append(f"{file}: {name} does not call {checker} once, and no other checker")
        found += [
            f"{file}:{n.lineno} {name} reads .{n.attr}"
            for n in nodes
            if isinstance(n, ast.Attribute) and n.attr in ("unital", "positive")
        ]
    assert not found, found


# each function that keeps one route to its value, and the second routes it
# may not reach: a package function by name, or an attribute written ".name"
ONE_ROUTE = {
    ("spaces.py", "order_norm"): {"extreme_states", "_int_states"},
    ("maps.py", "norm_bound_equiv"): {"interval_min", "order_interval_vertices"},
    ("spaces.py", "archimedeanize"): {"validate"},
    ("spaces.py", "kadison_embed"): {".unital", ".positive"},
    # the defect LP's own duals are the evidence, and the check solves and
    # searches nothing
    ("tensors.py", "_best_psi"): {"member"},
    ("tensors.py", "_factorization_holds"): {"solve_lp", "member", "_best_psi"},
    # the greedy loop factorize and its check share takes its steps from
    # its caller, and checks each with no search
    ("tensors.py", "_greedy"): {"solve_lp", "member", "_best_psi"},
}


def _second_routes(trees: dict, file: str, name: str, banned: set) -> list[str]:
    """The banned names the module-level function `name` of `file` reaches:
    a name it reads, or an attribute, in it or in any module-level function
    of the package it names, followed to any depth."""
    defs: dict = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    todo = [node for node in trees[file].body if isinstance(node, ast.FunctionDef) and node.name == name]
    seen, found = set(), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                todo += defs.get(node.id, [])
                found |= {node.id} & banned
            elif isinstance(node, ast.Attribute):
                found |= {"." + node.attr} & banned
    return sorted(found)


def test_one_route_per_value():
    # a value computed once, its proof in the docstring, reaches none of
    # the routes that used to compute it a second time; the tests keep them
    # as oracles
    trees = _parse_package()
    found = [
        f"{file}: {name} reaches {route}"
        for (file, name), banned in ONE_ROUTE.items()
        for route in _second_routes(trees, file, name, banned)
    ]
    assert not found, found


# the one greedy loop, the functions that run it, and the greedy picks
# only it makes
GREEDY_LOOP = ("_greedy", ("factorize", "_factorization_holds"), ("_seed_states", "_next_state"))


def _loop_forks(trees: dict, file: str) -> list[str]:
    """The runners of `file` that do not reach the loop, and the functions
    of `file` other than the loop that make a greedy pick."""
    loop, runners, picks = GREEDY_LOOP
    found = [f"{name} does not reach {loop}" for name in runners if not _second_routes(trees, file, name, {loop})]
    return found + [f"{name} makes a greedy pick" for f, name in sorted(_call_sites(trees, picks)) if f == file and name != loop]


def test_one_greedy_loop():
    # factorize and its check run the same loop, so the two cannot drift
    # apart; no other function seeds or picks states
    assert _loop_forks(_parse_package(), "tensors.py") == []


def test_second_routes_are_found():
    # the route guard sees a call, a call through a helper, a function
    # passed along and an attribute read, and passes a function with none;
    # the loop guard sees a check that picks states by a loop of its own
    source = """
def _states(space):
    return extreme_states(space)
def order_norm(space, v):
    return max(abs(dot(s, v)) for s in _states(space))
def norm_bound_equiv(space, f, eps):
    return min(map(interval_min, [space]))
def archimedeanize(space):
    return space, identity(space.dim)
def kadison_embed(space):
    emb = embed(space)
    return emb if emb.unital else None
def validate(space):
    return order_norm(space, space.unit)
def _row_cone(cone):
    return cone, member
def _best_psi(space, phi_rows, vectors):
    return _row_cone(space.cone)
def _factorization_holds(space, eps, res):
    return res.steps and _best_psi(space, [], []) and _next_state([], [], [], [])
def _greedy(space, eps, step_at):
    return step_at(0, _states(space))
def factorize(space, eps):
    return _greedy(space, eps, lambda n, rows: _best_psi(space, rows, []))
"""
    trees = {"x.py": ast.parse(source)}
    assert {
        name: _second_routes(trees, "x.py", name, banned) for (_, name), banned in ONE_ROUTE.items()
    } == {
        "order_norm": ["extreme_states"],
        "norm_bound_equiv": ["interval_min"],
        "archimedeanize": [],
        "kadison_embed": [".unital"],
        "_best_psi": ["member"],
        "_factorization_holds": ["_best_psi", "member"],
        "_greedy": [],
    }
    assert _loop_forks(trees, "x.py") == [
        "_factorization_holds does not reach _greedy",
        "_factorization_holds makes a greedy pick",
    ]



def _check_column_faults(tree: ast.Module) -> list[str]:
    """Faults of the check column of cli's `_VERBS` table: a check that
    reaches no library checker or more than one, or that decodes by hand
    (decode_frac, decode_rows, decode_vec or isinstance) rather than through
    the decoder. A check is a function of the module, or a call of one with
    the checker as an argument. A library checker is a `_*_holds` of maps
    or tensors, or a certificate's `.verify`."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    library = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("maps", "tensors")
        for alias in node.names
    }
    [table] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_VERBS"]
    ]
    faults = []
    for verb, row in zip(table.keys, table.values):
        checks = [kw.value for kw in row.keywords if kw.arg == "check"] + row.args[3:]
        if not checks:
            continue
        [check] = checks
        reached = [check] if isinstance(check, ast.Name) else [check.func, *check.args]
        nodes = [n for r in reached for n in ast.walk(defs.get(getattr(r, "id", None), r))]
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        holds = {n for n in names if n.startswith("_") and n.endswith("_holds")}
        holds |= {".verify" for n in nodes if isinstance(n, ast.Attribute) and n.attr == "verify"}
        if len(holds) != 1 or not holds <= library | {".verify"}:
            faults.append(f"{verb.value}: reaches the checkers {sorted(holds)}, not one library checker")
        by_hand = names & {"decode_frac", "decode_rows", "decode_vec", "isinstance"}
        faults += [f"{verb.value}: decodes with {n}" for n in sorted(by_hand)]
    return faults


def test_each_check_is_one_decode_and_one_library_checker():
    # verify's checks decode through cli._decoder alone and then ask one
    # library checker, so a claim is checked once and decoded one way
    path = PACKAGE / "cli.py"
    assert _check_column_faults(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_check_column_faults_are_found():
    # the guard above sees a check with a second checker, one with none and
    # one that decodes by hand, and takes a certificate's verify alone
    source = """
from .maps import _pert_holds, _perturb_holds
def _both(t, result):
    return _pert_holds(t, result) and _perturb_holds(t, result)
def _by_hand(t, result):
    return isinstance(result, dict) and _pert_holds(t, decode_frac(result["norm"]))
def _certificate(z, cert):
    return cert.verify(cone, z)
def _holds_and_certificate(t, cert):
    return _pert_holds(t, cert) and cert.verify(cone, t)
_VERBS = {
    "a": _Verb("a", (), run, _both),
    "b": _Verb("b", (), run, check=_none()),
    "c": _Verb("c", (), run, _by_hand),
    "d": _Verb("d", (), run),
    "e": _Verb("e", (), run, _certificate),
    "f": _Verb("f", (), run, _holds_and_certificate),
}
"""
    assert _check_column_faults(ast.parse(source)) == [
        "a: reaches the checkers ['_pert_holds', '_perturb_holds'], not one library checker",
        "b: reaches the checkers [], not one library checker",
        "c: decodes with decode_frac",
        "c: decodes with isinstance",
        "f: reaches the checkers ['.verify', '_pert_holds'], not one library checker",
    ]


def _hand_dot_lines(tree: ast.Module) -> list[int]:
    """Lines of a dot product or linear combination by hand: a sum of
    products over a zip or a range, such as sum(x * y for x, y in zip(a, b))
    or sum(a[i] * b[i] for i in range(n)), and vadd(..., vscale(...))."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            _is_name_call(node, "sum")
            and node.args
            and isinstance(gen := node.args[0], ast.GeneratorExp)
            and isinstance(gen.elt, ast.BinOp)
            and isinstance(gen.elt.op, ast.Mult)
            and any(_is_name_call(comp.iter, "zip") or _is_name_call(comp.iter, "range") for comp in gen.generators)
        )
        or (_is_name_call(node, "vadd") and any(_is_name_call(arg, "vscale") for arg in node.args))
    ]


def test_one_dot_product_kernel():
    # dot products and linear combinations go through linalg's dot, idot
    # and combine, which normalize once per result and reject inexact
    # entries; a sum of products or a vadd of a vscale elsewhere builds a
    # Fraction per term and lets a float through
    found = [
        f"{file}:{line}"
        for file, tree in _parse_package().items()
        if file != "linalg.py"
        for line in _hand_dot_lines(tree)
    ]
    assert not found, found


def test_hand_dot_products_are_found():
    # the guard above sees each form it names
    forms = [
        "sum(x * y for x, y in zip(a, b))",
        "sum(a[i] * b[i] for i in range(n))",
        "sum(x[i] * dot(a[i], x) for i in range(len(x)))",
        "acc = vadd(acc, vscale(mu, row))",
        "[vadd(x, vscale(c, r)) for x in xs]",
    ]
    for form in forms:
        assert _hand_dot_lines(ast.parse(form)) == [1], form
    assert _hand_dot_lines(ast.parse("sum(abs(x) for x in range(n)) + vadd(a, b)")) == []


# report verbs whose reports carry no evidence yet: `verify` runs them again
RERUN_VERBS = (
    "validate",
    "norm",
    "states",
    "archimedeanize",
    "quotient",
    "check-map",
    "extend",
    "tensor-norm",
    "examples",
)


def test_every_verb_is_checked_or_rerun():
    # a verb added to the table must choose: a check of its report's
    # evidence, or a place in RERUN_VERBS
    from aoulab.cli import _VERBS

    checked = [verb for verb, spec in _VERBS.items() if spec.check is not None]
    assert sorted(checked + list(RERUN_VERBS)) == sorted(_VERBS)


# where rational input becomes integers: each call of integerize or
# common_den, by the function that makes it, and the input it takes
INTEGERIZE_SITES = {
    ("cones.py", "_split"): "a cone's own rows, in Cone.__post_init__, however the cone is built",
    ("cones.py", "Certificate.verify"): "the vector a certificate is checked on",
    ("cones.py", "member"): "the vector whose membership is asked",
    ("cones.py", "_generator_member"): "the same vector, for a V-cone",
    ("cones.py", "_int_matrix"): "a matrix, once per matrix, for image_cone and maps",
    ("linalg.py", "integerize"): "its own argument",
    ("linalg.py", "kron_vec"): "the two rational vectors it multiplies",
    ("linalg.py", "_int_rows"): "the Fraction rows of a Matrix, for the elimination kernels",
    ("lp.py", "solve_lp"): "the Farkas multipliers of an infeasible LP, an LP outcome",
    ("maps.py", "dual_norm"): "the functional whose norm is asked",
    ("maps.py", "_auerbach_holds"): "the basis and duals of an Auerbach system under check",
    ("maps.py", "_min_l1_measure"): "the functional whose minimal measure is asked",
    ("maps.py", "_quotient_holds"): "the kernel basis a quotient was asked for",
    ("spaces.py", "_int_unit"): "a space's unit, once per space",
    ("tensors.py", "_space_nuclearity_holds"): "the rays of a report under check",
}


def _call_sites(trees: dict, names: tuple[str, ...]) -> set[tuple[str, str]]:
    """(file, function) for each call of one of names, bare or as an
    attribute; a method is named Class.method, and a nested function
    counts for the module-level one that holds it."""

    def calls(node) -> bool:
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Name) and f.id in names) or (isinstance(f, ast.Attribute) and f.attr in names)

    found = set()
    for file, tree in trees.items():
        todo = [("", node) for node in tree.body]
        while todo:
            prefix, node = todo.pop()
            if isinstance(node, ast.ClassDef):
                todo += [(node.name + ".", n) for n in node.body]
            elif isinstance(node, ast.FunctionDef):
                if any(calls(n) for n in ast.walk(node)):
                    found.add((file, prefix + node.name))
    return found


INTEGERIZING = ("integerize", "common_den")


def test_integerize_only_on_public_inputs():
    # cones, spaces and maps hold integers; a call outside these sites
    # would turn a Fraction the package built back into integers
    sites, allowed = _call_sites(_parse_package(), INTEGERIZING), set(INTEGERIZE_SITES)
    assert sites == allowed, (sorted(sites - allowed), sorted(allowed - sites))


def test_integerize_sites_are_found():
    # the guard above sees a planted call in a function, a method and a
    # nested function, and passes code with none
    source = """
def states(space):
    return [integerize(f) for f in extreme_states(space)]
class Box:
    def rows(self):
        def inner():
            return common_den(self.unit)
        return inner()
def clean(space):
    return idot(space.unit, space.unit)
"""
    assert _call_sites({"x.py": ast.parse(source)}, INTEGERIZING) == {("x.py", "states"), ("x.py", "Box.rows")}


def test_rows_are_split_in_one_place():
    # a cone's own rows become coprime integer tuples in Cone.__post_init__
    # alone, and the DD runs only on rows under that contract: a cone's own
    # rows, or the homogenized rows polytope_vertices reduces itself
    trees = _parse_package()
    assert _call_sites(trees, ("_split",)) == {("cones.py", "Cone.__post_init__")}
    assert _call_sites(trees, ("dd_pair",)) == {("cones.py", "_dd"), ("dd.py", "polytope_vertices")}


def test_call_sites_are_found():
    # the guard above sees a bare call, an attribute call and a call in a
    # method, and not a name that is only read
    source = """
def _dd(cone):
    return dd.dd_pair(cone.rows, cone.dim)
class Cone:
    def __post_init__(self):
        _split(self.rows)
def other(cone):
    return _split, dd_pair
"""
    trees = {"x.py": ast.parse(source)}
    assert _call_sites(trees, ("_split", "dd_pair")) == {("x.py", "_dd"), ("x.py", "Cone.__post_init__")}


def test_one_order_unit_gate():
    # the order-unit row test refuses a unit in _require_order_unit alone;
    # validate reads it to report, and every other test of the unit
    # (dual rays, tensor factors, biorthogonal coordinates, an infeasible
    # norm LP) follows from the gate by Gordan's theorem
    assert _call_sites(_parse_package(), ("order_unit_failures",)) == {
        ("spaces.py", "validate"),
        ("spaces.py", "_require_order_unit"),
    }


def test_order_unit_test_call_sites_are_found():
    # the guard above sees a second test of the factor units in a loop,
    # through a module attribute, and not a name that is only read
    source = """
def _require_order_unit(cone, space):
    bad = order_unit_failures(int_hrep(cone), _int_unit(space)[0])
def tensor_space(left, right, kind):
    for sp in (left, right):
        if spaces.order_unit_failures(int_hrep(sp.cone), _int_unit(sp)[0]):
            raise InvariantViolation("factor unit fails the order unit test")
def gate():
    return order_unit_failures
"""
    trees = {"x.py": ast.parse(source)}
    assert _call_sites(trees, ("order_unit_failures",)) == {("x.py", "_require_order_unit"), ("x.py", "tensor_space")}


CAP_NAME = re.compile(r"\b[A-Z][A-Z0-9_]*_CAP\b")


def _documented_caps(text: str) -> set[str]:
    """The *_CAP names of README's size-cap bullet, the one that starts
    "- The only size caps", up to the next bullet or blank line."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- The only size caps"))
    end = next((i for i in range(start + 1, len(lines)) if not lines[i] or lines[i].startswith("- ")), len(lines))
    return set(CAP_NAME.findall("\n".join(lines[start:end])))


def test_readme_documents_exactly_the_caps():
    # every module-level *_CAP constant is in README's size-cap bullet, and
    # README names no other, so no cap is added or removed without the docs
    caps = {name for tree in _parse_package().values() for name, _ in _module_level_names(tree) if name.endswith("_CAP")}
    text = README.read_text(encoding="utf-8")
    assert _documented_caps(text) == caps
    assert set(CAP_NAME.findall(text)) == caps


def test_documented_caps_are_found():
    # the guard above reads the bullet alone, across its wrapped lines
    text = """- Other: `OLD_CAP` here.
- The only size caps are `A_CAP` and
  `B2_CAP`, nothing else.
- Next: `C_CAP`.
"""
    assert _documented_caps(text) == {"A_CAP", "B2_CAP"}
    assert _documented_caps(text.replace("\n- Next", "\n\n- Next")) == {"A_CAP", "B2_CAP"}
