import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import g2fueter

MODULES = ["g2fueter"] + sorted(f"g2fueter.{m.name}" for m in pkgutil.iter_modules(g2fueter.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deletion must take its __all__ entry with it
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _loaded_after(code):
    """The g2fueter modules in sys.modules after `code` runs in a fresh
    interpreter that imports this checkout's package."""
    paths = [str(Path(g2fueter.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code += "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('g2fueter'))))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


# Submodules load on first use, so a caller pays only for the layers it names
def test_package_import_loads_no_submodule():
    assert _loaded_after("import g2fueter") == ["g2fueter"]


def test_splitting_loads_only_its_layers():
    # the benchmark's setup probe: the import and the first standard splitting
    loaded = _loaded_after("from g2fueter import splitting\nsplitting.standard_splitting()")
    assert loaded == ["g2fueter", "g2fueter.exterior", "g2fueter.g2core", "g2fueter.splitting"]


def test_submodule_attribute_is_the_imported_module():
    assert _loaded_after(
        "import importlib, g2fueter\nassert g2fueter.pde is importlib.import_module('g2fueter.pde')"
    ) == ["g2fueter", "g2fueter.exterior", "g2fueter.fueter", "g2fueter.g2core", "g2fueter.pde",
          "g2fueter.splitting"]


def test_unknown_attribute_is_an_attribute_error():
    # an ImportError, or any other, would exit the child non-zero
    assert _loaded_after(
        "import g2fueter\ntry:\n    g2fueter.nosuch\nexcept AttributeError as e:\n    assert 'nosuch' in str(e)"
    ) == ["g2fueter"]
    assert not hasattr(g2fueter, "nosuch")


def test_dir_lists_every_submodule():
    assert _loaded_after("import g2fueter\nassert set(g2fueter.__all__) <= set(dir(g2fueter))") \
        == ["g2fueter"]


def test_star_import_binds_every_submodule():
    assert _loaded_after("from g2fueter import *\nassert pde.__name__ == 'g2fueter.pde'") \
        == ["g2fueter"] + sorted(f"g2fueter.{name}" for name in g2fueter.__all__)


# A library parameter (or settable dataclass field with a default) exists
# only where program callers (the package and benchmarks/) need different
# values, or where it carries outside input.
# A new one shows up here as a diff that has to be justified.
PINNED_KNOBS = [
    "exterior.Form.is_zero(tol)",
    "exterior.Form.equals(tol)",
    "exterior.basis_form(coeff)",
    "exterior.render(label)",
    "models.model_by_name(B)",
    "pde.PolynomialMap.__init__(periodicity)",
    "pde.affine_map(b)",
    "pde.random_fourier_field(kmax)",
    "pde.minimization_experiment(grid_n)",
    "pde.minimization_experiment(extra_perturbations)",
    "pde.cs_functional(n)",
    "pde.cs_first_variation(n)",
    # the two scans fill different parts of one report type
    "splitting.ScanReport.skipped",
    "splitting.ScanReport.equality_cases",
    "splitting.semi_calibration_scan(tol)",
    "splitting.semi_calibration_scan(include_frames)",
    "splitting.semi_calibration_scan(label)",
    "splitting.anisotropic_scan(tol)",
    "splitting.anisotropic_scan(include_planes)",
]


def _is_dataclass(node):
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _settable_with_default(value):
    """Whether a dataclass field's right-hand side gives a constructor
    argument a default: a plain value, or field(...) with a default and
    without init=False."""
    if value is None:
        return False
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    kw = {k.arg: k.value for k in value.keywords}
    init_false = isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False
    return not init_false and bool({"default", "default_factory"} & kw.keys())


def _defaulted_parameters(body, prefix, dataclass_fields=False):
    """module.[Class.]function(param) for each defaulted parameter of the
    public functions, methods and __init__s in an AST body, and
    module.Class.field for each settable, defaulted dataclass field."""
    out = []
    for node in body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += _defaulted_parameters(node.body, f"{prefix}{node.name}.", _is_dataclass(node))
        elif (
            dataclass_fields
            and isinstance(node, ast.AnnAssign)
            and _settable_with_default(node.value)
        ):
            out.append(f"{prefix}{node.target.id}")
        elif isinstance(node, ast.FunctionDef) and (
            node.name == "__init__" or not node.name.startswith("_")
        ):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out += [f"{prefix}{node.name}({a.arg})" for a in defaulted]
    return out


def test_library_knobs_are_pinned():
    package = Path(g2fueter.__file__).parent
    knobs = []
    for path in sorted(package.glob("*.py")):
        if path.stem != "cli":
            knobs += _defaulted_parameters(ast.parse(path.read_text()).body, f"{path.stem}.")
    assert knobs == PINNED_KNOBS


# An ordered comparison is false when a float in it is NaN, so a guard
# `if x <= 0.0: raise` lets a NaN through.  A raise-guard must be true on
# NaN: negate the comparison (`not x > 0.0`) or test `np.isfinite`.
# These guards compare only integers, where no NaN can occur.
INTEGER_GUARDS = {
    "exterior: any((idx[i] >= idx[i + 1] for i in range(len(idx) - 1)))": "form index order",
    "exterior: self.degree < 0": "form degree",
    "fm_gauge: len(gaps) < 2": "count of usable radii",
    "fueter: s >= 3": "plane dimension",
    "pde: any((e < 0 for p in exps for e in p)) or len({len(p) for p in exps}) > 1":
        "monomial exponents (ints by operator.index) and their lengths",
    "splitting: kmax < 0": "series order",
    "splitting: n < 1": "sample count",
    "splitting: span.shape[0] > span.shape[1]": "array shape",
}

ORDERED = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _reduction(node, names):
    """The argument of any(...)/all(...) or np.any/np.all, else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names:
        arg = node.args[0]
        return arg.elt if isinstance(arg, ast.GeneratorExp) else arg
    return None


def _true_on_nan(node):
    """Whether the expression is true whenever a float it compares is NaN."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return _false_on_nan(node.operand)
    inner = _reduction(node, {"any"})
    return inner is not None and _true_on_nan(inner)


def _false_on_nan(node):
    """Whether the expression is false whenever a float it compares is NaN."""
    if isinstance(node, ast.Compare):
        return all(isinstance(op, ORDERED + (ast.Eq,)) for op in node.ops)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return _true_on_nan(node.operand)
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        return all(_false_on_nan(v) for v in node.values)
    inner = _reduction(node, {"all"})
    return inner is not None and _false_on_nan(inner)


def test_raise_guards_fail_on_nan():
    package = Path(g2fueter.__file__).parent
    unsound = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)):
                continue
            compares = [c for c in ast.walk(node.test) if isinstance(c, ast.Compare)]
            if not any(isinstance(op, ORDERED) for c in compares for op in c.ops):
                continue
            if "isfinite" not in ast.unparse(node.test) and not _true_on_nan(node.test):
                unsound.add(f"{path.stem}: {ast.unparse(node.test)}")
    assert unsound == set(INTEGER_GUARDS)



def _references(tree):
    """Every identifier a module's code uses or imports; the names its
    own defs bind are not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.Name, ast.Attribute)):
            yield getattr(node, "id", getattr(node, "attr", None))


def _names(tree):
    """Every identifier a module's code uses, defines or imports."""
    yield from (node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))
    yield from _references(tree)


def test_one_module_owns_the_sample_block_pool():
    # the scans start the pool from one place in splitting, the sampler's
    # frame blocks (Gram-Schmidt, then the caller's per-block work such as
    # semical's contraction); exterior's kernels are plain and import no
    # thread or CPU machinery
    package = Path(g2fueter.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert [stem for stem, tree in trees.items() if "_blockwise" in _names(tree)] == ["splitting"]
    calls = [node for node in ast.walk(trees["splitting"]) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_blockwise"]
    assert len(calls) == 1
    imported = {alias.name.split(".")[0] for node in ast.walk(trees["exterior"])
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(trees["exterior"])
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"concurrent", "contextvars", "os", "collections"}


# The public surface is what the program uses.  Every public module-level
# function and class of the package, and every public method, must be
# named (as an ast.Name, an ast.Attribute or an import alias) somewhere in
# the package, in benchmarks/*.py or in demos/*.py.  Strings and __all__
# entries do not count, and neither do the tests: a def that only its
# tests reach is deleted, moved into tests/, or listed here with the reason
# it stays.  The check works by name, so a method that shares its name
# with a reached one passes: a profiler hook over every command, demo and
# benchmark experiment is what found VectorValuedForm.equals behind
# Form.equals.
UNREACHED = {
    "splitting.Splitting.chi_form_f":
        "benchmarks/tracer.py wraps it by name in METHODS",
    "fueter.chi_via_beta":
        "the beta route for chi_2 and chi_3, the independent reference that "
        "test_fueter compares chi_component_values against",
}


def _public_defs(tree, stem):
    """(qualified name, name) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{stem}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{stem}.{node.name}.{item.name}", item.name


def test_every_public_def_has_a_program_caller():
    modules = sorted(Path(g2fueter.__file__).parent.glob("*.py"))
    program = modules + sorted((ROOT / "benchmarks").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    reached = {name for path in program for name in _references(ast.parse(path.read_text()))}
    defs = {qual: name for path in modules
            for qual, name in _public_defs(ast.parse(path.read_text()), path.stem)}
    assert {qual for qual, name in defs.items() if name not in reached} == set(UNREACHED)
