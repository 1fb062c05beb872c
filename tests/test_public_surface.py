"""Public surface: every public name in ``src/ssrs`` has a caller in
``src/``, every defaulted parameter is passed by some call, and every
public top-level name is exported.

The scan reads the source with :mod:`ast` and matches by name: a call
``x.name(...)`` counts for every function or method called ``name``.  That
errs towards finding a caller, so a name it flags has none.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ssrs"
# Where a call may pass a defaulted parameter.
CALLER_DIRS = ("src", "tests", "demos", "perfbench")

# Public names that nothing in src/ references, each with its reason.  The
# list is exact: an entry that gains a src/ reference fails, and so does one
# that names no definition.
UNCALLED = {
    "envs.SparseChain.state_id_of":
        "perfbench/probe.py counts its calls and tests/test_perfbench_probe.py "
        "installs that probe; it leaves with the probe's repair",
    "envs.KeyDoorGrid.state_id_of":
        "perfbench/probe.py counts its calls and tests/test_perfbench_probe.py "
        "installs that probe; it leaves with the probe's repair",
    "augment.weak_strong_pair":
        "perfbench/probe.py times it and tests/test_perfbench_probe.py "
        "installs that probe; it leaves with the probe's repair",
    "augment.shannon_entropy":
        "the subject of acceptance criterion 03",
    "analysis.consensus":
        "the subject of acceptance criterion 10",
    "estimator.load_params":
        "the reader of the format save_params writes; acceptance criterion "
        "12 loads a run's parameters with it",
}

# Defaulted parameters that no call in the repository passes, keyed
# ``module.function.parameter``, each with its reason.  Exact, as above.
UNPASSED = {
    "cli._RunDirs.__call__.option_string":
        "argparse calls an Action with this signature",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public(name):
    return not name.startswith("_")


def _definitions(modules):
    """key -> (module, definition node) for every public top-level function
    and class, and every public method of a public class."""
    found = {}
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _public(node.name):
                continue
            found[f"{module}.{node.name}"] = (module, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found[f"{module}.{node.name}.{item.name}"] = (module,
                                                                      item)
    return found


def _references(modules):
    """(module, line, name) of every name and attribute read."""
    refs = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
    return refs


def _referenced(module, node, refs):
    span = range(node.lineno, node.end_lineno + 1)
    return any(name == node.name and not (where == module and line in span)
               for where, line, name in refs)


def uncalled_names():
    """The public names in src/ that nothing else in src/ references."""
    modules = _modules()
    refs = _references(modules)
    return {key for key, (module, node) in _definitions(modules).items()
            if not _referenced(module, node, refs)}


def _functions(modules):
    """(key, callee name, node, is method) of every function in src/; a
    class's ``__init__`` is called by the class's name."""
    found = []

    def visit(body, prefix, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, ast.FunctionDef):
                callee = owner if node.name == "__init__" else node.name
                found.append((f"{prefix}{node.name}", callee, node,
                              owner is not None))
                visit(node.body, f"{prefix}{node.name}.", None)

    for module, tree in modules.items():
        visit(tree.body, f"{module}.", None)
    return found


def _defaulted(node):
    """(name, positional index or None) of each parameter with a default."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default
            in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None]
    return out


def _calls():
    """callee name -> list of (positional count, keyword names) over every
    call in the repository.  A call that unpacks ``*args`` counts as passing
    every positional parameter, one that unpacks ``**kwargs`` every keyword
    (keyword names None), and ``partial(f, ...)`` as a call of ``f``."""
    calls = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func, args = node.func, node.args
                if (isinstance(func, ast.Name) and func.id == "partial"
                        and args):
                    func, args = args[0], args[1:]
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                keywords = [kw.arg for kw in node.keywords]
                calls.setdefault(name, []).append((
                    math.inf if any(isinstance(a, ast.Starred) for a in args)
                    else len(args),
                    None if None in keywords else set(keywords)))
    return calls


def unpassed_parameters():
    """``module.function.parameter`` of each defaulted parameter in src/
    that no call in the repository passes."""
    calls = _calls()
    found = set()
    for key, callee, node, method in _functions(_modules()):
        for name, index in _defaulted(node):
            if index is not None and method:
                index -= 1  # self or cls
            if not any(keywords is None or name in keywords
                       or (index is not None and index < n_positional)
                       for n_positional, keywords in calls.get(callee, ())):
                found.add(f"{key}.{name}")
    return found


def unexported_names():
    """``module.name`` of each public top-level function or class that its
    module's ``__all__`` does not list."""
    found = set()
    for module, tree in _modules().items():
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _public(node.name) and node.name not in exported):
                found.add(f"{module}.{node.name}")
    return found


def test_allow_lists_name_definitions():
    modules = _modules()
    assert set(UNCALLED) <= set(_definitions(modules))
    functions = {key: node for key, _, node, _ in _functions(modules)}
    for entry in UNPASSED:
        key, _, name = entry.rpartition(".")
        assert name in {n for n, _ in _defaulted(functions[key])}, entry


def test_every_public_name_has_a_caller_in_src():
    assert uncalled_names() == set(UNCALLED)


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == set(UNPASSED)


def test_every_public_top_level_name_is_exported():
    assert unexported_names() == set()
