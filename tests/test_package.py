"""The package namespace and its modules' imports."""

import ast
import re
from pathlib import Path

import pytest

import exppoly
from exppoly import _ode

# bindings nothing in the package reads: bench/tracing.py wraps each by name
TRACER_BINDINGS = {
    ("holo_bi", "transport"),
    ("inference", "transport"),
    ("inference", "transport_bi"),
}
# `_ode` functions that only raise, kept because bench/tracing.py wraps each
TRACER_STUBS = ("dopri45", "rk4_with_estimate")


def test_exports_resolve_once():
    names = exppoly.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(exppoly, name)] == []


def test_modules_read_every_import():
    # a stand-in for pyflakes' unused-import check (F401); `__init__`
    # imports in order to re-export
    unread = set()
    for path in sorted(Path(exppoly.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.add((path.stem, name))
    assert unread == TRACER_BINDINGS


def _package_trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(exppoly.__file__).parent.glob("*.py"))
    }


def _names_read(trees):
    """Names loaded, attributes read and names imported anywhere in trees."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_private_module_names_are_read():
    # a module-level private function, class or constant that nothing in
    # the package reads is dead code, even when a test still imports it
    trees = _package_trees()
    read = _names_read(trees.values())
    defined = set()
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            defined.update((stem, name) for name in private)
    assert sorted(name for name in defined if name[1] not in read) == []


def test_exports_are_read():
    # an exported name that only tests read is dead weight in the public
    # namespace: each must be read by the README, a demo, or a package
    # module (`__init__` only re-exports, so it does not count)
    repo = Path(exppoly.__file__).parent.parent.parent
    trees = _package_trees()
    (exports,) = [
        ast.literal_eval(node.value)
        for node in trees.pop("__init__").body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    demos = [ast.parse(path.read_text(encoding="utf-8")) for path in (repo / "demos").glob("*.py")]
    read = _names_read([*trees.values(), *demos])
    readme = (repo / "README.md").read_text(encoding="utf-8")
    unread = [
        name
        for name in exports
        if not (name.startswith("__") and name.endswith("__"))
        and name not in read
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unread == []


def test_tracer_stubs_are_unread_and_raise():
    assert _names_read(_package_trees().values()).isdisjoint(TRACER_STUBS)
    for name in TRACER_STUBS:
        with pytest.raises(NotImplementedError):
            getattr(_ode, name)()


def test_no_option_objects():
    # tolerances and limits are module constants the engine picks; an
    # option object or an `opts` parameter would be a second way to set them
    exported = set(exppoly.__all__)
    classes, with_opts = [], []
    for stem, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Options"):
                classes.append((stem, node.name))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                funcs = [node]
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                funcs = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            else:
                continue
            for f in funcs:
                args = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
                if any(a.arg == "opts" for a in args):
                    with_opts.append((stem, node.name))
    assert classes == []
    assert with_opts == []


def test_parameters_own_their_support():
    # a `ThetaUni` carries its support, so an exported function of theta
    # that also takes `support` holds a second one that can contradict it
    exported = set(exppoly.__all__)
    both = []
    for stem, tree in _package_trees().items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name in exported):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if args and args[0].arg == "theta" and any(a.arg == "support" for a in args):
                both.append((stem, node.name))
    assert both == []
