"""The package namespace and its modules' imports."""

import ast
from pathlib import Path

import exppoly

# bindings nothing in the package reads: bench/tracing.py wraps each by name
TRACER_BINDINGS = {
    ("holo_bi", "transport"),
    ("inference", "transport"),
    ("inference", "transport_bi"),
}


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
