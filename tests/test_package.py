"""The package namespace."""

import exppoly


def test_exports_resolve_once():
    names = exppoly.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(exppoly, name)] == []
