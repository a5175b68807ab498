"""The traced benchmark run wraps library attributes by name; they must exist."""

import sys
from pathlib import Path

import pytest

from exppoly import _ode

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_every_traced_call_site_is_bound(tracing):
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _ in tracing.CALL_SITES if not hasattr(module, attr)
    ]
    assert missing == []


def test_tracer_installs_every_binding_and_restores(tracing):
    # `install` wraps `_ode.dopri45` by name besides `CALL_SITES`
    bound = [(module, attr) for module, attr, _ in tracing.CALL_SITES] + [(_ode, "dopri45")]
    originals = [getattr(module, attr) for module, attr in bound]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(module, attr) is not fn for (module, attr), fn in zip(bound, originals))
    finally:
        tracer.restore()
    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(bound, originals))
