"""The traced benchmark run wraps library attributes by name; they must exist."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_call_site_is_bound():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _ in tracing.CALL_SITES if not hasattr(module, attr)
    ]
    assert missing == []
