"""Settings and fixtures shared by every test module."""

import pytest
from hypothesis import settings

from exppoly import _ode

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written, and transports are too
# uneven in cost for a per-example deadline.
settings.register_profile("exppoly", derandomize=True, database=None, deadline=None)
settings.load_profile("exppoly")


@pytest.fixture
def taylor_steps(monkeypatch):
    """The Taylor steps `_ode.taylor` takes while the test runs, in order:
    (s, y, H, rtol, requests) for each, where `requests` lists (N, rows N-1
    and N) for every `rows(N)` call of the step's series.  Clear it to
    start over."""
    steps = []
    real = _ode.taylor

    def recording(series, y0, rtol, *args, **kwargs):
        def recorded(s, y, H):
            requests = []
            steps.append((s, list(y), H, rtol, requests))
            rows_through = series(s, y, H)

            def rows(N):
                out = rows_through(N)
                requests.append((N, out[N - 1 :].copy()))
                return out

            return rows

        return real(recorded, y0, rtol, *args, **kwargs)

    monkeypatch.setattr(_ode, "taylor", recording)
    return steps
