"""Settings and fixtures shared by every test module."""

import sys
import threading

import pytest
from hypothesis import settings

from exppoly import _ode
from exppoly.holo_bi import DerivTableBi, base_indices
from exppoly.oracle import quad_A_bi

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written, and transports are too
# uneven in cost for a per-example deadline.
settings.register_profile("exppoly", derandomize=True, database=None, deadline=None)
settings.load_profile("exppoly")


@pytest.fixture
def taylor_steps(monkeypatch):
    """The Taylor steps `_ode.taylor` takes while the test runs, in order:
    (s, y, H, rtol, requests) for each, where `requests` lists (N, a copy
    of rows 0..N) for every `rows(N)` call of the step's series.  Clear it
    to start over."""
    steps = []
    real = _ode.taylor

    def recording(series, y0, rtol, *args, **kwargs):
        def recorded(s, y, H):
            requests = []
            steps.append((s, list(y), H, rtol, requests))
            rows_through = series(s, y, H)

            def rows(N):
                out = rows_through(N)
                requests.append((N, out.copy()))
                return out

            return rows

        return real(recorded, y0, rtol, *args, **kwargs)

    monkeypatch.setattr(_ode, "taylor", recording)
    return steps


@pytest.fixture
def in_threads():
    """Runs ``work(k)`` for every key k at once, one thread each, switching
    threads every microsecond so that their steps interleave; returns the
    results by key.  Each thread must finish within two minutes."""

    def run(work, keys):
        results = {}

        def target(k):
            results[k] = work(k)

        threads = [threading.Thread(target=target, args=(k,)) for k in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == sorted(keys)
        return results

    return run


@pytest.fixture
def oracle_table():
    """A bivariate table at theta whose base entries come from quadrature:
    a start in a chamber that holds no product point."""

    def build(theta):
        return DerivTableBi(theta, [quad_A_bi(theta, st) for st in base_indices(theta.d)])

    return build
