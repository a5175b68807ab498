"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written, and transports are too
# uneven in cost for a per-example deadline.
settings.register_profile("exppoly", derandomize=True, database=None, deadline=None)
settings.load_profile("exppoly")
