"""Test-wide settings: every hypothesis test runs the same examples each run.

Loading the profile here, before the test modules are imported, makes it the
parent of each test's own `@settings(...)`, which keeps its `max_examples`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
