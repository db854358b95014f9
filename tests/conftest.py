"""Hypothesis settings shared by every property test.

Each `@settings(...)` sets only its example count; the rest comes from a
profile.  `tier1`, loaded by default, draws the same examples on every run
and keeps no example database, so a tier-1 run is repeatable.  `random`
draws new examples on each run and prints the blob that replays a
failure:

    python -m pytest -m hypothesis --hypothesis-profile=random
"""

from hypothesis import settings

settings.register_profile("tier1", database=None, deadline=None, derandomize=True)
settings.register_profile("random", database=None, deadline=None, print_blob=True)
settings.load_profile("tier1")
