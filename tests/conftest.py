"""One hypothesis profile for the whole suite: derandomized examples, no
example database on disk and no per-example deadline, so every run draws the
same examples and writes nothing to .hypothesis/."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
