"""One hypothesis profile for the whole suite: derandomized examples, no
example database on disk and no per-example deadline, so every run draws the
same examples.  Hypothesis still writes other files (such as constants/) into
its storage directory, which is pointed at a temporary directory removed at
exit, so a test run writes nothing to .hypothesis/ in the working tree."""

import os
import tempfile

from hypothesis import settings

# read on hypothesis's first use of its storage, after this module is loaded
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
