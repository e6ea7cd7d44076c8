"""numpy is loaded at the first sample, operator solve or Gram check, not on import.

The exact experiments (norm, cesaro, geometric powers, build-mu, fix-mass,
fdstates) draw no random number and solve no float system, so a CLI run of
any of them never imports numpy.  Neither does `boundary-solve` on a
transient nearest-neighbour law, which reads the harmonic measure off one
integer root; a law with a longer word runs the truncated transfer operator,
which loads numpy.  Whether a module is loaded shows only in a fresh
interpreter, so the runs go through a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

EXACT = ("norm", "cesaro", "powers", "build-mu", "fix-mass", "fdstates")

# prints whether numpy is loaded after the import and after each run
RUN_AND_REPORT = """
import json
import sys
from pathlib import Path

from stationarylab import cli

loaded = ["numpy" in sys.modules]
for name, config in json.loads(sys.argv[2]):
    cli.run(config, Path(sys.argv[1]) / name)
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def _loaded(tmp_path, names) -> dict[str, bool]:
    """Whether numpy is loaded after the import and after each golden run, in order."""
    runs = [(name, GOLDEN[name][0]) for name in names]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", RUN_AND_REPORT, str(tmp_path), json.dumps(runs)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return dict(zip(["import", *names], json.loads(done.stdout)))


def test_exact_runs_never_load_numpy_and_sampling_does(tmp_path):
    # boundary-solve-depth6 is the simple walk, read off the hitting root
    names = EXACT + ("boundary-solve-depth6", "boundary-solve-defect-law", "srs-escape")
    assert _loaded(tmp_path, names) == {
        "import": False, **dict.fromkeys(names[:-1], False), "srs-escape": True}


def test_the_truncated_operator_loads_numpy(tmp_path):
    # the golden boundary-solve law has words of length 2
    assert _loaded(tmp_path, ("boundary-solve",)) == {"import": False, "boundary-solve": True}
