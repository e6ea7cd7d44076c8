"""The golden configs write the same output bytes under two hash seeds.

Word letters are `bytes`, whose hashes change with PYTHONHASHSEED, so an
output that read the iteration order of a set, or any hash, would differ
between the two runs.  Each run is a fresh interpreter, the only way to set
the seed.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

RUN_GOLDEN = """
import sys
from pathlib import Path

from stationarylab.cli import run
from test_golden import GOLDEN

for name, (config, _) in GOLDEN.items():
    run(config, Path(sys.argv[1]) / name)
"""


def test_golden_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    runs = {}
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        runs[out] = subprocess.Popen([sys.executable, "-c", RUN_GOLDEN, str(out)],
                                     env={**env, "PYTHONHASHSEED": seed}, cwd=tmp_path,
                                     stderr=subprocess.PIPE, text=True)
    for proc in runs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    first, second = runs
    # manifest.json records the wall time of the run; every other file is an output
    files = sorted(p.relative_to(first) for p in first.rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    # every config wrote at least one output
    assert len({f.parts[0] for f in files}) == len(list(first.iterdir()))
    assert files == sorted(p.relative_to(second) for p in second.rglob("*")
                           if p.is_file() and p.name != "manifest.json")
    for f in files:
        assert (first / f).read_bytes() == (second / f).read_bytes(), f
