"""The golden configs write the same output bytes under two hash seeds, and
values pickled under one seed read the same under another.

Word letters are `bytes`, whose hashes change with PYTHONHASHSEED, so an
output that read the iteration order of a set, or any hash, would differ
between the two runs, and so would a lookup in a table whose keys kept a
hash taken under the other seed.  Each run is a fresh interpreter, the only
way to set the seed.
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


PICKLED_TABLES = """
import pickle
import sys

from stationarylab.freegroup import FreeGroupContext
from stationarylab.walks import GroupMeasure

F2 = FreeGroupContext(2)
words = [F2.word(s) for s in ("1", "a", "B", "ab", "bA", "abAB")]
if sys.argv[1] == "dump":
    table = {w: str(w) for w in words}
    law = GroupMeasure.uniform_on(words[1:])
    sys.stdout.buffer.write(pickle.dumps((table, law)))
else:
    table, law = pickle.loads(sys.stdin.buffer.read())
    print(" ".join(table[w] for w in words), " ".join(str(law.mass(w)) for w in words))
"""


def test_pickled_values_read_the_same_under_another_hash_seed():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    dumped = subprocess.run([sys.executable, "-c", PICKLED_TABLES, "dump"], capture_output=True,
                            env={**env, "PYTHONHASHSEED": "0"}, timeout=300)
    assert dumped.returncode == 0, dumped.stderr
    loaded = subprocess.run([sys.executable, "-c", PICKLED_TABLES, "load"], input=dumped.stdout,
                            capture_output=True, env={**env, "PYTHONHASHSEED": "1"}, timeout=300)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.decode().split() == ["1", "a", "B", "ab", "bA", "abAB",
                                              "0", "1/5", "1/5", "1/5", "1/5", "1/5"]
