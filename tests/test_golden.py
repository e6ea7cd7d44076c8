"""Golden outputs: the sha256 of every output file of small fixed CLI runs.

Run-to-run determinism is tested elsewhere; these digests also catch output
bits that drift from one commit to the next.  A change that means to alter
an output updates its digest here and says which bytes changed and why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stationarylab.cli import run

LENGTH2_LAW = {"context": 2, "atoms": [{"word": w, "p": "1/4"} for w in ("a", "B", "ab", "bA")]}

GOLDEN = {
    "norm": (
        {"experiment": "norm", "rank": 2, "n_moments": 8,
         "element": {"context": 2, "terms": [
             {"word": "a", "re": 1.0}, {"word": "ab", "re": 0.5}, {"word": "Ba", "re": 0.3}]}},
        {"norm.csv": "9d17dda96cc93b9335ac43883531fa22a94ec4f678f0b38a2b7ee84cad62ad6a"},
    ),
    "cesaro": (
        {"experiment": "cesaro", "rank": 2, "element": "ab", "n_max": 3},
        {"cesaro.csv": "53d4531117c0f2464611af151677d8268a3deb2f357e20458b1fecc5186b4f0b",
         "cesaro_summary.json":
             "3c8e8f15f490b61e055115fa383bfd1f4f467af11df5f2fa241d202f578f5208"},
    ),
    # a biased law: the n = 6 upper is subgroup-layers, 0.9544479060487384,
    # read from the fold's rewritten lengths
    "cesaro-biased-law": (
        {"experiment": "cesaro", "rank": 2, "element": "abAB", "n_max": 6,
         "mu": {"context": 2, "atoms": [{"word": w, "p": p} for w, p in (
             ("a", "2/5"), ("A", "1/10"), ("b", "3/10"), ("B", "1/5"))]}},
        {"cesaro.csv": "8dd8d7940ef313ac9e7096eb12c6751a644d0a204fbf0d6568e9b744ffda2fa6",
         "cesaro_summary.json":
             "3c8e8f15f490b61e055115fa383bfd1f4f467af11df5f2fa241d202f578f5208"},
    ),
    "powers": (
        {"experiment": "powers", "rank": 2, "g": "aab", "eps": 1.01,
         "strategy": "geometric", "budget": 4},
        {"powers.csv": "024d17bf4c13e9df6869574b73233e9a6bdaa0dcdfd60eb183b062f3a936f03e",
         "powers_summary.json":
             "a3994baa8a2162edeca6f49c77b50f1932e1828cbcd4ed8924fdb6c64fad55ce"},
    ),
    # succeeds at n = 8 with bound 0.7071 after carrying a best tuple
    # through the failing trials before it
    "powers-random": (
        {"experiment": "powers", "rank": 2, "g": "ab", "eps": 0.75, "strategy": "random",
         "budget": 12, "seed": 5},
        {"powers.csv": "456e437ffc0f9d868946f83c71bd93feca8d76ca310c28aa08942ee9a006717c",
         "powers_summary.json":
             "e4546e67d59d24de1f89764d9e701f939143059296eef31b0c62a5b60861d6cf"},
    ),
    "build-mu": (
        {"experiment": "build-mu", "rank": 2, "levels": 1},
        {"build_levels.csv": "78da5ab41140f306879a2d593ea5967bc5ff7399e61b3759bf33ca9e0671bbeb",
         "build_final.csv": "40f05248c1af9cefab970ecee2b5ba1830bc719549b3bdd86374743bfc96022d",
         "mu.json": "bf9e4046bb91973b4b6f98e5067527171e5f0e1205f874bc8be95875887f56cf"},
    ),
    # doubling tuple sizes over many constraints, most tuples left at the
    # first constraint that reaches epsilon (about 0.4 s)
    "build-mu-levels-2": (
        {"experiment": "build-mu", "rank": 2, "levels": 2, "family": ["ab"]},
        {"build_levels.csv": "2639de2a8c406cdb56dba4df3f4631b52a83a928a369359d50bdfe7c247c36a5",
         "build_final.csv": "9b6eee766baf520b0b9286df46c424116a02c01a80ba9766d2621b37cd52a0d2",
         "mu.json": "995eb0b1007708d449d060777c4474671b7b68a524b2eaf47f2abfa06ddeca4c"},
    ),
    "boundary-solve": (
        {"experiment": "boundary-solve", "rank": 2, "depth": 4, "mu": LENGTH2_LAW},
        {"stationary.csv": "0f762faeed3062b5b02658cc7cc26ca6d6da15db788ec986af790efb26ca3802",
         "stationary_summary.json":
             "3b4dd8d41a0a906b4a852dae1b74b53888bbab185d947791980ea907d715303c"},
    ),
    "conditional": (
        {"experiment": "conditional", "rank": 2, "n": 6, "paths": 3, "nu_depth": 4,
         "out_depth": 2, "seed": 3},
        {"conditional.csv": "e525219c5760bc9368bbe3d8fcb89b10f98b83fbdf5d0834d29f678c80c5f236"},
    ),
    # shaped like the benchmark's conditional job: positions of up to 30
    # letters read the uniform measure far below its 6-level table
    "conditional-bench-shape": (
        {"experiment": "conditional", "rank": 2, "n": 30, "paths": 4, "nu_depth": 6,
         "out_depth": 3, "seed": 11},
        {"conditional.csv": "25e5b940116e09d8b485f366e6562c03e2ae1fe54d99b90322cc7cc5d9270fd7"},
    ),
    "conditional-rank3": (
        {"experiment": "conditional", "rank": 3, "n": 12, "paths": 3, "seed": 5},
        {"conditional.csv": "b6d758e63fcef2292c6343e8bae7cecd08e778f854209c4f255d95679ef178fc"},
    ),
    "bnd-map": (
        {"experiment": "bnd-map", "rank": 2, "length": 60, "paths": 5, "seed": 3},
        {"bndmap.csv": "0b12a4c6e4491ce495997526e91084de0afba49792aa05f9192c241178d4bcb6"},
    ),
    # increments of length 2 cancel partly against the position
    "bnd-map-length2": (
        {"experiment": "bnd-map", "rank": 2, "length": 60, "paths": 5, "seed": 3,
         "mu": LENGTH2_LAW},
        {"bndmap.csv": "24c77eda9e18769ee05d4747fda3fe5aa1a5d81be88fcded5af43d9b01d340eb"},
    ),
    # the simple walk's harmonic measure: 1 / (4 3^(n-1)), correctly rounded
    "boundary-solve-depth6": (
        {"experiment": "boundary-solve", "rank": 2, "depth": 6},
        {"stationary.csv": "15a3c336b92a5d4760477eb633ba644f7732e041058d267794b4c257704c83b1",
         "stationary_summary.json":
             "eb60dcadd0897538d4338a54169811b584621287ea9b4582b2c18e6111d403ee"},
    ),
    # the defect law: nu[A] is 0.06660370763380219, every mass its product
    # of hitting probabilities
    "boundary-solve-defect-law": (
        {"experiment": "boundary-solve", "rank": 2, "depth": 5,
         "mu": {"context": 2, "atoms": [{"word": w, "p": p} for w, p in (
             ("a", "2/5"), ("A", "1/10"), ("b", "3/10"), ("B", "1/5"))]}},
        {"stationary.csv": "0450ae5f0ce719324b757f2d533e5743bf10eeb952127c85a85792c5ff3f1611",
         "stationary_summary.json":
             "eb60dcadd0897538d4338a54169811b584621287ea9b4582b2c18e6111d403ee"},
    ),
    "srs-escape": (
        {"experiment": "srs-escape", "rank": 2, "steps": 30, "trials": 5, "start": "ab",
         "seed": 3},
        {"escape.csv": "715fb107e2516d6da38002e4020b83e2cc27fd3dc31e5c8be98cfd0aca9126c4",
         "escape_summary.json":
             "4fbd8acb7ab0c67e3fc4e06e47efe14a86084bc0eaebbe2818b9bc6459f610c2"},
    ),
    "pdf-check": (
        {"experiment": "pdf-check", "rank": 2, "measures": 2, "tuples": 5, "seed": 3},
        {"pdfcheck.csv": "737c995c1e10d79e4c66a55415e4cd0f8d9acff9a95b79aba0893cc0f62e8212",
         "pdf_dump.csv": "dc51cc1c4f8edf27407ecd15ae8d6ba4447d987ba3b99b385426b7cb1c6487bc"},
    ),
    # the default law, for which the uniform boundary measure is stationary;
    # fix-mass refuses a law it is not stationary for
    "fix-mass": (
        {"experiment": "fix-mass", "rank": 2, "depth": 5, "gens": "ball2"},
        {"fixmass.csv": "28291223d3e6c34495fa6bb6a5526455dc55b6fb9f8de6d64ef8bc01a996993d",
         "fixmass_summary.json":
             "3a227234f59ec11e5d4c2c8dcbbd8e7a79e8aae973d09edb12e0204098ac1a1d"},
    ),
    "fdstates": (
        {"experiment": "fdstates", "rank": 2},
        {"fdstates.csv": "d09c4b31cd85f0549d7cfc651f39e22a11b87cf8e5deaadef2bf148c22f84868"},
    ),
    # the regular representation from its permutations: the bytes of s3-regular
    "fdstates-regular-object": (
        {"experiment": "fdstates", "rank": 2,
         "rep": {"perms": [[1, 0, 2], [1, 2, 0]], "regular": True}},
        {"fdstates.csv": "d09c4b31cd85f0549d7cfc651f39e22a11b87cf8e5deaadef2bf148c22f84868"},
    ),
    # not transitive: 18 orbits on index pairs, 4 of them on the diagonal
    "fdstates-two-swaps": (
        {"experiment": "fdstates", "rank": 2,
         "rep": {"perms": [[1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]]}},
        {"fdstates.csv": "77297203ac5e5a0b598c334a29949c14802884782e8b3bab0e03581d27313cd6"},
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_digests_match_the_pinned_ones(name, tmp_path):
    config, digests = GOLDEN[name]
    assert run(config, tmp_path).outputs == digests


def _bench_workloads():
    """bench/workloads.py, loaded from its file: the bench directory is not
    a package, and only its job lists are read here."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The sha256 of the JSON of each benchmark job's outputs table (file name to
# file digest, keys sorted) on workload seed 1, "workload/job id" to digest.
BENCH_JOBS = {
    "build/build-mu-L2": "1606f7e47292c5eaba430fa5f68e71df8da522543083a24258b312797618418b",
    "build/build-mu-L1-0": "b0c91fa73a10a00bab0f79fa71d8722638ed770ebd00401f5386c9319268115f",
    "build/build-mu-L1-1": "b6d74e3cf4038dfdbcfe40779a4cc31b5e164f25765855fcfd75c8dba7461e15",
    "build/build-mu-L1-2": "6d0d24128ede6fdbbd2e6897b90854e7af55f8abab31c4c2a3206b0a9db1acde",
    "build/build-mu-L1-3": "b0c91fa73a10a00bab0f79fa71d8722638ed770ebd00401f5386c9319268115f",
    "build/powers-0": "f5e34d614dafdfe04c3087932156be64ab20f16ad9cdf3c569884adeda06f043",
    "build/powers-1": "d734338cbd2728669f124d5823f9ac3008a1486d1f970fef5559f2154dd4e649",
    "build/powers-2": "aa5bf6bb4a0ae3d63659184f047d593a0caa05d6f0562d61f9197c8fb0e677e9",
    "build/powers-3": "b690beeb66a79028d4baa05b8f1220ff7b959e3705a4ff6a06c75c7448a07bee",
    "build/kesten": "bf62d5e3532184d32f395b3cce725aa18ac808eaad1908b8c10cd0944604bdcb",
    "brackets/kesten": "bf62d5e3532184d32f395b3cce725aa18ac808eaad1908b8c10cd0944604bdcb",
    "brackets/cesaro-0": "6941780b306c5aec9c8f8e7f0bb587be4f3d7a99d7eb9da0c74b26636d949c68",
    "brackets/cesaro-1": "049362dee9ad951527f57f76f091aace580821b9e775950e75ca7d3708571568",
    "brackets/cesaro-2": "552af0fcbf12c6b448c67520a837b9944b557ae5c92236baf044fac4ec5529eb",
    "brackets/cesaro-3": "049362dee9ad951527f57f76f091aace580821b9e775950e75ca7d3708571568",
    "brackets/norm-0": "73aaf7d84e81f0f789492345d24eb5f4a13409d287d7664e9a84f9ce919d67a4",
    "brackets/norm-1": "44118f49a206ea25f384af8420565e0166e1a290e6f2b0fe64d0003fab08ee8f",
    "brackets/norm-2": "16695475628f85f2c4a13217b5089d196ade47c63dfa16c12215e9feb85d0857",
    "brackets/norm-3": "879aea100020b2f22b8b8fed03f86ba4330664dfdf99d53e8bc82fb4b4d3699c",
    "brackets/norm-4": "355720a474bcb8f43ae4ce8d50d98881c6e7936ca8fc01906635b219d368afc3",
    "brackets/norm-5": "db014b3c36eb21353495ccf202167d1e01f40679ab8150aed9421a318a3fc4c7",
    "dynamics/srs-escape-0": "1bb99d2d54ff0e38842788febb539044be259a3ffee52ac16256aa57c082602f",
    "dynamics/srs-escape-1": "664900279ddf009f8ef3faa8cf6092e8f8fed4fe69eba8154bbdad0b3fbc1986",
    "dynamics/bnd-map": "5d52ef018f3ead70f3936f4e837a4decfd7a6803ddeecb3525f7a19afdbc8cb5",
    "dynamics/conditional": "77f3602305146f3cc61c2d6ec780c6a07d539a058124f4d6f8a66cdaf7bd5aa3",
    "dynamics/pdf-check": "6a8f2a77d334a3a83f02875ba9f765e685d517885d38e91aa2c413346dba2723",
    "dynamics/boundary-solve-simple":
        "43d4ab9f45ed88ca4fd46c7a127c8f324f8f8eeb483a4b140b399c51e71a4425",
    "dynamics/boundary-solve-length2":
        "82c41ed6638ddc92959b9f54012504b11e305fe4f907eaf54bd8bf37963cc1a0",
    "dynamics/fix-mass": "869ca4edbdeb90354756a2c718d500818fbc7dca13a504fdd5b046c86167373e",
    "dynamics/kesten": "bf62d5e3532184d32f395b3cce725aa18ac808eaad1908b8c10cd0944604bdcb",
}


@pytest.mark.parametrize("workload", ["build", "brackets", "dynamics"])
def test_benchmark_job_outputs_match_the_pinned_ones(workload, tmp_path):
    digests = {}
    for job in _bench_workloads().jobs_for(workload, 1):
        outputs = run(job.config, tmp_path / job.id).outputs
        digests[f"{workload}/{job.id}"] = hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert digests == {k: v for k, v in BENCH_JOBS.items() if k.startswith(f"{workload}/")}
