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
        {"cesaro.csv": "289e7d4cb05b3b517247f9ee40eaa941da910981cd96c087581c2dc657161ec7",
         "cesaro_summary.json":
             "f0b3c7af2e4ed155cfd34d5b8a1e2bf140f5b021efdaa3d319a75fd608f5adc4"},
    ),
    # a biased law: from n = 3 the support is no free family, and the uppers
    # are the partition's sums over ping-pong families, 0.5714376663542742 at
    # n = 6
    "cesaro-biased-law": (
        {"experiment": "cesaro", "rank": 2, "element": "abAB", "n_max": 6,
         "mu": {"context": 2, "atoms": [{"word": w, "p": p} for w, p in (
             ("a", "2/5"), ("A", "1/10"), ("b", "3/10"), ("B", "1/5"))]}},
        {"cesaro.csv": "04a5bd13ad48b6523ad20a9d9bea78ad99b75fccd7f0d577fd496e5e05df9c8b",
         "cesaro_summary.json":
             "f0b3c7af2e4ed155cfd34d5b8a1e2bf140f5b021efdaa3d319a75fd608f5adc4"},
    ),
    "powers": (
        {"experiment": "powers", "rank": 2, "g": "aab", "eps": 1.01,
         "strategy": "geometric", "budget": 4},
        {"powers.csv": "024d17bf4c13e9df6869574b73233e9a6bdaa0dcdfd60eb183b062f3a936f03e",
         "powers_summary.json":
             "a3994baa8a2162edeca6f49c77b50f1932e1828cbcd4ed8924fdb6c64fad55ce"},
    ),
    # succeeds at the first 8-tuple, whose repeated conjugate gives unequal
    # weights and the Akemann-Ostrand bound 0.7126, after carrying a best
    # tuple (n = 4, 0.866) through the failing trials before it
    "powers-random": (
        {"experiment": "powers", "rank": 2, "g": "ab", "eps": 0.75, "strategy": "random",
         "budget": 12, "seed": 5},
        {"powers.csv": "805ce8ed50d7acbb2ff4fec66691a178450a48a1a4e97e6b6a181ce927bf47c6",
         "powers_summary.json":
             "1de36aca66f57e00d0da4f5fd92f0ef48c9bc1709d72ac08581b4f9f3ef166b0"},
    ),
    "build-mu": (
        {"experiment": "build-mu", "rank": 2, "levels": 1},
        {"build_levels.csv": "a59fb70e160448595e36381b7f5ac98b96823b3baabc1d987513da4a0abb88b9",
         "build_final.csv": "c279e5f9ee2c7ceec9c65cb8016d51a7b436cf0fb19d68a34f34130490ada36d",
         "mu.json": "1da97879fbbf922089b9bbe909a3f27a15f857dd19c1c5e83eb3fbbb14530d18"},
    ),
    # doubling tuple sizes over many constraints, most tuples left at the
    # first constraint that reaches epsilon (about 0.4 s)
    "build-mu-levels-2": (
        {"experiment": "build-mu", "rank": 2, "levels": 2, "family": ["ab"]},
        {"build_levels.csv": "abf8c6abf665d0e82b05d32a08090d95a632313b1d76de3fe32aea85df383db2",
         "build_final.csv": "b62f0dde25fbc113306fce4e2bdf8ae922d0ca90296176d6e33f14617a9705aa",
         "mu.json": "977a31c03cdb90e093a609dc70d083bd7eb0faee6a6218282aff6c8dd221880a"},
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


# The Kesten job runs one config in every workload and seed, so one digest.
KESTEN = "fda951a88828437c2bc8d797b72e00fac29f4feec63e83b2e3b339b9d0e25beb"

# The sha256 of the JSON of each benchmark job's outputs table (file name to
# file digest, keys sorted) on workload seeds 1 to 3: seed to "workload/job id"
# to digest.
BENCH_JOBS = {
    1: {
        "build/build-mu-L2": "4223188cd4c0a566335a8fcffb19d8fc354a9685e1cedfe78e4dcb209290b008",
        "build/build-mu-L1-0": "6f7648a186f65b7822318f4d41bcc3fd0ac0abcaf83ed5d41d03f9b0eda700e5",
        "build/build-mu-L1-1": "118698cfb4aec6a74e97be7bbbf0afad56c66c3ea1bfb12ee2140c264d57e985",
        "build/build-mu-L1-2": "b1e225ebca21883b1d0a5ea5a1f7e48d27dfa4beff2dc99afe8b45f82f63025f",
        "build/build-mu-L1-3": "6f7648a186f65b7822318f4d41bcc3fd0ac0abcaf83ed5d41d03f9b0eda700e5",
        "build/powers-0": "e965f7b6da2b7219d5706b84a8658a60132f13be223ca86d184abb6f6a7cb1ee",
        "build/powers-1": "239b4c2fcaa80d8e6ef4ce0c12158333c3e978a1ab700592c8846ddcbeb791be",
        "build/powers-2": "f0f2c022f6ec560352fee02b922df572cf61b969e81829824e15aaee49fa2d7a",
        "build/powers-3": "d779033f719f397fb2d796f79760544ca7320675fe444c7c2c8caa21d34c699a",
        "build/kesten": KESTEN,
        "brackets/kesten": KESTEN,
        "brackets/cesaro-0": "9bd1ff051849ac99bca32052d2c04ef6cfd6fc889bbc8ad843c9f1b2602ce227",
        "brackets/cesaro-1": "1e4def534fc14e8f3e5d84d9d9328b9c7577704252e37648457b59160d62dea2",
        "brackets/cesaro-2": "226d17e9c4a7dd3e86bf5d1b8879ee24d4e9f335fbcb5ff5c2a7b14562c5615e",
        "brackets/cesaro-3": "1e4def534fc14e8f3e5d84d9d9328b9c7577704252e37648457b59160d62dea2",
        "brackets/norm-0": "73aaf7d84e81f0f789492345d24eb5f4a13409d287d7664e9a84f9ce919d67a4",
        "brackets/norm-1": "44118f49a206ea25f384af8420565e0166e1a290e6f2b0fe64d0003fab08ee8f",
        "brackets/norm-2": "16695475628f85f2c4a13217b5089d196ade47c63dfa16c12215e9feb85d0857",
        "brackets/norm-3": "879aea100020b2f22b8b8fed03f86ba4330664dfdf99d53e8bc82fb4b4d3699c",
        "brackets/norm-4": "355720a474bcb8f43ae4ce8d50d98881c6e7936ca8fc01906635b219d368afc3",
        "brackets/norm-5": "db014b3c36eb21353495ccf202167d1e01f40679ab8150aed9421a318a3fc4c7",
        "dynamics/srs-escape-0":
            "1bb99d2d54ff0e38842788febb539044be259a3ffee52ac16256aa57c082602f",
        "dynamics/srs-escape-1":
            "664900279ddf009f8ef3faa8cf6092e8f8fed4fe69eba8154bbdad0b3fbc1986",
        "dynamics/bnd-map": "5d52ef018f3ead70f3936f4e837a4decfd7a6803ddeecb3525f7a19afdbc8cb5",
        "dynamics/conditional": "77f3602305146f3cc61c2d6ec780c6a07d539a058124f4d6f8a66cdaf7bd5aa3",
        "dynamics/pdf-check": "6a8f2a77d334a3a83f02875ba9f765e685d517885d38e91aa2c413346dba2723",
        "dynamics/boundary-solve-simple":
            "43d4ab9f45ed88ca4fd46c7a127c8f324f8f8eeb483a4b140b399c51e71a4425",
        "dynamics/boundary-solve-length2":
            "82c41ed6638ddc92959b9f54012504b11e305fe4f907eaf54bd8bf37963cc1a0",
        "dynamics/fix-mass": "869ca4edbdeb90354756a2c718d500818fbc7dca13a504fdd5b046c86167373e",
        "dynamics/kesten": KESTEN,
    },
    2: {
        "build/build-mu-L2": "4223188cd4c0a566335a8fcffb19d8fc354a9685e1cedfe78e4dcb209290b008",
        "build/build-mu-L1-0": "6f7648a186f65b7822318f4d41bcc3fd0ac0abcaf83ed5d41d03f9b0eda700e5",
        "build/build-mu-L1-1": "118698cfb4aec6a74e97be7bbbf0afad56c66c3ea1bfb12ee2140c264d57e985",
        "build/build-mu-L1-2": "b1e225ebca21883b1d0a5ea5a1f7e48d27dfa4beff2dc99afe8b45f82f63025f",
        "build/build-mu-L1-3": "6f7648a186f65b7822318f4d41bcc3fd0ac0abcaf83ed5d41d03f9b0eda700e5",
        "build/powers-0": "e965f7b6da2b7219d5706b84a8658a60132f13be223ca86d184abb6f6a7cb1ee",
        "build/powers-1": "239b4c2fcaa80d8e6ef4ce0c12158333c3e978a1ab700592c8846ddcbeb791be",
        "build/powers-2": "0d82692e5a33c88733ed7a842585daf14f40b11b32704f91a98c6218abb4fd1d",
        "build/powers-3": "46ba824e2edab03a2048df492e13fcaf93b1c58d1de45194a64dd8d63b8b415b",
        "build/kesten": KESTEN,
        "brackets/kesten": KESTEN,
        "brackets/cesaro-0": "9bd1ff051849ac99bca32052d2c04ef6cfd6fc889bbc8ad843c9f1b2602ce227",
        "brackets/cesaro-1": "1e4def534fc14e8f3e5d84d9d9328b9c7577704252e37648457b59160d62dea2",
        "brackets/cesaro-2": "226d17e9c4a7dd3e86bf5d1b8879ee24d4e9f335fbcb5ff5c2a7b14562c5615e",
        "brackets/cesaro-3": "1e4def534fc14e8f3e5d84d9d9328b9c7577704252e37648457b59160d62dea2",
        "brackets/norm-0": "73aaf7d84e81f0f789492345d24eb5f4a13409d287d7664e9a84f9ce919d67a4",
        "brackets/norm-1": "44118f49a206ea25f384af8420565e0166e1a290e6f2b0fe64d0003fab08ee8f",
        "brackets/norm-2": "16695475628f85f2c4a13217b5089d196ade47c63dfa16c12215e9feb85d0857",
        "brackets/norm-3": "879aea100020b2f22b8b8fed03f86ba4330664dfdf99d53e8bc82fb4b4d3699c",
        "brackets/norm-4": "355720a474bcb8f43ae4ce8d50d98881c6e7936ca8fc01906635b219d368afc3",
        "brackets/norm-5": "db014b3c36eb21353495ccf202167d1e01f40679ab8150aed9421a318a3fc4c7",
        "dynamics/srs-escape-0":
            "f5ce9448d6f55554c41a64c1ee718a78d73ea3cd72f25efb01057850b9398676",
        "dynamics/srs-escape-1":
            "58c78916bf59325d6dad7ad3b7f2db8ffb35bd266816e93ac11d9db4615e87ff",
        "dynamics/bnd-map": "ac2acec633ca6637d8494814aeb2959009f85cd31405024c52326603e2209f53",
        "dynamics/conditional": "d50cc9724578135bd9f1bc68a4fe3af02306997fa45015ef9046dd0f12027131",
        "dynamics/pdf-check": "d25d321d62a9f8c8cca0e6a6c831172de06675d423e96d4b6d7bb76d0df5a4dc",
        "dynamics/boundary-solve-simple":
            "43d4ab9f45ed88ca4fd46c7a127c8f324f8f8eeb483a4b140b399c51e71a4425",
        "dynamics/boundary-solve-length2":
            "678ad20b5be7cc3da6845fd6ea083cbdff9230b42c9eb3f88cd4a7a720358d76",
        "dynamics/fix-mass": "869ca4edbdeb90354756a2c718d500818fbc7dca13a504fdd5b046c86167373e",
        "dynamics/kesten": KESTEN,
    },
    3: {
        "build/build-mu-L2": "4223188cd4c0a566335a8fcffb19d8fc354a9685e1cedfe78e4dcb209290b008",
        "build/build-mu-L1-0": "6f7648a186f65b7822318f4d41bcc3fd0ac0abcaf83ed5d41d03f9b0eda700e5",
        "build/build-mu-L1-1": "118698cfb4aec6a74e97be7bbbf0afad56c66c3ea1bfb12ee2140c264d57e985",
        "build/build-mu-L1-2": "6f7648a186f65b7822318f4d41bcc3fd0ac0abcaf83ed5d41d03f9b0eda700e5",
        "build/build-mu-L1-3": "6f7648a186f65b7822318f4d41bcc3fd0ac0abcaf83ed5d41d03f9b0eda700e5",
        "build/powers-0": "a38864f93bf452a405602330b96d6923c572580575688e59ef71b001dd56ea7f",
        "build/powers-1": "43ef5d135be3b2805e560a1442035fa9fcb6c38de2e25bb985bd097213a96cde",
        "build/powers-2": "29093179981692dcf021f4f09f58394c7c6dbc5134ca8303cd4de0925c1dcd7a",
        "build/powers-3": "b34423ac5ea4ca81bdb356b8dce64e864c698dcbbc915e4f00ce61789a509c7f",
        "build/kesten": KESTEN,
        "brackets/kesten": KESTEN,
        "brackets/cesaro-0": "9bd1ff051849ac99bca32052d2c04ef6cfd6fc889bbc8ad843c9f1b2602ce227",
        "brackets/cesaro-1": "1e4def534fc14e8f3e5d84d9d9328b9c7577704252e37648457b59160d62dea2",
        "brackets/cesaro-2": "226d17e9c4a7dd3e86bf5d1b8879ee24d4e9f335fbcb5ff5c2a7b14562c5615e",
        "brackets/cesaro-3": "1e4def534fc14e8f3e5d84d9d9328b9c7577704252e37648457b59160d62dea2",
        "brackets/norm-0": "73aaf7d84e81f0f789492345d24eb5f4a13409d287d7664e9a84f9ce919d67a4",
        "brackets/norm-1": "44118f49a206ea25f384af8420565e0166e1a290e6f2b0fe64d0003fab08ee8f",
        "brackets/norm-2": "16695475628f85f2c4a13217b5089d196ade47c63dfa16c12215e9feb85d0857",
        "brackets/norm-3": "879aea100020b2f22b8b8fed03f86ba4330664dfdf99d53e8bc82fb4b4d3699c",
        "brackets/norm-4": "355720a474bcb8f43ae4ce8d50d98881c6e7936ca8fc01906635b219d368afc3",
        "brackets/norm-5": "db014b3c36eb21353495ccf202167d1e01f40679ab8150aed9421a318a3fc4c7",
        "dynamics/srs-escape-0":
            "53cb399d825e6caf8000ffafc0bdadbd728de4b1a6ec2d42b8913e355f216f8b",
        "dynamics/srs-escape-1":
            "1f5c309dc114d2b53e25c675ccc957f00c4faefa2cb77e4684bc497d344c169b",
        "dynamics/bnd-map": "bf1f33c4a26099844917d069893dfd88d6fdb68f592fffaac42558d813fba08c",
        "dynamics/conditional": "df536c0be92693ed1ea5faab52e1fd801dca3e0823eda959c41e9107df61d03c",
        "dynamics/pdf-check": "aeca53cb9328676155176347747c81e6822c9655858ab2e6fee1037fa5f7c946",
        "dynamics/boundary-solve-simple":
            "43d4ab9f45ed88ca4fd46c7a127c8f324f8f8eeb483a4b140b399c51e71a4425",
        "dynamics/boundary-solve-length2":
            "aaf77fdab0f255b6d649c7e5bdb6cb94de3834794ffc3302c71be3246964807e",
        "dynamics/fix-mass": "869ca4edbdeb90354756a2c718d500818fbc7dca13a504fdd5b046c86167373e",
        "dynamics/kesten": KESTEN,
    },
}


@pytest.mark.parametrize("seed", sorted(BENCH_JOBS))
@pytest.mark.parametrize("workload", ["build", "brackets", "dynamics"])
def test_benchmark_job_outputs_match_the_pinned_ones(workload, seed, tmp_path):
    digests = {}
    for job in _bench_workloads().jobs_for(workload, seed):
        outputs = run(job.config, tmp_path / job.id).outputs
        digests[f"{workload}/{job.id}"] = hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    pinned = BENCH_JOBS[seed]
    assert digests == {k: v for k, v in pinned.items() if k.startswith(f"{workload}/")}
