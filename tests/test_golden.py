"""Golden outputs: the sha256 of every output file of small fixed CLI runs.

Run-to-run determinism is tested elsewhere; these digests also catch output
bits that drift from one commit to the next.  A change that means to alter
an output updates its digest here and says which bytes changed and why.
"""

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
        {"stationary.csv": "658a43b39c9b53c9bb67be470ae1ec41bc22b4dfd8d903f10b753fb3fad749e4",
         "stationary_summary.json":
             "a4fba7cfdb6c28f1f9efb4729e041e261866632b9b59a7545f007a9fe5d425e6"},
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
    # L = 1: the certified rows are a third of the working table
    "boundary-solve-depth6": (
        {"experiment": "boundary-solve", "rank": 2, "depth": 6},
        {"stationary.csv": "622077cb26d56fc63c05c2d2e32d7a76d71f7d08d7a5be1265ea0f13502ebc29",
         "stationary_summary.json":
             "604d278de9dfbe61105713fea973bd0b9ef4f83e9902a43705ae472e7abdba08"},
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
             "d8704605bcf09e21b111d917f644065c79ee2149c3cdeeb91fe1fa5677e75793"},
    ),
    "fdstates": (
        {"experiment": "fdstates", "rank": 2},
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
