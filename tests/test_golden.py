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
    "build-mu": (
        {"experiment": "build-mu", "rank": 2, "levels": 1},
        {"build_levels.csv": "78da5ab41140f306879a2d593ea5967bc5ff7399e61b3759bf33ca9e0671bbeb",
         "build_final.csv": "40f05248c1af9cefab970ecee2b5ba1830bc719549b3bdd86374743bfc96022d",
         "mu.json": "bf9e4046bb91973b4b6f98e5067527171e5f0e1205f874bc8be95875887f56cf"},
    ),
    "boundary-solve": (
        {"experiment": "boundary-solve", "rank": 2, "depth": 4, "mu": LENGTH2_LAW},
        {"stationary.csv": "557c65502c29b8ae1cfa79b6cc27812942c07258afe77c31db62f7a3193d444d",
         "stationary_summary.json":
             "a4fba7cfdb6c28f1f9efb4729e041e261866632b9b59a7545f007a9fe5d425e6"},
    ),
    "conditional": (
        {"experiment": "conditional", "rank": 2, "n": 6, "paths": 3, "nu_depth": 4,
         "out_depth": 2, "seed": 3},
        {"conditional.csv": "e525219c5760bc9368bbe3d8fcb89b10f98b83fbdf5d0834d29f678c80c5f236"},
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
        {"stationary.csv": "4f24bf4a27b8dc4630bbc62544d907c4e16433d6045c15c56c91f53cfa0e932e",
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
    "fix-mass": (
        {"experiment": "fix-mass", "rank": 2, "depth": 5, "gens": "ball2", "mu": LENGTH2_LAW},
        {"fixmass.csv": "28291223d3e6c34495fa6bb6a5526455dc55b6fb9f8de6d64ef8bc01a996993d",
         "fixmass_summary.json":
             "2c0b7f75e5760d11252a7f60f42721e82c35872459de1edc2493349f31367baf"},
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
