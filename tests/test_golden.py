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
        {"norm.csv": "ed868a833a88872c193341153555196a0c83e792a1066b5a8ebe4a43da192c6a"},
    ),
    "cesaro": (
        {"experiment": "cesaro", "rank": 2, "element": "ab", "n_max": 3},
        {"cesaro.csv": "c666485067a54e8b5d950d5b2f2df195b9b842d332e51438b24e94b0e449676c",
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
         "build_final.csv": "94a7784e07a3bc9905a13eeecc386e062c9b1bd8b81a49fd6035f19f170e6800",
         "mu.json": "bf9e4046bb91973b4b6f98e5067527171e5f0e1205f874bc8be95875887f56cf"},
    ),
    "boundary-solve": (
        {"experiment": "boundary-solve", "rank": 2, "depth": 4, "mu": LENGTH2_LAW},
        {"stationary.csv": "557c65502c29b8ae1cfa79b6cc27812942c07258afe77c31db62f7a3193d444d",
         "stationary_summary.json":
             "a4fba7cfdb6c28f1f9efb4729e041e261866632b9b59a7545f007a9fe5d425e6"},
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_digests_match_the_pinned_ones(name, tmp_path):
    config, digests = GOLDEN[name]
    assert run(config, tmp_path).outputs == digests
