import contextlib
import io
import json
import math
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationarylab import freegroup
from stationarylab.algebra import AlgebraElement
from stationarylab.cli import EXPERIMENTS, ConfigError, config_hash, main, run, verify
from stationarylab.errors import MalformedInputError
from stationarylab.freegroup import FreeGroupContext
from stationarylab.serialize import element_from_json, measure_from_json, measure_to_json
from stationarylab.walks import uniform_generator_measure

from exact import exact

F2 = FreeGroupContext(2)


class TestSerialization:
    def test_measure_roundtrip_rational(self):
        mu = uniform_generator_measure(2)
        data = measure_to_json(mu)
        assert data["atoms"][0]["p"] == "1/4"
        assert measure_from_json(data) == mu

    def test_measure_accepts_decimals(self):
        mu = measure_from_json(
            {"context": 2, "atoms": [{"word": "a", "p": 0.5}, {"word": "B", "p": 0.5}]}
        )
        assert mu.mass(F2.word("B")) == 0.5

    def test_element_terms_add_exactly(self):
        # 0.1 + 0.2 is not the float 0.30000000000000004 here: the two terms of
        # one word add as the binary values of their parts
        x = element_from_json({"context": 2, "terms": [
            {"word": "abA", "re": 0.1}, {"word": "1", "re": 3.0, "im": -2.0},
            {"word": "abA", "re": 0.2, "im": 1.5}]})
        assert exact(x) == {F2.word("abA"): (Fraction(0.1) + Fraction(0.2), Fraction(3, 2)),
                            F2.identity: (3, -2)}

    def test_non_finite_element_coefficient_rejected(self):
        # a coefficient that is not finite, given or from a sum of terms
        for terms in ([{"word": "a", "re": "inf"}], [{"word": "a", "im": "nan"}],
                      [{"word": "a", "re": 1e308}, {"word": "a", "re": 1e308}]):
            with pytest.raises(MalformedInputError):
                element_from_json({"context": 2, "terms": terms})


class TestRunAndVerify:
    def test_norm_experiment(self, tmp_path):
        cfg = {
            "experiment": "norm",
            "rank": 2,
            "element": {
                "context": 2,
                "terms": [
                    {"word": "a", "re": 1.0},
                    {"word": "A", "re": 1.0},
                    {"word": "b", "re": 1.0},
                    {"word": "B", "re": 1.0},
                ],
            },
            "n_moments": 16,
        }
        manifest = run(cfg, tmp_path)
        assert manifest.config_sha256 == config_hash(cfg)
        assert verify(tmp_path / "manifest.json")
        text = (tmp_path / "norm.csv").read_text()
        assert text.startswith("# anchor: ")
        assert text.splitlines()[1] == "lower,upper,moments_used,lower_method,upper_method"

    def test_identical_configs_identical_bytes(self, tmp_path):
        cfg = {
            "experiment": "srs-escape",
            "rank": 2,
            "steps": 30,
            "trials": 10,
            "seed": 11,
        }
        m1 = run(cfg, tmp_path / "r1")
        m2 = run(cfg, tmp_path / "r2")
        assert m1.outputs == m2.outputs
        assert (tmp_path / "r1" / "escape.csv").read_bytes() == (
            tmp_path / "r2" / "escape.csv"
        ).read_bytes()

    def test_tampering_detected(self, tmp_path):
        cfg = {"experiment": "norm", "rank": 2, "element": "a", "n_moments": 2}
        run(cfg, tmp_path)
        target = tmp_path / "norm.csv"
        target.write_text(target.read_text() + "x")
        assert not verify(tmp_path / "manifest.json")

    def test_missing_output_detected(self, tmp_path):
        cfg = {"experiment": "norm", "rank": 2, "element": "a", "n_moments": 2}
        run(cfg, tmp_path)
        (tmp_path / "norm.csv").unlink()
        assert not verify(tmp_path / "manifest.json")

    def test_stale_version_detected(self, tmp_path):
        cfg = {"experiment": "norm", "rank": 2, "element": "a", "n_moments": 2}
        run(cfg, tmp_path)
        data = json.loads((tmp_path / "manifest.json").read_text())
        data["version"] = "0.0.0"
        (tmp_path / "manifest.json").write_text(json.dumps(data))
        assert not verify(tmp_path / "manifest.json")

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run({"experiment": "nope"}, tmp_path)

    def test_missing_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            run({"experiment": "conditional", "rank": 2, "n": 3, "paths": 2}, tmp_path)
        assert exc.value.pointer == "/seed"


class TestMainExitCodes:
    def test_success(self, tmp_path):
        rc = main(["norm", "--element", "ab", "--n-moments", "4",
                   "--out-dir", str(tmp_path)])
        assert rc == 0

    def test_config_error_is_2(self, tmp_path):
        rc = main(["conditional", "--n", "3", "--paths", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_precondition_error_is_3(self, tmp_path):
        rc = main(["powers", "--g", "1", "--eps", "0.5", "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_cesaro_exact_uppers_read_not_decaying(self, tmp_path):
        # every b_n of lambda_ab under the simple walk has l1 norm exactly 1:
        # a run of equal uppers is no decay
        rc = main(["cesaro", "--element", "ab", "--n-max", "6", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "cesaro.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2:] for row in rows] == [["1.0", "l1"]] * 6
        summary = json.loads((tmp_path / "cesaro_summary.json").read_text())
        assert summary["verdict"] == "not decaying over the last three checkpoints"

    def test_boundary_solve_on_slowly_generating_laws(self, tmp_path, capsys):
        # each law generates F_2 only through products that leave the ball of
        # twice its longest word (see test_walks); the length-6 laws then stop
        # at once on their working ball of radius 2 + 2 * 6
        for support, rc_expected, message in (
            (("bAB", "abA", "bba", "BaB"), 0, ""),
            (("bbaaab", "BBAABA", "AAbAAB", "aaaBBA", "abABB"), 4, "radius 14"),
            (("aaaaab", "BAAAA", "A", "b", "B"), 4, "radius 14"),
        ):
            law = tmp_path / "mu.json"
            law.write_text(json.dumps({"context": 2, "atoms": [
                {"word": w, "p": f"1/{len(support)}"} for w in support]}))
            start = time.perf_counter()
            rc, err = _main(["boundary-solve", "--depth", "2", "--mu", str(law),
                             "--out-dir", str(tmp_path / "o")], capsys)
            assert rc == rc_expected and time.perf_counter() - start < 1
            if message:
                _assert_one_error_line(err, message)

    def test_cesaro_under_the_support_cap_is_partial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 200)
        rc = main(["cesaro", "--element", "ab", "--n-max", "6", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "cesaro_summary.json").read_text())["partial"] is True
        assert len((tmp_path / "cesaro.csv").read_text().splitlines()) == 2 + 3

    def test_fdstates_past_the_support_cap_is_4(self, tmp_path, monkeypatch):
        # both reps have 6 points: 36 index pairs
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 35)
        swaps = {"perms": [[1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]]}
        for rep in ("s3-regular", swaps):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"experiment": "fdstates", "rep": rep}))
            assert main(["fdstates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4

    def test_inconclusive_is_5(self, tmp_path):
        rc = main(["powers", "--g", "a", "--eps", "0.0001", "--budget", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 5

    def test_seed_override_refused_when_pinned(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "experiment": "srs-escape", "rank": 2, "steps": 5, "trials": 2, "seed": 7
        }))
        rc = main(["srs-escape", "--config", str(cfg), "--seed", "9",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_verify_subcommand(self, tmp_path):
        rc = main(["norm", "--element", "a", "--n-moments", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rc = main(["verify", "--manifest", str(tmp_path / "manifest.json")])
        assert rc == 0

    def test_csv_headers_and_anchor_comments(self, tmp_path):
        rc = main(["fix-mass", "--depth", "6", "--out-dir", str(tmp_path)])
        assert rc == 0
        for name in ("fixmass.csv",):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0].startswith("# anchor: ")
            assert "," in lines[1]


def _main(argv, capsys):
    """Exit code and stderr of one CLI call; argparse errors exit through SystemExit."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().err


def _assert_one_error_line(err: str, fragment: str) -> None:
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    assert fragment in lines[0], err


def test_non_finite_coefficient_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "norm", "element": {"context": 2, "terms": [
        {"word": "a", "re": "inf"}, {"word": "ab", "re": 1.0}]}}))
    rc, err = _main(["norm", "--config", str(cfg), "--out-dir", str(tmp_path / "o")], capsys)
    assert rc == 2
    _assert_one_error_line(err, "not finite")


def test_non_finite_law_mass_exits_2(tmp_path, capsys):
    # json accepts the NaN literal
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "boundary-solve", "depth": 2, "mu": {
        "context": 2, "atoms": [{"word": "ab", "p": math.nan}, {"word": "a", "p": 0.5},
                                {"word": "B", "p": 0.5}]}}))
    assert "NaN" in cfg.read_text()
    rc, err = _main(["boundary-solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")],
                    capsys)
    assert rc == 2
    _assert_one_error_line(err, "not finite")


# one law written in decimals and as rational strings; at n_max 3 and 5 the
# decimal forms once printed other last digits than the rational ones
ONE_LAW = {
    "length-2": ({"a": 0.25, "B": 0.25, "ab": 0.25, "bA": 0.25}, 3),
    "lazy": ({"1": 0.5, "a": 0.125, "A": 0.125, "b": 0.125, "B": 0.125}, 5),
}


@pytest.mark.parametrize("case", sorted(ONE_LAW))
def test_decimal_and_rational_laws_write_the_same_bytes(case, tmp_path, capsys):
    law, n_max = ONE_LAW[case]
    written = []
    for form in (float, lambda p: str(Fraction(p))):
        cfg = tmp_path / "c.json"
        atoms = [{"word": w, "p": form(p)} for w, p in law.items()]
        cfg.write_text(json.dumps({"experiment": "cesaro", "n_max": n_max, "element": "ab",
                                   "mu": {"context": 2, "atoms": atoms}}))
        out = tmp_path / f"o{len(written)}"
        rc, err = _main(["cesaro", "--config", str(cfg), "--out-dir", str(out)], capsys)
        assert rc == 0, err
        written.append([(out / name).read_bytes()
                        for name in ("cesaro.csv", "cesaro_summary.json")])
    assert written[0] == written[1]


def test_conditional_reads_a_shallow_uniform_measure(tmp_path, capsys):
    # out_depth 3 exceeds nu_depth 2; the uniform tail covers every step,
    # the identity at step 0 included
    rc, err = _main(["conditional", "--n", "2", "--paths", "1", "--seed", "1", "--nu-depth",
                     "2", "--out-depth", "3", "--out-dir", str(tmp_path)], capsys)
    assert rc == 0, err
    rows = (tmp_path / "conditional.csv").read_text().splitlines()[2:]
    assert rows[0] == "1,0,0,0.25"


# One small, fast, valid config per experiment; rank is left to its default.
TINY = {
    "cesaro": {"n_max": 1, "element": "a"},
    "powers": {"g": "a", "eps": 1.5, "budget": 1},
    "build-mu": {"levels": 1, "family": ["ab"], "budget": 32},
    "boundary-solve": {"depth": 2},
    "conditional": {"n": 2, "paths": 1, "seed": 0, "nu_depth": 2},
    "bnd-map": {"length": 5, "paths": 1, "seed": 0},
    "fix-mass": {"depth": 2, "gens": "ball1"},
    "srs-escape": {"steps": 2, "trials": 1, "seed": 0},
    "pdf-check": {"measures": 1, "tuples": 1, "seed": 0, "sample_size": 2},
    "fdstates": {},
    "norm": {"element": "a", "n_moments": 2},
}

# Values each key type rejects: wrong JSON types, malformed or out-of-rank
# contents, and (for floats) values out of range.
WRONG = {
    "_int": ["3", True, 2.5, 2.0, [1], {"n": 1}, None],
    "_positive_float": ["0.5", True, [0.5], {"x": 1.0}, None, float("nan"), float("inf"),
                        0.0, -1.0, 10**400],
    "_word": [5, True, 1.5, ["a"], {"a": 1}, None, "a?b", "zz"],
    "_words": [5, True, 1.5, {"a": 1}, None, "ballx", "ball", "ab", [], [5], ["zz"]],
    "_measure": [5, True, 1.5, [], None, "no-such-file.json", "x" * 5000, {"context": 2},
                 {"context": 3, "atoms": [{"word": "c", "p": 1}]},
                 {"context": 2, "atoms": [{"word": "a", "p": "x"}]},
                 {"context": 2, "atoms": [{"word": "a", "p": "1/0"}]}],
    "_element": [5, True, 1.5, [], None, "zz", "a" * 5000 + "?", "no/such.json", {"terms": []},
                 {"context": 3, "terms": [{"word": "a", "re": 1.0}]}],
    "_rep": [5, True, 1.5, [], None, "no-such.json", {"perms": [[0, 1]]}, {"regular": True},
             {"perms": [[1, 0, 2], [1, 2, 0]], "regular": "yes"},
             {"perms": [[5, 0, 1], [0, 1, 2]]}, {"perms": [[-1, 0], [0, 1]]},
             {"perms": [[2, 0], [0, 1]]}, {"perms": [[0.5, 0], [0, 1]]}, {"perms": [[], []]}],
    "_strategy": ["annealing", 5, None, ["random"]],
}


class TestConfigSchema:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_tiny_config_runs_and_is_not_modified(self, name, tmp_path):
        cfg = {"experiment": name, **TINY[name]}
        given = json.loads(json.dumps(cfg))
        manifest = run(cfg, tmp_path)
        assert cfg == given
        assert manifest.config_sha256 == config_hash(given)
        assert verify(tmp_path / "manifest.json")

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_help_lists_exactly_the_experiment_keys(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^\s+(?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M))
        keys = {key.name for key in EXPERIMENTS[name].keys}
        expected = {"--help", "--config", "--out-dir"} | {
            "--" + k.replace("_", "-") for k in keys
        }
        assert listed == expected

    def test_flags_merge_into_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "norm", "element": "a"}))
        rc, _ = _main(["norm", "--config", str(cfg), "--element", "a", "--n-moments", "3",
                       "--out-dir", str(tmp_path / "o")], capsys)
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        merged = {"experiment": "norm", "element": "a", "n_moments": 3}
        assert manifest["config_sha256"] == config_hash(merged)

    def test_word_resolves_before_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ab").write_text("not json")
        rc, err = _main(["norm", "--element", "ab", "--n-moments", "2", "--out-dir", "o"],
                        capsys)
        assert rc == 0, err
        lower, upper = (tmp_path / "o" / "norm.csv").read_text().splitlines()[2].split(",")[:2]
        assert float(lower) == float(upper) == 1.0

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]", '{"version": "0.1.0"}'],
                             ids=["missing", "malformed", "not-an-object", "no-outputs"])
    def test_verify_bad_manifest_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "m.json"
        if text is not None:
            path.write_text(text)
        rc, err = _main(["verify", "--manifest", str(path)], capsys)
        assert rc == 2
        _assert_one_error_line(err, "m.json")


# Inputs that ended in a traceback, a misrouted exit code or a silently
# ignored value: (subcommand and flags, config written to c.json or raw file
# text, the fragment the error line must name).
DEFECTS = {
    "malformed-config": (["norm", "--config", "{c}"], "{not json", "c.json"),
    "missing-config": (["norm", "--config", "{tmp}/nope.json"], None, "nope.json"),
    "n_moments-string": (["norm", "--config", "{c}"], {"element": "a", "n_moments": "x"},
                         "/n_moments"),
    "rep-without-perms": (["fdstates", "--config", "{c}"], {"rep": {"regular": True}}, "/rep"),
    # read as a swap through negative indexing, and exit 0
    "rep-image-minus-1": (["fdstates", "--config", "{c}"],
                          {"rep": {"perms": [[-1, 0], [0, 1]]}}, "/rep: generator 1"),
    "rep-empty-images": (["fdstates", "--config", "{c}"], {"rep": {"perms": [[], []]}},
                         "/rep: generator 1"),
    "family-ballx": (["build-mu", "--config", "{c}"], {"levels": 1, "family": "ballx"},
                     "/family"),
    "gens-int": (["fix-mass", "--config", "{c}"], {"depth": 2, "gens": 5}, "/gens"),
    "sample_size-0": (["pdf-check", "--config", "{c}"],
                      {"measures": 1, "tuples": 1, "seed": 0, "sample_size": 0}, "/sample_size"),
    "trials-0": (["srs-escape", "--config", "{c}"], {"steps": 2, "trials": 0, "seed": 0},
                 "/trials"),
    "element-zz": (["norm", "--element", "zz"], None, "/element"),
    "foreign-flags": (["cesaro", "--paths", "9", "--tuples", "3"], None, "--paths"),
    "flag-disagrees": (["norm", "--config", "{c}", "--n-moments", "64"],
                       {"element": "a", "n_moments": 2}, "/n_moments"),
    "typo-key": (["norm", "--config", "{c}"], {"element": "a", "nmoments": 64}, "/nmoments"),
    "element-context-3": (["norm", "--config", "{c}"],
                          {"rank": 2, "element": {"context": 3,
                                                  "terms": [{"word": "a", "re": 1.0}]}},
                          "/element"),
    "out-escapes": (["norm", "--config", "{c}"], {"element": "a", "out": "../x.csv"}, "/out"),
    "out-manifest": (["norm", "--config", "{c}"], {"element": "a", "out": "manifest.json"},
                     "/out"),
    # the string form spells at most 26 generators
    "rank-27-fix-mass": (["fix-mass", "--rank", "27", "--depth", "1", "--gens", "ball1"], None,
                         "/rank"),
    "rank-27-bnd-map": (["bnd-map", "--rank", "27", "--length", "5", "--paths", "1",
                         "--seed", "0"], None, "/rank"),
    "rank-27-boundary-solve": (["boundary-solve", "--rank", "27", "--depth", "1"], None,
                               "/rank"),
    "mu-mass-1-over-0": (["boundary-solve", "--depth", "2", "--mu", "{c}"],
                         {"context": 2, "atoms": [{"word": "a", "p": "1/0"},
                                                  {"word": "A", "p": "1/4"}]}, "/mu"),
    # a flag takes a file path or a named law; an inline object goes in a config file
    "mu-inline-object": (["boundary-solve", "--depth", "2", "--mu",
                          '{{"context": 2, "atoms": [{{"word": "a", "p": 1}}]}}'], None, "/mu"),
    # an l1 norm whose square overflows a float: two terms, then one complex term
    "element-l1-squared-8e153": (["norm", "--config", "{c}"],
                                 {"element": {"context": 2, "terms": [
                                     {"word": "a", "re": 8e153}, {"word": "b", "re": 8e153}]}},
                                 "/element"),
    "element-l1-squared-1e308": (["cesaro", "--config", "{c}"],
                                 {"n_max": 2, "element": {"context": 2, "terms": [
                                     {"word": "a", "re": 1e308, "im": 1e308}]}},
                                 "/element"),
}


@pytest.mark.parametrize("case", sorted(DEFECTS))
def test_defect_exits_2_naming_the_key(case, tmp_path, capsys):
    argv, config, fragment = DEFECTS[case]
    path = tmp_path / "c.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = [a.format(c=path, tmp=tmp_path) for a in argv]
    rc, err = _main(argv + ["--out-dir", str(tmp_path / "o")], capsys)
    assert rc == 2
    _assert_one_error_line(err, fragment)
    assert not (tmp_path / "x.csv").exists()


# Balls past freegroup.MAX_BALL_LETTERS; each of these ran out of memory.
BALLS = {
    "boundary-solve-depth-40": ["boundary-solve", "--depth", "40"],
    "conditional-nu-depth-25": ["conditional", "--n", "2", "--paths", "1", "--seed", "0",
                                "--nu-depth", "25"],
    "conditional-out-depth-30": ["conditional", "--n", "2", "--paths", "1", "--seed", "0",
                                 "--out-depth", "30"],
    "pdf-check-radius-30": ["pdf-check", "--measures", "1", "--tuples", "1", "--seed", "0",
                            "--radius", "30"],
    "build-mu-ball30": ["build-mu", "--levels", "1", "--family", "ball30"],
}


@pytest.mark.parametrize("case", sorted(BALLS))
def test_ball_past_the_cap_exits_4_at_once(case, tmp_path, capsys):
    start = time.perf_counter()
    rc, err = _main(BALLS[case] + ["--out-dir", str(tmp_path / "o")], capsys)
    assert time.perf_counter() - start < 5
    assert rc == 4
    _assert_one_error_line(err, "too large (cap: ")


def test_boundary_solve_working_ball_past_the_cap_exits_4_at_once(tmp_path, capsys):
    # the output ball of radius 8 is under the cap; a length-2 law works on
    # the ball of radius 8 + 2 * 2 = 12, which is over it
    freegroup._check_ball(2, 8)
    law = tmp_path / "mu.json"
    law.write_text(json.dumps({"context": 2, "atoms": [
        {"word": w, "p": "1/4"} for w in ("a", "B", "ab", "bA")]}))
    start = time.perf_counter()
    rc, err = _main(["boundary-solve", "--depth", "8", "--mu", str(law),
                     "--out-dir", str(tmp_path / "o")], capsys)
    assert time.perf_counter() - start < 1
    assert rc == 4
    _assert_one_error_line(err, "radius 12 in rank 2 is too large (cap: ")


@pytest.mark.parametrize("gens",["ball0", ["1"]], ids=["ball0", "identity-list"])
def test_fix_mass_without_a_non_identity_word_is_inconclusive(gens, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"depth": 2, "gens": gens}))
    rc, err = _main(["fix-mass", "--config", str(path), "--out-dir", str(tmp_path / "o")],
                    capsys)
    assert rc == 0, err
    summary = json.loads((tmp_path / "o" / "fixmass_summary.json").read_text())
    assert summary["verdict"] == "inconclusive: no non-identity word to test"


@st.composite
def _broken_configs(draw):
    """A tiny valid config with one key given a rejected value, or an unknown key added,
    or a required key removed; returns the config and the key the error must name."""
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    cfg = {"experiment": name, **TINY[name]}
    keys = EXPERIMENTS[name].keys
    mutation = draw(st.sampled_from(["wrong", "low", "unknown", "missing"]))
    if mutation == "unknown":
        names = {key.name for key in keys} | {"experiment"}
        bad = draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
                   .filter(lambda k: k not in names))
        cfg[bad] = draw(st.sampled_from([1, "a", None]))
        return cfg, bad
    if mutation == "missing":
        required = [key.name for key in keys if key.default is None]
        if required:
            bad = draw(st.sampled_from(required))
            del cfg[bad]
            return cfg, bad
    bounded = [key for key in keys if key.low is not None]
    if mutation == "low" and bounded:
        key = draw(st.sampled_from(bounded))
        cfg[key.name] = key.low - draw(st.integers(1, 5))
        return cfg, key.name
    key = draw(st.sampled_from(keys))
    cfg[key.name] = draw(st.sampled_from(WRONG[key.parse.__name__]))
    return cfg, key.name


@settings(max_examples=150)
@given(_broken_configs())
def test_fuzz_broken_config_exits_2(case):
    cfg, key = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([cfg["experiment"], "--config", str(path), "--out-dir", tmp])
        assert rc == 2
        _assert_one_error_line(err.getvalue(), f"/{key}")
