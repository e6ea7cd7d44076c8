import contextlib
import hashlib
import io
import json
import math
import re
import shlex
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationarylab import boundary, cli, freegroup
from stationarylab.algebra import AlgebraElement, _odd_moment, convolve
from stationarylab.cli import EXPERIMENTS, ConfigError, config_hash, main, run, verify
from stationarylab.errors import MalformedInputError, ResourceLimitError
from stationarylab.freegroup import FiniteQuotient, FreeGroupContext
from stationarylab.serialize import element_from_json, measure_from_json, measure_to_json
from stationarylab.states import finite_dim_stationary_states
from stationarylab.walks import cesaro_measure, rng_from_seed, uniform_generator_measure

from exact import exact
from test_boundary import _oracle_masses

F2 = FreeGroupContext(2)
# the argv of every `stationary-lab` line in the README's code blocks
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```[a-z]*\n(.*?)^```",
                            (Path(__file__).resolve().parent.parent / "README.md").read_text(),
                            re.M | re.S)
    for line in block.splitlines() if line.startswith("stationary-lab ")
]


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
        # a coefficient that is not finite, given or from a sum of terms, and
        # a part that is no number, named with its word
        for terms in ([{"word": "a", "re": "inf"}], [{"word": "a", "im": "nan"}],
                      [{"word": "a", "re": 1e308}, {"word": "a", "re": 1e308}]):
            with pytest.raises(MalformedInputError):
                element_from_json({"context": 2, "terms": terms})
        for bad in (None, True):
            with pytest.raises(MalformedInputError, match='"re" of ab: '):
                element_from_json({"context": 2, "terms": [{"word": "ab", "re": bad}]})

    @pytest.mark.parametrize("part, value", [
        (9007199254740993, Fraction(9007199254740993)), ("1/3", Fraction(1, 3)),
        ("0.1", Fraction(1, 10))], ids=["2^53+1", "1/3", "'0.1'"])
    def test_element_parts_read_as_written(self, part, value):
        # an integer or a string is read as written, as masses are
        x = element_from_json({"context": 2, "terms": [{"word": "a", "re": part},
                                                      {"word": "b", "im": part}]})
        assert exact(x) == {F2.word("a"): (value, 0), F2.word("b"): (0, value)}

    def test_repeated_atoms_add(self):
        # listed total 3/2: refused, not read as its last a
        with pytest.raises(MalformedInputError, match="masses do not sum to 1"):
            measure_from_json(_law([("a", "1/2"), ("b", "1/2"), ("a", "1/2")]))
        # listed total 1: the two atoms at a are one of mass 1/2
        mu = measure_from_json(_law([("a", "1/4"), ("a", "1/4"), ("b", "1/2")]))
        assert mu == measure_from_json(_law({"a": "1/2", "b": "1/2"}))
        # a negative listed mass, though a repeat of its word lifts its sum to 1/4
        with pytest.raises(MalformedInputError, match='"p" of a: -1/4 is negative'):
            measure_from_json(_law([("a", "-1/4"), ("a", "1/2"), ("b", "3/4")]))

    @pytest.mark.parametrize("context", [2.9, True, "2"])
    def test_context_is_an_integer(self, context):
        with pytest.raises(MalformedInputError, match="bad element JSON: context"):
            element_from_json({"context": context, "terms": [{"word": "a", "re": 1}]})
        with pytest.raises(MalformedInputError, match="bad measure JSON: context"):
            measure_from_json({"context": context, "atoms": [{"word": "a", "p": 1}]})

    @pytest.mark.parametrize("context", [0, -5, 200])
    def test_context_is_a_rank(self, context):
        # with no entries no word is read, so the context is checked on its own
        message = f"rank must be in 1..128, got {context}"
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            element_from_json({"context": context, "terms": []})
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            measure_from_json({"context": context, "atoms": []})

    def test_word_is_a_string(self):
        message = "expected a word string, got ['a', 'b']"
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            element_from_json({"context": 2, "terms": [{"word": ["a", "b"], "re": 1}]})
        with pytest.raises(MalformedInputError, match=re.escape(message)):
            measure_from_json({"context": 2, "atoms": [{"word": ["a", "b"], "p": 1}]})

    def test_entry_without_a_word_is_malformed(self):
        with pytest.raises(MalformedInputError, match="bad element JSON: 'word'"):
            element_from_json({"context": 2, "terms": [{"re": 1}]})
        with pytest.raises(MalformedInputError, match="bad measure JSON: 'word'"):
            measure_from_json({"context": 2, "atoms": [{"p": 1}]})


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
        # under the law uniform on {a, A}, every b_n of lambda_a has norm and
        # l1 norm exactly 1: a run of equal uppers is no decay
        law = tmp_path / "mu.json"
        law.write_text(json.dumps(_law({"a": "1/2", "A": "1/2"})))
        out = tmp_path / "out"
        rc = main(["cesaro", "--element", "a", "--n-max", "6", "--mu", str(law),
                   "--out-dir", str(out)])
        assert rc == 0
        rows = (out / "cesaro.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2:] for row in rows] == [["1.0", "l1"]] * 6
        summary = json.loads((out / "cesaro_summary.json").read_text())
        assert summary["verdict"] == "not decaying over the last three checkpoints"

    def test_cesaro_uniform_uppers_of_ab_read_decaying(self, tmp_path):
        # the l1 norms of b_n of lambda_ab stay at 1, while the partition's
        # uppers fall from n = 2
        rc = main(["cesaro", "--element", "ab", "--n-max", "6", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = [row.split(",") for row in
                (tmp_path / "cesaro.csv").read_text().splitlines()[2:]]
        assert rows[0][2:] == ["1.0", "l1"]
        assert [row[3] for row in rows[1:]] == ["powers-partition"] * 5
        uppers = [float(row[2]) for row in rows]
        assert uppers == sorted(uppers, reverse=True) and uppers[5] == 0.6983263150247097
        summary = json.loads((tmp_path / "cesaro_summary.json").read_text())
        assert summary["verdict"] == "decaying; consistent with unique stationarity"

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

    def test_pdf_check_past_the_support_cap_is_4_before_sampling(
            self, tmp_path, monkeypatch, capsys):
        # 2236^2 entries fit the cap of 5,000,000 and 2237^2 pass it; the
        # check runs before the first draw, which here would fail the test
        assert 2236**2 <= freegroup.SUPPORT_CAP < 2237**2
        monkeypatch.setattr(cli, "rng_from_seed", lambda seed: pytest.fail("sampled"))
        out = tmp_path / "o"
        rc, err = _main(["pdf-check", "--tuple-len", "2237", "--measures", "1", "--tuples", "1",
                         "--seed", "1", "--out-dir", str(out)], capsys)
        assert rc == 4
        _assert_one_error_line(err, "Gram matrix entries exceed the cap (cap: 5000000)")
        assert not any(out.iterdir())

    def test_inconclusive_is_5(self, tmp_path):
        # exit 5 after the last output: the tables are written, the manifest is not
        rc = main(["powers", "--g", "a", "--eps", "0.0001", "--budget", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 5
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == {
            "powers.csv": "274b809d299f5993f78c40bf907f4eaea097e511fb4432a45775eded7cab68a5",
            "powers_summary.json":
                "7ea7093f13199af2504fb0ccaf0264a49317e09f1387b62b7232141fe54757e1"}

    @pytest.mark.parametrize("argv", [
        # in rank 1 every base word commutes with a: no tuple is tried
        ["powers", "--rank", "1", "--g", "a", "--eps", "0.5"],
        ["build-mu", "--rank", "1", "--levels", "1"],
        # every base word of ball3 is a family word, which commutes with itself
        ["build-mu", "--family", "ball3", "--levels", "1"],
    ])
    def test_no_base_word_is_5_and_writes_nothing(self, argv, tmp_path, capsys):
        rc, err = _main(argv + ["--out-dir", str(tmp_path)], capsys)
        assert rc == 5
        level = "level 1: " if argv[0] == "build-mu" else ""
        _assert_one_error_line(
            err, f"error: {level}no radius-3 base word commutes with none of the targets")
        assert "inf" not in err and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_dir_naming_a_file_is_2(self, sub, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        rc, err = _main(["norm", "--element", "a", "--out-dir", str(tmp_path / "f" / sub)],
                        capsys)
        assert rc == 2
        _assert_one_error_line(err, "config error at --out-dir: cannot create directory")
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    @pytest.mark.parametrize("blocked", ["cesaro.csv", "cesaro_summary.json", "manifest.json"])
    def test_output_that_cannot_be_written_is_2(self, blocked, tmp_path, capsys):
        # a directory stands where an output goes: the files before it stay,
        # and no temporary file or manifest is left
        (tmp_path / blocked).mkdir()
        rc, err = _main(["cesaro", "--element", "a", "--n-max", "1", "--out-dir", str(tmp_path)],
                        capsys)
        assert rc == 2
        _assert_one_error_line(err, f"config error at --out-dir: cannot write {tmp_path / blocked}")
        order = ["cesaro.csv", "cesaro_summary.json", "manifest.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == order[:order.index(blocked) + 1]
        assert not any((tmp_path / blocked).iterdir())

    def test_failing_build_level_names_its_closest_tuple(self, tmp_path, capsys):
        # budget 1 tries only n = 1, and one conjugate of lambda_a still has
        # norm 1; ab is the first base that commutes with no word of ball1
        out = tmp_path / "o"
        rc, err = _main(["build-mu", "--levels", "1", "--family", "ball1", "--budget", "1",
                         "--out-dir", str(out)], capsys)
        assert rc == 5
        _assert_one_error_line(err, "construction failed at level 1; best certified bound "
                                    "1.000000; closest tuple: the powers of ab up to n = 1, "
                                    "stopped at a[1]")
        assert not any(out.iterdir())

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


# CLI error paths: (arguments, with {d} the directory of the files written
# first, those files, the error), each exit 2 before any output
CLI_ERRORS = {
    "config-not-an-object": (["norm", "--config", "{d}/f.json"], {"f.json": []},
                             "config error: config must be a JSON object"),
    "config-of-another-experiment": (
        ["cesaro", "--config", "{d}/f.json"], {"f.json": {"experiment": "norm", "element": "a"}},
        "config error at /experiment: config disagrees with subcommand"),
    "element-without-terms": (["norm", "--element", "{d}/e.json"], {"e.json": {"context": 2}},
                              "config error at /element: bad element JSON: 'terms'"),
    "element-with-a-list-word": (
        ["norm", "--element", "{d}/e.json"],
        {"e.json": {"context": 2, "terms": [{"word": ["a", "b"], "re": 1}]}},
        "config error at /element: expected a word string, got ['a', 'b']"),
    "law-whose-repeated-atoms-sum-past-1": (
        ["boundary-solve", "--depth", "2", "--mu", "{d}/m.json"],
        {"m.json": {"context": 2, "atoms": [{"word": w, "p": "1/2"} for w in ("a", "b", "a")]}},
        "config error at /mu: masses do not sum to 1"),
    "too-few-generator-images": (
        ["fdstates", "--rep", "{d}/r.json"], {"r.json": {"perms": [[1, 0]]}},
        "config error at /rep: need 2 generator images, got 1"),
    "cesaro-without-checkpoints": (["cesaro", "--element", "a", "--n-max", "0"], {},
                                   "config error at /n_max: must be >= 1, got 0"),
}


@pytest.mark.parametrize("argv, files, error", CLI_ERRORS.values(), ids=CLI_ERRORS)
def test_cli_error_exits_2_and_writes_nothing(argv, files, error, tmp_path, capsys):
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    out = tmp_path / "o"
    rc, err = _main([arg.format(d=tmp_path) for arg in argv] + ["--out-dir", str(out)], capsys)
    assert rc == 2
    _assert_one_error_line(err, error)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


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
    # out_depth 3 exceeds nu_depth 2; the closed form covers every step,
    # the identity at step 0 included
    rc, err = _main(["conditional", "--n", "2", "--paths", "1", "--seed", "1", "--nu-depth",
                     "2", "--out-depth", "3", "--out-dir", str(tmp_path)], capsys)
    assert rc == 0, err
    rows = (tmp_path / "conditional.csv").read_text().splitlines()[2:]
    assert rows[0] == "1,0,0,0.25"


def _law(masses):
    """The measure JSON of a {word: mass} dict, or of (word, mass) pairs, which
    may repeat a word."""
    pairs = masses.items() if isinstance(masses, dict) else masses
    return {"context": 2, "atoms": [{"word": w, "p": p} for w, p in pairs]}


LENGTH2_LAW = _law({w: "1/4" for w in ("a", "B", "ab", "bA")})


def test_solve_that_does_not_converge_is_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(boundary, "TRUNCATED_MAX_ITER", 1)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "boundary-solve", "depth": 2, "mu": LENGTH2_LAW}))
    rc, err = _main(["boundary-solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")],
                    capsys)
    assert rc == 3
    _assert_one_error_line(err, "no convergence within 1 iterations (last residual: 5.813e-02)")
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("key, value", [("tol", 1e-12), ("max_iter", 200)])
def test_solve_takes_no_operator_knobs(tmp_path, capsys, key, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "boundary-solve", "depth": 2, key: value}))
    rc, err = _main(["boundary-solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")],
                    capsys)
    assert rc == 2
    _assert_one_error_line(err, f"at /{key}: unknown key; the keys are rank, depth, mu")
    assert not (tmp_path / "o").exists()


def test_element_and_rep_read_from_files(tmp_path, monkeypatch, capsys):
    element = {"context": 2, "terms": [{"word": "a", "re": 1.0}, {"word": "ab", "re": 0.5},
                                       {"word": "Ba", "re": 0.3}]}
    (tmp_path / "x.json").write_text(json.dumps(element))
    (tmp_path / "rep.json").write_text(json.dumps({"perms": [[1, 0, 2], [1, 2, 0]]}))
    monkeypatch.chdir(tmp_path)
    for argv, config in (
        (["norm", "--element", "x.json", "--n-moments", "4"],
         {"experiment": "norm", "element": element, "n_moments": 4}),
        (["fdstates", "--rep", "rep.json"],
         {"experiment": "fdstates", "rep": {"perms": [[1, 0, 2], [1, 2, 0]]}}),
    ):
        out = tmp_path / argv[0]
        rc, err = _main(argv + ["--out-dir", str(out)], capsys)
        assert rc == 0, err
        # the file's object gives the same outputs as the object inline
        assert json.loads((out / "manifest.json").read_text())["outputs"] == \
            run(config, tmp_path / f"{argv[0]}-inline").outputs


def test_cesaro_reports_null_when_the_generation_test_refuses(tmp_path, monkeypatch, capsys):
    # the length-2 law is not accepted at once: its saturation needs
    # 4 * 3^3 = 108 bit operations, past a cap of 100 that its rows fit
    monkeypatch.setattr(freegroup, "SUPPORT_CAP", 100)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "cesaro", "element": "a", "n_max": 2,
                               "mu": LENGTH2_LAW}))
    rc, err = _main(["cesaro", "--config", str(cfg), "--out-dir", str(tmp_path / "o")], capsys)
    assert rc == 0, err
    summary = json.loads((tmp_path / "o" / "cesaro_summary.json").read_text())
    assert summary == {"generating": None, "partial": False,
                       "verdict": "not decaying over the last three checkpoints"}
    assert len((tmp_path / "o" / "cesaro.csv").read_text().splitlines()) == 2 + 2


def test_cesaro_under_a_biased_law_reads_powers_partition(tmp_path, capsys):
    # at n = 2 the support of b_2, abAB (mass 1/2) and its conjugates by the
    # four letters (half their law masses), freely generates, so the upper is
    # its Akemann-Ostrand norm, min over t of 2t + sum (sqrt(t^2 + c^2) - t)
    # over those five masses c; from n = 3 the support is no free family,
    # and the sum of the norms of its ping-pong families is below its l1
    # norm, and at n = 6 below the 0.9544479060487384 that rewriting the
    # support over a free basis of its subgroup gives
    (tmp_path / "mu.json").write_text(json.dumps(
        _law({"a": "2/5", "A": "1/10", "b": "3/10", "B": "1/5"})))
    rc, err = _main(["cesaro", "--element", "abAB", "--n-max", "6", "--mu",
                     str(tmp_path / "mu.json"), "--out-dir", str(tmp_path / "o")], capsys)
    assert rc == 0, err
    rows = [row.split(",") for row in (tmp_path / "o" / "cesaro.csv").read_text().splitlines()[2:]]
    assert rows[0][2:] == ["1.0", "l1"]
    assert rows[1][2:] == ["0.8655671719807653", "free-support"]
    assert [rows[n - 1][3] for n in (3, 4, 5, 6)] == ["powers-partition"] * 4
    assert rows[5][0] == "6" and rows[5][2:] == ["0.5714376663542742", "powers-partition"]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_conditional_top_masses_are_the_closed_form(rank, tmp_path):
    # under the uniform measure the top mass at a position g of length L >= 1
    # is that of its first letter, 1 - nu[g^-1], one minus the mass of a word
    # of length L; at the identity it is 1/(2k)
    run({"experiment": "conditional", "rank": rank, "n": 25, "paths": 20, "seed": 7}, tmp_path)
    rows = (tmp_path / "conditional.csv").read_text().splitlines()[2:]
    assert len(rows) == 20 * 26
    k = rank
    for row in rows:
        _, _, length, top = row.split(",")
        L = int(length)
        closed = Fraction(1, 2 * k) if L == 0 else 1 - Fraction(1, 2 * k * (2 * k - 1) ** (L - 1))
        assert top == repr(float(closed)), row


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

    def test_readme_commands_are_found(self):
        assert len(README_COMMANDS) == 7

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a) for a in README_COMMANDS])
    def test_readme_command_parses_and_validates(self, argv):
        # up to the run itself: a flag or key that the CLI no longer takes fails here
        args = cli._build_parser().parse_args(argv)
        if args.command != "verify":
            cli._validate(cli._config_from_args(args), EXPERIMENTS[args.command].keys)

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

    @pytest.mark.parametrize("name, fragment", [
        ("d", "unreadable output: d: "),
        ("", "not a file name"),
        ("{secret}", "not a file name"),
        ("../secret", "not a file name"),
    ], ids=["directory", "empty", "absolute", "parent"])
    def test_verify_output_that_is_no_file_of_the_directory_exits_5(
            self, name, fragment, tmp_path, capsys):
        # the secret's digest is right: hashing it would pass verification
        secret = tmp_path / "secret"
        secret.write_text("outside the output directory")
        out = tmp_path / "o"
        (out / "d").mkdir(parents=True)
        name = name.format(secret=secret)
        digest = hashlib.sha256(secret.read_bytes()).hexdigest()
        (out / "m.json").write_text(json.dumps({"outputs": {name: digest},
                                                "version": "0.1.0"}))
        rc, err = _main(["verify", "--manifest", str(out / "m.json")], capsys)
        assert rc == 5
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err
        assert fragment in err, err


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
    # a budget of 0 tries no tuple, so it certifies nothing
    "powers-budget-0": (["powers", "--g", "a", "--eps", "0.5", "--budget", "0"], None, "/budget"),
    "build-mu-budget-0": (["build-mu", "--levels", "1", "--budget", "0"], None, "/budget"),
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
    # the tuple pool (radius 6) fits; the dump's ball of radius 12 does not
    "pdf-check-radius-12": ["pdf-check", "--measures", "1", "--tuples", "1", "--seed", "0",
                            "--radius", "12"],
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
    _assert_one_error_line(err, "the solver works on the ball of radius depth + 2L = 12 "
                                "(depth 8, L 2); the ball of radius 12 in rank 2 is too "
                                "large (cap: ")


def _odd_moment_lookups():
    # y reads a and b (of a, A, b, B one word of each pair g, g^-1), z has 5
    # words: 2 x 5 = 10 lookups
    a, A, b, B = (F2.word(w).letters for w in ("a", "A", "b", "B"))
    y = ({b"": 2, a: 1, A: 1, b: 1, B: 1}, {})
    return _odd_moment(y, y, 8)


def _law_file(tmp_path, words) -> str:
    law = tmp_path / "mu.json"
    law.write_text(json.dumps({"context": 2, "atoms": [
        {"word": w, "p": f"1/{len(words)}"} for w in words]}))
    return str(law)


def _config_file(tmp_path, cfg) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


THREE_POINTS = {"perms": [[1, 0, 2], [0, 2, 1]]}
GENERATING_LAW = ("a", "A", "B", "ab")

# Every SUPPORT_CAP refusal: (how to reach it, the count it refuses past
# the cap, its message, the CLI arguments that reach it or None when the
# CLI catches it: the Cesaro support and the odd-moment lookups end a
# cesaro run's rows or a bracket's moments instead)
CAP_REFUSALS = {
    # (a + b)(a + b) has the 4 words aa, ab, ba, bb
    "convolution": (
        lambda tmp: convolve(*[AlgebraElement({F2.word("a"): 1, F2.word("b"): 1}, 2)] * 2),
        4, "convolution support exceeds the cap",
        lambda tmp: ["build-mu", "--family", "ball1", "--levels", "2"]),
    # S3 has 6 elements: 36 index pairs
    "regular-representation": (
        lambda tmp: FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)]),
        36, "regular representation: index pairs exceed the cap",
        lambda tmp: ["fdstates", "--rep", "s3-regular"]),
    "odd-moment": (lambda tmp: _odd_moment_lookups(), 10, "odd-moment lookups exceed the cap",
                   None),
    # 2 states (the hub and one inside ab) and 4 letters: 4 x 2^3 bit operations
    "generation-test": (
        lambda tmp: measure_from_json({"context": 2, "atoms": [
            {"word": w, "p": "1/4"} for w in GENERATING_LAW]}).is_generating(),
        32, "generation test: saturation work exceeds the cap",
        lambda tmp: ["boundary-solve", "--depth", "2", "--mu", _law_file(tmp, GENERATING_LAW)]),
    # e, a, A, b and B
    "cesaro": (lambda tmp: cesaro_measure(uniform_generator_measure(2), 2), 5,
               "Cesaro support exceeds the cap", None),
    "fdstates": (
        lambda tmp: finite_dim_stationary_states(FiniteQuotient(2, THREE_POINTS["perms"]),
                                                 uniform_generator_measure(2)),
        9, "fdstates: index pairs exceed the cap",
        lambda tmp: ["fdstates", "--config", _config_file(tmp, {"rep": THREE_POINTS})]),
    "pdf-check": (
        lambda tmp: run({"experiment": "pdf-check", "measures": 1, "tuples": 1, "seed": 1,
                         "tuple_len": 3}, tmp / "run"),
        9, "pdf-check: Gram matrix entries exceed the cap",
        lambda tmp: ["pdf-check", "--measures", "1", "--tuples", "1", "--seed", "1",
                     "--tuple-len", "3"]),
}


@pytest.mark.parametrize("case", CAP_REFUSALS)
def test_every_support_cap_refusal_names_its_count(case, tmp_path, monkeypatch, capsys):
    refuse, count, message, cli_args = CAP_REFUSALS[case]
    monkeypatch.setattr(freegroup, "SUPPORT_CAP", count - 1)
    with pytest.raises(ResourceLimitError) as info:
        refuse(tmp_path)
    assert str(info.value) == f"{message} (cap: {count - 1})"
    assert info.value.cap == count - 1
    if cli_args is not None:
        rc, err = _main(cli_args(tmp_path) + ["--out-dir", str(tmp_path / "o")], capsys)
        assert rc == 4
        _assert_one_error_line(err, f"error: {message} (cap: {count - 1})")
    monkeypatch.setattr(freegroup, "SUPPORT_CAP", count)
    refuse(tmp_path)


def test_pdf_check_draws_a_measure_s_tuples_at_once():
    # a reference copy of one integers call per tuple, against pdf-check's one
    # call per measure: the same words, and the generator left where the next
    # measure's root picks start (Philox keeps its spare 32-bit half in its state)
    def per_tuple(rng, pool, tuples, tuple_len):
        return [[pool[i] for i in rng.integers(0, len(pool), size=tuple_len).tolist()]
                for _ in range(tuples)]

    def per_measure(rng, pool, tuples, tuple_len):
        draws = rng.integers(0, len(pool), size=(tuples, tuple_len)).tolist()
        return [[pool[i] for i in idx] for idx in draws]

    for seed in (0, 3, 442231):
        for size in range(1, 201):
            pool = [f"w{i}" for i in range(size)]
            for tuple_len in range(1, 8):
                tuples = (seed + size + tuple_len) % 6
                old, new = rng_from_seed(seed, size, tuple_len), rng_from_seed(seed, size, tuple_len)
                assert per_tuple(old, pool, tuples, tuple_len) == per_measure(new, pool, tuples,
                                                                              tuple_len)
                assert old.integers(0, 17, size=8).tolist() == new.integers(0, 17, size=8).tolist()


@pytest.mark.parametrize("gens",["ball0", ["1"]], ids=["ball0", "identity-list"])
def test_fix_mass_without_a_non_identity_word_is_inconclusive(gens, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"depth": 2, "gens": gens}))
    rc, err = _main(["fix-mass", "--config", str(path), "--out-dir", str(tmp_path / "o")],
                    capsys)
    assert rc == 0, err
    summary = json.loads((tmp_path / "o" / "fixmass_summary.json").read_text())
    assert summary["verdict"] == "inconclusive: no non-identity word to test"


def test_fix_mass_with_a_law_nu_is_not_stationary_for_exits_3(tmp_path, capsys):
    # the uniform boundary measure is stationary for the simple walk only
    law = tmp_path / "mu.json"
    law.write_text(json.dumps({"context": 2, "atoms": [
        {"word": w, "p": "1/4"} for w in ("a", "B", "ab", "bA")]}))
    rc, err = _main(["fix-mass", "--depth", "5", "--mu", str(law),
                     "--out-dir", str(tmp_path / "o")], capsys)
    assert rc == 3
    _assert_one_error_line(err, "residual 7/36")
    assert not (tmp_path / "o" / "fixmass_summary.json").exists()


@pytest.mark.parametrize("support, nu_depth, residual", [
    (("a", "B", "ab", "bA"), 6, "residual 7/36"),
    # every level-1 mass stays; a one-level table does not narrow the check
    (("aa", "AA", "ba", "Ba"), 1, "residual 1/9"),
])
def test_conditional_with_a_law_nu_is_not_stationary_for_exits_3(support, nu_depth, residual,
                                                                tmp_path, capsys):
    # the rows translate the uniform boundary measure, stationary for the simple walk only
    law = tmp_path / "mu.json"
    law.write_text(json.dumps({"context": 2, "atoms": [{"word": w, "p": "1/4"} for w in support]}))
    rc, err = _main(["conditional", "--n", "6", "--paths", "2", "--seed", "3", "--mu", str(law),
                     "--nu-depth", str(nu_depth), "--out-dir", str(tmp_path / "o")], capsys)
    assert rc == 3
    _assert_one_error_line(err, residual)
    assert not (tmp_path / "o" / "conditional.csv").exists()


def _stationary_masses(out) -> dict[str, float]:
    """The word -> mass rows of a boundary-solve run's stationary.csv."""
    rows = (out / "stationary.csv").read_text().splitlines()[2:]
    return {word: float(mass) for word, _, mass in (row.split(",") for row in rows)}


def test_boundary_solve_on_the_defect_law_exits_0_with_its_harmonic_measure(tmp_path, capsys):
    # a biased nearest-neighbour law: every mass is its product of hitting
    # probabilities, which a solve truncated at depth + 2 misses by up to 4.7%
    law = tmp_path / "mu.json"
    law.write_text(json.dumps({"context": 2, "atoms": [
        {"word": w, "p": p} for w, p in (("a", "2/5"), ("A", "1/10"), ("b", "3/10"),
                                         ("B", "1/5"))]}))
    out = tmp_path / "o"
    rc, err = _main(["boundary-solve", "--depth", "5", "--mu", str(law), "--out-dir", str(out)],
                    capsys)
    assert rc == 0, err
    assert verify(out / "manifest.json")
    assert json.loads((out / "stationary_summary.json").read_text()) == {
        "residual": None, "iterations": 0, "hitting_agrees": True}
    assert "\nA,1,0.06660370763380219\n" in (out / "stationary.csv").read_text()
    mu = measure_from_json(json.loads(law.read_text()))
    assert _stationary_masses(out) == _oracle_masses(mu, 5)


def _lazy_law_file(tmp_path, masses) -> str:
    """A rank-2 law file with the given masses on 1, a, A, b, B."""
    law = tmp_path / "mu.json"
    law.write_text(json.dumps({"context": 2, "atoms": [
        {"word": w, "p": p} for w, p in zip(("1", "a", "A", "b", "B"), masses)]}))
    return str(law)


def test_boundary_solve_reads_the_lazy_simple_walk_off_the_root(tmp_path, capsys):
    # the identity atom enters the root's equation, so lazy laws take it too
    out = tmp_path / "o"
    rc, err = _main(["boundary-solve", "--depth", "5", "--mu",
                     _lazy_law_file(tmp_path, ["1/5"] * 5), "--out-dir", str(out)], capsys)
    assert rc == 0, err
    summary = json.loads((out / "stationary_summary.json").read_text())
    assert summary["hitting_agrees"] is True
    masses = _stationary_masses(out)
    assert {w: masses[w] for w in "aAbB"} == dict.fromkeys("aAbB", 0.25)


def test_boundary_solve_on_a_biased_lazy_law_exits_0_with_its_root(tmp_path, capsys):
    # a biased lazy law: the root's mass of a, which a truncated solve
    # misses in the fifth digit (0.50622614)
    out = tmp_path / "o"
    rc, err = _main(["boundary-solve", "--depth", "5", "--mu", _lazy_law_file(
        tmp_path, ("1/10", "2/5", "1/10", "1/5", "1/5")), "--out-dir", str(out)], capsys)
    assert rc == 0, err
    assert verify(out / "manifest.json")
    assert json.loads((out / "stationary_summary.json").read_text())["hitting_agrees"] is True
    assert _stationary_masses(out)["a"] == 0.5062334860519471


def test_config_hash_reads_the_law_file_not_its_path(tmp_path, capsys):
    # two laws written in turn to one file hash apart; an inline law hashes
    # as the file's JSON does
    law = tmp_path / "law.json"
    digests = []
    for masses in (("2/5", "1/10", "3/10", "1/5"), ("1/4",) * 4):
        data = {"context": 2, "atoms": [{"word": w, "p": p} for w, p in zip("aAbB", masses)]}
        law.write_text(json.dumps(data))
        rc, err = _main(["boundary-solve", "--depth", "1", "--mu", str(law),
                         "--out-dir", str(tmp_path / "o")], capsys)
        assert rc == 0, err
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        inline = {"experiment": "boundary-solve", "depth": 1, "mu": data}
        assert manifest["config_sha256"] == config_hash(inline)
        digests.append(manifest["config_sha256"])
    assert digests[0] != digests[1]


def test_a_file_naming_another_file_is_a_config_error(tmp_path, capsys):
    (tmp_path / "law.json").write_text(json.dumps({"context": 2, "atoms": [
        {"word": w, "p": "1/4"} for w in "aAbB"]}))
    (tmp_path / "ref.json").write_text(json.dumps(str(tmp_path / "law.json")))
    rc, err = _main(["boundary-solve", "--depth", "1", "--mu", str(tmp_path / "ref.json"),
                     "--out-dir", str(tmp_path / "o")], capsys)
    assert rc == 2
    _assert_one_error_line(err, "/mu")


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
