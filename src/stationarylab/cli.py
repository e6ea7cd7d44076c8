"""Batch experiment driver.

One experiment per invocation: a JSON config (or inline flags) selects the
operation, seeds are explicit, outputs are CSV files plus a manifest tying
every output to its config hash and an anchor string naming the quantity.
Re-running the same config produces byte-identical outputs.

One table, EXPERIMENTS, holds each experiment's runner, anchor and keys; it
validates configs and generates the flags of each subcommand.

Exit codes: 0 success, 2 config error, 3 precondition, 4 resource limit,
5 inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import __version__
from .algebra import AlgebraElement, _float_down, certify_norm
from .boundary import (
    boundary_map,
    conditional_measure,
    require_stationary,
    solve_stationary,
    uniform_boundary_measure,
)
from .errors import (
    ConstructionError,
    InconclusiveError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
    StationaryLabError,
    UnresolvedBoundaryError,
)
from .freegroup import MAX_STRING_RANK, FiniteQuotient, FreeGroupContext, _check_ball, ball
from .freegroup import _check_support, _is_int, _same_rank, word_from_str
from .serialize import (
    cylinder_csv_rows,
    element_from_json,
    measure_from_json,
    measure_to_json,
)
from .states import (
    build_c_star_simple_measure,
    cesaro_test,
    finite_dim_stationary_states,
    powers_search,
)
from .subgroups import (
    FREENESS_THRESHOLD,
    CyclicSubgroup,
    freeness_report,
    pdf_from_subgroup_sample,
    psd_check,
    srs_escape_experiment,
)
from .walks import GroupMeasure, rng_from_seed, sample_path, uniform_generator_measure


class ConfigError(StationaryLabError, ValueError):
    """Schema violation; carries a JSON-pointer-ish path of the offending field."""

    def __init__(self, pointer: str, message: str):
        where = f" at {pointer}" if pointer else ""
        super().__init__(f"config error{where}: {message}")
        self.pointer = pointer


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_INCONCLUSIVE = 5

# Checked in order: the first class an error is an instance of gives its code.
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    ((PreconditionError, UnresolvedBoundaryError), EXIT_PRECONDITION),
    (ResourceLimitError, EXIT_RESOURCE),
    ((InconclusiveError, ConstructionError), EXIT_INCONCLUSIVE),
    (StationaryLabError, EXIT_PRECONDITION),
)


# ---------------------------------------------------------------------------
# config value types: each parses a raw JSON value under the config's rank
# and raises ValueError, TypeError, LookupError or ArithmeticError (an overflow,
# a zero denominator) on a bad value
# ---------------------------------------------------------------------------


def _int(value, rank: int) -> int:
    if not _is_int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _positive_float(value, rank: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ValueError(f"expected a positive finite number, got {value!r}")
    return float(value)


def _word(value, rank: int):
    """A word in the string form; --help takes the metavar WORD from this name."""
    return word_from_str(value, rank)


def _words(value, rank: int) -> list:
    """'ballR' (every word of length <= R) or a nonempty list of word strings."""
    if isinstance(value, str) and value.startswith("ball") and value[4:].isdigit():
        return list(ball(FreeGroupContext(rank), int(value[4:])))
    if isinstance(value, list) and value:
        return [_word(s, rank) for s in value]
    raise ValueError(f"expected 'ballR' or a list of words, got {value!r}")


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read JSON file {path!r}: {exc}") from exc


def _of_rank(obj, rank: int):
    _same_rank(obj.rank, rank)
    return obj


def _measure(value, rank: int) -> GroupMeasure | Path:
    """'uniform-generators' (or 'uniform'), a measure object, or a file holding one."""
    if value in ("uniform-generators", "uniform"):
        return uniform_generator_measure(rank)
    return Path(value) if isinstance(value, str) else _of_rank(measure_from_json(value), rank)


def _element(value, rank: int) -> AlgebraElement | Path:
    """A word (its translation unitary), an element object, or a file holding one.

    A string that parses as a word is that word; only other strings are paths.
    """
    if isinstance(value, str):
        try:
            return AlgebraElement.delta(word_from_str(value, rank))
        except MalformedInputError as exc:
            if not os.path.isfile(value):
                raise ValueError(f"{value!r} is neither a word of rank {rank} nor a file") from exc
            return Path(value)
    return _of_rank(element_from_json(value), rank)


def _rep(value, rank: int) -> FiniteQuotient | Path:
    """'s3-regular', {"perms": [[...], ...], "regular": bool}, or a file holding the object."""
    if value == "s3-regular":
        return FiniteQuotient.regular_from_permutations(rank, [(1, 0, 2), (1, 2, 0)])
    if isinstance(value, str):
        return Path(value)
    if not (isinstance(value, dict) and isinstance(value.get("perms"), list)
            and isinstance(value.get("regular", False), bool)):
        raise ValueError('expected "s3-regular" or {"perms": [[...], ...], "regular": bool}')
    if value.get("regular", False):
        return FiniteQuotient.regular_from_permutations(rank, value["perms"])
    return FiniteQuotient(rank, value["perms"])


def _strategy(value, rank: int) -> str:
    if value not in ("geometric", "random"):
        raise ValueError(f"expected 'geometric' or 'random', got {value!r}")
    return value


class Key(NamedTuple):
    """One config key: its type (a parser of the raw JSON value under the
    config's rank, or a Path to the file that holds it), its default (None:
    the key is required), and the least and the greatest value an int may take."""

    name: str
    parse: Callable[[object, int], object]
    default: object = None
    low: int | None = None
    high: int | None = None


# argparse converters of the flag values; every other type takes a string
FLAG_TYPES = {_int: int, _positive_float: float}

# Shared keys. RANK comes first in every experiment: the other types read it.
# Words are written in the string form, which spells at most MAX_STRING_RANK
# generators.
RANK = Key("rank", _int, 2, low=1, high=MAX_STRING_RANK)
MU = Key("mu", _measure, "uniform-generators")
SEED = Key("seed", _int, low=0)


def _validate(config: dict, keys: tuple[Key, ...]) -> tuple[dict, dict]:
    """The value of every key, parsed from `config` or its default, and the
    config as hashed: the JSON of each file that a key names in its place."""
    names = [key.name for key in keys]
    for name in config:
        if name != "experiment" and name not in names:
            raise ConfigError(f"/{name}", f"unknown key; the keys are {', '.join(names)}")
    values, hashed = {}, dict(config)
    for key in keys:
        if key.name not in config and key.default is None:
            raise ConfigError(f"/{key.name}", "missing required key")
        raw = config[key.name] if key.name in config else key.default
        try:
            value = key.parse(raw, values.get("rank"))
            if isinstance(value, Path):
                hashed[key.name] = raw = _read_json(str(value))
                if isinstance(value := key.parse(raw, values.get("rank")), Path):
                    raise ValueError(f"the file holds the file name {str(value)!r}, not a value")
        except (ValueError, TypeError, LookupError, ArithmeticError) as exc:
            raise ConfigError(f"/{key.name}", str(exc)) from exc
        if key.low is not None and value < key.low:
            raise ConfigError(f"/{key.name}", f"must be >= {key.low}, got {value}")
        if key.high is not None and value > key.high:
            raise ConfigError(f"/{key.name}", f"must be <= {key.high}, got {value}")
        values[key.name] = value
    return values, hashed


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary file in its directory,
    which no error leaves behind; an OSError is a config error at --out-dir."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError("--out-dir", f"cannot write {path}: {exc.strerror}") from exc
        raise


def _write_csv(path: Path, anchor: str, header: list[str], rows: list[list]) -> None:
    lines = [f"# anchor: {anchor}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: Path, data: dict) -> None:
    _write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# experiment runners: each takes the validated key values and yields its
# outputs in order, (file name, header, rows) for a CSV and (file name,
# object) for a JSON file; run writes each one as it arrives
# ---------------------------------------------------------------------------


def _run_cesaro(cfg: dict):
    report = cesaro_test(cfg["element"], cfg["mu"], cfg["n_max"], moments=cfg["moments"])
    yield "cesaro.csv", ["n", "lower", "upper", "upper_method"], [
        [r.n, r.lower, r.upper, r.upper_method] for r in report.rows]
    yield "cesaro_summary.json", {"verdict": report.verdict, "generating": report.generating,
                                  "partial": report.partial}


def _run_powers(cfg: dict):
    cert = powers_search(cfg["g"], cfg["eps"], strategy=cfg["strategy"], budget=cfg["budget"],
                         seed=cfg["seed"])
    yield "powers.csv", ["k", "conjugator"], [
        [k + 1, str(h)] for k, h in enumerate(cert.conjugators)]
    yield "powers_summary.json", {"target": cert.target, "n": cert.n,
                                  "upper_bound": cert.upper_bound, "epsilon": cert.epsilon,
                                  "success": cert.success, "strategy": cert.strategy}
    if not cert.success:
        raise InconclusiveError(f"no certificate below {cfg['eps']}; "
                                f"best bound {cert.upper_bound:.6f}")


def _run_build_mu(cfg: dict):
    family = [AlgebraElement.delta(w) for w in cfg["family"]]
    build = build_c_star_simple_measure(family, cfg["levels"], budget=cfg["budget"])
    yield "build_levels.csv", ["level", "constraint", "upper_bound", "epsilon"], [
        [c.level, c.constraint_id, c.upper_bound, c.epsilon] for c in build.level_certificates]
    yield "build_final.csv", ["j", "n_j", "element", "upper_bound", "threshold"], [
        [c.j, c.n_j, c.element_id, c.upper_bound, c.threshold] for c in build.final_checks]
    yield "mu.json", measure_to_json(build.measure)
    if not build.all_verified:
        raise InconclusiveError("a recorded certificate fails its inequality")


def _run_boundary_solve(cfg: dict):
    sol = solve_stationary(cfg["mu"], cfg["depth"])
    yield "stationary.csv", ["word", "depth", "mass"], cylinder_csv_rows(sol.measure)
    yield "stationary_summary.json", {"residual": sol.residual, "iterations": sol.iterations,
                                      "hitting_agrees": sol.hitting_agrees}


def _run_conditional(cfg: dict):
    n, seed = cfg["n"], cfg["seed"]
    nu = uniform_boundary_measure(FreeGroupContext(cfg["rank"]), cfg["nu_depth"])
    # the rows read nu as the law's stationary measure
    require_stationary(cfg["mu"], nu)
    # the rows read the depth-1 translates: out_depth forms no table, so
    # only its ball is checked, once
    _check_ball(cfg["rank"], cfg["out_depth"])
    rows = []
    for i in range(cfg["paths"]):
        om = sample_path(cfg["mu"], n, seed=seed + i)
        for step in range(n + 1):
            top = conditional_measure(nu, om, step).top_mass()
            rows.append([seed + i, step, len(om.positions[step]), top])
    yield "conditional.csv", ["path_seed", "n", "position_length", "top_mass"], rows


def _run_bnd_map(cfg: dict):
    seed = cfg["seed"]
    rows = []
    for i in range(cfg["paths"]):
        om = sample_path(cfg["mu"], cfg["length"], seed=seed + i)
        try:
            prefix = boundary_map(om)
            rows.append([seed + i, len(prefix), str(prefix)])
        except UnresolvedBoundaryError:
            rows.append([seed + i, 0, "1"])
    yield "bndmap.csv", ["path_seed", "resolved_depth", "prefix"], rows


def _run_fix_mass(cfg: dict):
    # the closed form gives every mass the report reads; the table is not read
    nu = uniform_boundary_measure(FreeGroupContext(cfg["rank"]), 1)
    # freeness_report skips the identity, which a 'ballR' family contains
    report = freeness_report(cfg["mu"], nu, cfg["gens"], cfg["depth"],
                             threshold=cfg["threshold"])
    yield "fixmass.csv", ["word", "upper_bound", "depth"], [
        [r.word, r.upper_bound, r.depth] for r in report.rows]
    yield "fixmass_summary.json", {"verdict": report.verdict, "threshold": report.threshold}


def _run_srs_escape(cfg: dict):
    report = srs_escape_experiment(cfg["mu"], CyclicSubgroup(cfg["start"]), cfg["steps"],
                                   cfg["trials"], seed=cfg["seed"],
                                   threshold_len=cfg["threshold_len"])
    yield "escape.csv", ["step", "median_root_len", "q25", "q75", "frac_beyond_T"], [
        [r.step, r.median_root_len, r.q25, r.q75, r.frac_beyond_threshold]
        for r in report.rows]
    yield "escape_summary.json", {"verdict": report.verdict, "final_pdf_at": report.final_pdf_at,
                                  "threshold_len": report.threshold_len, "trials": report.trials}


def _run_pdf_check(cfg: dict):
    radius, sample_size, tuple_len = cfg["radius"], cfg["sample_size"], cfg["tuple_len"]
    ctx = FreeGroupContext(cfg["rank"])
    # the dump reads phi over the ball of the radius, and each Gram matrix
    # holds tuple_len^2 entries: their caps bind before any work
    _check_ball(ctx.rank, radius)
    _check_support(tuple_len * tuple_len, "pdf-check: Gram matrix entries exceed the cap")
    roots = [w for w in ball(ctx, 3)]
    tuple_pool = [w for w in ball(ctx, radius // 2)]
    rng = rng_from_seed(cfg["seed"])
    rows = []
    phi_rows = []
    passed = True
    for mi in range(cfg["measures"]):
        picks = rng.integers(0, len(roots), size=sample_size).tolist()
        subs = [CyclicSubgroup(roots[i]) for i in picks]
        phi = pdf_from_subgroup_sample(subs, [Fraction(1, sample_size)] * sample_size, radius)
        draws = rng.integers(0, len(tuple_pool), size=(cfg["tuples"], tuple_len)).tolist()
        rep = psd_check(phi, [[tuple_pool[i] for i in idx] for idx in draws])
        passed = passed and rep.passed
        for ti, eig in enumerate(rep.min_eigenvalues):
            rows.append([mi, ti, eig])
        if mi == 0:
            # ball() is in this order already; the sort stays as the one Word.sort_key
            # call of a small run, which bench/tracer.py's word_sort_key counter needs
            phi_rows = [[str(w), float(phi(w))]
                        for w in sorted(ball(ctx, radius), key=lambda w: w.sort_key())]
    yield "pdfcheck.csv", ["measure", "tuple", "min_eigenvalue"], rows
    yield "pdf_dump.csv", ["word", "phi"], phi_rows
    if not passed:
        raise InconclusiveError(f"a Gram matrix dipped to {min(r[2] for r in rows)}")


def _run_fdstates(cfg: dict):
    states = finite_dim_stationary_states(cfg["rep"], cfg["mu"])
    yield "fdstates.csv", ["state", "min_eigenvalue", "trace"], [
        [i, _float_down(st.min_eigenvalue), st.trace] for i, st in enumerate(states)]


def _run_norm(cfg: dict):
    bracket = certify_norm(cfg["element"], cfg["n_moments"])
    yield "norm.csv", ["lower", "upper", "moments_used", "lower_method", "upper_method"], [
        [bracket.lower, bracket.upper, bracket.moments_used, bracket.lower_method,
         bracket.upper_method]]


class Experiment(NamedTuple):
    run: Callable[[dict], Iterator[tuple]]
    anchor: str
    keys: tuple[Key, ...]


EXPERIMENTS = {
    "cesaro": Experiment(
        _run_cesaro,
        "certified brackets on the Cesaro-averaged convolution distance to the trace",
        (RANK, Key("n_max", _int, low=1), Key("element", _element), MU,
         Key("moments", _int, 1, low=1)),
    ),
    "powers": Experiment(
        _run_powers,
        "certified norm bound on the conjugation average of a translation unitary",
        (RANK, Key("g", _word), Key("eps", _positive_float),
         Key("strategy", _strategy, "geometric"), Key("budget", _int, 64, low=1),
         Key("seed", _int, 0, low=0)),
    ),
    "build-mu": Experiment(
        _run_build_mu,
        "staged averaging law with per-level and final certified convolution bounds",
        (RANK, Key("levels", _int, low=1), Key("family", _words, "ball1"),
         Key("budget", _int, 128, low=1)),
    ),
    "boundary-solve": Experiment(
        _run_boundary_solve,
        "stationary cylinder masses: a transient nearest-neighbour law's hitting-root product,"
        " else the fixed point of the transfer operator truncated at depth + 2L (L the law's"
        " longest word), whose residual does not bound the distance to the stationary measure",
        (RANK, Key("depth", _int, low=1), MU),
    ),
    "conditional": Experiment(
        _run_conditional,
        "top cylinder mass of path translates of a boundary measure",
        (RANK, Key("n", _int, low=0), Key("paths", _int, low=0), SEED,
         Key("nu_depth", _int, 6, low=1), Key("out_depth", _int, 1, low=1), MU),
    ),
    "bnd-map": Experiment(
        _run_bnd_map,
        "stable boundary prefixes of sampled random-walk paths",
        (RANK, Key("length", _int, low=0), Key("paths", _int, low=0), SEED, MU),
    ),
    "fix-mass": Experiment(
        _run_fix_mass,
        "certified upper bounds on the boundary mass of axis endpoint pairs",
        (RANK, Key("depth", _int, low=1), Key("gens", _words, "ball2"), MU,
         Key("threshold", _positive_float, FREENESS_THRESHOLD)),
    ),
    "srs-escape": Experiment(
        _run_srs_escape,
        "conjugation-walk escape statistics for cyclic subgroups",
        (RANK, Key("steps", _int, low=0), Key("trials", _int, low=1), SEED,
         Key("start", _word, "a"), MU, Key("threshold_len", _int, 10, low=0)),
    ),
    "pdf-check": Experiment(
        _run_pdf_check,
        "Gram positivity of subgroup-sample positive definite functions",
        (RANK, Key("measures", _int, low=0), Key("tuples", _int, low=0), SEED,
         Key("tuple_len", _int, 5, low=1), Key("radius", _int, 4, low=0),
         Key("sample_size", _int, 8, low=1)),
    ),
    "fdstates": Experiment(
        _run_fdstates,
        "stationary density matrices of a permutation quotient's convolution channel, one per"
        " orbit on index pairs; trace exact, min_eigenvalue a certified lower bound rounded down",
        (RANK, Key("rep", _rep, "s3-regular"), MU),
    ),
    "norm": Experiment(
        _run_norm,
        "certified two-sided bracket on the reduced norm",
        (RANK, Key("n_moments", _int, 8, low=1), Key("element", _element)),
    ),
}


# ---------------------------------------------------------------------------
# run / verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    experiment: str
    config_sha256: str
    version: str
    anchor: str
    outputs: dict[str, str]
    wall_clock_s: float

    def to_json(self) -> dict:
        return asdict(self)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run(config: dict, out_dir: str | Path) -> RunManifest:
    """Validate the config, run the experiment and write each output it
    yields, in order, then the manifest.  An error ends the run where it is
    raised: the outputs written before it stay, and no manifest is written.

    `config` is not modified; the manifest hashes it with each named file's JSON in place.
    """
    if not isinstance(config, dict):
        raise ConfigError("", "config must be a JSON object")
    kind = config["experiment"] if "experiment" in config else None
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError("/experiment", f"unknown experiment {kind!r}")
    experiment = EXPERIMENTS[kind]
    values, hashed = _validate(config, experiment.keys)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out-dir", f"cannot create directory {out}: {exc.strerror}") from exc
    t0 = time.perf_counter()
    outputs = {}
    for name, *table in experiment.run(values):
        if len(table) == 2:
            _write_csv(out / name, experiment.anchor, *table)
        else:
            _write_json(out / name, *table)
        outputs[name] = _sha256(out / name)
    wall = time.perf_counter() - t0
    manifest = RunManifest(
        experiment=kind,
        config_sha256=config_hash(hashed),
        version=__version__,
        anchor=experiment.anchor,
        outputs=outputs,
        wall_clock_s=wall,
    )
    _write_json(out / "manifest.json", manifest.to_json())
    return manifest


def verify(manifest_path: str | Path, out_dir: str | Path | None = None) -> bool:
    """Recompute output checksums against the manifest; version must match.

    A manifest that cannot be read, or is not an object with an outputs
    table, raises ConfigError.  An output name that is not a plain file name
    in the output directory, or an output that cannot be read, fails.
    """
    manifest_path = Path(manifest_path)
    try:
        data = _read_json(str(manifest_path))
    except ValueError as exc:
        raise ConfigError("--manifest", str(exc)) from exc
    if not (isinstance(data, dict) and isinstance(data.get("outputs"), dict)):
        raise ConfigError("--manifest", f"{manifest_path} is not an object with an outputs table")
    base = Path(out_dir) if out_dir is not None else manifest_path.parent
    if data.get("version") != __version__:
        print(
            f"version note: manifest {data.get('version')} vs current {__version__}",
            file=sys.stderr,
        )
        return False
    for name, digest in data["outputs"].items():
        # run writes fixed names into the output directory and nothing else
        if name in ("", ".", "..") or os.path.basename(name) != name:
            print(f"not a file name in the output directory: {name!r}", file=sys.stderr)
            return False
        path = base / name
        if not path.exists():
            print(f"missing output: {name}", file=sys.stderr)
            return False
        try:
            actual = _sha256(path)
        except OSError as exc:
            print(f"unreadable output: {name}: {exc.strerror}", file=sys.stderr)
            return False
        if actual != digest:
            print(f"checksum mismatch: {name}", file=sys.stderr)
            return False
    return True


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stationary-lab",
        description="random walks, boundary measures, and certified norm "
        "brackets on free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.anchor, description=experiment.anchor)
        p.add_argument("--config", help="JSON config; flags given with it must agree with it")
        p.add_argument("--out-dir", default=".")
        for key in experiment.keys:
            bound = "".join(f"{op} {v}; " for op, v in ((">=", key.low), ("<=", key.high))
                            if v is not None)
            default = "required" if key.default is None else f"default {key.default}"
            p.add_argument("--" + key.name.replace("_", "-"), dest=key.name, type=FLAG_TYPES.get(key.parse, str),
                           metavar=key.parse.__name__.strip("_").upper(),
                           help=bound + default)
    v = sub.add_parser("verify")
    v.add_argument("--manifest", type=str, required=True)
    v.add_argument("--out-dir", type=str, default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    """The --config file (or an empty config) with the inline flags merged in."""
    config = {"experiment": args.command}
    if args.config is not None:
        try:
            config = _read_json(args.config)
        except ValueError as exc:
            raise ConfigError("", str(exc)) from exc
        if not isinstance(config, dict):
            raise ConfigError("", "config must be a JSON object")
        config.setdefault("experiment", args.command)
        if config["experiment"] != args.command:
            raise ConfigError("/experiment", "config disagrees with subcommand")
    for key in EXPERIMENTS[args.command].keys:
        value = getattr(args, key.name)
        if value is not None and config.setdefault(key.name, value) != value:
            raise ConfigError(f"/{key.name}", f"the flag's {value!r} disagrees with the "
                                              f"config's {config[key.name]!r}")
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            ok = verify(args.manifest, args.out_dir)
            print("verified" if ok else "verification failed")
            return EXIT_OK if ok else EXIT_INCONCLUSIVE
        manifest = run(_config_from_args(args), args.out_dir)
        print(json.dumps(manifest.to_json(), indent=2, sort_keys=True))
        return EXIT_OK
    except StationaryLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
