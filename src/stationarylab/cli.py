"""Batch experiment driver.

One experiment per invocation: a JSON config (or inline flags) selects the
operation, seeds are explicit, outputs are CSV files plus a manifest tying
every output to its config hash and an anchor string naming the certified
quantity.  Re-running the same config produces byte-identical outputs.

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
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .algebra import AlgebraElement, _float_down, certify_norm
from .boundary import (
    boundary_map,
    conditional_measure,
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
from .freegroup import MAX_STRING_RANK, FiniteQuotient, FreeGroupContext, ball, word_from_str
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
    FREENESS_RESIDUAL_DEPTH,
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
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _positive_float(value, rank: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ValueError(f"expected a positive finite number, got {value!r}")
    return float(value)


def _word(value, rank: int):
    if not isinstance(value, str):
        raise ValueError(f"expected a word string, got {value!r}")
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
    if obj.rank != rank:
        raise ValueError(f"context {obj.rank} does not match rank {rank}")
    return obj


def _measure(value, rank: int) -> GroupMeasure:
    """'uniform-generators' (or 'uniform'), a measure object, or a file holding one."""
    if value in ("uniform-generators", "uniform"):
        return uniform_generator_measure(rank)
    return _of_rank(measure_from_json(_read_json(value) if isinstance(value, str) else value),
                    rank)


def _element(value, rank: int) -> AlgebraElement:
    """A word (its translation unitary), an element object, or a file holding one.

    A string that parses as a word is that word; only other strings are paths.
    """
    if isinstance(value, str):
        try:
            return AlgebraElement.delta(word_from_str(value, rank))
        except MalformedInputError as exc:
            if not os.path.isfile(value):
                raise ValueError(f"{value!r} is neither a word of rank {rank} nor a file") from exc
            value = _read_json(value)
    return _of_rank(element_from_json(value), rank)


def _rep(value, rank: int) -> FiniteQuotient:
    """'s3-regular', {"perms": [[...], ...], "regular": bool}, or a file holding the object."""
    if value == "s3-regular":
        return FiniteQuotient.regular_from_permutations(rank, [(1, 0, 2), (1, 2, 0)])
    if isinstance(value, str):
        value = _read_json(value)
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
    config's rank), its default (None: the key is required), and the least
    and the greatest value an int may take."""

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


def _validate(config: dict, keys: tuple[Key, ...]) -> dict:
    """The value of every key, parsed from `config` or its default."""
    names = [key.name for key in keys]
    for name in config:
        if name != "experiment" and name not in names:
            raise ConfigError(f"/{name}", f"unknown key; the keys are {', '.join(names)}")
    values = {}
    for key in keys:
        if key.name not in config and key.default is None:
            raise ConfigError(f"/{key.name}", "missing required key")
        raw = config[key.name] if key.name in config else key.default
        try:
            value = key.parse(raw, values.get("rank"))
        except (ValueError, TypeError, LookupError, ArithmeticError) as exc:
            raise ConfigError(f"/{key.name}", str(exc)) from exc
        if key.low is not None and value < key.low:
            raise ConfigError(f"/{key.name}", f"must be >= {key.low}, got {value}")
        if key.high is not None and value > key.high:
            raise ConfigError(f"/{key.name}", f"must be <= {key.high}, got {value}")
        values[key.name] = value
    return values


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
# experiment runners: each takes the validated key values, the output
# directory and its anchor, and returns the files it wrote
# ---------------------------------------------------------------------------


def _run_cesaro(cfg: dict, out: Path, anchor: str) -> list[Path]:
    report = cesaro_test(cfg["element"], cfg["mu"], cfg["n_max"], moments=cfg["moments"])
    rows = [[r.n, r.lower, r.upper, r.upper_method] for r in report.rows]
    path = out / "cesaro.csv"
    _write_csv(path, anchor, ["n", "lower", "upper", "upper_method"], rows)
    summary = out / "cesaro_summary.json"
    _write_json(summary, {"verdict": report.verdict, "generating": report.generating,
                          "partial": report.partial})
    return [path, summary]


def _run_powers(cfg: dict, out: Path, anchor: str) -> list[Path]:
    cert = powers_search(cfg["g"], cfg["eps"], strategy=cfg["strategy"], budget=cfg["budget"],
                         seed=cfg["seed"])
    rows = [[k + 1, str(h)] for k, h in enumerate(cert.conjugators)]
    path = out / "powers.csv"
    _write_csv(path, anchor, ["k", "conjugator"], rows)
    summary = out / "powers_summary.json"
    _write_json(summary, {"target": cert.target, "n": cert.n, "upper_bound": cert.upper_bound,
                          "epsilon": cert.epsilon, "success": cert.success,
                          "strategy": cert.strategy})
    if not cert.success:
        raise InconclusiveError(
            f"no certificate below {cfg['eps']}; best bound {cert.upper_bound:.6f}"
        )
    return [path, summary]


def _run_build_mu(cfg: dict, out: Path, anchor: str) -> list[Path]:
    family = [AlgebraElement.delta(w) for w in cfg["family"]]
    build = build_c_star_simple_measure(family, cfg["levels"], budget=cfg["budget"])
    cert_rows = [
        [c.level, c.constraint_id, c.upper_bound, c.epsilon]
        for c in build.level_certificates
    ]
    final_rows = [
        [c.j, c.n_j, c.element_id, c.upper_bound, c.threshold]
        for c in build.final_checks
    ]
    p1 = out / "build_levels.csv"
    _write_csv(p1, anchor, ["level", "constraint", "upper_bound", "epsilon"], cert_rows)
    p2 = out / "build_final.csv"
    _write_csv(p2, anchor, ["j", "n_j", "element", "upper_bound", "threshold"], final_rows)
    p3 = out / "mu.json"
    _write_json(p3, measure_to_json(build.measure))
    if not build.all_verified:
        raise InconclusiveError("a recorded certificate fails its inequality")
    return [p1, p2, p3]


def _run_boundary_solve(cfg: dict, out: Path, anchor: str) -> list[Path]:
    sol = solve_stationary(cfg["mu"], cfg["depth"], tol=cfg["tol"], max_iter=cfg["max_iter"])
    path = out / "stationary.csv"
    _write_csv(path, anchor, ["word", "depth", "mass"],
               [list(r) for r in cylinder_csv_rows(sol.measure)])
    summary = out / "stationary_summary.json"
    hitting = {str(w): q for w, q in (sol.hitting_level1 or {}).items()}
    _write_json(summary, {"residual": sol.residual, "iterations": sol.iterations,
                          "hitting_agrees": sol.hitting_agrees, "hitting_level1": hitting})
    return [path, summary]


def _run_conditional(cfg: dict, out: Path, anchor: str) -> list[Path]:
    n, seed = cfg["n"], cfg["seed"]
    nu = uniform_boundary_measure(FreeGroupContext(cfg["rank"]), cfg["nu_depth"])
    rows = []
    for i in range(cfg["paths"]):
        om = sample_path(cfg["mu"], n, seed=seed + i)
        for step in range(n + 1):
            cm = conditional_measure(nu, om, step, depth=cfg["out_depth"])
            rows.append([seed + i, step, len(cm.position), cm.top_mass])
    path = out / "conditional.csv"
    _write_csv(path, anchor, ["path_seed", "n", "position_length", "top_mass"], rows)
    return [path]


def _run_bnd_map(cfg: dict, out: Path, anchor: str) -> list[Path]:
    seed = cfg["seed"]
    rows = []
    for i in range(cfg["paths"]):
        om = sample_path(cfg["mu"], cfg["length"], seed=seed + i)
        try:
            bp = boundary_map(om)
            rows.append([seed + i, bp.resolved_depth, str(bp.prefix)])
        except UnresolvedBoundaryError:
            rows.append([seed + i, 0, "1"])
    path = out / "bndmap.csv"
    _write_csv(path, anchor, ["path_seed", "resolved_depth", "prefix"], rows)
    return [path]


def _run_fix_mass(cfg: dict, out: Path, anchor: str) -> list[Path]:
    depth = cfg["depth"]
    # the residual reads depth <= FREENESS_RESIDUAL_DEPTH, and the uniform tail
    # gives the deeper axis masses as the same Fractions
    nu = uniform_boundary_measure(FreeGroupContext(cfg["rank"]),
                                  min(depth, FREENESS_RESIDUAL_DEPTH))
    # freeness_report skips the identity, which a 'ballR' family contains
    report = freeness_report(cfg["mu"], nu, cfg["gens"], depth, threshold=cfg["threshold"])
    rows = [[r.word, r.upper_bound, r.depth] for r in report.rows]
    path = out / "fixmass.csv"
    _write_csv(path, anchor, ["word", "upper_bound", "depth"], rows)
    summary = out / "fixmass_summary.json"
    _write_json(summary, {"verdict": report.verdict, "residual": report.stationarity_residual,
                          "threshold": report.threshold})
    return [path, summary]


def _run_srs_escape(cfg: dict, out: Path, anchor: str) -> list[Path]:
    report = srs_escape_experiment(cfg["mu"], CyclicSubgroup(cfg["start"]), cfg["steps"],
                                   cfg["trials"], seed=cfg["seed"],
                                   threshold_len=cfg["threshold_len"])
    rows = [
        [r.step, r.median_root_len, r.q25, r.q75, r.frac_beyond_threshold]
        for r in report.rows
    ]
    path = out / "escape.csv"
    _write_csv(path, anchor, ["step", "median_root_len", "q25", "q75", "frac_beyond_T"], rows)
    summary = out / "escape_summary.json"
    _write_json(summary, {"verdict": report.verdict, "final_pdf_at": report.final_pdf_at,
                          "threshold_len": report.threshold_len, "trials": report.trials})
    return [path, summary]


def _run_pdf_check(cfg: dict, out: Path, anchor: str) -> list[Path]:
    radius, sample_size, tuple_len = cfg["radius"], cfg["sample_size"], cfg["tuple_len"]
    ctx = FreeGroupContext(cfg["rank"])
    roots = [w for w in ball(ctx, 3)]
    tuple_pool = [w for w in ball(ctx, radius // 2)]
    rng = rng_from_seed(cfg["seed"])
    rows = []
    phi_rows = []
    passed = True
    for mi in range(cfg["measures"]):
        picks = rng.integers(0, len(roots), size=sample_size)
        subs = [CyclicSubgroup(roots[int(i)]) for i in picks]
        weights = [1.0 / sample_size] * sample_size
        phi = pdf_from_subgroup_sample(subs, weights, radius)
        tuples = []
        for _ in range(cfg["tuples"]):
            idx = rng.integers(0, len(tuple_pool), size=tuple_len)
            tuples.append([tuple_pool[int(i)] for i in idx])
        rep = psd_check(phi, tuples)
        passed = passed and rep.passed
        for ti, eig in enumerate(rep.min_eigenvalues):
            rows.append([mi, ti, eig])
        if mi == 0:
            phi_rows = [[str(w), phi.values[w]] for w in sorted(phi.values, key=lambda w: w.sort_key())]
    path = out / "pdfcheck.csv"
    _write_csv(path, anchor, ["measure", "tuple", "min_eigenvalue"], rows)
    dump = out / "pdf_dump.csv"
    _write_csv(dump, anchor, ["word", "phi"], phi_rows)
    if not passed:
        raise InconclusiveError(f"a Gram matrix dipped to {min(r[2] for r in rows)}")
    return [path, dump]


def _run_fdstates(cfg: dict, out: Path, anchor: str) -> list[Path]:
    states = finite_dim_stationary_states(cfg["rep"], cfg["mu"])
    rows = [[i, _float_down(st.min_eigenvalue), st.trace] for i, st in enumerate(states)]
    path = out / "fdstates.csv"
    _write_csv(path, anchor, ["state", "min_eigenvalue", "trace"], rows)
    return [path]


def _run_norm(cfg: dict, out: Path, anchor: str) -> list[Path]:
    bracket = certify_norm(cfg["element"], cfg["n_moments"])
    path = out / "norm.csv"
    _write_csv(
        path, anchor,
        ["lower", "upper", "moments_used", "lower_method", "upper_method"],
        [[bracket.lower, bracket.upper, bracket.moments_used,
          bracket.lower_method, bracket.upper_method]],
    )
    return [path]


class Experiment(NamedTuple):
    run: Callable[[dict, Path, str], list[Path]]
    anchor: str
    keys: tuple[Key, ...]


EXPERIMENTS = {
    "cesaro": Experiment(
        _run_cesaro,
        "certified brackets on the Cesaro-averaged convolution distance to the trace",
        (RANK, Key("n_max", _int, low=0), Key("element", _element), MU,
         Key("moments", _int, 1, low=1)),
    ),
    "powers": Experiment(
        _run_powers,
        "certified norm bound on the conjugation average of a translation unitary",
        (RANK, Key("g", _word), Key("eps", _positive_float),
         Key("strategy", _strategy, "geometric"), Key("budget", _int, 64, low=0),
         Key("seed", _int, 0, low=0)),
    ),
    "build-mu": Experiment(
        _run_build_mu,
        "staged averaging law with per-level and final certified convolution bounds",
        (RANK, Key("levels", _int, low=1), Key("family", _words, "ball1"),
         Key("budget", _int, 128, low=0)),
    ),
    "boundary-solve": Experiment(
        _run_boundary_solve,
        "stationary cylinder measure with certified residual",
        (RANK, Key("depth", _int, low=1), MU, Key("tol", _positive_float, 1e-12),
         Key("max_iter", _int, 200, low=1)),
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
         Key("threshold", _positive_float, 1e-3)),
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
    """Validate the config, dispatch the experiment, write outputs + manifest.

    `config` is not modified, so the manifest hashes it as given.
    """
    if not isinstance(config, dict):
        raise ConfigError("", "config must be a JSON object")
    kind = config["experiment"] if "experiment" in config else None
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError("/experiment", f"unknown experiment {kind!r}")
    experiment = EXPERIMENTS[kind]
    values = _validate(config, experiment.keys)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    paths = experiment.run(values, out, experiment.anchor)
    wall = time.perf_counter() - t0
    manifest = RunManifest(
        experiment=kind,
        config_sha256=config_hash(config),
        version=__version__,
        anchor=experiment.anchor,
        outputs={p.name: _sha256(p) for p in paths},
        wall_clock_s=wall,
    )
    _write_json(out / "manifest.json", manifest.to_json())
    return manifest


def verify(manifest_path: str | Path, out_dir: str | Path | None = None) -> bool:
    """Recompute output checksums against the manifest; version must match.

    A manifest that cannot be read, or is not an object with an outputs
    table, raises ConfigError.
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
        path = base / name
        if not path.exists():
            print(f"missing output: {name}", file=sys.stderr)
            return False
        if _sha256(path) != digest:
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
