"""Batch experiment driver.

One experiment per invocation: a JSON config (or inline flags) selects the
operation, seeds are explicit, outputs are CSV files plus a manifest tying
every output to its config hash and an anchor string naming the certified
quantity.  Re-running the same config produces byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 precondition, 4 resource limit,
5 inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import AlgebraElement, certify_norm
from .boundary import (
    boundary_map,
    conditional_measure,
    solve_stationary,
    uniform_boundary_measure,
)
from .errors import (
    ConstructionError,
    InconclusiveError,
    PreconditionError,
    ResourceLimitError,
    StationaryLabError,
    UnresolvedBoundaryError,
)
from .freegroup import FiniteQuotient, FreeGroupContext, ball, word_from_str
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
        super().__init__(f"config error at {pointer}: {message}")
        self.pointer = pointer


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_INCONCLUSIVE = 5

SEEDED_EXPERIMENTS = {"conditional", "bnd-map", "srs-escape", "pdf-check"}

ANCHORS = {
    "cesaro": "certified brackets on the Cesaro-averaged convolution distance to the trace",
    "powers": "certified norm bound on the conjugation average of a translation unitary",
    "build-mu": "staged averaging law with per-level and final certified convolution bounds",
    "boundary-solve": "stationary cylinder measure with certified residual",
    "conditional": "top cylinder mass of path translates of a boundary measure",
    "bnd-map": "stable boundary prefixes of sampled random-walk paths",
    "fix-mass": "certified upper bounds on the boundary mass of axis endpoint pairs",
    "srs-escape": "conjugation-walk escape statistics for cyclic subgroups",
    "pdf-check": "Gram positivity of subgroup-sample positive definite functions",
    "fdstates": "stationary density matrices of a finite-quotient convolution channel",
    "norm": "certified two-sided bracket on the reduced norm",
}


# ---------------------------------------------------------------------------
# config loading helpers
# ---------------------------------------------------------------------------


def _require(config: dict, key: str, kind, pointer: str):
    if key not in config:
        raise ConfigError(f"{pointer}/{key}", "missing required field")
    value = config[key]
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{pointer}/{key}", "expected an integer")
    if not isinstance(value, kind):
        raise ConfigError(f"{pointer}/{key}", f"expected {kind.__name__}")
    return value


def _load_measure(config: dict, rank: int, pointer: str) -> GroupMeasure:
    spec = config.get("mu", "uniform-generators")
    if spec in ("uniform-generators", "uniform"):
        return uniform_generator_measure(rank)
    if isinstance(spec, str):
        path = Path(spec)
        if not path.exists():
            raise ConfigError(f"{pointer}/mu", f"file {spec} does not exist")
        spec = json.loads(path.read_text())
    try:
        return measure_from_json(spec)
    except StationaryLabError as exc:
        raise ConfigError(f"{pointer}/mu", str(exc)) from exc


def _load_element(config: dict, rank: int, pointer: str) -> AlgebraElement:
    spec = config.get("element")
    if spec is None:
        raise ConfigError(f"{pointer}/element", "missing required field")
    if isinstance(spec, str):
        path = Path(spec)
        if path.exists():
            spec = json.loads(path.read_text())
        else:
            # a bare word string means the corresponding translation unitary
            return AlgebraElement.delta(word_from_str(spec, rank))
    try:
        return element_from_json(spec)
    except StationaryLabError as exc:
        raise ConfigError(f"{pointer}/element", str(exc)) from exc


def _family_elements(spec, rank: int, pointer: str) -> list[AlgebraElement]:
    ctx = FreeGroupContext(rank)
    if isinstance(spec, str) and spec.startswith("ball"):
        radius = int(spec[4:])
        return [AlgebraElement.delta(w) for w in ball(ctx, radius)]
    if isinstance(spec, list):
        return [AlgebraElement.delta(word_from_str(s, rank)) for s in spec]
    raise ConfigError(f"{pointer}/family", "expected 'ballR' or a list of words")


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# experiment runners: each returns {filename: (header, rows)} plus extra json
# ---------------------------------------------------------------------------


def _run_cesaro(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    n_max = _require(config, "n_max", int, "")
    mu = _load_measure(config, rank, "")
    a = _load_element(config, rank, "")
    report = cesaro_test(a, mu, n_max, moments=int(config.get("moments", 1)))
    rows = [[r.n, r.lower, r.upper, r.upper_method] for r in report.rows]
    path = out / config.get("out", "cesaro.csv")
    _write_csv(path, ANCHORS["cesaro"], ["n", "lower", "upper", "upper_method"], rows)
    summary = out / "cesaro_summary.json"
    _write_atomic(
        summary,
        json.dumps(
            {"verdict": report.verdict, "generating": report.generating,
             "partial": report.partial},
            indent=2, sort_keys=True,
        ) + "\n",
    )
    return [path, summary]


def _run_powers(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    g = word_from_str(_require(config, "g", str, ""), rank)
    eps = float(_require(config, "eps", (int, float), ""))
    strategy = config.get("strategy", "geometric")
    cert = powers_search(
        g, eps, strategy=strategy, budget=int(config.get("budget", 64)),
        seed=int(config.get("seed", 0)),
    )
    rows = [[k + 1, str(h)] for k, h in enumerate(cert.conjugators)]
    path = out / config.get("out", "powers.csv")
    _write_csv(path, ANCHORS["powers"], ["k", "conjugator"], rows)
    summary = out / "powers_summary.json"
    _write_atomic(
        summary,
        json.dumps(
            {"target": cert.target, "n": cert.n, "upper_bound": cert.upper_bound,
             "epsilon": cert.epsilon, "success": cert.success,
             "strategy": cert.strategy},
            indent=2, sort_keys=True,
        ) + "\n",
    )
    if not cert.success:
        raise InconclusiveError(
            f"no certificate below {eps}; best bound {cert.upper_bound:.6f}"
        )
    return [path, summary]


def _run_build_mu(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    levels = _require(config, "levels", int, "")
    family = _family_elements(config.get("family", "ball1"), rank, "")
    build = build_c_star_simple_measure(
        family, levels, budget=int(config.get("budget", 128))
    )
    cert_rows = [
        [c.level, c.constraint_id, c.upper_bound, c.epsilon]
        for c in build.level_certificates
    ]
    final_rows = [
        [c.j, c.n_j, c.element_id, c.upper_bound, c.threshold]
        for c in build.final_checks
    ]
    p1 = out / "build_levels.csv"
    _write_csv(p1, ANCHORS["build-mu"], ["level", "constraint", "upper_bound", "epsilon"], cert_rows)
    p2 = out / "build_final.csv"
    _write_csv(p2, ANCHORS["build-mu"], ["j", "n_j", "element", "upper_bound", "threshold"], final_rows)
    p3 = out / "mu.json"
    _write_atomic(p3, json.dumps(measure_to_json(build.measure), indent=2, sort_keys=True) + "\n")
    if not build.all_verified:
        raise InconclusiveError("a recorded certificate fails its inequality")
    return [p1, p2, p3]


def _run_boundary_solve(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    depth = _require(config, "depth", int, "")
    mu = _load_measure(config, rank, "")
    sol = solve_stationary(
        mu, depth, tol=float(config.get("tol", 1e-12)),
        max_iter=int(config.get("max_iter", 200)),
    )
    path = out / config.get("out", "stationary.csv")
    _write_csv(path, ANCHORS["boundary-solve"], ["word", "depth", "mass"],
               [list(r) for r in cylinder_csv_rows(sol.measure)])
    summary = out / "stationary_summary.json"
    _write_atomic(
        summary,
        json.dumps(
            {"residual": sol.residual, "iterations": sol.iterations,
             "hitting_agrees": sol.hitting_agrees,
             "hitting_level1": {str(w): q for w, q in (sol.hitting_level1 or {}).items()}},
            indent=2, sort_keys=True,
        ) + "\n",
    )
    return [path, summary]


def _run_conditional(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    n = _require(config, "n", int, "")
    paths = _require(config, "paths", int, "")
    seed = _require(config, "seed", int, "")
    depth = int(config.get("nu_depth", 6))
    out_depth = int(config.get("out_depth", 1))
    ctx = FreeGroupContext(rank)
    mu = _load_measure(config, rank, "")
    nu = uniform_boundary_measure(ctx, depth)
    rows = []
    for i in range(paths):
        om = sample_path(mu, n, seed=seed + i)
        for step in range(n + 1):
            cm = conditional_measure(nu, om, step, depth=out_depth)
            rows.append([seed + i, step, len(cm.position), cm.top_mass])
    path = out / config.get("out", "conditional.csv")
    _write_csv(path, ANCHORS["conditional"],
               ["path_seed", "n", "position_length", "top_mass"], rows)
    return [path]


def _run_bnd_map(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    length = _require(config, "length", int, "")
    paths = _require(config, "paths", int, "")
    seed = _require(config, "seed", int, "")
    mu = _load_measure(config, rank, "")
    rows = []
    for i in range(paths):
        om = sample_path(mu, length, seed=seed + i)
        try:
            bp = boundary_map(om)
            rows.append([seed + i, bp.resolved_depth, str(bp.prefix)])
        except UnresolvedBoundaryError:
            rows.append([seed + i, 0, "1"])
    path = out / config.get("out", "bndmap.csv")
    _write_csv(path, ANCHORS["bnd-map"], ["path_seed", "resolved_depth", "prefix"], rows)
    return [path]


def _run_fix_mass(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    depth = _require(config, "depth", int, "")
    ctx = FreeGroupContext(rank)
    gens_spec = config.get("gens", "ball2")
    if isinstance(gens_spec, str) and gens_spec.startswith("ball"):
        gens = [g for g in ball(ctx, int(gens_spec[4:])) if not g.is_identity()]
    else:
        gens = [word_from_str(s, rank) for s in gens_spec]
    mu = _load_measure(config, rank, "")
    nu = uniform_boundary_measure(ctx, min(depth, 8))
    report = freeness_report(mu, nu, gens, depth,
                             threshold=float(config.get("threshold", 1e-3)))
    rows = [[r.word, r.upper_bound, r.depth] for r in report.rows]
    path = out / config.get("out", "fixmass.csv")
    _write_csv(path, ANCHORS["fix-mass"], ["word", "upper_bound", "depth"], rows)
    summary = out / "fixmass_summary.json"
    _write_atomic(
        summary,
        json.dumps(
            {"verdict": report.verdict, "residual": report.stationarity_residual,
             "threshold": report.threshold},
            indent=2, sort_keys=True,
        ) + "\n",
    )
    return [path, summary]


def _run_srs_escape(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    steps = _require(config, "steps", int, "")
    trials = _require(config, "trials", int, "")
    seed = _require(config, "seed", int, "")
    start = CyclicSubgroup(word_from_str(config.get("start", "a"), rank))
    mu = _load_measure(config, rank, "")
    report = srs_escape_experiment(
        mu, start, steps, trials, seed=seed,
        threshold_len=int(config.get("threshold_len", 10)),
    )
    rows = [
        [r.step, r.median_root_len, r.q25, r.q75, r.frac_beyond_threshold]
        for r in report.rows
    ]
    path = out / config.get("out", "escape.csv")
    _write_csv(path, ANCHORS["srs-escape"],
               ["step", "median_root_len", "q25", "q75", "frac_beyond_T"], rows)
    summary = out / "escape_summary.json"
    _write_atomic(
        summary,
        json.dumps(
            {"verdict": report.verdict, "final_pdf_at": report.final_pdf_at,
             "threshold_len": report.threshold_len, "trials": report.trials},
            indent=2, sort_keys=True,
        ) + "\n",
    )
    return [path, summary]


def _run_pdf_check(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    n_measures = _require(config, "measures", int, "")
    n_tuples = _require(config, "tuples", int, "")
    seed = _require(config, "seed", int, "")
    tuple_len = int(config.get("tuple_len", 5))
    radius = int(config.get("radius", 4))
    sample_size = int(config.get("sample_size", 8))
    ctx = FreeGroupContext(rank)
    roots = [w for w in ball(ctx, 3)]
    tuple_pool = [w for w in ball(ctx, radius // 2)]
    rng = rng_from_seed(seed)
    rows = []
    phi_rows = []
    for mi in range(n_measures):
        picks = rng.integers(0, len(roots), size=sample_size)
        subs = [CyclicSubgroup(roots[int(i)]) for i in picks]
        weights = [1.0 / sample_size] * sample_size
        phi = pdf_from_subgroup_sample(subs, weights, radius)
        tuples = []
        for _ in range(n_tuples):
            idx = rng.integers(0, len(tuple_pool), size=tuple_len)
            tuples.append([tuple_pool[int(i)] for i in idx])
        rep = psd_check(phi, tuples)
        for ti, eig in enumerate(rep.min_eigenvalues):
            rows.append([mi, ti, eig])
        if mi == 0:
            phi_rows = [[str(w), phi.values[w]] for w in sorted(phi.values, key=lambda w: w.sort_key())]
    path = out / config.get("out", "pdfcheck.csv")
    _write_csv(path, ANCHORS["pdf-check"], ["measure", "tuple", "min_eigenvalue"], rows)
    dump = out / "pdf_dump.csv"
    _write_csv(dump, ANCHORS["pdf-check"], ["word", "phi"], phi_rows)
    worst = min(r[2] for r in rows) if rows else 0.0
    if worst < -1e-9:
        raise InconclusiveError(f"a Gram matrix dipped to {worst}")
    return [path, dump]


def _run_fdstates(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    rep_spec = config.get("rep", "s3-regular")
    if rep_spec == "s3-regular":
        rep = FiniteQuotient.regular_from_permutations(rank, [(1, 0, 2), (1, 2, 0)])
    elif isinstance(rep_spec, str):
        path_ = Path(rep_spec)
        if not path_.exists():
            raise ConfigError("/rep", f"file {rep_spec} does not exist")
        data = json.loads(path_.read_text())
        perms = [tuple(p) for p in data["perms"]]
        if data.get("regular", False):
            rep = FiniteQuotient.regular_from_permutations(rank, perms)
        else:
            rep = FiniteQuotient.from_permutations(rank, perms)
    else:
        perms = [tuple(p) for p in rep_spec["perms"]]
        rep = (
            FiniteQuotient.regular_from_permutations(rank, perms)
            if rep_spec.get("regular", False)
            else FiniteQuotient.from_permutations(rank, perms)
        )
    mu = _load_measure(config, rank, "")
    states = finite_dim_stationary_states(rep, mu)
    rows = []
    for i, st in enumerate(states):
        eigs = np.linalg.eigvalsh(st.matrix)
        rows.append([i, float(eigs[0]), float(np.trace(st.matrix).real), st.psd_adjustment])
    path = out / config.get("out", "fdstates.csv")
    _write_csv(path, ANCHORS["fdstates"],
               ["state", "min_eigenvalue", "trace", "psd_adjustment"], rows)
    return [path]


def _run_norm(config: dict, out: Path) -> list[Path]:
    rank = _require(config, "rank", int, "")
    n_moments = int(config.get("n_moments", 8))
    x = _load_element(config, rank, "")
    bracket = certify_norm(x, n_moments)
    path = out / config.get("out", "norm.csv")
    _write_csv(
        path, ANCHORS["norm"],
        ["lower", "upper", "moments_used", "lower_method", "upper_method"],
        [[bracket.lower, bracket.upper, bracket.moments_used,
          bracket.lower_method, bracket.upper_method]],
    )
    return [path]


RUNNERS = {
    "cesaro": _run_cesaro,
    "powers": _run_powers,
    "build-mu": _run_build_mu,
    "boundary-solve": _run_boundary_solve,
    "conditional": _run_conditional,
    "bnd-map": _run_bnd_map,
    "fix-mass": _run_fix_mass,
    "srs-escape": _run_srs_escape,
    "pdf-check": _run_pdf_check,
    "fdstates": _run_fdstates,
    "norm": _run_norm,
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
        return {
            "experiment": self.experiment,
            "config_sha256": self.config_sha256,
            "version": self.version,
            "anchor": self.anchor,
            "outputs": self.outputs,
            "wall_clock_s": self.wall_clock_s,
        }


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run(config: dict, out_dir: str | Path) -> RunManifest:
    """Validate the config, dispatch the experiment, write outputs + manifest."""
    if not isinstance(config, dict):
        raise ConfigError("", "config must be a JSON object")
    kind = config.get("experiment")
    if kind not in RUNNERS:
        raise ConfigError("/experiment", f"unknown experiment {kind!r}")
    if kind in SEEDED_EXPERIMENTS and "seed" not in config:
        raise ConfigError("/seed", "stochastic experiments require an explicit seed")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    paths = RUNNERS[kind](config, out)
    wall = time.perf_counter() - t0
    manifest = RunManifest(
        experiment=kind,
        config_sha256=config_hash(config),
        version=__version__,
        anchor=ANCHORS[kind],
        outputs={p.name: _sha256(p) for p in paths},
        wall_clock_s=wall,
    )
    _write_atomic(
        out / "manifest.json", json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
    )
    return manifest


def verify(manifest_path: str | Path, out_dir: str | Path | None = None) -> bool:
    """Recompute output checksums against the manifest; version must match."""
    manifest_path = Path(manifest_path)
    data = json.loads(manifest_path.read_text())
    base = Path(out_dir) if out_dir is not None else manifest_path.parent
    if data.get("version") != __version__:
        print(
            f"version note: manifest {data.get('version')} vs current {__version__}",
            file=sys.stderr,
        )
        return False
    for name, digest in data.get("outputs", {}).items():
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


_INLINE_FLAGS = {
    # flag name -> (config key, converter)
    "mu": ("mu", str),
    "element": ("element", str),
    "n_max": ("n_max", int),
    "g": ("g", str),
    "eps": ("eps", float),
    "strategy": ("strategy", str),
    "budget": ("budget", int),
    "family": ("family", str),
    "levels": ("levels", int),
    "depth": ("depth", int),
    "tol": ("tol", float),
    "max_iter": ("max_iter", int),
    "n": ("n", int),
    "paths": ("paths", int),
    "length": ("length", int),
    "steps": ("steps", int),
    "trials": ("trials", int),
    "start": ("start", str),
    "measures": ("measures", int),
    "tuples": ("tuples", int),
    "rep": ("rep", str),
    "n_moments": ("n_moments", int),
    "seed": ("seed", int),
    "rank": ("rank", int),
    "out": ("out", str),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stationary-lab",
        description="random walks, boundary measures, and certified norm "
        "brackets on free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out-dir", type=str, default=".")
        p.add_argument("--seed-override", type=int, default=None)
        for flag, (key, conv) in _INLINE_FLAGS.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=f"cfg_{key}",
                           type=conv, default=None)
    v = sub.add_parser("verify")
    v.add_argument("--manifest", type=str, required=True)
    v.add_argument("--out-dir", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        ok = verify(args.manifest, args.out_dir)
        print("verified" if ok else "verification failed")
        return EXIT_OK if ok else EXIT_INCONCLUSIVE
    try:
        if args.config is not None:
            config = json.loads(Path(args.config).read_text())
            if not isinstance(config, dict):
                raise ConfigError("", "config must be a JSON object")
            config.setdefault("experiment", args.command)
            if config["experiment"] != args.command:
                raise ConfigError("/experiment", "config disagrees with subcommand")
            if args.seed_override is not None:
                if "seed" in config:
                    raise ConfigError(
                        "/seed", "--seed-override refused: the config pins its seed"
                    )
                config["seed"] = args.seed_override
        else:
            config = {"experiment": args.command, "rank": 2}
            for _, (key, _conv) in _INLINE_FLAGS.items():
                value = getattr(args, f"cfg_{key}", None)
                if value is not None:
                    config[key] = value
            if args.seed_override is not None:
                config.setdefault("seed", args.seed_override)
        manifest = run(config, args.out_dir)
        print(json.dumps(manifest.to_json(), indent=2, sort_keys=True))
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionError, UnresolvedBoundaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InconclusiveError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except StationaryLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
