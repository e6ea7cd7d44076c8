"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
"""

import math
import time

from stationarylab.algebra import AlgebraElement, norm_lower_bound, norm_upper_bound
from stationarylab.boundary import (
    conditional_measure,
    solve_stationary,
    stationarity_residual,
    uniform_boundary_measure,
)
from stationarylab.cli import run as cli_run, verify as cli_verify
from stationarylab.freegroup import FiniteQuotient, FreeGroupContext, ball
from stationarylab.states import (
    build_c_star_simple_measure,
    finite_dim_stationary_states,
    powers_search,
)
from stationarylab.subgroups import (
    CyclicSubgroup,
    freeness_report,
    pdf_from_subgroup_sample,
    psd_check,
    srs_escape_experiment,
)
from stationarylab.walks import (
    rng_from_seed,
    sample_path,
    uniform_generator_measure,
)

from commutant import dense, hermitian_commutant, span_distance

F2 = FreeGroupContext(2)
MU = uniform_generator_measure(2)


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_uniform_stationarity():
    t0 = time.perf_counter()
    nu = uniform_boundary_measure(F2, 6)
    residual = stationarity_residual(MU, nu)
    elapsed = time.perf_counter() - t0
    report(
        1,
        residual == 0 and elapsed < 1.0,
        f"uniform boundary measure stationarity residual {residual} (exact) "
        f"at depth 6 ({elapsed:.2f}s)",
    )


def test_criterion_2_solve_recovers_uniform():
    # the simple walk's stationary measure is the uniform one: every level-n
    # mass is 1 / (2k (2k-1)^(n-1)), correctly rounded, in ranks 2 and 3
    t0 = time.perf_counter()
    wrong, counted = [], 0
    for rank in (2, 3):
        sol = solve_stationary(uniform_generator_measure(rank), depth=5)
        cylinders = sol.measure.cylinders()
        counted += len(cylinders) == FreeGroupContext(rank).ball_size(5) - 1
        wrong += [w for w, m in cylinders
                  if m != 1 / (2 * rank * (2 * rank - 1) ** (len(w) - 1))]
    elapsed = time.perf_counter() - t0
    report(
        2,
        counted == 2 and not wrong and sol.iterations == 0 and elapsed < 10.0,
        f"stationary solve of the simple walk, ranks 2 and 3 to depth 5: "
        f"{len(wrong)} masses off the uniform closed form ({elapsed:.2f}s)",
    )


def test_criterion_3_norm_bracket():
    x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
    t0 = time.perf_counter()
    lower = norm_lower_bound(x, 64)
    upper = norm_upper_bound(x)
    elapsed = time.perf_counter() - t0
    report(
        3,
        3.39 <= lower <= 3.4642 and upper >= lower and elapsed < 60.0,
        f"generator-sum norm bracket [{lower:.6f}, {upper:.4f}] at 64 moments, "
        f"target 2*sqrt(3) = {2*math.sqrt(3):.6f} ({elapsed:.2f}s)",
    )


def test_criterion_4_conditional_dirac_and_disintegration():
    nu = uniform_boundary_measure(F2, 6)
    t0 = time.perf_counter()
    hits = 0
    for s in range(100):
        om = sample_path(MU, 30, seed=1000 + s)
        if conditional_measure(nu, om, 30).top_mass() > 0.9:
            hits += 1
    n_paths = 10_000
    words = [w for w in ball(F2, 2) if len(w) == 2]
    sums = {w: 0.0 for w in words}
    sq_sums = {w: 0.0 for w in words}
    for s in range(n_paths):
        om = sample_path(MU, 30, seed=200_000 + s)
        cm = conditional_measure(nu, om, 30, depth=2)
        for w in words:
            v = float(cm.mass(w))
            sums[w] += v
            sq_sums[w] += v * v
    elapsed = time.perf_counter() - t0
    worst_sigmas = 0.0
    for w in words:
        mean = sums[w] / n_paths
        var = sq_sums[w] / n_paths - mean * mean
        se = math.sqrt(max(var, 0.0) / n_paths)
        dev = abs(mean - float(nu.mass(w))) / max(se, 1e-15)
        worst_sigmas = max(worst_sigmas, dev)
    report(
        4,
        hits >= 95 and worst_sigmas <= 3.0 and elapsed < 30.0,
        f"Dirac collapse {hits}/100 paths (top mass > 0.9); disintegration "
        f"worst deviation {worst_sigmas:.2f} standard errors over {n_paths} "
        f"paths ({elapsed:.2f}s)",
    )


def test_criterion_5_powers_certificate():
    t0 = time.perf_counter()
    cert = powers_search(F2.word("a"), 0.75, strategy="geometric", budget=16)
    elapsed = time.perf_counter() - t0
    conj_ok = all(str(h) == "b" * (k + 1) for k, h in enumerate(cert.conjugators))
    report(
        5,
        cert.success and cert.n <= 16 and cert.upper_bound < 0.75
        and conj_ok and elapsed < 60.0,
        f"Powers certificate at n = {cert.n}: certified bound "
        f"{cert.upper_bound:.4f} < 0.75 ({elapsed:.2f}s)",
    )


def test_criterion_6_staged_builder():
    family = [AlgebraElement.delta(w) for w in ball(F2, 1)]
    t0 = time.perf_counter()
    build = build_c_star_simple_measure(family, levels=2)
    elapsed = time.perf_counter() - t0
    levels_ok = all(c.upper_bound < c.epsilon for c in build.level_certificates)
    finals_ok = all(c.upper_bound < c.threshold for c in build.final_checks)
    report(
        6,
        build.schedule == (2, 5) and levels_ok and finals_ok and elapsed < 300.0,
        f"staged builder at L = 2: schedule {build.schedule}, "
        f"{len(build.level_certificates)} level certificates verified, "
        f"final bounds all under 5/2^j ({elapsed:.1f}s)",
    )


def test_criterion_7_finite_dimensional_states():
    rep = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])
    t0 = time.perf_counter()
    states = finite_dim_stationary_states(rep, MU)
    # brute-force invariant oracle: the Hermitian commutant of supp mu, by SVD
    oracle = hermitian_commutant(rep, [w for w, _ in MU.atoms()])
    dist = span_distance([dense(st) for st in states], oracle)
    elapsed = time.perf_counter() - t0
    report(
        7,
        dist < 1e-8 and len(states) == len(oracle) and elapsed < 1.0
        and all(st.trace == 1 for st in states),
        f"stationary vs invariant fixed spaces: dimension {len(states)}, "
        f"subspace distance {dist:.2e}, every trace exactly 1 ({elapsed:.2f}s)",
    )


def test_criterion_8_freeness_report():
    nu = uniform_boundary_measure(F2, 8)
    gens = [g for g in ball(F2, 2) if not g.is_identity()]
    t0 = time.perf_counter()
    rep = freeness_report(MU, nu, gens, depth=8)
    elapsed = time.perf_counter() - t0
    closed_form = 2 / (4 * 3**7)
    matches = all(abs(r.upper_bound - closed_form) < 1e-15 for r in rep.rows)
    report(
        8,
        rep.essentially_free and matches and elapsed < 1.0,
        f"fixed-point bounds for {len(rep.rows)} words all equal "
        f"2/(4*3^7) = {closed_form:.2e} < 1e-3 ({elapsed:.2f}s)",
    )


def test_criterion_9_psd_property():
    t0 = time.perf_counter()
    rng = rng_from_seed(90)
    roots = [w for w in ball(F2, 3)]
    pool = [w for w in ball(F2, 2)]
    worst = 1.0
    for _ in range(100):
        picks = rng.integers(0, len(roots), size=8)
        subs = [CyclicSubgroup(roots[int(i)]) for i in picks]
        phi = pdf_from_subgroup_sample(subs, [1 / 8] * 8, radius=4)
        tuples = []
        for _ in range(100):
            idx = rng.integers(0, len(pool), size=5)
            tuples.append([pool[int(i)] for i in idx])
        result = psd_check(phi, tuples)
        worst = min(worst, min(result.min_eigenvalues))
        if not result.passed:
            break
    elapsed = time.perf_counter() - t0
    report(
        9,
        worst >= -1e-9 and elapsed < 30.0,
        f"10,000 Gram matrices over 100 subgroup samples: worst minimum "
        f"eigenvalue {worst:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_10_srs_escape():
    t0 = time.perf_counter()
    rep = srs_escape_experiment(
        MU, CyclicSubgroup(F2.word("a")), steps=200, trials=500, seed=17
    )
    elapsed = time.perf_counter() - t0
    median_end = rep.rows[200].median_root_len
    phi_a = rep.final_pdf_at["a"]
    report(
        10,
        median_end >= 100 and phi_a < 0.01 and elapsed < 60.0,
        f"escape from <a>: median root length {median_end:.0f} at step 200, "
        f"empirical pdf at a = {phi_a:.4f} ({elapsed:.1f}s)",
    )


DETERMINISM_CONFIGS = [
    {"experiment": "boundary-solve", "rank": 2, "depth": 5},
    {
        "experiment": "norm", "rank": 2, "n_moments": 64,
        "element": {"context": 2, "terms": [
            {"word": "a", "re": 1.0}, {"word": "A", "re": 1.0},
            {"word": "b", "re": 1.0}, {"word": "B", "re": 1.0}]},
    },
    {
        "experiment": "conditional", "rank": 2, "n": 30, "paths": 100,
        "seed": 1000, "nu_depth": 6,
    },
    {"experiment": "bnd-map", "rank": 2, "length": 200, "paths": 50, "seed": 7000},
    {"experiment": "powers", "rank": 2, "g": "a", "eps": 0.75,
     "strategy": "geometric", "budget": 16},
    {"experiment": "build-mu", "rank": 2, "family": "ball1", "levels": 1},
    {"experiment": "fdstates", "rank": 2, "rep": "s3-regular"},
    {"experiment": "fix-mass", "rank": 2, "depth": 8, "gens": "ball2"},
    {"experiment": "srs-escape", "rank": 2, "steps": 200, "trials": 100,
     "seed": 17, "start": "a"},
    {"experiment": "pdf-check", "rank": 2, "measures": 10, "tuples": 20, "seed": 90},
    {"experiment": "cesaro", "rank": 2, "n_max": 16,
     "mu": {"context": 2, "atoms": [{"word": "1", "p": "1/2"}, {"word": "b", "p": "1/2"}]},
     "element": "a"},
]


def test_criterion_11_determinism(tmp_path):
    all_ok = True
    checked = 0
    for cfg in DETERMINISM_CONFIGS:
        name = cfg["experiment"]
        d1 = tmp_path / f"{name}-1"
        d2 = tmp_path / f"{name}-2"
        m1 = cli_run(dict(cfg), d1)
        m2 = cli_run(dict(cfg), d2)
        same = m1.outputs == m2.outputs and all(
            (d1 / f).read_bytes() == (d2 / f).read_bytes() for f in m1.outputs
        )
        verified = cli_verify(d1 / "manifest.json") and cli_verify(d2 / "manifest.json")
        if not (same and verified):
            all_ok = False
            print(f"  determinism failure in {name}")
        checked += 1
    report(
        11,
        all_ok and checked == len(DETERMINISM_CONFIGS),
        f"{checked} experiment kinds re-run with identical configs: "
        f"byte-identical CSV outputs, manifests verified",
    )
