"""Certified tests and constructions on stationary states: Cesaro decay
brackets, Powers averaging searches, the staged construction of laws whose
convolution drives every test element to its trace, exact finite-dimensional
stationary states of permutation quotients, and crossed-product state
evaluation.

Every test is bracket-based: a claim "passes" only on a certified upper bound
and "fails" only on a certified lower bound; anything else is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import freegroup
from .algebra import (
    AlgebraElement,
    _centered,
    _conjugation_sum,
    _l1_normalized,
    certify_norm,
    norm_upper_bound,
)
from .boundary import CylinderMeasure
from .errors import (
    ConstructionError,
    ContextMismatchError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from .freegroup import FiniteQuotient, FreeGroupContext, Word, ball
from .freegroup import _product_letters, _word
from .walks import (
    GroupMeasure,
    _measure,
    cesaro_measure,
    convolve_measures,
    decay_schedule,
    measure_convolve_element,
    rng_from_seed,
)

# the staged construction keeps at most this many constraints per level
MAX_CONSTRAINTS = 512


# ---------------------------------------------------------------------------
# Cesaro decay test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CesaroRow:
    n: int
    lower: float
    upper: float
    upper_method: str


@dataclass(frozen=True)
class CesaroReport:
    """Certified brackets on ||mu_n * a - tau0(a) 1|| for n = 1..n_max."""

    rows: tuple[CesaroRow, ...]
    generating: bool | None
    partial: bool
    verdict: str

    def uppers(self) -> list[float]:
        return [r.upper for r in self.rows]


def cesaro_test(
    a: AlgebraElement,
    mu: GroupMeasure,
    n_max: int,
    moments: int = 1,
) -> CesaroReport:
    """Bracket the Cesaro-averaged convolution distance to the trace.

    For each n the element b_n = mu_n * a - tau0(a) lambda_e is formed with
    mu_n the n-th Cesaro average, and its norm is bracketed.  Decay of the
    certified upper bounds to 0 for every a is the unique-stationarity
    criterion; a finite family can only ever provide supporting evidence, so
    the verdict reads "decaying"/"not decaying", never "unique".  The rows stop,
    with `partial` set, at the first n that passes freegroup.SUPPORT_CAP.
    """
    if mu.rank != a.rank:
        raise ContextMismatchError(f"rank mismatch: {mu.rank} vs {a.rank}")
    try:
        generating = mu.is_generating()
    except ResourceLimitError:
        generating = None
    rows: list[CesaroRow] = []
    partial = False
    for n in range(1, n_max + 1):
        try:
            mu_n = cesaro_measure(mu, n)
            # mu_n * a keeps the identity term of a, tau0(a)
            b_n = _centered(measure_convolve_element(mu_n, a))
            bracket = certify_norm(b_n, moments)
        except ResourceLimitError:
            partial = True
            break
        rows.append(
            CesaroRow(n=n, lower=bracket.lower, upper=bracket.upper,
                      upper_method=bracket.upper_method)
        )
    ups = [r.upper for r in rows[-3:]]
    decaying = len(ups) == 3 and ups[0] > ups[1] > ups[2]
    if decaying:
        verdict = "decaying"
        if generating:
            verdict += "; consistent with unique stationarity"
    else:
        verdict = "not decaying over the last three checkpoints"
    return CesaroReport(rows=tuple(rows), generating=generating, partial=partial, verdict=verdict)


# ---------------------------------------------------------------------------
# Powers averaging search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowersCertificate:
    """Conjugators h_1..h_n and a certified upper bound on the averaged element."""

    target: str
    conjugators: tuple[Word, ...]
    upper_bound: float
    epsilon: float
    success: bool
    strategy: str
    n: int


def _averaged_element(x: AlgebraElement, conjugators: Sequence[Word]) -> AlgebraElement:
    """(1/n) sum_k Ad_{h_k^-1}(x)  (for x = lambda_g this is the Powers average)."""
    return _conjugation_sum(x, [(h.letters, 1) for h in conjugators], len(conjugators))


def _commutes(u: bytes, v: bytes) -> bool:
    """Whether the words with these letters commute."""
    return _product_letters(u, v) == _product_letters(v, u)


def _geometric_base_candidates(rank: int):
    for w in ball(FreeGroupContext(rank), 3):
        if not w.is_identity():
            yield w


def powers_search(
    g: Word,
    epsilon: float,
    strategy: str = "geometric",
    budget: int = 64,
    seed: int = 0,
) -> PowersCertificate:
    """Search conjugator tuples driving the averaged translate below epsilon.

    geometric: h_k = w^k for base words w scanned in length-lex order (bases
    commuting with g are skipped); smallest n wins, ties broken by the
    lexicographically least base.  random: seeded tuples drawn from a ball.
    The certificate stores the first tuple whose certified upper bound is
    below epsilon, or the best tuple found within the budget, marked failed.
    """
    if g.is_identity():
        raise PreconditionError("the identity cannot be averaged away")
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon}")
    x = AlgebraElement.delta(g)
    if strategy == "geometric":
        tuples = _geometric_tuples(g, budget)
    elif strategy == "random":
        tuples = _random_tuples(g.rank, budget, seed)
    else:
        raise MalformedInputError(f"unknown strategy {strategy!r}")
    best: tuple[float, tuple[Word, ...], int] | None = None
    for hs, n in tuples:
        u = norm_upper_bound(_averaged_element(x, hs))
        if best is None or u < best[0]:
            best = (u, hs, n)
        if u < epsilon:
            return PowersCertificate(
                target=str(g), conjugators=hs, upper_bound=u,
                epsilon=epsilon, success=True, strategy=strategy, n=n,
            )
    u, hs, n = best if best is not None else (float("inf"), (), 0)
    return PowersCertificate(
        target=str(g), conjugators=hs, upper_bound=u,
        epsilon=epsilon, success=False, strategy=strategy, n=n,
    )


def _geometric_tuples(g: Word, budget: int):
    """(w, w^2, ..., w^n) for n = 1..budget and, per n, each base w not commuting with g."""
    bases = [w for w in _geometric_base_candidates(g.rank) if not _commutes(w.letters, g.letters)]
    for n in range(1, budget + 1):
        for w in bases:
            yield _power_tuple(w, n), n


def _power_tuple(w: Word, n: int) -> tuple[Word, ...]:
    """(w, w^2, ..., w^n), each power the previous one times w."""
    powers = [w]
    while len(powers) < n:
        powers.append(powers[-1] * w)
    return tuple(powers)


def _random_tuples(rank: int, budget: int, seed: int):
    """budget seeded tuples from the radius-4 ball; sizes double every 4 trials, 2 to 64."""
    pool = [w for w in ball(FreeGroupContext(rank), 4) if not w.is_identity()]
    rng = rng_from_seed(seed)
    for trial in range(budget):
        n = 2 ** min(trial // 4 + 1, 6)
        picks = rng.integers(0, len(pool), size=n)
        yield tuple(pool[int(i)] for i in picks), n


def verify_powers_certificate(cert: PowersCertificate, g: Word) -> float:
    """Recompute the certified bound from the raw inputs; deterministic."""
    x = AlgebraElement.delta(g)
    return norm_upper_bound(_averaged_element(x, cert.conjugators))


# ---------------------------------------------------------------------------
# staged construction of a law with certified trace-convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelCertificate:
    level: int
    constraint_id: str
    upper_bound: float
    epsilon: float


@dataclass(frozen=True)
class FinalCheck:
    j: int
    n_j: int
    element_id: str
    upper_bound: float
    threshold: float


@dataclass(frozen=True)
class CStarSimpleMeasure:
    """A truncated staged mixture mu = sum_{l<=L} 2^-l mu_l (tail folded into
    level L) with per-level Powers certificates and final convolution checks."""

    measure: GroupMeasure
    levels: tuple[GroupMeasure, ...]
    level_certificates: tuple[LevelCertificate, ...]
    schedule: tuple[int, ...]
    final_checks: tuple[FinalCheck, ...]
    tail_bound: float

    @property
    def all_verified(self) -> bool:
        level_ok = all(c.upper_bound < c.epsilon for c in self.level_certificates)
        final_ok = all(c.upper_bound < c.threshold for c in self.final_checks)
        return level_ok and final_ok


def _multi_element_powers(
    constraints: Sequence[tuple[str, AlgebraElement]],
    epsilon: float,
    budget: int,
) -> tuple[tuple[Word, ...], list[tuple[str, float]], float]:
    """One conjugator tuple certifying every constraint element below epsilon,
    with the (constraint id, upper bound) pairs and the worst bound, or ((),
    [], best worst bound) if none does.

    Scans geometric families h_k = w^k with the tuple size n doubling up to
    the budget and base words in length-lex order (bases commuting with any
    constraint support word are skipped); the shared exponent lattice keeps
    supports of later convolution powers thin.
    """
    rank = constraints[0][1].rank
    supports = {w for _, x in constraints for part in (x.re, x.im) for w in part if w}
    bases = [
        w
        for w in _geometric_base_candidates(rank)
        if all(not _commutes(w.letters, s) for s in supports)
    ]
    centered = [(cid, _centered(x)) for cid, x in constraints]
    best_u = float("inf")
    for n in (2**j for j in range(budget.bit_length())):
        for w in bases:
            hs = _power_tuple(w, n)
            certs = []
            worst = 0.0
            for cid, x in centered:
                u = norm_upper_bound(_averaged_element(x, hs))
                certs.append((cid, u))
                worst = max(worst, u)
                if worst >= epsilon:
                    break
            best_u = min(best_u, worst)
            if worst < epsilon:
                return hs, certs, worst
    return (), [], best_u


def build_c_star_simple_measure(
    test_family: Sequence[AlgebraElement],
    levels: int,
    budget: int = 128,
) -> CStarSimpleMeasure:
    """Run the staged averaging induction at truncation level `levels`.

    At level l a single conjugator tuple must drive every required element
    below eps_l = 2^-l: the centered family members themselves, plus every
    product mu_{k_r} * ... * mu_{k_1} * a_s with s, k_i < l and r < n_l (the
    exponents n_l come from decay_schedule; the product set is truncated to a
    deterministic prefix of MAX_CONSTRAINTS entries per level).  The assembled
    law is sum_l 2^-l (uniform on the tuple), with the 2^-L tail folded into
    the top level, and the final certified bounds
    ||mu^{n_j} * a - tau0(a) 1|| are rechecked for every family member at the
    scheduled exponents.  MalformedInputError if a member's squared l1 norm
    is not a finite float; ResourceLimitError past freegroup.SUPPORT_CAP.
    """
    if not test_family:
        raise PreconditionError("the test family must be nonempty")
    rank = test_family[0].rank
    family = [_l1_normalized(a) for a in test_family]
    e = _word(b"", rank)
    schedule = decay_schedule(levels)
    level_measures: list[GroupMeasure] = []
    level_certs: list[LevelCertificate] = []
    for l in range(1, levels + 1):
        eps_l = 0.5**l
        constraints: list[tuple[str, AlgebraElement]] = [
            (f"a[{s}]", a) for s, a in enumerate(family)
        ]
        # products mu_{k_r} * ... * mu_{k_1} * a_s, s < l, k_i < l, r < n_l
        n_l = schedule[l - 1]
        frontier: list[tuple[str, AlgebraElement]] = [
            (f"a[{s}]", family[s]) for s in range(min(l - 1, len(family)))
        ]
        for r in range(1, n_l):
            if len(constraints) >= MAX_CONSTRAINTS:
                break
            nxt = []
            for cid, x in frontier:
                for k in range(1, l):
                    y = measure_convolve_element(level_measures[k - 1], x)
                    nxt.append((f"mu[{k}]*{cid}", y))
            constraints.extend(nxt[: MAX_CONSTRAINTS - len(constraints)])
            frontier = nxt
        hs, certs, best = _multi_element_powers(constraints, eps_l, budget)
        if not hs:
            raise ConstructionError(level=l, best_bound=best)
        level_certs.extend(
            LevelCertificate(level=l, constraint_id=cid, upper_bound=u, epsilon=eps_l)
            for cid, u in certs
        )
        level_measures.append(GroupMeasure.uniform_on(list(hs)))

    weights = [Fraction(1, 2**l) for l in range(1, levels + 1)]
    weights[-1] = weights[-1] + Fraction(1, 2**levels)  # fold the tail
    mixture: dict[bytes, Fraction] = {}
    for wgt, m in zip(weights, level_measures):
        for w, p in m.masses.items():
            mixture[w] = mixture.get(w, Fraction(0)) + wgt * p
    mu = _measure(mixture, rank)

    final_checks: list[FinalCheck] = []
    power = GroupMeasure.dirac(e)
    reached = 0
    for j, n_j in enumerate(schedule, start=1):
        for _ in range(n_j - reached):
            power = convolve_measures(power, mu)
        reached = n_j
        for s, a in enumerate(family):
            u = norm_upper_bound(_centered(measure_convolve_element(power, a)))
            final_checks.append(
                FinalCheck(j=j, n_j=n_j, element_id=f"a[{s}]",
                           upper_bound=u, threshold=5 * 0.5**j)
            )
    return CStarSimpleMeasure(
        measure=mu,
        levels=tuple(level_measures),
        level_certificates=tuple(level_certs),
        schedule=tuple(schedule),
        final_checks=tuple(final_checks),
        tail_bound=0.5**levels,
    )


# ---------------------------------------------------------------------------
# finite-dimensional stationary states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DensityState:
    """A density matrix of size `dim` with exact rational entries.

    Entry (i, j) is `diagonal` when i == j, plus real[i, j] + 1j imag[i, j];
    a pair in neither mapping adds 0.  `min_eigenvalue` is an exact lower
    bound on the least eigenvalue.
    """

    dim: int
    diagonal: Fraction
    real: Mapping[tuple[int, int], Fraction]
    imag: Mapping[tuple[int, int], Fraction]
    min_eigenvalue: Fraction

    @property
    def trace(self) -> Fraction:
        return self.dim * self.diagonal + sum(v for (i, j), v in self.real.items() if i == j)


def _pair_orbits(perms: Sequence[Sequence[int]], m: int) -> tuple[list[int], list[list[int]]]:
    """The orbit number of every index pair k = i m + j under the group the
    permutations generate, and the orbits in the order of their least
    pairs, each starting at its least pair.

    A forward search suffices: in a finite group the inverse of a
    permutation is one of its powers.
    """
    label = [-1] * (m * m)
    orbits = []
    for start in range(m * m):
        if label[start] >= 0:
            continue
        label[start] = len(orbits)
        orbit = [start]
        for k in orbit:  # the list grows as the search reaches new pairs
            i, j = divmod(k, m)
            for p in perms:
                q = p[i] * m + p[j]
                if label[q] < 0:
                    label[q] = len(orbits)
                    orbit.append(q)
        orbits.append(orbit)
    return label, orbits


def finite_dim_stationary_states(rep: FiniteQuotient, mu: GroupMeasure) -> list[DensityState]:
    """Density matrices spanning the stationary states of the convolution
    channel rho -> sum_g mu(g) U_g rho U_g^*, in exact rationals.

    The U_g permute the matrix units, U_g E_ij U_g^* = E_g(i)g(j), so the
    fixed space is spanned by the indicators E_O of the orbits O of the
    group <supp mu> on index pairs: stationary equals invariant.  In the
    order of the orbits' least pairs this returns E_O / |O| for an orbit on
    the diagonal, and for an orbit off it I/m + H / (4 m r_O) with
    H = E_O + E_O^T, then with H = i (E_O - E_O^T) when O^T != O; an orbit
    whose transpose came first adds none.  r_O is the largest row or column
    count of E_O, so ||H|| <= 2 r_O and every eigenvalue of such a state lies
    in [1/(2m), 3/(2m)].  There is one state per orbit, and the real span of
    the states is the Hermitian fixed space.

    Raises ResourceLimitError when the m^2 index pairs pass
    freegroup.SUPPORT_CAP.
    """
    if mu.rank != rep.rank:
        raise ContextMismatchError(f"rank mismatch: {mu.rank} vs {rep.rank}")
    m = rep.dim
    if m * m > freegroup.SUPPORT_CAP:
        raise ResourceLimitError("fdstates: index pairs exceed the cap", freegroup.SUPPORT_CAP)
    label, orbits = _pair_orbits([rep.evaluate(g) for g, p in mu.atoms() if p], m)
    # I/m stays implicit in `diagonal`: each state stores only its orbit's
    # entries (and their transposes), at most 2 m^2 entries in all
    unit, low = Fraction(1, m), Fraction(1, 2 * m)
    states = []
    for n, orbit in enumerate(orbits):
        pairs = [divmod(k, m) for k in orbit]
        i, j = pairs[0]
        if i == j:
            least = unit if len(pairs) == m else Fraction(0)
            real = dict.fromkeys(pairs, Fraction(1, len(pairs)))
            states.append(DensityState(m, Fraction(0), real, {}, least))
            continue
        transpose = label[j * m + i]
        if transpose < n:
            continue
        # the group maps row a of E_O onto row g(a), so the rows that meet O
        # share one count, |O| over their number; so do the columns
        r = len(pairs) // min(len({a for a, _ in pairs}), len({b for _, b in pairs}))
        c = Fraction(1, 4 * m * r)
        if transpose == n:
            # E_O + E_O^T = 2 E_O, since two orbits are equal or disjoint
            states.append(DensityState(m, unit, dict.fromkeys(pairs, 2 * c), {}, low))
            continue
        flipped = [(b, a) for a, b in pairs]
        states.append(DensityState(m, unit, dict.fromkeys(pairs + flipped, c), {}, low))
        anti = dict.fromkeys(pairs, c)
        anti.update(dict.fromkeys(flipped, -c))
        states.append(DensityState(m, unit, {}, anti, low))
    return states


# ---------------------------------------------------------------------------
# crossed-product state
# ---------------------------------------------------------------------------


def crossed_product_state(
    f_terms: Mapping[Word, Mapping[Word, complex]],
    nu: CylinderMeasure,
) -> complex:
    """Evaluate the boundary-integral state on sum_g f_g lambda_g.

    Each f_g is a cylinder function (cylinder base word -> coefficient, the
    identity key meaning the constant 1); the state integrates the identity
    coefficient against nu and kills every other term.
    """
    e = next((g for g in f_terms if g.is_identity()), None)
    if e is None:
        return 0j
    acc = 0j
    for w, c in sorted(f_terms[e].items(), key=lambda p: p[0].sort_key()):
        acc += complex(c) * float(nu.mass(w))
    return acc
