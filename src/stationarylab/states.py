"""Certified tests and constructions on stationary states: Cesaro decay
brackets, Powers averaging searches, the staged construction of laws whose
convolution drives every test element to its trace, and exact
finite-dimensional stationary states of permutation quotients.

Both Powers searches run through _scan, over (w, ..., w^n) by n first, then
base word w in length-lex order: n = 1..budget in powers_search, n = 1, 2,
4, ... <= budget in the construction.  A scan stops at the first tuple that
passes; otherwise it reports the one with the least worst bound.  A tuple
whose certified floor on an upper bound already reaches epsilon cannot pass;
its bounds are computed only when no tuple passes, and only while its floor
does not pass the least worst bound found.

Every test is bracket-based: a claim "passes" only on a certified upper bound
and "fails" only on a certified lower bound; anything else is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from typing import Collection, Iterable, Mapping, Sequence

from .algebra import (
    AlgebraElement,
    _centered,
    _conjugation_sum,
    _l1_normalized,
    _upper_bound_floor,
    certify_norm,
    norm_upper_bound,
)
from .errors import (
    ConstructionError,
    InconclusiveError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from .freegroup import FiniteQuotient, FreeGroupContext, Word, _check_support, ball
from .freegroup import _product_letters, _same_rank, _word
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
    if n_max < 1:
        raise MalformedInputError(f"n_max must be >= 1, got {n_max}")
    _same_rank(mu.rank, a.rank)
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


def powers_search(
    g: Word,
    epsilon: float,
    strategy: str = "geometric",
    budget: int = 64,
    seed: int = 0,
) -> PowersCertificate:
    """Search conjugator tuples driving the averaged translate below epsilon.

    geometric: h_k = w^k for n = 1..budget and, per n, the base words w of
    _power_families (those commuting with g skipped); smallest n wins, ties
    broken by the length-lex least base; InconclusiveError if every base
    commutes with g.  random: seeded tuples drawn from a ball.  The
    certificate stores the first tuple whose certified upper bound is below
    epsilon, or the best tuple found within the budget, marked failed.
    """
    if g.is_identity():
        raise PreconditionError("the identity cannot be averaged away")
    if epsilon <= 0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon}")
    if strategy == "geometric":
        tuples = _power_families(g.rank, [g.letters], range(1, budget + 1))
    elif strategy == "random":
        tuples = _random_tuples(g.rank, budget, seed)
    else:
        raise MalformedInputError(f"unknown strategy {strategy!r}")
    hs, n, _, u = _scan([(str(g), AlgebraElement.delta(g))], epsilon, tuples)
    return PowersCertificate(target=str(g), conjugators=hs, upper_bound=u, epsilon=epsilon,
                             success=u < epsilon, strategy=strategy, n=n)


def _scan(constraints: Sequence[tuple[str, AlgebraElement]], epsilon: float,
          tuples: Iterable[tuple[tuple[Word, ...], int]]):
    """The first (tuple, n) of the stream whose Powers average certifies
    every constraint element below epsilon, else the one with the least
    worst bound (the first of equals), as (tuple, n, [(constraint id, upper
    bound)], worst bound); ((), 0, [], inf) for an empty stream.  A tuple's
    bounds stop at the first constraint that reaches epsilon.

    Each averaged element is formed once, and its floor
    (algebra._upper_bound_floor), a lower bound on its norm_upper_bound,
    is read first: a tuple with a floor at least epsilon cannot pass, so it
    is deferred with that floor, holding no averaged element.  The deferred
    tuples are evaluated only when no tuple passes, by rising (floor, stream
    position), until a floor passes the least worst bound so far: no worst
    bound is below its floor.  The least (worst, position) does not depend
    on that order, so the closest tuple and its bounds are those of the
    scan that defers none."""
    best = (inf, -1, (), 0, [])  # (worst, stream position, tuple, n, certs)
    deferred = []
    for i, (hs, n) in enumerate(tuples):
        certs, worst = _tuple_bounds(constraints, epsilon, hs, defer=True)
        if certs is None:
            deferred.append((worst, i, hs, n))
            continue
        if worst < epsilon:
            return hs, n, certs, worst
        best = min(best, (worst, i, hs, n, certs))
    for floor, i, hs, n in sorted(deferred):
        if floor > best[0]:
            break
        certs, worst = _tuple_bounds(constraints, epsilon, hs, defer=False)
        best = min(best, (worst, i, hs, n, certs))
    worst, _, hs, n, certs = best
    return hs, n, certs, worst


def _tuple_bounds(constraints: Sequence[tuple[str, AlgebraElement]], epsilon: float,
                  hs: tuple[Word, ...], defer: bool):
    """([(constraint id, upper bound)], worst bound) of one tuple, the bounds
    stopping at the first that reaches epsilon; (None, floor), with defer
    set, at the first averaged element whose floor reaches epsilon.  The
    bounds before it are below epsilon, so the tuple's worst bound is at
    least that floor."""
    certs, worst = [], 0.0
    for cid, x in constraints:
        averaged = _averaged_element(x, hs)
        if defer and (floor := _upper_bound_floor(averaged)) >= epsilon:
            return None, floor
        u = norm_upper_bound(averaged)
        certs.append((cid, u))
        worst = max(worst, u)
        if worst >= epsilon:
            break
    return certs, worst


def _power_families(rank: int, supports: Collection[bytes], sizes: Iterable[int]):
    """(w, w^2, ..., w^n), n for each size n and, per n, each base w: the
    nonidentity words of the radius-3 ball, in length-lex order, that commute
    with no word of `supports` (given by their letters).  Each base's powers
    are formed once, each the previous one times w, and extended as the
    sizes grow.  InconclusiveError, at the call, if there is no such base."""
    bases = [w for w in ball(FreeGroupContext(rank), 3) if not w.is_identity() and all(
        _product_letters(w.letters, s) != _product_letters(s, w.letters) for s in supports)]
    if not bases:
        raise InconclusiveError("no radius-3 base word commutes with none of the targets")
    return _prefixes([[w] for w in bases], sizes)


def _prefixes(powers: list[list[Word]], sizes: Iterable[int]):
    """tuple(p[:n]), n for each size n and each list p, each list first
    extended, in place, by products with its first word up to n."""
    for n in sizes:
        for p in powers:
            while len(p) < n:
                p.append(p[-1] * p[0])
            yield tuple(p[:n]), n


def _random_tuples(rank: int, budget: int, seed: int):
    """budget seeded tuples from the radius-4 ball; sizes double every 4 trials, 2 to 64."""
    pool = [w for w in ball(FreeGroupContext(rank), 4) if not w.is_identity()]
    rng = rng_from_seed(seed)
    for trial in range(budget):
        n = 2 ** min(trial // 4 + 1, 6)
        picks = rng.integers(0, len(pool), size=n)
        yield tuple(pool[i] for i in picks.tolist()), n


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
    deterministic prefix of MAX_CONSTRAINTS entries per level).  _scan seeks
    it with n = 1, 2, 4, ... <= budget and bases commuting with no support
    word; a level none passes raises ConstructionError naming the closest
    tuple's base, its n and the element it stopped at, and a level with no
    such base raises InconclusiveError naming the level.  The assembled law
    is sum_l 2^-l (uniform on the tuple), with the 2^-L tail folded into
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
        centered = [(cid, _centered(x)) for cid, x in constraints]
        supports = {w for _, x in centered for part in (x.re, x.im) for w in part}
        sizes = (2**j for j in range(budget.bit_length()))
        try:
            tuples = _power_families(rank, supports, sizes)
        except InconclusiveError as exc:
            raise InconclusiveError(f"level {l}: {exc}") from None
        hs, n, certs, worst = _scan(centered, eps_l, tuples)
        if worst >= eps_l:
            closest = (f"closest tuple: the powers of {hs[0]} up to n = {n}, stopped at "
                       f"{certs[-1][0]}" if hs else "")
            raise ConstructionError(level=l, best_bound=worst, message=closest)
        level_certs.extend(
            LevelCertificate(level=l, constraint_id=cid, upper_bound=u, epsilon=eps_l)
            for cid, u in certs
        )
        level_measures.append(GroupMeasure.uniform_on(list(hs)))

    # over 2^levels, level l has the share 2^-l and the last level the tail's 2^-levels too
    shares = [2 ** (levels - l) for l in range(1, levels)] + [2]
    den = lcm(*[m.den for m in level_measures])
    mixture: dict[bytes, int] = {}
    for share, m in zip(shares, level_measures):
        for w, n in m.weights.items():
            mixture[w] = mixture.get(w, 0) + share * (den // m.den) * n
    mu = _measure(mixture, den << levels, rank)

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
    _same_rank(mu.rank, rep.rank)
    m = rep.dim
    _check_support(m * m, "fdstates: index pairs exceed the cap")
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

