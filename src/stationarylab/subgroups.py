"""Cyclic subgroups of F_k under conjugation: primitive roots, positive
definite functions from random-subgroup samples, Gram PSD checks,
escape experiments for the conjugation walk, and essential-freeness reports.

Amenable subgroups of a free group are trivial or infinite cyclic, so the
amenable-subgroup space is modeled by primitive root words; the trivial
subgroup is the empty root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import freegroup
from .boundary import CylinderMeasure, fix_mass, require_stationary
from .errors import (
    CoverageError,
    MalformedInputError,
    PreconditionError,
)
from .freegroup import FreeGroupContext, Word, _cyclic_split, _product_letters, _push_letters
from .freegroup import _Frozen, _same_rank, _word, conjugate, inverse_letters, length_lex
from .walks import GroupMeasure, _exact_weights, sample_increments

PSD_EIGENVALUE_TOL = -1e-9
FREENESS_THRESHOLD = 1e-3


def primitive_root(w: Word) -> Word:
    """The unique primitive u (up to inversion) with w a positive power of u.

    Cyclically reduce w = v c v^-1, find the shortest letter-period u0 of c
    (cyclically reduced powers are letter-periodic), and return v u0 v^-1,
    which is reduced as written.
    """
    lt = w.letters
    i = _cyclic_split(lt)
    c = lt[i : len(lt) - i]
    n = len(c)
    for d in range(1, n + 1):
        if n % d == 0 and c == c[:d] * (n // d):
            return _word(lt[: i + d] + lt[len(lt) - i :], w.rank)
    return w  # the identity


class CyclicSubgroup(_Frozen):
    """<root> for a primitive root word; the empty root encodes the trivial subgroup.

    Roots are normalized to the length-lex smaller of root / root^-1, so equal
    subgroups have equal roots.
    """

    __slots__ = _fields = ("root",)

    def __init__(self, root: Word):
        root = primitive_root(root)
        inv = inverse_letters(root.letters)
        self._set(root if root.letters <= inv else _word(inv, root.rank))

    @property
    def rank(self) -> int:
        return self.root.rank

    def is_trivial(self) -> bool:
        return self.root.is_identity()

    def __repr__(self) -> str:
        return f"CyclicSubgroup(<{self.root}>)"


class SubgroupChain:
    """The conjugation walk on cyclic subgroups, run on the path's letters."""

    @staticmethod
    def simulate(
        mu: GroupMeasure, start: CyclicSubgroup, steps: int, seed: int
    ) -> tuple[list[int], CyclicSubgroup]:
        """The root length at steps 0..steps of the walk H -> g^-1 H g driven by
        one sampled path, and the final subgroup.

        For the start root v c v^-1 (c cyclically reduced) and the path at w_k,
        the root is x^-1 c x with x = v^-1 w_k, kept as a letter stack: its
        length is |c| + 2(|x| - m) (Lyndon-Schupp), m the longest prefix of x
        that follows c c c ... or c^-1 c^-1 ..., whose letters only rotate c.
        A pop clamps m to the height, so m moves only at the top.  The final
        root is the one `conjugate` call, primitive as the start's root is."""
        _same_rank(start.rank, mu.rank)
        if steps < 0:
            raise MalformedInputError(f"steps must be >= 0, got {steps}")
        r = start.root.letters
        i = _cyclic_split(r)
        c = r[i : len(r) - i]
        n = len(c)
        if not n:  # the trivial subgroup is fixed
            return [0] * (steps + 1), start
        axes = (c, inverse_letters(c))
        x = bytearray(inverse_letters(r[:i]))  # x^-1 c x = v c v^-1 is reduced: m = 0
        m, lengths = 0, [len(r)]
        axis = axes[x[:1] != c[:1]]  # chosen by x[0], so again each time x empties
        for g in sample_increments(mu, steps, seed):
            low = _push_letters(x, g.letters)
            if m > low:
                m = low
            if not low and x:
                axis = axes[x[0] != c[0]]
            while m < len(x) and x[m] == axis[m % n]:
                m += 1
            lengths.append(n + 2 * (len(x) - m))
        return lengths, CyclicSubgroup(conjugate(_word(c, mu.rank), _word(bytes(x), mu.rank)))


# ---------------------------------------------------------------------------
# positive definite functions from subgroup samples
# ---------------------------------------------------------------------------


class PositiveDefiniteFn(_Frozen):
    """phi(g) = the weight of the sampled subgroups that contain g, for |g| <=
    radius: `values` maps the letters of e and of the root powers to their
    exact sums, and phi is 0 elsewhere.  Every covered Gram matrix is PSD."""

    __slots__ = _fields = ("values", "radius", "rank")

    def __init__(self, values: dict[bytes, Fraction], radius: int, rank: int):
        self._set(values, radius, rank)

    def __call__(self, g: Word) -> Fraction:
        _same_rank(g.rank, self.rank)
        if len(g) > self.radius:
            raise CoverageError([g])
        return self.values.get(g.letters, Fraction(0))


def pdf_from_subgroup_sample(
    subgroups: Sequence[CyclicSubgroup],
    weights: Sequence[object],
    radius: int,
) -> PositiveDefiniteFn:
    """phi(g) = the weight of the sampled subgroups that contain g, |g| <=
    radius, with the weights read as law masses are (`walks._exact_weights`).
    The subgroup with root v c v^-1 (c cyclically reduced) holds exactly the
    words v c^n v^-1, of length 2|v| + |n||c|: only those are visited."""
    if len(subgroups) != len(weights):
        raise MalformedInputError("one weight per subgroup required")
    weights, den = _exact_weights(dict(enumerate(weights)))
    rank = subgroups[0].rank
    counts = {b"": den}  # the weights sum to den, and every subgroup holds e
    for sub, weight in zip(subgroups, weights.values()):
        _same_rank(sub.rank, rank)
        r = sub.root.letters
        i = _cyclic_split(r)
        v, c, v_inv = r[:i], r[i : len(r) - i], r[len(r) - i :]
        if not c or not weight:
            continue  # the trivial subgroup holds e alone
        for n in range(1, (radius - 2 * i) // len(c) + 1):
            for w in (v + c * n + v_inv, v + inverse_letters(c) * n + v_inv):
                counts[w] = counts.get(w, 0) + weight
    values = {w: Fraction(n, den) for w, n in counts.items()}
    return PositiveDefiniteFn(values=values, radius=radius, rank=rank)


@dataclass(frozen=True)
class PsdReport:
    """Minimum Gram eigenvalue per tested tuple; pass = all at least PSD_EIGENVALUE_TOL."""

    min_eigenvalues: tuple[float, ...]
    passed: bool


def psd_check(phi: PositiveDefiniteFn, tuples: Sequence[Sequence[Word]]) -> PsdReport:
    """Form the Gram matrix [phi(g_i g_j^-1)] for each tuple and bound its
    spectrum below; raises coverage-error listing any product outside the
    ball, and malformed-input naming the first empty tuple.

    The words of the tuples are numbered once, and phi(g_i g_j^-1) is read
    once per distinct ordered pair of words that share a tuple; coverage is
    checked on exactly those products.  The CLI draws its tuple words from
    the ball of radius `radius // 2`, 17 words at the default in rank 2, so
    its 100 tuples of 5 words need at most 289 products for their 2,500
    entries.  The Gram matrices of one size are gathered from those values
    by numpy indexing, and their least eigenvalues come from stacked
    `eigvalsh` calls of at most freegroup.SUPPORT_CAP entries each (one
    matrix at least), which give every matrix the same bits as one
    `eigvalsh` call on it alone.
    """
    import numpy as np

    index: dict[bytes, int] = {}  # each distinct word's letters -> its number
    rows = []  # each tuple as the numbers of its words
    by_size: dict[int, list[int]] = {}  # tuple size -> the tuples of that size
    for t, tup in enumerate(tuples):
        if not tup:
            raise MalformedInputError(f"tuple {t} is empty")
        for g in tup:
            _same_rank(g.rank, phi.rank)
        rows.append([index.setdefault(g.letters, len(index)) for g in tup])
        by_size.setdefault(len(tup), []).append(t)
    words = list(index)
    n = len(words)
    # each stack: its tuples and their pair codes, i * n + j for phi(g_i g_j^-1)
    stacks = []
    for size, ts in by_size.items():
        step = max(1, freegroup.SUPPORT_CAP // (size * size))
        for k in range(0, len(ts), step):
            r = np.array([rows[t] for t in ts[k : k + step]])
            stacks.append((ts[k : k + step], r[:, :, None] * n + r[:, None, :]))
    pairs = np.unique(np.concatenate([c.ravel() for _, c in stacks] or [np.empty(0, int)]))
    invs = [inverse_letters(w) for w in words]
    values = []
    missing: dict[bytes, None] = {}
    for i, j in zip(*(a.tolist() for a in np.divmod(pairs, n))):
        p = _product_letters(words[i], invs[j])
        if len(p) > phi.radius:
            missing[p] = None
        else:
            values.append(float(phi.values.get(p, 0)))
    if missing:
        raise CoverageError([_word(w, phi.rank) for w, _ in length_lex(missing)])
    entries = np.array(values)
    eigs = [0.0] * len(tuples)
    for ts, c in stacks:
        least = np.linalg.eigvalsh(entries[np.searchsorted(pairs, c)])[:, 0]
        for t, e in zip(ts, least.tolist()):
            eigs[t] = e
    return PsdReport(
        min_eigenvalues=tuple(eigs),
        passed=all(e >= PSD_EIGENVALUE_TOL for e in eigs),
    )


# ---------------------------------------------------------------------------
# escape experiment for the conjugation walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeRow:
    step: int
    median_root_len: float
    q25: float
    q75: float
    frac_beyond_threshold: float


@dataclass(frozen=True)
class EscapeReport:
    rows: tuple[EscapeRow, ...]
    verdict: str
    threshold_len: int
    trials: int
    final_pdf_at: dict[str, float]

    @property
    def escaping(self) -> bool:
        return self.verdict == "escaping"


def srs_escape_experiment(
    mu: GroupMeasure,
    start: CyclicSubgroup,
    steps: int,
    trials: int,
    seed: int = 0,
    threshold_len: int = 10,
) -> EscapeReport:
    """Walk `trials` roots from a common start by conjugation and track their growth.

    Reports per-step quartiles of the primitive-root length and the fraction
    of walks beyond the length threshold; the verdict is "escaping" when the
    median root length grows at least linearly over the last half of the run.
    A trivial start stays trivial, so its lengths are all 0 and its verdict
    is "degenerate".  Also evaluates the final-step empirical positive
    definite function at the generators.
    """
    import numpy as np

    if trials < 1:
        raise MalformedInputError(f"trials must be >= 1, got {trials}")
    if not mu.is_generating():
        raise PreconditionError("the law must generate F_k as a semigroup")
    lengths, final = zip(*(
        SubgroupChain.simulate(mu, start, steps, seed=seed * 1_000_003 + t)
        for t in range(trials)
    ))
    lengths = np.array(lengths)  # (trials, steps + 1)
    q25, median, q75 = np.quantile(lengths, [0.25, 0.5, 0.75], axis=0).tolist()
    beyond = (lengths > threshold_len).mean(axis=0).tolist()
    rows = tuple(map(EscapeRow, range(steps + 1), median, q25, q75, beyond))
    half = steps // 2
    med_half, med_end = median[half], median[steps]
    slope = (med_end - med_half) / max(steps - half, 1)
    if start.is_trivial():
        verdict = "degenerate (trivial subgroup is conjugation-fixed)"
    elif med_end >= med_half + 0.25 * (steps - half) and med_end > threshold_len:
        verdict = "escaping"
    else:
        verdict = f"not escaping (slope {slope:.3f})"
    phi = pdf_from_subgroup_sample(final, [Fraction(1, trials)] * trials, radius=1)
    return EscapeReport(
        rows=rows, verdict=verdict, threshold_len=threshold_len, trials=trials,
        final_pdf_at={str(w): float(phi(w)) for w in FreeGroupContext(mu.rank).generators()},
    )


# ---------------------------------------------------------------------------
# essential-freeness report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreenessRow:
    word: str
    upper_bound: float
    depth: int


@dataclass(frozen=True)
class FreenessReport:
    rows: tuple[FreenessRow, ...]
    threshold: float
    verdict: str

    @property
    def essentially_free(self) -> bool:
        return self.verdict.startswith("essentially free")


def freeness_report(
    mu: GroupMeasure,
    nu: CylinderMeasure,
    gens: Sequence[Word],
    depth: int,
    threshold: float = FREENESS_THRESHOLD,
) -> FreenessReport:
    """Tabulate certified upper bounds on nu(Fix(g)) for each g.

    The bound for g is the mass of the two axis cylinders at the given depth.
    The verdict is "essentially free at depth d" when there is a non-identity
    word and every bound is below the threshold.  The stationarity
    precondition on nu is checked by require_stationary.
    """
    require_stationary(mu, nu)
    rows = [FreenessRow(word=str(g), upper_bound=fix_mass(g, nu, depth=depth), depth=depth)
            for g in gens if not g.is_identity()]
    if not rows:
        verdict = "inconclusive: no non-identity word to test"
    elif all(r.upper_bound < threshold for r in rows):
        verdict = f"essentially free at depth {depth} (all bounds < {threshold})"
    else:
        verdict = "inconclusive: some fixed-point bound exceeds the threshold"
    return FreenessReport(rows=tuple(rows), threshold=threshold, verdict=verdict)
