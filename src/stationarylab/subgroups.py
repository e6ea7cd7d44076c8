"""Cyclic subgroups of F_k under conjugation: primitive roots, membership,
positive definite functions from random-subgroup samples, Gram PSD checks,
escape experiments for the conjugation walk, and essential-freeness reports.

Amenable subgroups of a free group are trivial or infinite cyclic, so the
amenable-subgroup space is modeled by primitive root words; the trivial
subgroup is the empty root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import CylinderMeasure, fix_mass, stationarity_residual
from .errors import (
    ContextMismatchError,
    CoverageError,
    MalformedInputError,
    PreconditionError,
)
from .freegroup import FreeGroupContext, Word, _cyclic_split, _product_letters, _word, ball
from .freegroup import conjugate, inverse_letters, length_lex
from .walks import GroupMeasure, sample_increments

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


class CyclicSubgroup:
    """<root> for a primitive root word; the empty root encodes the trivial subgroup.

    Roots are normalized to the length-lex smaller of root / root^-1, so equal
    subgroups compare equal.
    """

    __slots__ = ("root",)

    def __init__(self, root: Word):
        self._orient(primitive_root(root))

    def _orient(self, root: Word) -> None:
        """Store the primitive root or its inverse, whichever is length-lex smaller."""
        inv = inverse_letters(root.letters)
        object.__setattr__(self, "root", root if root.letters <= inv else _word(inv, root.rank))

    def __setattr__(self, *a):
        raise AttributeError("CyclicSubgroup is immutable")

    @property
    def rank(self) -> int:
        return self.root.rank

    def is_trivial(self) -> bool:
        return self.root.is_identity()

    def contains(self, g: Word) -> bool:
        """Exact membership: g is a power of the root.  With root = v c v^-1 (c
        cyclically reduced), the powers v c^n v^-1 are reduced as written."""
        if g.rank != self.root.rank:
            raise ContextMismatchError(f"rank {g.rank} vs subgroup rank {self.root.rank}")
        if g.is_identity():
            return True
        if self.is_trivial():
            return False
        r, gl = self.root.letters, g.letters
        i = _cyclic_split(r)
        c = r[i : len(r) - i]
        n = (len(gl) - 2 * i) // len(c)
        if n < 1 or gl[:i] != r[:i] or gl[len(gl) - i :] != r[len(r) - i :]:
            return False
        mid = gl[i : len(gl) - i]
        return mid == c * n or mid == inverse_letters(c) * n

    def conjugated_by(self, h: Word) -> "CyclicSubgroup":
        """h^-1 <root> h; a conjugate of a primitive root is primitive."""
        out = object.__new__(CyclicSubgroup)
        out._orient(conjugate(self.root, h))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicSubgroup) and self.root == other.root

    def __hash__(self) -> int:
        return hash(("cyclic", self.root))

    def __repr__(self) -> str:
        return f"CyclicSubgroup(<{self.root}>)"


@dataclass(frozen=True)
class SubgroupChain:
    """The conjugation walk on cyclic subgroups driven by one sampled path."""

    seed: int
    states: tuple[CyclicSubgroup, ...]

    @staticmethod
    def simulate(
        mu: GroupMeasure, start: CyclicSubgroup, steps: int, seed: int
    ) -> "SubgroupChain":
        states = [start]
        for g in sample_increments(mu, steps, seed):
            states.append(states[-1].conjugated_by(g))
        return SubgroupChain(seed=seed, states=tuple(states))

    def root_lengths(self) -> list[int]:
        return [len(s.root) for s in self.states]


# ---------------------------------------------------------------------------
# positive definite functions from subgroup samples
# ---------------------------------------------------------------------------


class PositiveDefiniteFn:
    """phi(g) = weighted frequency of sampled subgroups containing g, tabulated
    on a ball; phi(e) = 1 and every Gram matrix over covered tuples is PSD."""

    __slots__ = ("values", "radius", "rank")

    def __init__(self, values: dict[Word, float], radius: int, rank: int):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *a):
        raise AttributeError("PositiveDefiniteFn is immutable")

    def __call__(self, g: Word) -> float:
        try:
            return self.values[g]
        except KeyError:
            raise CoverageError([g]) from None


def pdf_from_subgroup_sample(
    subgroups: Sequence[CyclicSubgroup],
    weights: Sequence[float],
    radius: int,
) -> PositiveDefiniteFn:
    """phi(g) = sum of weights over sampled subgroups containing g, on ball(radius)."""
    if len(subgroups) != len(weights):
        raise MalformedInputError("one weight per subgroup required")
    total = float(sum(weights))
    if abs(total - 1.0) > 1e-9:
        raise MalformedInputError(f"weights sum to {total}, not 1")
    rank = subgroups[0].rank
    ctx = FreeGroupContext(rank)
    values: dict[Word, float] = {}
    for g in ball(ctx, radius):
        values[g] = float(
            sum(wt for sub, wt in zip(subgroups, weights) if sub.contains(g))
        )
    # every subgroup contains the identity: pin the normalization exactly
    values[ctx.identity] = 1.0
    return PositiveDefiniteFn(values=values, radius=radius, rank=rank)


@dataclass(frozen=True)
class PsdReport:
    """Minimum Gram eigenvalue per tested tuple; pass = all above -1e-9."""

    min_eigenvalues: tuple[float, ...]
    passed: bool
    tolerance: float = PSD_EIGENVALUE_TOL


def psd_check(phi: PositiveDefiniteFn, tuples: Sequence[Sequence[Word]]) -> PsdReport:
    """Form the Gram matrix [phi(g_i g_j^-1)] for each tuple and bound its
    spectrum below; raises coverage-error listing any product outside the ball."""
    values = {w.letters: v for w, v in phi.values.items()}
    missing: dict[tuple[int, ...], None] = {}
    eigs = []
    for tup in tuples:
        if any(g.rank != phi.rank for g in tup):
            raise ContextMismatchError(f"a word of the tuple is not of rank {phi.rank}")
        letters = [g.letters for g in tup]
        invs = [inverse_letters(g) for g in letters]
        G = np.empty((len(tup), len(tup)))
        for i, gi in enumerate(letters):
            for j, gj_inv in enumerate(invs):
                p = _product_letters(gi, gj_inv)
                v = values.get(p)
                if v is None:
                    missing[p] = None
                else:
                    G[i, j] = v
        if not missing:
            eigs.append(float(np.linalg.eigvalsh(G)[0]))
    if missing:
        raise CoverageError([_word(w, phi.rank) for w, _ in length_lex(missing)])
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
    pdf_words: Sequence[Word] | None = None,
) -> EscapeReport:
    """Simulate conjugation chains from a common start and track root growth.

    Reports per-step quartiles of the primitive-root length and the fraction
    of chains beyond the length threshold; the verdict is "escaping" when the
    median root length grows at least linearly over the last half of the run
    (a constant chain from the trivial subgroup reports "degenerate").
    Also evaluates the final-step empirical positive definite function at the
    requested words (default: the generators).
    """
    if not mu.is_generating():
        raise PreconditionError("the law must generate F_k as a semigroup")
    words = pdf_words if pdf_words is not None else FreeGroupContext(mu.rank).generators()
    if start.is_trivial():
        verdict = "degenerate (trivial subgroup is conjugation-fixed)"
        rows = tuple(
            EscapeRow(step=t, median_root_len=0.0, q25=0.0, q75=0.0,
                      frac_beyond_threshold=0.0)
            for t in range(steps + 1)
        )
        return EscapeReport(
            rows=rows, verdict=verdict, threshold_len=threshold_len, trials=trials,
            final_pdf_at={str(w): (1.0 if w.is_identity() else 0.0) for w in words},
        )
    chains = [
        SubgroupChain.simulate(mu, start, steps, seed=seed * 1_000_003 + t)
        for t in range(trials)
    ]
    lengths = np.array([c.root_lengths() for c in chains])  # (trials, steps+1)
    rows = []
    for t in range(steps + 1):
        col = lengths[:, t]
        rows.append(
            EscapeRow(
                step=t,
                median_root_len=float(np.median(col)),
                q25=float(np.quantile(col, 0.25)),
                q75=float(np.quantile(col, 0.75)),
                frac_beyond_threshold=float(np.mean(col > threshold_len)),
            )
        )
    half = steps // 2
    med_half, med_end = rows[half].median_root_len, rows[steps].median_root_len
    slope = (med_end - med_half) / max(steps - half, 1)
    escaping = med_end >= med_half + 0.25 * (steps - half) and med_end > threshold_len
    verdict = "escaping" if escaping else f"not escaping (slope {slope:.3f})"
    final = [c.states[steps] for c in chains]
    final_pdf = {
        str(w): float(np.mean([sub.contains(w) for sub in final])) for w in words
    }
    return EscapeReport(
        rows=tuple(rows), verdict=verdict, threshold_len=threshold_len,
        trials=trials, final_pdf_at=final_pdf,
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
    depth: int
    threshold: float
    verdict: str
    stationarity_residual: float
    pdf_upper: dict[str, float]

    @property
    def essentially_free(self) -> bool:
        return self.verdict.startswith("essentially free")


def freeness_report(
    mu: GroupMeasure,
    nu: CylinderMeasure,
    gens: Sequence[Word],
    depth: int,
    threshold: float = FREENESS_THRESHOLD,
    residual_depth: int = 4,
) -> FreenessReport:
    """Tabulate certified upper bounds on nu(Fix(g)) for each g.

    The bound for g is the mass of the two axis cylinders at the given depth.
    The verdict is "essentially free at depth d" when there is a non-identity
    word and every bound is below the threshold; the bounds are also
    assembled as an upper envelope of the fixed-point pdf g -> nu(Fix(g)),
    which for an essentially free action is the indicator of the identity.
    The stationarity precondition on nu is certified on cylinders up to
    residual_depth.
    """
    max_res_depth = (
        nu.depth - mu.max_support_length() if nu.tail_uniform_from is None else nu.depth
    )
    residual = stationarity_residual(mu, nu, depth=min(residual_depth, max_res_depth))
    rows = []
    pdf_upper = {"1": 1.0}
    for g in gens:
        if g.is_identity():
            continue
        fm = fix_mass(g, nu, depth=depth)
        rows.append(FreenessRow(word=str(g), upper_bound=fm.upper, depth=fm.depth))
        pdf_upper[str(g)] = fm.upper
    if not rows:
        verdict = "inconclusive: no non-identity word to test"
    elif all(r.upper_bound < threshold for r in rows):
        verdict = f"essentially free at depth {depth} (all bounds < {threshold})"
    else:
        verdict = "inconclusive: some fixed-point bound exceeds the threshold"
    return FreenessReport(
        rows=tuple(rows),
        depth=depth,
        threshold=threshold,
        verdict=verdict,
        stationarity_residual=residual,
        pdf_upper=pdf_upper,
    )
