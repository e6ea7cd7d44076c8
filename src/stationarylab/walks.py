"""Finitely supported probability laws on F_k, convolution powers, seeded path
sampling, Cesaro averages, and the convolution action on algebra elements.

All randomness flows through numpy's Philox counter-based 64-bit generator:
identical seeds give identical samples, run to run.  Increments are drawn by
inverse-CDF over the support in the fixed length-lex word order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .algebra import AlgebraElement
from .errors import (
    ContextMismatchError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from .freegroup import FreeGroupContext, Word, sparse_product

MASS_TOLERANCE = 1e-12
GENERATING_CLOSURE_CAP = 1_000_000


def rng_from_seed(*seed_parts: int) -> np.random.Generator:
    """The package-wide RNG: Philox keyed by the given integer sequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed_parts))))


def _as_mass(value):
    """Exact Fractions for rational inputs (int, Fraction, 'p/q' string), else float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


class GroupMeasure:
    """A finitely supported probability measure on F_rank.

    Masses are exact Fractions when every input is rational, floats otherwise.
    Immutable.
    """

    __slots__ = ("masses", "rank", "_generating")

    def __init__(self, masses: Mapping[Word, object], rank: int):
        table = {}
        for w, p in masses.items():
            if w.rank != rank:
                raise ContextMismatchError(f"word rank {w.rank} in measure of rank {rank}")
            p = _as_mass(p)
            if p < 0:
                raise MalformedInputError(f"negative mass {p} at {w}")
            if p > 0:
                table[w] = table.get(w, 0) + p
        total = sum(table.values())
        if abs(float(total) - 1.0) > MASS_TOLERANCE:
            raise MalformedInputError(f"masses sum to {float(total)}, not 1")
        object.__setattr__(self, "masses", table)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_generating", None)

    def __setattr__(self, *a):
        raise AttributeError("GroupMeasure is immutable")

    @staticmethod
    def uniform_on(words: Sequence[Word]) -> "GroupMeasure":
        words = list(words)
        p = Fraction(1, len(words))
        return GroupMeasure({w: p for w in words}, words[0].rank)

    @staticmethod
    def dirac(w: Word) -> "GroupMeasure":
        return GroupMeasure({w: Fraction(1)}, w.rank)

    def support(self) -> list[Word]:
        return sorted(self.masses, key=Word.sort_key)

    def mass(self, w: Word):
        return self.masses.get(w, 0)

    def max_support_length(self) -> int:
        return max((len(w) for w in self.masses), default=0)

    @property
    def exact(self) -> bool:
        return all(isinstance(p, Fraction) for p in self.masses.values())

    def is_generating(self, closure_cap: int = GENERATING_CLOSURE_CAP) -> bool:
        """Certificate that the support generates F_rank as a semigroup.

        The semigroup closure of the support is computed inside the ball of
        radius 2 * (max support length) + 2; the support generates iff the
        closure contains every single-letter word.  For finitely supported
        measures the obstruction shows up within this radius.
        """
        if self._generating is not None:
            return self._generating
        supp = [w for w in self.support() if not w.is_identity()]
        radius = 2 * self.max_support_length() + 2
        closure = set(supp)
        frontier = list(supp)
        while frontier:
            new = []
            for u in frontier:
                for s in supp:
                    v = u * s
                    if len(v) <= radius and v not in closure:
                        closure.add(v)
                        new.append(v)
                        if len(closure) > closure_cap:
                            raise ResourceLimitError(
                                "semigroup closure exceeds the cap", closure_cap
                            )
            frontier = new
        targets = FreeGroupContext(self.rank).generators()
        result = all(t in closure for t in targets)
        object.__setattr__(self, "_generating", result)
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupMeasure)
            and self.rank == other.rank
            and self.masses == other.masses
        )

    def __repr__(self) -> str:
        atoms = ", ".join(
            f"{w}: {p}" for w, p in sorted(self.masses.items(), key=lambda x: x[0].sort_key())[:6]
        )
        return f"GroupMeasure({{{atoms}{'...' if len(self.masses) > 6 else ''}}})"


def uniform_generator_measure(rank: int) -> GroupMeasure:
    """The simple random walk law: uniform on the 2*rank single-letter words."""
    p = Fraction(1, 2 * rank)
    return GroupMeasure({s: p for s in FreeGroupContext(rank).generators()}, rank)


def convolve_measures(
    mu: GroupMeasure, nu: GroupMeasure, support_cap: int = 10_000_000
) -> GroupMeasure:
    """(mu * nu)(w) = sum over u v = w of mu(u) nu(v)."""
    if mu.rank != nu.rank:
        raise ContextMismatchError(f"rank mismatch: {mu.rank} vs {nu.rank}")
    out = sparse_product(
        mu.masses, nu.masses, mu.rank, support_cap, "measure support exceeds the cap"
    )
    return GroupMeasure(out, mu.rank)


def measure_power(mu: GroupMeasure, n: int, support_cap: int = 10_000_000) -> GroupMeasure:
    """n-th convolution power; mu^0 is the Dirac mass at the identity."""
    if n < 0:
        raise MalformedInputError(f"power must be >= 0, got {n}")
    out = GroupMeasure.dirac(Word((), mu.rank, _reduced=True))
    for _ in range(n):
        out = convolve_measures(out, mu, support_cap)
    return out


def cesaro_measure(mu: GroupMeasure, n: int, support_cap: int = 10_000_000) -> GroupMeasure:
    """(1/n) sum_{k=0}^{n-1} mu^k."""
    if n < 1:
        raise MalformedInputError(f"n must be >= 1, got {n}")
    acc: dict[Word, object] = {}
    power = GroupMeasure.dirac(Word((), mu.rank, _reduced=True))
    for k in range(n):
        if k > 0:
            power = convolve_measures(power, mu, support_cap)
        for w, p in power.masses.items():
            acc[w] = acc.get(w, 0) + p
        if len(acc) > support_cap:
            raise ResourceLimitError("Cesaro support exceeds the cap", support_cap)
    inv_n = Fraction(1, n)
    return GroupMeasure({w: p * inv_n for w, p in acc.items()}, mu.rank)


@dataclass(frozen=True)
class PathSample:
    """One sampled trajectory: increments g_k and positions w_k = g_1 ... g_k."""

    seed: int
    increments: tuple[Word, ...]
    positions: tuple[Word, ...] = field(repr=False)

    def __post_init__(self):
        if not self.positions or not self.positions[0].is_identity():
            raise MalformedInputError("paths must start at the identity")

    def __len__(self) -> int:
        return len(self.increments)


def sample_increments(mu: GroupMeasure, length: int, seed: int) -> tuple[Word, ...]:
    """Draw i.i.d. increments from mu by inverse-CDF over the support in
    length-lex order, using the Philox generator keyed by the seed."""
    if length < 0:
        raise MalformedInputError(f"length must be >= 0, got {length}")
    support = mu.support()
    cdf = np.cumsum([float(mu.masses[w]) for w in support])
    cdf[-1] = 1.0
    rng = rng_from_seed(seed)
    draws = rng.random(length)
    idx = np.searchsorted(cdf, draws, side="right")
    return tuple(support[int(i)] for i in idx)


def sample_path(mu: GroupMeasure, length: int, seed: int) -> PathSample:
    """Sample a length-step trajectory of the mu random walk, deterministically.

    Positions are the cumulative products of the increments; position words
    grow linearly along transient walks, so very long trajectories cost
    quadratically many letters (draw with sample_increments when only the
    steps matter).
    """
    increments = sample_increments(mu, length, seed)
    positions = [Word((), mu.rank, _reduced=True)]
    for g in increments:
        positions.append(positions[-1] * g)
    return PathSample(seed=seed, increments=increments, positions=tuple(positions))


def measure_convolve_element(mu: GroupMeasure, a: AlgebraElement) -> AlgebraElement:
    """The convolution action on algebra elements under the inner action:
    mu * a = sum_g mu(g) Ad_{g^-1}(a).  Preserves the canonical trace.

    For exact laws the per-word accumulation runs in rational arithmetic and
    rounds once at the end, so coefficients that cancel, cancel exactly.
    """
    if mu.rank != a.rank:
        raise ContextMismatchError(f"rank mismatch: {mu.rank} vs {a.rank}")
    atoms = sorted(mu.masses.items(), key=lambda x: x[0].sort_key())
    if mu.exact:
        acc_re: dict[Word, Fraction] = {}
        acc_im: dict[Word, Fraction] = {}
        for g, p in atoms:
            ginv = g.inverse()
            for w, c in a.coeffs.items():
                target = (ginv * w) * g
                acc_re[target] = acc_re.get(target, Fraction(0)) + p * Fraction(c.real)
                acc_im[target] = acc_im.get(target, Fraction(0)) + p * Fraction(c.imag)
        return AlgebraElement(
            {w: complex(float(acc_re[w]), float(acc_im[w])) for w in acc_re},
            a.rank,
        )
    out: dict[Word, complex] = {}
    for g, p in atoms:
        ginv = g.inverse()
        for w, c in a.coeffs.items():
            target = (ginv * w) * g
            out[target] = out.get(target, 0) + float(p) * c
    return AlgebraElement(out, a.rank)


def decay_schedule(k_max: int) -> list[int]:
    """Least increasing exponents n_k with (1 - 2^-k)^(n_k) < 2^-k.

    Exact rational arithmetic; n_1 = 2, n_2 = 5, ...
    """
    if k_max < 1:
        raise PreconditionError(f"k_max must be >= 1, got {k_max}")
    out: list[int] = []
    prev = 0
    for k in range(1, k_max + 1):
        base = 1 - Fraction(1, 2**k)
        target = Fraction(1, 2**k)
        n = prev + 1
        power = base**n
        while power >= target:
            n += 1
            power *= base
        out.append(n)
        prev = n
    return out
