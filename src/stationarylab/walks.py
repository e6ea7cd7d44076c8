"""Finitely supported probability laws on F_k, convolution powers, seeded path
sampling, Cesaro averages, and the convolution action on algebra elements.

Every law is exact: its masses are Fractions, and a float mass is taken at
its exact binary value, so a law written in decimals and the same law
written as "p/q" strings give the same results.

All randomness flows through numpy's Philox counter-based 64-bit generator:
identical seeds give identical samples, run to run.  Increments are drawn by
inverse-CDF over the support in the fixed length-lex word order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

import numpy as np

from . import freegroup
from .algebra import AlgebraElement, _conjugation_sum
from .errors import (
    ContextMismatchError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from .freegroup import FreeGroupContext, Word, length_lex, letter_product
from .freegroup import _product_letters, _word

MASS_TOLERANCE = 1e-12


def rng_from_seed(*seed_parts: int) -> np.random.Generator:
    """The package-wide RNG: Philox keyed by the given integer sequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed_parts))))


class GroupMeasure:
    """A finitely supported probability measure on F_rank.

    `masses` maps the letters of each support word to its mass, a Fraction:
    an int, a Fraction or a "p/q" string is read as that rational, a float at
    its exact binary value.  The constructor checks a Word-keyed mapping;
    accessors speak Words.  Immutable.  Masses that sum to 1 within
    MASS_TOLERANCE are divided by their exact total, so every law sums to 1.
    """

    __slots__ = ("masses", "rank")

    def __init__(self, masses: Mapping[Word, object], rank: int):
        table = {}
        for w, p in masses.items():
            if w.rank != rank:
                raise ContextMismatchError(f"word rank {w.rank} in measure of rank {rank}")
            try:
                p = Fraction(p)
            except (ValueError, TypeError, ArithmeticError) as exc:
                raise MalformedInputError(
                    f"mass {p!r} at {w} is not finite or not a number"
                ) from exc
            if p < 0:
                raise MalformedInputError(f"negative mass {p} at {w}")
            table[w.letters] = p
        _fill(self, table, rank)

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

    def atoms(self) -> list[tuple[Word, Fraction]]:
        """(word, mass) pairs in length-lex word order."""
        return [(_word(w, self.rank), p) for w, p in length_lex(self.masses)]

    def support(self) -> list[Word]:
        return [w for w, _ in self.atoms()]

    def mass(self, w: Word):
        if w.rank != self.rank:
            raise ContextMismatchError(f"word rank {w.rank} vs measure rank {self.rank}")
        return self.masses.get(w.letters, 0)

    def max_support_length(self) -> int:
        return max((len(w) for w in self.masses), default=0)

    def is_generating(self) -> bool:
        """Whether the support generates F_rank as a semigroup, decided exactly
        by Benois' saturation (Benois 1969): the support words are loops at
        one hub state of an automaton, and every path that reads a letter and
        then its inverse, through the empty moves found so far, gets an empty
        move, until none is new.  A reduced word then leads from the hub back
        to it iff it is a product of support words.  The empty-move closure
        is a bitset row a state.  Moves are only added, so the test stops once
        every letter is accepted.  ResourceLimitError, before the first pass,
        when one pass's 2 rank n^3 bit operations (n states) pass freegroup.SUPPORT_CAP."""
        supp = [w for w in self.masses if w]
        n = 1 + sum(len(w) - 1 for w in supp)
        letters = range(2 * self.rank)
        # moves[c][p]: the bitset of states that letter code c leads to from p
        moves = [[0] * n for _ in letters]
        fresh = 1
        for w in supp:
            path = [0, *range(fresh, fresh + len(w) - 1), 0]
            fresh += len(w) - 1
            for c, p, q in zip(w, path, path[1:]):
                moves[c][p] |= 1 << q
        closure = [1 << p for p in range(n)]

        def image(rows: list[int], states: int) -> int:
            out = 0
            while states:
                low = states & -states
                out |= rows[low.bit_length() - 1]
                states ^= low
            return out

        def read(c: int, states: int) -> int:
            """The states that letter c leads to from these, empty moves around it."""
            return image(closure, image(moves[c], image(closure, states)))

        def accepted() -> bool:
            return all(read(c, 1) & 1 for c in letters)

        if not accepted() and len(letters) * n**3 > freegroup.SUPPORT_CAP:
            raise ResourceLimitError("generation test: saturation work exceeds the cap",
                                     freegroup.SUPPORT_CAP)
        changed = True
        while changed and not accepted():
            changed = False
            for p in range(n):
                reach = image(closure, closure[p])
                for c in letters:
                    reach |= read(c ^ 1, read(c, 1 << p))
                if reach != closure[p]:
                    closure[p] = reach
                    changed = True
        return accepted()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupMeasure)
            and self.rank == other.rank
            and self.masses == other.masses
        )

    def __repr__(self) -> str:
        atoms = ", ".join(f"{w}: {p}" for w, p in self.atoms()[:6])
        return f"GroupMeasure({{{atoms}{'...' if len(self.masses) > 6 else ''}}})"


def _fill(mu: GroupMeasure, table: dict[bytes, Fraction], rank: int) -> None:
    table = {w: p for w, p in table.items() if p > 0}
    # an exact sum, compared exactly: a Fraction beyond the float range is never converted
    total = sum(table.values())
    if abs(total - 1) > MASS_TOLERANCE:
        raise MalformedInputError(f"masses do not sum to 1 within {MASS_TOLERANCE}")
    if total != 1:
        table = {w: p / total for w, p in table.items()}
    object.__setattr__(mu, "masses", table)
    object.__setattr__(mu, "rank", rank)


def _measure(table: dict[bytes, Fraction], rank: int) -> GroupMeasure:
    """The law of a letter table of masses >= 0, checked only for summing to 1."""
    mu = object.__new__(GroupMeasure)
    _fill(mu, table, rank)
    return mu


def uniform_generator_measure(rank: int) -> GroupMeasure:
    """The simple random walk law: uniform on the 2*rank single-letter words."""
    p = Fraction(1, 2 * rank)
    return GroupMeasure({s: p for s in FreeGroupContext(rank).generators()}, rank)


def convolve_measures(mu: GroupMeasure, nu: GroupMeasure) -> GroupMeasure:
    """(mu * nu)(w) = sum over u v = w of mu(u) nu(v).

    The laws multiply as integer numerator tables over their common
    denominators, so the masses are the exact Fraction sums with one gcd per
    output word instead of one per pair.  ResourceLimitError once the
    support passes freegroup.SUPPORT_CAP.
    """
    if mu.rank != nu.rank:
        raise ContextMismatchError(f"rank mismatch: {mu.rank} vs {nu.rank}")
    d_mu, num_mu = _numerators(mu)
    d_nu, num_nu = _numerators(nu)
    out = letter_product(num_mu, num_nu)
    d = d_mu * d_nu
    return _measure({w: Fraction(n, d) for w, n in out.items()}, mu.rank)


def _numerators(mu: GroupMeasure) -> tuple[int, dict[bytes, int]]:
    """The common denominator D of a law's masses and the integer
    numerators p * D, in the law's order."""
    d = lcm(*[p.denominator for p in mu.masses.values()])
    return d, {w: p.numerator * (d // p.denominator) for w, p in mu.masses.items()}


def measure_power(mu: GroupMeasure, n: int) -> GroupMeasure:
    """n-th convolution power; mu^0 is the Dirac mass at the identity."""
    if n < 0:
        raise MalformedInputError(f"power must be >= 0, got {n}")
    out = _measure({b"": Fraction(1)}, mu.rank)
    for _ in range(n):
        out = convolve_measures(out, mu)
    return out


def cesaro_measure(mu: GroupMeasure, n: int) -> GroupMeasure:
    """(1/n) sum_{k=0}^{n-1} mu^k; each power and the sum under freegroup.SUPPORT_CAP."""
    if n < 1:
        raise MalformedInputError(f"n must be >= 1, got {n}")
    acc: dict[bytes, Fraction] = {}
    power = _measure({b"": Fraction(1)}, mu.rank)
    for k in range(n):
        if k > 0:
            power = convolve_measures(power, mu)
        for w, p in power.masses.items():
            acc[w] = acc.get(w, 0) + p
        if len(acc) > freegroup.SUPPORT_CAP:
            raise ResourceLimitError("Cesaro support exceeds the cap", freegroup.SUPPORT_CAP)
    inv_n = Fraction(1, n)
    return _measure({w: p * inv_n for w, p in acc.items()}, mu.rank)


@dataclass(frozen=True)
class PathSample:
    """One sampled trajectory from the identity of F_rank: it stores the
    increments g_k; the positions w_k = g_1 ... g_k are formed on first read."""

    seed: int
    rank: int
    increments: tuple[Word, ...]

    @cached_property
    def positions(self) -> tuple[Word, ...]:
        w = b""
        out = [_word(w, self.rank)]
        for g in self.increments:
            w = _product_letters(w, g.letters)
            out.append(_word(w, self.rank))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.increments)


def sample_increments(mu: GroupMeasure, length: int, seed: int) -> tuple[Word, ...]:
    """Draw i.i.d. increments from mu by inverse-CDF over the support in
    length-lex order, using the Philox generator keyed by the seed."""
    if length < 0:
        raise MalformedInputError(f"length must be >= 0, got {length}")
    atoms = mu.atoms()
    cdf = np.cumsum([float(p) for _, p in atoms])
    cdf[-1] = 1.0
    rng = rng_from_seed(seed)
    draws = rng.random(length)
    idx = np.searchsorted(cdf, draws, side="right")
    return tuple(atoms[int(i)][0] for i in idx)


def sample_path(mu: GroupMeasure, length: int, seed: int) -> PathSample:
    """Sample a length-step trajectory of the mu random walk, deterministically."""
    return PathSample(seed, mu.rank, sample_increments(mu, length, seed))


def measure_convolve_element(mu: GroupMeasure, a: AlgebraElement) -> AlgebraElement:
    """The convolution action on algebra elements under the inner action:
    mu * a = sum_g mu(g) Ad_{g^-1}(a).  Preserves the canonical trace.

    Exact: the masses are integer numerators over their common denominator,
    so the result is an integer table over that denominator times a's.
    """
    if mu.rank != a.rank:
        raise ContextMismatchError(f"rank mismatch: {mu.rank} vs {a.rank}")
    d, num = _numerators(mu)
    return _conjugation_sum(a, num.items(), d)


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
