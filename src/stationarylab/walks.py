"""Finitely supported probability laws on F_k, convolution powers, seeded path
sampling, Cesaro averages, and the convolution action on algebra elements.

Every law is exact and stored as algebra elements are: integer weights over
one denominator, their sum, each mass read by `algebra._exact`.

All randomness flows through numpy's Philox counter-based 64-bit generator:
identical seeds give identical samples, run to run.  Increments are drawn by
inverse-CDF over the support in the fixed length-lex word order.

numpy is imported at the first sample, not with this module, as by the
truncated operator in `boundary` and the Gram check and escape statistics in
`subgroups`: the exact runs (norm, cesaro, geometric powers, build-mu, fix-mass,
fdstates, boundary-solve of a transient nearest-neighbour law) never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING, Mapping, Sequence

from .algebra import AlgebraElement, _conjugation_sum, _exact
from .errors import (
    MalformedInputError,
    PreconditionError,
)
from .freegroup import FreeGroupContext, Word, _check_support, length_lex, letter_product
from .freegroup import _product_letters, _same_rank, _word

if TYPE_CHECKING:
    import numpy as np

MASS_TOLERANCE = 1e-12


def rng_from_seed(*seed_parts: int) -> np.random.Generator:
    """The package-wide RNG: Philox keyed by the given integer sequence."""
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed_parts))))


class GroupMeasure:
    """A finitely supported probability measure on F_rank.

    `weights` maps the letters of each support word to a positive integer,
    and `den` is their sum: the mass of w is weights[w] / den, and `masses`
    is that Fraction view.  The constructor reads a Word-keyed mapping of
    masses by `_exact_weights`.  Accessors speak Words.  Immutable.  Weights
    are kept as built, not reduced.
    """

    __slots__ = ("weights", "den", "rank")

    def __init__(self, masses: Mapping[Word, object], rank: int):
        for w in masses:
            _same_rank(w.rank, rank)
        weights, den = _exact_weights(masses)
        _fill(self, {w.letters: n for w, n in weights.items()}, den, rank)

    def __setattr__(self, *a):
        raise AttributeError("GroupMeasure is immutable")

    @staticmethod
    def uniform_on(words: Sequence[Word]) -> "GroupMeasure":
        words = list(words)
        if not words:
            raise MalformedInputError("a uniform law needs at least one word")
        return GroupMeasure(dict.fromkeys(words, Fraction(1, len(words))), words[0].rank)

    @staticmethod
    def dirac(w: Word) -> "GroupMeasure":
        return GroupMeasure({w: Fraction(1)}, w.rank)

    @property
    def masses(self) -> dict[bytes, Fraction]:
        """The mass of each support word, keyed by its letters, built on read."""
        return {w: Fraction(n, self.den) for w, n in self.weights.items()}

    def atoms(self) -> list[tuple[Word, Fraction]]:
        """(word, mass) pairs in length-lex word order."""
        return [(_word(w, self.rank), p) for w, p in length_lex(self.masses)]

    def mass(self, w: Word):
        """The mass of w: a Fraction on the support, 0 off it."""
        _same_rank(w.rank, self.rank)
        n = self.weights.get(w.letters)
        return 0 if n is None else Fraction(n, self.den)

    def max_support_length(self) -> int:
        return max((len(w) for w in self.weights), default=0)

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
        supp = [w for w in self.weights if w]
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

        if not accepted():
            _check_support(len(letters) * n**3, "generation test: saturation work exceeds the cap")
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
        return (isinstance(other, GroupMeasure) and self.rank == other.rank
                and self.masses == other.masses)

    def __repr__(self) -> str:
        atoms = ", ".join(f"{w}: {p}" for w, p in self.atoms()[:6])
        return f"GroupMeasure({{{atoms}{'...' if len(self.weights) > 6 else ''}}})"


def _exact_weights(masses: Mapping) -> tuple[dict, int]:
    """The masses, keyed as given, as integer weights over one denominator,
    and the weights' total.  GroupMeasure's rule: each mass is read by
    `_mass`, and their total must be 1 within MASS_TOLERANCE.  The law is the
    weights over their total, so normalising takes no division."""
    table = {k: _mass(p, f"mass at {k}") for k, p in masses.items()}
    den = lcm(*[p.denominator for p in table.values()])
    weights = {k: p.numerator * (den // p.denominator) for k, p in table.items()}
    total = sum(weights.values())
    # compared exactly: a Fraction beyond the float range is never converted
    if abs(Fraction(total, den) - 1) > MASS_TOLERANCE:
        raise MalformedInputError(f"masses do not sum to 1 within {MASS_TOLERANCE}")
    return weights, total


def _mass(p, where: str) -> Fraction:
    """A mass read by `_exact`; MalformedInputError naming `where` below 0."""
    q = _exact(p, where)
    if q < 0:
        raise MalformedInputError(f"{where}: {q} is negative")
    return q


def _measure(weights: dict[bytes, int], den: int, rank: int) -> GroupMeasure:
    """The law of integer weights >= 0 over den, checked only for summing to den."""
    if sum(weights.values()) != den:
        raise MalformedInputError(f"law weights do not sum to their denominator {den}")
    mu = object.__new__(GroupMeasure)
    _fill(mu, weights, den, rank)
    return mu


def _fill(mu: GroupMeasure, weights: dict[bytes, int], den: int, rank: int) -> None:
    object.__setattr__(mu, "weights", {w: n for w, n in weights.items() if n > 0})
    object.__setattr__(mu, "den", den)
    object.__setattr__(mu, "rank", rank)


def uniform_generator_measure(rank: int) -> GroupMeasure:
    """The simple random walk law: uniform on the 2*rank single-letter words."""
    return GroupMeasure.uniform_on(FreeGroupContext(rank).generators())


def convolve_measures(mu: GroupMeasure, nu: GroupMeasure) -> GroupMeasure:
    """(mu * nu)(w) = sum over u v = w of mu(u) nu(v).

    The weight tables multiply as integers over the product of the
    denominators, so the masses are the exact sums.  ResourceLimitError once
    the support passes freegroup.SUPPORT_CAP.
    """
    _same_rank(mu.rank, nu.rank)
    return _measure(letter_product(mu.weights, nu.weights), mu.den * nu.den, mu.rank)


def cesaro_measure(mu: GroupMeasure, n: int) -> GroupMeasure:
    """(1/n) sum_{k=0}^{n-1} mu^k, summed as integers over the last power's
    denominator; each power and the sum under freegroup.SUPPORT_CAP."""
    if n < 1:
        raise MalformedInputError(f"n must be >= 1, got {n}")
    power, acc = _measure({b"": 1}, 1, mu.rank), {b"": 1}
    for _ in range(1, n):
        power = convolve_measures(power, mu)
        acc = {w: c * mu.den for w, c in acc.items()}
        for w, c in power.weights.items():
            acc[w] = acc.get(w, 0) + c
        _check_support(len(acc), "Cesaro support exceeds the cap")
    return _measure(acc, n * power.den, mu.rank)


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
    length-lex order, using the Philox generator keyed by the seed.  The
    draws' atom numbers come back from numpy as one Python list (`tolist`),
    so each draw is a plain list lookup, not a numpy-scalar `int()`."""
    import numpy as np

    if length < 0:
        raise MalformedInputError(f"length must be >= 0, got {length}")
    atoms = [(_word(w, mu.rank), n / mu.den) for w, n in length_lex(mu.weights)]
    cdf = np.cumsum([p for _, p in atoms])
    cdf[-1] = 1.0
    rng = rng_from_seed(seed)
    draws = rng.random(length)
    idx = np.searchsorted(cdf, draws, side="right").tolist()
    return tuple([atoms[i][0] for i in idx])


def sample_path(mu: GroupMeasure, length: int, seed: int) -> PathSample:
    """Sample a length-step trajectory of the mu random walk, deterministically."""
    return PathSample(seed, mu.rank, sample_increments(mu, length, seed))


def measure_convolve_element(mu: GroupMeasure, a: AlgebraElement) -> AlgebraElement:
    """The convolution action on algebra elements under the inner action:
    mu * a = sum_g mu(g) Ad_{g^-1}(a).  Preserves the canonical trace.

    Exact: the law's integer weights act on a's integer tables, so the
    result is an integer table over mu.den times a's denominator.
    """
    _same_rank(mu.rank, a.rank)
    return _conjugation_sum(a, mu.weights.items(), mu.den)


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
