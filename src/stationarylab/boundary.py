"""Exact cylinder-measure calculus on the boundary of F_k.

A Borel probability on the space of infinite reduced words is represented by
its masses on all cylinders [w] (points starting with w) up to a stored depth.
Translation is exact: for reduced g and w the preimage g^-1[w] is either a
single cylinder or the complement of one, by the three-way analysis

    (g nu)[w] = nu[u]                    if w = g u, u nonempty
    (g nu)[g] = 1 - nu[(last letter)^-1]
    (g nu)[w] = 1 - nu[g2^-1 s^-1]       if g = w g2, s = last letter of w
    (g nu)[w] = nu[reduce(g^-1 w)]       otherwise.

Measures whose child masses split uniformly beyond some level (the uniform
measure and its translates) carry that level in `tail_uniform_from`, which
makes them evaluable at any depth: below its table a cylinder [w] has the
mass of [w[:depth]] divided by (2k-1)^(|w|-depth).  Everything else is strict
and raises depth-underflow when asked past its table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from .algebra import _float_up
from .errors import (
    ContextMismatchError,
    DepthUnderflowError,
    MalformedInputError,
    PreconditionError,
    ConvergenceError,
    UndefinedAxisError,
    UnresolvedBoundaryError,
)
from .freegroup import FreeGroupContext, Word, _ball_size, _product_letters, _sphere_size, _word
from .freegroup import _check_ball, axis_prefix, ball_letters, inverse_letters, length_lex
from .walks import GroupMeasure, PathSample

CONSISTENCY_TOL = 1e-9


class CylinderMeasure:
    """Mass table over cylinders of depth 1..depth; immutable.

    `masses` maps the letters of each cylinder's base word to its mass; the
    constructor checks a Word-keyed mapping of finite masses.
    `tail_uniform_from`: if not None, a level in 1..depth from which on child
    masses split uniformly (1/(2k-1) each), so cylinders of any depth are
    evaluable by extending the deepest stored level.  None means strict.
    """

    __slots__ = ("rank", "depth", "masses", "tail_uniform_from")

    def __init__(
        self,
        masses: Mapping[Word, object],
        rank: int,
        depth: int,
        tail_uniform_from: int | None = None,
    ):
        if depth < 1:
            raise MalformedInputError(f"depth must be >= 1, got {depth}")
        if tail_uniform_from is not None and not 1 <= tail_uniform_from <= depth:
            raise MalformedInputError(
                f"uniform tail from {tail_uniform_from} outside depth range 1..{depth}"
            )
        table = {}
        for w, m in masses.items():
            if w.rank != rank:
                raise ContextMismatchError(f"word rank {w.rank} in measure of rank {rank}")
            if not 1 <= len(w) <= depth:
                raise MalformedInputError(f"cylinder {w} outside depth range 1..{depth}")
            table[w.letters] = m
        _fill(self, table, rank, depth, tail_uniform_from)
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("CylinderMeasure is immutable")

    def _validate(self):
        # the checks read floats; a Fraction has none beyond the float range
        try:
            values = {w: float(m) for w, m in self.masses.items()}
        except OverflowError:
            raise MalformedInputError("a mass lies beyond the float range") from None
        level1 = [s.letters for s in FreeGroupContext(self.rank).generators()]
        s = sum(values.get(w, 0.0) for w in level1)
        if abs(s - 1.0) > CONSISTENCY_TOL:
            raise MalformedInputError(f"level-1 masses sum to {s}, not 1")
        for w, m in values.items():
            if not math.isfinite(m):
                raise MalformedInputError(f"mass {m} at {_word(w, self.rank)} is not finite")
            if m < -CONSISTENCY_TOL:
                raise MalformedInputError(f"negative mass {m} at {_word(w, self.rank)}")
            if len(w) < self.depth:
                back = inverse_letters(w[-1:])
                kids = sum(values.get(w + s_, 0.0) for s_ in level1 if s_ != back)
                if abs(kids - m) > CONSISTENCY_TOL:
                    raise MalformedInputError(
                        f"consistency fails at {_word(w, self.rank)}: {m} vs children {kids}"
                    )

    def mass(self, w: Word):
        """Mass of the cylinder [w]; the identity denotes the whole boundary."""
        if w.rank != self.rank:
            raise ContextMismatchError(f"word rank {w.rank} vs measure rank {self.rank}")
        return self._mass(w.letters)

    def _mass(self, w: bytes):
        n = len(w)
        if n == 0:
            return 1
        if n <= self.depth:
            return self.masses.get(w, 0)
        if self.tail_uniform_from is None:
            raise DepthUnderflowError(required_depth=n, available_depth=self.depth)
        return self.masses.get(w[: self.depth], 0) / (2 * self.rank - 1) ** (n - self.depth)

    def cylinders(self) -> list[tuple[Word, object]]:
        """(base word, mass) pairs of the stored table in length-lex word order."""
        return [(_word(w, self.rank), m) for w, m in length_lex(self.masses)]

    def level_items(self, n: int):
        rank = self.rank
        return [(_word(w, rank), self._mass(w)) for w in ball_letters(rank, n) if len(w) == n]

    def top_mass(self) -> float:
        return max(float(self._mass(w)) for w in ball_letters(self.rank, 1) if w)

    def __repr__(self) -> str:
        return (
            f"CylinderMeasure(rank={self.rank}, depth={self.depth}, "
            f"{len(self.masses)} cylinders"
            + (f", uniform tail from {self.tail_uniform_from}" if self.tail_uniform_from else "")
            + ")"
        )


def _fill(nu: CylinderMeasure, table: dict, rank: int, depth: int, tail: int | None) -> None:
    for name, value in zip(CylinderMeasure.__slots__, (rank, depth, table, tail)):
        object.__setattr__(nu, name, value)


def _cylinders(table: dict, rank: int, depth: int, tail: int | None) -> CylinderMeasure:
    """The measure of a letter table that a kernel built; unchecked."""
    nu = object.__new__(CylinderMeasure)
    _fill(nu, table, rank, depth, tail)
    return nu


def uniform_boundary_measure(context: FreeGroupContext, depth: int) -> CylinderMeasure:
    """nu[w] = 1 / (2k (2k-1)^(|w|-1)), exact; evaluable at every depth."""
    if depth < 1:
        raise MalformedInputError(f"depth must be >= 1, got {depth}")
    k = context.rank
    # one mass a level n: 1 over the number of words of length n
    level_mass = [Fraction(1, _sphere_size(k, n)) for n in range(depth + 1)]
    table = {w: level_mass[len(w)] for w in ball_letters(k, depth) if w}
    nu = _cylinders(table, k, depth, tail=1)
    nu._validate()
    return nu


def _mass_recipe(g: bytes, w: bytes) -> tuple[bool, bytes]:
    """Symbolic form of (g nu)[w]: (complement?, key) meaning nu[key] or 1 - nu[key]."""
    if not g or not w:
        return False, w
    c = 0
    m = min(len(g), len(w))
    while c < m and g[c] == w[c]:
        c += 1
    if c == len(g):
        if len(w) > len(g):
            return False, w[len(g):]
        return True, inverse_letters(g[-1:])
    if c == len(w):
        # g = w g2 and s = the last letter of w: the key is g2^-1 s^-1
        return True, inverse_letters(g[len(w) - 1 :])
    # reduce(g^-1 w): the junction after stripping the common prefix cannot
    # cancel (the letters at position c differ)
    return False, inverse_letters(g[c:]) + w[c:]


def _translated_mass(g: bytes, w: bytes, nu: CylinderMeasure):
    """(g nu)[w] = nu(g^-1 [w]) by the exact preimage decomposition."""
    comp, key = _mass_recipe(g, w)
    return 1 - nu._mass(key) if comp else nu._mass(key)


def _translate_depth(g: Word, nu: CylinderMeasure, out_depth: int | None) -> int:
    """The output depth of translate(g, nu, out_depth), checked: strict
    measures lose |g| levels, so the default is nu.depth - |g| and must be
    >= 1; uniform-tail measures take any output depth >= 1."""
    if g.rank != nu.rank:
        raise ContextMismatchError(f"word rank {g.rank} vs measure rank {nu.rank}")
    tail_in = nu.tail_uniform_from
    if out_depth is None:
        out_depth = nu.depth - len(g)
        if tail_in is not None:
            out_depth = max(out_depth, 1)
    if out_depth < 1 or (tail_in is None and out_depth > nu.depth - len(g)):
        raise DepthUnderflowError(
            required_depth=len(g) + max(out_depth, 1), available_depth=nu.depth
        )
    return out_depth


def translate(g: Word, nu: CylinderMeasure, out_depth: int | None = None) -> CylinderMeasure:
    """Pushforward g nu as a cylinder table of the given output depth, by
    default the deepest one (see _translate_depth)."""
    out_depth = _translate_depth(g, nu, out_depth)
    tail_in = nu.tail_uniform_from
    gl = g.letters
    table = {w: _translated_mass(gl, w, nu) for w in ball_letters(nu.rank, out_depth) if w}
    tail_out = None
    if tail_in is not None:
        tail_out = len(g) + tail_in
        if tail_out > out_depth:
            tail_out = None
    return _cylinders(table, nu.rank, out_depth, tail_out)


def residual_depth(mu: GroupMeasure, nu: CylinderMeasure) -> int:
    """The deepest level at which every translate g nu, g in the support of
    mu, is evaluable: nu.depth - L for a strict nu (L = max support length),
    nu.depth with a uniform tail."""
    return nu.depth - mu.max_support_length() if nu.tail_uniform_from is None else nu.depth


def stationarity_residual(
    mu: GroupMeasure, nu: CylinderMeasure, depth: int | None = None
) -> float:
    """max over cylinders of |sum_g mu(g) (g nu)[w] - nu[w]| up to the given
    depth, by default `residual_depth(mu, nu)`."""
    if mu.rank != nu.rank:
        raise ContextMismatchError(f"measure rank {mu.rank} vs {nu.rank}")
    L = mu.max_support_length()
    if depth is None:
        depth = residual_depth(mu, nu)
    if depth < 1:
        raise DepthUnderflowError(required_depth=L + 1, available_depth=nu.depth)
    atoms = length_lex(mu.masses)
    worst = 0
    for w in ball_letters(nu.rank, depth):
        if w:
            acc = sum(p * _translated_mass(g, w, nu) for g, p in atoms)
            worst = max(worst, abs(acc - nu._mass(w)))
    return float(worst)


def total_variation(nu1: CylinderMeasure, nu2: CylinderMeasure, depth: int) -> float:
    """Half the l1 distance between the two mass tables at the given level."""
    if nu1.rank != nu2.rank:
        raise ContextMismatchError(f"measure rank {nu1.rank} vs {nu2.rank}")
    return 0.5 * sum(
        abs(float(nu1._mass(w)) - float(nu2._mass(w)))
        for w in ball_letters(nu1.rank, depth)
        if len(w) == depth
    )


@dataclass(frozen=True)
class StationarySolution:
    """Output of solve_stationary: the measure plus its certificates."""

    measure: CylinderMeasure
    residual: float
    iterations: int
    hitting_level1: dict | None = None
    hitting_agrees: bool | None = None


def first_letter_hitting(mu: GroupMeasure) -> dict[Word, float] | None:
    """Harmonic measure of the level-1 cylinders for a nearest-neighbor law.

    Solves u_s = p_s + u_s sum_{t != s} p_t u_{t^-1} (probability of ever
    hitting the vertex s) by monotone iteration from 0, then
    q_s = p_s (1 - u_{s^-1}) / (1 - sum_t p_t u_{t^-1}).  Returns None when
    the walk is not certifiably transient (denominator ~ 0) or the support
    contains longer words.
    """
    p = {w: float(m) for w, m in mu.atoms()}
    supp = list(p)
    if any(len(w) != 1 for w in supp):
        return None
    u = {w: 0.0 for w in supp}
    converged = False
    for _ in range(100_000):
        nxt = {}
        for s in supp:
            sinv_rate = sum(p[t] * u.get(t.inverse(), 0.0) for t in supp if t != s)
            nxt[s] = p[s] + u[s] * sinv_rate
        delta = max(abs(nxt[s] - u[s]) for s in supp)
        u = nxt
        if delta < 1e-15:
            converged = True
            break
    denom = 1.0 - sum(p[t] * u.get(t.inverse(), 0.0) for t in supp)
    # recurrent walks drive the hitting probabilities to 1 algebraically:
    # no convergence, or a vanishing denominator, means no transience certificate
    if not converged or denom < 1e-6:
        return None
    return {s: p[s] * (1.0 - u.get(s.inverse(), 0.0)) / denom for s in supp}


def _compile_gathers(mu: GroupMeasure, W: int) -> list[tuple[float, np.ndarray, ...]]:
    """The transfer operator on the nonempty words of the ball of radius W,
    in length-lex order: one gather (p, idx, coef, const) an atom g of mu,
    p = mu(g), with (g nu)[w] = const + coef * vec[idx] for the vector vec of
    the masses of those words.  A key below the table reads its length-W
    prefix, so coef carries the sign and the uniform split 1/q^(|key| - W);
    the words exclude the identity, so no key is the identity either.

    Built one level at a time, by two facts of the length-lex order.  The
    q = 2k - 1 children of the word at position i of its level sit at
    positions q i .. q i + q - 1 of the next one.  A word w s whose parent w
    is no prefix of g has the key key(w) s, not complemented, and s has the
    same child rank after key(w) as after w.  So only the children of the
    prefixes of g go through `_mass_recipe`; every other word takes its rank
    in the child block of its parent's key while that key is shorter than W,
    and else its parent's index with one more split.
    """
    rank = mu.rank
    q = 2 * rank - 1
    # first[n]: the index of the first word of length n; first[W + 1] ends the ball
    first = np.array([0] + [_ball_size(rank, n - 1) - 1 for n in range(1, W + 2)])
    child_rank = np.arange(q)

    def position(key: bytes) -> int:
        """The position of a nonempty word within its level."""
        i = key[0]
        for prev, s in zip(key, key[1:]):
            i = q * i + s - (s > (prev ^ 1))
        return i

    gathers = []
    for g, p in length_lex(mu.masses):
        levels = []
        for n in range(1, W + 1):
            if n == 1:
                idx = np.empty(2 * rank, dtype=np.int64)
                klen = np.empty(2 * rank, dtype=np.int64)
            else:
                short = klen < W
                m = np.minimum(klen, W)
                block = np.where(short, first[m + 1] + q * (idx - first[m]), idx)
                idx = (block[:, None] + np.outer(short, child_rank)).ravel()
                klen = np.repeat(klen + 1, q)
            comp = np.zeros(len(idx), dtype=bool)
            if n <= len(g) + 1:
                # the children of the prefix of g of length n - 1
                u = g[: n - 1]
                kids = [u + bytes((c,)) for c in range(2 * rank) if not u or c != u[-1] ^ 1]
                for j, w in enumerate(kids, q * position(u) if u else 0):
                    comp[j], key = _mass_recipe(g, w)
                    idx[j] = first[min(len(key), W)] + position(key[:W])
                    klen[j] = len(key)
            levels.append((idx, klen, comp))
        idx, klen, comp = (np.concatenate(a) for a in zip(*levels))
        excess = np.maximum(klen - W, 0)
        split = np.array([1.0 / q**e for e in range(int(excess.max()) + 1)])[excess]
        gathers.append((float(p), idx, np.where(comp, -split, split), comp.astype(np.float64)))
    return gathers


def _seed_vector(seed: CylinderMeasure, W: int) -> np.ndarray:
    """The seed's masses on the nonempty words of the ball of radius W, in
    length-lex order, as floats; below its table the seed splits uniformly.
    The descendants at level n of a word of the seed's deepest level d form
    one block of q^(n - d) words, so each level below d takes one division
    a word of level d."""
    rank, d = seed.rank, seed.depth
    q = 2 * rank - 1
    top = min(d, W)
    table = [seed.masses.get(w, 0) for w in ball_letters(rank, top) if w]
    deepest = table[-_sphere_size(rank, top):]
    levels = [np.array([float(m) for m in table], dtype=np.float64)]
    for n in range(d + 1, W + 1):
        block = q ** (n - d)
        levels.append(np.repeat(np.array([float(m / block) for m in deepest]), block))
    return np.concatenate(levels)


def solve_stationary(
    mu: GroupMeasure,
    depth: int,
    tol: float = 1e-12,
    max_iter: int = 200,
    seed_measure: CylinderMeasure | None = None,
) -> StationarySolution:
    """Fixed-point iteration nu -> sum_g mu(g) g nu from the uniform seed.

    Runs on the nonempty words of the ball of radius W = depth + 2 L (L = max
    support length), indexed in length-lex order.  A translate reads
    cylinders down to W + L; those below W read their length-W prefix split
    uniformly, by the rule of `CylinderMeasure._mass`.  The seed (the uniform
    measure unless given) is read by the same rule below its table.  The
    operator is compiled one tree level at a time (`_compile_gathers`), and
    the ball's cap is checked before any of it is built.

    The residual is the largest change of the last iteration on the words up
    to W - L, whose translates stay within the table, so it does not depend
    on the splitting rule.  It is the fixed-point residual of the truncated
    operator: it does not bound the distance to the true stationary measure.
    The residual's words and the returned ones (up to depth) are length-lex
    prefixes of the working words, so one operator serves all three.
    For nearest-neighbor laws the level-1 masses are cross-checked against
    the hitting-probability fixed point.
    """
    if depth < 1:
        raise MalformedInputError(f"depth must be >= 1, got {depth}")
    if not mu.is_generating():
        raise PreconditionError("the law must generate F_k as a semigroup")
    if seed_measure is not None and seed_measure.rank != mu.rank:
        raise ContextMismatchError(f"seed rank {seed_measure.rank} vs law rank {mu.rank}")
    rank = mu.rank
    ctx = FreeGroupContext(rank)
    L = max(mu.max_support_length(), 1)
    W = depth + 2 * L
    _check_ball(rank, W)

    n_words = ctx.ball_size(W) - 1
    n_res = ctx.ball_size(W - L) - 1
    n_out = ctx.ball_size(depth) - 1
    gathers = _compile_gathers(mu, W)

    def transfer(v: np.ndarray) -> np.ndarray:
        out = np.zeros(n_words)
        for p, idx, coef, const in gathers:
            out += p * (const + coef * v[idx])
        return out

    seed = seed_measure
    if seed is None:
        seed = uniform_boundary_measure(ctx, 1)
    vec = transfer(_seed_vector(seed, W))

    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        nxt = transfer(vec)
        residual = float(np.max(np.abs(nxt[:n_res] - vec[:n_res])))
        if residual < tol:
            break
        vec = nxt
    else:
        raise ConvergenceError(
            f"no convergence within {max_iter} iterations", last_residual=residual
        )
    words = (w for w in ball_letters(rank, depth) if w)
    nu = _cylinders(dict(zip(words, vec[:n_out].tolist())), rank, depth, None)
    hitting = first_letter_hitting(mu)
    agrees = None
    if hitting is not None:
        agrees = all(
            abs(float(nu.mass(s)) - qv) < max(100 * tol, 1e-8)
            for s, qv in hitting.items()
        )
    return StationarySolution(
        measure=nu,
        residual=residual,
        iterations=iterations,
        hitting_level1=hitting,
        hitting_agrees=agrees,
    )


# ---------------------------------------------------------------------------
# conditional measures and the boundary map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalMeasure:
    """The translate w_n nu along one path, with its Dirac diagnostic.

    `top_mass`, the largest level-1 mass, comes from the depth-1 translate;
    `measure`, the depth-`depth` table, is formed on first read.
    """

    nu: CylinderMeasure
    position: Word
    depth: int
    top_mass: float

    @cached_property
    def measure(self) -> CylinderMeasure:
        return translate(self.position, self.nu, out_depth=self.depth)


def conditional_measure(
    nu: CylinderMeasure, omega: PathSample, n: int, depth: int = 1
) -> ConditionalMeasure:
    """omega_n nu = translate(omega_n, nu) as a cylinder table of the given
    depth; a strict nu must store depth |omega_n| + depth.  The checks of
    that translate run here, though the table is formed only when read."""
    if n < 0 or n >= len(omega.positions):
        raise MalformedInputError(f"step {n} outside the sampled path")
    g = omega.positions[n]
    _check_ball(nu.rank, _translate_depth(g, nu, depth))
    return ConditionalMeasure(nu, g, depth, translate(g, nu, out_depth=1).top_mass())


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point resolved to finite precision: a stable reduced prefix."""

    prefix: Word
    resolved_depth: int


def boundary_map(omega: PathSample) -> BoundaryPoint:
    """Longest prefix shared by every position in the final third of the path.

    Consecutive positions w and w g share exactly (|w| - |g| + |w g|) / 2
    letters, as g is reduced, and in a tree the prefix shared by a run of
    positions is the least of these over its consecutive pairs.  So one walk
    over the increments finds its length, and the prefix is read off the
    last position.
    """
    T = len(omega.increments)
    if T == 0:
        raise UnresolvedBoundaryError(
            "empty path has no boundary point", partial_prefix=_word(b"", omega.rank)
        )
    start = T - T // 3  # the final third is positions start..T
    w = b""
    for g in omega.increments[:start]:
        w = _product_letters(w, g.letters)
    lcp = len(w)
    for g in omega.increments[start:]:
        v = _product_letters(w, g.letters)
        lcp = min(lcp, (len(w) - len(g) + len(v)) // 2)
        w = v
    prefix = _word(w[:lcp], omega.rank)
    if lcp == 0:
        raise UnresolvedBoundaryError(
            "no stable prefix in the final third of the path", partial_prefix=prefix
        )
    return BoundaryPoint(prefix=prefix, resolved_depth=lcp)


# ---------------------------------------------------------------------------
# fixed-point mass bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixMassBound:
    """Certified interval [0, upper] for the measure of the fixed pair of g."""

    lower: float
    upper: float
    depth: int


def fix_mass(g: Word, nu: CylinderMeasure, depth: int | None = None) -> FixMassBound:
    """Upper bound nu(Fix(g)) <= nu[axis of g] + nu[axis of g^-1] at the
    deepest available (or requested) depth, summed exactly and rounded up to
    a float.  Fix(g) is the two-point set of endpoints of the axis of g, so
    nested cylinder masses certify it."""
    if g.is_identity():
        raise UndefinedAxisError("the identity fixes every point")
    if depth is None:
        depth = nu.depth
    plus = nu.mass(axis_prefix(g, depth))
    minus = nu.mass(axis_prefix(g.inverse(), depth))
    return FixMassBound(lower=0.0, upper=_float_up(Fraction(plus) + Fraction(minus)), depth=depth)
