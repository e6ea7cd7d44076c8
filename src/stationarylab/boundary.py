"""Exact cylinder-measure calculus on the boundary of F_k.

A Borel probability on the space of infinite reduced words is represented by
its masses on all cylinders [w] (points starting with w) up to a stored depth.
Translation is exact: for reduced g and w the preimage g^-1[w] is either a
single cylinder or the complement of one, by the three-way analysis

    (g nu)[w] = nu[u]                    if w = g u, u nonempty
    (g nu)[g] = 1 - nu[(last letter)^-1]
    (g nu)[w] = 1 - nu[g2^-1 s^-1]       if g = w g2, s = last letter of w
    (g nu)[w] = nu[reduce(g^-1 w)]       otherwise.

The uniform measure reads its closed form nu[w] = 1/(2k (2k-1)^(|w|-1)) at
every depth.  Every other measure, a translate of the uniform one included, is
a strict table and raises depth-underflow when asked past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING

from .algebra import _SQRT_BITS, _float_up
from .errors import (
    DepthUnderflowError,
    MalformedInputError,
    PreconditionError,
    ConvergenceError,
    UndefinedAxisError,
    UnresolvedBoundaryError,
)
from .freegroup import FreeGroupContext, Word, _Frozen, _ball_size, _push_letters, _same_rank
from .freegroup import _check_ball, _sphere_size, _word, axis_prefix, ball_letters, inverse_letters
from .freegroup import length_lex
from .walks import GroupMeasure, PathSample

if TYPE_CHECKING:
    import numpy as np

# solve_stationary's truncated operator stops at the first iteration that
# changes no residual word by TRUNCATED_TOL or more, and gives up after
# TRUNCATED_MAX_ITER; both are read at each call
TRUNCATED_TOL = 1e-12
TRUNCATED_MAX_ITER = 200


class CylinderMeasure(_Frozen):
    """Mass table over cylinders of depth 1..depth; immutable and strict: a
    cylinder deeper than the table raises DepthUnderflowError.

    `masses` maps the letters of each cylinder's base word to its mass.  Only
    the library builds tables, by `_new(rank, depth, masses)`: the uniform measure,
    `translate`, the harmonic measure and `solve_stationary`; calling the class raises TypeError.
    """

    __slots__ = _fields = ("rank", "depth", "masses")
    # whether a cylinder of every depth can be read, past the table too
    every_depth = False

    def __init__(self, *a, **k):
        raise TypeError("cylinder tables are built by the library alone")

    def mass(self, w: Word):
        """Mass of the cylinder [w]; the identity denotes the whole boundary."""
        _same_rank(w.rank, self.rank)
        return self._mass(w.letters)

    def _mass(self, w: bytes):
        n = len(w)
        if n == 0:
            return 1
        if n > self.depth:
            raise DepthUnderflowError(required_depth=n, available_depth=self.depth)
        return self.masses.get(w, 0)

    def cylinders(self) -> list[tuple[Word, object]]:
        """(base word, mass) pairs of the stored table in length-lex word order."""
        return [(_word(w, self.rank), m) for w, m in length_lex(self.masses)]

    def top_mass(self) -> float:
        """The largest mass of the 2k one-letter cylinders, as a float."""
        return max([float(self._mass(bytes((c,)))) for c in range(2 * self.rank)])

    def __repr__(self) -> str:
        return (
            f"CylinderMeasure(rank={self.rank}, depth={self.depth}, "
            f"{len(self.masses)} cylinders)"
        )


class _UniformMeasure(CylinderMeasure):
    """The uniform measure: its closed form at every depth.  The table up to
    `depth` holds the same masses, for the readers of `masses`."""

    __slots__ = ()
    every_depth = True

    def _mass(self, w: bytes):
        return _uniform_mass(self.rank, len(w))


# bounded: along a long path the denominators grow to thousands of digits
@lru_cache(maxsize=256)
def _uniform_mass(rank: int, n: int) -> Fraction:
    """1 over the number of words of length n: the uniform mass of each."""
    return Fraction(1, _sphere_size(rank, n))


def uniform_boundary_measure(context: FreeGroupContext, depth: int) -> CylinderMeasure:
    """nu[w] = 1 / (2k (2k-1)^(|w|-1)), exact and read at every depth; the
    table holds the masses up to the given depth."""
    if depth < 1:
        raise MalformedInputError(f"depth must be >= 1, got {depth}")
    k = context.rank
    table = {w: _uniform_mass(k, len(w)) for w in ball_letters(k, depth) if w}
    return _UniformMeasure._new(k, depth, table)


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
    """The output depth of translate(g, nu, out_depth), checked: a strict
    table loses |g| levels, so the default is nu.depth - |g| and must be
    >= 1; a measure read at every depth takes any output depth >= 1.  An
    explicit depth below 1 is malformed, whatever nu stores."""
    _same_rank(g.rank, nu.rank)
    deepest = nu.depth - len(g)
    if out_depth is None:
        out_depth = max(deepest, 1) if nu.every_depth else deepest
    elif out_depth < 1:
        raise MalformedInputError(f"out_depth must be >= 1, got {out_depth}")
    if out_depth < 1 or (not nu.every_depth and out_depth > deepest):
        raise DepthUnderflowError(
            required_depth=len(g) + max(out_depth, 1), available_depth=nu.depth
        )
    return out_depth


def translate(g: Word, nu: CylinderMeasure, out_depth: int | None = None) -> CylinderMeasure:
    """Pushforward g nu as a strict cylinder table of the given output
    depth, by default the deepest one (see _translate_depth)."""
    out_depth = _translate_depth(g, nu, out_depth)
    gl = g.letters
    table = {w: _translated_mass(gl, w, nu) for w in ball_letters(nu.rank, out_depth) if w}
    return CylinderMeasure._new(nu.rank, out_depth, table)


def stationarity_residual(
    mu: GroupMeasure, nu: CylinderMeasure, depth: int | None = None
) -> Fraction | float:
    """max over cylinders of |sum_g mu(g) (g nu)[w] - nu[w]| up to the given
    depth, by default the deepest at which every translate g nu, g in the
    support of mu, can be read: nu.depth - L for a strict table (L = max
    support length), nu.depth for a measure read at every depth.  A Fraction
    when the masses of nu are exact, as those of mu always are.
    MalformedInputError for a depth below 1; DepthUnderflowError, which
    names L + 1, for a strict table too shallow for the default."""
    _same_rank(mu.rank, nu.rank)
    L = mu.max_support_length()
    if depth is None:
        depth = nu.depth if nu.every_depth else nu.depth - L
        if depth < 1:
            raise DepthUnderflowError(required_depth=L + 1, available_depth=nu.depth)
    elif depth < 1:
        raise MalformedInputError(f"depth must be >= 1, got {depth}")
    atoms = length_lex(mu.masses)
    worst = Fraction(0)
    for w in ball_letters(nu.rank, depth):
        if w:
            acc = sum(p * _translated_mass(g, w, nu) for g, p in atoms)
            worst = max(worst, abs(acc - nu._mass(w)))
    return worst


def require_stationary(mu: GroupMeasure, nu: CylinderMeasure) -> None:
    """The stationarity check of a caller that reads nu as mu's stationary
    measure: the residual of (mu, nu) must be exactly 0, else
    PreconditionError names it.  A strict table is checked as deep as its
    translates can be read.  The uniform measure is checked to depth L + 1
    (L = max support length), which decides every depth: for |w| > L the
    closed form gives (g nu)[w] = nu[w] (2k-1)^(2c - |g|), c the common
    prefix length of g and w, so the residual at w is nu[w] times a factor
    that only w[:L] sets."""
    L = mu.max_support_length()
    depth = L + 1 if nu.every_depth else nu.depth - L
    # a strict table takes the default depth, which refuses one too shallow
    residual = stationarity_residual(mu, nu, depth if nu.every_depth else None)
    if residual != 0:
        raise PreconditionError(
            f"nu is not stationary for the law: residual {residual} "
            f"({float(residual):.3e}) on cylinders up to depth {depth}"
        )


@dataclass(frozen=True)
class StationarySolution:
    """Output of solve_stationary; the harmonic measure has no residual and 0 iterations."""

    measure: CylinderMeasure
    residual: float | None
    iterations: int
    hitting_agrees: bool | None = None


def _harmonic_measure(mu: GroupMeasure, depth: int) -> CylinderMeasure | None:
    """The harmonic measure of a nearest-neighbor law to the given depth
    (Dynkin-Malyutov 1961), nu[x1 ... xn] = u(x1) ... u(x_{n-1}) q(xn), each
    mass one integer product rounded once; None for a longer support word or
    a recurrent walk.  With p, p' the masses of a letter and its inverse and
    e0 that of the identity, the walk ever hits s with probability
    u(s) = mu(s) r, r = 2 / (w + sqrt(w^2 + 4pp')), and
    q(s) = mu(s) (1 - u(s^-1)) / w, for w the largest root on [0, 1 - e0]
    of the convex f(w) = sum over pairs of sqrt(w^2 + 4pp') - (k-1) w - (1-e0).
    f(0) <= 0 by AM-GM, so f > 0 exactly past w; w = 0 (recurrence) exactly
    when p = p' on every pair and at most one pair has mass.  w is bisected
    in units of 1 / (den 2^_SQRT_BITS), and u and q read at the bracket's
    upper end with the roots rounded up: no u passes 1, no q is negative."""
    letters = FreeGroupContext(mu.rank).generators()
    n = {s: mu.weights.get(s.letters, 0) for s in letters}
    if mu.max_support_length() > 1 or (all(n[s] == n[s.inverse()] for s in letters)
                                       and sum(map(bool, n.values())) <= 2):
        return None
    # (den 2^_SQRT_BITS)^2 4 p p' a letter: the sums below count each pair twice
    c = {s: 4 * n[s] * n[s.inverse()] << 2 * _SQRT_BITS for s in letters}
    top = sum(n.values()) << _SQRT_BITS
    lo, hi = 0, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        # f(mid) > 0 with the roots rounded down: w < mid
        past = sum(math.isqrt(mid * mid + x) for x in c.values()) > 2 * ((mu.rank - 1) * mid + top)
        lo, hi = (lo, mid) if past else (mid, hi)
    # by letter code: u = un / d, q = qn / (2 hi d), d = den 2^_SQRT_BITS (w + sqrt(w^2 + 4pp'))
    d = {s.letters[0]: hi + math.isqrt(hi * hi + c[s] - 1) + 1 for s in letters}
    un = {s.letters[0]: n[s] << _SQRT_BITS + 1 for s in letters}
    qn = {s: un[s] * (d[s] - un[s ^ 1]) for s in un}
    # a prefix holds the numerator of its u product and 2 hi times its denominator
    table, pre = {}, {b"": (1, 2 * hi)}
    for w in islice(ball_letters(mu.rank, depth), 1, None):
        (num, den), s = pre[w[:-1]], w[-1]
        table[w] = num * qn[s] / (den := den * d[s])
        if len(w) < depth:
            pre[w] = num * un[s], den
    return CylinderMeasure._new(mu.rank, depth, table)


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
    import numpy as np

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
    for g, n_g in length_lex(mu.weights):
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
        gathers.append((n_g / mu.den, idx, np.where(comp, -split, split), comp.astype(np.float64)))
    return gathers


def _uniform_vector(rank: int, W: int) -> np.ndarray:
    """The uniform measure's masses on the nonempty words of the ball of
    radius W, in length-lex order: 1 over the number of words of length n on
    each word of level n."""
    import numpy as np

    sizes = [_sphere_size(rank, n) for n in range(1, W + 1)]
    return np.repeat([1 / s for s in sizes], sizes)


def solve_stationary(mu: GroupMeasure, depth: int) -> StationarySolution:
    """The stationary measure's cylinder masses up to depth.

    A transient nearest-neighbor law (an identity atom allowed) reads them
    off `_harmonic_measure`, each one integer product rounded once to a float;
    its depth is capped by the output ball alone.  Every other law takes the
    fixed-point iteration nu -> sum_g mu(g) g nu from the uniform measure,
    until an iteration changes no residual word by TRUNCATED_TOL or more;
    ConvergenceError, with the last residual, after TRUNCATED_MAX_ITER.

    It runs on the nonempty words of the ball of radius W = depth + 2 L
    (L = max support length), indexed in length-lex order.  A translate reads
    cylinders down to W + L; a cylinder [w] below W reads its length-W prefix
    split uniformly, its mass divided by (2k-1)^(|w| - W), as the uniform
    measure's masses split.  The operator is compiled one tree level at a
    time (`_compile_gathers`), its ball's cap checked first.

    The residual is the largest change of the last iteration on the words up
    to W - L, whose translates stay within the table, so it does not depend
    on the splitting rule.  It is the fixed-point residual of the truncated
    operator: it does not bound the distance to the true stationary measure.
    The residual's words and the returned ones (up to depth) are length-lex
    prefixes of the working words, so one operator serves all three.
    """
    if depth < 1:
        raise MalformedInputError(f"depth must be >= 1, got {depth}")
    if not mu.is_generating():
        raise PreconditionError("the law must generate F_k as a semigroup")
    rank = mu.rank
    nu = _harmonic_measure(mu, depth)
    if nu is not None:
        return StationarySolution(nu, None, 0, True)

    import numpy as np

    L = max(mu.max_support_length(), 1)
    W = depth + 2 * L
    _check_ball(rank, W, f"the solver works on the ball of radius depth + 2L = {W} "
                         f"(depth {depth}, L {L}); ")

    n_words = _ball_size(rank, W) - 1
    n_res = _ball_size(rank, W - L) - 1
    n_out = _ball_size(rank, depth) - 1
    gathers = _compile_gathers(mu, W)

    def transfer(v: np.ndarray) -> np.ndarray:
        out = np.zeros(n_words)
        for p, idx, coef, const in gathers:
            out += p * (const + coef * v[idx])
        return out

    vec = transfer(_uniform_vector(rank, W))

    residual = float("inf")
    iterations = 0
    for iterations in range(1, TRUNCATED_MAX_ITER + 1):
        nxt = transfer(vec)
        residual = float(np.max(np.abs(nxt[:n_res] - vec[:n_res])))
        if residual < TRUNCATED_TOL:
            break
        vec = nxt
    else:
        raise ConvergenceError(
            f"no convergence within {TRUNCATED_MAX_ITER} iterations", last_residual=residual
        )
    words = (w for w in ball_letters(rank, depth) if w)
    nu = CylinderMeasure._new(rank, depth, dict(zip(words, vec[:n_out].tolist())))
    return StationarySolution(measure=nu, residual=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# conditional measures and the boundary map
# ---------------------------------------------------------------------------


def conditional_measure(
    nu: CylinderMeasure, omega: PathSample, n: int, depth: int = 1
) -> CylinderMeasure:
    """omega_n nu = translate(omega_n, nu) as a cylinder table of the given
    depth; a strict nu must store depth |omega_n| + depth."""
    if n < 0 or n >= len(omega.positions):
        raise MalformedInputError(f"step {n} outside the sampled path")
    return translate(omega.positions[n], nu, out_depth=depth)


def boundary_map(omega: PathSample) -> Word:
    """Longest prefix shared by every position in the final third of the
    path: a boundary point resolved to finite precision, its length the
    resolved depth.

    The position is a letter stack (`freegroup._push_letters`).  A reduced
    increment pops the letters it cancels and pushes the rest, so the
    positions around it share the stack below its least height, and in a tree
    a run of positions shares the least of these: the height where the final
    third begins, lowered by every pop after it.  Nothing below that height
    moves again, so the prefix is read off the final stack.
    """
    incs = omega.increments
    if not incs:
        raise UnresolvedBoundaryError(
            "empty path has no boundary point", partial_prefix=_word(b"", omega.rank)
        )
    start = len(incs) - len(incs) // 3  # the final third is positions start..T
    stack = bytearray()
    _push_letters(stack, b"".join([g.letters for g in incs[:start]]))
    lcp = _push_letters(stack, b"".join([g.letters for g in incs[start:]]))
    prefix = _word(bytes(stack[:lcp]), omega.rank)
    if lcp == 0:
        raise UnresolvedBoundaryError(
            "no stable prefix in the final third of the path", partial_prefix=prefix
        )
    return prefix


# ---------------------------------------------------------------------------
# fixed-point mass bounds
# ---------------------------------------------------------------------------


def fix_mass(g: Word, nu: CylinderMeasure, depth: int) -> float:
    """Upper bound nu(Fix(g)) <= nu[axis of g] + nu[axis of g^-1] at the
    given depth, summed exactly and rounded up to a float.  Fix(g) is the
    two-point set of endpoints of the axis of g, so nested cylinder masses
    certify it."""
    if g.is_identity():
        raise UndefinedAxisError("the identity fixes every point")
    plus = nu.mass(axis_prefix(g, depth))
    minus = nu.mass(axis_prefix(g.inverse(), depth))
    return _float_up(Fraction(plus) + Fraction(minus))
