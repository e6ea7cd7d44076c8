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
makes them evaluable at any depth; everything else is strict and raises
depth-underflow when asked past its table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    ContextMismatchError,
    CoverageError,
    DepthUnderflowError,
    MalformedInputError,
    PartialResultError,
    PreconditionError,
    ConvergenceError,
    UndefinedAxisError,
    UnresolvedBoundaryError,
)
from .freegroup import FreeGroupContext, Word, _word, axis_prefix, ball, ball_letters
from .freegroup import inverse_letters, length_lex
from .walks import GroupMeasure, PathSample, convolve_measures

CONSISTENCY_TOL = 1e-9


class CylinderMeasure:
    """Mass table over cylinders of depth 1..depth; immutable.

    `masses` maps the letters of each cylinder's base word to its mass; the
    constructor checks a Word-keyed mapping.  `tail_uniform_from`: if not
    None, child masses split uniformly (1/(2k-1) each) at every level >= that
    value, so cylinders of any depth are evaluable by extending the deepest
    stored level.  None means strict.
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
        level1 = [s.letters for s in FreeGroupContext(self.rank).generators()]
        s = sum(float(self.masses.get(w, 0)) for w in level1)
        if abs(s - 1.0) > CONSISTENCY_TOL:
            raise MalformedInputError(f"level-1 masses sum to {s}, not 1")
        for w, m in self.masses.items():
            if float(m) < -CONSISTENCY_TOL:
                raise MalformedInputError(f"negative mass {m} at {_word(w, self.rank)}")
            if len(w) < self.depth:
                back = inverse_letters(w[-1:])
                kids = sum(float(self.masses.get(w + s_, 0)) for s_ in level1 if s_ != back)
                if abs(kids - float(m)) > CONSISTENCY_TOL:
                    raise MalformedInputError(
                        f"consistency fails at {_word(w, self.rank)}: {m} vs children {kids}"
                    )

    def mass(self, w: Word):
        """Mass of the cylinder [w]; the identity denotes the whole boundary."""
        if w.rank != self.rank:
            raise ContextMismatchError(f"word rank {w.rank} vs measure rank {self.rank}")
        return self._mass(w.letters)

    def _mass(self, w: tuple[int, ...]):
        n = len(w)
        if n == 0:
            return 1
        if n <= self.depth:
            return self.masses.get(w, 0)
        if self.tail_uniform_from is not None and self.depth >= self.tail_uniform_from:
            base = self.masses.get(w[: self.depth], 0)
            extra = n - self.depth
            if isinstance(base, Fraction):
                return base / (2 * self.rank - 1) ** extra
            return base / float((2 * self.rank - 1) ** extra)
        raise DepthUnderflowError(required_depth=n, available_depth=self.depth)

    def cylinders(self) -> list[tuple[Word, object]]:
        """(base word, mass) pairs of the stored table in length-lex word order."""
        return [(_word(w, self.rank), m) for w, m in length_lex(self.masses)]

    def level_items(self, n: int):
        rank = self.rank
        return [(_word(w, rank), self._mass(w)) for w in ball_letters(rank, n) if len(w) == n]

    def top_mass(self) -> float:
        return max(float(self._mass(w)) for w in ball_letters(self.rank, 1) if w)

    def truncate(self, depth: int) -> "CylinderMeasure":
        if depth > self.depth:
            raise DepthUnderflowError(required_depth=depth, available_depth=self.depth)
        table = {w: m for w, m in self.masses.items() if len(w) <= depth}
        tail = self.tail_uniform_from
        if tail is not None and tail > depth:
            tail = None
        return _cylinders(table, self.rank, depth, tail)

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
    table = {
        w: Fraction(1, 2 * k * (2 * k - 1) ** (len(w) - 1)) for w in ball_letters(k, depth) if w
    }
    nu = _cylinders(table, k, depth, tail=1)
    nu._validate()
    return nu


def _mass_recipe(g: tuple[int, ...], w: tuple[int, ...]) -> tuple[bool, tuple[int, ...]]:
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


def _translated_mass(g: tuple[int, ...], w: tuple[int, ...], nu: CylinderMeasure):
    """(g nu)[w] = nu(g^-1 [w]) by the exact preimage decomposition."""
    comp, key = _mass_recipe(g, w)
    return 1 - nu._mass(key) if comp else nu._mass(key)


def translate(g: Word, nu: CylinderMeasure, out_depth: int | None = None) -> CylinderMeasure:
    """Pushforward g nu as a cylinder table of the given output depth.

    Strict measures lose |g| levels: the default output depth is
    nu.depth - |g| and must be >= 1.  Uniform-tail measures may be translated
    to any output depth.
    """
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
    gl = g.letters
    table = {w: _translated_mass(gl, w, nu) for w in ball_letters(nu.rank, out_depth) if w}
    tail_out = None
    if tail_in is not None:
        tail_out = len(g) + tail_in
        if tail_out > out_depth:
            tail_out = None
    return _cylinders(table, nu.rank, out_depth, tail_out)


def stationarity_residual(
    mu: GroupMeasure, nu: CylinderMeasure, depth: int | None = None
) -> float:
    """max over cylinders of |sum_g mu(g) (g nu)[w] - nu[w]| up to the common depth."""
    if mu.rank != nu.rank:
        raise ContextMismatchError(f"measure rank {mu.rank} vs {nu.rank}")
    L = mu.max_support_length()
    if depth is None:
        depth = nu.depth - L if nu.tail_uniform_from is None else nu.depth
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


def _extend_uniform(nu: CylinderMeasure, new_depth: int) -> CylinderMeasure:
    """Extend the table by splitting each deepest cylinder uniformly."""
    if new_depth <= nu.depth:
        return nu
    k = nu.rank
    gens = [s.letters for s in FreeGroupContext(k).generators()]
    table = dict(nu.masses)
    frontier = [(w, m) for w, m in nu.masses.items() if len(w) == nu.depth]
    for _ in range(new_depth - nu.depth):
        nxt = []
        for w, m in frontier:
            share = m / float(2 * k - 1) if not isinstance(m, Fraction) else m / (2 * k - 1)
            back = inverse_letters(w[-1:])
            for s in gens:
                if s == back:
                    continue
                table[w + s] = share
                nxt.append((w + s, share))
        frontier = nxt
    return _cylinders(table, k, new_depth, nu.tail_uniform_from)


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


def solve_stationary(
    mu: GroupMeasure,
    depth: int,
    tol: float = 1e-12,
    max_iter: int = 200,
    seed_measure: CylinderMeasure | None = None,
) -> StationarySolution:
    """Fixed-point iteration nu -> sum_g mu(g) g nu from the uniform seed.

    Runs at a working depth of depth + 2 L (L = max support length), with a
    uniform-split re-extension before each application so the transfer
    operator is always evaluated on exact translates; the returned residual is
    recomputed from the final table, so the certificate is honest regardless
    of the extension.  For nearest-neighbor laws the level-1 masses are
    cross-checked against the hitting-probability fixed point.
    """
    if not mu.is_generating():
        raise PreconditionError("the law must generate F_k as a semigroup")
    if seed_measure is not None and seed_measure.rank != mu.rank:
        raise ContextMismatchError(f"seed rank {seed_measure.rank} vs law rank {mu.rank}")
    rank = mu.rank
    L = max(mu.max_support_length(), 1)
    W = depth + 2 * L
    q = 2 * rank - 1

    words_W = [w for w in ball_letters(rank, W) if w]
    index_W = {w: i for i, w in enumerate(words_W)}
    words_tail = [w for w in ball_letters(rank, W + L) if len(w) > W]
    # extended vector = [current table, uniform-split tail]
    tail_parent = np.array([index_W[w[:W]] for w in words_tail], dtype=np.int64)
    tail_factor = np.array([1.0 / q ** (len(w) - W) for w in words_tail], dtype=np.float64)
    index_ext = {w: i for i, w in enumerate(words_W + words_tail)}

    # compiled transfer operator: new[w] = sum_g p_g (const + sign * vec[idx]);
    # the words exclude the identity, so no key is the identity either
    atoms = [(g, float(p)) for g, p in length_lex(mu.masses)]

    def compile_transfer(words: list[tuple[int, ...]], index: dict) -> list[tuple]:
        gathers = []
        for g, p in atoms:
            recipes = [_mass_recipe(g, w) for w in words]
            comp = np.array([c for c, _ in recipes], dtype=bool)
            idx = np.array([index[key] for _, key in recipes], dtype=np.int64)
            gathers.append((p, idx, np.where(comp, -1.0, 1.0), comp.astype(np.float64)))
        return gathers

    # the iteration reads the extended vector; the certified residual, over
    # words up to W - L, reads the raw table only
    gathers = compile_transfer(words_W, index_ext)
    words_res = [w for w in ball_letters(rank, W - L) if w]
    res_self = np.array([index_W[w] for w in words_res], dtype=np.int64)
    res_gathers = compile_transfer(words_res, index_W)

    if seed_measure is None:
        seed = uniform_boundary_measure(FreeGroupContext(rank), W)
    else:
        seed = seed_measure
        if seed.depth < W:
            seed = _extend_uniform(seed, W)
    vec = np.array([float(seed._mass(w)) for w in words_W], dtype=np.float64)

    def apply_transfer(v: np.ndarray) -> np.ndarray:
        ext = np.concatenate([v, v[tail_parent] * tail_factor])
        out = np.zeros_like(v)
        for p, idx, sign, const in gathers:
            out += p * (const + sign * ext[idx])
        return out

    def certified_residual(v: np.ndarray) -> float:
        acc = np.zeros(len(words_res))
        for p, idx, sign, const in res_gathers:
            acc += p * (const + sign * v[idx])
        return float(np.max(np.abs(acc - v[res_self]))) if len(words_res) else 0.0

    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        vec = apply_transfer(vec)
        residual = certified_residual(vec)
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"no convergence within {max_iter} iterations", last_residual=residual
        )
    nu = _cylinders(dict(zip(words_W, vec.tolist())), rank, W, None)
    hitting = first_letter_hitting(mu)
    agrees = None
    if hitting is not None:
        agrees = all(
            abs(float(nu.mass(s)) - qv) < max(100 * tol, 1e-8)
            for s, qv in hitting.items()
        )
    return StationarySolution(
        measure=nu.truncate(depth),
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
    """The translate w_n nu along one path, with its Dirac diagnostic."""

    measure: CylinderMeasure
    top_mass: float
    position: Word


def conditional_measure(
    nu: CylinderMeasure, omega: PathSample, n: int, depth: int = 1
) -> ConditionalMeasure:
    """omega_n nu, evaluated as a cylinder table of the given depth."""
    if n < 0 or n >= len(omega.positions):
        raise MalformedInputError(f"step {n} outside the sampled path")
    g = omega.positions[n]
    if nu.tail_uniform_from is None and nu.depth < len(g) + depth:
        raise DepthUnderflowError(
            required_depth=len(g) + depth, available_depth=nu.depth
        )
    meas = translate(g, nu, out_depth=depth) if not g.is_identity() else nu.truncate(depth)
    return ConditionalMeasure(measure=meas, top_mass=meas.top_mass(), position=g)


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point resolved to finite precision: a stable reduced prefix."""

    prefix: Word
    resolved_depth: int


def boundary_map(omega: PathSample) -> BoundaryPoint:
    """Longest prefix shared by every position in the final third of the path."""
    T = len(omega.increments)
    if T == 0:
        raise UnresolvedBoundaryError(
            "empty path has no boundary point", partial_prefix=omega.positions[0]
        )
    start = -(T // 3) - 1  # final third, inclusive
    tail = [w.letters for w in omega.positions[start:]]
    first = tail[0]
    limit = min(len(t) for t in tail)
    lcp = 0
    while lcp < limit and all(t[lcp] == first[lcp] for t in tail):
        lcp += 1
    prefix = _word(first[:lcp], omega.positions[0].rank)
    if lcp == 0:
        raise UnresolvedBoundaryError(
            "no stable prefix in the final third of the path", partial_prefix=prefix
        )
    return BoundaryPoint(prefix=prefix, resolved_depth=lcp)


# ---------------------------------------------------------------------------
# Poisson transform and the limit multiplication on harmonic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicFunction:
    """A table of values on a ball, produced by integrating against a measure
    on the boundary; carries its harmonicity residual."""

    values: dict[Word, complex] = field(repr=False)
    radius: int
    rank: int
    harmonicity_residual: float

    def __call__(self, g: Word) -> complex:
        try:
            return self.values[g]
        except KeyError:
            raise CoverageError([g]) from None

    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values.values())


def constant_harmonic(rank: int, radius: int, value: complex = 1.0) -> HarmonicFunction:
    ctx = FreeGroupContext(rank)
    return HarmonicFunction(
        values={g: complex(value) for g in ball(ctx, radius)},
        radius=radius,
        rank=rank,
        harmonicity_residual=0.0,
    )


def poisson_map(
    f: Mapping[Word, complex],
    nu: CylinderMeasure,
    mu: GroupMeasure,
    radius: int,
) -> HarmonicFunction:
    """values(g) = integral of f(g x) d nu(x) for g in the ball of the radius.

    f is a finite combination of cylinder indicators keyed by their base
    words; the identity key is the constant function 1.  When nu is
    mu-stationary the result is mu-harmonic on the evaluable ball, and the
    residual of the harmonicity identity is recorded.
    """
    if not f:
        raise MalformedInputError("empty cylinder function")
    ctx = FreeGroupContext(nu.rank)
    terms = length_lex({w.letters: complex(cf) for w, cf in f.items()})
    values: dict[Word, complex] = {}
    for g in ball(ctx, radius):
        acc = 0j
        for w, cf in terms:
            acc += cf * float(_translated_mass(g.letters, w, nu))
        values[g] = acc
    res = _harmonicity_residual(values, mu, ctx, radius - mu.max_support_length())
    return HarmonicFunction(
        values=values, radius=radius, rank=nu.rank, harmonicity_residual=res
    )


def _harmonicity_residual(
    values: dict[Word, complex], mu: GroupMeasure, ctx: FreeGroupContext, inner_radius: int
) -> float:
    """max |values(g) - sum_h mu(h) values(g h)| over the ball of the inner radius,
    where one averaging step stays inside the table; 0 if that radius is < 0."""
    res = 0.0
    if inner_radius >= 0:
        atoms = mu.atoms()
        for g in ball(ctx, inner_radius):
            avg = sum(float(p) * values[g * h] for h, p in atoms)
            res = max(res, abs(values[g] - avg))
    return res


@dataclass(frozen=True)
class HarmonicProduct:
    """Limit-multiplication approximant with its Cauchy diagnostics."""

    function: HarmonicFunction
    n_used: int
    cauchy_diffs: tuple[float, ...]  # max |value_n - value_{n-1}|, n = 2..n_used


def harmonic_multiply(
    f1: HarmonicFunction, f2: HarmonicFunction, mu: GroupMeasure, n_max: int
) -> HarmonicProduct:
    """The n_max-term approximant of the boundary product of two harmonic
    functions: value_n(g) = sum_h mu^n(h) f1(g h) f2(g h).

    Both martingales g omega_n converge along almost every path, so value_n
    converges to the Poisson transform of the pointwise product of the
    boundary functions; successive differences are reported.  Raises
    partial-result when the lookup radius cannot support n_max steps, carrying
    the largest feasible product.
    """
    if f1.rank != f2.rank:
        raise ContextMismatchError(f"rank mismatch: {f1.rank} vs {f2.rank}")
    if n_max < 1:
        raise MalformedInputError(f"n_max must be >= 1, got {n_max}")
    L = max(mu.max_support_length(), 1)
    R = min(f1.radius, f2.radius)
    feasible = R // L
    if n_max > feasible:
        if feasible < 1:
            raise PartialResultError(
                f"radius {R} cannot support even one convolution step", partial=None
            )
        raise PartialResultError(
            f"radius {R} supports only n_max = {feasible}",
            partial=harmonic_multiply(f1, f2, mu, feasible),
        )
    out_radius = R - n_max * L
    ctx = FreeGroupContext(f1.rank)
    eval_words = list(ball(ctx, out_radius))
    prev: dict[Word, complex] | None = None
    diffs: list[float] = []
    power = mu
    values: dict[Word, complex] = {}
    for n in range(1, n_max + 1):
        atoms = power.atoms()
        values = {}
        for g in eval_words:
            values[g] = sum(
                float(p) * f1.values[g * h] * f2.values[g * h] for h, p in atoms
            )
        if prev is not None:
            diffs.append(max(abs(values[g] - prev[g]) for g in eval_words))
        prev = values
        if n < n_max:
            power = convolve_measures(power, mu)
    # the approximant is only asymptotically harmonic; record its residual
    func = HarmonicFunction(
        values=values,
        radius=out_radius,
        rank=f1.rank,
        harmonicity_residual=_harmonicity_residual(values, mu, ctx, out_radius - L),
    )
    return HarmonicProduct(function=func, n_used=n_max, cauchy_diffs=tuple(diffs))


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
    deepest available (or requested) depth.  Fix(g) is the two-point set of
    endpoints of the axis of g, so nested cylinder masses certify it."""
    if g.is_identity():
        raise UndefinedAxisError("the identity fixes every point")
    if depth is None:
        depth = nu.depth
    plus = nu.mass(axis_prefix(g, depth))
    minus = nu.mass(axis_prefix(g.inverse(), depth))
    return FixMassBound(lower=0.0, upper=float(plus + minus), depth=depth)
