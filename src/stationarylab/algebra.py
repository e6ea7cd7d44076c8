"""Sparse arithmetic in the complex group algebra of F_k, viewed inside the
reduced group C*-algebra, with certified two-sided bounds on the reduced norm.

Every element is exact: integer tables over one positive denominator,
x = (re + i im) / den.  Products, sums and moments are integer arithmetic,
and a bound is rounded once, outward, to a float.

Lower bounds come from y = x*x.  Past n_moments 1, a radial y is a
polynomial p in the sphere sum E_1, of spectrum |t| <= 2 sqrt(2k - 1)
(Kesten 1959), so ||x||^2 = max p there: p at one rational point is the
bound.  Any other y is read through the moments of its spectral measure on
[0, ||x||^2]: log tau0(y^m) is convex in m, 0 at m = 0, and half the slope
of any chord is a lower bound for log ||x||.  The chord through the two
highest orders computed is at least every root tau0(y^m)^(1/2m) (a chord
from 0) and every ratio sqrt(tau0(y^(m+1))/tau0(y^m)) below them, so it
alone is the bound: the largest float that the exact moments, integers over
a power of den, certify.  Powers z of y come from repeated squaring; an odd
moment tau0(y z z) reads z z only at the words of y and forms no table, so
its cost is known, and checked against the support cap, before it starts.
At n_moments 1, where y is read only as two sums, it is summed piece by
piece under the same cap, and never held whole.

Upper bounds come from the l1 norm, the (n+1)-weighted layer inequality in
word length (valid on every free group), and the exact Akemann-Ostrand norms
of free families and of self-adjoint nearest-neighbour elements, each a
convex minimum over one variable, read at one point; a support that is no
free family is split into ping-pong families, and their norms summed
(Powers, Duke Math. J. 42, 1975): integer sums whose square roots
math.isqrt rounds up, the least of them rounded up to a float.

Every upper candidate is at least the floor F(x) = |x(e)| + min over t >= 0
of f(t) = sum_i sqrt(t^2 + |x(w_i)|^2) - (n - 2) t, over the n support
words w_i off e, y the part of x off e: l1 is |x(e)| + f(0); each layer
candidate is at least |x(e)| + 2 ||y||_2, which is at least f(||y||_2 / 2)
as sqrt(t^2 + w) <= t + w / 2t; the free-family candidate is f at one
point, and the nearest-neighbour one f at one point after s = 2t.  min f is
certified from below with no sign check: for any a_i in [0, 1] with
sum a_i >= n - 2, Cauchy-Schwarz gives f(t) >= sum_i sqrt(1 - a_i^2) |x(w_i)|
at every t >= 0, an integer sum whose roots math.isqrt rounds down.  The
same a_i bound the partition: sum (1 - a_i) <= 2 over all words, so over
the m words of each family too, whose f_G(t), with m - 2 in place of n - 2,
is then at least its share of that sum.  A Powers scan compares F with
epsilon before it runs the candidates.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil, exp, gcd, inf, isqrt, lcm, ldexp, log, log2, nextafter, sqrt
from sys import float_info
from typing import Iterable, Iterator, Mapping

from .errors import (
    MalformedInputError,
    ResourceLimitError,
    StationaryLabError,
)
from .freegroup import (
    Word,
    _Frozen,
    _check_rank,
    _check_support,
    _product_letters,
    _same_rank,
    _sphere_size,
    _word,
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
    letter_product_pieces,
)


def _float_up(q: Fraction) -> float:
    """The least float at least q: inf above the float range."""
    return -_float_down(-q) + 0.0  # + 0.0 makes 0.0 of -0.0


def _float_down(q: Fraction) -> float:
    """The largest float at most q: -inf below the float range."""
    try:
        f = q.numerator / q.denominator
    except OverflowError:
        return float_info.max if q > 0 else -inf
    n, d = f.as_integer_ratio()
    return nextafter(f, -inf) if n * q.denominator > q.numerator * d else f


def _exact(value, where: str) -> Fraction:
    """The one reader of the numbers the program is given, laws and elements
    alike: an int, a Fraction or a string ("1/3", "0.25") as written, a float
    at its exact binary value.  MalformedInputError naming `where` on anything
    else: a bool, None, inf, nan, a list."""
    if isinstance(value, (int, float, str, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ArithmeticError):
            pass
    raise MalformedInputError(f"{where}: {value!r} is not finite or not a number")


class AlgebraElement(_Frozen):
    """Finitely supported complex coefficient table over reduced words, exact.

    x = (re + i im) / den: `re` and `im` map the letters of support words to
    integers, exact zeros left out, and the positive integer `den` has no
    factor common to all of them.  The constructor takes a Word-keyed
    mapping of numbers, each read by `_exact`, a complex as its two float
    parts.  Immutable.
    """

    __slots__ = _fields = ("re", "im", "den", "rank")

    def __init__(self, coeffs: Mapping[Word, object], rank: int):
        _check_rank(rank)
        parts = {}
        for w, c in coeffs.items():
            _same_rank(w.rank, rank)
            parts[w.letters] = tuple(_exact(part, f"coefficient at {w}") for part in
                                     ((c.real, c.imag) if isinstance(c, complex) else (c, 0)))
        self._set(*_reduced(*_tables(parts)), rank)

    @staticmethod
    def delta(w: Word, coeff: complex = 1.0) -> "AlgebraElement":
        """The scaled translation unitary coeff * lambda_w."""
        return AlgebraElement({w: coeff}, w.rank)

    @property
    def coeffs(self) -> dict[bytes, complex]:
        """The letters of each support word and its coefficient rounded to a
        complex float: a view for display and for bench/tracer.py, which
        sizes an element by it.  No bound reads it."""
        d = self.den
        return {w: complex(self.re.get(w, 0) / d, self.im.get(w, 0) / d)
                for w in {**self.re, **self.im}}

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_rank(self.rank, other.rank)
        d = lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        re = {w: s * c for w, c in self.re.items()}
        im = {w: s * c for w, c in self.im.items()}
        for out, part in ((re, other.re), (im, other.im)):
            for w, c in part.items():
                out[w] = out.get(w, 0) + t * c
        return _element(re, im, d, self.rank)

    def __repr__(self) -> str:
        words = [w for w, _ in length_lex({**self.re, **self.im})]
        terms = ", ".join(f"{_word(w, self.rank)}: {self.re.get(w, 0)}{self.im.get(w, 0):+}j"
                          for w in words[:6])
        more = ", ..." if len(words) > 6 else ""
        return f"AlgebraElement({{{terms}{more}}} / {self.den}, rank={self.rank})"


def _tables(parts: Mapping[bytes, tuple[Fraction, Fraction]]) -> tuple[dict, dict, int]:
    """The integer tables re, im and their denominator, the least common one,
    of a letter table of (real part, imaginary part) Fractions."""
    den = lcm(*(q.denominator for pair in parts.values() for q in pair))
    re = {w: r.numerator * (den // r.denominator) for w, (r, _) in parts.items()}
    im = {w: i.numerator * (den // i.denominator) for w, (_, i) in parts.items()}
    return re, im, den


def _drop_zeros(table: dict) -> dict:
    """The table with its exact zeros deleted in place."""
    for w in [w for w, c in table.items() if c == 0]:
        del table[w]
    return table


def _reduced(re: dict, im: dict, den: int) -> tuple[dict, dict, int]:
    """The tables less their exact zeros and the denominator, divided by
    their common factor: the stored form of an element."""
    re, im = _drop_zeros(re), _drop_zeros(im)
    g = gcd(den, *re.values(), *im.values())
    if g > 1:
        re = {w: c // g for w, c in re.items()}
        im = {w: c // g for w, c in im.items()}
        den //= g
    return re, im, den


def _element(re: dict[bytes, int], im: dict[bytes, int], den: int, rank: int) -> AlgebraElement:
    """The element (re + i im) / den of two integer letter tables, unchecked.
    The element may take the tables themselves, less their zeros: the caller
    hands them over and changes them no more."""
    return AlgebraElement._new(*_reduced(re, im, den), rank)


def _centered(x: AlgebraElement) -> AlgebraElement:
    """x - tau0(x) 1: x without its identity term."""
    return _element({w: c for w, c in x.re.items() if w}, {w: c for w, c in x.im.items() if w},
                    x.den, x.rank)


def _conjugation_sum(x: AlgebraElement, weights: Iterable[tuple[bytes, int]],
                     den: int) -> AlgebraElement:
    """sum over (g, n_g) of n_g Ad_{g^-1}(x), all over den, where
    Ad_{g^-1}(lambda_w) = lambda_{g^-1 w g}, with g given by its letters."""
    re: dict[bytes, int] = {}
    im: dict[bytes, int] = {}
    terms = [(w, c, re) for w, c in x.re.items()] + [(w, c, im) for w, c in x.im.items()]
    for g, n_g in weights:
        ginv = inverse_letters(g)
        for w, c, out in terms:
            target = _product_letters(_product_letters(ginv, w), g)
            out[target] = out.get(target, 0) + n_g * c
    return _element(re, im, x.den * den, x.rank)


def convolve(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Ring product: the coefficient of w is the sum over u v = w of x(u) y(v).
    ResourceLimitError once the support passes freegroup.SUPPORT_CAP."""
    _same_rank(x.rank, y.rank)
    return _element(*_times((x.re, x.im), (y.re, y.im)), x.den * y.den, x.rank)


# ---------------------------------------------------------------------------
# certified lower bounds: exact trace moments of y = x*x
# ---------------------------------------------------------------------------


def _partial_products(a: tuple[dict, dict], b: tuple[dict, dict]) -> list[tuple]:
    """The partial products of two tables (re, im) whose product is their
    signed sum, as (part: 0 re, 1 im; sign; left; right), skipping those
    with an empty, so zero, factor."""
    (a_re, a_im), (b_re, b_im) = a, b
    return [(i, sign, u, v) for i, sign, u, v in
            ((0, 1, a_re, b_re), (0, -1, a_im, b_im), (1, 1, a_re, b_im), (1, 1, a_im, b_re))
            if u and v]


def _signed_sum(products: list[tuple], tables) -> tuple[dict, dict]:
    """(re, im) from the tables of the partial products, each added with
    its sign to its part; a table that starts a part with sign 1 is taken
    as it is."""
    sums: list[dict] = [{}, {}]
    for (i, sign, _, _), table in zip(products, tables):
        out = sums[i]
        if not out and sign == 1:
            sums[i] = table
            continue
        get = out.get
        for w, c in table.items():
            out[w] = get(w, 0) + sign * c
    return sums[0], sums[1]


def _union_size(re: dict, im: dict) -> int:
    """The number of words of re and im together, which the cap counts."""
    return len(re) + sum(w not in re for w in im)


def _times(a: tuple[dict, dict], b: tuple[dict, dict]):
    """The product of two tables (re, im) from its partial products by
    letter_product.  ResourceLimitError once the words it touches pass
    freegroup.SUPPORT_CAP."""
    products = _partial_products(a, b)
    re, im = _signed_sum(products, (letter_product(u, v) for _, _, u, v in products))
    _check_support(_union_size(re, im))
    return _drop_zeros(re), _drop_zeros(im)


def _square_sum(a: tuple[dict, dict], b: tuple[dict, dict]) -> int:
    """sum |c|^2 over the product c of two integer tables (re, im), without
    its table: the partial products of _times come from
    letter_product_pieces, and the pieces that share their first two
    letters are combined into re and im, summed and dropped.
    ResourceLimitError exactly when _times raises on the same tables: once
    the words the pieces touch, counted over re and im together, pass
    freegroup.SUPPORT_CAP."""
    products = _partial_products(a, b)
    touched = total = 0
    for _, pieces in letter_product_pieces(*((u, v) for _, _, u, v in products)):
        re, im = _signed_sum(products, pieces)
        touched += _union_size(re, im)
        _check_support(touched)
        total += sum(c * c for c in re.values()) + sum(c * c for c in im.values())
    return total


def _radial_profile(y: dict[bytes, int], rank: int) -> list[int] | None:
    """Per-length coefficient if the nonempty letter table y is constant on
    full spheres (which then hold its len(y) words between them), else None."""
    prof: dict[int, int] = {}
    for w, c in y.items():
        if prof.setdefault(len(w), c) != c:
            return None
    if sum(_sphere_size(rank, n) for n in prof) != len(y):
        return None
    return [prof.get(n, 0) for n in range(max(prof) + 1)]


def _sphere_polynomial(vals: list, k: int, t):
    """sum_l vals[l] P_l(t), where E_l = P_l(E_1) for the sphere sums E_l of
    F_k (the sum of the lambda_w with |w| = l): E_1 E_l = E_(l+1) + c E_(l-1),
    c = 2k at l = 1 and 2k - 1 past it.  Exact for ints and a Fraction t."""
    total, prev, cur = vals[0], 0, 1
    for l in range(1, len(vals)):
        prev, cur = cur, t * cur - (2 * k if l == 2 else 2 * k - 1) * prev
        total += vals[l] * cur
    return total


def _radial_bound(vals: list[int], k: int, den: int) -> float:
    """The lower bound on ||x|| for a radial y = x*x = p(E_1) / den, p the
    _sphere_polynomial of the profile vals: E_1 has spectrum [-2 sqrt(q),
    2 sqrt(q)], q = 2k - 1 (Kesten 1959), so p(t) / den <= ||x||^2 there.
    Floats choose the points t, on vals over their largest modulus (as
    integers they can overflow).  A grid of n = max(2, d^2) cells each side
    of 0 on [-T, T], for p of degree d, resolves the extrema of p (those of
    Chebyshev's lie about 5 T / d^2 apart near the ends).  The last point of
    each run that no neighbour beats is refined by ever finer grids across
    the cells beside it.  p is compared exactly at every point so found,
    clamped to [-T, T], and at -T and T, as floats tie or drift on flat p
    (T = isqrt(4q 4^_SQRT_BITS) / 2^_SQRT_BITS <= 2 sqrt(q)); the largest
    value is rounded down."""
    top = Fraction(isqrt(4 * (2 * k - 1) << 2 * _SQRT_BITS), 1 << _SQRT_BITS)
    scale = max(map(abs, vals))
    floats = [v / scale for v in vals]
    n, end = max(2, (len(vals) - 1) ** 2), float(top)
    f = partial(_sphere_polynomial, floats, k)
    grid = [j * end / n for j in range(-n, n + 1)]
    values = [*map(f, grid), -inf]  # the -inf stands beside both ends
    points = {-top, top}
    for j, t in enumerate(grid):
        if values[j - 1] <= values[j] > values[j + 1]:
            step = end
            while (step := step / n) > end * float_info.epsilon:
                points.add(t)
                t = max((min(end, max(-end, t + i * step / n)) for i in range(-n, n + 1)), key=f)
    value = max(_sphere_polynomial(vals, k, min(top, max(-top, Fraction(t)))) for t in points)
    return _bounds_from_moments({0: value.denominator, 1: value.numerator}, den)


def _odd_moment(y: tuple[dict, dict], z: tuple[dict, dict], zz_trace: int) -> int:
    """tau0(Y Z Z) for self-adjoint integer tables Y and Z, each (re, im),
    given zz_trace = tau0(Z Z), without the table Z Z: the sum over g in
    supp Y of Y(g) (Z Z)(g^-1).  The identity's term is the real Y(e) times
    zz_trace; at g != e, (Z Z)(g^-1) = sum over u of Z(u) Z(u^-1 g^-1) is
    read by lookups.  The terms at g and g^-1 are complex conjugates, so
    only the words e != g <= g^-1 are read, each counted twice, and of
    Y(g) (Z Z)(g^-1) only the real part is summed, from the signed partial
    products of Z Z that _partial_products gives _times.
    ResourceLimitError, before the first lookup, when the read words times
    |supp Z| pass freegroup.SUPPORT_CAP."""
    y_re, y_im = y
    reads = [g for g in y_re.keys() | y_im.keys() if g and g <= inverse_letters(g)]
    _check_support(len(reads) * _union_size(*z), "odd-moment lookups exceed the cap")
    # (g^-1, twice the part of Y(g))
    k_re = [(inverse_letters(g), 2 * y_re[g]) for g in reads if g in y_re]
    k_im = [(inverse_letters(g), 2 * y_im[g]) for g in reads if g in y_im]

    def part(a: dict, b: dict, ks: list) -> int:
        # sum over (h, k) in ks of k (a b)(h)
        if not ks:
            return 0
        get = b.get
        total = 0
        for u, c in a.items():
            u_inv = inverse_letters(u)
            # h cancels against u^-1 when it starts with the first letter of u
            first = u[:1]
            s = 0
            for h, k in ks:
                d = get(_product_letters(u_inv, h) if h[:1] == first else u_inv + h)
                if d:
                    s += k * d
            total += c * s
        return total

    # Re(Y(g) W(h)) = Y_re W_re - Y_im W_im, with W = Z Z: W_re the partial
    # products of part 0, W_im those of part 1
    return y_re.get(b"", 0) * zz_trace + sum(
        sign * part(a, b, k_re) if i == 0 else -sign * part(a, b, k_im)
        for i, sign, a, b in _partial_products(z, z))


def _adjoint(x: AlgebraElement) -> AlgebraElement:
    """x*, with x*(w) the conjugate of x(w^-1)."""
    return _element({inverse_letters(w): c for w, c in x.re.items()},
                    {inverse_letters(w): -c for w, c in x.im.items()}, x.den, x.rank)


def _trace_moments(x: AlgebraElement, n_moments: int, y: AlgebraElement | None = None):
    """The denominator D of y = x*x = Y / D and the exact moments
    {m: tau0(Y^m)}, so that tau0(y^m) = tau0(Y^m) / D^m.

    At n_moments 1, y is read only as tau0(Y) = sum |x(u)|^2 and
    tau0(Y^2) = sum |Y(g)|^2: the latter from _square_sum, piece by piece,
    and D is x.den^2, unreduced, which the chord does not see.  Past
    n_moments 1, y is the one given, else convolve(x*, x), and the powers of
    Y, integer table pairs (re, im), from letter_product: each power z = Y^m
    of repeated squaring gives tau0(Y^(2m)), sum |z(w)|^2 as z is
    self-adjoint, and tau0(Y^(2m+1)) = tau0(Y z z) from _odd_moment, which
    takes its identity term from tau0(Y^(2m)), reads z z only at the other
    words of Y and forms no table.  No order passes n_moments + 1, which
    comes only beside n_moments, and z is squared only while an order of the
    new power fits that rule.  The moments stop there, at the first square
    that passes freegroup.SUPPORT_CAP, or at the first odd moment whose
    lookups are predicted to pass it.
    """
    if n_moments == 1:
        # y is read only as two sums, over the unreduced denominator
        adjoint = _adjoint(x)
        trace = sum(c * c for part in (x.re, x.im) for c in part.values())
        return x.den**2, {1: trace, 2: _square_sum((adjoint.re, adjoint.im), (x.re, x.im))}
    y_element = convolve(_adjoint(x), x) if y is None else y
    y = (y_element.re, y_element.im)
    moments = {1: y[0].get(b"", 0)}
    z, m_z = y, 1
    try:
        while True:
            moments[2 * m_z] = sum(c * c for part in z for c in part.values())
            if 2 * m_z <= n_moments:
                # the chord's top order when no square follows
                moments[2 * m_z + 1] = _odd_moment(y, z, moments[2 * m_z])
            # the next power's orders 4 m_z and 4 m_z + 1 are read only up to
            # n_moments, or at n_moments + 1 beside a held tau0(Y^n_moments)
            if 4 * m_z > n_moments and not (4 * m_z == n_moments + 1 and n_moments in moments):
                break
            z = _times(z, z)
            m_z *= 2
    except ResourceLimitError:
        pass
    return y_element.den, moments


def _bounds_from_moments(moments: dict[int, int], den: int) -> float:
    """The chord lower bound on ||x|| through the two highest orders a < b
    of the exact moments {m: tau0(Y^m) = den^m tau0(y^m)}: the largest float
    r with (r^2 den)^(b-a) tau0(Y^a) <= tau0(Y^b).  The first guess splits
    off the binary exponents of both sides, so it is within a few ulps for
    integers of any size."""
    a, b = sorted(moments)[-2:]
    k = b - a
    num, dnm = moments[b], moments[a] * den**k
    e, f = num.bit_length(), dnm.bit_length()
    q, rem = divmod(e - f, 2 * k)
    frac = log2(num / (1 << e)) - log2(dnm / (1 << f))
    best = ldexp(2.0 ** ((frac + rem) / (2 * k)), q)

    def certified(r: float) -> bool:
        return (Fraction(r) ** 2) ** k * dnm <= num

    while not certified(best):
        best = nextafter(best, 0)
    while certified(up := nextafter(best, inf)):
        best = up
    return best


class _TaggedFloat(_Frozen, float):
    """A float with one tag in each of its subclass's `_fields`; arithmetic gives a float."""

    __slots__ = ()

    def __new__(cls, value: float, *tags):
        return cls._new(value, *tags)

    @classmethod
    def _new(cls, value: float, *tags):
        # float.__new__: object.__new__, in _Frozen._new, cannot build a float
        self = float.__new__(cls, value)
        self._set(*tags)
        return self

    def __reduce__(self):
        return self._new, (float(self), *(getattr(self, name) for name in self._fields))


class MomentBound(_TaggedFloat):
    """A lower bound with its `order`, the highest moment order computed up to
    the request (the request itself on the radial path), and its `method`."""

    __slots__ = _fields = ("order", "method")


def norm_lower_bound(x: AlgebraElement, n_moments: int) -> MomentBound:
    """Certified lower bound for the reduced norm of x, a MomentBound.

    Past n_moments 1, a radial y = x*x (constant on full spheres) takes
    _radial_bound, whatever n_moments is ("radial-spectrum").  Otherwise the
    bound is the chord (tau0(y^b) / tau0(y^a))^(1/(2(b-a))) through the two
    highest orders a < b computed, b <= n_moments + 1, which no root or
    successive-moment ratio beats (see the module notes), rounded down
    against the exact moments of _trace_moments ("trace-moments").  The
    moments stop early if a square of a power of y, or the lookups of an odd
    moment, would pass freegroup.SUPPORT_CAP, and the `order` is below
    n_moments.  MalformedInputError if ||x||_1^2 passes the largest float.
    """
    if n_moments < 1:
        raise MalformedInputError(f"n_moments must be >= 1, got {n_moments}")
    if not (x.re or x.im):
        return MomentBound(0.0, n_moments, "trace-moments")
    _checked_l1(x)
    y = convolve(_adjoint(x), x) if n_moments > 1 else None
    # a radial table is symmetric under w -> w^-1, so a self-adjoint one is real
    if y is not None and not y.im and (profile := _radial_profile(y.re, x.rank)):
        return MomentBound(_radial_bound(profile, x.rank, y.den), n_moments, "radial-spectrum")
    den, moments = _trace_moments(x, n_moments, y)
    achieved = max(m for m in moments if m <= n_moments)
    return MomentBound(_bounds_from_moments(moments, den), achieved, "trace-moments")


# ---------------------------------------------------------------------------
# certified upper bounds: integers in units of 1 / (den 2^_SQRT_BITS)
# ---------------------------------------------------------------------------

# the bits below the unit 1 / den that a rounded-up square root keeps
_SQRT_BITS = 64
# the largest float, an integer
_FLOAT_MAX = int(float_info.max)
# the most Newton steps that choose the point of a root-sum minimum
_NEWTON_STEPS = 16


def _sqrt_up(n: int) -> int:
    """ceil(2^_SQRT_BITS sqrt(n)) for an integer n >= 0."""
    r = isqrt(n)
    if r * r == n:  # the same value as below, without the wide root: a speed path
        return r << _SQRT_BITS
    return _isqrt_up(n << 2 * _SQRT_BITS)


def _isqrt_up(n: int) -> int:
    """ceil(sqrt(n)) for an integer n >= 0."""
    r = isqrt(n)
    return r + (r * r < n)


def _root_sum_point(weights: list[int], m: int) -> tuple[float, list[float]]:
    """A float t > 0 near the minimiser of f(t) = sum_i sqrt(t^2 + q_i) - m t,
    and the floats q_i = w_i / max w, at least the least normal float, for
    integers w_i >= 0 not all 0 and 0 < m < len(weights): t is in units of
    sqrt(max w) / den for the f of _root_sum_min.  f is convex, and its
    minimiser solves g(t) = m for g(t) = sum_i t / sqrt(t^2 + q_i).

    Newton steps in log t, safeguarded by bisecting a bracket on the root,
    keep the t of least float f, until Newton's predicted gain is below the
    float resolution of f.  The bracket runs from m / sum_i 1 / sqrt(q_i),
    as t / sqrt(t^2 + q) <= t / sqrt(q), to the equal-weight root
    sqrt(mean q) m / sqrt(n^2 - m^2), as t / sqrt(t^2 + q) is convex in q;
    that is where the steps start, and where they stop at once when the
    weights are equal.
    """
    n, scale = len(weights), max(weights)
    qs = [max(w / scale, float_info.min) for w in weights]
    t = sqrt(sum(qs) / n) * m / sqrt(n * n - m * m)
    lo, hi = log(m / sum(1 / sqrt(q) for q in qs)), log(t)
    best, step = (inf, t), hi - lo
    for _ in range(_NEWTON_STEPS):
        f, g, dg = -m * t, 0.0, 0.0
        for q in qs:
            r = sqrt(t * t + q)
            f += r
            g += t / r
            dg += q / (r * r * r)
        best = min(best, (f, t))
        if (g - m) ** 2 <= 2 * dg * f * float_info.epsilon:
            break
        u = log(t)
        lo, hi = (lo, u) if g > m else (u, hi)
        newton = (g - m) / (t * dg)
        # bisect where Newton would leave the bracket or fails to halve its
        # last step (far from the root it can creep)
        if lo < u - newton < hi and 2 * abs(newton) <= abs(step):
            step = newton
        else:
            step = u - (lo + hi) / 2
        t = exp(u - step)
    return best[1], qs


def _root_sum_min(weights: list[int], m: int) -> int:
    """den 2^_SQRT_BITS f(t) at one t >= 0, each root rounded up, for
    f(t) = sum_i sqrt(t^2 + w_i / den^2) - m t, integers w_i >= 0 not all 0
    and m < len(weights): an upper bound on min f, and on every norm that
    min f is.  Every t gives an upper bound, so floats only choose it: t = 0
    when m <= 0, else the point of _root_sum_point.
    """
    if m <= 0:
        return sum(_sqrt_up(w) for w in weights)
    point, _ = _root_sum_point(weights, m)
    num, d = point.as_integer_ratio()
    t = num * _sqrt_up(max(weights)) // d
    return sum(_isqrt_up(t * t + (w << 2 * _SQRT_BITS)) for w in weights) - m * t


def _root_sum_floor(weights: list[int], m: int) -> int:
    """den 2^_SQRT_BITS min over t >= 0 of f(t), for the f of
    _root_sum_min, rounded down; m < len(weights), and 0 for no weights.

    For a in [0, 1] and v >= 0, Cauchy-Schwarz gives
    sqrt(t^2 + v) >= a t + sqrt(1 - a^2) sqrt(v), so for a_i in [0, 1] with
    sum_i a_i >= m, f(t) >= sum_i sqrt(1 - a_i^2) sqrt(w_i) / den at every
    t >= 0, with equality at the minimiser for
    a_i = t / sqrt(t^2 + w_i / den^2).  Those a_i at the point of
    _root_sum_point (a_i = 0 when m <= 0) are rounded up to multiples of
    2^-_SQRT_BITS, and any shortfall of their sum below m that float
    rounding leaves is spread over them in proportion to 1 - a_i, so no a_i
    passes 1; every root is rounded down.  The floor needs no sign
    check: it only loses sharpness when the point is off the minimiser.
    """
    one = 1 << _SQRT_BITS
    if m <= 0:
        alphas = [0] * len(weights)
    else:
        t, qs = _root_sum_point(weights, m)
        alphas = [min(one, ceil(ldexp(t / sqrt(t * t + q), _SQRT_BITS))) for q in qs]
        short = m * one - sum(alphas)
        if short > 0:
            # short < sum of the room, as m < len(weights), so each share fits
            room = [one - a for a in alphas]
            total = sum(room)
            alphas = [a - (-short * r // total) for a, r in zip(alphas, room)]
    return sum(isqrt((one * one - a * a) * w) for a, w in zip(alphas, weights))


def _modulus(x: AlgebraElement, w: bytes) -> int:
    """den 2^_SQRT_BITS |x(w)|, rounded up: exact for a real coefficient."""
    re, im = x.re.get(w, 0), x.im.get(w, 0)
    return _sqrt_up(re * re + im * im)


def _checked_l1(x: AlgebraElement) -> int:
    """den 2^_SQRT_BITS ||x||_1, rounded up: exact for real coefficients.
    MalformedInputError if its square passes the largest float:
    ||x||^2 <= ||x||_1^2, so this bounds every float the norm brackets form."""
    l1 = sum(_modulus(x, w) for w in x.re.keys() | x.im.keys())
    if l1 * l1 > _FLOAT_MAX * (x.den << _SQRT_BITS) ** 2:
        raise MalformedInputError("the squared l1 norm of the element overflows a float")
    return l1


def _l1_normalized(x: AlgebraElement) -> AlgebraElement:
    """x over its l1 norm rounded up, when that passes 1, else x: an l1 norm
    at most 1.  MalformedInputError as _checked_l1."""
    l1 = _checked_l1(x)
    if l1 <= x.den << _SQRT_BITS:
        return x
    # (re + i im) / den over l1 / (den 2^_SQRT_BITS) is (re + i im) 2^_SQRT_BITS / l1
    return _element({w: c << _SQRT_BITS for w, c in x.re.items()},
                    {w: c << _SQRT_BITS for w, c in x.im.items()}, l1, x.rank)


def _layer_bound(pairs: Iterable[tuple[int, int]]) -> int:
    """sum over layers n of (n+1) * the l2 norm of layer n, from pairs
    (n, den^2 |c|^2), each root rounded up."""
    layers: dict[int, int] = {}
    for n, s in pairs:
        layers[n] = layers.get(n, 0) + s
    return sum((n + 1) * _sqrt_up(mass) for n, mass in layers.items())


def _splits(m: int) -> Iterator[int]:
    """1..m, nearest (m + 1) // 2 first and the smaller one first on ties."""
    mid = (m + 1) // 2
    yield mid
    for d in range(1, m):
        if mid - d >= 1:
            yield mid - d
        if mid + d <= m:
            yield mid + d


def _disjoint_cylinders(words: list[bytes]) -> bool:
    """Whether the words t_k have pairwise disjoint prefix sets
    F_k = P_k u Q_k, cylinders of the words that begin with a given prefix,
    with t_k (complement of Q_k) inside P_k and t_k^-1 (complement of P_k)
    inside Q_k.  If so, the t_k are a free family (ping-pong): a nonempty
    reduced word in them, applied letter by letter from the right to the
    identity, which lies in no F_k, lands in the P or Q of its first letter,
    so it is not the identity.  Then the Akemann-Ostrand norm of a free
    family applies to sum c_k lambda_{t_k}, not only the averaging estimate
    2 ||c||_2.

    For a reduced word t with letters t_1..t_m (the words come as their
    letters) and any split 1 <= j <= m, P = [t_1..t_j] and
    Q = [(t_j..t_m)^-1] work: t g keeps t_1..t_j unless g begins with
    (t_j..t_m)^-1, and t^-1 g keeps (t_j..t_m)^-1 unless g begins with
    t_1..t_j.  The check below greedily picks a split per word so the F's are
    pairwise disjoint, and returns False if it cannot.

    The chosen prefixes stay sorted and form an antichain (none is a prefix
    of another), so p meets a chosen q only if q is p's predecessor or p is a
    prefix of its successor.  The two prefixes of one split never meet when
    both are free: at the middle split that would make t unreduced, and at
    any other the shorter one prefixes both middle-split ones, so the middle
    split, which _splits tries first, was free too.  So one word always fits
    alone.
    """
    chosen: list[bytes] = []
    return all(_ping_pong_insert(chosen, t) for t in words)


def _ping_pong_insert(chosen: list[bytes], t: bytes) -> bool:
    """Add to the sorted antichain `chosen` the two prefixes of the first
    split of t, in _splits order, that meet none of it, and say whether
    some split did; `chosen` is left as it was if none did."""

    def clashes(p: bytes) -> bool:
        i = bisect_left(chosen, p)
        return (i < len(chosen) and chosen[i].startswith(p)) or (
            i > 0 and p.startswith(chosen[i - 1])
        )

    m, t_inv = len(t), inverse_letters(t)
    for j in _splits(m):
        # (t_j..t_m)^-1 is the first m - j + 1 letters of t^-1
        head, tail_inv = t[:j], t_inv[: m - j + 1]
        if not clashes(head) and not clashes(tail_inv):
            insort(chosen, head)
            insort(chosen, tail_inv)
            return True
    return False


def _powers_partition(rest: list[tuple[bytes, int]]) -> int:
    """den 2^_SQRT_BITS sum over G of ||y_G||, rounded up, for the parts
    y_G of y = sum_i c_i lambda(w_i) on the families G of a first-fit
    partition of the pairs (w_i, den^2 |c_i|^2), in their order, into
    ping-pong families (_ping_pong_insert): each y_G takes its free-family
    norm from _root_sum_min, which for two words or fewer is their l1 norm,
    and ||y|| <= sum_G ||y_G||."""
    families: list[tuple[list[bytes], list[int]]] = []
    for w, s in rest:
        for chosen, weights in families:
            if _ping_pong_insert(chosen, w):
                weights.append(s)
                break
        else:
            chosen = []
            _ping_pong_insert(chosen, w)
            families.append((chosen, [s]))
    return sum(_root_sum_min(weights, len(weights) - 2) for _, weights in families)


class UpperBound(_TaggedFloat):
    """A certified upper bound that carries `method`, the tag of the
    candidate that gave it."""

    __slots__ = _fields = ("method",)


def _self_adjoint_on_generators(x: AlgebraElement) -> bool:
    """Whether the part of x off e is self-adjoint and supported on the
    generators: x(a^-1) the conjugate of x(a) for every generator a."""
    for part, sign in ((x.re, 1), (x.im, -1)):
        for w, c in part.items():
            if len(w) > 1 or (w and part.get(bytes([w[0] ^ 1]), 0) != sign * c):
                return False
    return True


def norm_upper_bound(x: AlgebraElement) -> UpperBound:
    """Certified upper bound for the reduced norm of x.

    Minimum of the l1 norm, the layer inequality sum (n+1) ||x_n||_2 in
    ambient word length, and one of the following, each plus |x(e)| (the
    triangle inequality), for y, the part of x off e:
    - when y is self-adjoint and supported on the generators, with
      c_i = x(a_i) on the k generators a_i it reaches, the nearest-neighbour
      norm ||y|| = min over s > 0 of sum_i sqrt(s^2 + 4 |c_i|^2) - (k-1) s
      (Akemann-Ostrand, Amer. J. Math. 98, 1976; Woess, Random Walks on
      Infinite Graphs and Groups, 2000), after the character a_i -> c_i/|c_i|,
      a unitary conjugation, takes every c_i to |c_i|;
    - else, for n >= 3 support words off e, the free-family norm of
      y = sum_i c_i lambda(t_i) when the t_i freely generate their
      subgroup: min over t > 0 of 2t + sum_i (sqrt(t^2 + |c_i|^2) - t)
      (Akemann-Ostrand 1976; for n <= 2 it is ||y||_1), taken in the reduced
      algebra of that subgroup, which sits isometrically inside.  Freeness
      is certified by the ping-pong sets of _disjoint_cylinders or by the
      fold, when the rank of the subgroup equals n; failing both, the sum of
      the free-family norms over a partition of the support into ping-pong
      families (_powers_partition).
    The two minima are taken at one point each by _root_sum_min, which makes
    any point a true bound.  The candidates are compared exactly, and the
    least, the first listed on ties, is rounded up to the result, an
    UpperBound whose `method` names it ("zero" for x = 0).
    MalformedInputError if ||x||_1^2 passes the largest float.
    """
    if not (x.re or x.im):
        return UpperBound(0.0, "zero")
    squares = _squares(x)
    candidates = [
        (_checked_l1(x), "l1"),
        (_layer_bound((len(w), s) for w, s in squares.items()), "ambient-layers"),
    ]
    c_e = _modulus(x, b"")
    rest = [(w, s) for w, s in length_lex(squares) if w]
    if rest and _self_adjoint_on_generators(x):
        # a_i and a_i^-1 commute, so the support is no free family and no
        # freeness test runs
        gens = [4 * s for w, s in rest if not w[0] & 1]
        candidates.append((c_e + _root_sum_min(gens, len(gens) - 1), "nearest-neighbour"))
    elif len(rest) > 2:
        # only then can a freeness test win: the free-family norm is ||y||_1
        # for two words or fewer, and for more it lies below the l1 norm (f
        # falls from t = 0, where it is ||y||_1) and below |x(e)| + 2 ||y||_2,
        # the averaging estimate, which ambient-layers is at least (every
        # layer weight n + 1 is at least 2).  Both whole-support tests come
        # before the partition, which costs more than either.
        words = [w for w, _ in rest]
        if _disjoint_cylinders(words):
            tag = "disjoint-cylinders"
        elif free_basis_decomposition([_word(w, x.rank) for w in words]) == len(words):
            # the support freely generates when it is itself a free basis
            tag = "free-support"
        else:
            tag = "powers-partition"
        value = (_powers_partition(rest) if tag == "powers-partition"
                 else _root_sum_min([s for _, s in rest], len(rest) - 2))
        candidates.append((c_e + value, tag))
    bound, tag = min(candidates, key=lambda p: p[0])
    return UpperBound(_float_up(Fraction(bound, x.den << _SQRT_BITS)), tag)


def _squares(x: AlgebraElement) -> dict[bytes, int]:
    """den^2 |x(w)|^2 for each support word w, by its letters."""
    squares = {w: c * c for w, c in x.re.items()}
    for w, c in x.im.items():
        squares[w] = squares.get(w, 0) + c * c
    return squares


def _upper_bound_floor(x: AlgebraElement) -> Fraction:
    """A lower bound on every candidate of norm_upper_bound(x), so on what it
    returns: |x(e)| + min over t >= 0 of
    f(t) = sum_i sqrt(t^2 + |x(w_i)|^2) - (n - 2) t over the n support words
    w_i off e, each part rounded down (_root_sum_floor).  The module notes
    say why each candidate is at least this."""
    squares = _squares(x)
    c_e = isqrt(squares.pop(b"", 0) << 2 * _SQRT_BITS)
    weights = list(squares.values())
    return Fraction(c_e + _root_sum_floor(weights, len(weights) - 2), x.den << _SQRT_BITS)


@dataclass(frozen=True)
class NormBracket:
    """Certified two-sided bracket on the reduced norm of one element.

    moments_used is the highest trace-moment order <= the request that was
    computed, an end of the lower bound's chord, or the request on the
    "radial-spectrum" path.  It falls short of the request when
    freegroup.SUPPORT_CAP binds: on the words a square of a power z of y
    touches, or on the lookups of an odd moment tau0(y z z), (words
    g <= g^-1 of y) x |supp z|.  At n_moments 1, y is summed piece by piece,
    and the cap counts the same words as on the whole table.
    """

    lower: float
    upper: float
    moments_used: int
    lower_method: str
    upper_method: str


def certify_norm(x: AlgebraElement, n_moments: int = 8) -> NormBracket:
    """Two-sided certified bracket on the reduced norm of x.  Both sides
    are exact bounds rounded outward, so they cannot cross; if they did, that
    would be a fault in this module, and it raises, naming x."""
    lower = norm_lower_bound(x, n_moments)
    upper = norm_upper_bound(x)
    if lower > upper:
        raise StationaryLabError(f"inverted bracket [{lower}, {upper}] on {x!r}")
    return NormBracket(lower=float(lower), upper=float(upper), moments_used=lower.order,
                       lower_method=lower.method, upper_method=upper.method)
