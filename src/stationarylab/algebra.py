"""Sparse arithmetic in the complex group algebra of F_k, viewed inside the
reduced group C*-algebra, with certified two-sided bounds on the reduced norm.

Every element is exact: integer tables over one positive denominator,
x = (re + i im) / den.  Products, sums and moments are integer arithmetic,
and a bound is rounded once, outward, to a float.

Lower bounds come from trace moments of y = x*x: both tau0(y^m)^(1/2m) and the
successive-moment ratio sqrt(tau0(y^(m+1))/tau0(y^m)) are true lower bounds for
the reduced norm (the spectral measure of y against the canonical trace lives
on [0, ||x||^2]), and both are nondecreasing in m.  The moments are exact
integers over a power of den, and the bound is the largest float that they
certify.  Upper bounds come from the l1 norm, the (n+1)-weighted layer
inequality in word length (valid on every free group), the same inequality
after rewriting the support over a free basis of the subgroup it generates,
and a disjoint-cylinder averaging estimate: integer sums whose square roots
math.isqrt rounds up, the least of them rounded up to a float.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isqrt, lcm, ldexp, log2, nextafter, sqrt
from sys import float_info
from typing import Iterable, Iterator, Mapping

from . import freegroup
from .errors import (
    ContextMismatchError,
    MalformedInputError,
    ResourceLimitError,
    StationaryLabError,
)
from .freegroup import (
    Word,
    _product_letters,
    _sphere_size,
    _word,
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
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


class AlgebraElement:
    """Finitely supported complex coefficient table over reduced words, exact.

    x = (re + i im) / den: `re` and `im` map the letters of support words to
    integers, exact zeros left out, and the positive integer `den` has no
    factor common to all of them.  The constructor takes a Word-keyed
    mapping of numbers: an int or a Fraction is read as itself, a float at
    its exact binary value and a complex as its two float parts.  Immutable.
    """

    __slots__ = ("re", "im", "den", "rank")

    def __init__(self, coeffs: Mapping[Word, object], rank: int):
        parts = {}
        for w, c in coeffs.items():
            if w.rank != rank:
                raise ContextMismatchError(f"word rank {w.rank} in element of rank {rank}")
            try:
                parts[w.letters] = tuple(
                    map(Fraction, (c.real, c.imag) if isinstance(c, complex) else (c, 0)))
            except (ValueError, TypeError, ArithmeticError) as exc:
                raise MalformedInputError(
                    f"coefficient {c!r} at {w} is not finite or not a number"
                ) from exc
        _fill(self, *_tables(parts), rank)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

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
        self._check(other)
        d = lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        re = {w: s * c for w, c in self.re.items()}
        im = {w: s * c for w, c in self.im.items()}
        for out, part in ((re, other.re), (im, other.im)):
            for w, c in part.items():
                out[w] = out.get(w, 0) + t * c
        return _element(re, im, d, self.rank)

    def _check(self, other: "AlgebraElement") -> None:
        if self.rank != other.rank:
            raise ContextMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")

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


def _fill(x: AlgebraElement, re: dict, im: dict, den: int, rank: int) -> None:
    re, im = _drop_zeros(re), _drop_zeros(im)
    g = gcd(den, *re.values(), *im.values())
    if g > 1:
        re = {w: c // g for w, c in re.items()}
        im = {w: c // g for w, c in im.items()}
        den //= g
    for name, value in (("re", re), ("im", im), ("den", den), ("rank", rank)):
        object.__setattr__(x, name, value)


def _element(re: dict[bytes, int], im: dict[bytes, int], den: int, rank: int) -> AlgebraElement:
    """The element (re + i im) / den of two integer letter tables, unchecked.
    The element may take the tables themselves, less their zeros: the caller
    hands them over and changes them no more."""
    x = object.__new__(AlgebraElement)
    _fill(x, re, im, den, rank)
    return x


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
    x._check(y)
    return _element(*_times((x.re, x.im), (y.re, y.im), letter_product), x.den * y.den, x.rank)


# ---------------------------------------------------------------------------
# certified lower bounds: exact trace moments of y = x*x
# ---------------------------------------------------------------------------


def _times(a: tuple[dict, dict], b: tuple[dict, dict], product):
    """The product of two tables (re, im) from four partial products by
    `product`, skipping those with an empty, so zero, factor.
    ResourceLimitError once the words it touches pass freegroup.SUPPORT_CAP."""
    (a_re, a_im), (b_re, b_im) = a, b

    def part(u, v):
        return product(u, v) if u and v else {}

    re, im = part(a_re, b_re), part(a_re, b_im)
    for out, sign, c_part in ((re, -1, part(a_im, b_im)), (im, 1, part(a_im, b_re))):
        for w, c in c_part.items():
            out[w] = out.get(w, 0) + sign * c
    cap = freegroup.SUPPORT_CAP
    if im and len(re) + sum(w not in re for w in im) > cap:
        raise ResourceLimitError("convolution support exceeds the cap", cap)
    return _drop_zeros(re), _drop_zeros(im)


def _radial_profile(y: dict[bytes, int], rank: int) -> list[int] | None:
    """Per-length coefficient if the nonempty letter table y is constant on
    full spheres, else None."""
    prof: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for w, c in y.items():
        if prof.setdefault(len(w), c) != c:
            return None
        sizes[len(w)] = sizes.get(len(w), 0) + 1
    if any(size != _sphere_size(rank, n) for n, size in sizes.items()):
        return None
    return [prof.get(n, 0) for n in range(max(prof) + 1)]


def _radial_moments(vals: list[int], k: int, n_moments: int) -> list[int]:
    """tau0(y^m), m = 1..n_moments, for a radial y with the per-length profile vals.

    Works in the sphere-sum basis E_l (the sum of all lambda_w with |w| = l):
    E_1 E_l = E_{l+1} + (2k-1) E_{l-1} for l >= 2, E_1 E_1 = E_2 + 2k E_0, and
    every radial element is a polynomial in E_1, so applying y to a radial
    vector only needs the tridiagonal action of E_1.
    """
    q = 2 * k - 1

    def apply_T(v):
        out = [0] + v
        for l in range(1, len(v)):
            out[l - 1] += (2 * k if l == 1 else q) * v[l]
        return out

    def apply_y(v):
        # y = sum_l vals[l] E_l with E_0 = 1, E_1 = X, E_2 = X E_1 - 2k E_0 and
        # E_{l+1} = X E_l - (2k-1) E_{l-1} for l >= 2
        acc = [vals[0] * t for t in v]
        e_prev, e_cur = [], v
        for l in range(1, len(vals)):
            e_prev, e_cur = e_cur, _axpy(apply_T(e_cur), -(2 * k if l == 2 else q), e_prev)
            acc = _axpy(acc, vals[l], e_cur)
        return acc

    v = [1]
    moments = []
    for _ in range(n_moments):
        v = apply_y(v)
        moments.append(v[0])
    return moments


def _axpy(a: list[int], c: int, b: list[int]) -> list[int]:
    """a + c b, for lists of any lengths."""
    a = a + [0] * (len(b) - len(a))
    return [s + c * t for s, t in zip(a, b)] + a[len(b):]


def _trace_moments(x: AlgebraElement, n_moments: int):
    """The denominator D of y = x*x = Y / D and the exact moments
    {m: tau0(Y^m)}, so that tau0(y^m) = tau0(Y^m) / D^m.

    y comes from convolve, and the powers of Y, integer table pairs
    (re, im), from letter_product.  A radial Y (constant on full spheres)
    gets every order up to n_moments + 1 from the sphere-sum recursion.
    Otherwise each power z = Y^m of repeated squaring gives tau0(Y^(2m)) and,
    with t = Y z, tau0(Y^(2m+1)); z is self-adjoint, so those are
    sum |z(w)|^2 and sum Re(t(w) conj z(w)).  The moments stop at the first
    product that passes freegroup.SUPPORT_CAP.
    """
    adjoint = _element({inverse_letters(w): c for w, c in x.re.items()},
                       {inverse_letters(w): -c for w, c in x.im.items()}, x.den, x.rank)
    y_element = convolve(adjoint, x)
    y = (y_element.re, y_element.im)
    # a radial table is symmetric under w -> w^-1, so a self-adjoint one is real
    profile = None if y[1] else _radial_profile(y[0], x.rank)
    if profile is not None:
        return y_element.den, dict(enumerate(_radial_moments(profile, x.rank, n_moments + 1), 1))

    moments = {1: y[0].get(b"", 0)}
    z = y
    m_z = 1
    while True:
        moments[2 * m_z] = sum(c * c for part in z for c in part.values())
        if 2 * m_z <= n_moments:
            # the ratio bound at order 2 m_z also needs tau0(Y^(2 m_z + 1))
            try:
                t = _times(y, z, letter_product)
            except ResourceLimitError:
                break
            moments[2 * m_z + 1] = sum(
                c * t_part.get(w, 0) for z_part, t_part in zip(z, t) for w, c in z_part.items()
            )
        if 2 * m_z >= n_moments:
            break
        if m_z == 1:
            z = t  # Y^2, formed just above as Y z
        else:
            try:
                z = _times(z, z, letter_product)
            except ResourceLimitError:
                break
        m_z *= 2
        moments[m_z] = z[0].get(b"", 0)
    return y_element.den, moments


def _root(moment: int, m: int, den: int) -> float:
    """(moment / den^m)^(1/2m), within a few ulps for integers of any size:
    their binary exponents are split off before the logarithms."""
    e, f = moment.bit_length(), den.bit_length()
    q, rem = divmod(e - m * f, 2 * m)
    frac = log2(moment / (1 << e)) - m * log2(den / (1 << f))
    return ldexp(2.0 ** ((frac + rem) / (2 * m)), q)


def _bounds_from_moments(moments: dict[int, int], max_m: int, den: int) -> float:
    """The best lower bound on ||x|| from the exact moments
    {m: tau0(Y^m) = den^m tau0(y^m)} at orders m <= max_m, rounded down.

    The candidates are the root tau0(y^m)^(1/2m) and the ratio
    sqrt(tau0(y^(m+1)) / tau0(y^m)) at each order, compared in floats.  The
    winner is then the largest float r that passes its exact check,
    r^(2m) den^m <= tau0(Y^m) or r^2 den tau0(Y^m) <= tau0(Y^(m+1)).
    """
    best, win = 0.0, (1, False)
    for m, moment in moments.items():
        if m > max_m:
            continue
        r = _root(moment, m, den)
        if r > best:
            best, win = r, (m, False)
        nxt = moments.get(m + 1)
        if nxt is not None:
            r = sqrt(nxt / (moment * den))
            if r > best:
                best, win = r, (m, True)
    m, ratio = win
    moment = moments[m]

    def certified(r: float) -> bool:
        r2 = Fraction(r) ** 2
        return r2 * den * moment <= moments[m + 1] if ratio else r2**m * den**m <= moment

    while not certified(best):
        best = nextafter(best, 0)
    while certified(up := nextafter(best, inf)):
        best = up
    return best


class _TaggedFloat(float):
    """A float that carries one tag, in the slot named by the subclass's
    `_tag`.  Arithmetic on it gives a plain float."""

    __slots__ = ()
    _tag: str

    def __new__(cls, value: float, tag):
        self = super().__new__(cls, value)
        setattr(self, cls._tag, tag)
        return self

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, which needs the tag too
        return float(self), getattr(self, self._tag)


class MomentBound(_TaggedFloat):
    """A trace-moment lower bound that carries `order`, the highest moment
    order at most the requested one that was computed."""

    __slots__ = ("order",)
    _tag = "order"


def norm_lower_bound(x: AlgebraElement, n_moments: int) -> MomentBound:
    """Certified lower bound for the reduced norm of x from trace moments.

    Bounds used: tau0(y^m)^(1/2m) and sqrt(tau0(y^(m+1))/tau0(y^m)) for
    y = x*x, over every moment order m <= n_moments that is computable.  The
    moments are exact (see _trace_moments) and the bound is rounded down
    against the moments it came from.  A radial y gets every order; otherwise
    the moments stop early if a product would pass freegroup.SUPPORT_CAP,
    and the result, a MomentBound, has its `order` below n_moments.
    MalformedInputError if ||x||_1^2 passes the largest float.
    """
    if n_moments < 1:
        raise MalformedInputError(f"n_moments must be >= 1, got {n_moments}")
    if not (x.re or x.im):
        return MomentBound(0.0, n_moments)
    _checked_l1(x)
    den, moments = _trace_moments(x, n_moments)
    achieved = max(m for m in moments if m <= n_moments)
    return MomentBound(_bounds_from_moments(moments, n_moments, den), achieved)


# ---------------------------------------------------------------------------
# certified upper bounds: integers in units of 1 / (den 2^_SQRT_BITS)
# ---------------------------------------------------------------------------

# the bits below the unit 1 / den that a rounded-up square root keeps
_SQRT_BITS = 64
# the largest float, an integer
_FLOAT_MAX = int(float_info.max)


def _sqrt_up(n: int) -> int:
    """ceil(2^_SQRT_BITS sqrt(n)) for an integer n >= 0."""
    r = isqrt(n)
    if r * r == n:  # the same value as below, without the wide root: a speed path
        return r << _SQRT_BITS
    n <<= 2 * _SQRT_BITS
    r = isqrt(n)
    return r + (r * r < n)


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
    """Whether the words t_k have pairwise disjoint prefix sets F_k with
    t_k (complement of F_k) inside F_k; if so, the averaging estimate gives
    ||sum c_k lambda_{t_k}|| <= 2 ||c||_2 for every c.

    For a reduced word t with letters t_1..t_m (the words come as their
    letters) and any split 1 <= j <= m, the set F = [head_j] u [(t_j..t_m)^-1]
    works; the check below greedily picks a split per word so the F's are
    pairwise disjoint, and returns False if it cannot.

    The chosen prefixes stay sorted and form an antichain (none is a prefix
    of another), so p meets a chosen q only if q is p's predecessor or p is a
    prefix of its successor.  The two prefixes of one split never meet when
    both are free: at the middle split that would make t unreduced, and at
    any other the shorter one prefixes both middle-split ones, so the middle
    split, which _splits tries first, was free too.
    """
    chosen: list[bytes] = []

    def clashes(p: bytes) -> bool:
        i = bisect_left(chosen, p)
        return (i < len(chosen) and chosen[i].startswith(p)) or (
            i > 0 and p.startswith(chosen[i - 1])
        )

    for t in words:
        m, t_inv = len(t), inverse_letters(t)
        for j in _splits(m):
            # (t_j..t_m)^-1 is the first m - j + 1 letters of t^-1
            head, tail_inv = t[:j], t_inv[: m - j + 1]
            if not clashes(head) and not clashes(tail_inv):
                insort(chosen, head)
                insort(chosen, tail_inv)
                break
        else:
            return False
    return True


class UpperBound(_TaggedFloat):
    """A certified upper bound that carries `method`, the tag of the
    candidate that gave it."""

    __slots__ = ("method",)
    _tag = "method"


def norm_upper_bound(x: AlgebraElement) -> UpperBound:
    """Certified upper bound for the reduced norm of x.

    Minimum of: the l1 norm; the layer inequality sum (n+1) ||x_n||_2 in
    ambient word length; and, when it is below both, the free-family value
    |x(e)| + 2 ||x restricted off e||_2, certified by the disjoint-cylinder
    averaging estimate or by the support being a free basis of the subgroup
    it generates, which holds when the rank the fold gives equals its size;
    failing both, the layer inequality after rewriting the support over a
    free basis of that subgroup (isometric inclusion of reduced subgroup
    algebras), the one candidate that has the basis read off the folded
    graph.  The candidates are compared exactly, and the least is rounded up
    to the result, an UpperBound whose `method` names it ("zero" for x = 0).
    MalformedInputError if ||x||_1^2 passes the largest float.
    """
    if not (x.re or x.im):
        return UpperBound(0.0, "zero")
    squares = {w: c * c for w, c in x.re.items()}
    for w, c in x.im.items():
        squares[w] = squares.get(w, 0) + c * c
    candidates = [
        (_checked_l1(x), "l1"),
        (_layer_bound((len(w), s) for w, s in squares.items()), "ambient-layers"),
    ]
    c_e = _modulus(x, b"")
    rest_mass = sum(squares.values()) - squares.get(b"", 0)
    # both freeness tests give this value, and subgroup-layers is no smaller
    # (every layer weight n + 1 is at least 2), so they run only when it wins
    free_family = c_e + 2 * _sqrt_up(rest_mass)
    if rest_mass and free_family < min(p[0] for p in candidates):
        rest = [(w, s) for w, s in length_lex(squares) if w]
        words = [w for w, _ in rest]
        if _disjoint_cylinders(words):
            candidates.append((free_family, "disjoint-cylinders"))
        else:
            dec = free_basis_decomposition([_word(w, x.rank) for w in words])
            if dec.rank == len(words):
                # the support freely generates: it is itself a free basis
                candidates.append((free_family, "free-support"))
            else:
                lens = [len(rw) for rw in dec.rewritten]
                sub = c_e + _layer_bound(zip(lens, (s for _, s in rest)))
                candidates.append((sub, "subgroup-layers"))
    bound, tag = min(candidates, key=lambda p: p[0])
    return UpperBound(_float_up(Fraction(bound, x.den << _SQRT_BITS)), tag)


@dataclass(frozen=True)
class NormBracket:
    """Certified two-sided bracket on the reduced norm of one element.

    moments_used is the highest trace-moment order <= the requested one that
    was computed; it falls short of the request when freegroup.SUPPORT_CAP
    binds.
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
    return NormBracket(
        lower=float(lower),
        upper=float(upper),
        moments_used=lower.order,
        lower_method="trace-moments",
        upper_method=upper.method,
    )
