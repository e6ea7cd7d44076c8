"""Sparse arithmetic in the complex group algebra of F_k, viewed inside the
reduced group C*-algebra, with certified two-sided bounds on the reduced norm.

Lower bounds come from trace moments of y = x*x: both tau0(y^m)^(1/2m) and the
successive-moment ratio sqrt(tau0(y^(m+1))/tau0(y^m)) are true lower bounds for
the reduced norm (the spectral measure of y against the canonical trace lives
on [0, ||x||^2]), and both are nondecreasing in m.  The moments are exact:
x = X / 2^K for an integer table X, so each is an integer over a power of
two, and the bound is rounded down against them.  Upper bounds come from the
l1 norm, the (n+1)-weighted layer inequality in word length (valid on every
free group), the same inequality after rewriting the support over a free basis
of the subgroup it generates, and a disjoint-cylinder averaging estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ldexp, log2, nextafter, sqrt
from typing import Iterable, Iterator, Mapping

from .errors import ContextMismatchError, MalformedInputError, ResourceLimitError
from .freegroup import (
    Word,
    _product_letters,
    _word,
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
)

DEFAULT_SUPPORT_CAP = 5_000_000
_CAP_MESSAGE = "convolution support exceeds the cap"


class AlgebraElement:
    """Finitely supported complex coefficient table over reduced words.

    `coeffs` maps the letters of each support word to its coefficient.  The
    constructor checks a Word-keyed mapping; accessors speak Words.
    Immutable.  Arithmetic drops exact zeros only; small coefficients stay.
    """

    __slots__ = ("coeffs", "rank")

    def __init__(self, coeffs: Mapping[Word, complex], rank: int):
        table = {}
        for w, c in coeffs.items():
            if w.rank != rank:
                raise ContextMismatchError(f"word rank {w.rank} in element of rank {rank}")
            table[w.letters] = complex(c)
        _fill(self, table, rank)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    @staticmethod
    def zero(rank: int) -> "AlgebraElement":
        return _element({}, rank)

    @staticmethod
    def delta(w: Word, coeff: complex = 1.0) -> "AlgebraElement":
        """The scaled translation unitary coeff * lambda_w."""
        return AlgebraElement({w: coeff}, w.rank)

    @staticmethod
    def unit(rank: int) -> "AlgebraElement":
        return _element({(): 1 + 0j}, rank)

    def terms(self) -> list[tuple[Word, complex]]:
        """(word, coefficient) pairs in length-lex word order."""
        return [(_word(w, self.rank), c) for w, c in length_lex(self.coeffs)]

    def support(self) -> list[Word]:
        return [w for w, _ in self.terms()]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return _element(out, self.rank)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return _element(out, self.rank)

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        s = complex(scalar)
        return _element({w: s * c for w, c in self.coeffs.items()}, self.rank)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        s = complex(other)
        return _element({w: c * s for w, c in self.coeffs.items()}, self.rank)

    def l1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def _check(self, other: "AlgebraElement") -> None:
        if self.rank != other.rank:
            raise ContextMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __repr__(self) -> str:
        terms = ", ".join(f"{w}: {c:.4g}" for w, c in self.terms()[:6])
        more = "..." if len(self.coeffs) > 6 else ""
        return f"AlgebraElement({{{terms}{more}}}, rank={self.rank})"


def _fill(x: AlgebraElement, table: dict[tuple[int, ...], complex], rank: int) -> None:
    object.__setattr__(x, "coeffs", {w: c for w, c in table.items() if c != 0})
    object.__setattr__(x, "rank", rank)


def _element(table: dict[tuple[int, ...], complex], rank: int) -> AlgebraElement:
    """The element of a letter table of complex coefficients, unchecked."""
    x = object.__new__(AlgebraElement)
    _fill(x, table, rank)
    return x


def convolve(
    x: AlgebraElement, y: AlgebraElement, support_cap: int = DEFAULT_SUPPORT_CAP
) -> AlgebraElement:
    """Ring product: coeffs(w) = sum over u v = w of x(u) y(v)."""
    x._check(y)
    return _element(letter_product(x.coeffs, y.coeffs, support_cap, _CAP_MESSAGE), x.rank)


def involution(x: AlgebraElement) -> AlgebraElement:
    """Adjoint: coeffs(w) = conj(x(w^-1))."""
    return _element({inverse_letters(w): c.conjugate() for w, c in x.coeffs.items()}, x.rank)


def canonical_trace(x: AlgebraElement) -> complex:
    """Coefficient at the identity."""
    return x.coeffs.get((), 0j)


def adjoint_action(g: Word, x: AlgebraElement) -> AlgebraElement:
    """Inner automorphism: Ad_g(lambda_h) = lambda_{g h g^-1}."""
    if g.rank != x.rank:
        raise ContextMismatchError(f"rank mismatch: {g.rank} vs {x.rank}")
    gl, ginv = g.letters, inverse_letters(g.letters)
    return _element(
        {_product_letters(_product_letters(gl, w), ginv): c for w, c in x.coeffs.items()},
        x.rank,
    )


# ---------------------------------------------------------------------------
# certified lower bounds: exact trace moments of y = x*x
# ---------------------------------------------------------------------------


def _dyadic(x: AlgebraElement) -> tuple[int, dict, dict]:
    """K and the integer tables X_re, X_im, zeros left out, with
    x = (X_re + i X_im) / 2^K: every float is a dyadic rational, and 2^K is
    the largest denominator that as_integer_ratio gives a coefficient part."""
    ratios = [(w, c.real.as_integer_ratio(), c.imag.as_integer_ratio())
              for w, c in x.coeffs.items()]
    k = max((q.bit_length() - 1 for _, *pair in ratios for _, q in pair), default=0)
    x_re = {w: n << (k + 1 - q.bit_length()) for w, (n, q), _ in ratios if n}
    x_im = {w: n << (k + 1 - q.bit_length()) for w, _, (n, q) in ratios if n}
    return k, x_re, x_im


def _times(a: tuple[dict, dict], b: tuple[dict, dict], support_cap: int, product):
    """The product of two tables (re, im) from four partial products by
    `product`, skipping those with an empty, so zero, factor.
    ResourceLimitError once the words it touches pass the cap."""
    (a_re, a_im), (b_re, b_im) = a, b

    def part(u, v):
        return product(u, v) if u and v else {}

    re, im = part(a_re, b_re), part(a_re, b_im)
    for out, sign, c_part in ((re, -1, part(a_im, b_im)), (im, 1, part(a_im, b_re))):
        for w, c in c_part.items():
            out[w] = out.get(w, 0) + sign * c
    if im and len(re) + sum(w not in re for w in im) > support_cap:
        raise ResourceLimitError(_CAP_MESSAGE, support_cap)
    return {w: c for w, c in re.items() if c}, {w: c for w, c in im.items() if c}


def _radial_profile(y: dict[tuple[int, ...], int], rank: int) -> list[int] | None:
    """Per-length coefficient if the nonempty letter table y is constant on
    full spheres, else None."""
    prof: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for w, c in y.items():
        if prof.setdefault(len(w), c) != c:
            return None
        sizes[len(w)] = sizes.get(len(w), 0) + 1
    q = 2 * rank - 1
    if any(size != (1 if n == 0 else (q + 1) * q ** (n - 1)) for n, size in sizes.items()):
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


def _trace_moments(x: AlgebraElement, n_moments: int, support_cap: int):
    """K and the exact moments {m: tau0(Y^m)} of Y = X*X, where x = X / 2^K
    (see _dyadic), so that tau0(y^m) = tau0(Y^m) / 2^(2Km) for y = x*x.

    Y comes from convolve, on integer elements, and its powers, integer table
    pairs (re, im), from letter_product.  A radial Y (constant on full
    spheres) gets every order up to n_moments + 1 from the sphere-sum
    recursion.  Otherwise each power z = Y^m of repeated squaring gives
    tau0(Y^(2m)) and, with t = Y z, tau0(Y^(2m+1)); z is self-adjoint, so
    those are sum |z(w)|^2 and sum Re(t(w) conj z(w)).  The moments stop at
    the first product that passes the cap.
    """
    k, x_re, x_im = _dyadic(x)
    rank = x.rank

    def convolved(u, v):
        # the table of a new element that nothing else holds: _times may add to it
        return convolve(_element(u, rank), _element(v, rank), support_cap).coeffs

    product = partial(letter_product, support_cap=support_cap, cap_message=_CAP_MESSAGE)
    adjoint = ({inverse_letters(w): c for w, c in x_re.items()},
               {inverse_letters(w): -c for w, c in x_im.items()})
    y = _times(adjoint, (x_re, x_im), support_cap, convolved)
    # a radial table is symmetric under w -> w^-1, so a self-adjoint one is real
    profile = None if y[1] else _radial_profile(y[0], rank)
    if profile is not None:
        return k, dict(enumerate(_radial_moments(profile, rank, n_moments + 1), 1))

    moments = {1: y[0].get((), 0)}
    z = y
    m_z = 1
    while True:
        moments[2 * m_z] = sum(c * c for part in z for c in part.values())
        if 2 * m_z <= n_moments:
            # the ratio bound at order 2 m_z also needs tau0(Y^(2 m_z + 1))
            try:
                t = _times(y, z, support_cap, product)
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
                z = _times(z, z, support_cap, product)
            except ResourceLimitError:
                break
        m_z *= 2
        moments[m_z] = z[0].get((), 0)
    return k, moments


def _root(moment: int, m: int, k: int) -> float:
    """moment^(1/2m) / 2^k, within a few ulps for a moment of any size: the
    moment's binary exponent is split off before the logarithm."""
    e = moment.bit_length()
    q, rem = divmod(e - 2 * m * k, 2 * m)
    return ldexp(2.0 ** ((log2(moment / (1 << e)) + rem) / (2 * m)), q)


def _bounds_from_moments(moments: dict[int, int], max_m: int, k: int) -> float:
    """The best lower bound on ||x|| from the exact moments
    {m: tau0(Y^m) = 2^(2km) tau0(y^m)} at orders m <= max_m, rounded down.

    The candidates are the root tau0(y^m)^(1/2m) and the ratio
    sqrt(tau0(y^(m+1)) / tau0(y^m)) at each order, compared in floats.  The
    winner r is then checked exactly, against r^(2m) 2^(2km) <= tau0(Y^m) or
    r^2 2^(2k) tau0(Y^m) <= tau0(Y^(m+1)), and stepped down one ulp at a time
    until it passes.
    """
    best, win = 0.0, (1, False)
    for m, moment in moments.items():
        if m > max_m:
            continue
        r = _root(moment, m, k)
        if r > best:
            best, win = r, (m, False)
        nxt = moments.get(m + 1)
        if nxt is not None:
            r = sqrt(nxt / (moment << 2 * k))
            if r > best:
                best, win = r, (m, True)
    m, ratio = win
    moment = moments[m]

    def certified(r: float) -> bool:
        big_r = Fraction(r) * (1 << k)
        return big_r * big_r * moment <= moments[m + 1] if ratio else big_r ** (2 * m) <= moment

    while not certified(best):
        best = nextafter(best, 0)
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


def norm_lower_bound(
    x: AlgebraElement,
    n_moments: int,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> MomentBound:
    """Certified lower bound for the reduced norm of x from trace moments.

    Bounds used: tau0(y^m)^(1/2m) and sqrt(tau0(y^(m+1))/tau0(y^m)) for
    y = x*x, over every moment order m <= n_moments that is computable.  The
    moments are exact (see _trace_moments) and the bound is rounded down
    against the moments it came from.  A radial y gets every order; otherwise
    the moments stop early if a product would pass the support cap, and the
    result, a MomentBound, has its `order` below n_moments.
    """
    if n_moments < 1:
        raise MalformedInputError(f"n_moments must be >= 1, got {n_moments}")
    if not x.coeffs:
        return MomentBound(0.0, n_moments)
    k, moments = _trace_moments(x, n_moments, support_cap)
    achieved = max(m for m in moments if m <= n_moments)
    return MomentBound(_bounds_from_moments(moments, n_moments, k), achieved)


# ---------------------------------------------------------------------------
# certified upper bounds
# ---------------------------------------------------------------------------


def _layer_bound(pairs: Iterable[tuple[int, complex]]) -> float:
    """sum over layers n of (n+1) * l2-mass of layer n."""
    layers: dict[int, float] = {}
    for n, c in pairs:
        layers[n] = layers.get(n, 0.0) + abs(c) ** 2
    return sum((n + 1) * sqrt(mass) for n, mass in layers.items())


def _splits(m: int) -> Iterator[int]:
    """1..m, nearest (m + 1) // 2 first and the smaller one first on ties."""
    mid = (m + 1) // 2
    yield mid
    for d in range(1, m):
        if mid - d >= 1:
            yield mid - d
        if mid + d <= m:
            yield mid + d


def _disjoint_cylinder_bound(
    words: list[tuple[int, ...]], coeffs: list[complex]
) -> float | None:
    """Averaging estimate: if pairwise disjoint prefix sets F_k satisfy
    t_k (complement of F_k) inside F_k, then ||sum c_k lambda_{t_k}|| <= 2 ||c||_2.

    For a reduced word t with letters t_1..t_m (the words come as letter
    tuples) and any split 1 <= j <= m, the set F = [head_j] u [(t_j..t_m)^-1]
    works; the check below greedily picks a split per word so the F's are
    pairwise disjoint, and returns None if it cannot.
    """
    # the chosen prefixes as a trie: letter -> subtrie, with the key None
    # marking the end of a chosen prefix
    trie: dict = {}

    def clashes(p: tuple[int, ...]) -> bool:
        # p is comparable with a chosen q iff q is a prefix of p or p of q
        node = trie
        for c in p:
            if None in node:
                return True
            node = node.get(c)
            if node is None:
                return False
        return True

    def choose(p: tuple[int, ...]) -> None:
        node = trie
        for c in p:
            node = node.setdefault(c, {})
        node[None] = True

    for t in words:
        for j in _splits(len(t)):
            head = t[:j]
            tail_inv = inverse_letters(t[j - 1 :])
            if not clashes(head) and not clashes(tail_inv):
                choose(head)
                choose(tail_inv)
                break
        else:
            return None
    return 2.0 * sqrt(sum(abs(c) ** 2 for c in coeffs))


class UpperBound(_TaggedFloat):
    """A certified upper bound that carries `method`, the tag of the
    candidate that gave it."""

    __slots__ = ("method",)
    _tag = "method"


def norm_upper_bound(x: AlgebraElement) -> UpperBound:
    """Certified upper bound for the reduced norm of x.

    Minimum of: the l1 norm; the layer inequality sum (n+1) ||x_n||_2 in
    ambient word length; the same inequality after rewriting the support over
    a free basis of the subgroup it generates (isometric inclusion of reduced
    subgroup algebras); and, when available, the disjoint-cylinder averaging
    estimate |x(e)| + 2 ||x restricted off e||_2.  The result is an
    UpperBound whose `method` names the winning candidate ("zero" for x = 0).
    """
    if not x.coeffs:
        return UpperBound(0.0, "zero")
    c_e = abs(x.coeffs.get((), 0))
    rest = [(w, c) for w, c in length_lex(x.coeffs) if w]
    candidates = [(x.l1(), "l1")]
    candidates.append(
        (_layer_bound((len(w), c) for w, c in x.coeffs.items()), "ambient-layers")
    )
    if rest:
        words = [w for w, _ in rest]
        coeffs = [c for _, c in rest]
        disjoint = _disjoint_cylinder_bound(words, coeffs)
        best_other = min(p[0] for p in candidates)
        if disjoint is not None:
            best_other = min(best_other, c_e + disjoint)
        # the fold gives free-support, equal to this, or subgroup-layers,
        # which is no smaller (every layer weight n + 1 is at least 2), so it
        # runs only when it can beat the other candidates
        free_support = c_e + 2.0 * sqrt(sum(abs(c) ** 2 for c in coeffs))
        if best_other > free_support:
            dec = free_basis_decomposition(
                [_word(w, x.rank) for w in words]
            )
            if len(dec.basis) == len(words):
                # the support freely generates: it is itself a free basis
                candidates.append((free_support, "free-support"))
            else:
                lens = [len(rw) for rw in dec.rewritten]
                sub = c_e + _layer_bound(zip(lens, coeffs))
                candidates.append((sub, "subgroup-layers"))
        if disjoint is not None:
            candidates.append((c_e + disjoint, "disjoint-cylinders"))
    bound, tag = min(candidates, key=lambda p: p[0])
    return UpperBound(bound, tag)


@dataclass(frozen=True)
class NormBracket:
    """Certified two-sided bracket on the reduced norm of one element.

    moments_used is the highest trace-moment order <= the requested one that
    was computed; it falls short of the request when the support cap binds.
    """

    lower: float
    upper: float
    moments_used: int
    lower_method: str
    upper_method: str

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise MalformedInputError(
                f"invalid bracket: lower {self.lower} > upper {self.upper}"
            )


def certify_norm(
    x: AlgebraElement,
    n_moments: int = 8,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> NormBracket:
    """Two-sided certified bracket on the reduced norm of x."""
    lower = norm_lower_bound(x, n_moments, support_cap)
    upper = norm_upper_bound(x)
    return NormBracket(
        # min guards float dust on exactly-tight brackets
        lower=min(float(lower), float(upper)),
        upper=float(upper),
        moments_used=lower.order,
        lower_method="trace-moments",
        upper_method=upper.method,
    )
