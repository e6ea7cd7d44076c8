"""Sparse arithmetic in the complex group algebra of F_k, viewed inside the
reduced group C*-algebra, with certified two-sided bounds on the reduced norm.

Lower bounds come from trace moments of y = x*x: both tau0(y^m)^(1/2m) and the
successive-moment ratio sqrt(tau0(y^(m+1))/tau0(y^m)) are true lower bounds for
the reduced norm (the spectral measure of y against the canonical trace lives
on [0, ||x||^2]), and both are nondecreasing in m.  Upper bounds come from the
l1 norm, the (n+1)-weighted layer inequality in word length (valid on every
free group), the same inequality after rewriting the support over a free basis
of the subgroup it generates, and a disjoint-cylinder averaging estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, log, sqrt
from typing import Iterable, Iterator, Mapping

from .errors import ContextMismatchError, MalformedInputError, ResourceLimitError
from .freegroup import (
    Word,
    _product_letters,
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
)

DEFAULT_SUPPORT_CAP = 5_000_000
ZERO_DROP_THRESHOLD = 1e-15


class AlgebraElement:
    """Finitely supported complex coefficient table over reduced words.

    `coeffs` maps the letters of each support word to its coefficient.  The
    constructor checks a Word-keyed mapping; accessors speak Words.
    Immutable.  No automatic dropping of small coefficients happens inside
    arithmetic; call :func:`normalize` explicitly to prune.
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
        return [(Word(w, self.rank, _reduced=True), c) for w, c in length_lex(self.coeffs)]

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

    def l2(self) -> float:
        return sqrt(sum(abs(c) * abs(c) for c in self.coeffs.values()))

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


def _product(x: AlgebraElement, y: AlgebraElement, support_cap: int) -> AlgebraElement:
    """convolve without the rank check."""
    out = letter_product(x.coeffs, y.coeffs, support_cap, "convolution support exceeds the cap")
    return _element(out, x.rank)


def convolve(
    x: AlgebraElement, y: AlgebraElement, support_cap: int = DEFAULT_SUPPORT_CAP
) -> AlgebraElement:
    """Ring product: coeffs(w) = sum over u v = w of x(u) y(v)."""
    x._check(y)
    return _product(x, y, support_cap)


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


def normalize(x: AlgebraElement, threshold: float = ZERO_DROP_THRESHOLD) -> AlgebraElement:
    """Drop coefficients of modulus below the threshold."""
    return _element({w: c for w, c in x.coeffs.items() if abs(c) >= threshold}, x.rank)


# ---------------------------------------------------------------------------
# certified lower bounds: trace moments of y = x*x
# ---------------------------------------------------------------------------


def _radial_profile(y: dict[tuple[int, ...], complex], rank: int):
    """Per-length coefficient if the letter table y is constant on full
    spheres, else None."""
    if not y:
        return [0]
    first: dict[int, complex] = {}
    sizes: dict[int, int] = {}
    for w, c in y.items():
        n = len(w)
        if n not in first:
            first[n], sizes[n] = c, 1
        elif c != first[n]:
            return None
        else:
            sizes[n] += 1
    q = 2 * rank - 1
    for n, size in sizes.items():
        if size != (1 if n == 0 else (q + 1) * q ** (n - 1)):
            return None
    prof = [0] * (max(first) + 1)
    for n, c in first.items():
        prof[n] = c
    return prof


def _exactify(values):
    """Ints if everything is a real integer, Fractions if real, else floats."""
    reals = []
    for v in values:
        c = complex(v)
        if c.imag != 0:
            return [complex(v) for v in values], False
        reals.append(c.real)
    if all(float(r).is_integer() for r in reals):
        return [int(r) for r in reals], True
    return [Fraction(r) for r in reals], True


def _radial_moments(profile, k: int, n_moments: int):
    """tau0(y^m), m = 1..n_moments, for a radial y with the given per-length profile.

    Works in the sphere-sum basis E_l (the sum of all lambda_w with |w| = l):
    E_1 E_l = E_{l+1} + (2k-1) E_{l-1} for l >= 2, E_1 E_1 = E_2 + 2k E_0, and
    every radial element is a polynomial in E_1, so applying y to a radial
    vector only needs the tridiagonal action of E_1.
    """
    vals, exact = _exactify(profile)
    q = 2 * k - 1

    def apply_T(v):
        n = len(v)
        out = [0] * (n + 1)
        for l in range(n + 1):
            acc = 0
            if l >= 1 and l - 1 < n:
                acc += v[l - 1]
            if l + 1 < n:
                acc += (2 * k if l == 0 else q) * v[l + 1]
            out[l] = acc
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def apply_y(v):
        # y = sum_l alpha_l q_l(E_1) with q_0 = 1, q_1 = X, q_2 = X^2 - 2k,
        # q_{l+1} = X q_l - (2k-1) q_{l-1} for l >= 2
        acc = [vals[0] * t for t in v] if vals[0] != 0 else [0] * len(v)
        if len(vals) == 1:
            return acc
        u_prev, u_cur = list(v), apply_T(v)
        if len(vals) > 1 and vals[1] != 0:
            acc = _vec_add(acc, [vals[1] * t for t in u_cur])
        for l in range(2, len(vals)):
            nxt = apply_T(u_cur)
            factor = 2 * k if l == 2 else q
            nxt = _vec_add(nxt, [-factor * t for t in u_prev])
            u_prev, u_cur = u_cur, nxt
            if vals[l] != 0:
                acc = _vec_add(acc, [vals[l] * t for t in u_cur])
        return acc

    v = [1]
    moments = []
    for _ in range(n_moments):
        v = apply_y(v)
        moments.append(v[0] if v else 0)
    return moments, exact


def _vec_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def _bounds_from_moments(moments, max_m: int) -> tuple[float, int]:
    """Best certified lower bound from a dict {m: tau0(y^m)} at orders <= max_m.

    Exact integer moments can exceed the float range at high orders, so the
    root is taken in log space and the ratio through an exact Fraction.
    """

    def positive(v) -> bool:
        v = v.real if isinstance(v, complex) else v
        return v > 0

    def root(v, m: int) -> float:
        v = v.real if isinstance(v, complex) else v
        if isinstance(v, int):
            return exp(log(v) / (2 * m))
        return float(v) ** (1.0 / (2 * m))

    def ratio(a, b) -> float:
        a = a.real if isinstance(a, complex) else a
        b = b.real if isinstance(b, complex) else b
        if isinstance(a, int) and isinstance(b, int):
            return sqrt(float(Fraction(a, b)))
        return sqrt(float(a) / float(b))

    best, best_m = 0.0, 0
    for m, M in moments.items():
        if m > max_m or not positive(M):
            continue
        b = root(M, m)
        if b > best:
            best, best_m = b, m
        nxt = moments.get(m + 1)
        if nxt is not None and positive(nxt):
            b = ratio(nxt, M)
            if b > best:
                best, best_m = b, m
    return best, best_m


def _pairing(a: dict, b: dict, b_by_inverse: dict | None = None) -> complex:
    """tau0 of the product a b: the sum of a(w) b(w^-1) over the words w of
    a in length-lex order.  b_by_inverse, when given, is b keyed by inverse
    words and saves inverting each w."""
    items = length_lex(a)
    if b_by_inverse is None:
        get = b.get
        return sum(c * get(inverse_letters(w), 0) for w, c in items)
    get = b_by_inverse.get
    return sum(c * get(w, 0) for w, c in items)


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
    y = x*x, over every moment order m <= n_moments that is computable.  When
    y is radial (constant on full spheres) all moments up to n_moments are
    computed exactly by the sphere-sum recursion; otherwise powers of y are
    formed by repeated squaring under the support cap, which yields the moment
    orders 2^j, 2^(j+1), 2^(j+1)+1 from each stored power.  Nondecreasing in
    n_moments; stops early (reporting the bound achieved) if squaring would
    exceed the cap.  The result is a MomentBound, whose `order` is then
    below n_moments.

    y comes from convolve and its powers from the same letter_product kernel
    without the rank check; every sum runs in length-lex order.
    """
    if n_moments < 1:
        raise MalformedInputError(f"n_moments must be >= 1, got {n_moments}")
    if not x.coeffs:
        return MomentBound(0.0, n_moments)
    y = convolve(involution(x), x, support_cap)

    profile = _radial_profile(y.coeffs, x.rank)
    if profile is not None:
        vals, _ = _radial_moments(profile, x.rank, n_moments + 1)
        moments = {m + 1: vals[m] for m in range(len(vals))}
        return MomentBound(_bounds_from_moments(moments, n_moments)[0], n_moments)

    moments: dict[int, complex] = {1: canonical_trace(y)}
    z = y
    m_z = 1
    while True:
        # z = y^m_z; the pairing sum gives tau0(y^(2 m_z)) without forming it
        pair_follows = 2 * m_z <= n_moments
        # an inverse-keyed copy of z pays off only when the y z pairing reads
        # it too; for the z z pairing alone it would only add the memory of
        # a second z
        z_inv = {inverse_letters(w): c for w, c in z.coeffs.items()} if pair_follows else None
        moments[2 * m_z] = _pairing(z.coeffs, z.coeffs, z_inv)
        if pair_follows:
            # the ratio bound at order 2 m_z also needs tau0(y^(2 m_z + 1))
            try:
                t = _product(y, z, support_cap)
            except ResourceLimitError:
                break
            moments[2 * m_z + 1] = _pairing(t.coeffs, z.coeffs, z_inv)
        if 2 * m_z >= n_moments:
            break
        if m_z == 1:
            z = t  # y^2, formed just above as y z
        else:
            try:
                z = _product(z, z, support_cap)
            except ResourceLimitError:
                break
        m_z *= 2
        moments[m_z] = canonical_trace(z)
    achieved = max(m for m in moments if m <= n_moments)
    return MomentBound(_bounds_from_moments(moments, n_moments)[0], achieved)


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
                [Word(w, x.rank, _reduced=True) for w in words]
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

    @property
    def width(self) -> float:
        return self.upper - self.lower


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
