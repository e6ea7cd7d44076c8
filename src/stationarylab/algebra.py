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
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
    sparse_product,
)

DEFAULT_SUPPORT_CAP = 5_000_000
ZERO_DROP_THRESHOLD = 1e-15


class AlgebraElement:
    """Finitely supported complex coefficient table over reduced words.

    Immutable.  No automatic dropping of small coefficients happens inside
    arithmetic; call :func:`normalize` explicitly to prune.
    """

    __slots__ = ("coeffs", "rank")

    def __init__(self, coeffs: Mapping[Word, complex], rank: int):
        table = {}
        for w, c in coeffs.items():
            if w.rank != rank:
                raise ContextMismatchError(
                    f"word rank {w.rank} in element of rank {rank}"
                )
            c = complex(c)
            if c != 0:
                table[w] = c
        object.__setattr__(self, "coeffs", table)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    @staticmethod
    def zero(rank: int) -> "AlgebraElement":
        return AlgebraElement({}, rank)

    @staticmethod
    def delta(w: Word, coeff: complex = 1.0) -> "AlgebraElement":
        """The scaled translation unitary coeff * lambda_w."""
        return AlgebraElement({w: coeff}, w.rank)

    @staticmethod
    def unit(rank: int) -> "AlgebraElement":
        return AlgebraElement({Word((), rank, _reduced=True): 1.0}, rank)

    def support(self) -> list[Word]:
        return sorted(self.coeffs, key=Word.sort_key)

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
        return AlgebraElement(out, self.rank)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return AlgebraElement(out, self.rank)

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement({w: scalar * c for w, c in self.coeffs.items()}, self.rank)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        return AlgebraElement({w: c * other for w, c in self.coeffs.items()}, self.rank)

    def l1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def l2(self) -> float:
        return sqrt(sum(abs(c) * abs(c) for c in self.coeffs.values()))

    def _check(self, other: "AlgebraElement") -> None:
        if self.rank != other.rank:
            raise ContextMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __repr__(self) -> str:
        terms = ", ".join(f"{w}: {c:.4g}" for w, c in sorted(
            self.coeffs.items(), key=lambda p: p[0].sort_key())[:6])
        more = "..." if len(self.coeffs) > 6 else ""
        return f"AlgebraElement({{{terms}{more}}}, rank={self.rank})"


def convolve(
    x: AlgebraElement, y: AlgebraElement, support_cap: int = DEFAULT_SUPPORT_CAP
) -> AlgebraElement:
    """Ring product: coeffs(w) = sum over u v = w of x(u) y(v)."""
    x._check(y)
    out = sparse_product(
        x.coeffs, y.coeffs, x.rank, support_cap, "convolution support exceeds the cap"
    )
    return AlgebraElement(out, x.rank)


def involution(x: AlgebraElement) -> AlgebraElement:
    """Adjoint: coeffs(w) = conj(x(w^-1))."""
    return AlgebraElement(
        {w.inverse(): c.conjugate() for w, c in x.coeffs.items()}, x.rank
    )


def canonical_trace(x: AlgebraElement) -> complex:
    """Coefficient at the identity."""
    e = Word((), x.rank, _reduced=True)
    return x.coeffs.get(e, 0j)


def adjoint_action(g: Word, x: AlgebraElement) -> AlgebraElement:
    """Inner automorphism: Ad_g(lambda_h) = lambda_{g h g^-1}."""
    if g.rank != x.rank:
        raise ContextMismatchError(f"rank mismatch: {g.rank} vs {x.rank}")
    ginv = g.inverse()
    return AlgebraElement(
        {(g * w) * ginv: c for w, c in x.coeffs.items()}, x.rank
    )


def normalize(x: AlgebraElement, threshold: float = ZERO_DROP_THRESHOLD) -> AlgebraElement:
    """Drop coefficients of modulus below the threshold."""
    return AlgebraElement(
        {w: c for w, c in x.coeffs.items() if abs(c) >= threshold}, x.rank
    )


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


def _product(a: dict, b: dict, support_cap: int) -> dict:
    """Letter table of the ring product a b, zero coefficients dropped as
    AlgebraElement drops them."""
    out = letter_product(a, b, support_cap, "convolution support exceeds the cap")
    return {w: c for w, c in out.items() if c != 0}


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


class MomentBound(float):
    """A trace-moment lower bound that carries `order`, the highest moment
    order at most the requested one that was computed.  Arithmetic on it
    gives a plain float."""

    __slots__ = ("order",)

    def __new__(cls, bound: float, order: int):
        self = super().__new__(cls, bound)
        self.order = order
        return self

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, which needs the order too
        return float(self), self.order


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

    y comes from convolve; its powers are letter tables (letter tuple ->
    coefficient), never AlgebraElements, and every sum runs in length-lex
    order.
    """
    if n_moments < 1:
        raise MalformedInputError(f"n_moments must be >= 1, got {n_moments}")
    if not x.coeffs:
        return MomentBound(0.0, n_moments)
    y = {w.letters: c for w, c in convolve(involution(x), x, support_cap).coeffs.items()}

    profile = _radial_profile(y, x.rank)
    if profile is not None:
        vals, _ = _radial_moments(profile, x.rank, n_moments + 1)
        moments = {m + 1: vals[m] for m in range(len(vals))}
        return MomentBound(_bounds_from_moments(moments, n_moments)[0], n_moments)

    moments: dict[int, complex] = {1: y.get((), 0j)}
    z = y
    m_z = 1
    while True:
        # z = y^m_z; the pairing sum gives tau0(y^(2 m_z)) without forming it
        pair_follows = 2 * m_z <= n_moments
        # an inverse-keyed copy of z pays off only when the y z pairing reads
        # it too; for the z z pairing alone it would only add the memory of
        # a second z
        z_inv = {inverse_letters(w): c for w, c in z.items()} if pair_follows else None
        moments[2 * m_z] = _pairing(z, z, z_inv)
        if pair_follows:
            # the ratio bound at order 2 m_z also needs tau0(y^(2 m_z + 1))
            try:
                t = _product(y, z, support_cap)
            except ResourceLimitError:
                break
            moments[2 * m_z + 1] = _pairing(t, z, z_inv)
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
        moments[m_z] = z.get((), 0j)
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


def _disjoint_cylinder_bound(words: list[Word], coeffs: list[complex]) -> float | None:
    """Averaging estimate: if pairwise disjoint prefix sets F_k satisfy
    t_k (complement of F_k) inside F_k, then ||sum c_k lambda_{t_k}|| <= 2 ||c||_2.

    For a reduced word t with letters t_1..t_m and any split 1 <= j <= m, the
    set F = [head_j] u [(t_j..t_m)^-1] works; the check below greedily picks a
    split per word so the F's are pairwise disjoint, and returns None if it
    cannot.
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
            head = t.letters[:j]
            tail_inv = inverse_letters(t.letters[j - 1 :])
            if not clashes(head) and not clashes(tail_inv):
                choose(head)
                choose(tail_inv)
                break
        else:
            return None
    return 2.0 * sqrt(sum(abs(c) ** 2 for c in coeffs))


def norm_upper_bound(x: AlgebraElement) -> float:
    """Certified upper bound for the reduced norm of x.

    Minimum of: the l1 norm; the layer inequality sum (n+1) ||x_n||_2 in
    ambient word length; the same inequality after rewriting the support over
    a free basis of the subgroup it generates (isometric inclusion of reduced
    subgroup algebras); and, when available, the disjoint-cylinder averaging
    estimate |x(e)| + 2 ||x restricted off e||_2.
    """
    return _upper_bound_tagged(x)[0]


def _upper_bound_tagged(x: AlgebraElement) -> tuple[float, str]:
    if not x.coeffs:
        return 0.0, "zero"
    e = Word((), x.rank, _reduced=True)
    c_e = abs(x.coeffs.get(e, 0))
    rest = sorted(
        ((w, c) for w, c in x.coeffs.items() if not w.is_identity()),
        key=lambda p: p[0].sort_key(),
    )
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
            dec = free_basis_decomposition(words)
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
    return float(bound), tag


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
    upper, tag = _upper_bound_tagged(x)
    return NormBracket(
        # min guards float dust on exactly-tight brackets
        lower=min(float(lower), upper),
        upper=upper,
        moments_used=lower.order,
        lower_method="trace-moments",
        upper_method=tag,
    )
