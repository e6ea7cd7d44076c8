import copy
import math
import pickle
import tracemalloc
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stationarylab.algebra import (
    _SQRT_BITS,
    AlgebraElement,
    NormBracket,
    _bounds_from_moments,
    _centered,
    _checked_l1,
    _odd_moment,
    _powers_partition,
    _radial_profile,
    _root_sum_min,
    _square_sum,
    _times,
    _float_down,
    _float_up,
    _disjoint_cylinders,
    _layer_bound,
    _modulus,
    _sqrt_up,
    _squares,
    _trace_moments,
    _upper_bound_floor,
    certify_norm,
    convolve,
    norm_lower_bound,
    norm_upper_bound,
)
from stationarylab import algebra, freegroup
from stationarylab.errors import ContextMismatchError, MalformedInputError, ResourceLimitError
from stationarylab.freegroup import (
    FreeGroupContext,
    Word,
    _product_letters,
    ball,
    conjugate,
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
    letter_product_pieces,
    reduce_letters,
)
from stationarylab.walks import (
    cesaro_measure,
    measure_convolve_element,
    rng_from_seed,
    uniform_generator_measure,
)

from exact import exact, fractions_of
from fold import reference_fold

F1 = FreeGroupContext(1)
F2 = FreeGroupContext(2)


def random_element(rng, rank, radius, terms):
    ctx = FreeGroupContext(rank)
    words = list(ball(ctx, radius))
    table = {}
    for _ in range(terms):
        w = words[int(rng.integers(0, len(words)))]
        table[w] = complex(rng.standard_normal(), rng.standard_normal())
    return AlgebraElement(table, rank)


def dense_convolve_oracle(x, y):
    """Explicit double loop over all support pairs, in Fractions."""
    out = {}
    for u, (ur, ui) in exact(x).items():
        for v, (vr, vi) in exact(y).items():
            re, im = out.get(u * v, (0, 0))
            out[u * v] = (re + ur * vr - ui * vi, im + ur * vi + ui * vr)
    return {w: c for w, c in out.items() if c != (0, 0)}


def test_constructor_reads_floats_at_their_binary_values():
    a, b = F2.word("a"), F2.word("b")
    x = AlgebraElement({a: 0.1 - 2.5j, b: Fraction(1, 3), F2.identity: 0}, 2)
    assert exact(x) == {a: fractions_of(0.1 - 2.5j), b: (Fraction(1, 3), 0)}
    # one denominator with no factor common to every numerator
    assert x.den == 3 * 2**55 and x.im == {a.letters: -5 * 3 * 2**54}
    for bad in (math.inf, complex(0, math.nan), "x", True, None):
        with pytest.raises(MalformedInputError):
            AlgebraElement({a: bad}, 2)


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(0.1),
                               Fraction(1, 10**400), Fraction(10**400), Fraction(-10**400)],
                         ids=["zero", "third", "minus-third", "float", "tiny", "huge",
                              "minus-huge"])
def test_outward_rounding_pair(q):
    # the nearest floats on either side of q, +0.0 for 0, and the float
    # range's end (or an infinity) beyond it
    down, up = _float_down(q), _float_up(q)
    assert down <= q <= up
    assert math.nextafter(down, math.inf) > q and math.nextafter(up, -math.inf) < q
    if q == 0:
        assert math.copysign(1, down) == math.copysign(1, up) == 1
    if q == Fraction(0.1):
        assert down == up == 0.1


class TestConvolve:
    def test_unitary_times_inverse(self):
        a = F2.word("a")
        product = convolve(AlgebraElement.delta(a), AlgebraElement.delta(a.inverse()))
        assert exact(product) == {F2.identity: (1, 0)}

    def test_unit_law(self):
        x = AlgebraElement.delta(F2.word("a")) + AlgebraElement.delta(F2.word("b"))
        assert exact(convolve(x, AlgebraElement.delta(F2.identity))) == exact(x)

    def test_against_dense_oracle(self):
        rng = rng_from_seed(21)
        for _ in range(25):
            x = random_element(rng, 2, 3, 12)
            y = random_element(rng, 2, 3, 12)
            assert exact(convolve(x, y)) == dense_convolve_oracle(x, y)

    def test_bilinear(self):
        rng = rng_from_seed(22)
        x = random_element(rng, 2, 2, 8)
        y = random_element(rng, 2, 2, 8)
        z = random_element(rng, 2, 2, 8)
        assert exact(convolve(x + y, z)) == exact(convolve(x, z) + convolve(y, z))

    def test_associative_random_triples(self):
        rng = rng_from_seed(23)
        for _ in range(20):
            x = random_element(rng, 2, 2, 6)
            y = random_element(rng, 2, 2, 6)
            z = random_element(rng, 2, 2, 6)
            assert exact(convolve(convolve(x, y), z)) == exact(convolve(x, convolve(y, z)))

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            convolve(AlgebraElement.delta(F1.identity), AlgebraElement.delta(F2.identity))

    def test_support_cap(self, monkeypatch):
        x = AlgebraElement({w: 1.0 for w in ball(F2, 2)}, 2)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 10)
        with pytest.raises(ResourceLimitError):
            convolve(x, x)


def test_canonical_trace_is_tracial():
    rng = rng_from_seed(27)
    for _ in range(50):
        x = random_element(rng, 2, 2, 8)
        y = random_element(rng, 2, 2, 8)
        assert exact(convolve(x, y)).get(F2.identity) == exact(convolve(y, x)).get(F2.identity)


def z_moment_oracle(n):
    """tau0((a + a^-1)^(2n)) on Z: central binomial coefficients."""
    return math.comb(2 * n, n)


def f2_moment_oracle(n_max):
    """Exact closed-walk counts of the generator sum on F_2, by the radial
    distance recursion (independent of the package's sphere-sum calculus)."""
    counts = {0: 1}
    out = []
    for _ in range(n_max):
        nxt = {}
        top = max(counts)
        for dist in range(top + 2):
            val = 0
            if dist >= 1:
                val += counts.get(dist - 1, 0)
            val += (4 if dist == 0 else 3) * counts.get(dist + 1, 0)
            if val:
                nxt[dist] = val
        counts = nxt
        out.append(counts.get(0, 0))
    return out  # out[n-1] = tau0(x^n)


class TestNormBounds:
    def test_unitary_bracket_tight(self):
        nb = certify_norm(AlgebraElement.delta(F2.word("ab")), 16)
        assert nb.lower == nb.upper == 1.0

    def test_zero_element(self):
        nb = certify_norm(AlgebraElement({}, 2), 4)
        assert nb.lower == 0 and nb.upper == 0

    def test_z_bound_approaches_two(self):
        # a + A in F_2 has y = 2 + aa + AA, not radial, so the moments give
        # the ratio bound sqrt(C(130,65)/C(128,64)) = sqrt(2*129/65); in
        # F_1 the same y is 2 + E_2, radial, and its spectrum gives 2 itself
        x = AlgebraElement.delta(F2.word("a")) + AlgebraElement.delta(F2.word("A"))
        assert norm_upper_bound(x) == 2.0
        lo = norm_lower_bound(x, 64)
        assert abs(lo - math.sqrt(2 * 129 / 65)) < 1e-12
        assert lo > 1.99 and lo.method == "trace-moments"
        z = AlgebraElement.delta(F1.word("a")) + AlgebraElement.delta(F1.word("A"))
        assert certify_norm(z, 64) == NormBracket(2.0, 2.0, 64, "radial-spectrum", "l1")

    def test_z_moments_against_central_binomials(self):
        # the engine reproduces the comb() oracle through the bound, on a + A
        # in F_2, whose y = x*x is off the radial path
        x = AlgebraElement.delta(F2.word("a")) + AlgebraElement.delta(F2.word("A"))
        for n in (1, 2, 4, 8):
            den, moments = _trace_moments(x, n)
            assert moments == {m: z_moment_oracle(m) * den**m for m in moments}
            expected = max(
                max(z_moment_oracle(m) ** (1 / (2 * m)) for m in range(1, n + 1)),
                max(
                    math.sqrt(z_moment_oracle(m + 1) / z_moment_oracle(m))
                    for m in range(1, n + 1)
                ),
            )
            assert abs(norm_lower_bound(x, n) - expected) < 1e-12

    def test_f2_generator_sum_against_radial_oracle(self):
        # a conjugate of the generator sum has the same moments,
        # tau0(y^m) = tau0(x^(2m)), closed walks, and a y off the radial path
        g = F2.word("ab")
        x = AlgebraElement({conjugate(w, g): 1.0 for w in ball(F2, 1) if len(w)}, 2)
        W = f2_moment_oracle(18)  # W[n-1] = tau0(x^n)
        for n in (1, 2, 3, 5, 8):
            den, moments = _trace_moments(x, n)
            assert sorted(moments) == list(ENGINE_ORDERS[n])
            assert moments == {m: W[2 * m - 1] for m in moments} and den == 1
            assert norm_lower_bound(x, n) == reference_chord(moments)

    def test_lower_bound_monotone_in_moments(self):
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        values = [norm_lower_bound(x, n) for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_upper_examples(self):
        # the generator sum of F_2 has norm 2 sqrt(3) (Kesten 1959), which
        # the nearest-neighbour candidate reaches
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        assert norm_upper_bound(x) == float_up_root(12)
        assert norm_upper_bound(x).method == "nearest-neighbour"
        assert norm_upper_bound(AlgebraElement.delta(F2.word("ab"))) == 1.0

    def test_upper_at_least_lower_random(self):
        rng = rng_from_seed(31)
        for _ in range(20):
            x = random_element(rng, 2, 2, 8)
            nb = certify_norm(x, 4)
            assert nb.lower <= nb.upper

    @pytest.mark.parametrize("n", range(1, 11))
    def test_free_support_certificate(self, n):
        # the conjugates b^-k a b^k are a free family (disjoint cylinders), so
        # their average has the Akemann-Ostrand norm 2 sqrt(n - 1) / n, and 1
        # at n <= 2; the averaging estimate gave 2 / sqrt(n)
        a, b = F2.word("a"), F2.word("b")
        avg = AlgebraElement({conjugate(a, b**k): Fraction(1, n) for k in range(1, n + 1)}, 2)
        expected = 1.0 if n <= 2 else float_up_root(Fraction(4 * (n - 1), n * n))
        assert norm_upper_bound(avg) == expected
        # every candidate is at least that norm, and the floor certifies it
        assert_few_ulps_below(_upper_bound_floor(avg),
                              1 if n <= 2 else Fraction(4 * (n - 1), n * n))

    def test_generic_path_matches_radial_path(self):
        # conjugating breaks radiality but not the moments: at n_moments 1
        # both read the same two sums, and past it the spectral bound is at
        # least the conjugate's chord
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        g = F2.word("ab")
        y = AlgebraElement({conjugate(w, g): 1.0 for w in ball(F2, 1) if len(w)}, 2)
        assert norm_lower_bound(y, 1) == norm_lower_bound(x, 1)
        for n in (2, 4, 8):
            assert norm_lower_bound(y, n) < norm_lower_bound(x, n) == 3.4641016151377544

    def test_squared_l1_overflow_is_malformed(self):
        a, b = F2.word("a"), F2.word("b")
        # each coefficient is finite, and so is its square; ||x||_1^2 is not
        x = AlgebraElement({a: 8e153, b: 8e153}, 2)
        for bound in (lambda: certify_norm(x, 2), lambda: norm_lower_bound(x, 2),
                      lambda: norm_upper_bound(x)):
            with pytest.raises(MalformedInputError, match="squared l1 norm"):
                bound()
        # a finite coefficient whose modulus overflows a float
        big = AlgebraElement({a: complex(1.7e308, 1.7e308)}, 2)
        with pytest.raises(MalformedInputError, match="squared l1 norm"):
            norm_upper_bound(big)
        # just under the edge, the bracket stands
        ok = AlgebraElement({a: 5e153, b: 5e153}, 2)
        assert certify_norm(ok, 2).upper == 1e154


def norm_squared_in(bracket, norm_squared):
    """Whether lower^2 <= norm_squared <= upper^2, compared exactly."""
    return Fraction(bracket.lower) ** 2 <= norm_squared <= Fraction(bracket.upper) ** 2


@given(st.integers(1, 4), st.integers(1, 64), st.integers(-3, 3))
@example(2, 200_000_000, 0)  # the radial path's cost does not grow with n_moments
def test_kesten_norm_is_in_the_bracket(k, n_moments, e):
    # the symmetric generator sum of F_k has norm 2 sqrt(2k - 1) (Kesten 1959);
    # its y = x*x is radial
    x = AlgebraElement({w: 2.0**e for w in ball(FreeGroupContext(k), 1) if len(w)}, k)
    bracket = certify_norm(x, n_moments)
    assert bracket.moments_used == n_moments
    assert norm_squared_in(bracket, Fraction(4) ** e * 4 * (2 * k - 1))
    assert_few_ulps_below(_upper_bound_floor(x), Fraction(4) ** e * 4 * (2 * k - 1))
    # the nearest-neighbour candidate reaches it, rounded up
    assert bracket.upper == float_up_root(Fraction(4) ** e * 4 * (2 * k - 1))
    # past n_moments 1 the spectrum of E_1 closes the bracket to one ulp
    if n_moments > 1:
        assert bracket.lower_method == "radial-spectrum"
        assert bracket.upper <= math.nextafter(bracket.lower, math.inf)


def radial_element(k, coeffs):
    """sum_l coeffs[l] E_l in F_k, E_l the sum of the words of length l."""
    ball_k = ball(FreeGroupContext(k), len(coeffs) - 1)
    return AlgebraElement({w: coeffs[len(w)] for w in ball_k if coeffs[len(w)]}, k)


def radial_norm(x, k, length):
    """||x|| to 40 digits for x = sum_l c_l E_l, l <= length, in F_k: x is
    q(E_1) for a real polynomial q, whose monomial coefficients are peeled
    off x, top length first, against the powers of E_1 formed by convolve,
    and E_1 has spectrum [-2 sqrt(2k - 1), 2 sqrt(2k - 1)] (Kesten 1959), so
    ||x|| is the largest |q| at an end or at a real root of q' there."""
    mpmath = pytest.importorskip("mpmath")
    ctx = FreeGroupContext(k)
    e1 = AlgebraElement({w: 1 for w in ball(ctx, 1) if len(w)}, k)
    powers = [AlgebraElement({ctx.identity: 1}, k)]
    for _ in range(length):
        powers.append(convolve(powers[-1], e1))
    rest = {w: re for w, (re, _) in exact(x).items()}
    q = [Fraction(0)] * (length + 1)
    for j in reversed(range(length + 1)):
        q[j] = rest.get(ctx.word("a" * j), Fraction(0))
        for w, (re, _) in exact(powers[j]).items():
            rest[w] = rest.get(w, 0) - q[j] * re
    assert not any(rest.values())
    with mpmath.workdps(40):
        end = 2 * mpmath.sqrt(2 * k - 1)
        slope = [mpmath.mpf(j * c.numerator) / c.denominator for j, c in enumerate(q)][1:]
        while slope and not slope[-1]:
            slope.pop()
        roots = mpmath.polyroots(slope[::-1], maxsteps=200, extraprec=200) if slope[1:] else []
        points = [end, -end] + [mpmath.re(r) for r in roots
                                if abs(mpmath.im(r)) < 1e-30 and abs(mpmath.re(r)) <= end]
        return max(abs(mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                                       for c in q[::-1]], t)) for t in points)


@settings(max_examples=40)
@given(st.sampled_from([(1, 4), (2, 3), (3, 2)]).flatmap(lambda rank_length: st.tuples(
    st.just(rank_length[0]),
    st.lists(st.sampled_from([0, 1, -1, 2, -3, 0.5, 1.25]), min_size=2,
             max_size=rank_length[1] + 1).filter(any))))
def test_radial_bound_is_the_spectral_maximum(rank_coeffs):
    # a radial y takes the norm rounded down, or one ulp below it, and at
    # least the trace-moment chord of the same norm off the radial path: a
    # conjugate (in rank 1, of the copy of x in F_2, which embeds
    # isometrically)
    k, coeffs = rank_coeffs
    x = radial_element(k, coeffs)
    norm = radial_norm(x, k, len(coeffs) - 1)
    bracket = certify_norm(x, 8)
    assert bracket.lower_method == "radial-spectrum"
    assert bracket.lower <= norm <= bracket.upper
    assert norm < math.nextafter(math.nextafter(bracket.lower, math.inf), math.inf)
    g = F2.word("ab")
    off = AlgebraElement({conjugate(Word(w.letters, max(k, 2)), Word(g.letters, max(k, 2))): c
                          for w, (c, _) in exact(x).items()}, max(k, 2))
    assert norm_lower_bound(off, 1) <= bracket.lower


@pytest.mark.parametrize("k, coeffs, norm", [
    (2, (1, 1e-300), 1.0), (2, (1, 1e-30), 1.0), (2, (-8, 0, 1), 12.0),
    (1, (1, 1, -8), 17.03125), (1, (127 / 128, 1, -8), 17.0234375)])
def test_radial_bound_hazards(k, coeffs, norm):
    # floats on the integer profile of 1 + 1e-300 E_1 overflow (2,099
    # bits); on 1 + 1e-30 E_1 they tie at every point, and the exact
    # comparison finds the maximum at T, not -T; E_2 - 8 has zeros near +-T
    # and its maximum at 0, a grid point, from which the refined point
    # drifts.  In F_1, c + E_1 - 8 E_2 = c + 16 + t - 8 t^2 peaks at t = 1/16,
    # between the grid points 0 and 1/8 (of 16 cells each side), and at
    # t = -2: at c = 1 the three grid values tie, and at c = 127/128 the one
    # at -2 is the largest, though the peak between 0 and 1/8 is higher
    x = radial_element(k, coeffs)
    assert norm_lower_bound(x, 8) == norm


# free families (rank of F_k, words): distinct generators and families of
# longer words that freely generate their subgroup
FREE_FAMILIES = [
    (2, ["a", "b"]), (2, ["a", "ab"]),
    (3, ["a", "b", "c"]), (2, ["aa", "ab", "bb"]), (3, ["ab", "bc", "ca"]),
    (4, ["a", "b", "c", "d"]), (2, ["aaa", "bbb", "ab", "ba"]),
    (2, ["a", "baB", "bbaBB", "bbbaBBB"]),
]


@settings(max_examples=60)
@given(st.sampled_from(FREE_FAMILIES), st.integers(1, 8), st.integers(-3, 3),
       st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=4, max_size=4))
@example(FREE_FAMILIES[2], 8, 0, [1] * 4)  # a + b + c: 2 sqrt(2)
@example(FREE_FAMILIES[-1], 8, 0, [1] * 4)  # a + baB + bbaBB + bbbaBBB: 2 sqrt(3)
def test_free_family_norm_is_in_the_bracket(family, n_moments, e, phases):
    # lambda(g_1) + ... + lambda(g_n) has norm 2 sqrt(n - 1) for a free family
    # (Akemann-Ostrand 1976), which the upper bound reaches, rounded up;
    # unimodular phases keep it, as the character g_i -> phase_i of the free
    # subgroup is implemented by a unitary
    rank, names = family
    words = [FreeGroupContext(rank).word(s) for s in names]
    assert free_basis_decomposition(words) == len(words)
    x = AlgebraElement({w: 2.0**e * z for w, z in zip(words, phases)}, rank)
    bracket = certify_norm(x, n_moments)
    assert norm_squared_in(bracket, Fraction(4) ** e * 4 * (len(words) - 1))
    assert bracket.upper == float_up_root(Fraction(4) ** e * 4 * (len(words) - 1))


@settings(max_examples=80)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=14),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.integers(1, 8))
def test_cyclic_subgroup_norm_is_in_the_bracket(codes, c0, c, n_moments):
    # x = c0 + c (lambda_w + lambda_w^-1) lies in C*_r(<w>), and C*_r(Z) = C(T)
    # embeds isometrically, so ||x|| = max_t |c0 + 2 c cos t| = |c0| + 2 |c|
    w = Word(codes, 2)
    if w.is_identity():
        return
    x = AlgebraElement({F2.identity: c0, w: c, w.inverse(): c}, 2)
    bracket = certify_norm(x, n_moments)
    assert Fraction(bracket.lower) <= abs(Fraction(c0)) + 2 * abs(Fraction(c)) \
        <= Fraction(bracket.upper)


def test_the_freeness_check_sees_a_relation():
    # {ab, bb, aBa} generates a subgroup of rank 2: it is not a free family,
    # and the check above refuses it as an Akemann-Ostrand case
    words = [F2.word(s) for s in ("ab", "bb", "aBa")]
    assert free_basis_decomposition(words) == 2


@given(*[st.integers(-50, 50)] * 4)
def test_two_free_unitaries_take_the_sum_of_moduli(p, q, r, s):
    # ||alpha u + beta v|| = |alpha| + |beta| for free unitaries u, v: the
    # Akemann-Ostrand minimum sits at t = 0 when n <= 2
    alpha, beta = complex(p, q), complex(r, s)
    x = AlgebraElement({F2.word("a"): alpha, F2.word("ab"): beta}, 2)
    lo, hi = root_sum([(1, p * p + q * q), (1, r * r + s * s)])
    assert _float_up(lo) == norm_upper_bound(x) == _float_up(hi)
    assert certify_norm(x, 4).lower <= hi


def test_nearest_neighbour_off_the_radial_case():
    # a + A + 2b + 2B: min over s of sqrt(s^2 + 4) + sqrt(s^2 + 16) - s
    x = AlgebraElement({F2.word(w): c for w, c in (("a", 1), ("A", 1), ("b", 2), ("B", 2))}, 2)
    bound = norm_upper_bound(x)
    assert bound.method == "nearest-neighbour"
    assert_rounded_up(bound, root_sum_min([4, 16], 1))
    assert abs(bound - 5.26936) < 1e-5


@st.composite
def free_family_or_nearest_neighbour(draw):
    """An element whose upper bound reads one of the two convex minima: a
    free family with an identity term, or a self-adjoint element on the
    generators plus a complex identity term, in ranks and families (the
    first five) whose moments of order 8 take well under a second."""
    c_e = complex(draw(st.integers(-9, 9)), draw(st.integers(-9, 9)))
    if draw(st.booleans()):
        rank, names = draw(st.sampled_from(FREE_FAMILIES[:5]))
        ctx = FreeGroupContext(rank)
        cs = draw(st.lists(st.integers(-99, 99).filter(bool), min_size=len(names),
                           max_size=len(names)))
        table = {ctx.word(w): Fraction(c, 7) for w, c in zip(names, cs)}
    else:
        rank = draw(st.integers(1, 2))
        ctx = FreeGroupContext(rank)
        table = {}
        for g in (ctx.generator(i) for i in range(1, rank + 1)):
            c = complex(draw(st.integers(-9, 9)), draw(st.integers(-9, 9)))
            table[g], table[g.inverse()] = c, c.conjugate()
    table[ctx.identity] = c_e
    return AlgebraElement(table, rank)


@settings(max_examples=40, deadline=None)
@given(free_family_or_nearest_neighbour())
def test_convex_minima_stay_above_the_lower_bound(x):
    assert norm_upper_bound(x) >= norm_lower_bound(x, 8)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(1, 999), st.integers(0, 24)), min_size=2, max_size=12),
       st.data())
def test_root_sum_minimum_is_found_across_decades(pairs, data):
    # the kernel's point gives f within 2^-45 of its minimum when the weights
    # spread over 24 decades, where plain Newton from the equal-weight root
    # stalls far from it; the oracle's own point is within 2^-80 of it
    weights = [a * 10**k for a, k in pairs]
    m = data.draw(st.integers(1, len(weights) - 1))
    value = Fraction(_root_sum_min(weights, m), 2**_SQRT_BITS)
    _, hi = root_sum_min(weights, m)
    assert hi * (1 - Fraction(1, 2**80)) <= value <= hi * (1 + Fraction(1, 2**45))


@given(st.lists(st.integers(1, 10**40), min_size=1, max_size=40))
def test_akemann_ostrand_is_never_above_the_averaging_estimate(weights):
    # the integer at the chosen point against 2 ||c||_2, both in units of
    # 1 / (den 2^_SQRT_BITS)
    assert _root_sum_min(weights, len(weights) - 2) <= 2 * _sqrt_up(sum(weights))


def sqrt_interval(q, bits=200):
    """Fractions lo <= sqrt(q) <= hi, equal when sqrt(q) is rational, apart
    by 2^-bits otherwise."""
    p, d = q.numerator, q.denominator
    if math.isqrt(p) ** 2 == p and math.isqrt(d) ** 2 == d:
        root = Fraction(math.isqrt(p), math.isqrt(d))
        return root, root
    lo = Fraction(math.isqrt(p * 4**bits // d), 2**bits)
    return lo, lo + Fraction(1, 2**bits)


def root_sum(terms):
    """An interval [lo, hi] on sum a sqrt(q) over pairs (a >= 0, q >= 0)."""
    pairs = [sqrt_interval(q) for _, q in terms]
    return (sum(a * lo for (a, _), (lo, _) in zip(terms, pairs)),
            sum(a * hi for (a, _), (_, hi) in zip(terms, pairs)))


def float_up_root(q):
    """The least float at least sqrt(q), for a rational q >= 0."""
    lo, hi = sqrt_interval(Fraction(q))
    assert _float_up(lo) == _float_up(hi)
    return _float_up(hi)


def root_sum_min(qs, m):
    """An interval [lo, hi] on f(t) = sum sqrt(t^2 + q) - m t, for rationals
    q >= 0, at t = 0 when m <= 0 and else at a float t that bisects
    f'(t) = sum t / sqrt(t^2 + q) - m to the end: the convex minimum of f,
    to far below a float's rounding."""
    if m <= 0:
        return root_sum([(1, q) for q in qs])
    lo, hi = 0.0, math.sqrt(float(max(qs))) * len(qs)
    while True:
        t = (lo + hi) / 2
        if t in (lo, hi):
            break
        if sum(t / math.sqrt(t * t + float(q)) for q in qs) < m:
            lo = t
        else:
            hi = t
    t = Fraction(t)
    low, high = root_sum([(1, t * t + q) for q in qs])
    return low - m * t, high - m * t


def nearest_neighbour_weights(x):
    """[4 |x(a)|^2 for the generators a in the support] when the part of x
    off e is self-adjoint and supported on the generators, else None."""
    coeffs = exact(x)
    for w, (re, im) in coeffs.items():
        if len(w) > 1 or (len(w) == 1 and coeffs.get(w.inverse(), (0, 0)) != (re, -im)):
            return None
    return [4 * (re * re + im * im) for w, (re, im) in coeffs.items()
            if len(w) == 1 and not w.letters[0] & 1]


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def exact_candidates(x):
    """{tag: interval} of every upper-bound candidate, from Fraction
    coefficients, with the reference fold.  A candidate that does not apply
    is left out; "free-family" stands for both freeness certificates, whose
    value is the Akemann-Ostrand minimum, and the partition of the support
    into ping-pong families is summed only when neither holds."""
    squares = {w: re * re + im * im for w, (re, im) in exact(x).items()}
    c_e = squares.get(F2.identity if x.rank == 2 else Word((), x.rank), 0)
    rest = sorted((w for w in squares if w), key=Word.sort_key)

    def layers(pairs):
        mass = {}
        for n, s in pairs:
            mass[n] = mass.get(n, 0) + s
        return [(n + 1, s) for n, s in mass.items()]

    out = {"l1": root_sum([(1, s) for s in squares.values()]),
           "ambient-layers": root_sum(layers((len(w), s) for w, s in squares.items()))}
    gens = nearest_neighbour_weights(x)
    if rest and gens is not None:
        out["nearest-neighbour"] = add(root_sum([(1, c_e)]), root_sum_min(gens, len(gens) - 1))
    elif rest and (reference_fold(rest) == len(rest)
                   or _disjoint_cylinders([w.letters for w in rest])):
        out["free-family"] = add(root_sum([(1, c_e)]),
                                 root_sum_min([squares[w] for w in rest], len(rest) - 2))
    elif rest:
        out["powers-partition"] = root_sum([(1, c_e)])
        for family in reference_partition(rest):
            out["powers-partition"] = add(out["powers-partition"], root_sum_min(
                [squares[w] for w in family], len(family) - 2))
    return out


def reference_partition(words):
    """The first-fit partition of the words, in their order, into families
    that disjoint_cylinder_oracle accepts, each a list of Words."""
    families = []
    for w in words:
        for family in families:
            if disjoint_cylinder_oracle(family + [w]):
                family.append(w)
                break
        else:
            families.append([w])
    return families


def partition_candidate(x):
    """The integer of the powers-partition candidate, in units of
    1 / (den 2^_SQRT_BITS), from the reference partition and the module's
    _root_sum_min, whatever the support."""
    squares = _squares(x)
    rest = [Word(w, x.rank) for w, _ in length_lex(squares) if w]
    return _modulus(x, b"") + sum(
        _root_sum_min([squares[w.letters] for w in family], len(family) - 2)
        for family in reference_partition(rest))


def assert_rounded_up(bound, interval):
    """bound is at least the exact value and at most a few ulps above it."""
    lo, hi = interval
    assert hi <= Fraction(bound) <= hi * (1 + Fraction(1, 2**50)) + Fraction(1, 2**1000)


def assert_few_ulps_below(floor, norm_squared):
    """floor <= sqrt(norm_squared), compared exactly, and at most four ulps
    of it below."""
    assert floor**2 <= norm_squared
    top = float_up_root(norm_squared)
    assert floor >= Fraction(top) - 4 * Fraction(math.ulp(top))


@st.composite
def floor_elements(draw):
    """Elements of ranks 1-3 with complex coefficients, with or without an
    identity term: 1-2 support words off e, any short words, a self-adjoint
    element on the generators, or a free family of FREE_FAMILIES."""
    coefficient = st.builds(complex, st.integers(-9, 9), st.integers(-9, 9)).filter(bool)
    kind = draw(st.sampled_from(["few", "short", "nearest-neighbour", "free-family"]))
    if kind == "free-family":
        rank, names = draw(st.sampled_from([f for f in FREE_FAMILIES if f[0] <= 3]))
        ctx = FreeGroupContext(rank)
        words = [ctx.word(w) for w in names]
    else:
        rank = draw(st.integers(1, 3))
        ctx = FreeGroupContext(rank)
        off_e = [w for w in ball(ctx, 2) if len(w)]
        words = draw(st.lists(st.sampled_from(off_e), min_size=1, unique=True,
                              max_size=2 if kind == "few" else 8))
    table = {w: Fraction(draw(st.integers(-99, 99).filter(bool)), 7) * draw(coefficient)
             for w in words}
    if kind == "nearest-neighbour":
        table = {}
        for g in (ctx.generator(i) for i in range(1, rank + 1)):
            if draw(st.booleans()):
                c = draw(coefficient)
                table[g], table[g.inverse()] = c, c.conjugate()
    if draw(st.booleans()):
        table[ctx.identity] = draw(coefficient)
    return AlgebraElement(table, rank)


@settings(max_examples=300, deadline=None)
@given(floor_elements())
def test_the_floor_is_below_every_upper_candidate(x):
    # the least candidate's integer, from the reference fold, compared
    # exactly with the floor, and the partition's on every support, free or
    # not: each family meets the floor's constraint on its own
    least, _ = upper_bound_oracle(x)
    floor = _upper_bound_floor(x)
    assert floor <= Fraction(least, x.den << _SQRT_BITS)
    assert floor <= Fraction(partition_candidate(x), x.den << _SQRT_BITS)


@settings(max_examples=60, deadline=None)
@given(floor_elements())
def test_the_partition_is_a_certified_upper_bound(x):
    # never below the certified lower bound; on a support that is one
    # ping-pong family, the partition is that family, so its value is the
    # disjoint-cylinders one
    rest = [(w, s) for w, s in length_lex(_squares(x)) if w]
    value = _modulus(x, b"") + _powers_partition(rest)
    assert value == partition_candidate(x)
    assert norm_lower_bound(x, 4) <= Fraction(value, x.den << _SQRT_BITS)
    if _disjoint_cylinders([w for w, _ in rest]):
        assert _powers_partition(rest) == _root_sum_min([s for _, s in rest], len(rest) - 2)


def upper_bound_oracle(x):
    """(integer, tag) of the least upper-bound candidate, in units of
    1 / (den 2^_SQRT_BITS), from the module's own candidate helpers with the
    reference fold always run and the reference partition when the support
    is no free family; on ties the earlier tag, as norm_upper_bound orders
    them."""
    squares = {w: x.re.get(w, 0) ** 2 + x.im.get(w, 0) ** 2 for w in x.re.keys() | x.im.keys()}
    rest = [w for w, _ in length_lex(squares) if w]
    c_e = _modulus(x, b"")
    candidates = [(_checked_l1(x), "l1"),
                  (_layer_bound((len(w), s) for w, s in squares.items()), "ambient-layers")]
    if rest and nearest_neighbour_weights(x) is not None:
        gens = [4 * squares[w] for w in rest if not w[0] & 1]
        candidates.append((c_e + _root_sum_min(gens, len(gens) - 1), "nearest-neighbour"))
    elif rest:
        free_family = c_e + _root_sum_min([squares[w] for w in rest], len(rest) - 2)
        if _disjoint_cylinders(rest):
            candidates.append((free_family, "disjoint-cylinders"))
        if reference_fold([Word(w, x.rank) for w in rest]) == len(rest):
            candidates.append((free_family, "free-support"))
        elif not _disjoint_cylinders(rest):
            candidates.append((partition_candidate(x), "powers-partition"))
    return min(candidates, key=lambda p: p[0])


class TestUpperBoundFoldSkip:
    def elements(self):
        rng = rng_from_seed(32)
        for _ in range(60):
            yield random_element(rng, 2, 3, int(rng.integers(1, 10)))
        a, b = F2.word("a"), F2.word("b")
        words = [w for w in ball(F2, 3) if not w.is_identity()]
        for _ in range(60):
            g = words[int(rng.integers(0, len(words)))]
            w = words[int(rng.integers(0, len(words)))]
            n = int(rng.integers(2, 10))
            # conjugates by powers of w: a free support unless w commutes with g
            hs = [w**k for k in range(1, n + 1)]
            # conjugates by short random words, with g and its inverse both
            # in the support, which then is not free
            hs_random = [words[int(i)] for i in rng.integers(0, len(words), size=n)]
            for conjugators, extra in ((hs, {}), (hs_random, {g.inverse(): 0.3})):
                table = dict(extra)
                for h in conjugators:
                    u = conjugate(g, h)
                    table[u] = table.get(u, 0) + Fraction(1, n)
                table[F2.identity] = float(rng.standard_normal()) * 0.2
                yield AlgebraElement(table, 2)
        yield AlgebraElement({conjugate(a, b**k): 0.125 for k in range(1, 9)}, 2)
        # self-adjoint off e and on the generators: the nearest-neighbour candidate
        for _ in range(20):
            table = {F2.identity: complex(rng.standard_normal(), rng.standard_normal())}
            for g in (a, b):
                if rng.random() < 0.8:
                    c = complex(rng.standard_normal(), rng.standard_normal())
                    table[g], table[g.inverse()] = c, c.conjugate()
            yield AlgebraElement(table, 2)

    def test_equals_minimum_with_fold_always_run(self):
        folds_needed = 0
        for x in self.elements():
            least, tag = upper_bound_oracle(x)
            bound = norm_upper_bound(x)
            assert (bound, bound.method) == (_float_up(Fraction(least, x.den << _SQRT_BITS)), tag)
            candidates = exact_candidates(x)
            assert_rounded_up(bound, min(candidates.values(), key=lambda iv: iv[1]))
            folds_needed += bound.method in ("free-support", "powers-partition")
        # the family reaches the fold as well as the skip
        assert folds_needed > 0

    def test_each_candidate_against_exact_fractions(self):
        # the l1 and layer integers, in units of 1 / (den 2^_SQRT_BITS), are
        # the exact values with each square root rounded up by under one unit
        for x in self.elements():
            candidates = exact_candidates(x)
            unit = Fraction(1, x.den << _SQRT_BITS)
            squares = {w: re * re + im * im for w, (re, im) in exact(x).items()}
            l1 = _checked_l1(x) * unit
            layers = _layer_bound((len(w), int(s * x.den**2)) for w, s in squares.items()) * unit
            weights = sum(n + 1 for n in {len(w) for w in squares})
            for value, tag, slack in ((l1, "l1", len(squares)),
                                      (layers, "ambient-layers", weights)):
                lo, hi = candidates[tag]
                assert hi <= value < lo + slack * unit
            # a complex coefficient's l1 term is rounded up; a real one is exact
            if not x.im:
                assert l1 == candidates["l1"][0] == candidates["l1"][1]

    def test_bracket_takes_bound_and_tag_from_norm_upper_bound(self):
        methods = set()
        for x in self.elements():
            bound = norm_upper_bound(x)
            bracket = certify_norm(x, 2)
            assert type(bracket.upper) is float
            assert (bracket.upper, bracket.upper_method) == (bound, bound.method)
            methods.add(bound.method)
        assert {"l1", "disjoint-cylinders", "free-support", "powers-partition",
                "nearest-neighbour"} <= methods
        zero = norm_upper_bound(AlgebraElement({}, 2))
        assert (zero, zero.method) == (0.0, "zero")


def disjoint_cylinder_oracle(words):
    """The greedy split choice, scanning every earlier chosen prefix."""

    def comparable(p, q):
        m = min(len(p), len(q))
        return p[:m] == q[:m]

    chosen = []
    for t in words:
        m = len(t)
        mid = (m + 1) // 2
        for j in sorted(range(1, m + 1), key=lambda j: (abs(j - mid), j)):
            head = t.letters[:j]
            tail_inv = Word(t.letters[j - 1 :], t.rank).inverse().letters
            if not any(comparable(p, q) for p in (head, tail_inv) for q in chosen):
                chosen += [head, tail_inv]
                break
        else:
            return False
    return True


def test_disjoint_cylinder_bound_matches_pairwise_scan():
    rng = rng_from_seed(33)
    words = [w for w in ball(F2, 4) if not w.is_identity()]
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(1, 7))
        picks = sorted({int(i) for i in rng.integers(0, len(words), size=n)})
        support = [words[i] for i in picks]
        expected = disjoint_cylinder_oracle(support)
        assert _disjoint_cylinders([w.letters for w in support]) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
    # every ordered pair of distinct short words: a chosen prefix met only as
    # the sorted predecessor, or only as a prefix of the successor, shows here
    short = [w for w in ball(F2, 3) if not w.is_identity()]
    outcomes = set()
    for u in short:
        for v in short:
            if u != v:
                expected = disjoint_cylinder_oracle([u, v])
                assert _disjoint_cylinders([u.letters, v.letters]) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}
    # Powers-average supports {h^-k g h^k : k <= 16}, with and without the
    # conjugates of g^-1: words up to 132 letters, not cyclically reduced
    outcomes = set()
    for _ in range(40):
        g, h = (words[int(i)] for i in rng.integers(0, len(words), size=2))
        conjugates = [conjugate(g, h**k) for k in range(1, 17)]
        for extra in ([], [conjugate(g.inverse(), h**k) for k in range(1, 17)]):
            support = sorted(set(conjugates + extra), key=Word.sort_key)
            expected = disjoint_cylinder_oracle(support)
            assert _disjoint_cylinders([w.letters for w in support]) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def word_table_moment_engine(x, support_cap=5000):
    """Exact reference for the non-radial moment engine: tables keyed by Word
    with coefficients as Fraction (re, im) pairs, every pairing tau0(a b)
    summed with Word.inverse() lookups, and tau0(y^(2m+1)) paired from the
    whole table y y^m.  Runs as the engine does at order 8 and records the
    work behind each order past 2: for an even order 4m, the words that the
    square of y^m touches; for an odd order 2m+1, the words of y it reads
    (one of each pair g, g^-1 of words other than the identity, whose term
    comes from tau0(y^(2m))) times |supp y^m|.  It stops
    at the first order whose work passes the cap; y itself, at most 5 x 5
    words for the elements here, never binds.
    Returns the moments {m: tau0(y^m)} as Fractions and the work {m: size}."""

    def times(a, b, cap=math.inf):
        # the words first, so that a product past the cap does no arithmetic
        touched = set()
        for u in a:
            touched.update(u * v for v in b)
            if len(touched) > cap:
                raise ResourceLimitError("cap", cap)
        out = {}
        for u, (ar, ai) in a.items():
            for v, (br, bi) in b.items():
                uv = u * v
                re, im = out.get(uv, (0, 0))
                out[uv] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
        return {w: c for w, c in out.items() if c != (0, 0)}, len(touched)

    def pairing(a, b):
        re = im = 0
        for w, (ar, ai) in a.items():
            br, bi = b.get(w.inverse(), (0, 0))
            re, im = re + ar * br - ai * bi, im + ar * bi + ai * br
        assert im == 0
        return re

    table = exact(x)
    y, _ = times({w.inverse(): (re, -im) for w, (re, im) in table.items()}, table)
    e = Word((), x.rank)
    reads = (len(y) - (e in y)) // 2
    moments = {1: y.get(e, (0, 0))[0], 2: pairing(y, y)}
    work = {}
    z = y
    for m_z in (1, 2, 4):
        work[2 * m_z + 1] = reads * len(z)
        if work[2 * m_z + 1] > support_cap:
            break
        moments[2 * m_z + 1] = pairing(times(y, z)[0], z)
        if m_z == 4:
            break
        try:
            z, work[4 * m_z] = times(z, z, support_cap)
        except ResourceLimitError:
            work[4 * m_z] = support_cap + 1
            break
        assert z.get(e, (0, 0))[0] == moments[2 * m_z]
        moments[4 * m_z] = pairing(z, z)
    return moments, work


# The orders the engine computes at each requested order when no cap binds:
# tau0(y^(2m)) at z = y, y^2, y^4 and, up to the request, tau0(y^(2m+1)),
# squaring z only while an order of the new power is at most the request, or
# one past it beside the request
ENGINE_ORDERS = {1: (1, 2), 2: (1, 2, 3), 3: (1, 2, 3, 4), 5: (1, 2, 3, 4, 5),
                 8: (1, 2, 3, 4, 5, 8, 9)}


def reference_moments(reference, n_moments, support_cap):
    """The reference's moments at n_moments under a cap of at most 5000, from
    its run at order 8 and cap 5000: the engine's orders up to the first
    whose work passes the cap."""
    moments, work = reference
    orders = takewhile(lambda m: work.get(m, 0) <= support_cap, ENGINE_ORDERS[n_moments])
    return {m: moments[m] for m in orders}


def engine_moments(x, n_moments):
    """The engine's moments {m: tau0(y^m)} as Fractions."""
    den, moments = _trace_moments(x, n_moments)
    return {m: Fraction(v, den**m) for m, v in moments.items()}


def certified_by(r, moments, n_moments):
    """Whether r is at most a root or ratio bound of the exact moments
    {m: tau0(y^m)} at some order m <= n_moments, compared in Fractions."""
    r = Fraction(r)
    return any(
        r ** (2 * m) <= v or (m + 1 in moments and r * r * v <= moments[m + 1])
        for m, v in moments.items() if m <= n_moments
    )


def best_candidate(moments, n_moments):
    """The largest root or ratio bound of the moments, in floats."""
    return max(
        max(float(v) ** (1 / (2 * m)), math.sqrt(moments[m + 1] / v) if m + 1 in moments else 0)
        for m, v in moments.items() if m <= n_moments
    )


def old_search(moments, max_m, den):
    """The lower bound as the engine once searched it, kept as an oracle: the
    root tau0(y^m)^(1/2m) and the ratio sqrt(tau0(y^(m+1)) / tau0(y^m)) at
    each order m <= max_m of the integer moments {m: den^m tau0(y^m)},
    compared in floats, and the winner rounded to the largest float that
    passes its exact check."""
    best, win = 0.0, (1, False)
    for m, moment in moments.items():
        if m > max_m:
            continue
        e, f = moment.bit_length(), den.bit_length()
        q, rem = divmod(e - m * f, 2 * m)
        frac = math.log2(moment / (1 << e)) - m * math.log2(den / (1 << f))
        r = math.ldexp(2.0 ** ((frac + rem) / (2 * m)), q)
        if r > best:
            best, win = r, (m, False)
        if m + 1 in moments:
            r = math.sqrt(moments[m + 1] / (moment * den))
            if r > best:
                best, win = r, (m, True)
    m, ratio = win

    def certified(r):
        r2 = Fraction(r) ** 2
        return r2 * den * moments[m] <= moments[m + 1] if ratio else r2**m * den**m <= moments[m]

    while not certified(best):
        best = math.nextafter(best, 0)
    while certified(up := math.nextafter(best, math.inf)):
        best = up
    return best


def chord_certifies(r, moments, a, b):
    """Whether r^2 <= (tau0(y^b) / tau0(y^a))^(1/(b-a)), in Fractions."""
    return (Fraction(r) ** 2) ** (b - a) * moments[a] <= moments[b]


def non_radial_elements(rng):
    """Seeded elements of 2 to 5 terms whose y = x*x is not radial: Gaussian
    complex coefficients, and small integer ones whose powers cancel exactly
    to zero coefficients."""
    out = []
    while len(out) < 24:
        rank = int(rng.integers(1, 4))
        x = random_element(rng, rank, 2, int(rng.integers(2, 6)))
        if len(exact(x)) < 2:
            continue  # a single term gives the radial y = |c|^2 lambda_e
        if len(out) % 2:
            ints = (1, -1, 2, 1j)
            x = AlgebraElement({w: ints[int(rng.integers(0, 4))] for w in exact(x)}, rank)
        out.append(x)
    return out


@pytest.fixture(scope="module")
def references():
    """(x, the reference's moments and work) for the seeded elements, built
    once for the two tests that read them."""
    return [(x, word_table_moment_engine(x)) for x in non_radial_elements(rng_from_seed(44))]


class TestLetterTableMomentEngine:
    def test_moments_equal_the_exact_reference(self, monkeypatch, references):
        short = 0
        for x, reference in references:
            for n in (1, 2, 3, 5, 8):
                for cap in (5000, 200, 60, 25):
                    monkeypatch.setattr(freegroup, "SUPPORT_CAP", cap)
                    expected = reference_moments(reference, n, cap)
                    assert engine_moments(x, n) == expected
                    achieved = max(m for m in expected if m <= n)
                    assert norm_lower_bound(x, n).order == achieved
                    short += achieved < n
        # the cap binds partway through on many of these
        assert short > 20

    def test_chord_beats_every_root_and_ratio(self, monkeypatch, references):
        # the next float above the bound passes no root or ratio check of the
        # orders up to n, so the bound is at least each of them rounded down
        # by its own exact check; with consecutive top orders the chord is the
        # old search's winning ratio, bit for bit
        consecutive = gapped = 0
        for x, reference in references:
            for n in (1, 2, 3, 5, 8):
                for cap in (5000, 200, 60, 25):
                    monkeypatch.setattr(freegroup, "SUPPORT_CAP", cap)
                    moments = reference_moments(reference, n, cap)
                    bound = norm_lower_bound(x, n)
                    up = Fraction(math.nextafter(bound, math.inf))
                    for m, v in moments.items():
                        if m <= n:
                            assert up ** (2 * m) > v
                            assert m + 1 not in moments or up * up * v > moments[m + 1]
                    den, held = _trace_moments(x, n)
                    a, b = sorted(held)[-2:]
                    if b == a + 1:
                        assert bound == old_search(held, n, den)
                        consecutive += 1
                    else:
                        assert bound >= old_search(held, n, den)
                        gapped += 1
        assert consecutive and gapped

    def test_capped_chord_reads_the_order_it_reports(self, monkeypatch):
        # a cap of 600 lets the square that forms y^4 through and stops the
        # odd moment tau0(y^9): the orders are 1-5 and 8, and the chord
        # (5, 8) beats the old search's best root or ratio, 2.1441874757057957
        x = AlgebraElement({F2.word("a"): 1.0, F2.word("b"): 1.0, F2.word("ab"): 0.5}, 2)
        moments = reference_moments(word_table_moment_engine(x), 8, 600)
        assert sorted(moments) == [1, 2, 3, 4, 5, 8]
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 600)
        bound = norm_lower_bound(x, 8)
        assert (bound, bound.order) == (2.197111436454556, 8)
        assert chord_certifies(bound, moments, 5, 8)
        assert not chord_certifies(math.nextafter(bound, math.inf), moments, 5, 8)
        den, held = _trace_moments(x, 8)
        assert old_search(held, 8, den) == 2.1441874757057957

    def test_lower_bound_is_rounded_down(self, monkeypatch, references):
        with monkeypatch.context() as patch:
            patch.setattr(freegroup, "SUPPORT_CAP", 5000)
            for x, reference in references:
                for n in (1, 2, 3, 5, 8):
                    moments = reference_moments(reference, n, 5000)
                    bound = norm_lower_bound(x, n)
                    assert certified_by(bound, moments, n)
                    assert math.isclose(bound, best_candidate(moments, n), rel_tol=1e-14)
        # the Kesten element: y = 4 + E_2 = p(E_1) with p(t) = t^2, whose
        # largest value at a candidate is at T = isqrt(12 2^128) / 2^64, just
        # below 2 sqrt(3); the bound is the largest float at most T
        kesten = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        bound = norm_lower_bound(kesten, 64)
        top = Fraction(math.isqrt(12 << 2 * _SQRT_BITS), 1 << _SQRT_BITS)
        assert Fraction(bound) <= top < Fraction(math.nextafter(bound, math.inf))
        assert top**2 < 12

    def test_squares_only_for_read_orders(self, monkeypatch):
        # z = Y^m_z is squared only while an order of the new power is at most
        # n_moments, or n_moments + 1 beside n_moments: at n_moments 5-7 the
        # engine stops at y^2 and at 9-15 at y^4.  The run at 16, which also
        # forms y^8, holds every order those compute, and the bound is the
        # chord of those orders
        calls = []
        times = algebra._times
        monkeypatch.setattr(algebra, "_times", lambda *a: calls.append(a) or times(*a))
        F3 = FreeGroupContext(3)
        for x in (AlgebraElement({F2.word("a"): 2, F2.word("B"): -1}, 2),
                  AlgebraElement({F3.word("a"): 1, F3.word("bc"): 1j}, 3)):
            den, full = _trace_moments(x, 16)
            assert sorted(full) == [1, 2, 3, 4, 5, 8, 9, 16, 17]
            for n in (*range(5, 8), *range(9, 16)):
                calls.clear()
                bound = norm_lower_bound(x, n)
                # one product forms y = x*x and each other one a square
                assert len(calls) == (2 if n < 8 else 3)
                held = {m: v for m, v in full.items() if m <= n or m == n + 1 and n in full}
                assert bound == _bounds_from_moments(held, den)
                assert bound.order == max(m for m in full if m <= n)
                assert _trace_moments(x, n)[1] == held

    def test_achieved_order_under_a_binding_cap(self, monkeypatch):
        x = AlgebraElement({F2.word("a"): 1.0, F2.word("b"): 1.0, F2.word("ab"): 0.5}, 2)
        # y has 7 terms and y^2 31, and 4 of y's words are read for an odd
        # moment (the identity and one of each pair g, g^-1): a cap of 200
        # stops at the squaring that would form y^4, after tau0(y^5) read
        # y^2 y^2 at those 4 words with 4 x 31 = 124 lookups
        full = certify_norm(x, 8)
        assert full.moments_used == 8
        lower_5 = norm_lower_bound(x, 5)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 200)
        capped = certify_norm(x, 8)
        assert capped.moments_used == 5
        assert capped.lower == lower_5 < full.lower
        # 124 lookups pass a cap of 60, and tau0(y^3)'s 4 x 7 = 28 one of 10
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 60)
        assert certify_norm(x, 8).moments_used == 4
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 10)
        assert certify_norm(x, 8).moments_used == 2
        # a radial y reads no moment, so it reports the request whatever the cap
        radial = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 20)
        assert certify_norm(radial, 64).moments_used == 64

    def test_exact_zeros_do_not_count_against_the_cap(self, monkeypatch):
        # y = 3 - a^2 - a^-2: its a and a^-1 terms cancel exactly; kept, they
        # would give y y 9 terms instead of 5 and stop it at a cap of 6.
        # Dropped, tau0(y^5) reads one word of y times 5, and the square
        # that would form y^4 touches 9 words
        x = AlgebraElement({F2.identity: 1, F2.word("a"): 1, F2.word("A"): -1}, 2)
        expected = reference_moments(word_table_moment_engine(x), 8, 6)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 6)
        assert engine_moments(x, 8) == expected
        assert norm_lower_bound(x, 8).order == max(m for m in expected if m <= 8) == 5

    def test_times_union_check(self, monkeypatch):
        # x*x = 3 + a + A + i (b + Ab - B - Ba): its re part holds 3 words and
        # its im part 4, each under a cap of 4, which no partial product
        # passes; the union of 7 trips the check in _times
        x = AlgebraElement({F2.identity: 1, F2.word("a"): 1, F2.word("b"): 1j}, 2)
        assert norm_lower_bound(x, 1).order == 1
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 4)
        with pytest.raises(ResourceLimitError):
            norm_lower_bound(x, 1)

    def test_bound_survives_copy_and_pickle(self, monkeypatch):
        x = AlgebraElement({F2.word("a"): 1.0, F2.word("b"): 1.0, F2.word("ab"): 0.5}, 2)
        # MomentBound and UpperBound share their copy and pickle support; a
        # cap of 200 stops x's moments at order 5, as in
        # test_achieved_order_under_a_binding_cap, and sphere2 is bounded by
        # its one layer, 3 sqrt(12), below its l1 norm 12
        sphere2 = AlgebraElement({w: 1.0 for w in ball(F2, 2) if len(w) == 2}, 2)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 200)
        lower, upper = norm_lower_bound(x, 8), norm_upper_bound(sphere2)
        for bound, tags in ((lower, {"order": 5, "method": "trace-moments"}),
                            (upper, {"method": "ambient-layers"})):
            for twin in (copy.copy(bound), copy.deepcopy(bound),
                         pickle.loads(pickle.dumps(bound))):
                assert type(twin) is type(bound)
                assert twin == bound
                assert {tag: getattr(twin, tag) for tag in tags} == tags
            assert type(bound + 1.0) is float


def self_adjoint_tables(rng, words, kind, values):
    """Seeded integer tables (re, im) of a self-adjoint T, T(g^-1) = conj T(g),
    on up to 4 of the nonempty words and their inverses, parts drawn from
    values: kind "complex", "imaginary" (re empty) or "real" (im empty), and
    "+1" on the first two for an identity term."""
    re, im = {}, {}
    for _ in range(int(rng.integers(1, 5))):
        w = words[int(rng.integers(0, len(words)))]
        if not kind.startswith("imaginary"):
            re[w] = re[inverse_letters(w)] = values[int(rng.integers(0, len(values)))]
        if not kind.startswith("real"):
            im[w] = values[int(rng.integers(0, len(values)))]
            im[inverse_letters(w)] = -im[w]
    if kind.endswith("+1"):
        re[b""] = values[int(rng.integers(0, len(values)))]
    return re, im


def paired_product(y, z):
    """tau0(Y Z Z) as the engine once formed it: the whole table t = Y Z from
    letter_product, paired with Z as sum Re(t(w) conj Z(w))."""
    t = _times(y, z)
    return sum(c * t_part.get(w, 0) for z_part, t_part in zip(z, t) for w, c in z_part.items())


def square_trace(z):
    """tau0(Z Z) = sum |Z(w)|^2 of a self-adjoint table Z = (re, im)."""
    return sum(c * c for part in z for c in part.values())


class NoLookups(dict):
    """A table whose get fails, to show that no lookup ran."""

    def get(self, *args):
        raise AssertionError("a lookup ran")


class CountedLookups(dict):
    """A table that counts the lookups made through get in `count`."""

    count = 0

    def get(self, *args):
        CountedLookups.count += 1
        return super().get(*args)


class TestOddMomentKernel:
    def test_equals_the_paired_product(self):
        rng = rng_from_seed(45)
        kinds = ("complex+1", "complex", "imaginary", "real+1", "real")
        big = (3, -5, 7 << 90, -(11 << 70), 2**127 - 1)
        for y_kind in kinds:
            for z_kind in kinds:
                for values in (big, (1, -1)):
                    rank = int(rng.integers(1, 3))
                    ball2 = [w.letters for w in ball(FreeGroupContext(rank), 2) if len(w)]
                    z = self_adjoint_tables(rng, ball2, z_kind, values)
                    # y on words whose inverses z z touches, so that lookups hit
                    support = dict.fromkeys(z[0].keys() | z[1].keys(), 1)
                    y = self_adjoint_tables(rng, [w for w in letter_product(support, support) if w],
                                            y_kind, values)
                    assert _odd_moment(y, z, square_trace(z)) == paired_product(y, z)
        # z = 1 + a + A - aa - AA: the four terms of z z at a, and at A,
        # cancel to exactly zero, so the words a and A of y add nothing
        a, aa, A, AA = (F1.word(w).letters for w in ("a", "aa", "A", "AA"))
        z = ({b"": 1, a: 1, A: 1, aa: -1, AA: -1}, {})
        assert a not in _times(z, z)[0]
        y = ({a: 3, A: 3, aa: 1, AA: 1}, {a: 2, A: -2})
        assert (_odd_moment(y, z, square_trace(z)) == paired_product(y, z)
                == paired_product(({aa: 1, AA: 1}, {}), z))

    def test_cap_is_predicted_before_any_lookup(self, monkeypatch):
        x = AlgebraElement({F2.word("a"): 1.0, F2.word("b"): 1.0, F2.word("ab"): 0.5}, 2)
        # y has 7 words, of which 3 are read (one of each pair g, g^-1; the
        # identity's term comes from tau0(y^2) or tau0(y^4) with no lookup),
        # y^2 31 and y^4 511: tau0(y^3) takes 3 x 7 = 21 lookups, tau0(y^5)
        # 3 x 31 = 93 and tau0(y^9) 3 x 511 = 1533, and the square y y
        # touches over 28 words
        kernel = algebra._odd_moment
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_odd_moment",
                          lambda y, z, t: kernel(y, tuple(map(NoLookups, z)), t))
            patch.setattr(freegroup, "SUPPORT_CAP", 20)
            assert sorted(engine_moments(x, 8)) == [1, 2]
        lookups = []

        def counted(y, z, t):
            CountedLookups.count = 0
            moment = kernel(y, tuple(map(CountedLookups, z)), t)
            lookups.append(CountedLookups.count)
            return moment

        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_odd_moment", counted)
            reference = engine_moments(x, 8)
        # the predicted work is the work done, and the moments are the reference's
        assert lookups == [21, 93, 1533]
        assert reference == reference_moments(word_table_moment_engine(x), 8, 5000)
        for cap, orders in ((21, [1, 2, 3]), (92, [1, 2, 3, 4]), (93, [1, 2, 3, 4, 5])):
            monkeypatch.setattr(freegroup, "SUPPORT_CAP", cap)
            assert sorted(engine_moments(x, 8)) == orders


@st.composite
def table_pairs(draw):
    """Two integer tables (re, im) over the words of one rank 1-3, small
    coefficients so that sums cancel to exact zeros, each im part empty
    about half the time.  The left table also takes the words r v[:k]^-1,
    |r| < 2, for some words v of the right one, whose products with v keep
    one letter of the left word or none."""
    rank = draw(st.integers(1, 3))
    letters = st.integers(0, 2 * rank - 1)
    words = st.lists(letters, max_size=4).map(reduce_letters)
    coeffs = st.integers(-2, 2).filter(bool)

    def table(extra=()):
        re = draw(st.dictionaries(words, coeffs, max_size=6))
        im = draw(st.dictionaries(words, coeffs, max_size=6)) if draw(st.booleans()) else {}
        for w in extra:
            re[w] = draw(coeffs)
        return re, im

    right = table()
    vs = sorted(right[0].keys() | right[1].keys())
    cancelling = []
    if vs:
        for _ in range(draw(st.integers(0, 4))):
            v = draw(st.sampled_from(vs))
            k = draw(st.integers(0, len(v)))
            r = bytes(draw(st.lists(letters, max_size=1)))
            cancelling.append(reduce_letters(r + inverse_letters(v[:k])))
    return table(cancelling), right


def adjoint_tables(x):
    """The integer tables (re, im) of x*, over the denominator of x."""
    return ({inverse_letters(w): c for w, c in x.re.items()},
            {inverse_letters(w): -c for w, c in x.im.items()})


def touched_words(a, b):
    """The words u v over u in supp a and v in supp b, of tables (re, im):
    every such pair is in one of the four partial products of _times."""
    return {_product_letters(u, v) for u in a[0].keys() | a[1].keys()
            for v in b[0].keys() | b[1].keys()}


class TestProductPieces:
    @settings(max_examples=300)
    @given(table_pairs())
    def test_pieces_equal_the_whole_product(self, pair):
        a, b = pair
        products = [(u, v) for u in a for v in b if u and v]
        keys = []
        union = [{} for _ in products]
        for p, pieces in letter_product_pieces(*products):
            keys.append(p)
            assert len(pieces) == len(products) and any(pieces)
            for out, piece in zip(union, pieces):
                # one piece a value of w[:2], the whole word when shorter
                assert all(w[:2] == p for w in piece)
                assert not out.keys() & piece.keys()
                out.update(piece)
        assert keys == sorted(set(keys))
        # the same words, exact zeros too, and the same coefficients
        assert union == [letter_product(u, v) for u, v in products]
        assert _square_sum(a, b) == square_trace(_times(a, b))

    def test_pairs_that_cancel_the_left_word_whole_or_to_one_letter(self):
        # ab B = a and ab Ba = aa keep one letter of ab, ab BA = 1 and
        # ab BAb = b none: each lands in the piece of its own first letters,
        # and ab's own piece, where no other pair lands, is not yielded
        x = {F2.word("ab").letters: 2}
        y = {F2.word(w).letters: 1 for w in ("B", "Ba", "BA", "BAb")}
        whole = letter_product(x, y)
        assert sorted(whole) == sorted(F2.word(w).letters for w in ("1", "a", "aa", "b"))
        assert [(p, piece) for p, (piece,) in letter_product_pieces((x, y))] == [
            (w, {w: 2}) for w in sorted(whole)]
        # with the identity and a beside ab, the pieces still make up x y
        x.update({b"": 1, F2.word("a").letters: -1})
        whole = letter_product(x, y)
        assert {p: piece for p, (piece,) in letter_product_pieces((x, y))} == {
            p: {w: c for w, c in whole.items() if w[:2] == p} for p in {w[:2] for w in whole}}

    def test_cap_binds_exactly_when_it_binds_on_times(self, monkeypatch):
        # y = x*x, summed at n_moments 1, and y y, formed by _times at
        # n_moments 3.  At touched - 1 the kernel and _times both raise on
        # either, and at touched neither does; the engine stops there too,
        # unless an earlier step binds first
        elements = non_radial_elements(rng_from_seed(46)) + [
            AlgebraElement({F2.identity: 1, F2.word("a"): 1, F2.word("b"): 1j}, 2),
            AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)]
        engine_checked = {1: 0, 3: 0}
        for x in elements:
            adjoint = adjoint_tables(x)
            first = touched_words(adjoint, (x.re, x.im))
            y = _times(adjoint, (x.re, x.im))
            # odd-moment lookups: the words g != e of y with g <= g^-1, times |supp y|
            supp_y = y[0].keys() | y[1].keys()
            lookups = sum(1 for g in supp_y if g and g <= inverse_letters(g)) * len(supp_y)
            for n, (a, b) in ((1, (adjoint, (x.re, x.im))), (3, (y, y))):
                touched = len(touched_words(a, b))
                for cap in (touched - 1, touched):
                    with monkeypatch.context() as patch:
                        patch.setattr(freegroup, "SUPPORT_CAP", cap)
                        for product in (_times, _square_sum):
                            if cap < touched:
                                with pytest.raises(ResourceLimitError):
                                    product(a, b)
                            else:
                                product(a, b)
                        if n == 1 and cap < touched:
                            with pytest.raises(ResourceLimitError):
                                norm_lower_bound(x, 1)
                        elif n == 1:
                            assert norm_lower_bound(x, 1).order == 1
                            engine_checked[1] += 1
                        elif max(len(first), lookups) < touched:
                            assert (4 in _trace_moments(x, 3)[1]) == (cap >= touched)
                            engine_checked[3] += 1
        assert engine_checked[1] == len(elements) and engine_checked[3] > 20

    def test_chord_equals_the_reference_on_summed_squares(self, references):
        # at n_moments 1 the top order is a summed product, and at 3 a
        # square of _times; radial elements, which take the radial path only
        # past n_moments 1, are covered at 1, with y = x*x checked to be radial
        F3 = FreeGroupContext(3)
        radial = [AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2),
                  AlgebraElement({w: 1 for w in ball(F1, 1)}, 1),
                  AlgebraElement({w: 1j for w in ball(F3, 1) if len(w)}, 3),
                  AlgebraElement({w: 1 if len(w) else 2 for w in ball(F2, 1)}, 2)]
        for x in radial:
            y = _times(adjoint_tables(x), (x.re, x.im))
            assert not y[1] and _radial_profile(y[0], x.rank) is not None
        cases = [(x, reference, (1, 3)) for x, reference in references] + [
            (x, word_table_moment_engine(x), (1,)) for x in radial]
        for x, reference, orders in cases:
            for n in orders:
                moments = reference_moments(reference, n, 5000)
                assert sorted(moments) == list(ENGINE_ORDERS[n])
                assert norm_lower_bound(x, n) == reference_chord(moments)


def reference_chord(moments):
    """The largest float r with r^2 <= (tau0(y^b) / tau0(y^a))^(1/(b-a)) at
    the two highest orders a < b of the moments, compared in Fractions."""
    a, b = sorted(moments)[-2:]
    r = float(moments[b] / moments[a]) ** (1 / (2 * (b - a)))
    while not chord_certifies(r, moments, a, b):
        r = math.nextafter(r, 0)
    while chord_certifies(math.nextafter(r, math.inf), moments, a, b):
        r = math.nextafter(r, math.inf)
    return r


def test_summed_square_holds_a_piece_not_the_table():
    # b5 = mu_5 * lambda_ab - tau0(lambda_ab) for the Cesaro average mu_5 of
    # the simple walk: 108 terms, whose y = b5* b5 touches 11,517 words.  At
    # n_moments 1 the bound reads y only as sums, piece by piece
    a = AlgebraElement.delta(F2.word("ab"))
    b5 = _centered(measure_convolve_element(cesaro_measure(uniform_generator_measure(2), 5), a))
    assert (len(b5.re), len(b5.im)) == (108, 0)
    adjoint = {inverse_letters(w): c for w, c in b5.re.items()}

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: norm_lower_bound(b5, 1)) < peak(lambda: letter_product(adjoint, b5.re)) / 4
