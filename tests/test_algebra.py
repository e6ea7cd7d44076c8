import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationarylab.algebra import (
    AlgebraElement,
    _disjoint_cylinders,
    _layer_bound,
    _trace_moments,
    adjoint_action,
    canonical_trace,
    certify_norm,
    convolve,
    involution,
    norm_lower_bound,
    norm_upper_bound,
)
from stationarylab import freegroup
from stationarylab.errors import ContextMismatchError, MalformedInputError, ResourceLimitError
from stationarylab.freegroup import (
    FreeGroupContext,
    Word,
    ball,
    conjugate,
    free_basis_decomposition,
)
from stationarylab.walks import rng_from_seed

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
    """Explicit double loop over all support pairs."""
    out = {}
    for u, cu in x.coeffs.items():
        for v, cv in y.coeffs.items():
            w = Word(u, x.rank) * Word(v, y.rank)
            out[w] = out.get(w, 0) + cu * cv
    return AlgebraElement(out, x.rank)


def max_coeff_diff(x, y):
    keys = set(x.coeffs) | set(y.coeffs)
    return max((abs(x.coeffs.get(k, 0) - y.coeffs.get(k, 0)) for k in keys), default=0.0)


class TestConvolve:
    def test_unitary_times_inverse(self):
        a = F2.word("a")
        assert convolve(AlgebraElement.delta(a), AlgebraElement.delta(a.inverse())) \
            == AlgebraElement.unit(2)

    def test_unit_law(self):
        x = AlgebraElement.delta(F2.word("a")) + AlgebraElement.delta(F2.word("b"))
        assert convolve(x, AlgebraElement.unit(2)) == x

    def test_against_dense_oracle(self):
        rng = rng_from_seed(21)
        for _ in range(25):
            x = random_element(rng, 2, 3, 12)
            y = random_element(rng, 2, 3, 12)
            assert max_coeff_diff(convolve(x, y), dense_convolve_oracle(x, y)) < 1e-12

    def test_bilinear(self):
        rng = rng_from_seed(22)
        x = random_element(rng, 2, 2, 8)
        y = random_element(rng, 2, 2, 8)
        z = random_element(rng, 2, 2, 8)
        lhs = convolve(x + y, z)
        rhs = convolve(x, z) + convolve(y, z)
        assert max_coeff_diff(lhs, rhs) < 1e-12

    def test_associative_random_triples(self):
        rng = rng_from_seed(23)
        for _ in range(20):
            x = random_element(rng, 2, 2, 6)
            y = random_element(rng, 2, 2, 6)
            z = random_element(rng, 2, 2, 6)
            assert max_coeff_diff(
                convolve(convolve(x, y), z), convolve(x, convolve(y, z))
            ) < 1e-12

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            convolve(AlgebraElement.unit(1), AlgebraElement.unit(2))

    def test_support_cap(self, monkeypatch):
        x = AlgebraElement({w: 1.0 for w in ball(F2, 2)}, 2)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 10)
        with pytest.raises(ResourceLimitError):
            convolve(x, x)


class TestInvolution:
    def test_single_unitary(self):
        a = F2.word("a")
        assert involution(AlgebraElement.delta(a)) == AlgebraElement.delta(a.inverse())

    def test_conjugates_coefficients(self):
        a = F2.word("a")
        assert involution(AlgebraElement.delta(a, 2 + 1j)) == AlgebraElement.delta(
            a.inverse(), 2 - 1j
        )

    def test_involutive(self):
        rng = rng_from_seed(24)
        for _ in range(50):
            x = random_element(rng, 2, 3, 10)
            assert involution(involution(x)) == x

    def test_antimultiplicative(self):
        rng = rng_from_seed(25)
        x = random_element(rng, 2, 2, 6)
        y = random_element(rng, 2, 2, 6)
        assert max_coeff_diff(
            involution(convolve(x, y)), convolve(involution(y), involution(x))
        ) < 1e-12


class TestCanonicalTrace:
    def test_unit(self):
        assert canonical_trace(AlgebraElement.unit(2)) == 1

    def test_offdiagonal(self):
        assert canonical_trace(AlgebraElement.delta(F2.word("a"))) == 0

    def test_positive_and_l2(self):
        rng = rng_from_seed(26)
        for _ in range(50):
            x = random_element(rng, 2, 3, 10)
            val = canonical_trace(convolve(involution(x), x))
            l2sq = sum(abs(c) ** 2 for c in x.coeffs.values())
            assert abs(val - l2sq) < 1e-12
            assert val.real >= 0

    def test_tracial(self):
        rng = rng_from_seed(27)
        for _ in range(50):
            x = random_element(rng, 2, 2, 8)
            y = random_element(rng, 2, 2, 8)
            assert abs(
                canonical_trace(convolve(x, y)) - canonical_trace(convolve(y, x))
            ) < 1e-12


class TestAdjointAction:
    def test_on_unitary(self):
        g, h = F2.word("ab"), F2.word("B")
        assert adjoint_action(g, AlgebraElement.delta(h)) == AlgebraElement.delta(
            (g * h) * g.inverse()
        )

    def test_identity_acts_trivially(self):
        rng = rng_from_seed(28)
        x = random_element(rng, 2, 3, 10)
        assert adjoint_action(F2.identity, x) == x

    def test_preserves_trace(self):
        rng = rng_from_seed(29)
        for _ in range(50):
            x = random_element(rng, 2, 3, 10)
            g = F2.word("aB")
            assert abs(
                canonical_trace(adjoint_action(g, x)) - canonical_trace(x)
            ) < 1e-12

    def test_star_automorphism(self):
        rng = rng_from_seed(30)
        x = random_element(rng, 2, 2, 6)
        y = random_element(rng, 2, 2, 6)
        g = F2.word("ba")
        assert max_coeff_diff(
            adjoint_action(g, convolve(x, y)),
            convolve(adjoint_action(g, x), adjoint_action(g, y)),
        ) < 1e-12
        assert max_coeff_diff(
            adjoint_action(g, involution(x)), involution(adjoint_action(g, x))
        ) < 1e-12

    def test_preserves_moment_lower_bounds(self):
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        g = F2.word("ba")
        for n in (1, 2, 4):
            assert abs(
                norm_lower_bound(adjoint_action(g, x), n) - norm_lower_bound(x, n)
            ) < 1e-12


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
        assert abs(nb.lower - 1) < 1e-12
        assert abs(nb.upper - 1) < 1e-12

    def test_zero_element(self):
        nb = certify_norm(AlgebraElement.zero(2), 4)
        assert nb.lower == 0 and nb.upper == 0

    def test_z_bound_approaches_two(self):
        x = AlgebraElement.delta(F1.word("a")) + AlgebraElement.delta(F1.word("A"))
        assert abs(norm_upper_bound(x) - 2.0) < 1e-12
        lo = norm_lower_bound(x, 64)
        # ratio bound sqrt(C(130,65)/C(128,64)) = sqrt(2*129/65)
        assert abs(lo - math.sqrt(2 * 129 / 65)) < 1e-12
        assert lo > 1.99

    def test_z_moments_against_central_binomials(self):
        # package moment route must reproduce the comb() oracle through the bound
        x = AlgebraElement.delta(F1.word("a")) + AlgebraElement.delta(F1.word("A"))
        for n in (1, 2, 4, 8):
            expected = max(
                max(z_moment_oracle(m) ** (1 / (2 * m)) for m in range(1, n + 1)),
                max(
                    math.sqrt(z_moment_oracle(m + 1) / z_moment_oracle(m))
                    for m in range(1, n + 1)
                ),
            )
            assert abs(norm_lower_bound(x, n) - expected) < 1e-12

    def test_f2_generator_sum_against_radial_oracle(self):
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        W = f2_moment_oracle(130)  # W[n-1] = tau0(x^n)
        expected = max(
            max(W[2 * m - 1] ** (1 / (2 * m)) for m in range(1, 65)),
            max(math.sqrt(W[2 * m + 1] / W[2 * m - 1]) for m in range(1, 65)),
        )
        got = norm_lower_bound(x, 64)
        assert abs(got - expected) < 1e-9
        assert abs(got - 3.426032146718429) < 1e-12

    def test_lower_bound_monotone_in_moments(self):
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        values = [norm_lower_bound(x, n) for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_upper_examples(self):
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        assert abs(norm_upper_bound(x) - 4.0) < 1e-12
        assert norm_upper_bound(AlgebraElement.delta(F2.word("ab"))) == 1.0

    def test_upper_at_least_lower_random(self):
        rng = rng_from_seed(31)
        for _ in range(20):
            x = random_element(rng, 2, 2, 8)
            nb = certify_norm(x, 4)
            assert nb.lower <= nb.upper + 1e-12

    def test_free_support_certificate(self):
        a, b = F2.word("a"), F2.word("b")
        n = 8
        avg = AlgebraElement({conjugate(a, b**k): 1 / n for k in range(1, n + 1)}, 2)
        assert abs(norm_upper_bound(avg) - 2 / math.sqrt(n)) < 1e-12

    def test_generic_path_matches_radial_path(self):
        # conjugating breaks radiality but not the moments
        x = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        g = F2.word("ba")
        y = adjoint_action(g, x)
        for n in (1, 2, 4):
            assert abs(norm_lower_bound(y, n) - norm_lower_bound(x, n)) < 1e-12

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
        assert big.l1() == math.inf
        with pytest.raises(MalformedInputError, match="squared l1 norm"):
            norm_upper_bound(big)
        # just under the edge, the bracket stands
        ok = AlgebraElement({a: 5e153, b: 5e153}, 2)
        assert certify_norm(ok, 2).upper == 1e154


def norm_squared_in(bracket, norm_squared):
    """Whether lower^2 <= norm_squared <= upper^2, compared exactly."""
    return Fraction(bracket.lower) ** 2 <= norm_squared <= Fraction(bracket.upper) ** 2


@given(st.integers(1, 4), st.integers(1, 64), st.integers(-3, 3))
def test_kesten_norm_is_in_the_bracket(k, n_moments, e):
    # the symmetric generator sum of F_k has norm 2 sqrt(2k - 1) (Kesten 1959);
    # its y = x*x is radial
    x = AlgebraElement({w: 2.0**e for w in ball(FreeGroupContext(k), 1) if len(w)}, k)
    bracket = certify_norm(x, n_moments)
    assert bracket.moments_used == n_moments
    assert norm_squared_in(bracket, Fraction(4) ** e * 4 * (2 * k - 1))


# free families (rank of F_k, words): distinct generators and families of
# longer words that freely generate their subgroup
FREE_FAMILIES = [
    (2, ["a", "b"]), (2, ["a", "ab"]),
    (3, ["a", "b", "c"]), (2, ["aa", "ab", "bb"]), (3, ["ab", "bc", "ca"]),
    (4, ["a", "b", "c", "d"]), (2, ["aaa", "bbb", "ab", "ba"]),
]


@settings(max_examples=60)
@given(st.sampled_from(FREE_FAMILIES), st.integers(1, 8), st.integers(-3, 3),
       st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=4, max_size=4))
def test_free_family_norm_is_in_the_bracket(family, n_moments, e, phases):
    # lambda(g_1) + ... + lambda(g_n) has norm 2 sqrt(n - 1) for a free family
    # (Akemann-Ostrand 1976); unimodular phases keep it, as the character
    # g_i -> phase_i of the free subgroup is implemented by a unitary
    rank, names = family
    words = [FreeGroupContext(rank).word(s) for s in names]
    assert free_basis_decomposition(words).rank == len(words)
    x = AlgebraElement({w: 2.0**e * z for w, z in zip(words, phases)}, rank)
    bracket = certify_norm(x, n_moments)
    assert norm_squared_in(bracket, Fraction(4) ** e * 4 * (len(words) - 1))


def test_the_freeness_check_sees_a_relation():
    # {ab, bb, aBa} generates a subgroup of rank 2: it is not a free family,
    # and the check above refuses it as an Akemann-Ostrand case
    words = [F2.word(s) for s in ("ab", "bb", "aBa")]
    assert free_basis_decomposition(words).rank == 2


def upper_bound_oracle(x):
    """Minimum of all four upper-bound candidates, with the fold always run."""
    c_e = abs(x.coeffs.get(b"", 0))
    rest = sorted(
        ((Word(w, x.rank), c) for w, c in x.coeffs.items() if w),
        key=lambda p: p[0].sort_key(),
    )
    candidates = [x.l1(), _layer_bound((len(w), c) for w, c in x.coeffs.items())]
    if rest:
        words = [w for w, _ in rest]
        coeffs = [c for _, c in rest]
        dec = free_basis_decomposition(words)
        if dec.rank == len(words):
            candidates.append(c_e + 2.0 * math.sqrt(sum(abs(c) ** 2 for c in coeffs)))
        else:
            lens = [len(rw) for rw in dec.rewritten]
            candidates.append(c_e + _layer_bound(zip(lens, coeffs)))
        if _disjoint_cylinders([w.letters for w in words]):
            candidates.append(c_e + 2.0 * math.sqrt(sum(abs(c) ** 2 for c in coeffs)))
    return min(candidates)


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
                    table[u] = table.get(u, 0) + 1 / n
                table[F2.identity] = float(rng.standard_normal()) * 0.2
                yield AlgebraElement(table, 2)
        yield AlgebraElement({conjugate(a, b**k): 0.125 for k in range(1, 9)}, 2)

    def test_equals_minimum_with_fold_always_run(self):
        folds_needed = 0
        for x in self.elements():
            oracle = upper_bound_oracle(x)
            assert norm_upper_bound(x) == oracle
            folds_needed += norm_upper_bound(x).method in ("free-support", "subgroup-layers")
        # the family reaches the fold as well as the skip
        assert folds_needed > 0

    def test_bracket_takes_bound_and_tag_from_norm_upper_bound(self):
        methods = set()
        for x in self.elements():
            bound = norm_upper_bound(x)
            bracket = certify_norm(x, 2)
            assert type(bracket.upper) is float
            assert (bracket.upper, bracket.upper_method) == (bound, bound.method)
            methods.add(bound.method)
        assert {"l1", "disjoint-cylinders"} <= methods
        zero = norm_upper_bound(AlgebraElement.zero(2))
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


def word_table_moment_engine(x, n_moments, support_cap):
    """Exact reference for the non-radial moment engine: tables keyed by Word
    with coefficients as Fraction (re, im) pairs from as_integer_ratio, every
    pairing tau0(a b) summed with Word.inverse() lookups, and y y formed
    twice.  A product stops the engine once the words it touches pass the cap.
    Returns the moments {m: tau0(y^m)} as Fractions."""

    def times(a, b):
        out = {}
        for u, (ar, ai) in a.items():
            for v, (br, bi) in b.items():
                uv = u * v
                re, im = out.get(uv, (0, 0))
                out[uv] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
                if len(out) > support_cap:
                    raise ResourceLimitError("cap", support_cap)
        return {w: c for w, c in out.items() if c != (0, 0)}

    def pairing(a, b):
        re = im = 0
        for w, (ar, ai) in a.items():
            br, bi = b.get(w.inverse(), (0, 0))
            re, im = re + ar * br - ai * bi, im + ar * bi + ai * br
        assert im == 0
        return re

    def exact(c):
        return tuple(Fraction(*part.as_integer_ratio()) for part in (c.real, c.imag))

    table = {Word(w, x.rank): exact(c) for w, c in x.coeffs.items()}
    y = times({w.inverse(): (re, -im) for w, (re, im) in table.items()}, table)
    e = Word((), x.rank)
    moments = {1: y.get(e, (0, 0))[0]}
    z = y
    m_z = 1
    while True:
        moments[2 * m_z] = pairing(z, z)
        if 2 * m_z <= n_moments:
            try:
                t = times(y, z)
            except ResourceLimitError:
                break
            moments[2 * m_z + 1] = pairing(t, z)
        if 2 * m_z >= n_moments:
            break
        try:
            z = times(z, z)
        except ResourceLimitError:
            break
        m_z *= 2
        moments[m_z] = z.get(e, (0, 0))[0]
    return moments


def engine_moments(x, n_moments):
    """The engine's moments {m: tau0(y^m)} as Fractions."""
    k, moments = _trace_moments(x, n_moments)
    return {m: Fraction(v, 4 ** (k * m)) for m, v in moments.items()}


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


def non_radial_elements(rng):
    """Seeded elements of 2 to 5 terms whose y = x*x is not radial: Gaussian
    complex coefficients, and small integer ones whose powers cancel exactly
    to zero coefficients."""
    out = []
    while len(out) < 24:
        rank = int(rng.integers(1, 4))
        x = random_element(rng, rank, 2, int(rng.integers(2, 6)))
        if len(x) < 2:
            continue  # a single term gives the radial y = |c|^2 lambda_e
        if len(out) % 2:
            ints = (1, -1, 2, 1j)
            x = AlgebraElement(
                {Word(w, rank): ints[int(rng.integers(0, 4))] for w in x.coeffs}, rank)
        out.append(x)
    return out


@pytest.fixture(scope="module")
def cap5000_references():
    """(x, n, the reference moments under the cap 5000) for the seeded
    elements and orders, built once for the two tests that read them."""
    return [(x, n, word_table_moment_engine(x, n, 5000))
            for x in non_radial_elements(rng_from_seed(44)) for n in (1, 2, 3, 5, 8)]


class TestLetterTableMomentEngine:
    def test_moments_equal_the_exact_reference(self, monkeypatch, cap5000_references):
        short = 0
        for x, n, reference in cap5000_references:
            for cap in (5000, 200, 60, 25):
                monkeypatch.setattr(freegroup, "SUPPORT_CAP", cap)
                expected = reference if cap == 5000 else word_table_moment_engine(x, n, cap)
                assert engine_moments(x, n) == expected
                achieved = max(m for m in expected if m <= n)
                assert norm_lower_bound(x, n).order == achieved
                short += achieved < n
        # the cap binds partway through on many of these
        assert short > 20

    def test_lower_bound_is_rounded_down(self, monkeypatch, cap5000_references):
        with monkeypatch.context() as patch:
            patch.setattr(freegroup, "SUPPORT_CAP", 5000)
            for x, n, moments in cap5000_references:
                bound = norm_lower_bound(x, n)
                assert certified_by(bound, moments, n)
                assert math.isclose(bound, best_candidate(moments, n), rel_tol=1e-14)
        # the Kesten element: tau0(y^m) = tau0(x^(2m)) counts closed walks
        kesten = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        walks = f2_moment_oracle(130)
        moments = {m: Fraction(walks[2 * m - 1]) for m in range(1, 66)}
        bound = norm_lower_bound(kesten, 64)
        assert certified_by(bound, moments, 64)
        old = 3.426032146718429
        assert bound in (old, math.nextafter(old, 0), math.nextafter(old, 4))

    def test_achieved_order_under_a_binding_cap(self, monkeypatch):
        x = AlgebraElement({F2.word("a"): 1.0, F2.word("b"): 1.0, F2.word("ab"): 0.5}, 2)
        # y has 7 terms, y^2 31, y^3 127 and y^4 511: a cap of 200 stops at
        # the squaring that would form y^4, after tau0(y^5) came from y^3 y^2
        full = certify_norm(x, 8)
        assert full.moments_used == 8
        lower_5 = norm_lower_bound(x, 5)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 200)
        capped = certify_norm(x, 8)
        assert capped.moments_used == 5
        assert capped.lower == lower_5 < full.lower
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 60)
        assert certify_norm(x, 8).moments_used == 4
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 10)
        assert certify_norm(x, 8).moments_used == 2
        # a radial y gets every order exactly, whatever the cap
        radial = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 20)
        assert certify_norm(radial, 64).moments_used == 64

    def test_exact_zeros_do_not_count_against_the_cap(self, monkeypatch):
        # y = 3 - a^2 - a^-2: its a and a^-1 terms cancel exactly; kept, they
        # would give y y 9 terms instead of 5 and stop it at a cap of 6
        x = AlgebraElement({F2.identity: 1, F2.word("a"): 1, F2.word("A"): -1}, 2)
        expected = word_table_moment_engine(x, 8, 6)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 6)
        assert engine_moments(x, 8) == expected
        assert norm_lower_bound(x, 8).order == max(m for m in expected if m <= 8) == 4

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
        # MomentBound and UpperBound share their copy and pickle support;
        # sphere2 is bounded by its one layer, 3 sqrt(12), below its l1 norm 12
        sphere2 = AlgebraElement({w: 1.0 for w in ball(F2, 2) if len(w) == 2}, 2)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 200)
        lower, upper = norm_lower_bound(x, 8), norm_upper_bound(sphere2)
        for bound, tag, value in ((lower, "order", 5), (upper, "method", "ambient-layers")):
            for twin in (copy.copy(bound), copy.deepcopy(bound),
                         pickle.loads(pickle.dumps(bound))):
                assert type(twin) is type(bound)
                assert (twin, getattr(twin, tag)) == (bound, value)
            assert type(bound + 1.0) is float
