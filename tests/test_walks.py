import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stationarylab import freegroup
from stationarylab.algebra import AlgebraElement, convolve
from stationarylab.boundary import solve_stationary, translate, uniform_boundary_measure
from stationarylab.errors import ContextMismatchError, MalformedInputError, ResourceLimitError
from stationarylab.freegroup import FreeGroupContext, Word, ball, conjugate
from stationarylab.walks import (
    GroupMeasure,
    _measure,
    cesaro_measure,
    convolve_measures,
    decay_schedule,
    measure_convolve_element,
    measure_power,
    rng_from_seed,
    sample_path,
    uniform_generator_measure,
)
from stationarylab.states import _averaged_element

from exact import exact

F2 = FreeGroupContext(2)
MU = uniform_generator_measure(2)


class TestGroupMeasure:
    def test_mass_normalization_enforced(self):
        for masses in ({"a": Fraction(1, 3)}, {"a": 0.5, "b": 0.4},
                       {"a": "1/2", "b": "1/2", "ab": "1/1000"}):
            with pytest.raises(MalformedInputError):
                GroupMeasure({F2.word(w): p for w, p in masses.items()}, 2)
        # laws built inside the package keep the check
        with pytest.raises(MalformedInputError):
            _measure({(0,): Fraction(1, 2)}, 2)

    def test_negative_mass_rejected(self):
        # the second law sums to 1 without its negative atom
        for masses in ({"a": Fraction(3, 2), "b": -0.5}, {"a": 1, "b": "-1/2"}):
            with pytest.raises(MalformedInputError):
                GroupMeasure({F2.word(w): p for w, p in masses.items()}, 2)

    def test_non_finite_mass_rejected(self):
        # a NaN atom would otherwise drop out as "not positive", leaving the
        # Dirac mass at b; a mass that is not a number raises the same error
        for bad in (math.nan, math.inf, -math.inf, "x", "1/0", None, [0.5], 1j):
            with pytest.raises(MalformedInputError, match="not finite"):
                GroupMeasure({F2.word("a"): bad, F2.word("b"): 1.0}, 2)

    def test_decimal_law_is_scaled_to_total_mass_one(self):
        # the binary values of 0.1, 0.2, 0.3 and 0.4 sum to 1 + 2^-55
        decimals = {"a": 0.1, "A": 0.2, "b": 0.3, "B": 0.4}
        total = 1 + Fraction(1, 2**55)
        assert sum(Fraction(p) for p in decimals.values()) == total
        mu = GroupMeasure({F2.word(w): p for w, p in decimals.items()}, 2)
        assert all(mu.mass(F2.word(w)) == Fraction(p) / total for w, p in decimals.items())
        assert sum(mu.masses.values()) == 1
        assert sum(measure_power(mu, 4).masses.values()) == 1

    @pytest.mark.parametrize("other", [1.0, Fraction(1)], ids=["float", "fraction"])
    def test_mass_beyond_the_float_range_rejected(self, other):
        # a Fraction has no float above 2^1024; the sum check stays exact
        with pytest.raises(MalformedInputError):
            GroupMeasure({F2.word("a"): Fraction(10**400), F2.word("b"): other}, 2)

    @given(st.lists(st.one_of(
        st.floats(0, 0.25), st.integers(0, 1), st.fractions(0, Fraction(1, 4)),
        st.fractions(0, Fraction(1, 4)).map(lambda p: f"{p.numerator}/{p.denominator}"),
    ), min_size=1, max_size=4))
    def test_every_mass_is_the_fraction_of_its_input(self, inputs):
        # the identity takes the rest, so the law sums to 1 exactly
        rest = 1 - sum(Fraction(p) for p in inputs)
        assume(rest >= 0)
        words = [F2.word("a" * n) for n in range(1, len(inputs) + 1)]
        mu = GroupMeasure({F2.identity: rest, **dict(zip(words, inputs))}, 2)
        assert all(type(p) is Fraction for p in mu.masses.values())
        for w, p in zip(words, inputs):
            assert mu.mass(w) == Fraction(p)

    def test_generating_certificate(self):
        assert MU.is_generating()
        lazy = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        assert not lazy.is_generating()
        one_sided = GroupMeasure(
            {F2.word("a"): Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2
        )
        assert not one_sided.is_generating()
        # every product of these words has exponent sum 1 in a
        assert not GroupMeasure.uniform_on([F2.word(w) for w in ("ab", "aB", "b")]).is_generating()
        # ab and its inverse give the cyclic group <ab>; with a and A, all of F_2
        assert not GroupMeasure.uniform_on([F2.word(w) for w in ("ab", "BA")]).is_generating()
        assert GroupMeasure.uniform_on([F2.word(w) for w in ("ab", "BA", "a", "A")]).is_generating()


# laws that generate F_2 as a semigroup only through long products: each
# letter's witness is a product of support words and of letters witnessed
# above it
SLOW_GENERATION = {
    ("bAB", "abA", "bba", "BaB"): (
        ("a", "BaB bAB bba"),
        ("B", "abA a BaB bAB bAB"),
        ("b", "bAB B bba"),
        ("A", "B bAB bAB B bba"),
    ),
    ("bbaaab", "BBAABA", "AAbAAB", "aaaBBA", "abABB"): (
        ("B", "BBAABA abABB bbaaab"),
        ("a", "BBAABA B B bbaaab B AAbAAB B bbaaab B abABB bbaaab B AAbAAB B bbaaab B"),
        ("A", "AAbAAB B bbaaab B a B a a AAbAAB a"),
        ("b", "bbaaab B A A A B"),
    ),
    ("aaaaab", "BAAAA", "A", "b", "B"): (
        ("a", "aaaaab B A A A A"),
    ),
}


@pytest.mark.parametrize("support", list(SLOW_GENERATION),
                         ids=["length-3", "five-words", "aaaaab"])
def test_generation_by_long_products(support):
    known = set(support)
    for letter, witness in SLOW_GENERATION[support]:
        factors = witness.split()
        assert set(factors) <= known
        product = F2.identity
        for f in factors:
            product = product * F2.word(f)
        assert product == F2.word(letter)
        known.add(letter)
    assert known >= {"a", "A", "b", "B"}
    assert GroupMeasure.uniform_on([F2.word(w) for w in support]).is_generating()


def test_generation_test_checks_its_cap_before_saturating(monkeypatch):
    # five words of six letters or fewer: 1 + 24 automaton states, so one
    # saturation pass is 4 * 25^3 = 62,500 bit operations
    mu = GroupMeasure.uniform_on([F2.word(w) for w in list(SLOW_GENERATION)[1]])
    monkeypatch.setattr(freegroup, "SUPPORT_CAP", 62_499)
    with pytest.raises(ResourceLimitError):
        mu.is_generating()
    monkeypatch.setattr(freegroup, "SUPPORT_CAP", 62_500)
    assert mu.is_generating()


def test_generation_test_accepts_support_letters_without_saturating(monkeypatch):
    # the uniform law on the radius-5 ball has 1 + 1,704 automaton states,
    # far past the cap, but every letter is a support word
    mu = GroupMeasure.uniform_on([w for w in ball(F2, 5) if not w.is_identity()])
    monkeypatch.setattr(freegroup, "SUPPORT_CAP", 0)
    assert mu.is_generating()


class TestWordKeyedConstructors:
    """The public constructors take Word-keyed mappings and check their rank;
    the tables they build are keyed by the bytes of the letters."""

    F3 = FreeGroupContext(3)

    def test_words_of_another_rank_are_refused(self):
        with pytest.raises(ContextMismatchError):
            AlgebraElement({self.F3.word("a"): 1.0}, 2)
        with pytest.raises(ContextMismatchError):
            GroupMeasure({self.F3.word("a"): 1}, 2)
        with pytest.raises(ContextMismatchError):
            MU.mass(self.F3.word("a"))

    def test_tables_are_keyed_by_letters(self):
        x = AlgebraElement({F2.word("ab"): 2, F2.word("B"): 0.0, F2.identity: 1j}, 2)
        assert (x.re, x.im, x.den) == ({b"\x00\x02": 2}, {b"": 1}, 1)
        assert x.coeffs == {b"\x00\x02": 2 + 0j, b"": 1j}
        mu = GroupMeasure({F2.word("Ab"): "1/4", F2.word("a"): Fraction(3, 4)}, 2)
        assert mu.masses == {b"\x01\x02": Fraction(1, 4), b"\x00": Fraction(3, 4)}
        assert mu.atoms() == [(F2.word("a"), Fraction(3, 4)), (F2.word("Ab"), Fraction(1, 4))]
        assert mu.mass(F2.word("Ab")) == Fraction(1, 4)

    def test_kernel_outputs_are_keyed_by_bytes(self):
        # one stray key of another type would split a word's entry in two
        x = AlgebraElement({F2.word("ab"): 1.0, F2.word("B"): 0.5j, F2.identity: 2.0}, 2)
        mu2 = convolve_measures(MU, MU)
        elements = [convolve(x, x), measure_convolve_element(mu2, x),
                    _averaged_element(x, [F2.word("a"), F2.word("ba")])]
        tables = [table for y in elements for table in (y.re, y.im)] + [
            mu2.masses,
            translate(F2.word("ab"), uniform_boundary_measure(F2, 3)).masses,
            solve_stationary(MU, 2).measure.masses,
        ]
        assert all(tables)
        assert all(type(w) is bytes for table in tables for w in table)


class TestConvolution:
    def test_dirac_identity(self):
        delta_e = GroupMeasure.dirac(F2.identity)
        assert convolve_measures(delta_e, MU) == MU

    def test_square_at_identity(self):
        # oracle: enumerate all 16 increment pairs; 4 cancel
        mu2 = convolve_measures(MU, MU)
        pairs = [
            (u, v)
            for u in MU.support()
            for v in MU.support()
            if (u * v).is_identity()
        ]
        assert len(pairs) == 4
        assert mu2.mass(F2.identity) == Fraction(1, 4)

    def test_square_at_ab(self):
        mu2 = convolve_measures(MU, MU)
        assert mu2.mass(F2.word("ab")) == Fraction(1, 16)

    def test_total_mass_and_associativity(self):
        nu = GroupMeasure(
            {F2.word("a"): Fraction(1, 2), F2.word("ab"): Fraction(1, 2)}, 2
        )
        rho = GroupMeasure({F2.word("B"): Fraction(1)}, 2)
        lhs = convolve_measures(convolve_measures(MU, nu), rho)
        rhs = convolve_measures(MU, convolve_measures(nu, rho))
        assert lhs == rhs
        assert sum(lhs.masses.values()) == 1

    def test_associativity_random_triples(self):
        from stationarylab.freegroup import ball

        rng = rng_from_seed(34)
        words = list(ball(F2, 2))

        def random_measure():
            picks = [words[int(i)] for i in rng.integers(0, len(words), size=3)]
            picks = list(dict.fromkeys(picks))
            return GroupMeasure.uniform_on(picks)

        for _ in range(10):
            m1, m2, m3 = random_measure(), random_measure(), random_measure()
            lhs = convolve_measures(convolve_measures(m1, m2), m3)
            rhs = convolve_measures(m1, convolve_measures(m2, m3))
            assert lhs == rhs
            assert sum(lhs.masses.values()) == 1

    def test_odd_power_parity(self):
        # all support words odd length -> no mass at e for odd powers
        for n in (1, 3, 5):
            assert measure_power(MU, n).mass(F2.identity) == 0


class TestCesaro:
    def test_n1_is_dirac(self):
        assert cesaro_measure(MU, 1) == GroupMeasure.dirac(F2.identity)

    def test_n2(self):
        c = cesaro_measure(MU, 2)
        assert c.mass(F2.identity) == Fraction(1, 2)
        assert c.mass(F2.word("a")) == Fraction(1, 8)

    def test_n4_identity_mass(self):
        # (1 + 0 + 1/4 + 0)/4 by the parity argument
        assert cesaro_measure(MU, 4).mass(F2.identity) == Fraction(5, 16)

    def test_support_cap_on_the_sum(self, monkeypatch):
        # mu^2 holds 13 words, under a cap of 16; the sum 1 + mu + mu^2 holds 17
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 16)
        assert len(measure_power(MU, 2).masses) == 13
        with pytest.raises(ResourceLimitError, match="Cesaro support"):
            cesaro_measure(MU, 3)

    def test_commutes_with_element_convolution(self):
        a = AlgebraElement.delta(F2.word("a")) + AlgebraElement.delta(F2.word("bb"), 2j)
        n = 4
        via_measure = measure_convolve_element(cesaro_measure(MU, n), a)
        total = measure_convolve_element(measure_power(MU, 0), a)
        for k in range(1, n):
            total = total + measure_convolve_element(measure_power(MU, k), a)
        assert {w: (n * re, n * im) for w, (re, im) in exact(via_measure).items()} \
            == exact(total)


class TestSampling:
    def test_zero_length(self):
        p = sample_path(MU, 0, seed=1)
        assert p.positions == (F2.identity,)

    def test_position_recomputation(self):
        p = sample_path(MU, 50, seed=2)
        for k in range(50):
            assert p.positions[k] * p.increments[k] == p.positions[k + 1]

    def test_reproducible(self):
        p1 = sample_path(MU, 200, seed=42)
        p2 = sample_path(MU, 200, seed=42)
        assert p1.increments == p2.increments
        assert p1.positions == p2.positions
        assert [str(w) for w in p1.increments] == [str(w) for w in p2.increments]

    def test_empirical_frequencies_multinomial(self):
        from stationarylab.walks import sample_increments

        n = 100_000
        draws = sample_increments(MU, n, seed=7)
        counts = {}
        for g in draws:
            counts[g] = counts.get(g, 0) + 1
        for g in MU.support():
            expected = n * 0.25
            sigma = math.sqrt(n * 0.25 * 0.75)
            assert abs(counts[g] - expected) <= 3 * sigma

    def test_path_uses_same_draw_stream(self):
        from stationarylab.walks import sample_increments

        assert sample_path(MU, 40, seed=7).increments == sample_increments(MU, 40, 7)

    def test_biased_measure_sampling(self):
        from stationarylab.walks import sample_increments

        mu = GroupMeasure({F2.word("a"): 0.9, F2.word("b"): 0.1}, 2)
        draws = sample_increments(mu, 10_000, seed=3)
        frac_a = sum(1 for g in draws if g == F2.word("a")) / 10_000
        assert abs(frac_a - 0.9) < 0.02


class TestMeasureConvolveElement:
    def test_center_fixed(self):
        one = AlgebraElement.delta(F2.identity)
        assert exact(measure_convolve_element(MU, one)) == exact(one)

    def test_dirac_conjugates(self):
        h, g = F2.word("b"), F2.word("a")
        res = measure_convolve_element(GroupMeasure.dirac(h), AlgebraElement.delta(g))
        assert exact(res) == exact(AlgebraElement.delta(conjugate(g, h)))

    def test_preserves_trace(self):
        rng = rng_from_seed(33)
        words = list(ball(F2, 2))
        for _ in range(30):
            table = {
                words[int(i)]: complex(rng.standard_normal(), rng.standard_normal())
                for i in rng.integers(0, len(words), size=6)
            }
            x = AlgebraElement(table, 2)
            assert exact(measure_convolve_element(MU, x)).get(F2.identity) \
                == exact(x).get(F2.identity)


class TestDecaySchedule:
    def test_first_two_terms(self):
        assert decay_schedule(2) == [2, 5]

    def test_exact_inequalities(self):
        ns = decay_schedule(5)
        prev = 0
        for k, n in enumerate(ns, start=1):
            base = 1 - Fraction(1, 2**k)
            assert base**n < Fraction(1, 2**k)
            assert base ** (n - 1) >= Fraction(1, 2**k) or n - 1 <= prev
            assert n > prev
            prev = n

    def test_k2_value_is_exactly_five(self):
        # (3/4)^5 = 243/1024 < 1/4 while (3/4)^4 = 81/256 >= 1/4
        assert Fraction(3, 4) ** 5 < Fraction(1, 4)
        assert Fraction(3, 4) ** 4 >= Fraction(1, 4)
        assert decay_schedule(2)[1] == 5


# ---------------------------------------------------------------------------
# integer kernels against the Fraction loops they replaced
# ---------------------------------------------------------------------------


def _by_length_lex(table):
    return sorted(table.items(), key=lambda item: Word(item[0], 2).sort_key())


def convolve_oracle(mu, nu):
    """mu * nu with one Fraction multiply and add per pair, u then
    v in length-lex order: the sum and insertion order of the exact kernel."""
    out = {}
    for u, p in _by_length_lex(mu.masses):
        for v, q in _by_length_lex(nu.masses):
            w = (Word(u, 2) * Word(v, 2)).letters
            out[w] = out.get(w, 0) + p * q
    return out


def element_oracle(mu, a):
    """mu * a summed in Fractions per word, zero sums left out."""
    acc = {}
    for g, p in _by_length_lex(mu.masses):
        for w, (re, im) in exact(a).items():
            target = conjugate(w, Word(g, 2))
            old_re, old_im = acc.get(target, (0, 0))
            acc[target] = (old_re + p * re, old_im + p * im)
    return {w: c for w, c in acc.items() if c != (0, 0)}


def _mass_bits(items):
    """(word, type, value) per atom; floats by their hex form."""
    return [(str(w), type(p).__name__, p.hex() if isinstance(p, float) else p)
            for w, p in items]


def _law(atoms):
    return GroupMeasure({F2.word(w): p for w, p in atoms.items()}, 2)


# denominators 3, 7, 6 and 14: their least common multiple 42 is none of them
COPRIME = _law({"1": Fraction(1, 3), "a": Fraction(1, 7), "bA": Fraction(1, 6),
                "B": Fraction(5, 14)})
SEVENTHS = _law({"B": Fraction(2, 7), "ab": Fraction(5, 7)})
FLOAT_LAW = _law({"a": 0.1, "b": 0.2, "AB": 0.7})
MIXED_LAW = _law({"1": Fraction(1, 3), "b": 0.25, "ba": Fraction(1, 6), "A": 0.25})


class TestIntegerKernels:
    def test_coprime_denominators_convolve_to_the_fraction_sums(self):
        for mu, nu in ((COPRIME, COPRIME), (COPRIME, SEVENTHS), (SEVENTHS, COPRIME), (MU, COPRIME)):
            got = convolve_measures(mu, nu)
            assert _mass_bits(got.masses.items()) == _mass_bits(convolve_oracle(mu, nu).items())
            assert sum(got.masses.values()) == 1

    def test_coprime_powers_match_the_fraction_loop(self):
        power = GroupMeasure.dirac(F2.identity)
        oracle = power
        for _ in range(4):
            power = convolve_measures(power, COPRIME)
            oracle = GroupMeasure(
                {Word(w, 2): p for w, p in convolve_oracle(oracle, COPRIME).items()}, 2)
            assert _mass_bits(power.masses.items()) == _mass_bits(oracle.masses.items())

    @pytest.mark.parametrize("mu, nu", [(FLOAT_LAW, FLOAT_LAW), (MIXED_LAW, MIXED_LAW),
                                        (COPRIME, FLOAT_LAW), (MIXED_LAW, SEVENTHS)],
                             ids=["float", "mixed", "exact-float", "mixed-exact"])
    def test_float_and_mixed_laws_convolve_to_the_fraction_sums(self, mu, nu):
        got = convolve_measures(mu, nu)
        assert all(type(p) is Fraction for p in got.masses.values())
        assert _mass_bits(got.masses.items()) == _mass_bits(convolve_oracle(mu, nu).items())

    @pytest.mark.parametrize("coeffs", [
        {"a": 5e-324, "b": complex(2.5e-310, -7e-320), "ab": 1.0},
        {"a": complex(-0.0, 0.75), "B": complex(0.5, -0.0), "1": -0.0 + 0.3j},
        {"a": 1.7e308, "b": complex(-1.5e308, 1e308), "1": 3e-300},
        {"a": 0.3j, "ab": -1.1j, "bb": 1e-17j},
    ], ids=["subnormal", "negative-zero", "near-max", "imaginary"])
    @pytest.mark.parametrize("mu", [COPRIME, SEVENTHS, MU, FLOAT_LAW, MIXED_LAW],
                             ids=["coprime", "sevenths", "simple", "float", "mixed"])
    def test_element_action_matches_the_fraction_loop_bit_for_bit(self, coeffs, mu):
        a = AlgebraElement({F2.word(w): c for w, c in coeffs.items()}, 2)
        got = measure_convolve_element(mu, a)
        assert exact(got) == element_oracle(mu, a)

    def test_cancelling_coefficient_is_dropped(self):
        # with g = 1 the b term gets 1/3 * 2, with g = a the aBA term gets
        # 2/3 * -1 at A(abA)a = b: the sum is exactly 0, so b leaves the support
        mu = _law({"1": Fraction(1, 3), "a": Fraction(2, 3)})
        a = AlgebraElement({F2.word("b"): 2.0, F2.word("abA"): -1.0}, 2)
        got = measure_convolve_element(mu, a)
        assert F2.word("b").letters not in got.re
        assert exact(got) == element_oracle(mu, a)
        assert [str(Word(w, 2)) for w in got.re] == ["abA", "Aba"]

    def test_empty_element(self):
        got = measure_convolve_element(COPRIME, AlgebraElement({}, 2))
        assert (got.re, got.im, got.den) == ({}, {}, 1)
