import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationarylab import freegroup, subgroups
from stationarylab.boundary import uniform_boundary_measure
from stationarylab.errors import (
    ContextMismatchError,
    CoverageError,
    MalformedInputError,
    PreconditionError,
)
from stationarylab.freegroup import (
    FreeGroupContext,
    Word,
    _cyclic_split,
    _product_letters,
    ball,
    conjugate,
    inverse_letters,
    length_lex,
)
from stationarylab.subgroups import (
    PSD_EIGENVALUE_TOL,
    CyclicSubgroup,
    PositiveDefiniteFn,
    PsdReport,
    SubgroupChain,
    freeness_report,
    pdf_from_subgroup_sample,
    primitive_root,
    psd_check,
    srs_escape_experiment,
)
from stationarylab.walks import (
    MASS_TOLERANCE,
    GroupMeasure,
    rng_from_seed,
    sample_increments,
    uniform_generator_measure,
)

from laws import short_step_laws

F2 = FreeGroupContext(2)
MU = uniform_generator_measure(2)
WORDS = st.lists(st.integers(0, 3), max_size=10).map(lambda codes: Word(codes, 2))


def contains_by_powers(sub: CyclicSubgroup, g: Word) -> bool:
    """Membership oracle: compare g and g^-1 with the root's powers, built one
    at a time, until they outgrow g."""
    if g.is_identity():
        return True
    if sub.is_trivial():
        return False
    p = sub.root
    while len(p) <= len(g):
        if p == g or p == g.inverse():
            return True
        p = p * sub.root
    return False


class TestPrimitiveRoot:
    def test_plain_powers(self):
        assert primitive_root(F2.word("aaa")) == F2.word("a")
        assert primitive_root(F2.word("abab")) == F2.word("ab")

    def test_conjugated_powers(self):
        w = F2.word("baB")
        assert primitive_root(w * w) == w

    def test_idempotent_under_powers(self):
        for base in ("a", "ab", "aab", "baB"):
            w = F2.word(base)
            for k in range(1, 6):
                assert primitive_root(w**k) == primitive_root(w)

    def test_random_words_reconstruct(self):
        rng = rng_from_seed(41)
        words = [w for w in ball(F2, 4) if not w.is_identity()]
        for _ in range(100):
            w = words[int(rng.integers(0, len(words)))]
            k = int(rng.integers(1, 5))
            root = primitive_root(w**k)
            # w^k is a power of the extracted root
            assert contains_by_powers(CyclicSubgroup(root), w**k)


def indicator(sub: CyclicSubgroup, radius: int):
    """phi of the sample that holds one subgroup with weight 1."""
    return pdf_from_subgroup_sample([sub], [1], radius)


class TestCyclicSubgroup:
    def test_membership(self):
        phi = indicator(CyclicSubgroup(F2.word("a")), 4)
        assert phi(F2.word("aaaa")) == 1
        assert phi(F2.word("AA")) == 1
        assert phi(F2.word("ab")) == 0

    def test_trivial_subgroup(self):
        T = CyclicSubgroup(F2.identity)
        assert T.is_trivial()
        assert indicator(T, 1).values == {b"": 1}

    def test_normalized_equality(self):
        assert CyclicSubgroup(F2.word("ab")).root == CyclicSubgroup(F2.word("BA")).root
        assert CyclicSubgroup(F2.word("aa")).root == CyclicSubgroup(F2.word("A")).root

    def test_conjugation(self):
        H = CyclicSubgroup(F2.word("a"))
        Hc = CyclicSubgroup(conjugate(H.root, F2.word("b")))
        assert indicator(Hc, 3)(conjugate(F2.word("a"), F2.word("b"))) == 1


@settings(max_examples=300)
@given(WORDS, WORDS, st.integers(-4, 4), st.integers(0, 3), WORDS)
def test_one_subgroup_phi_matches_the_power_oracle(root, g, n, k, x):
    sub = CyclicSubgroup(root)
    r = sub.root.letters
    i = _cyclic_split(r)
    vl, cl = r[:i], r[i : len(r) - i]
    # powers, words that share the prefix v and the suffix v^-1 around a
    # broken period, and an unrelated word
    candidates = [
        sub.root**n,
        Word(vl + cl * k + x.letters + inverse_letters(vl), 2),
        Word(vl + cl * k + cl[:-1] + inverse_letters(vl), 2),
        Word(vl + inverse_letters(cl) * k + x.letters + inverse_letters(vl), 2),
        g,
    ]
    phi = indicator(sub, max(len(w) for w in candidates))
    for w in candidates:
        assert phi(w) == contains_by_powers(sub, w), w
    assert phi(sub.root**n) == 1


@settings(max_examples=300)
@given(WORDS, WORDS)
def test_conjugate_of_a_root_is_a_root(root, h):
    # the walk moves the root word alone: a conjugate of either orientation
    # of a primitive root is primitive and names the same subgroup
    r = CyclicSubgroup(root).root
    moved = conjugate(r, h)
    assert primitive_root(moved) == moved
    assert CyclicSubgroup(moved).root == CyclicSubgroup(conjugate(r.inverse(), h)).root


def walk_by_conjugation(mu, start, steps, seed):
    """The oracle: the root word conjugated by each increment in turn."""
    root = start.root
    lengths = [len(root)]
    for g in sample_increments(mu, steps, seed):
        root = conjugate(root, g)
        lengths.append(len(root))
    return lengths, CyclicSubgroup(root)


class TestChains:
    def test_chain_law_and_reproducibility(self):
        start = CyclicSubgroup(F2.word("a"))
        lengths, final = SubgroupChain.simulate(MU, start, steps=40, seed=3)
        again, final_again = SubgroupChain.simulate(MU, start, steps=40, seed=3)
        assert (lengths, final.root) == (again, final_again.root)
        expected, expected_final = walk_by_conjugation(MU, start, 40, seed=3)
        assert lengths == expected
        assert final.root == expected_final.root

    @settings(max_examples=300)
    @given(short_step_laws(), st.data(), st.integers(0, 60), st.integers(0, 2**32))
    def test_stack_walk_matches_the_conjugation_loop(self, law, data, steps, seed):
        # starts v c v^-1 of up to 8 letters: the identity, cyclically reduced
        # roots, and roots whose conjugator v^-1 is the stack's first content
        letters = st.lists(st.integers(0, 2 * law.rank - 1), max_size=4)
        v, c = data.draw(letters.map(lambda lt: lt[:2])), data.draw(letters)
        start = CyclicSubgroup(Word(v + c + list(inverse_letters(bytes(v))), law.rank))
        lengths, final = SubgroupChain.simulate(law, start, steps, seed)
        expected, expected_final = walk_by_conjugation(law, start, steps, seed)
        assert lengths == expected
        assert final.root == expected_final.root

    def test_a_walk_along_the_axis_keeps_the_length(self):
        # x runs ab ab ab ..., every letter of it absorbed into a rotation of ab
        law = GroupMeasure.uniform_on([F2.word("ab")])
        lengths, final = SubgroupChain.simulate(law, CyclicSubgroup(F2.word("ab")), 30, seed=0)
        assert lengths == [2] * 31
        assert final.root == F2.word("ab")

    def test_a_pop_below_the_axis_prefix_clamps_it(self):
        # seed 4 draws ab (x = ab follows the axis) and then BAbb, which pops
        # both letters and pushes bb: the root BBabbb has length 6
        law = GroupMeasure.uniform_on([F2.word("ab"), F2.word("BAbb")])
        assert [str(g) for g in sample_increments(law, 2, seed=4)] == ["ab", "BAbb"]
        lengths, final = SubgroupChain.simulate(law, CyclicSubgroup(F2.word("ab")), 2, seed=4)
        assert lengths == [2, 2, 6]
        assert final.root == F2.word("BBabbb")

    def test_inputs_are_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before checking the inputs")

        monkeypatch.setattr(subgroups, "sample_increments", no_draw)
        mu3 = uniform_generator_measure(3)
        for start in ("a", "1"):
            for steps in (0, 5):
                with pytest.raises(ContextMismatchError, match="rank mismatch: 2 vs 3"):
                    SubgroupChain.simulate(mu3, CyclicSubgroup(F2.word(start)), steps, seed=0)
            with pytest.raises(MalformedInputError, match="steps must be >= 0, got -1"):
                SubgroupChain.simulate(MU, CyclicSubgroup(F2.word(start)), -1, seed=0)
        with pytest.raises(ContextMismatchError, match="rank mismatch: 2 vs 3"):
            srs_escape_experiment(mu3, CyclicSubgroup(F2.word("ab")), steps=4, trials=2)


class TestPdf:
    def test_trivial_sample_gives_identity_indicator(self):
        phi = pdf_from_subgroup_sample([CyclicSubgroup(F2.identity)], [1.0], radius=2)
        assert phi(F2.identity) == 1.0
        assert all(phi(w) == 0.0 for w in ball(F2, 2) if not w.is_identity())

    def test_cyclic_sample_membership_indicator(self):
        phi = pdf_from_subgroup_sample([CyclicSubgroup(F2.word("a"))], [1.0], radius=3)
        assert phi(F2.word("aa")) == 1.0
        assert phi(F2.word("ab")) == 0.0

    def test_mixture(self):
        phi = pdf_from_subgroup_sample(
            [CyclicSubgroup(F2.identity), CyclicSubgroup(F2.word("a"))],
            [0.5, 0.5],
            radius=2,
        )
        assert phi(F2.word("a")) == 0.5

    def test_range_normalization_symmetry(self):
        rng = rng_from_seed(42)
        roots = [w for w in ball(F2, 2)]
        subs = [CyclicSubgroup(roots[int(i)]) for i in rng.integers(0, len(roots), 6)]
        phi = pdf_from_subgroup_sample(subs, [1 / 6] * 6, radius=3)
        assert phi(F2.identity) == 1.0
        for w in ball(F2, 3):
            assert 0.0 <= phi(w) <= 1.0
            assert phi(w) == phi(w.inverse())

    def test_equal_float_weights_sum_exactly(self):
        # 3 of 5 subgroups hold a; the binary values of 0.2 sum to 1 + 2^-54
        # and are divided by that total, so phi(a) is 3/5, not 0.2 + 0.2 + 0.2
        subs = [CyclicSubgroup(F2.word(s)) for s in ("a", "aa", "A", "b", "ab")]
        phi = pdf_from_subgroup_sample(subs, [0.2] * 5, radius=2)
        assert phi(F2.word("a")) == Fraction(3, 5)
        assert float(phi(F2.word("a"))) == 0.6
        assert phi(F2.word("b")) == Fraction(1, 5)

    def test_weights_are_read_as_law_masses(self):
        subs = [CyclicSubgroup(F2.word("a")), CyclicSubgroup(F2.word("b"))]
        for weights in ([0.5, 0.5 + 10 * MASS_TOLERANCE], [Fraction(3, 2), -0.5],
                        ["x", 1], [None, 1], [math.nan, 1], [1]):
            with pytest.raises(MalformedInputError):
                pdf_from_subgroup_sample(subs, weights, radius=2)
        with pytest.raises(MalformedInputError):
            pdf_from_subgroup_sample([], [], radius=2)
        # "p/q" strings and ints are exact rationals, as in a law
        phi = pdf_from_subgroup_sample(subs, ["1/3", "2/3"], radius=2)
        assert phi(F2.word("bb")) == Fraction(2, 3)

    def test_word_past_the_radius_is_not_covered(self):
        phi = indicator(CyclicSubgroup(F2.word("a")), 2)
        assert phi(F2.word("AA")) == 1
        with pytest.raises(CoverageError) as exc:
            phi(F2.word("aaa"))
        assert exc.value.missing == [F2.word("aaa")]

    def test_rank_mismatch(self):
        F3 = FreeGroupContext(3)
        phi = indicator(CyclicSubgroup(F2.word("a")), 2)
        with pytest.raises(ContextMismatchError):
            phi(F3.word("a"))
        with pytest.raises(ContextMismatchError):
            pdf_from_subgroup_sample(
                [CyclicSubgroup(F2.word("a")), CyclicSubgroup(F3.word("c"))], [0.5, 0.5], 2
            )

    def test_table_holds_only_the_root_powers(self):
        # the root b (aB) b^-1 has v = b and c = aB, so its powers of length
        # <= 6 are b (aB)^n B and b (bA)^n B for n <= 2
        phi = indicator(CyclicSubgroup(F2.word("baBB")), 6)
        assert set(phi.values) == {b""} | {
            F2.word(s).letters for s in ("baBB", "bbAB", "baBaBB", "bbAbAB")
        }


def gram_loop_reference(phi, tuples):
    """psd_check as one loop per tuple: every entry of the full Gram matrix
    from its own product, one eigvalsh call per matrix.  Returns the least
    eigenvalues, the verdict and the missing words in length-lex order."""
    values = {w: float(p) for w, p in phi.values.items()}
    missing = {}
    eigs = []
    for tup in tuples:
        letters = [g.letters for g in tup]
        invs = [inverse_letters(g) for g in letters]
        G = np.empty((len(tup), len(tup)))
        for i, gi in enumerate(letters):
            for j, gj_inv in enumerate(invs):
                p = _product_letters(gi, gj_inv)
                if len(p) > phi.radius:
                    missing[p] = None
                else:
                    G[i, j] = values.get(p, 0.0)
        if not missing:
            eigs.append(float(np.linalg.eigvalsh(G)[0]))
    passed = all(e >= PSD_EIGENVALUE_TOL for e in eigs)
    return tuple(eigs), passed, [Word(w, phi.rank) for w, _ in length_lex(missing)]


def assert_matches_reference(phi, tuples):
    eigs, passed, missing = gram_loop_reference(phi, tuples)
    if missing:
        with pytest.raises(CoverageError) as exc:
            psd_check(phi, tuples)
        assert exc.value.missing == missing
        return
    rep = psd_check(phi, tuples)
    # bit for bit: float.hex tells -0.0 from 0.0, as the CSV does
    assert list(map(float.hex, rep.min_eigenvalues)) == list(map(float.hex, eigs))
    assert rep.min_eigenvalues == eigs
    assert rep.passed == passed


def sampled_pdf(rng, radius, sample_size=8):
    roots = list(ball(F2, 3))
    subs = [CyclicSubgroup(roots[i]) for i in rng.integers(0, len(roots), sample_size).tolist()]
    return pdf_from_subgroup_sample(subs, [Fraction(1, sample_size)] * sample_size, radius)


def drawn_tuples(rng, pool, count, lengths):
    return [[pool[i] for i in rng.integers(0, len(pool), int(rng.choice(lengths))).tolist()]
            for _ in range(count)]


class TestPsdCheck:
    def test_identity_pdf_gram(self):
        phi = pdf_from_subgroup_sample([CyclicSubgroup(F2.identity)], [1.0], radius=4)
        rep = psd_check(phi, [[F2.identity, F2.word("a"), F2.word("b")]])
        assert rep.passed
        assert abs(rep.min_eigenvalues[0] - 1.0) < 1e-12

    def test_rank_one_gram(self):
        phi = pdf_from_subgroup_sample([CyclicSubgroup(F2.word("a"))], [1.0], radius=4)
        rep = psd_check(phi, [[F2.identity, F2.word("a"), F2.word("aa")]])
        assert abs(rep.min_eigenvalues[0]) < 1e-12
        assert rep.passed

    def test_coverage_error_lists_missing(self):
        phi = pdf_from_subgroup_sample([CyclicSubgroup(F2.word("a"))], [1.0], radius=1)
        with pytest.raises(CoverageError) as exc:
            psd_check(phi, [[F2.word("a"), F2.word("B")]])
        assert exc.value.missing

    def test_coverage_error_dedups_in_length_lex_order(self):
        phi = pdf_from_subgroup_sample([CyclicSubgroup(F2.word("a"))], [1.0], radius=1)
        tuples = [[F2.word("aa"), F2.word("B")], [F2.word("a"), F2.word("B")],
                  [F2.word("B"), F2.word("a")]]
        with pytest.raises(CoverageError) as exc:
            psd_check(phi, tuples)
        assert exc.value.missing == [F2.word(s) for s in ("ab", "BA", "aab", "BAA")]

    def test_random_samples_always_psd(self):
        rng = rng_from_seed(43)
        roots = [w for w in ball(F2, 3)]
        pool = [w for w in ball(F2, 2)]
        for _ in range(20):
            subs = [CyclicSubgroup(roots[int(i)]) for i in rng.integers(0, len(roots), 8)]
            phi = pdf_from_subgroup_sample(subs, [1 / 8] * 8, radius=4)
            tuples = []
            for _ in range(10):
                idx = rng.integers(0, len(pool), size=5)
                tuples.append([pool[int(i)] for i in idx])
            assert psd_check(phi, tuples).passed


    def test_matches_the_loop_on_tuples_from_a_small_pool(self):
        rng = rng_from_seed(442231)
        for radius in (2, 3, 4, 5):
            pool = list(ball(F2, radius // 2))
            for _ in range(5):
                assert_matches_reference(sampled_pdf(rng, radius),
                                         drawn_tuples(rng, pool, 40, [5]))

    def test_matches_the_loop_on_all_distinct_words(self):
        rng = rng_from_seed(7)
        pool = list(ball(F2, 2))
        for size in (1, 3, 4):
            order = rng.permutation(len(pool)).tolist()
            tuples = [[pool[i] for i in order[k : k + size]]
                      for k in range(0, len(pool) - size + 1, size)]
            assert_matches_reference(sampled_pdf(rng, 4), tuples)

    def test_matches_the_loop_on_mixed_lengths(self):
        rng = rng_from_seed(11)
        pool = list(ball(F2, 2))
        for _ in range(5):
            assert_matches_reference(sampled_pdf(rng, 4),
                                     drawn_tuples(rng, pool, 30, [1, 2, 3, 5, 7]))

    def test_matches_the_loop_on_an_asymmetric_function(self):
        # phi(g) != phi(g^-1): the pairs (g, h) and (h, g) must stay apart
        values = {b"": Fraction(1)}
        for k, w in enumerate(ball(F2, 2)):
            if w:
                values[w.letters] = Fraction(k - 8, 17)
        phi = PositiveDefiniteFn(values, radius=2, rank=2)
        rng = rng_from_seed(3)
        pool = list(ball(F2, 1))
        tuples = drawn_tuples(rng, pool, 50, [2, 3, 4])
        assert_matches_reference(phi, tuples)
        assert not psd_check(phi, tuples).passed

    def test_no_tuples(self):
        phi = indicator(CyclicSubgroup(F2.word("a")), 2)
        assert_matches_reference(phi, [])
        assert psd_check(phi, []) == PsdReport(min_eigenvalues=(), passed=True)

    def test_missing_words_match_the_loop(self):
        rng = rng_from_seed(5)
        pool = list(ball(F2, 2))
        for radius in (1, 2, 3):
            assert_matches_reference(sampled_pdf(rng, radius),
                                     drawn_tuples(rng, pool, 20, [2, 3]))

    def test_words_that_share_no_tuple_need_no_coverage(self):
        # a B^-1 = ab passes the radius, but a and B never share a tuple
        phi = indicator(CyclicSubgroup(F2.word("a")), 1)
        rep = psd_check(phi, [[F2.word("a")], [F2.word("B")], [F2.word("a"), F2.identity]])
        assert rep.min_eigenvalues[:2] == (1.0, 1.0)
        with pytest.raises(CoverageError) as exc:
            psd_check(phi, [[F2.word("a")], [F2.word("a"), F2.word("B")]])
        assert exc.value.missing == [F2.word("ab"), F2.word("BA")]

    def test_an_empty_tuple_is_malformed(self):
        phi = indicator(CyclicSubgroup(F2.word("a")), 2)
        for tuples, t in (([[]], 0), ([[F2.word("a")], [F2.word("b")], []], 2)):
            with pytest.raises(MalformedInputError, match=f"tuple {t} is empty"):
                psd_check(phi, tuples)

    @pytest.mark.parametrize("cap", [1, 24, 25, 60, 130])
    def test_stacks_split_at_the_cap(self, monkeypatch, cap):
        rng = rng_from_seed(19)
        phi = sampled_pdf(rng, 4)
        tuples = drawn_tuples(rng, list(ball(F2, 2)), 23, [5])
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a):
            stacks.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(freegroup, "SUPPORT_CAP", cap)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        rep = psd_check(phi, tuples)
        monkeypatch.undo()
        # each stack holds at most cap entries, and one matrix at least
        per_stack = max(1, cap // 25)
        assert stacks == [(per_stack, 5, 5)] * (23 // per_stack) + (
            [(23 % per_stack, 5, 5)] if 23 % per_stack else [])
        assert_matches_reference(phi, tuples)
        assert rep == psd_check(phi, tuples)


class TestEscape:
    def test_trivial_start_degenerate(self):
        # a trivial root walks to lengths of 0, which pass no threshold
        for threshold_len in (0, 10):
            rep = srs_escape_experiment(MU, CyclicSubgroup(F2.identity), steps=10, trials=3,
                                        seed=1, threshold_len=threshold_len)
            assert rep.verdict == "degenerate (trivial subgroup is conjugation-fixed)"
            assert [r.step for r in rep.rows] == list(range(11))
            for r in rep.rows:
                assert (r.median_root_len, r.q25, r.q75, r.frac_beyond_threshold) == (0.0,) * 4
            assert rep.final_pdf_at == {"a": 0.0, "A": 0.0, "b": 0.0, "B": 0.0}

    def test_nontrivial_start_escapes(self):
        rep = srs_escape_experiment(
            MU, CyclicSubgroup(F2.word("a")), steps=120, trials=60, seed=9
        )
        assert rep.escaping
        assert rep.rows[120].median_root_len >= 60
        # the empirical pdf at the generators dies out
        assert rep.final_pdf_at["a"] < 0.05

    def test_non_generating_rejected(self):
        lazy = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        with pytest.raises(PreconditionError):
            srs_escape_experiment(lazy, CyclicSubgroup(F2.word("a")), 10, 2, seed=1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trial_rejected(self, trials):
        with pytest.raises(MalformedInputError, match="trials"):
            srs_escape_experiment(MU, CyclicSubgroup(F2.word("a")), 10, trials, seed=1)

    def test_quartiles_ordered(self):
        rep = srs_escape_experiment(
            MU, CyclicSubgroup(F2.word("ab")), steps=60, trials=30, seed=4
        )
        for row in rep.rows:
            assert row.q25 <= row.median_root_len <= row.q75


class TestFreenessReport:
    def test_uniform_bounds_match_closed_form(self):
        nu = uniform_boundary_measure(F2, 8)
        gens = [g for g in ball(F2, 2) if not g.is_identity()]
        rep = freeness_report(MU, nu, gens, depth=8)
        assert rep.essentially_free
        expected = 2 / (4 * 3**7)
        for row in rep.rows:
            assert abs(row.upper_bound - expected) < 1e-15

    def test_inverse_pairs_equal(self):
        nu = uniform_boundary_measure(F2, 6)
        rep = freeness_report(MU, nu, [F2.word("ab"), F2.word("BA")], depth=6)
        assert rep.rows[0].upper_bound == rep.rows[1].upper_bound

    def test_bounds_monotone_in_depth(self):
        nu = uniform_boundary_measure(F2, 6)
        gens = [F2.word("a"), F2.word("ab")]
        prev = None
        for d in (3, 4, 5, 6):
            rep = freeness_report(MU, nu, gens, depth=d)
            bounds = [r.upper_bound for r in rep.rows]
            if prev is not None:
                assert all(b <= p for b, p in zip(bounds, prev))
            prev = bounds

    def test_non_stationary_measure_refused(self):
        # the uniform measure is stationary for the simple walk only
        law = GroupMeasure.uniform_on([F2.word(w) for w in ("a", "B", "ab", "bA")])
        nu = uniform_boundary_measure(F2, 4)
        with pytest.raises(PreconditionError, match="residual 7/36"):
            freeness_report(law, nu, [F2.word("a")], depth=4)

    def test_pdf_upper_is_near_identity_indicator(self):
        nu = uniform_boundary_measure(F2, 8)
        gens = [g for g in ball(F2, 2) if not g.is_identity()]
        rep = freeness_report(MU, nu, gens, depth=8)
        assert rep.pdf_upper["1"] == 1.0
        assert all(v < 1e-3 for k, v in rep.pdf_upper.items() if k != "1")
