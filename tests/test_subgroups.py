from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationarylab.boundary import uniform_boundary_measure
from stationarylab.errors import CoverageError, PreconditionError
from stationarylab.freegroup import FreeGroupContext, Word, ball, conjugate, cyclic_reduction
from stationarylab.subgroups import (
    CyclicSubgroup,
    SubgroupChain,
    freeness_report,
    pdf_from_subgroup_sample,
    primitive_root,
    psd_check,
    srs_escape_experiment,
)
from stationarylab.walks import (
    GroupMeasure,
    rng_from_seed,
    sample_path,
    uniform_generator_measure,
)

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
            assert CyclicSubgroup(root).contains(w**k)


class TestCyclicSubgroup:
    def test_membership(self):
        H = CyclicSubgroup(F2.word("a"))
        assert H.contains(F2.word("aaaa"))
        assert H.contains(F2.word("AA"))
        assert not H.contains(F2.word("ab"))

    def test_trivial_subgroup(self):
        T = CyclicSubgroup(F2.identity)
        assert T.is_trivial()
        assert T.contains(F2.identity)
        assert not T.contains(F2.word("a"))

    def test_normalized_equality(self):
        assert CyclicSubgroup(F2.word("ab")) == CyclicSubgroup(F2.word("BA"))
        assert CyclicSubgroup(F2.word("aa")) == CyclicSubgroup(F2.word("A"))

    def test_conjugation(self):
        H = CyclicSubgroup(F2.word("a"))
        Hc = H.conjugated_by(F2.word("b"))
        assert Hc.contains(conjugate(F2.word("a"), F2.word("b")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(WORDS, WORDS, st.integers(-4, 4), st.integers(0, 3), WORDS)
def test_contains_matches_the_power_oracle(root, g, n, k, x):
    sub = CyclicSubgroup(root)
    v, c = cyclic_reduction(sub.root)
    vl, cl = v.letters, c.letters
    # powers, words that share the prefix v and the suffix v^-1 around a
    # broken period, and an unrelated word
    candidates = [
        sub.root**n,
        Word(vl + cl * k + x.letters + v.inverse().letters, 2),
        Word(vl + cl * k + cl[:-1] + v.inverse().letters, 2),
        Word(vl + c.inverse().letters * k + x.letters + v.inverse().letters, 2),
        g,
    ]
    for w in candidates:
        assert sub.contains(w) == contains_by_powers(sub, w), w
    assert sub.contains(sub.root**n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(WORDS, WORDS)
def test_conjugated_by_matches_a_fresh_subgroup(root, h):
    sub = CyclicSubgroup(root)
    moved = sub.conjugated_by(h)
    assert moved == CyclicSubgroup(conjugate(sub.root, h))
    assert moved.root == CyclicSubgroup(conjugate(sub.root, h)).root


class TestChains:
    def test_chain_law_and_reproducibility(self):
        start = CyclicSubgroup(F2.word("a"))
        c1 = SubgroupChain.simulate(MU, start, steps=40, seed=3)
        c2 = SubgroupChain.simulate(MU, start, steps=40, seed=3)
        assert c1.states == c2.states
        path = sample_path(MU, 40, seed=3)
        state = start
        for t, g in enumerate(path.increments):
            state = state.conjugated_by(g)
            assert state == c1.states[t + 1]


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


class TestEscape:
    def test_trivial_start_degenerate(self):
        rep = srs_escape_experiment(MU, CyclicSubgroup(F2.identity), steps=10, trials=3, seed=1)
        assert rep.verdict.startswith("degenerate")
        assert all(r.median_root_len == 0 for r in rep.rows)

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

    def test_pdf_upper_is_near_identity_indicator(self):
        nu = uniform_boundary_measure(F2, 8)
        gens = [g for g in ball(F2, 2) if not g.is_identity()]
        rep = freeness_report(MU, nu, gens, depth=8)
        assert rep.pdf_upper["1"] == 1.0
        assert all(v < 1e-3 for k, v in rep.pdf_upper.items() if k != "1")
