import math
from fractions import Fraction

import numpy as np
import pytest

from stationarylab import freegroup
from stationarylab.algebra import AlgebraElement, canonical_trace, norm_upper_bound
from stationarylab.boundary import uniform_boundary_measure
from stationarylab.errors import MalformedInputError, PreconditionError
from stationarylab.freegroup import FiniteQuotient, FreeGroupContext, Word, ball, conjugate
from stationarylab.states import (
    build_c_star_simple_measure,
    cesaro_test,
    crossed_product_state,
    finite_dim_stationary_states,
    powers_search,
    stationary_hermitian_basis,
    verify_powers_certificate,
    _averaged_element,
    _convolution_channel,
    _geometric_base_candidates,
    _geometric_tuples,
    _multi_element_powers,
    _power_tuple,
    _herm_to_real,
)
from stationarylab.walks import (
    GroupMeasure,
    measure_convolve_element,
    rng_from_seed,
    uniform_generator_measure,
)

F2 = FreeGroupContext(2)
MU = uniform_generator_measure(2)
S3_REGULAR = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])


class TestCesaroTest:
    def test_unit_element_all_zero(self):
        rep = cesaro_test(AlgebraElement.unit(2), MU, n_max=4)
        assert all(r.lower == 0 and r.upper == 0 for r in rep.rows)

    def test_single_unitary_first_bracket(self):
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), MU, n_max=2)
        assert rep.rows[0].upper == 1.0  # mu_1 = delta_e leaves lambda_a alone

    def test_lazy_shift_decay(self):
        mu = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), mu, n_max=32)
        ups = rep.uppers()
        assert rep.generating is False
        assert "decaying" in rep.verdict
        # O(1/sqrt(n)): the scaled uppers stay bounded while raw uppers halve
        assert ups[31] < 0.55 * ups[7]
        scaled = [ups[n - 1] * math.sqrt(n) for n in (8, 16, 32)]
        assert max(scaled) < 3.0
        # certified lower bounds stay below uppers
        assert all(r.lower <= r.upper + 1e-12 for r in rep.rows)

    def test_generating_flag_for_uniform(self):
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), MU, n_max=3)
        assert rep.generating is True

    def test_support_cap_stops_the_rows(self, monkeypatch):
        a = AlgebraElement.delta(F2.word("ab"))
        full = cesaro_test(a, MU, n_max=6)
        assert len(full.rows) == 6 and not full.partial
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 200)
        capped = cesaro_test(a, MU, n_max=6)
        assert capped.partial
        assert capped.rows == full.rows[:3]


class TestPowersSearch:
    def test_spec_example_n8(self):
        cert = powers_search(F2.word("a"), 0.75, strategy="geometric", budget=16)
        assert cert.success
        assert cert.n == 8
        assert cert.upper_bound < 0.75
        assert [str(h) for h in cert.conjugators] == ["b" * k for k in range(1, 9)]

    def test_certificate_revalidates_bit_identically(self):
        cert = powers_search(F2.word("a"), 0.75, strategy="geometric", budget=16)
        assert verify_powers_certificate(cert, F2.word("a")) == cert.upper_bound

    def test_doubling_never_increases_geometric_bound(self):
        a, b = F2.word("a"), F2.word("b")
        x = AlgebraElement.delta(a)
        for n in (2, 4, 8, 16):
            u_n = norm_upper_bound(
                _averaged_element(x, tuple(b**k for k in range(1, n + 1)))
            )
            u_2n = norm_upper_bound(
                _averaged_element(x, tuple(b**k for k in range(1, 2 * n + 1)))
            )
            assert u_2n <= u_n + 1e-15

    def test_identity_rejected(self):
        with pytest.raises(PreconditionError):
            powers_search(F2.identity, 0.5)

    def test_random_strategy_deterministic(self):
        c1 = powers_search(F2.word("a"), 0.9, strategy="random", budget=12, seed=5)
        c2 = powers_search(F2.word("a"), 0.9, strategy="random", budget=12, seed=5)
        assert c1.conjugators == c2.conjugators
        assert c1.upper_bound == c2.upper_bound

    def test_failure_reports_best(self):
        cert = powers_search(F2.word("a"), 1e-6, strategy="geometric", budget=4)
        assert not cert.success
        assert cert.upper_bound > 1e-6
        assert cert.conjugators  # best tuple retained


def running_sums(x, conjugators):
    """The Powers average as n conjugated elements added one after another:
    the sum after each conjugator."""
    n = len(conjugators)
    out = AlgebraElement.zero(x.rank)
    for h in conjugators:
        out = out + AlgebraElement(
            {conjugate(Word(w, x.rank), h): c / n for w, c in x.coeffs.items()}, x.rank
        )
        yield out


def averaged_oracle(x, conjugators):
    return list(running_sums(x, conjugators))[-1]


def _bits(x):
    """(word, real bits, imaginary bits) per term in key order."""
    return [(str(Word(w, x.rank)), c.real.hex(), c.imag.hex()) for w, c in x.coeffs.items()]


class TestPowersAveraging:
    def test_cancelled_key_is_dropped_and_added_again(self):
        # h = 1 puts +1/3 on b, h = a puts -1/3 there (A(abA)a = b): the sum
        # is exactly 0 and b leaves; the second h = 1 adds it back at the end
        x = AlgebraElement({F2.word("b"): 1.0, F2.word("abA"): -1.0}, 2)
        hs = (F2.identity, F2.word("a"), F2.identity)
        got = _averaged_element(x, hs)
        assert [str(Word(w, 2)) for w in got.coeffs] == ["abA", "Aba", "b"]
        assert _bits(got) == _bits(averaged_oracle(x, hs))

    def test_negative_zero_parts_take_the_bits_of_repeated_addition(self):
        x = AlgebraElement({F2.word("a"): complex(-0.0, 1.0), F2.word("b"): complex(0.5, -0.0)}, 2)
        hs = (F2.word("b"), F2.word("ab"))
        assert _bits(_averaged_element(x, hs)) == _bits(averaged_oracle(x, hs))

    def test_matches_repeated_addition_on_random_elements(self):
        # x is a signed sum of conjugates of one word by short conjugators and
        # the tuples draw from the same conjugators with repeats, so running
        # sums cancel to exactly 0 and come back
        rng = rng_from_seed(51)
        short = list(ball(F2, 1))
        cancels = 0
        for _ in range(60):
            base = F2.word(["a", "b", "ab", "aB"][int(rng.integers(0, 4))])
            x = AlgebraElement({conjugate(base, short[int(i)]): complex(int(rng.integers(-2, 3)),
                                                                        int(rng.integers(-1, 2)))
                                for i in rng.integers(0, len(short), size=4)}, 2)
            hs = tuple(short[int(i)] for i in rng.integers(0, len(short), size=int(rng.integers(1, 7))))
            assert _bits(_averaged_element(x, hs)) == _bits(averaged_oracle(x, hs))
            prev = set()
            for partial in running_sums(x, hs):
                cancels += bool(prev - set(partial.coeffs))
                prev = set(partial.coeffs)
        assert cancels > 0

    def test_geometric_tuples_are_successive_powers(self):
        g = F2.word("ab")
        bases = [w for w in _geometric_base_candidates(2) if w * g != g * w]
        want = [(tuple(w**k for k in range(1, n + 1)), n)
                for n in range(1, 7) for w in bases]
        assert list(_geometric_tuples(g, 6)) == want

    def test_power_tuple_is_successive_powers(self):
        for w in (F2.word("b"), F2.word("aB"), F2.word("abA")):
            for n in (1, 2, 5, 16):
                assert _power_tuple(w, n) == tuple(w**k for k in range(1, n + 1))

    def test_multi_element_tuple_is_geometric(self):
        x = AlgebraElement.delta(F2.word("a"))
        hs, certs, worst = _multi_element_powers([("a", x)], 0.75, 16)
        assert worst < 0.75 and certs
        assert hs == tuple(hs[0] ** k for k in range(1, len(hs) + 1))


class TestBuilder:
    def test_member_with_overflowing_l1_is_malformed(self):
        # its l1 norm is inf, and scaling by 1 / inf would make it zero
        huge = AlgebraElement({F2.word("a"): complex(1.7e308, 1.7e308)}, 2)
        with pytest.raises(MalformedInputError, match="squared l1 norm"):
            build_c_star_simple_measure([huge], 1)

    def test_level_one_single_element(self):
        build = build_c_star_simple_measure([AlgebraElement.delta(F2.word("a"))], 1)
        assert build.schedule == (2,)
        assert build.all_verified
        assert all(c.upper_bound < 0.5 for c in build.level_certificates)
        # final certified bound < 5/2 at n_1 = 2
        assert all(c.upper_bound < 2.5 for c in build.final_checks)
        assert abs(sum(float(p) for p in build.measure.masses.values()) - 1) < 1e-12

    def test_trace_preservation(self):
        family = [AlgebraElement.delta(w) for w in ball(F2, 1)]
        build = build_c_star_simple_measure(family, 1)
        for a in family:
            out = measure_convolve_element(build.measure, a)
            assert abs(canonical_trace(out) - canonical_trace(a)) < 1e-12

    def test_deterministic_rebuild(self):
        family = [AlgebraElement.delta(w) for w in ball(F2, 1)]
        b1 = build_c_star_simple_measure(family, 1)
        b2 = build_c_star_simple_measure(family, 1)
        assert b1.measure == b2.measure
        assert [c.upper_bound for c in b1.level_certificates] == [
            c.upper_bound for c in b2.level_certificates
        ]

    def test_level_certificates_reverify(self):
        family = [AlgebraElement.delta(F2.word("a"))]
        build = build_c_star_simple_measure(family, 1)
        hs = build.levels[0].support()
        x = AlgebraElement.delta(F2.word("a"))
        u = norm_upper_bound(_averaged_element(x, hs))
        stored = [
            c.upper_bound for c in build.level_certificates if c.constraint_id == "a[0]"
        ]
        assert any(abs(u - s) < 1e-15 for s in stored)

    def test_level_two_certificates_recompute_bit_identically(self):
        # recomputation oracle: rebuild every recorded level-2 constraint
        # element from the stored level measures and recertify from scratch
        family = [AlgebraElement.delta(w) for w in ball(F2, 1)]
        build = build_c_star_simple_measure(family, levels=2)
        e = F2.identity
        elements = {f"a[{s}]": a for s, a in enumerate(family)}
        frontier = {"a[0]": family[0]}
        for _ in range(1, build.schedule[1]):
            nxt = {}
            for cid, x in frontier.items():
                y = measure_convolve_element(build.levels[0], x)
                nxt[f"mu[1]*{cid}"] = y
            elements.update(nxt)
            frontier = nxt
        hs2 = build.levels[1].support()
        for cert in build.level_certificates:
            if cert.level != 2:
                continue
            x = elements[cert.constraint_id]
            centered = x - AlgebraElement.delta(e, canonical_trace(x))
            recomputed = norm_upper_bound(_averaged_element(centered, hs2))
            assert recomputed == cert.upper_bound


class TestFiniteDimensionalStates:
    def test_trivial_representation(self):
        triv = FiniteQuotient(2, [np.eye(1), np.eye(1)])
        states = finite_dim_stationary_states(triv, MU)
        assert len(states) == 1
        assert np.allclose(states[0].matrix, [[1.0]])

    def test_s3_regular_fixed_dimension(self):
        basis = stationary_hermitian_basis(S3_REGULAR, MU)
        assert len(basis) == 6
        for H in basis:
            assert np.max(np.abs(H - H.conj().T)) < 1e-12

    def test_s3_states_are_stationary_densities(self):
        states = finite_dim_stationary_states(S3_REGULAR, MU)
        assert len(states) == 6
        Phi = _convolution_channel(S3_REGULAR, MU)
        m = S3_REGULAR.dim
        for st in states:
            assert np.min(np.linalg.eigvalsh(st.matrix)) >= 1 / (2 * m) - 1e-12
            out = (Phi @ st.matrix.reshape(-1)).reshape(m, m)
            assert np.max(np.abs(out - st.matrix)) < 1e-10

    def test_stationary_equals_invariant_subspace(self):
        # brute-force oracle: Hermitian H with U_g H = H U_g for all generators
        def hermitian_basis_matrices(m):
            out = []
            for i in range(m):
                E = np.zeros((m, m), complex)
                E[i, i] = 1.0
                out.append(E)
            for i in range(m):
                for j in range(i + 1, m):
                    E = np.zeros((m, m), complex)
                    E[i, j] = E[j, i] = 1 / np.sqrt(2)
                    out.append(E)
                    Fm = np.zeros((m, m), complex)
                    Fm[i, j] = -1j / np.sqrt(2)
                    Fm[j, i] = 1j / np.sqrt(2)
                    out.append(Fm)
            return out

        m = S3_REGULAR.dim
        hb = hermitian_basis_matrices(m)
        cols = []
        for H in hb:
            col = []
            for s in ("a", "A", "b", "B"):
                U = S3_REGULAR.evaluate(F2.word(s))
                C = U @ H - H @ U
                col.append(C.real.reshape(-1))
                col.append(C.imag.reshape(-1))
            cols.append(np.concatenate(col))
        M = np.array(cols).T
        _, s, Vh = np.linalg.svd(M)
        mask = np.zeros(Vh.shape[0], bool)
        mask[: len(s)] = s < 1e-10
        mask[len(s):] = True
        oracle = [sum(c * B for c, B in zip(v, hb)) for v in Vh[mask]]
        assert len(oracle) == 6

        basis = stationary_hermitian_basis(S3_REGULAR, MU)
        A = np.array([_herm_to_real(H) for H in basis])
        B = np.array([_herm_to_real(H) for H in oracle])
        Qa, _ = np.linalg.qr(A.T)
        Qb, _ = np.linalg.qr(B.T)
        dist = np.linalg.norm(Qa @ Qa.T - Qb @ Qb.T, 2)
        assert dist < 1e-8

    def test_span_of_returned_states_is_fixed_space(self):
        states = finite_dim_stationary_states(S3_REGULAR, MU)
        basis = stationary_hermitian_basis(S3_REGULAR, MU)
        A = np.array([_herm_to_real(st.matrix) for st in states])
        B = np.array([_herm_to_real(H) for H in basis])
        Qa, _ = np.linalg.qr(A.T)
        Qb, _ = np.linalg.qr(B.T)
        assert np.linalg.norm(Qa @ Qa.T - Qb @ Qb.T, 2) < 1e-8


class TestCrossedProductState:
    NU = uniform_boundary_measure(F2, 4)

    def test_unit(self):
        val = crossed_product_state({F2.identity: {F2.identity: 1.0}}, self.NU)
        assert abs(val - 1.0) < 1e-15

    def test_cylinder_coefficient(self):
        val = crossed_product_state({F2.identity: {F2.word("a"): 1.0}}, self.NU)
        assert abs(val - 0.25) < 1e-15

    def test_off_identity_terms_vanish(self):
        val = crossed_product_state(
            {F2.word("b"): {F2.word("a"): 1.0, F2.identity: 3.0}}, self.NU
        )
        assert val == 0

    def test_positive_and_mixed(self):
        f_e = {F2.word("a"): 0.5, F2.word("b"): 0.25}
        val = crossed_product_state({F2.identity: f_e, F2.word("ab"): {F2.identity: 9.0}}, self.NU)
        assert abs(val - (0.5 * 0.25 + 0.25 * 0.25)) < 1e-15
        assert val.real >= 0
