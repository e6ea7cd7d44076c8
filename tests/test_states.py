import math
from fractions import Fraction

import numpy as np
import pytest

from stationarylab import freegroup
from stationarylab.algebra import AlgebraElement, _float_down, norm_upper_bound
from stationarylab.boundary import uniform_boundary_measure
from stationarylab.errors import MalformedInputError, PreconditionError, ResourceLimitError
from stationarylab.freegroup import FiniteQuotient, FreeGroupContext, Word, ball, conjugate
from stationarylab.states import (
    build_c_star_simple_measure,
    cesaro_test,
    crossed_product_state,
    finite_dim_stationary_states,
    powers_search,
    verify_powers_certificate,
    _averaged_element,
    _geometric_base_candidates,
    _geometric_tuples,
    _multi_element_powers,
    _power_tuple,
)
from stationarylab.walks import (
    GroupMeasure,
    measure_convolve_element,
    rng_from_seed,
    uniform_generator_measure,
)

from commutant import dense, hermitian_commutant, span_distance
from exact import exact

F2 = FreeGroupContext(2)
MU = uniform_generator_measure(2)
S3_REGULAR = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])


class TestCesaroTest:
    def test_unit_element_all_zero(self):
        rep = cesaro_test(AlgebraElement.delta(F2.identity), MU, n_max=4)
        assert all(r.lower == 0 and r.upper == 0 for r in rep.rows)

    def test_single_unitary_first_bracket(self):
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), MU, n_max=2)
        assert rep.rows[0].upper == 1.0  # mu_1 = delta_e leaves lambda_a alone

    def test_lazy_shift_decay(self):
        mu = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), mu, n_max=32)
        ups = rep.uppers()
        assert rep.generating is False
        assert rep.verdict.startswith("decaying")
        # O(1/sqrt(n)): the scaled uppers stay bounded while raw uppers halve
        assert ups[31] < 0.55 * ups[7]
        scaled = [ups[n - 1] * math.sqrt(n) for n in (8, 16, 32)]
        assert max(scaled) < 3.0
        # certified lower bounds stay below uppers
        assert all(r.lower <= r.upper for r in rep.rows)

    def test_exact_l1_uppers_do_not_decay(self):
        # every b_n of lambda_ab under the simple walk has l1 norm exactly 1
        rep = cesaro_test(AlgebraElement.delta(F2.word("ab")), MU, n_max=6)
        assert [(r.upper, r.upper_method) for r in rep.rows] == [(1.0, "l1")] * 6
        assert rep.verdict == "not decaying over the last three checkpoints"

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
            assert u_2n <= u_n

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


def averaged_oracle(x, conjugators):
    """The Powers average in Fractions: the n conjugated elements added one
    after another, zero sums left out, and the number of sums that reached
    exactly 0 on the way."""
    n = len(conjugators)
    acc = {}
    zeros = 0
    for h in conjugators:
        for w, (re, im) in exact(x).items():
            old_re, old_im = acc.get(conjugate(w, h), (0, 0))
            acc[conjugate(w, h)] = total = (old_re + re / n, old_im + im / n)
            zeros += total == (0, 0)
    return {w: c for w, c in acc.items() if c != (0, 0)}, zeros


class TestPowersAveraging:
    def test_cancelled_key_is_dropped(self):
        # h = 1 puts +1/2 on b, h = a puts -1/2 there (A(abA)a = b): the sum
        # is exactly 0 and b leaves the support
        x = AlgebraElement({F2.word("b"): 1.0, F2.word("abA"): -1.0}, 2)
        hs = (F2.identity, F2.word("a"))
        got = _averaged_element(x, hs)
        assert exact(got) == {F2.word("abA"): (Fraction(-1, 2), 0),
                              F2.word("Aba"): (Fraction(1, 2), 0)}
        assert exact(got) == averaged_oracle(x, hs)[0]

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
            expected, zeros = averaged_oracle(x, hs)
            assert exact(_averaged_element(x, hs)) == expected
            cancels += zeros
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
            assert exact(out).get(F2.identity) == exact(a).get(F2.identity)

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
        assert u in stored

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
            assert not x.im
            centered = AlgebraElement({w: re for w, (re, _) in exact(x).items() if w != e}, 2)
            recomputed = norm_upper_bound(_averaged_element(centered, hs2))
            assert recomputed == cert.upper_bound


def _cycle25():
    # a 25-cycle with the fixed point 25: the orbit {(i, 25)} has row count 1
    # and column count 25
    return FiniteQuotient(2, [list(range(1, 25)) + [0, 25], list(range(26))])


# (rep, the number of orbits on index pairs: the SVD fixed dimension)
FD_REPS = {
    "trivial": (FiniteQuotient(2, [[0], [0]]), 1),
    "s3-regular": (S3_REGULAR, 6),
    "two-swaps": (FiniteQuotient(2, [[1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]]), 18),
    "25-cycle-fixed-point": (_cycle25(), 28),
    "s4-regular": (FiniteQuotient.regular_from_permutations(2, [(1, 0, 2, 3), (1, 2, 3, 0)]), 24),
    "s40-natural": (FiniteQuotient(2, [[1, 0] + list(range(2, 40)), list(range(1, 40)) + [0]]), 2),
}


def _psd_exactly(rows):
    """Whether a symmetric matrix of Fractions is positive semidefinite:
    symmetric elimination, where a zero pivot needs a zero column."""
    a = [list(r) for r in rows]
    for k in range(len(a)):
        if a[k][k] < 0:
            return False
        if a[k][k] == 0:
            if any(a[i][k] for i in range(k + 1, len(a))):
                return False
            continue
        for i in range(k + 1, len(a)):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                for j in range(k + 1, len(a)):
                    a[i][j] -= f * a[k][j]
    return True


def _shift_is_psd(st, lam):
    """Whether st - lam I is positive semidefinite, decided in Fractions on
    A - lam I, or with an imaginary part B on the real form [[A, -B], [B, A]]
    of A + iB."""
    m = st.dim
    A = [[st.real.get((i, j), 0) + (st.diagonal - lam if i == j else 0) for j in range(m)]
         for i in range(m)]
    rows = A
    if st.imag:
        B = [[st.imag.get((i, j), 0) for j in range(m)] for i in range(m)]
        rows = [A[i] + [-b for b in B[i]] for i in range(m)] + [B[i] + A[i] for i in range(m)]
    return _psd_exactly([[Fraction(v) for v in r] for r in rows])


def _least_orbit_pair(st):
    """The least pair of the orbit a state comes from: its least
    off-diagonal entry, or for a diagonal orbit its least entry."""
    return min([p for p in [*st.real, *st.imag] if p[0] != p[1]] or st.real)


class TestFiniteDimensionalStates:
    @pytest.mark.parametrize("name", sorted(FD_REPS))
    def test_one_state_per_orbit_on_index_pairs(self, name):
        rep, count = FD_REPS[name]
        assert len(finite_dim_stationary_states(rep, MU)) == count

    @pytest.mark.parametrize("name", sorted(FD_REPS))
    def test_states_are_exact_stationary_densities(self, name):
        rep, _ = FD_REPS[name]
        m = rep.dim
        perms = [rep.evaluate(g) for g in MU.support()]
        for st in finite_dim_stationary_states(rep, MU):
            assert st.trace == 1 and type(st.trace) is Fraction
            assert all(st.real[j, i] == v for (i, j), v in st.real.items())
            assert all(st.imag[j, i] == -v for (i, j), v in st.imag.items())
            # U rho U^* = rho: the permuted entries are the entries
            for p in perms:
                for part in (st.real, st.imag):
                    assert {(p[i], p[j]): v for (i, j), v in part.items()} == part
            # numpy's own rounding may put it below a tight bound: allow m eps
            least = np.linalg.eigvalsh(dense(st))[0]
            assert _float_down(st.min_eigenvalue) <= least + m * np.finfo(float).eps
            if any(i != j for i, j in [*st.real, *st.imag]):
                assert st.min_eigenvalue >= Fraction(1, 2 * m)

    @pytest.mark.parametrize(
        "name", ["trivial", "s3-regular", "two-swaps", "25-cycle-fixed-point", "s4-regular"]
    )
    def test_min_eigenvalue_is_certified_exactly(self, name):
        rep, _ = FD_REPS[name]
        for st in finite_dim_stationary_states(rep, MU):
            assert _shift_is_psd(st, st.min_eigenvalue)

    @pytest.mark.parametrize("name", ["trivial", "s3-regular", "two-swaps"])
    def test_span_is_the_brute_force_commutant(self, name):
        rep, count = FD_REPS[name]
        oracle = hermitian_commutant(rep, MU.support())
        states = finite_dim_stationary_states(rep, MU)
        assert len(oracle) == count
        assert span_distance([dense(st) for st in states], oracle) < 1e-8

    def test_line_count_not_row_count_scales_the_state(self):
        rep, _ = FD_REPS["25-cycle-fixed-point"]
        m = rep.dim
        (st,) = [st for st in finite_dim_stationary_states(rep, MU) if (0, 25) in st.real]
        assert st.real[0, 25] == Fraction(1, 4 * m * 25)
        # the row count 1 in place of 25 would leave a negative eigenvalue
        row_only = np.eye(m) / m
        row_only[:25, 25] = row_only[25, :25] = 1 / (4 * m)
        assert np.linalg.eigvalsh(row_only)[0] < -0.009
        assert np.linalg.eigvalsh(dense(st))[0] >= 1 / (2 * m)

    def test_orbits_come_in_the_order_of_their_least_pairs(self):
        rep, _ = FD_REPS["two-swaps"]
        firsts = [_least_orbit_pair(st) for st in finite_dim_stationary_states(rep, MU)]
        # 4 diagonal orbits, 2 off it equal to their transposes, 6 transposed pairs
        assert firsts == sorted(firsts) and len(set(firsts)) == 12

    def test_index_pairs_past_the_cap_are_refused_before_the_work(self, monkeypatch):
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 35)
        with pytest.raises(ResourceLimitError):
            finite_dim_stationary_states(S3_REGULAR, MU)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 36)
        assert len(finite_dim_stationary_states(S3_REGULAR, MU)) == 6

    def test_storage_is_bounded_by_the_index_pairs(self, monkeypatch):
        # identity images make every index pair its own orbit: the most states
        m = 30
        rep = FiniteQuotient(2, [list(range(m))] * 2)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", m * m - 1)
        with pytest.raises(ResourceLimitError):
            finite_dim_stationary_states(rep, MU)
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", m * m)
        states = finite_dim_stationary_states(rep, MU)
        assert len(states) == m * m
        # the diagonal I/m is implicit, so no state copies it
        assert sum(len(st.real) + len(st.imag) for st in states) == 2 * m * m - m
        # and no two states share a mapping
        assert len({id(d) for st in states for d in (st.real, st.imag)}) == 2 * len(states)


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
