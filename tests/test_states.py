import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stationarylab import cli, freegroup, states, walks
from stationarylab.algebra import (
    AlgebraElement,
    _float_down,
    _l1_normalized,
    _upper_bound_floor,
    norm_upper_bound,
)
from stationarylab.errors import (
    ConstructionError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
)
from stationarylab.freegroup import FiniteQuotient, FreeGroupContext, ball, conjugate
from stationarylab.states import (
    build_c_star_simple_measure,
    cesaro_test,
    finite_dim_stationary_states,
    powers_search,
    _averaged_element,
    _power_families,
    _random_tuples,
    _scan,
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


def akemann_ostrand(cs):
    """The norm of sum c_i lambda(t_i) over a free family (Akemann-Ostrand
    1976): min over t > 0 of 2t + sum (sqrt(t^2 + c_i^2) - t), by bisection
    on the derivative in floats."""
    lo, hi = 0.0, max(cs) * len(cs)
    for _ in range(200):
        t = (lo + hi) / 2
        if 2 + sum(t / math.sqrt(t * t + c * c) - 1 for c in cs) < 0:
            lo = t
        else:
            hi = t
    return 2 * t + sum(math.sqrt(t * t + c * c) - t for c in cs)


class TestCesaroTest:
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_no_checkpoint_is_refused(self, n_max):
        # a run with no rows once read "not decaying over the last three checkpoints"
        with pytest.raises(MalformedInputError, match="n_max must be >= 1"):
            cesaro_test(AlgebraElement.delta(F2.word("a")), MU, n_max)

    def test_unit_element_all_zero(self):
        rep = cesaro_test(AlgebraElement.delta(F2.identity), MU, n_max=4)
        assert all(r.lower == 0 and r.upper == 0 for r in rep.rows)

    def test_single_unitary_first_bracket(self):
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), MU, n_max=2)
        assert rep.rows[0].upper == 1.0  # mu_1 = delta_e leaves lambda_a alone

    def test_lazy_shift_decay(self):
        mu = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), mu, n_max=32)
        ups = [r.upper for r in rep.rows]
        assert rep.generating is False
        assert rep.verdict.startswith("decaying")
        # b_n = sum_j c_j lambda(b^-j a b^j), a free family, where c_j, the
        # mass of b^j under the n-th Cesaro average, is
        # (1/n) sum_{j <= k < n} C(k, j) / 2^k: the uppers are its
        # Akemann-Ostrand norms, which fall by 0.586 from n = 8 to n = 32
        norms = {n: akemann_ostrand([sum(math.comb(k, j) / 2**k for k in range(j, n)) / n
                                     for j in range(n)]) for n in (8, 16, 32)}
        for n, norm in norms.items():
            assert ups[n - 1] == pytest.approx(norm, rel=1e-12)
        assert ups[31] < 0.59 * ups[7]
        # O(1/sqrt(n)): the scaled uppers stay bounded
        scaled = [ups[n - 1] * math.sqrt(n) for n in (8, 16, 32)]
        assert max(scaled) < 3.0
        # certified lower bounds stay below uppers
        assert all(r.lower <= r.upper for r in rep.rows)

    def test_exact_l1_uppers_do_not_decay(self):
        # under the law uniform on {a, A}, every b_n of lambda_a is a sum of
        # positive multiples of powers of a, in the abelian <a>, so its norm
        # is its l1 norm, exactly 1: a run of equal uppers is no decay
        law = GroupMeasure({F2.word(w): Fraction(1, 2) for w in "aA"}, 2)
        rep = cesaro_test(AlgebraElement.delta(F2.word("a")), law, n_max=6)
        assert [(r.upper, r.upper_method) for r in rep.rows] == [(1.0, "l1")] * 6
        assert rep.verdict == "not decaying over the last three checkpoints"

    def test_uniform_uppers_of_ab_decay_from_the_partition(self):
        # under the simple walk every b_n of lambda_ab has l1 norm 1, but
        # from n = 2 its support splits into ping-pong families whose
        # Akemann-Ostrand norms sum to less
        rep = cesaro_test(AlgebraElement.delta(F2.word("ab")), MU, n_max=6)
        assert [(r.upper, r.upper_method) for r in rep.rows] == [(1.0, "l1")] + [
            (u, "powers-partition") for u in (0.9622557089021344, 0.8842384428572486,
                                              0.8148385100514518, 0.75347236302272,
                                              0.6983263150247097)]
        assert all(r.lower <= r.upper for r in rep.rows)
        assert rep.verdict == "decaying; consistent with unique stationarity"

    def test_decaying_generating_run_is_consistent_with_unique_stationarity(self):
        # a biased generating law: the last three uppers fall, from the
        # powers-partition candidate, each below the subgroup-layers bound
        # that an earlier, larger candidate gave (0.9544 and 0.9096 at n = 6, 7)
        law = GroupMeasure({F2.word(w): Fraction(p, 10) for w, p in zip("aAbB", (4, 1, 3, 2))},
                           2)
        rep = cesaro_test(AlgebraElement.delta(F2.word("abAB")), law, n_max=7)
        assert [(r.upper, r.upper_method) for r in rep.rows[-3:]] == [
            (0.629874395705187, "powers-partition"), (0.5714376663542742, "powers-partition"),
            (0.5214971454432106, "powers-partition")]
        assert rep.generating is True and not rep.partial
        assert rep.verdict == "decaying; consistent with unique stationarity"

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
    def test_spec_example_n6(self):
        # the average of n free conjugates has norm 2 sqrt(n - 1) / n
        # (Akemann-Ostrand), first below 0.75 at n = 6: 2 sqrt(5) / 6
        cert = powers_search(F2.word("a"), 0.75, strategy="geometric", budget=16)
        assert cert.success
        assert cert.n == 6
        assert cert.upper_bound == 0.74535599249993
        assert Fraction(cert.upper_bound) ** 2 >= Fraction(20, 36)
        assert Fraction(math.nextafter(cert.upper_bound, 0)) ** 2 < Fraction(20, 36)
        assert [str(h) for h in cert.conjugators] == ["b" * k for k in range(1, 7)]

    def test_certificate_revalidates_bit_identically(self):
        cert = powers_search(F2.word("a"), 0.75, strategy="geometric", budget=16)
        # the bound recomputed from the raw inputs: the averaged element of a
        x = _averaged_element(AlgebraElement.delta(F2.word("a")), cert.conjugators)
        assert norm_upper_bound(x) == cert.upper_bound

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

    # each base's powers are formed once and extended: sizes in order, out
    # of order and repeated give the same tuples as powers formed afresh
    @pytest.mark.parametrize("sizes", [range(1, 7), (5, 2, 16, 1, 16)])
    def test_geometric_tuples_are_successive_powers(self, sizes):
        g = F2.word("ab")
        bases = [w for w in ball(F2, 3) if not w.is_identity() and w * g != g * w]
        want = [(tuple(w**k for k in range(1, n + 1)), n)
                for n in sizes for w in bases]
        assert list(_power_families(2, [g.letters], sizes)) == want

    def test_multi_element_tuple_is_geometric(self):
        a = F2.word("a")
        tuples = _power_families(2, [a.letters], (1, 2, 4, 8, 16))
        hs, n, certs, worst = _scan([("a", AlgebraElement.delta(a))], 0.75, tuples)
        assert worst < 0.75 and certs
        assert hs == tuple(hs[0] ** k for k in range(1, len(hs) + 1)) and n == len(hs)


def reference_scan(constraints, epsilon, tuples):
    """The scan with no floor: every tuple's bounds in stream order."""
    best = ((), 0, [], float("inf"))
    for hs, n in tuples:
        certs, worst = [], 0.0
        for cid, x in constraints:
            u = norm_upper_bound(_averaged_element(x, hs))
            certs.append((cid, u))
            worst = max(worst, u)
            if worst >= epsilon:
                break
        if worst < epsilon:
            return hs, n, certs, worst
        if worst < best[3]:
            best = (hs, n, certs, worst)
    return best


def same_scan(constraints, epsilon, tuples):
    """_scan and reference_scan on one list of tuples, each result with the
    bounds' methods: they must be equal."""
    tuples = list(tuples)
    got, want = (scan(constraints, epsilon, iter(tuples)) for scan in (_scan, reference_scan))
    assert got == want
    assert [u.method for _, u in got[2]] == [u.method for _, u in want[2]]
    return got


def cli_outputs(argv, out, capsys):
    """Exit code, {file name: bytes} and stderr of one CLI run into out."""
    rc = cli.main(argv + ["--out-dir", str(out)])
    return rc, {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}, \
        capsys.readouterr().err


class TestScanDefersWhatCannotPass:
    """A tuple whose floor reaches epsilon is evaluated only when no tuple
    passes, and the scan returns what the scan that defers none returns."""

    @pytest.mark.parametrize("g", ["a", "ab", "aab", "abAB"])
    @pytest.mark.parametrize("budget", range(1, 6))
    def test_failing_powers_scan(self, g, budget):
        # at most 5 free conjugates: every floor is 2 sqrt(n - 1) / n >= 0.75
        x = F2.word(g)
        hs, n, certs, worst = same_scan([(g, AlgebraElement.delta(x))], 0.75,
                                        _power_families(2, [x.letters], range(1, budget + 1)))
        assert worst >= 0.75 and hs

    @pytest.mark.parametrize("g, eps, budget, calls", [
        ("a", 0.75, 5, 46), ("a", 0.75, 3, 46), ("ab", 0.5, 6, 50), ("aab", 0.6, 8, 50)])
    def test_deferred_tuples_stop_at_a_floor_past_the_best_bound(self, monkeypatch, g, eps,
                                                                   budget, calls):
        # every tuple is deferred, and the reference evaluates them all.  By
        # rising floor the scan evaluates the tuples of the largest size
        # alone: their floor is the least, and the next size's floor passes
        # their worst bound
        x = F2.word(g)
        stream = list(_power_families(2, [x.letters], range(1, budget + 1)))
        assert len(stream) == {"a": 46, "ab": 50, "aab": 50}[g] * budget
        counted = []
        monkeypatch.setattr(states, "norm_upper_bound",
                            lambda y: counted.append(y) or norm_upper_bound(y))
        hs, n, certs, worst = same_scan([(g, AlgebraElement.delta(x))], eps, stream)
        assert worst >= eps and n == budget and len(counted) == calls

    @pytest.mark.parametrize("eps, budget, seed", [(0.9, 12, 5), (0.5, 8, 1), (0.3, 10, 2)])
    def test_random_scan(self, eps, budget, seed):
        same_scan([("a", AlgebraElement.delta(F2.word("a")))], eps,
                  _random_tuples(2, budget, seed))

    def test_passing_scans(self):
        for g in ("a", "ab", "aab"):
            x = F2.word(g)
            hs, n, _, worst = same_scan([(g, AlgebraElement.delta(x))], 0.75,
                                        _power_families(2, [x.letters], range(1, 17)))
            assert worst < 0.75 and n == 6

    def test_a_deferred_tuple_wins_a_tie_it_comes_first_in(self):
        # (e, b) gives a + Bab, whose floor 1 reaches 0.95; (e, b, Bab) gives
        # a, Bab and BAbaBab, which generate a subgroup of rank 2: their floor
        # is 2 sqrt(2) / 3 < 0.95, and the l1 norm 1 is their least bound.
        # Both worst bounds are 1, so the first in the stream is the closest
        a = AlgebraElement.delta(F2.word("a"))
        pair = (F2.identity, F2.word("b"))
        triple = pair + (F2.word("Bab"),)
        assert _upper_bound_floor(_averaged_element(a, pair)) >= 0.95
        assert _upper_bound_floor(_averaged_element(a, triple)) < 0.95
        for stream in ([(pair, 2), (triple, 3)], [(triple, 3), (pair, 2)]):
            hs, n, certs, worst = same_scan([("a", a)], 0.95, stream)
            assert (n, worst) == (stream[0][1], 1.0)

    def test_ties_among_deferred_tuples_go_to_the_first(self):
        # at n <= 5 the conjugates of a by the powers of b and of B are free
        # families with equal bounds: the first base in length-lex order wins
        x = F2.word("a")
        hs, n, _, worst = same_scan([("a", AlgebraElement.delta(x))], 0.75,
                                    _power_families(2, [x.letters], range(5, 0, -1)))
        assert (n, worst, hs[0]) == (5, 0.8, F2.word("b"))

    @pytest.mark.parametrize("family, levels, budget", [
        (["ab"], 1, 8), (["ab"], 2, 32), (["a", "b", "A", "B", ""], 1, 1), (["a", "ab"], 1, 4)])
    def test_failing_build_level(self, monkeypatch, family, levels, budget):
        members = [AlgebraElement.delta(F2.word(w)) for w in family]
        messages = []
        for scan in (_scan, reference_scan):
            monkeypatch.setattr(states, "_scan", scan)
            with pytest.raises(ConstructionError) as info:
                build_c_star_simple_measure(members, levels, budget=budget)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and "closest tuple" in messages[0]

    @pytest.mark.parametrize("argv", [
        ["powers", "--g", "aab", "--eps", "0.75", "--budget", "4"],
        ["powers", "--g", "a", "--eps", "0.5", "--strategy", "random", "--budget", "8",
         "--seed", "3"],
        ["build-mu", "--family", "ball1", "--levels", "1", "--budget", "8"],
    ])
    def test_failing_cli_runs_write_the_same_bytes(self, monkeypatch, tmp_path, capsys, argv):
        got = cli_outputs(argv, tmp_path / "floor", capsys)
        monkeypatch.setattr(states, "_scan", reference_scan)
        assert got == cli_outputs(argv, tmp_path / "reference", capsys)
        assert got[0] == 5 and "error: " in got[2]


class TestBuilder:
    def test_member_with_overflowing_l1_is_malformed(self):
        # its l1 norm is inf, and scaling by 1 / inf would make it zero
        huge = AlgebraElement({F2.word("a"): complex(1.7e308, 1.7e308)}, 2)
        with pytest.raises(MalformedInputError, match="squared l1 norm"):
            build_c_star_simple_measure([huge], 1)

    @pytest.mark.parametrize("size, levels, count", [(1, 3, 65535), (509, 2, 513), (508, 2, 0)])
    def test_a_level_past_max_constraints_is_refused_before_any_scan(self, size, levels, count,
                                                                      monkeypatch):
        # level l asks for F + min(l - 1, F) sum over 0 < r < n_l of (l - 1)^r
        # constraints: F + 4 at level 2 (n_2 = 5), F + 2^16 - 2 at level 3
        # (n_3 = 16) for F = 1; a level at most MAX_CONSTRAINTS = 512 is scanned
        class Scanned(Exception):
            pass

        def scan(*args):
            raise Scanned

        monkeypatch.setattr(states, "_scan", scan)
        family = [AlgebraElement.delta(w) for w in ball(F2, 6) if len(w) == 6][:size]
        if not count:
            with pytest.raises(Scanned):
                build_c_star_simple_measure(family, levels)
            return
        message = f"level {levels}: {count} constraints exceed the cap (cap: 512)"
        with pytest.raises(ResourceLimitError, match=re.escape(message)):
            build_c_star_simple_measure(family, levels)

    def test_a_refused_level_computes_no_later_exponent(self, monkeypatch):
        # level 3 is refused (n_3 = 16, 65535 constraints for F = 1), and
        # the exponents past it cost seconds by n_12: none may be computed
        def first_three():
            yield from itertools.islice(walks._decay_exponents(), 3)
            raise AssertionError("an exponent past n_3 was computed")

        monkeypatch.setattr(states, "_decay_exponents", first_three)
        message = "level 3: 65535 constraints exceed the cap (cap: 512)"
        with pytest.raises(ResourceLimitError, match=re.escape(message)):
            build_c_star_simple_measure([AlgebraElement.delta(F2.word("ab"))], 12)

    def test_members_are_scaled_to_l1_norm_one(self):
        # 2 lambda_ab builds exactly what lambda_ab builds
        ab = F2.word("ab")
        assert build_c_star_simple_measure([AlgebraElement.delta(ab, 2.0)], 1) == \
            build_c_star_simple_measure([AlgebraElement.delta(ab)], 1)
        x = AlgebraElement({F2.word("a"): 3, F2.word("b"): 4j}, 2)
        assert exact(_l1_normalized(x)) == {F2.word("a"): (Fraction(3, 7), 0),
                                            F2.word("b"): (0, Fraction(4, 7))}

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
        hs = [w for w, _ in build.levels[0].atoms()]
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
        hs2 = [w for w, _ in build.levels[1].atoms()]
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
        perms = [rep.evaluate(g) for g, _ in MU.atoms()]
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
        oracle = hermitian_commutant(rep, [w for w, _ in MU.atoms()])
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

