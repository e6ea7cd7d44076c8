import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stationarylab.boundary import (
    CylinderMeasure,
    boundary_map,
    conditional_measure,
    first_letter_hitting,
    fix_mass,
    solve_stationary,
    stationarity_residual,
    total_variation,
    translate,
    uniform_boundary_measure,
)
from stationarylab.errors import (
    ContextMismatchError,
    DepthUnderflowError,
    MalformedInputError,
    PreconditionError,
    UnresolvedBoundaryError,
)
from stationarylab.freegroup import FreeGroupContext, Word, ball
from stationarylab.walks import (
    GroupMeasure,
    PathSample,
    sample_path,
    uniform_generator_measure,
)

F2 = FreeGroupContext(2)
F1 = FreeGroupContext(1)
MU = uniform_generator_measure(2)
NU = uniform_boundary_measure(F2, 6)


class TestUniformMeasure:
    def test_level_one_mass(self):
        assert NU.mass(F2.word("a")) == Fraction(1, 4)

    def test_level_two_mass(self):
        assert NU.mass(F2.word("ab")) == Fraction(1, 12)

    def test_every_level_sums_to_one(self):
        for n in range(1, 7):
            assert sum(m for _, m in NU.level_items(n)) == 1

    def test_consistency(self):
        for w, m in NU.cylinders():
            if len(w) < NU.depth:
                kids = sum(
                    NU.mass(F2.word(str(w) + "") * s)
                    for s in F2.generators()
                    if str(s).swapcase() != str(w)[-1]
                )
                assert kids == m

    def test_uniform_tail_evaluation(self):
        w = F2.word("a" * 10)
        assert NU.mass(w) == Fraction(1, 4 * 3**9)

    def test_strict_measure_raises_beyond_depth(self):
        strict = CylinderMeasure(dict(NU.cylinders()), 2, 6)
        with pytest.raises(DepthUnderflowError):
            strict.mass(F2.word("a" * 7))


class TestConstructorChecks:
    def test_table_is_keyed_by_letters(self):
        assert NU.masses[F2.word("ab").letters] == Fraction(1, 12)
        assert all(isinstance(w, tuple) for w in NU.masses)
        assert dict(NU.cylinders()) == {w: NU.mass(w) for w in ball(F2, 6) if len(w)}

    def test_round_trip_through_words(self):
        copy = CylinderMeasure(dict(NU.cylinders()), 2, 6, tail_uniform_from=1)
        assert copy.masses == NU.masses

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda t: t.update({FreeGroupContext(3).word("a"): 0.25}), ContextMismatchError),
            (lambda t: t.update({F2.word("abab"): 0.0}), MalformedInputError),
            (lambda t: t.update({F2.identity: 1.0}), MalformedInputError),
            (lambda t: t.update({F2.word("a"): 0.3}), MalformedInputError),
            # children of a still sum to nu[a]; only the sign is wrong
            (lambda t: t.update({F2.word("ab"): -0.1, F2.word("aa"): 1 / 6 + 0.1}),
             MalformedInputError),
            (lambda t: t.update({F2.word("ab"): 0.2, F2.word("aa"): 0.0}), MalformedInputError),
        ],
        ids=["rank", "too-deep", "identity", "level-1-sum", "negative", "children"],
    )
    def test_bad_tables_rejected(self, edit, error):
        table = {w: float(m) for w, m in NU.cylinders() if len(w) <= 2}
        CylinderMeasure(table, 2, 2)
        edit(table)
        with pytest.raises(error):
            CylinderMeasure(table, 2, 2)

    def test_bad_depth_rejected(self):
        with pytest.raises(MalformedInputError):
            CylinderMeasure({}, 2, 0)

    def test_non_finite_mass_rejected(self):
        # every comparison with NaN is false, so the consistency checks alone
        # would pass it
        table = {w: float(m) for w, m in NU.cylinders() if len(w) <= 2}
        table[F2.word("ab")] = math.nan
        with pytest.raises(MalformedInputError, match="not finite"):
            CylinderMeasure(table, 2, 2)

    def test_mass_beyond_the_float_range_rejected(self):
        table = {F2.word(w): 0 for w in "AbB"}
        table[F2.word("a")] = Fraction(10**400)
        with pytest.raises(MalformedInputError):
            CylinderMeasure(table, 2, 1)

    def test_uniform_tail_lies_within_the_table(self):
        table = dict(uniform_boundary_measure(F2, 2).cylinders())
        for tail in (1, 2):
            nu = CylinderMeasure(table, 2, 2, tail_uniform_from=tail)
            assert nu.mass(F2.word("abb")) == Fraction(1, 36)
        for tail in (0, 3):
            with pytest.raises(MalformedInputError, match="uniform tail"):
                CylinderMeasure(table, 2, 2, tail_uniform_from=tail)


class TestTranslate:
    def test_identity_translate(self):
        t = translate(F2.identity, NU)
        assert all(t.mass(w) == NU.mass(w) for w in ball(F2, 3))

    def test_prefix_case(self):
        t = translate(F2.word("a"), NU)
        assert t.mass(F2.word("ab")) == NU.mass(F2.word("b"))

    def test_complement_case(self):
        # (a nu)[a] = 1 - nu[a^-1], cross-checked by the full preimage
        # decomposition at depth 2: a^-1[a] covers all level-2 cylinders
        # not starting with a^-1
        t = translate(F2.word("a"), NU)
        direct = t.mass(F2.word("a"))
        oracle = sum(m for w, m in NU.level_items(2) if str(w)[0] != "A")
        assert direct == oracle == 1 - Fraction(1, 4)

    def test_composition(self):
        g, h = F2.word("ab"), F2.word("bA")
        lhs = translate(g, translate(h, NU))
        rhs = translate(g * h, NU)
        for w in ball(F2, 2):
            if len(w):
                assert abs(float(lhs.mass(w)) - float(rhs.mass(w))) < 1e-15

    def test_output_consistency(self):
        t = translate(F2.word("ba"), NU)
        for n in range(1, t.depth + 1):
            assert abs(float(sum(m for _, m in t.level_items(n))) - 1) < 1e-12

    def test_depth_bookkeeping(self):
        strict = CylinderMeasure(dict(NU.cylinders()), 2, 6)
        t = translate(F2.word("ab"), strict)
        assert t.depth == 4
        with pytest.raises(DepthUnderflowError):
            translate(F2.word("a" * 6), strict)


class TestStationarity:
    def test_uniform_pair_exactly_stationary(self):
        assert stationarity_residual(MU, NU) == 0.0

    def test_dirac_law_fixes_everything(self):
        delta_e = GroupMeasure.dirac(F2.identity)
        assert stationarity_residual(delta_e, NU) == 0.0

    def test_concentrated_measure_fails(self):
        eps = 0.01
        table = {}
        for w in ball(F2, 3):
            if not len(w):
                continue
            base = (1 - 3 * eps) if str(w)[0] == "a" else eps
            table[w] = base / 3 ** (len(w) - 1)
        bad = CylinderMeasure(table, 2, 3)
        assert stationarity_residual(MU, bad) > 0.1


class TestSolveStationary:
    def test_recovers_uniform_from_perturbed_seed(self):
        table = {}
        for w in ball(F2, 5):
            if not len(w):
                continue
            base = {"a": 0.4, "A": 0.2, "b": 0.25, "B": 0.15}[str(w)[0]]
            table[w] = base / 3 ** (len(w) - 1)
        seed = CylinderMeasure(table, 2, 5)
        sol = solve_stationary(MU, depth=5, tol=1e-12, max_iter=200, seed_measure=seed)
        assert sol.iterations <= 200
        assert sol.residual < 1e-12
        assert total_variation(sol.measure, uniform_boundary_measure(F2, 5), 5) < 1e-8
        assert sol.hitting_agrees

    def test_tail_uniform_seed_matches_the_default_seed(self):
        # the default seed is the uniform measure read below its table, so a
        # uniform seed of any depth gives the same solve bit for bit
        plain = solve_stationary(MU, depth=4)
        seeded = solve_stationary(MU, depth=4, seed_measure=uniform_boundary_measure(F2, 2))
        assert seeded.iterations == plain.iterations
        assert seeded.residual == plain.residual
        assert seeded.measure.masses == plain.measure.masses

    def test_residual_covers_the_certified_words(self):
        # one step from the uniform seed, rebuilt from translates at the
        # working depth W = 5: the residual is certified on the words up to
        # W - L = 3, and for this law it peaks below the returned depth 1
        law = GroupMeasure.uniform_on([F2.word(w) for w in ("a", "B", "ab", "bA")])
        seed = uniform_boundary_measure(F2, 1)
        moved = [(float(p), translate(g, seed, out_depth=5)) for g, p in law.atoms()]
        step = CylinderMeasure(
            {w: sum(p * t.mass(w) for p, t in moved) for w in ball(F2, 5) if w}, 2, 5
        )
        sol = solve_stationary(law, depth=1, tol=1.0, max_iter=1)
        assert sol.residual == pytest.approx(stationarity_residual(law, step), abs=1e-15)
        assert sol.residual > stationarity_residual(law, step, depth=1) + 0.01

    def test_depth_below_one_rejected(self):
        # a depth-0 table is one the public constructor refuses
        with pytest.raises(MalformedInputError):
            solve_stationary(MU, depth=0)

    def test_non_generating_rejected(self):
        lazy = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        with pytest.raises(PreconditionError):
            solve_stationary(lazy, depth=3)

    def test_output_satisfies_invariants(self):
        sol = solve_stationary(MU, depth=3, tol=1e-10, max_iter=100)
        meas = sol.measure
        for n in range(1, meas.depth + 1):
            assert abs(float(sum(m for _, m in meas.level_items(n))) - 1) < 1e-9
        # per-cylinder consistency: parent mass equals the sum of its children
        for w, m in meas.cylinders():
            if len(w) < meas.depth:
                kids = sum(
                    float(meas.mass(F2.word(str(w)) * s))
                    for s in F2.generators()
                    if str(s).swapcase() != str(w)[-1]
                )
                assert abs(kids - float(m)) < 1e-12

    def test_biased_z_hitting(self):
        mu = GroupMeasure({F1.word("a"): Fraction(3, 4), F1.word("A"): Fraction(1, 4)}, 1)
        q = first_letter_hitting(mu)
        assert abs(q[F1.word("a")] - 1.0) < 1e-9
        assert abs(q[F1.word("A")]) < 1e-9
        # on the two-point boundary of Z every measure is stationary: the
        # solver certifies residual ~ 0 at the seed while the hitting route
        # concentrates on one end
        sol = solve_stationary(mu, depth=2, tol=1e-10, max_iter=10)
        assert sol.residual < 1e-10
        assert sol.hitting_agrees is False

    def test_symmetric_z_walk_not_transient(self):
        mu = GroupMeasure({F1.word("a"): Fraction(1, 2), F1.word("A"): Fraction(1, 2)}, 1)
        assert first_letter_hitting(mu) is None


class TestConditionalMeasures:
    def test_step_zero_returns_nu(self):
        om = sample_path(MU, 5, seed=1)
        cm = conditional_measure(NU, om, 0)
        assert cm.position.is_identity()
        assert cm.measure.mass(F2.word("a")) == NU.mass(F2.word("a"))

    def test_step_zero_reads_the_uniform_tail(self):
        # the identity step reads past the stored depth like every other step
        om = sample_path(MU, 2, seed=1)
        cm = conditional_measure(uniform_boundary_measure(F2, 2), om, 0, depth=3)
        assert cm.top_mass == 0.25
        assert cm.measure.depth == 3
        assert cm.measure.mass(F2.word("abb")) == Fraction(1, 36)

    def test_dirac_collapse_monte_carlo(self):
        hits = 0
        for s in range(100):
            om = sample_path(MU, 30, seed=1000 + s)
            cm = conditional_measure(NU, om, 30)
            if cm.top_mass > 0.9:
                hits += 1
        assert hits >= 95

    def test_disintegration_average(self):
        # E over paths of (omega_n nu)[w] equals nu[w] exactly by stationarity;
        # check the Monte-Carlo average within 3 standard errors
        n_paths = 2000
        words = [w for w in ball(F2, 2) if len(w) == 2]
        sums = {w: [] for w in words}
        for s in range(n_paths):
            om = sample_path(MU, 12, seed=50_000 + s)
            cm = conditional_measure(NU, om, 12, depth=2)
            for w in words:
                sums[w].append(float(cm.measure.mass(w)))
        for w in words:
            vals = np.array(sums[w])
            se = vals.std() / math.sqrt(n_paths)
            assert abs(vals.mean() - float(NU.mass(w))) <= 3 * se + 1e-12

    def test_strict_depth_enforced(self):
        strict = CylinderMeasure(dict(NU.cylinders()), 2, 6)
        om = sample_path(MU, 40, seed=9)
        if len(om.positions[40]) + 1 > 6:
            with pytest.raises(DepthUnderflowError):
                conditional_measure(strict, om, 40)


class TestBoundaryMap:
    def test_constant_increments(self):
        mu_a = GroupMeasure.dirac(F2.word("a"))
        om = sample_path(mu_a, 30, seed=1)
        bp = boundary_map(om)
        assert bp.prefix == F2.word("a" * bp.resolved_depth)
        assert bp.resolved_depth >= 20

    def test_resolution_rate(self):
        ok = 0
        for s in range(100):
            om = sample_path(MU, 200, seed=7000 + s)
            try:
                if boundary_map(om).resolved_depth >= 20:
                    ok += 1
            except UnresolvedBoundaryError:
                pass
        assert ok >= 99

    def test_equivariance_under_prepending(self):
        g = F2.word("ba")
        om = sample_path(MU, 150, seed=77)
        bp = boundary_map(om)
        shifted_positions = tuple([F2.identity] + [g * w for w in om.positions])
        om_shift = PathSample(om.seed, rank=2, increments=(g,) + om.increments)
        assert om_shift.positions == shifted_positions
        bp_shift = boundary_map(om_shift)
        moved = g * bp.prefix
        m = min(bp_shift.resolved_depth, len(moved)) - 2
        assert bp_shift.prefix.letters[:m] == moved.letters[:m]


def common_prefix_by_scan(tail):
    """The oracle: a letter-by-letter scan of every tuple."""
    first = tail[0]
    limit = min(len(t) for t in tail)
    lcp = 0
    while lcp < limit and all(t[lcp] == first[lcp] for t in tail):
        lcp += 1
    return lcp


@st.composite
def short_step_laws(draw):
    """Uniform laws on one to four words of length 0..3, on ranks 1..3."""
    rank = draw(st.integers(1, 3))
    letters = st.lists(st.integers(0, 2 * rank - 1), max_size=3)
    words = draw(st.lists(letters.map(lambda lt: Word(lt, rank)), min_size=1, max_size=4,
                          unique=True))
    return GroupMeasure.uniform_on(words)


@given(short_step_laws(), st.integers(0, 40), st.integers(0, 2**32))
def test_boundary_map_matches_the_scan(law, T, seed):
    # increments of length 2 and 3 cancel partly against the position, and
    # the identity step repeats it
    om = sample_path(law, T, seed)
    if T == 0:
        with pytest.raises(UnresolvedBoundaryError):
            boundary_map(om)
        return
    tail = [w.letters for w in om.positions[-(T // 3) - 1:]]
    lcp = common_prefix_by_scan(tail)
    if lcp == 0:
        with pytest.raises(UnresolvedBoundaryError):
            boundary_map(om)
    else:
        bp = boundary_map(om)
        assert (bp.resolved_depth, bp.prefix.letters) == (lcp, tail[0][:lcp])


class TestFixMass:
    def test_uniform_axis_bound(self):
        fm = fix_mass(F2.word("a"), NU, depth=5)
        assert fm.upper == float(2 * Fraction(1, 4 * 3**4))

    def test_shrinks_geometrically(self):
        uppers = [fix_mass(F2.word("ab"), NU, depth=d).upper for d in range(1, 7)]
        assert all(x > y for x, y in zip(uppers, uppers[1:]))
        assert all(abs(x / y - 3.0) < 1e-9 for x, y in zip(uppers[1:], uppers[2:]))

    def test_inverse_symmetric(self):
        for s in ("a", "ab", "Abb"):
            g = F2.word(s)
            assert fix_mass(g, NU, depth=6).upper == fix_mass(g.inverse(), NU, depth=6).upper

    def test_conjugation_covariance(self):
        # Fix(h g h^-1) = h Fix(g), so each axis cylinder of the conjugate,
        # pulled back through the translate, is exactly an axis cylinder of g:
        # (h nu)[prefix_d((h g h^-1)^inf)] = nu[reduce(h^-1 prefix)], and both
        # fix-mass brackets bound the same true mass nu(Fix(g)) = 0.
        from stationarylab.freegroup import axis_prefix, conjugate

        g, h = F2.word("ab"), F2.word("b")
        nu10 = uniform_boundary_measure(F2, 10)
        hnu = translate(h, nu10)
        conj = conjugate(g, h.inverse())  # h g h^-1
        for side in (conj, conj.inverse()):
            prefix = axis_prefix(side, 6)
            pulled = h.inverse() * prefix
            assert float(hnu.mass(prefix)) == float(nu10.mass(pulled))
        # both brackets certify the same vanishing fixed-point mass
        lhs = fix_mass(conj, hnu, depth=6)
        rhs = fix_mass(g, nu10, depth=6)
        assert lhs.lower == rhs.lower == 0.0
        assert lhs.upper < 1e-2 and rhs.upper < 1e-2
