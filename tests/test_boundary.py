import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stationarylab import boundary
from stationarylab.boundary import (
    CylinderMeasure,
    _compile_gathers,
    _harmonic_measure,
    _mass_recipe,
    _uniform_vector,
    boundary_map,
    conditional_measure,
    fix_mass,
    require_stationary,
    solve_stationary,
    stationarity_residual,
    translate,
    uniform_boundary_measure,
)
from stationarylab.errors import (
    ConvergenceError,
    DepthUnderflowError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
    UnresolvedBoundaryError,
)
from stationarylab.freegroup import (
    FreeGroupContext,
    Word,
    _ball_size,
    _check_ball,
    ball,
    ball_letters,
    length_lex,
)
from stationarylab.walks import (
    GroupMeasure,
    PathSample,
    sample_path,
    uniform_generator_measure,
)

from laws import short_step_laws

F2 = FreeGroupContext(2)
F1 = FreeGroupContext(1)
MU = uniform_generator_measure(2)
NU = uniform_boundary_measure(F2, 6)


def level_items(nu, n):
    """(w, nu[w]) for every word w of length n."""
    return [(w, nu.mass(w)) for w in ball(FreeGroupContext(nu.rank), n) if len(w) == n]


class TestUniformMeasure:
    def test_level_one_mass(self):
        assert NU.mass(F2.word("a")) == Fraction(1, 4)

    def test_level_two_mass(self):
        assert NU.mass(F2.word("ab")) == Fraction(1, 12)

    def test_every_level_sums_to_one(self):
        for n in range(1, 7):
            assert sum(m for _, m in level_items(NU, n)) == 1

    def test_consistency(self):
        for w, m in NU.cylinders():
            if len(w) < NU.depth:
                kids = sum(
                    NU.mass(F2.word(str(w) + "") * s)
                    for s in F2.generators()
                    if str(s).swapcase() != str(w)[-1]
                )
                assert kids == m

    def test_closed_form_past_the_table(self):
        w = F2.word("a" * 10)
        assert NU.mass(w) == Fraction(1, 4 * 3**9)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_closed_form_at_every_depth(self, rank):
        # the table and the reads past it agree with 1/(2k (2k-1)^(n-1))
        ctx = FreeGroupContext(rank)
        nu = uniform_boundary_measure(ctx, 2)
        for w in ball(ctx, 5):
            n = len(w)
            closed = Fraction(1, 2 * rank * (2 * rank - 1) ** (n - 1)) if n else 1
            assert nu.mass(w) == closed
            if 1 <= n <= 2:
                assert nu.masses[w.letters] == closed

    def test_strict_measure_raises_beyond_depth(self):
        strict = translate(F2.identity, NU)
        with pytest.raises(DepthUnderflowError):
            strict.mass(F2.word("a" * 7))


class TestTables:
    def test_table_is_keyed_by_letters(self):
        assert NU.masses[F2.word("ab").letters] == Fraction(1, 12)
        assert all(isinstance(w, bytes) for w in NU.masses)
        assert dict(NU.cylinders()) == {w: NU.mass(w) for w in ball(F2, 6) if len(w)}

    def test_only_the_library_builds_tables(self):
        for args in [({}, 2, 1), ()]:
            with pytest.raises(TypeError, match="built by the library"):
                CylinderMeasure(*args)


class TestTranslate:
    def test_identity_translate(self):
        # the same Fractions, strict at the same depth: the strict copy below
        t = translate(F2.identity, NU)
        assert all(t.mass(w) == NU.mass(w) for w in ball(F2, 3))
        assert t.masses == NU.masses and (t.depth, t.every_depth) == (6, False)

    def test_prefix_case(self):
        t = translate(F2.word("a"), NU)
        assert t.mass(F2.word("ab")) == NU.mass(F2.word("b"))

    def test_complement_case(self):
        # (a nu)[a] = 1 - nu[a^-1], cross-checked by the full preimage
        # decomposition at depth 2: a^-1[a] covers all level-2 cylinders
        # not starting with a^-1
        t = translate(F2.word("a"), NU)
        direct = t.mass(F2.word("a"))
        oracle = sum(m for w, m in level_items(NU, 2) if str(w)[0] != "A")
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
            assert abs(float(sum(m for _, m in level_items(t, n))) - 1) < 1e-12

    @pytest.mark.parametrize("g", ["1", "a", "abA"])
    def test_translates_of_the_uniform_measure_are_strict(self, g):
        # the uniform measure reads every depth; its translate stops at out_depth
        t = translate(F2.word(g), uniform_boundary_measure(F2, 1), out_depth=3)
        assert t.depth == 3
        t.mass(F2.word("abb"))
        with pytest.raises(DepthUnderflowError):
            t.mass(F2.word("abba"))

    def test_depth_bookkeeping(self):
        strict = translate(F2.identity, NU)
        t = translate(F2.word("ab"), strict)
        assert t.depth == 4
        with pytest.raises(DepthUnderflowError):
            translate(F2.word("a" * 6), strict)


class TestStationarity:
    def test_uniform_pair_exactly_stationary(self):
        residual = stationarity_residual(MU, NU)
        assert type(residual) is Fraction and residual == 0

    def test_residual_is_exact(self):
        # the uniform measure under a length-2 law: the level-1 masses move by 7/36
        law = GroupMeasure.uniform_on([F2.word(w) for w in ("a", "B", "ab", "bA")])
        assert stationarity_residual(law, NU) == Fraction(7, 36)

    def test_the_check_reads_past_level_one(self):
        # this law keeps every level-1 mass, so a check that stopped at the
        # one level of nu's table would pass it
        law = GroupMeasure.uniform_on([F2.word(w) for w in ("aa", "AA", "ba", "Ba")])
        nu = uniform_boundary_measure(F2, 1)
        assert stationarity_residual(law, nu) == 0
        with pytest.raises(PreconditionError, match=r"residual 1/9 .* up to depth 3"):
            require_stationary(law, nu)
        require_stationary(MU, nu)  # the simple walk passes

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
            table[w.letters] = base / 3 ** (len(w) - 1)
        bad = CylinderMeasure._new(2, 3, table)
        assert stationarity_residual(MU, bad) > 0.1


class TestSolveStationary:
    def test_residual_covers_the_certified_words(self, monkeypatch):
        # one step from the uniform measure, rebuilt from translates at the
        # working depth W = 5: the residual covers the words up to W - L = 3,
        # and for this law it peaks below the returned depth 1
        law = GroupMeasure.uniform_on([F2.word(w) for w in ("a", "B", "ab", "bA")])
        seed = uniform_boundary_measure(F2, 1)
        moved = [(float(p), translate(g, seed, out_depth=5)) for g, p in law.atoms()]
        step = CylinderMeasure._new(
            2, 5, {w.letters: sum(p * t.mass(w) for p, t in moved) for w in ball(F2, 5) if w}
        )
        monkeypatch.setattr(boundary, "TRUNCATED_TOL", 1.0)
        monkeypatch.setattr(boundary, "TRUNCATED_MAX_ITER", 1)
        sol = solve_stationary(law, depth=1)
        assert sol.residual == pytest.approx(stationarity_residual(law, step), abs=1e-15)
        assert sol.residual > stationarity_residual(law, step, depth=1) + 0.01

    def test_no_convergence_carries_the_last_residual(self, monkeypatch):
        law = GroupMeasure.uniform_on([F2.word(w) for w in ("a", "B", "ab", "bA")])
        monkeypatch.setattr(boundary, "TRUNCATED_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"last residual: 5\.813e-02") as info:
            solve_stationary(law, depth=2)
        assert 0.0581 < info.value.last_residual < 0.0582

    def test_depth_below_one_rejected(self):
        with pytest.raises(MalformedInputError):
            solve_stationary(MU, depth=0)

    def test_non_generating_rejected(self):
        lazy = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        with pytest.raises(PreconditionError):
            solve_stationary(lazy, depth=3)

    def test_output_satisfies_invariants(self):
        sol = solve_stationary(MU, depth=3)
        meas = sol.measure
        for n in range(1, meas.depth + 1):
            assert abs(float(sum(m for _, m in level_items(meas, n))) - 1) < 1e-9
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
        # on the two-point boundary of Z every measure is stationary; the
        # harmonic measure is the one the walk reaches: w = 1/2, u(a) = 1,
        # u(A) = 1/3, so q(a) = 1 and q(A) = 0.  At the bracket's upper end
        # u(a) falls short of 1 by about 2^-64, and so q(A) exceeds 0
        mu = GroupMeasure({F1.word("a"): Fraction(3, 4), F1.word("A"): Fraction(1, 4)}, 1)
        sol = solve_stationary(mu, depth=3)
        assert (sol.iterations, sol.residual, sol.hitting_agrees) == (0, None, True)
        masses = {str(w): m for w, m in sol.measure.cylinders()}
        assert [masses[w] for w in ("a", "aa", "aaa")] == [1.0] * 3
        assert [masses[w] for w in ("A", "AA", "AAA")] == pytest.approx([0.0] * 3, abs=1e-19)
        assert masses["A"] > masses["AA"] > masses["AAA"] > 0

    def test_symmetric_z_walk_not_transient(self):
        # the walk on one <a_i> = Z, symmetric and lazy or not, is recurrent
        # in every rank: the exact rule refuses it before any root is sought
        for rank, i, e0 in itertools.product((1, 2, 3), (1, 2, 3), (0, Fraction(1, 3))):
            if i > rank:
                continue
            ctx = FreeGroupContext(rank)
            g = ctx.generator(i, 1)
            mu = GroupMeasure({ctx.identity: e0, g: (1 - e0) / 2, g.inverse(): (1 - e0) / 2},
                              rank)
            start = time.perf_counter()
            assert _harmonic_measure(mu, 1) is None
            assert time.perf_counter() - start < 0.1


def _nearest_neighbour_law(rank, masses, e0=0):
    """The law with the given masses on a, A, b, B, ... and e0 on the identity."""
    ctx = FreeGroupContext(rank)
    return GroupMeasure({ctx.identity: Fraction(e0), **{
        s: Fraction(m) for s, m in zip(ctx.generators(), masses)}}, rank)


def _hitting_oracle(mu):
    """u(s) and q(s) at 50 digits, by letter string, from a solve of the
    first-step system u(s) = mu(s) + e0 u(s) + sum_{t != s} mu(t) u(t^-1) u(s)
    for the probability u(s) of ever hitting s, by monotone iteration from 0;
    then q(s) = mu(s) (1 - u(s^-1)) / (1 - e0 - sum_t mu(t) u(t^-1)).  It
    shares nothing with the convex root that the solver bisects."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        p = {str(w): mpmath.mpf(m.numerator) / m.denominator for w, m in mu.atoms()}
        e0 = p.pop(str(FreeGroupContext(mu.rank).identity), mpmath.mpf(0))
        u = dict.fromkeys(p, mpmath.mpf(0))
        while True:
            nxt = {s: p[s] + e0 * u[s]
                   + u[s] * sum(p[t] * u.get(t.swapcase(), 0) for t in p if t != s) for s in p}
            step = max(abs(nxt[s] - u[s]) for s in p)
            u = nxt
            if step < mpmath.mpf(10) ** -45:
                break
        denom = 1 - e0 - sum(p[t] * u.get(t.swapcase(), 0) for t in p)
        q = {s: p[s] * (1 - u.get(s.swapcase(), 0)) / denom for s in p}
    return u, q


def _oracle_masses(mu, depth) -> dict[str, float]:
    """Every cylinder mass u(x1) ... u(x_{n-1}) q(xn) up to depth, formed at
    50 digits from `_hitting_oracle` and rounded once: the exact binary value
    of each mpf, rounded by Fraction."""
    mpmath = pytest.importorskip("mpmath")
    u, q = _hitting_oracle(mu)
    masses = {}
    with mpmath.workdps(50):
        for w in map(str, ball(FreeGroupContext(mu.rank), depth)):
            if w != "1":
                v = mpmath.fprod([u[x] for x in w[:-1]]) * q[w[-1]]
                masses[w] = float(Fraction(int(v.man)) * Fraction(2) ** int(v.exp))
    return masses


def _masses(mu, depth) -> dict[str, float]:
    return {str(w): m for w, m in solve_stationary(mu, depth).measure.cylinders()}


@st.composite
def _nearest_neighbour_laws(draw):
    """A law of rank 1..3 on the letters and the identity, integer weights
    0..6 with a positive total, some of them drawn symmetric on their pair."""
    rank = draw(st.integers(1, 3))
    weights = []
    for _ in range(rank):
        n = draw(st.integers(0, 6))
        weights += [n, n if draw(st.booleans()) else draw(st.integers(0, 6))]
    e0 = draw(st.integers(0, 6))
    total = sum(weights) + e0
    assume(total > 0)
    return _nearest_neighbour_law(rank, [Fraction(n, total) for n in weights],
                                  Fraction(e0, total))


ORACLE_LAWS = {
    "defect": ((2, ("2/5", "1/10", "3/10", "1/5"), 0), 4),  # the README's defect law
    "rank3": ((3, ("1/3", "1/6", "1/12", "1/12", "1/4", "1/12"), 0), 3),
    "lazy": ((2, ("2/5", "1/10", "1/5", "1/5"), "1/10"), 4),
}


class TestFirstLetterHitting:
    @pytest.mark.parametrize("case", sorted(ORACLE_LAWS))
    def test_every_value_is_the_oracle_correctly_rounded(self, case):
        mu = _nearest_neighbour_law(*ORACLE_LAWS[case][0])
        assert _masses(mu, 1) == _oracle_masses(mu, 1)

    @pytest.mark.parametrize("case", sorted(ORACLE_LAWS))
    def test_every_mass_is_the_oracle_product_correctly_rounded(self, case):
        law, depth = ORACLE_LAWS[case]
        mu = _nearest_neighbour_law(*law)
        sol = solve_stationary(mu, depth)
        assert (sol.iterations, sol.residual, sol.hitting_agrees) == (0, None, True)
        assert _masses(mu, depth) == _oracle_masses(mu, depth)

    def test_the_simple_walk_reads_the_uniform_masses_exactly(self):
        masses = _masses(MU, 6)
        assert len(masses) == 1456
        assert all(m == float(Fraction(1, 4 * 3 ** (len(w) - 1))) for w, m in masses.items())

    def test_two_letters_without_inverses_split_evenly(self):
        # the law generates no inverse, so the solver refuses it; its root
        # still splits the first letter evenly
        mu = GroupMeasure({F2.word("a"): Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
        masses = {str(w): m for w, m in _harmonic_measure(mu, 1).cylinders()}
        assert masses == {"a": 0.5, "A": 0.0, "b": 0.5, "B": 0.0}

    def test_the_lazy_simple_walk_has_the_simple_walks_masses(self):
        lazy = _nearest_neighbour_law(2, ["1/5"] * 4, "1/5")
        assert _masses(lazy, 3) == _masses(MU, 3)
        assert _masses(lazy, 1) == dict.fromkeys("aAbB", 0.25)

    def test_a_near_recurrent_law_is_resolved_at_once(self):
        # 1e-9 on each of b and B: w is tiny, yet bisection over integers
        # needs no more steps than for any other law of this denominator
        eps = Fraction(1, 10**9)
        mu = _nearest_neighbour_law(2, ((1 - 2 * eps) / 2, (1 - 2 * eps) / 2, eps, eps))
        start = time.perf_counter()
        q = _masses(mu, 1)
        assert time.perf_counter() - start < 0.05
        assert abs(sum(q.values()) - 1) < 1e-12 and min(q.values()) > 0

    @settings(max_examples=150)
    @given(_nearest_neighbour_laws())
    def test_none_exactly_for_recurrent_laws(self, mu):
        masses = [mu.mass(s) for s in FreeGroupContext(mu.rank).generators()]
        pairs = list(zip(masses[::2], masses[1::2]))
        recurrent = all(p == r for p, r in pairs) and sum(p > 0 for p, _ in pairs) <= 1
        nu = _harmonic_measure(mu, 1)
        assert (nu is None) == recurrent
        if nu is not None:
            assert min(nu.masses.values()) >= 0
            assert abs(sum(nu.masses.values()) - 1) < 1e-12


# the law of the length-2 boundary-solve bench job, 1/4 on each word
LENGTH2 = GroupMeasure.uniform_on([F2.word(w) for w in ("a", "B", "ab", "bA")])

SOLVE_LAWS = {
    "simple2": MU,
    "simple3": uniform_generator_measure(3),
    "defect": _nearest_neighbour_law(2, ("2/5", "1/10", "3/10", "1/5")),
    "lazy": _nearest_neighbour_law(2, ("2/5", "1/10", "1/5", "1/5"), "1/10"),
    "length2": LENGTH2,
}

LIBRARY_TABLES = [
    *(("uniform", rank) for rank in (1, 2, 3)),
    *(("translate", g) for g in ("1", "a", "abA")),
    *(("solve", law, depth) for law in SOLVE_LAWS for depth in (3, 4, 5)),
]


@pytest.mark.parametrize("case", LIBRARY_TABLES, ids=lambda c: "-".join(map(str, c)))
def test_every_library_table_is_consistent(case):
    # masses >= 0, level-1 sum 1 and each mass the sum of its 2k - 1
    # children: exactly on the Fraction tables, within 1e-15 by fsum on the
    # float solves
    kind, *args = case
    if kind == "uniform":
        nu = uniform_boundary_measure(FreeGroupContext(args[0]), 4)
    elif kind == "translate":
        nu = translate(F2.word(args[0]), NU)
    else:
        nu = solve_stationary(SOLVE_LAWS[args[0]], args[1]).measure
    total, tol = (math.fsum, 1e-15) if kind == "solve" else (sum, 0)
    masses = nu.masses
    assert len(masses) == _ball_size(nu.rank, nu.depth) - 1
    assert all(type(m) is (float if kind == "solve" else Fraction) for m in masses.values())
    assert min(masses.values()) >= 0
    assert abs(total(masses[bytes((c,))] for c in range(2 * nu.rank)) - 1) <= tol
    for w, m in masses.items():
        if len(w) < nu.depth:
            kids = [masses[w + bytes((c,))] for c in range(2 * nu.rank) if c != w[-1] ^ 1]
            assert len(kids) == 2 * nu.rank - 1
            assert abs(total(kids) - m) <= tol


def _per_word_gathers(mu, W):
    """The transfer operator compiled one word at a time: the reference for
    `_compile_gathers`, which builds the same arrays one level at a time."""
    q = 2 * mu.rank - 1
    words = [w for w in ball_letters(mu.rank, W) if w]
    index = {w: i for i, w in enumerate(words)}
    gathers = []
    for g, p in length_lex(mu.masses):
        recipes = [_mass_recipe(g, w) for w in words]
        comp = np.array([c for c, _ in recipes], dtype=bool)
        idx = np.array([index[key[:W]] for _, key in recipes], dtype=np.int64)
        split = np.array([1.0 / q ** max(len(key) - W, 0) for _, key in recipes])
        gathers.append((float(p), idx, np.where(comp, -split, split), comp.astype(np.float64)))
    return gathers


def _per_word_uniform(rank, W):
    """The uniform measure's masses on the nonempty words of the ball of
    radius W, read one word at a time off its closed form."""
    nu = uniform_boundary_measure(FreeGroupContext(rank), 1)
    return np.array([float(nu._mass(w)) for w in ball_letters(rank, W) if w], dtype=np.float64)


def _assert_same_gathers(mu, W):
    fast, slow = _compile_gathers(mu, W), _per_word_gathers(mu, W)
    assert len(fast) == len(slow)
    for (p, idx, coef, const), (p0, idx0, coef0, const0) in zip(fast, slow):
        assert p == p0
        assert idx.dtype == idx0.dtype and np.array_equal(idx, idx0)
        assert coef.tobytes() == coef0.tobytes()
        assert const.tobytes() == const0.tobytes()


def _signed_permutations(rank):
    """Every map of letter codes that permutes the generators and flips some of them."""
    for perm in itertools.permutations(range(rank)):
        for flips in itertools.product((0, 1), repeat=rank):
            yield lambda c, perm=perm, flips=flips: 2 * perm[c >> 1] + ((c & 1) ^ flips[c >> 1])


@st.composite
def _generating_laws(draw):
    """A generating law of rank 1..3 on words of length <= 3, and a working
    radius whose ball holds about a thousand words at most."""
    rank = draw(st.integers(1, 3))
    words = draw(st.lists(st.lists(st.integers(0, 2 * rank - 1), max_size=3),
                          min_size=1, max_size=5))
    # every generator in both signs, so the law generates whatever else it holds
    atoms = {s: draw(st.integers(1, 5)) for s in FreeGroupContext(rank).generators()}
    for letters in words:
        w = Word(letters, rank)
        atoms[w] = atoms.get(w, 0) + draw(st.integers(1, 5))
    total = sum(atoms.values())
    mu = GroupMeasure({w: Fraction(m, total) for w, m in atoms.items()}, rank)
    return mu, draw(st.integers(1, {1: 10, 2: 6, 3: 4}[rank]))


class TestLevelCompile:
    """The level-by-level compile equals the per-word one bit for bit, so the
    iteration sums the same floats in the same order."""

    @pytest.mark.parametrize("law", ["uniform", "length2"])
    def test_bench_laws_under_signed_permutations(self, law):
        mu, depth = (MU, 6) if law == "uniform" else (LENGTH2, 4)
        W = depth + 2 * mu.max_support_length()
        for relabel in _signed_permutations(2):
            moved = GroupMeasure(
                {Word([relabel(c) for c in g], 2): p for g, p in mu.masses.items()}, 2)
            _assert_same_gathers(moved, W)

    @given(_generating_laws())
    @settings(max_examples=40)
    def test_random_generating_laws(self, law_and_radius):
        _assert_same_gathers(*law_and_radius)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_uniform_start(self, rank):
        for W in range(1, {1: 12, 2: 9, 3: 6}[rank]):
            assert _uniform_vector(rank, W).tobytes() == _per_word_uniform(rank, W).tobytes()

    def test_mass_recipe_runs_only_on_the_children_of_prefixes(self, monkeypatch):
        # each atom g reads the recipe on the children of its |g| + 1
        # prefixes, at most 2k each, whatever the depth
        calls = []

        def counted(g, w):
            calls.append(g)
            return _mass_recipe(g, w)

        monkeypatch.setattr(boundary, "_mass_recipe", counted)
        counts = []
        for depth in (3, 6):
            calls.clear()
            solve_stationary(LENGTH2, depth)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= sum((len(g) + 1) * 4 for g in LENGTH2.masses)

    def test_working_ball_past_the_cap_raises_before_compiling(self, monkeypatch):
        # the output ball of radius 8 is under the cap; the working ball of
        # radius W = 8 + 2 * 2 = 12 holds 1,062,881 words of up to 13 letters, over it
        _check_ball(2, 8)

        def compile_must_not_run(mu, W):
            raise AssertionError("the operator was compiled past the cap")

        monkeypatch.setattr(boundary, "_compile_gathers", compile_must_not_run)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="radius 12"):
            solve_stationary(LENGTH2, depth=8)
        assert time.perf_counter() - start < 1


class TestConditionalMeasures:
    def test_step_zero_returns_nu(self):
        om = sample_path(MU, 5, seed=1)
        assert om.positions[0].is_identity()
        cm = conditional_measure(NU, om, 0)
        assert cm.mass(F2.word("a")) == NU.mass(F2.word("a"))

    def test_step_zero_reads_the_closed_form(self):
        # the identity step reads past the stored depth like every other step
        om = sample_path(MU, 2, seed=1)
        cm = conditional_measure(uniform_boundary_measure(F2, 2), om, 0, depth=3)
        assert cm.top_mass() == 0.25
        assert cm.depth == 3
        assert cm.mass(F2.word("abb")) == Fraction(1, 36)

    def test_dirac_collapse_monte_carlo(self):
        hits = 0
        for s in range(100):
            om = sample_path(MU, 30, seed=1000 + s)
            cm = conditional_measure(NU, om, 30)
            if cm.top_mass() > 0.9:
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
                sums[w].append(float(cm.mass(w)))
        for w in words:
            vals = np.array(sums[w])
            se = vals.std() / math.sqrt(n_paths)
            assert abs(vals.mean() - float(NU.mass(w))) <= 3 * se + 1e-12

    def test_strict_depth_enforced(self):
        strict = translate(F2.identity, NU)
        om = sample_path(MU, 40, seed=9)
        if len(om.positions[40]) + 1 > 6:
            with pytest.raises(DepthUnderflowError):
                conditional_measure(strict, om, 40)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_reads_match_the_translate(self, depth):
        # a path of 3 steps stays within the 6 levels of the strict copy
        strict = translate(F2.identity, NU)
        for nu in (NU, strict):
            for seed in range(4):
                om = sample_path(MU, 3, seed=seed)
                for step in range(4):
                    cm = conditional_measure(nu, om, step, depth)
                    table = translate(om.positions[step], nu, out_depth=depth)
                    assert type(cm) is CylinderMeasure and cm.depth == depth
                    assert cm.top_mass() == table.top_mass()
                    assert list(cm.masses.items()) == list(table.masses.items())

    def test_checks_run_at_the_call(self):
        strict = translate(F2.identity, uniform_boundary_measure(F2, 4))
        om = sample_path(MU, 5, seed=2)
        step = next(i for i, w in enumerate(om.positions) if len(w) == 2)
        # |w| + depth = 5 levels of a 4-level table
        with pytest.raises(DepthUnderflowError):
            conditional_measure(strict, om, step, depth=3)
        with pytest.raises(ResourceLimitError):
            conditional_measure(NU, om, 0, depth=30)


class TestBoundaryMap:
    def test_constant_increments(self):
        mu_a = GroupMeasure.dirac(F2.word("a"))
        om = sample_path(mu_a, 30, seed=1)
        prefix = boundary_map(om)
        assert prefix == F2.word("a" * len(prefix))
        assert len(prefix) >= 20

    def test_resolution_rate(self):
        ok = 0
        for s in range(100):
            om = sample_path(MU, 200, seed=7000 + s)
            try:
                if len(boundary_map(om)) >= 20:
                    ok += 1
            except UnresolvedBoundaryError:
                pass
        assert ok >= 99

    def test_equivariance_under_prepending(self):
        g = F2.word("ba")
        om = sample_path(MU, 150, seed=77)
        prefix = boundary_map(om)
        shifted_positions = tuple([F2.identity] + [g * w for w in om.positions])
        om_shift = PathSample(om.seed, rank=2, increments=(g,) + om.increments)
        assert om_shift.positions == shifted_positions
        shifted = boundary_map(om_shift)
        moved = g * prefix
        m = min(len(shifted), len(moved)) - 2
        assert shifted.letters[:m] == moved.letters[:m]


def common_prefix_by_scan(tail):
    """The oracle: a letter-by-letter scan of every tuple."""
    first = tail[0]
    limit = min(len(t) for t in tail)
    lcp = 0
    while lcp < limit and all(t[lcp] == first[lcp] for t in tail):
        lcp += 1
    return lcp


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
        assert boundary_map(om).letters == tail[0][:lcp]


@given(short_step_laws())
@settings(max_examples=30, deadline=None)
def test_uniform_residual_is_decided_at_depth_L_plus_1(law):
    # below depth L + 1 the residual at w is that at its (L+1)-prefix times
    # nu[w] / nu[prefix], so no deeper level raises the maximum
    L = law.max_support_length()
    assume(law.rank < 3 or L < 3)
    nu = uniform_boundary_measure(FreeGroupContext(law.rank), 1)
    assert stationarity_residual(law, nu, L + 1) == stationarity_residual(law, nu, L + 2)


class TestFixMass:
    def test_uniform_axis_bound(self):
        # the exact mass 1/162 rounds down to nearest; the bound rounds up
        upper = fix_mass(F2.word("a"), NU, depth=5)
        exact = 2 * Fraction(1, 4 * 3**4)
        assert Fraction(upper) >= exact > Fraction(math.nextafter(upper, 0))

    def test_shrinks_geometrically(self):
        uppers = [fix_mass(F2.word("ab"), NU, depth=d) for d in range(1, 7)]
        assert all(x > y for x, y in zip(uppers, uppers[1:]))
        assert all(abs(x / y - 3.0) < 1e-9 for x, y in zip(uppers[1:], uppers[2:]))

    def test_inverse_symmetric(self):
        for s in ("a", "ab", "Abb"):
            g = F2.word(s)
            assert fix_mass(g, NU, depth=6) == fix_mass(g.inverse(), NU, depth=6)

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
        assert fix_mass(conj, hnu, depth=6) < 1e-2 and fix_mass(g, nu10, depth=6) < 1e-2
