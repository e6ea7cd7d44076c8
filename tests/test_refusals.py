"""Refusals of bad arguments that no other test reaches: each public call
raises its documented error, whose message names the bad argument."""

import re
from fractions import Fraction

import pytest

from stationarylab import algebra
from stationarylab.algebra import (
    AlgebraElement,
    UpperBound,
    certify_norm,
    convolve,
    norm_lower_bound,
)
from stationarylab.boundary import (
    conditional_measure,
    fix_mass,
    require_stationary,
    stationarity_residual,
    translate,
    uniform_boundary_measure,
)
from stationarylab.errors import (
    ContextMismatchError,
    DepthUnderflowError,
    MalformedInputError,
    PreconditionError,
    StationaryLabError,
    UndefinedAxisError,
)
from stationarylab.freegroup import FiniteQuotient, FreeGroupContext, axis_prefix, ball, conjugate
from stationarylab.states import (
    build_c_star_simple_measure,
    cesaro_test,
    finite_dim_stationary_states,
    powers_search,
)
from stationarylab.subgroups import (
    CyclicSubgroup,
    PositiveDefiniteFn,
    SubgroupChain,
    pdf_from_subgroup_sample,
    psd_check,
)
from stationarylab.walks import (
    GroupMeasure,
    cesaro_measure,
    convolve_measures,
    decay_schedule,
    measure_convolve_element,
    sample_increments,
    sample_path,
    uniform_generator_measure,
)

F2, F3 = FreeGroupContext(2), FreeGroupContext(3)
A2, A3 = F2.word("a"), F3.word("a")
MU2, MU3 = uniform_generator_measure(2), uniform_generator_measure(3)
NU2 = uniform_boundary_measure(F2, 2)
STRICT1 = translate(F2.identity, NU2, 1)
SWAP = FiniteQuotient(2, [[1, 0], [0, 1]])

REFUSALS = {
    "n_moments 0": (lambda: norm_lower_bound(AlgebraElement.delta(A2), 0),
                    MalformedInputError, "n_moments must be >= 1"),
    "boundary depth 0": (lambda: uniform_boundary_measure(F2, 0),
                         MalformedInputError, "depth must be >= 1"),
    # every rank match goes through freegroup._same_rank: one row a call site
    "element rank": (lambda: AlgebraElement({A3: 1}, 2), ContextMismatchError,
                     "rank mismatch: 3 vs 2"),
    "element sum rank": (lambda: AlgebraElement.delta(A2) + AlgebraElement.delta(A3),
                         ContextMismatchError, "rank mismatch: 2 vs 3"),
    "convolve rank": (lambda: convolve(AlgebraElement.delta(A2), AlgebraElement.delta(A3)),
                      ContextMismatchError, "rank mismatch: 2 vs 3"),
    "mass rank": (lambda: NU2.mass(A3), ContextMismatchError, "rank mismatch: 3 vs 2"),
    "translate rank": (lambda: translate(A3, NU2), ContextMismatchError, "rank mismatch: 3 vs 2"),
    "residual rank": (lambda: stationarity_residual(MU3, NU2), ContextMismatchError,
                      "rank mismatch: 3 vs 2"),
    "word product rank": (lambda: A2 * A3, ContextMismatchError, "rank mismatch: 2 vs 3"),
    "conjugate rank": (lambda: conjugate(A2, A3), ContextMismatchError, "rank mismatch: 2 vs 3"),
    "evaluate rank": (lambda: SWAP.evaluate(A3), ContextMismatchError, "rank mismatch: 3 vs 2"),
    "cesaro rank": (lambda: cesaro_test(AlgebraElement.delta(A3), MU2, 2),
                    ContextMismatchError, "rank mismatch: 2 vs 3"),
    "fdstates rank": (lambda: finite_dim_stationary_states(SWAP, MU3), ContextMismatchError,
                      "rank mismatch: 3 vs 2"),
    "simulate rank": (lambda: SubgroupChain.simulate(MU3, CyclicSubgroup(A2), 1, seed=0),
                      ContextMismatchError, "rank mismatch: 2 vs 3"),
    "pdf rank": (lambda: PositiveDefiniteFn({b"": Fraction(1)}, 1, 2)(A3),
                 ContextMismatchError, "rank mismatch: 3 vs 2"),
    "pdf sample rank": (lambda: pdf_from_subgroup_sample([CyclicSubgroup(A2), CyclicSubgroup(A3)],
                                                         [0.5, 0.5], 2),
                        ContextMismatchError, "rank mismatch: 3 vs 2"),
    "psd rank": (lambda: psd_check(PositiveDefiniteFn({b"": Fraction(1)}, 1, 2), [[A2, A3]]),
                 ContextMismatchError, "rank mismatch: 3 vs 2"),
    "measure rank": (lambda: GroupMeasure({A3: 1}, 2), ContextMismatchError,
                     "rank mismatch: 3 vs 2"),
    "measure mass rank": (lambda: MU2.mass(A3), ContextMismatchError, "rank mismatch: 3 vs 2"),
    "convolve_measures rank": (lambda: convolve_measures(MU2, MU3), ContextMismatchError,
                               "rank mismatch: 2 vs 3"),
    "measure_convolve_element rank": (
        lambda: measure_convolve_element(MU2, AlgebraElement.delta(A3)),
        ContextMismatchError, "rank mismatch: 2 vs 3"),
    "residual depth 0": (lambda: stationarity_residual(MU2, NU2, 0), MalformedInputError,
                         "depth must be >= 1, got 0"),
    # a strict depth-1 table: the default depth 1 - L is below 1
    "residual strict table": (lambda: stationarity_residual(MU2, STRICT1), DepthUnderflowError,
                              "operation requires cylinder depth 2, measure stores depth 1"),
    "stationary strict table": (lambda: require_stationary(MU2, STRICT1), DepthUnderflowError,
                                "operation requires cylinder depth 2, measure stores depth 1"),
    "conditional step": (lambda: conditional_measure(NU2, sample_path(MU2, 3, seed=1), 4),
                         MalformedInputError, "step 4 outside the sampled path"),
    # an explicit output depth below 1 names itself, not a depth nu stores
    "translate out_depth 0": (lambda: translate(A2, NU2, out_depth=0), MalformedInputError,
                              "out_depth must be >= 1, got 0"),
    "translate out_depth -3": (lambda: translate(A2, STRICT1, out_depth=-3),
                               MalformedInputError, "out_depth must be >= 1, got -3"),
    "conditional depth 0": (
        lambda: conditional_measure(NU2, sample_path(MU2, 3, seed=1), 1, depth=0),
        MalformedInputError, "out_depth must be >= 1, got 0"),
    "fix_mass identity": (lambda: fix_mass(F2.identity, NU2, 1), UndefinedAxisError,
                          "the identity fixes every point"),
    "generator index": (lambda: F2.generator(3), MalformedInputError,
                        "generator index 3 out of rank 2"),
    "negative radius": (lambda: list(ball(F2, -1)), MalformedInputError,
                        "radius must be >= 0, got -1"),
    "negative depth": (lambda: axis_prefix(A2, -1), MalformedInputError,
                       "depth must be >= 0, got -1"),
    "string past rank 26": (lambda: str(FreeGroupContext(27).generator(1)),
                            MalformedInputError, "string form supports rank <= 26"),
    "powers epsilon 0": (lambda: powers_search(A2, 0), PreconditionError,
                         "epsilon must be positive, got 0"),
    "powers strategy": (lambda: powers_search(A2, 0.5, strategy="spiral"),
                        MalformedInputError, "unknown strategy 'spiral'"),
    "powers budget 0": (lambda: powers_search(A2, 0.5, budget=0), MalformedInputError,
                        "budget must be >= 1, got 0"),
    "empty family": (lambda: build_c_star_simple_measure([], 1), PreconditionError,
                     "the test family must be nonempty"),
    "build levels 0": (lambda: build_c_star_simple_measure([AlgebraElement.delta(A2)], 0),
                       MalformedInputError, "levels must be >= 1, got 0"),
    "build budget 0": (
        lambda: build_c_star_simple_measure([AlgebraElement.delta(A2)], 1, budget=0),
        MalformedInputError, "budget must be >= 1, got 0"),
    "cesaro_measure 0": (lambda: cesaro_measure(MU2, 0), MalformedInputError,
                         "n must be >= 1, got 0"),
    "negative length": (lambda: sample_increments(MU2, -1, 0), MalformedInputError,
                        "length must be >= 0, got -1"),
    "decay_schedule 0": (lambda: decay_schedule(0), PreconditionError,
                         "k_max must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_bad_arguments_are_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_an_inverted_bracket_raises_naming_the_element(monkeypatch):
    # both sides are rounded outward, so only a fault could cross them: an
    # upper bound forced below the lower one stands in for it
    x = AlgebraElement({A2: 2, F2.word("B"): Fraction(1, 3)}, 2)
    assert repr(x) == "AlgebraElement({a: 6+0j, B: 1+0j} / 3, rank=2)"
    monkeypatch.setattr(algebra, "norm_upper_bound", lambda x: UpperBound(0.5, "l1"))
    with pytest.raises(StationaryLabError, match=re.escape(f"] on {x!r}")):
        certify_norm(x, 2)
