"""Certifying unique stationarity of the canonical trace.

Three escalating tools: the Cesaro decay test (necessary evidence for unique
stationarity of the trace under a fixed law), the Powers search (conjugators
averaging one unitary below a target), and the staged builder, which
assembles a single law whose convolution powers drive every test element to
its trace with certified bounds at exactly the scheduled exponents.
"""

from fractions import Fraction

from stationarylab import (
    AlgebraElement,
    FiniteQuotient,
    FreeGroupContext,
    GroupMeasure,
    ball,
    build_c_star_simple_measure,
    cesaro_test,
    decay_schedule,
    finite_dim_stationary_states,
    powers_search,
    uniform_generator_measure,
)

F2 = FreeGroupContext(2)

# --- Cesaro decay of ||mu_n * a - tau0(a) 1|| ----------------------------------
mu = GroupMeasure({F2.identity: Fraction(1, 2), F2.word("b"): Fraction(1, 2)}, 2)
rep = cesaro_test(AlgebraElement.delta(F2.word("a")), mu, n_max=24)
print("cesaro uppers at n = 1, 4, 8, 16, 24:",
      [round(rep.rows[n - 1].upper, 4) for n in (1, 4, 8, 16, 24)])
print("verdict:", rep.verdict)

# --- Powers search -------------------------------------------------------------
cert = powers_search(F2.word("a"), epsilon=0.75, strategy="geometric", budget=16)
print(f"\nPowers certificate: n = {cert.n}, bound {cert.upper_bound:.4f} < 0.75")
print("conjugators:", " ".join(str(h) for h in cert.conjugators))

# --- the staged builder ---------------------------------------------------------
print("\nexponent schedule (1 - 2^-k)^(n_k) < 2^-k:", decay_schedule(4))
family = [AlgebraElement.delta(w) for w in ball(F2, 1)]
build = build_c_star_simple_measure(family, levels=2)
print(f"built law with {len(build.measure.masses)} atoms,"
      f" tail bound {build.tail_bound}")
worst = max(c.upper_bound / c.epsilon for c in build.level_certificates)
print(f"level certificates: {len(build.level_certificates)},"
      f" worst ratio to epsilon {worst:.3f}")
for check in build.final_checks:
    print(f"  ||mu^{check.n_j} * {check.element_id} - trace||"
          f" <= {check.upper_bound:.4f} < {check.threshold}")

# --- stationary states in finite dimension --------------------------------------
rep_s3 = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])
states = finite_dim_stationary_states(rep_s3, uniform_generator_measure(2))
print(f"\nS3 regular representation: {len(states)} independent stationary densities")
print("(stationary = invariant here: the channel averages unitary conjugations)")
