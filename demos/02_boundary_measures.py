"""Cylinder measures on the boundary of F_2: stationarity, solving, collapse.

The boundary of F_2 is the space of infinite reduced words; a measure is
stored through its masses on cylinders [w].  The uniform measure assigns
1/(4 * 3^(n-1)) to every level-n cylinder and is the unique stationary
measure of the simple random walk; translating it along a long random-walk
position squeezes it onto a single boundary point.
"""

from stationarylab import (
    FreeGroupContext,
    GroupMeasure,
    boundary_map,
    conditional_measure,
    sample_path,
    solve_stationary,
    stationarity_residual,
    uniform_boundary_measure,
    uniform_generator_measure,
)

F2 = FreeGroupContext(2)
mu = uniform_generator_measure(2)
nu = uniform_boundary_measure(F2, 6)

print("nu[a]  =", nu.mass(F2.word("a")))
print("nu[ab] =", nu.mass(F2.word("ab")))
print("stationarity residual of (mu, nu):", stationarity_residual(mu, nu))

# --- the simple walk's stationary measure, read off the hitting root ---------
solution = solve_stationary(mu, depth=5)
uniform5 = uniform_boundary_measure(F2, 5)
off = sum(m != float(uniform5.mass(w)) for w, m in solution.measure.cylinders())
print(
    f"\nhitting root: {solution.iterations} iterations, residual {solution.residual}; "
    f"masses off the uniform measure's closed form: {off} of {len(solution.measure.masses)}"
)

# --- a law with a longer word: the effect of truncating the operator ----------
length2 = GroupMeasure.uniform_on([F2.word(w) for w in ("a", "B", "ab", "bA")])
shallow = solve_stationary(length2, depth=4)
deep = solve_stationary(length2, depth=6)
moved = max(abs(m - deep.measure.mass(w)) for w, m in shallow.measure.cylinders())
print(
    f"operator: {shallow.iterations} iterations, fixed-point residual of the "
    f"truncated operator {shallow.residual:.2e} (not a distance to the stationary measure)"
)
print(f"largest move of a depth-4 solve's mass when solved to depth 6: {moved:.2e}")

# --- conditional collapse along paths -----------------------------------------
print("\ntop cylinder mass of the translated measure along one path:")
omega = sample_path(mu, 30, seed=5)
for n in (0, 5, 10, 20, 30):
    cm = conditional_measure(nu, omega, n)
    print(f"  n = {n:2d}: |position| = {len(omega.positions[n]):2d},"
          f" top mass = {cm.top_mass():.4f}")

prefix = boundary_map(omega)
print("stable boundary prefix:", str(prefix)[:20], f"({len(prefix)} letters)")
