"""Cylinder measures on the boundary of F_2: stationarity, solving, collapse.

The boundary of F_2 is the space of infinite reduced words; a measure is
stored through its masses on cylinders [w].  The uniform measure assigns
1/(4 * 3^(n-1)) to every level-n cylinder and is the unique stationary
measure of the simple random walk; translating it along a long random-walk
position squeezes it onto a single boundary point.
"""

from stationarylab import (
    CylinderMeasure,
    FreeGroupContext,
    ball,
    boundary_map,
    conditional_measure,
    sample_path,
    solve_stationary,
    stationarity_residual,
    total_variation,
    uniform_boundary_measure,
    uniform_generator_measure,
)

F2 = FreeGroupContext(2)
mu = uniform_generator_measure(2)
nu = uniform_boundary_measure(F2, 6)

print("nu[a]  =", nu.mass(F2.word("a")))
print("nu[ab] =", nu.mass(F2.word("ab")))
print("stationarity residual of (mu, nu):", stationarity_residual(mu, nu))

# --- solving for the stationary measure from a wrong guess --------------------
table = {}
for w in ball(F2, 5):
    if len(w) == 0:
        continue
    first = str(w)[0]
    skew = {"a": 0.4, "A": 0.2, "b": 0.25, "B": 0.15}[first]
    table[w] = skew / 3 ** (len(w) - 1)
seed = CylinderMeasure(table, 2, 5)

solution = solve_stationary(mu, depth=5, tol=1e-12, max_iter=200, seed_measure=seed)
print(
    f"\nsolver: {solution.iterations} iterations, certified residual "
    f"{solution.residual:.2e}"
)
print(
    "distance to the uniform measure:",
    f"{total_variation(solution.measure, uniform_boundary_measure(F2, 5), 5):.2e}",
)
print("hitting-probability cross-check agrees:", solution.hitting_agrees)

# --- conditional collapse along paths -----------------------------------------
print("\ntop cylinder mass of the translated measure along one path:")
omega = sample_path(mu, 30, seed=5)
for n in (0, 5, 10, 20, 30):
    cm = conditional_measure(nu, omega, n)
    print(f"  n = {n:2d}: |position| = {len(cm.position):2d},"
          f" top mass = {cm.top_mass:.4f}")

point = boundary_map(omega)
print("stable boundary prefix:", str(point.prefix)[:20], f"({point.resolved_depth} letters)")
