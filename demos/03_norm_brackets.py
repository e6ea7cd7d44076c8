"""Certified two-sided brackets on reduced norms.

Reduced norms are not exactly computable, so every claim is an interval:
trace moments of x*x certify from below (spectral radius seen through the
faithful trace), or, when x*x is radial, its value at one point of the
spectrum of the sphere sum; l1 / layer estimates, the exact Akemann-Ostrand
norms of free families and nearest-neighbour elements, and sums of those norms
over ping-pong families certify from above.  Tests pass only on upper bounds
and fail only on lower bounds.
"""

import math

from stationarylab import (
    AlgebraElement,
    FreeGroupContext,
    ball,
    certify_norm,
    conjugate,
)

F1 = FreeGroupContext(1)
F2 = FreeGroupContext(2)

# --- a single unitary: the bracket pinches to [1, 1] --------------------------
print("lambda_ab:", certify_norm(AlgebraElement.delta(F2.word("ab")), 8))

# --- the integers: norm of a + a^-1 is exactly 2 ------------------------------
x = AlgebraElement.delta(F1.word("a")) + AlgebraElement.delta(F1.word("A"))
for n in (4, 16, 64):
    nb = certify_norm(x, n)
    print(f"Z, {n:2d} moments: [{nb.lower:.6f}, {nb.upper:.1f}]")
# x*x = 2 + E_2 is radial in F_1 = Z: it is p(E_1) with p(t) = t^2, and E_1
# has spectrum [-2, 2], so past one moment the lower bound is 2 at any count

# --- the generator sum on F_2: target 2 sqrt(3) -------------------------------
g4 = AlgebraElement({w: 1.0 for w in ball(F2, 1) if len(w)}, 2)
nb = certify_norm(g4, 64)
print(f"\nF2 generator sum, 64 moments: [{nb.lower:.6f}, {nb.upper:.4f}]")
print(f"  true reduced norm 2 sqrt(3) = {2 * math.sqrt(3):.6f}")
print(f"  upper bound by {nb.upper_method}")
# x*x = 4 + E_2 is radial too: the lower bound is the largest float below
# 2 sqrt(3), read off the spectrum of E_1 at one point, with no moment formed

# --- averaging conjugates: the engine behind simplicity certificates ----------
a, b = F2.word("a"), F2.word("b")
print("\naverages (1/n) sum lambda_{b^-k a b^k}:")
for n in (2, 8, 32):
    avg = AlgebraElement({conjugate(a, b**k): 1 / n for k in range(1, n + 1)}, 2)
    nb = certify_norm(avg, 1)
    norm = 2 * math.sqrt(n - 1) / n if n > 2 else 1.0
    print(f"  n = {n:2d}: upper {nb.upper:.4f}  (2 sqrt(n-1)/n = {norm:.4f},"
          f" via {nb.upper_method})")
# the conjugates freely generate and their cylinder sets are disjoint
# (ping-pong), so the average has the Akemann-Ostrand norm 2 sqrt(n-1)/n,
# the O(1/sqrt(n)) decay that drives everything in demo 04; the
# disjoint-cylinder test certifies it first, with no graph fold
