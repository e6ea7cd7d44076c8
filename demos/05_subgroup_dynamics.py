"""Cyclic subgroups under conjugation: escape, positivity, and freeness.

The amenable subgroups of a free group are trivial or cyclic, so the
conjugation walk acts on primitive root words.  Chains started at any
nontrivial subgroup escape (root lengths grow linearly), the membership
frequencies of any subgroup sample form a positive definite function, and
axis-cylinder masses certify that the boundary action is essentially free.
"""

from stationarylab import (
    CyclicSubgroup,
    FreeGroupContext,
    ball,
    freeness_report,
    pdf_from_subgroup_sample,
    primitive_root,
    psd_check,
    srs_escape_experiment,
    uniform_boundary_measure,
    uniform_generator_measure,
)

F2 = FreeGroupContext(2)
mu = uniform_generator_measure(2)

# --- primitive roots -----------------------------------------------------------
for s in ("aaa", "abab", "baaB"):
    print(f"primitive root of {s}: {primitive_root(F2.word(s))}")

# --- escape of the conjugation walk --------------------------------------------
report = srs_escape_experiment(
    mu, CyclicSubgroup(F2.word("a")), steps=150, trials=200, seed=12
)
print("\nmedian root length by step:")
for t in (0, 30, 60, 90, 120, 150):
    row = report.rows[t]
    print(f"  t = {t:3d}: median {row.median_root_len:5.1f}"
          f"  [q25 {row.q25:5.1f}, q75 {row.q75:5.1f}]")
print("verdict:", report.verdict)
print("final membership frequency of a:", report.final_pdf_at["a"])

# --- positive definite functions from subgroup samples --------------------------
subs = [CyclicSubgroup(F2.word(s)) for s in ("a", "ab", "b")]
# the weights are read as law masses are: exact, and scaled by their exact total
phi = pdf_from_subgroup_sample(subs, [1 / 3] * 3, radius=4)
print("\nphi(1) =", phi(F2.identity), "| phi(a) =", phi(F2.word("a")),
      "| phi(ab) =", phi(F2.word("ab")), "| phi(aB) =", phi(F2.word("aB")))
check = psd_check(phi, [[F2.identity, F2.word("a"), F2.word("ab"), F2.word("b")]])
print("Gram minimum eigenvalue:", f"{check.min_eigenvalues[0]:.3e}",
      "| PSD:", check.passed)

# --- essential freeness of the boundary action ----------------------------------
nu = uniform_boundary_measure(F2, 8)
gens = [g for g in ball(F2, 2) if not g.is_identity()]
fr = freeness_report(mu, nu, gens, depth=8)
print(f"\nfixed-point mass bounds for {len(fr.rows)} words, depth 8:")
print("  largest bound:", max(r.upper_bound for r in fr.rows))
print("  verdict:", fr.verdict)
