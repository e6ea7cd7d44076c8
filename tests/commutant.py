"""Float oracles for finite-dimensional stationary states, shared by the tests.

The brute-force commutant solves U H = H U for Hermitian H over an explicit
real basis of the Hermitian matrices by an SVD; it knows nothing of orbits.
"""

import numpy as np


def perm_matrix(p):
    """The matrix U with U e_j = e_p[j]."""
    U = np.zeros((len(p), len(p)))
    U[list(p), range(len(p))] = 1.0
    return U


def dense(state):
    """A DensityState as a complex numpy matrix."""
    A = float(state.diagonal) * np.eye(state.dim, dtype=complex)
    for (i, j), v in state.real.items():
        A[i, j] += float(v)
    for (i, j), v in state.imag.items():
        A[i, j] += 1j * float(v)
    return A


def _real(H):
    return np.concatenate([H.real.ravel(), H.imag.ravel()])


def hermitian_commutant(rep, words):
    """A real basis of the Hermitian H that commute with the images of `words`."""
    m = rep.dim
    herm = []
    for i in range(m):
        for j in range(i, m):
            E = np.zeros((m, m), complex)
            E[i, j] = E[j, i] = 1.0
            herm.append(E)
            if i < j:
                F = np.zeros((m, m), complex)
                F[i, j], F[j, i] = -1j, 1j
                herm.append(F)
    unitaries = [perm_matrix(rep.evaluate(w)) for w in words]
    M = np.array([np.concatenate([_real(U @ H - H @ U) for U in unitaries]) for H in herm]).T
    _, sv, Vh = np.linalg.svd(M)
    null = np.ones(Vh.shape[0], bool)
    null[: len(sv)] = sv < 1e-10
    return [sum(c * H for c, H in zip(v, herm)) for v in Vh[null]]


def _span(Hs):
    u, sv, _ = np.linalg.svd(np.array([_real(H) for H in Hs]).T, full_matrices=False)
    return u[:, sv > 1e-10 * sv[0]]


def span_distance(As, Bs):
    """The spectral distance between the projections onto the real spans."""
    Qa, Qb = _span(As), _span(Bs)
    return float(np.linalg.norm(Qa @ Qa.T - Qb @ Qb.T, 2))
