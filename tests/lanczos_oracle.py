"""Reference Lanczos loop that checks the Ritz residual at every fourth step.

It is the loop ``bosehub.hamiltonian._lanczos`` replaces: the same start
vector, the same twice-orthogonalized Krylov steps and the same places to
stop, but the tridiagonal T is diagonalized at every one of those places
(every fourth step, a breakdown, step D), rebuilt each time from three
``np.diag`` calls. The fast loop must stop at the same step and return the
same bytes. It imports no bosehub module.
"""
from __future__ import annotations

import numpy as np


def lanczos(m: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Unit lowest eigenvector of the Hermitian ``m`` and the number of
    Krylov vectors it is built from."""
    n = m.shape[0]
    q = np.random.default_rng(0).standard_normal(n).astype(m.dtype)
    basis = np.empty((min(n, 32), n), m.dtype)
    basis[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(n):
        w = m @ basis[k]
        alpha.append(np.real(np.vdot(basis[k], w)))
        krylov = basis[:k + 1]
        for _ in range(2):
            w -= (krylov.conj() @ w) @ krylov
        beta.append(np.linalg.norm(w))
        if k + 1 == n or k % 4 == 3 or beta[-1] <= tol:
            t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
            _, y = np.linalg.eigh(t)
            if k + 1 == n or abs(beta[-1] * y[-1, 0]) <= tol:
                break
        if k + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])[:n]
        basis[k + 1] = w / beta[-1]
    vec = y[:, 0] @ krylov
    return vec / np.linalg.norm(vec), k + 1
