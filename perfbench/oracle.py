"""Reference values computed without the bosehub package.

The Bose-Hubbard ring Hamiltonian is built here from scratch over the full
Fock space as a sparse matrix and its lowest eigenvalue found with
``scipy.sparse.linalg.eigsh``. Symmetry classes (translations and reflection
of the ring) are formed independently as well, so that a ground-state vector
the program writes in its reduced basis can be expanded into the full space
and checked against this matrix.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

# Published ground energies at t=1 of the 6-site/5-boson ring.
PUBLISHED = {2.0: -7.54752, 5.0: -5.46241, 8.0: -4.37439}
# Published ground energy of the complex-deformed model, (t=1, U=5, phi=pi/2).
PUBLISHED_DEFORMED = -4.6590


def fock_states(sites: int, bosons: int) -> list[tuple[int, ...]]:
    """Occupation vectors in ascending lexicographic order (stars and bars)."""
    states = []
    for bars in itertools.combinations(range(bosons + sites - 1), sites - 1):
        edges = (-1,) + bars + (bosons + sites - 1,)
        states.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(sites)))
    states.sort()
    return states


@lru_cache(maxsize=None)
def _operators(sites: int, bosons: int):
    """(hopping matrix K, interaction diagonal D) with H = -t K + (U/2) D."""
    states = fock_states(sites, bosons)
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    diag = np.empty(len(states))
    for col, state in enumerate(states):
        diag[col] = sum(n * (n - 1) for n in state)
        for i in range(sites if sites > 1 else 0):
            j = (i + 1) % sites
            for src, dst in ((i, j), (j, i)):
                if state[src] == 0:
                    continue
                moved = list(state)
                moved[src] -= 1
                moved[dst] += 1
                rows.append(index[tuple(moved)])
                cols.append(col)
                vals.append(np.sqrt(state[src] * (state[dst] + 1)))
    dim = len(states)
    hop = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return hop, diag


def hamiltonian(sites: int, bosons: int, u: float, t: float = 1.0):
    """Sparse full-Fock-space Hamiltonian of the ring."""
    hop, diag = _operators(sites, bosons)
    return (-t * hop + sp.diags(0.5 * u * diag)).tocsr()


@lru_cache(maxsize=None)
def ground_energy(sites: int, bosons: int, u: float, t: float = 1.0) -> float:
    """Lowest eigenvalue of the full-space Hamiltonian."""
    h = hamiltonian(sites, bosons, u, t)
    if h.shape[0] < 64:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    v0 = np.ones(h.shape[0])  # the ground state has no node
    value = eigsh(h, k=1, which="SA", v0=v0, tol=1e-14)[0][0]
    return float(value)


@lru_cache(maxsize=None)
def symmetry_classes(sites: int, bosons: int):
    """Classes of Fock states under ring translations and reflection.

    Sorted by their smallest member; each class is a tuple of full-space
    indices.
    """
    states = fock_states(sites, bosons)
    index = {s: i for i, s in enumerate(states)}
    seen = set()
    classes = []
    for state in states:
        if state in seen:
            continue
        images = set()
        for k in range(sites):
            shifted = state[k:] + state[:k]
            images.add(shifted)
            images.add(shifted[::-1])
        seen |= images
        classes.append(tuple(sorted(index[s] for s in images)))
    classes.sort(key=lambda members: states[members[0]])
    return classes


def expand(amplitudes, sites: int, bosons: int, reduced: bool) -> np.ndarray:
    """Full-space vector of a ground state given in the program's basis.

    A reduced amplitude a_C stands for a_C / sqrt(m_C) on each of the m_C
    members of class C.
    """
    amplitudes = np.asarray(amplitudes)
    if not reduced:
        if amplitudes.size != len(fock_states(sites, bosons)):
            raise ValueError(f"{amplitudes.size} amplitudes for "
                             f"{len(fock_states(sites, bosons))} states")
        return amplitudes
    classes = symmetry_classes(sites, bosons)
    if amplitudes.size != len(classes):
        raise ValueError(f"{amplitudes.size} amplitudes for "
                         f"{len(classes)} classes")
    full = np.zeros(len(fock_states(sites, bosons)), dtype=amplitudes.dtype)
    for a, members in zip(amplitudes, classes):
        full[list(members)] = a / np.sqrt(len(members))
    return full


def rayleigh(vector, sites: int, bosons: int, u: float,
             t: float = 1.0) -> float:
    """<v|H|v> / <v|v> with the full-space Hamiltonian."""
    return _quotient(hamiltonian(sites, bosons, u, t), vector)


def deformed_matrix(sites: int, bosons: int, u: float, phi: float,
                    t: float = 1.0) -> np.ndarray:
    """The complex-deformed model on the symmetry classes.

    The class matrix <C|H|C'> gets e^{+i phi} above and e^{-i phi} below the
    diagonal, in the order of on-site interaction energy of the smallest
    member, ties broken by descending smallest member.
    """
    states = fock_states(sites, bosons)
    classes = symmetry_classes(sites, bosons)
    proj = np.zeros((len(states), len(classes)))
    for c, members in enumerate(classes):
        proj[list(members), c] = 1.0 / np.sqrt(len(members))
    h = proj.T @ (hamiltonian(sites, bosons, u, t) @ proj)
    reps = [states[members[0]] for members in classes]
    order = sorted(range(len(reps)), key=lambda c: (
        sum(n * (n - 1) for n in reps[c]), tuple(-n for n in reps[c])))
    rank = np.empty(len(reps), dtype=int)
    rank[order] = np.arange(len(reps))
    phase = np.where(rank[:, None] < rank[None, :], np.exp(1j * phi),
                     np.exp(-1j * phi))
    np.fill_diagonal(phase, 1.0)
    return h * phase


def deformed_ground_energy(sites: int, bosons: int, u: float, phi: float,
                           t: float = 1.0) -> float:
    return float(np.linalg.eigvalsh(
        deformed_matrix(sites, bosons, u, phi, t))[0])


def deformed_rayleigh(amplitudes, sites: int, bosons: int, u: float,
                      phi: float, t: float = 1.0) -> float:
    """<a|H_phi|a> / <a|a> of class amplitudes in the deformed model."""
    h = deformed_matrix(sites, bosons, u, phi, t)
    if np.size(amplitudes) != h.shape[0]:
        raise ValueError(f"{np.size(amplitudes)} amplitudes for "
                         f"{h.shape[0]} classes")
    return _quotient(h, amplitudes)


def _quotient(h, vector) -> float:
    v = np.asarray(vector)
    return float(np.real(np.vdot(v, h @ v)) / np.real(np.vdot(v, v)))
