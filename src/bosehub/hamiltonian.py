"""Bose-Hubbard Hamiltonian construction and exact diagonalization.

The model on a periodic ring: nearest-neighbor hopping of amplitude ``t``
(both directions on each of the M bonds) plus on-site pair interaction
``U/2 * n(n-1)``. Matrices over the full Fock basis and over the
symmetry-reduced composite bases come from one assembly that applies the hops
to each class representative, so the full-basis matrix is never needed for a
reduced one; a complex "deformed" variant multiplies the reduced hopping
entries by conjugate phases to exercise complex wave functions while
preserving hermiticity.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    BasisDescriptor,
    BasisKind,
    FockState,
    SymmetryClass,
    check_partition,
    full_basis,
)

HERMITICITY_TOL = 1e-12
RESIDUAL_TOL = 1e-9


class DiagonalizationError(RuntimeError):
    """Eigensolver failed to converge or cross-checks disagree."""


@dataclass(frozen=True)
class ModelParams:
    """Hopping t, interaction U, lattice size and deformation phase."""

    t: float
    U: float
    sites: int
    bosons: int
    phi: float = 0.0

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("sites must be >= 1")
        if self.bosons < 0:
            raise ValueError("bosons must be >= 0")
        if not (np.isfinite(self.t) and np.isfinite(self.U) and np.isfinite(self.phi)):
            raise ValueError("t, U, phi must be finite")


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Hermitian matrix together with its basis metadata."""

    matrix: np.ndarray
    basis: BasisDescriptor
    params: ModelParams

    def __post_init__(self):
        m = self.matrix
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match basis dim {self.basis.dim}"
            )
        dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if dev > HERMITICITY_TOL * max(1.0, np.max(np.abs(m))):
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.2e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.matrix)


@dataclass(frozen=True)
class GroundState:
    """Minimum eigenvalue and its unit-norm eigenvector."""

    energy: float
    amplitudes: np.ndarray = field(repr=False)


def interaction_energy(state: FockState) -> float:
    """On-site pair energy sum n_i(n_i - 1) of one Fock state (U factored out)."""
    return float(sum(n * (n - 1) for n in state))


def _hops(state: FockState, sites: int):
    """Yield (target_state, amplitude) for every directed hop on the ring.

    Each of the M periodic bonds (i, i+1) contributes both directions. For a
    single site there is no bond.
    """
    if sites < 2:
        return
    for bond in range(sites):
        i, j = bond, (bond + 1) % sites
        for dst, src in ((i, j), (j, i)):
            if state[src] == 0:
                continue
            amp = np.sqrt(state[src] * (state[dst] + 1))
            moved = list(state)
            moved[src] -= 1
            moved[dst] += 1
            yield tuple(moved), amp


def build_full(params: ModelParams,
               basis: BasisDescriptor | None = None) -> HamiltonianMatrix:
    """Real-symmetric Hamiltonian over the full Fock basis.

    Diagonal: (U/2) sum n_i(n_i-1). Off-diagonal: -t sqrt(n_src (n_dst+1))
    for every directed nearest-neighbor hop.
    """
    if params.phi != 0.0:
        raise ValueError("full-basis construction requires phi = 0")
    if basis is None:
        basis = full_basis(params.sites, params.bosons)
    if basis.kind is not BasisKind.FULL:
        raise ValueError("build_full needs a full basis")
    if (basis.sites, basis.bosons) != (params.sites, params.bosons):
        raise ValueError("basis does not match model parameters")
    return HamiltonianMatrix(_assemble(params, basis), basis, params)


def build_reduced(params: ModelParams,
                  basis: BasisDescriptor) -> HamiltonianMatrix:
    """Hamiltonian over normalized composite class states.

    With |C> = m_C^{-1/2} sum_{s in C} |s>, the entry is
    <C'|H|C> = sqrt(m_C/m_C') * sum_{s' in C'} <s'|H|rep_C>, so only the
    representative's hops are needed; the minimum eigenvalue matches the full
    matrix because the ground state is symmetric under the generating group.
    """
    if params.phi != 0.0:
        raise ValueError("use build_deformed for phi != 0")
    check_partition([m for cls in basis.classes for m in cls.members],
                    params.sites, params.bosons)
    h = _assemble(params, basis)
    if basis.kind is not BasisKind.FULL:
        h = 0.5 * (h + h.T)  # scrub round-off between mirrored entries
    return HamiltonianMatrix(h, basis, params)


def _assemble(params: ModelParams, basis: BasisDescriptor) -> np.ndarray:
    """Class-basis matrix from each representative's diagonal and hops.

    The full basis is the case where every class has one member.
    """
    class_of = {s: c for c, cls in enumerate(basis.classes)
                for s in cls.members}
    mult = basis.multiplicities()
    h = np.zeros((basis.dim, basis.dim))
    for col, cls in enumerate(basis.classes):
        rep = cls.representative
        h[col, col] = 0.5 * params.U * interaction_energy(rep)
        for target, amp in _hops(rep, params.sites):
            row = class_of[target]
            h[row, col] += np.sqrt(mult[col] / mult[row]) * (-params.t * amp)
    return h


def build_deformed(params: ModelParams, basis: BasisDescriptor,
                   orientation: str = "interaction") -> HamiltonianMatrix:
    """Complex-phase deformation of the reduced Hamiltonian.

    Every off-diagonal entry H[C,C'] acquires e^{+i phi} when C precedes C'
    in the orientation order and e^{-i phi} otherwise, keeping the matrix
    Hermitian while making the ground state genuinely complex.

    Two orientations are supported. "interaction" ranks classes by on-site
    interaction energy (ties broken by descending representative) and
    reproduces the published reduced-basis ground energy -4.6590 at
    (t=1, U=5, phi=pi/2); "lex" ranks by representative alone and yields
    -4.4356 at the same point. See the convention study in the test suite.
    """
    if basis.kind is not BasisKind.REDUCED:
        raise ValueError("the deformation is defined on the fully reduced basis")
    base = build_reduced(
        ModelParams(params.t, params.U, params.sites, params.bosons), basis
    )
    if params.phi == 0.0:
        return base
    ranks = deformation_ranks(basis.classes, orientation)
    phase = np.exp(1j * params.phi)
    factor = np.where(ranks[:, None] < ranks[None, :], phase, np.conj(phase))
    np.fill_diagonal(factor, 1.0)
    deformed = base.matrix.astype(complex) * factor
    return HamiltonianMatrix(deformed, basis, params)


def deformation_ranks(classes: tuple[SymmetryClass, ...],
                      orientation: str = "interaction") -> np.ndarray:
    """Rank of each class in the phase-orientation order."""
    n = len(classes)
    if orientation == "interaction":
        key = lambda c: (interaction_energy(classes[c].representative),
                         tuple(-o for o in classes[c].representative))
    elif orientation == "lex":
        key = lambda c: classes[c].representative
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    order = sorted(range(n), key=key)
    ranks = np.empty(n, dtype=int)
    for pos, c in enumerate(order):
        ranks[c] = pos
    return ranks


def ground_state(h: HamiltonianMatrix) -> GroundState:
    """Minimum eigenvalue and eigenvector of a Hermitian matrix.

    The dense solve is cross-checked by the residual ||Hv - Ev||; an
    independent inverse-power-iteration estimate is available through
    :func:`min_eigenvalue_power` for oracle comparisons.
    """
    m = h.matrix
    try:
        energies, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigh failed: {exc}") from exc
    energy = float(energies[0])
    vec = vectors[:, 0]
    vec = vec / np.linalg.norm(vec)
    scale = max(np.max(np.abs(m)), 1.0)
    residual = np.linalg.norm(m @ vec - energy * vec)
    if residual > RESIDUAL_TOL * scale * m.shape[0]:
        raise DiagonalizationError(
            f"residual {residual:.2e} exceeds tolerance for dim {m.shape[0]}"
        )
    if h.is_real:
        # fix overall sign so the dominant component is positive
        k = int(np.argmax(np.abs(vec)))
        if vec[k] < 0:
            vec = -vec
    return GroundState(energy, vec)


def min_eigenvalue_power(h: HamiltonianMatrix, max_iter: int = 20000,
                         tol: float = 1e-12) -> float:
    """Minimum eigenvalue via shifted power iteration (solver cross-check).

    Iterates with (s*I - H) where s bounds the spectrum from above, which
    converges to the lowest eigenvector without any factorization. Kept
    independent of the dense solver on purpose.
    """
    m = h.matrix
    # Gershgorin bound keeps the shift tight, otherwise convergence crawls
    shift = float(np.max(np.sum(np.abs(m), axis=1)) + 1.0)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(m.shape[0]).astype(m.dtype)
    v /= np.linalg.norm(v)
    last = np.inf
    for it in range(max_iter):
        w = shift * v - m @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            raise DiagonalizationError("power iteration hit a null vector")
        v = w / nw
        energy = float(np.real(np.vdot(v, m @ v)))
        if abs(energy - last) < tol * max(1.0, abs(energy)):
            return energy
        last = energy
    raise DiagonalizationError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last delta {abs(energy - last):.2e})"
    )


def write_matrix_coo(h: HamiltonianMatrix, path) -> None:
    """Coordinate-format dump with a metadata header line."""
    p = h.params
    with open(path, "w") as fh:
        fh.write(f"# dim={h.dim} t={p.t!r} U={p.U!r} phi={p.phi!r} "
                 f"basis={h.basis.kind.value}\n")
        rows, cols = np.nonzero(h.matrix)
        for r, c in zip(rows, cols):
            v = complex(h.matrix[r, c])
            fh.write(f"{r} {c} {v.real!r} {v.imag!r}\n")


def write_ground_state_csv(state: GroundState, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_index", "amplitude_re", "amplitude_im"])
        for i, a in enumerate(np.asarray(state.amplitudes, dtype=complex)):
            writer.writerow([i, repr(float(a.real)), repr(float(a.imag))])
