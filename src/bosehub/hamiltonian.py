"""Bose-Hubbard Hamiltonian construction and exact diagonalization.

The model on a periodic ring: nearest-neighbor hopping of amplitude ``t``
(both directions on each of the M bonds) plus on-site pair interaction
``U/2 * n(n-1)``. Matrices over the full Fock basis and over the
symmetry-reduced composite bases come from one assembly: the U diagonal plus
one scatter of the basis's hop triplets (``BasisDescriptor.hops``: target
class, source class, sqrt(m_col/m_row) and sqrt(n_src(n_dst+1)) for every
directed-bond hop of every class representative), each scaled by -t. The
triplets depend on neither t nor U, so a descriptor computes them once, and
the full-basis matrix is never needed for a reduced one. A complex
"deformed" variant multiplies the reduced hopping entries by conjugate
phases to exercise complex wave functions while preserving hermiticity.
No build holds a D x D temporary: the round-off scrub and the phases touch
only the hop entries, and the Hermiticity check runs one block of rows at a
time. The ground state comes from a Lanczos loop that computes only the
lowest eigenpair and checks its residual only where the residual's decay
predicts convergence (see :func:`_lanczos`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._table import write_csv
from .basis import BasisDescriptor, BasisKind, full_basis

HERMITICITY_TOL = 1e-12
RESIDUAL_TOL = 1e-9
LANCZOS_TOL = 1e-13  # Ritz residual, relative to max|H|
_CHECK_ROWS = 32  # rows per block of the Hermiticity check


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
    """Hermitian matrix together with its basis metadata.

    ``scale`` is max(1, max|H|), the magnitude that the Hermiticity check
    and the solver tolerances are relative to.
    """

    matrix: np.ndarray
    basis: BasisDescriptor
    params: ModelParams
    scale: float = field(init=False, repr=False, compare=False, default=1.0)

    def __post_init__(self):
        m = self.matrix
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match basis dim {self.basis.dim}"
            )
        dev, biggest = _hermitian_deviation(m)
        object.__setattr__(self, "scale", max(1.0, biggest))
        if dev > HERMITICITY_TOL * self.scale:
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.2e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.matrix)


def _hermitian_deviation(m: np.ndarray) -> tuple[float, float]:
    """max|m - m^H| and max|m|, one block of ``_CHECK_ROWS`` rows at a time.

    |(m - m^H)[i, j]| and |(m - m^H)[j, i]| are the same bits, so a block
    compares its rows with their mirror columns only from its first column
    on.
    """
    dev = biggest = 0.0
    for i in range(0, len(m), _CHECK_ROWS):
        rows = m[i:i + _CHECK_ROWS]
        mirror = m[i:, i:i + _CHECK_ROWS].T.conj()
        dev = max(dev, np.abs(rows[:, i:] - mirror).max())
        biggest = max(biggest, np.abs(rows).max())
    return dev, biggest


@dataclass(frozen=True)
class GroundState:
    """Minimum eigenvalue and its unit-norm eigenvector.

    ``excited_lower`` is the ell of Temple's bound: the second Ritz value of
    the solve minus its residual |beta_k y_k,1|, a lower estimate of the
    next eigenvalue above the ground energy (inf for a one-state space).
    """

    energy: float
    amplitudes: np.ndarray = field(repr=False)
    excited_lower: float = math.inf


def interaction_energy(states) -> np.ndarray:
    """On-site pair energy sum_i n_i(n_i - 1) of each row (U factored out)."""
    occ = np.asarray(states, dtype=float)
    return (occ * (occ - 1.0)).sum(axis=-1)


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
    h = _assemble(params, basis)
    if basis.kind is not BasisKind.FULL:
        # scrub round-off between mirrored entries: 0.5 * (h + h.T) on the
        # hop pattern, the only off-diagonal entries that are not zero
        row, col = basis.hops[:2]
        mirrored = 0.5 * (h[row, col] + h[col, row])
        h[row, col] = mirrored
        h[col, row] = mirrored
    return HamiltonianMatrix(h, basis, params)


def _assemble(params: ModelParams, basis: BasisDescriptor) -> np.ndarray:
    """Class-basis matrix from each representative's diagonal and hops.

    The full basis is the case where every class has one member. Entries
    accumulate in the order of ``basis.hops``: bond by bond, (i <- i+1,
    i+1 <- i) per bond.
    """
    if (basis.sites, basis.bosons) != (params.sites, params.bosons):
        raise ValueError("basis does not match model parameters")
    row, col, ratio, amp = basis.hops
    h = np.diag(0.5 * params.U * interaction_energy(basis.representatives()))
    np.add.at(h, (row, col), ratio * (-params.t * amp))
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
    ranks = deformation_ranks(basis.representatives(), orientation)
    phase = np.exp(1j * params.phi)
    row, col = basis.hops[:2]
    off = row != col
    row, col = row[off], col[off]
    # the phases go on the hop entries alone, each mirror taking the other
    factor = np.where(ranks[row] < ranks[col], phase, np.conj(phase))
    deformed = base.matrix.astype(complex)
    deformed[row, col] = base.matrix[row, col] * factor
    deformed[col, row] = base.matrix[col, row] * np.conj(factor)
    return HamiltonianMatrix(deformed, basis, params)


def deformation_ranks(reps: np.ndarray,
                      orientation: str = "interaction") -> np.ndarray:
    """Rank of each class, given its representative row, in the
    phase-orientation order."""
    if orientation == "interaction":
        keys = np.vstack([-reps.T[::-1], interaction_energy(reps)])
    elif orientation == "lex":
        keys = reps.T[::-1]
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    order = np.lexsort(keys)
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(order))
    return ranks


def ground_state(h: HamiltonianMatrix) -> GroundState:
    """Lowest eigenvalue and eigenvector of a Hermitian matrix, by Lanczos.

    Only the lowest eigenpair is computed (:func:`_lanczos`); the dense
    ``np.linalg.eigh``, which finds all D of them, is the test oracle. The
    energy is the Rayleigh quotient of the returned unit vector, cross-checked
    by its residual ||Hv - Ev||; an independent shifted power iteration is
    available through :func:`min_eigenvalue_power`. The vector's phase puts
    its largest component on the positive real axis, which for a real matrix
    makes the dominant component positive.
    """
    m, scale = h.matrix, h.scale
    vec, _, excited_lower = _lanczos(m, LANCZOS_TOL * scale)
    hv = m @ vec
    # the Rayleigh quotient, not the Ritz value, whose round-off has either
    # sign: on the t=0 spectrum (ground energy 0) a negative one prints as
    # -0.00000
    energy = float(np.vdot(vec, hv).real)
    residual = np.linalg.norm(hv - energy * vec)
    if not residual <= RESIDUAL_TOL * scale * m.shape[0]:
        raise DiagonalizationError(
            f"residual {residual:.2e} exceeds tolerance for dim {m.shape[0]}"
        )
    k = int(np.argmax(np.abs(vec)))
    return GroundState(energy, vec * (abs(vec[k]) / vec[k]), excited_lower)


def _lanczos(m: np.ndarray, tol: float) -> tuple[np.ndarray, int, float]:
    """Unit lowest eigenvector of the Hermitian matrix ``m``, the number of
    Krylov vectors it is built from, and the second Ritz value minus its
    residual |beta_k y_k,1| (inf with one Krylov vector).

    The Krylov basis starts from a fixed-seed random vector, so the result is
    deterministic and every eigenspace is reached, and grows one vector per
    step, each orthogonalized twice against all the others. The loop may
    stop only at every fourth step, at a breakdown (beta ~ 0: the Krylov
    space is invariant, so its Ritz values are exact) or after D steps, when
    the Krylov space is the whole space; at the first of those steps where
    the lowest Ritz pair's residual |beta_k y_k| is at most ``tol``, or at
    the other two in any case.

    A check is an eigensolve of the tridiagonal T, so after the first two
    fourth steps the next check goes where the residual's geometric decay
    between the last two checks reaches ``tol`` (:func:`_steps_ahead`).
    When a check passes, the fourth steps skipped since the last one are
    checked latest first while they pass: each one's T is a leading block
    and its Krylov vectors a prefix, so the loop returns what checking every
    fourth step returns, as long as the residual, once at most ``tol``,
    stays there over the skipped steps.
    """
    n = m.shape[0]
    q = np.random.default_rng(0).standard_normal(n).astype(m.dtype)
    basis = np.empty((min(n, 32), n), m.dtype)
    basis[0] = q / np.linalg.norm(q)
    # |w| as np.linalg.norm computes it, without its dispatch
    norm = np.linalg.norm if np.iscomplexobj(m) \
        else lambda w: math.sqrt(w @ w)
    alpha, beta = [], []
    checks, skipped, due = [], [], 3
    for k in range(n):
        w = m @ basis[k]
        alpha.append(np.vdot(basis[k], w).real)
        krylov = basis[:k + 1]
        adjoint = krylov.conj()  # the array itself when it is real
        for _ in range(2):
            w -= (adjoint @ w) @ krylov
        beta.append(norm(w))
        if k + 1 == n or k == due or beta[-1] <= tol:
            values, y, residual = _ritz(alpha, beta, k)
            if k + 1 == n or residual <= tol:
                for step in reversed(skipped):
                    earlier = _ritz(alpha, beta, step)
                    if not earlier[2] <= tol:
                        break
                    (values, y, _), k = earlier, step
                break
            checks.append((k, residual))
            skipped, due = [], k + _steps_ahead(checks, tol)
        elif k % 4 == 3:
            skipped.append(k)
        if k + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])[:n]
        np.divide(w, beta[-1], out=basis[k + 1])
    vec = y[:, 0] @ basis[:k + 1]
    excited_lower = values[1] - abs(beta[k] * y[k, 1]) if k else math.inf
    return vec / np.linalg.norm(vec), k + 1, float(excited_lower)


def _ritz(alpha: list, beta: list, k: int):
    """Eigenvalues and eigenvectors of the leading (k+1)-square block of the
    Lanczos tridiagonal T, and the lowest Ritz pair's residual |beta_k y_k|."""
    t = np.zeros((k + 1, k + 1))
    t.flat[::k + 2] = alpha[:k + 1]
    t.flat[1::k + 2] = t.flat[k + 1::k + 2] = beta[:k]
    try:
        values, y = np.linalg.eigh(t)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"Lanczos failed: {exc}") from exc
    return values, y, abs(beta[k] * y[k, 0])


def _steps_ahead(checks: list, tol: float) -> int:
    """Steps from the last check to the next: 4 after the first check, then
    where the last two checks' residuals, decaying geometrically, reach
    ``tol``, rounded up to a multiple of 4 and kept within 4 to 16."""
    if len(checks) < 2:
        return 4
    (k0, r0), (k1, r1) = checks[-2:]
    decay = (math.log(r0) - math.log(r1)) / (k1 - k0)  # per step
    if not decay > 0.0:
        return 16
    return 4 * min(4, max(1, math.ceil(math.log(r1 / tol) / decay / 4)))


def gershgorin_upper_bound(h: HamiltonianMatrix) -> float:
    """G = max_i (Re H_ii + sum_{j != i} |H_ij|), an upper bound on the
    largest eigenvalue of the Hermitian H (Gershgorin's circle theorem).

    The row sums take Re H_ii in place of |H_ii|, so where the diagonal is
    non-negative G is bitwise the largest row sum of |H|.
    """
    m = h.matrix
    rows = np.abs(m)
    np.fill_diagonal(rows, m.diagonal().real)
    return float(np.max(np.sum(rows, axis=1)))


def min_eigenvalue_power(h: HamiltonianMatrix, max_iter: int = 20000,
                         tol: float = 1e-12) -> float:
    """Minimum eigenvalue via shifted power iteration (solver cross-check).

    Iterates with (s*I - H), s = G + 1 for G the Gershgorin bound on the
    spectrum, which converges to the lowest eigenvector without any
    factorization. Kept independent of the Lanczos solver on purpose.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    m = h.matrix
    # a tight shift, otherwise convergence crawls
    shift = gershgorin_upper_bound(h) + 1.0
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
        delta = abs(energy - last)
        if delta < tol * max(1.0, abs(energy)):
            return energy
        last = energy
    raise DiagonalizationError(
        f"power iteration did not converge in {max_iter} steps "
        f"(last delta {delta:.2e})"
    )


def write_matrix_coo(h: HamiltonianMatrix, path) -> None:
    """Coordinate-format dump with a metadata header line."""
    p = h.params
    with open(path, "w") as fh:
        fh.write(f"# dim={h.dim} t={p.t!r} U={p.U!r} phi={p.phi!r} "
                 f"basis={h.basis.kind.value}\n")
        rows, cols = np.nonzero(h.matrix)
        values = h.matrix[rows, cols]
        fh.write("".join([
            f"{r} {c} {re!r} {im!r}\n" for r, c, re, im in zip(
                rows.tolist(), cols.tolist(), values.real.tolist(),
                values.imag.tolist())]))


def write_ground_state_csv(state: GroundState, path) -> None:
    amps = np.asarray(state.amplitudes, dtype=complex)
    write_csv(path, ("class_index", "amplitude_re", "amplitude_im"),
              zip(range(amps.size), amps.real.tolist(), amps.imag.tolist()))
