"""Simulated noisy readout and its mitigation toolkit.

The device model is classical per-qubit readout flips only: each qubit
carries a 2x2 column-stochastic confusion matrix P with p_ij the probability
that true state j is recorded as i. Calibration estimates P from prepared
|0> and |1> runs; its inverse maps observed frequencies back to true ones,
and tr(P~)/2 >= 1 ranks qubits (1 means perfect readout). The hardware
layout is reproduced: each of the 25 non-anchor coefficients is measured on
5 replica qubits, so five wave functions come out of one run and the best
qubit per coefficient can be postselected. The model is tensored per qubit
(Bravyi et al., Phys. Rev. A 103, 042605 (2021)): calibration, data and
inversion are one array operation each over all qubits.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._table import write_csv
from .basis import feature_matrix
from .circuit import CircuitParams, ShotResult, batch_weights
from .hamiltonian import HamiltonianMatrix
from .variational import rayleigh_energy

log = logging.getLogger(__name__)

DEFAULT_QUBITS = 125
REPLICAS = 5
DEFAULT_ERROR_RANGE = (0.005, 0.05)
SHOT_BLOCK = 1024  # trials per binomial draw in shot_study: O(block x classes)


class CorrectionMode(str, Enum):
    UNCORRECTED = "uncorrected"
    CORRECTED = "corrected"
    POSTSELECTED = "postselected"
    POSTSELECTED_CORRECTED = "postselected-corrected"


@dataclass(frozen=True)
class ConfusionEstimate:
    """p_ij = P(recorded i | true j) estimated from finite shots, or arrays
    of them: data, which a few shots can leave singular (p00 + p11 <= 1)."""

    p00: float | np.ndarray
    p01: float | np.ndarray
    p10: float | np.ndarray
    p11: float | np.ndarray

    def matrix(self) -> np.ndarray:
        return np.array([[self.p00, self.p01], [self.p10, self.p11]])

    def inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise P~ = P^{-1}, shaped (..., 2, 2), and tr(P~)/2."""
        det = self.p00 * self.p11 - self.p01 * self.p10
        inv = np.array([[self.p11, -self.p01], [-self.p10, self.p00]]) / det
        inv = np.moveaxis(inv, (0, 1), (-2, -1))
        return inv, (inv[..., 0, 0] + inv[..., 1, 1]) / 2.0


@dataclass(frozen=True)
class ConfusionMatrix(ConfusionEstimate):
    """A device's true column-stochastic rates, or arrays of them."""

    def __post_init__(self):
        m = self.matrix()
        if ((m < 0) | (m > 1)).any():
            raise ValueError("probabilities must lie in [0, 1]")
        if (abs(m.sum(axis=0) - 1.0) > 1e-9).any():
            raise ValueError("columns must sum to 1")
        if (m[0, 0] + m[1, 1] <= 1.0).any():
            raise ValueError(
                "p00 + p11 must exceed 1 for an invertible, physical readout")

    @classmethod
    def from_flip_rates(cls, eps0: float, eps1: float) -> "ConfusionMatrix":
        """eps0 = P(0 recorded as 1), eps1 = P(1 recorded as 0)."""
        return cls(1.0 - eps0, eps1, eps0, 1.0 - eps1)

    def invert(self) -> "InverseConfusion":
        inv, fom = self.inverse()
        return InverseConfusion(inv, float(fom))


@dataclass(frozen=True)
class InverseConfusion:
    """P~ = P^{-1} with its figure of merit tr(P~)/2 (>= 1, 1 iff perfect)."""

    matrix: np.ndarray
    figure_of_merit: float

    def __post_init__(self):
        if self.matrix.shape != (2, 2):
            raise ValueError("inverse confusion must be 2x2")
        if self.matrix[0, 0] < 1.0 - 1e-9 or self.matrix[1, 1] < 1.0 - 1e-9:
            raise ValueError("diagonal of the inverse must be >= 1")


@dataclass(frozen=True)
class SimulatedDevice:
    """Qubits with independent readout flips: one confusion matrix of (Q,)
    arrays, copied read-only, so ``measure`` always draws from the rates the
    device was built with."""

    confusion: ConfusionMatrix

    def __post_init__(self):
        rates = self.confusion.matrix()  # a fresh (2, 2, Q) array
        if rates.ndim != 3:
            raise ValueError("a device needs one (Q,) array per entry")
        rates.flags.writeable = False
        object.__setattr__(self, "confusion",
                           ConfusionMatrix(*rates.reshape(4, -1)))

    @classmethod
    def random(cls, n_qubits: int = DEFAULT_QUBITS,
               error_range: tuple[float, float] = DEFAULT_ERROR_RANGE,
               seed: int = 0) -> "SimulatedDevice":
        """Flip rates drawn uniformly per qubit and direction."""
        rates = np.random.default_rng(seed).uniform(*error_range, (n_qubits, 2))
        return cls(ConfusionMatrix.from_flip_rates(rates[:, 0], rates[:, 1]))

    @property
    def n_qubits(self) -> int:
        return self.confusion.p00.size

    def measure(self, qubits, prob0, shots: int,
                rng: np.random.Generator) -> np.ndarray:
        """Recorded-0 counts per qubit, for true P(0) ``prob0``, in one draw:
        shots are independent, so P(recorded 0) = p*p00 + (1-p)*p01."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        p = np.clip(prob0, 0.0, 1.0)
        p00, p01 = self.confusion.p00[qubits], self.confusion.p01[qubits]
        return rng.binomial(shots, p * p00 + (1.0 - p) * p01)


def calibrate(device: SimulatedDevice, qubits, shots: int,
              rng) -> ConfusionEstimate:
    """Estimate confusion matrices, shaped like ``qubits``, from one measure
    call over the |0> and |1> preparation runs of every qubit."""
    rng = np.random.default_rng(rng)
    qubits = np.asarray(qubits)[..., None]
    freq0 = device.measure(qubits, np.array([1.0, 0.0]), shots, rng) / shots
    return ConfusionEstimate(freq0[..., 0], freq0[..., 1],
                             1.0 - freq0[..., 0], 1.0 - freq0[..., 1])


def _checked_inverse(estimate: ConfusionEstimate, qubits: np.ndarray,
                     shots: int):
    """The inverse and figures of merit of ``estimate``, the ``shots``-shot
    calibration of ``qubits``, after refusing any qubit it leaves singular."""
    singular = estimate.p00 + estimate.p11 <= 1.0
    if singular.any():
        raise ValueError(
            f"calibration with {shots} shots leaves qubit "
            f"{qubits[singular].min()} with p00 + p11 <= 1, so its readout "
            "cannot be inverted; calibrate with more shots")
    return estimate.inverse()


def correct(observed: ShotResult, inv: InverseConfusion) -> tuple[float, float]:
    """Map observed frequencies to corrected probabilities.

    The raw product sums to one but can leave [0, 1] slightly; it is then
    clamped and renormalized, with the raw value logged.
    """
    f0 = observed.frequency0
    (a, b), (c, d) = inv.matrix.tolist()
    raw = (a * f0 + b * (1.0 - f0), c * f0 + d * (1.0 - f0))
    if raw[0] < 0.0 or raw[0] > 1.0:
        log.debug("corrected probability %r outside [0,1]; clamping", raw)
        p0, p1 = (min(max(v, 0.0), 1.0) for v in raw)
        total = p0 + p1
        if total == 0.0:
            return 0.5, 0.5
        return p0 / total, p1 / total
    return raw


def replica_argmin(fom: np.ndarray) -> np.ndarray:
    """Column of each row's postselected qubit: the smallest figure of merit
    in ``fom`` (coefficients, replicas), ties to the first column, which in
    :func:`replica_layout` holds the lowest qubit id."""
    return np.argmin(fom, axis=1)


def replica_layout(n_coeffs: int, n_qubits: int) -> np.ndarray:
    """Qubit ids (n_coeffs, REPLICAS) on an ``n_qubits`` device; replica r
    occupies the block of n_coeffs qubits that starts at qubit r * n_coeffs,
    so each row's ids increase with the column."""
    if n_coeffs * REPLICAS > n_qubits:
        raise ValueError("layout does not fit on the device")
    return np.arange(REPLICAS * n_coeffs).reshape(REPLICAS, n_coeffs).T.copy()


def noisy_energies(params: CircuitParams, h: HamiltonianMatrix,
                   device: SimulatedDevice, shots: int, modes, rng, *,
                   ideal: np.ndarray | None = None) -> dict:
    """One data-taking run on the simulated device, one energy per mode.

    All requested modes are assembled from the same calibration and data
    samples, mirroring the with/without-correction comparison of a single
    hardware run. The anchor coefficient, the last class, is fixed to its
    ideal circuit value, standing in for the normalization constraint; every
    other coefficient is measured on its :func:`replica_layout` qubits
    through their confusion matrices, refused before any draw when the
    layout does not fit on the device. Calibration runs at the data shots
    estimate the inverses used for correction and for the postselection
    ranking; only those modes form them, refusing before the data draw any
    layout qubit estimated with p00 + p11 <= 1.

    Sampling order is fixed (one draw calibrates every layout qubit, then one
    draws the whole layout's data), so results are deterministic given the rng.
    The calibration draw is made whatever the modes, so every mode set draws
    the same samples; only the corrected modes build the (coefficient,
    replica) grid that :func:`correct` reads, one call per observation used,
    and only the postselected ones call :func:`replica_argmin`.

    ``ideal``, the circuit's P(0) on every basis class, lets a caller that
    runs many trials of one circuit evaluate it once; it is computed here
    when not given.
    """
    modes = [CorrectionMode(m) for m in modes]
    layout = replica_layout(h.dim - 1, device.n_qubits)
    rng = np.random.default_rng(rng)
    if ideal is None:
        ideal = batch_weights(params, feature_matrix(h.basis))

    estimate = calibrate(device, layout, shots, rng)
    if set(modes) - {CorrectionMode.UNCORRECTED}:
        inverse, fom = _checked_inverse(estimate, layout, shots)
    counts = device.measure(layout, ideal[:-1, None], shots, rng)
    if {CorrectionMode.CORRECTED,
            CorrectionMode.POSTSELECTED_CORRECTED} & set(modes):
        # correct takes one qubit's observation and inverse
        grid = [[(ShotResult(shots, n), InverseConfusion(m, f))
                 for n, m, f in zip(*row)]
                for row in zip(counts.tolist(), inverse, fom.tolist())]
    if {CorrectionMode.POSTSELECTED,
            CorrectionMode.POSTSELECTED_CORRECTED} & set(modes):
        best = replica_argmin(fom)

    energies = {}
    for mode in modes:
        if mode is CorrectionMode.UNCORRECTED:
            values = (counts / shots).mean(axis=1)
        elif mode is CorrectionMode.CORRECTED:
            values = np.mean([[correct(*pair)[0] for pair in row]
                              for row in grid], axis=1)
        elif mode is CorrectionMode.POSTSELECTED:
            values = counts[np.arange(len(best)), best] / shots
        else:
            values = [correct(*row[b])[0] for row, b in zip(grid, best)]
        energies[mode] = rayleigh_energy(np.append(values, ideal[-1]), h)
    return energies


def noisy_energy_run(params: CircuitParams, h: HamiltonianMatrix,
                     device: SimulatedDevice, shots: int,
                     mode: CorrectionMode, rng) -> float:
    """Single-mode convenience wrapper around :func:`noisy_energies`."""
    mode = CorrectionMode(mode)
    return noisy_energies(params, h, device, shots, [mode], rng)[mode]


def shot_study(params: CircuitParams, h: HamiltonianMatrix, shot_grid,
               trials: int = 100, seed: int = 0):
    """Noiseless finite-shot energies vs the ideal value.

    For each shot count, every coefficient of every trial is an independent
    binomial frequency; rows are (shots, median |dE/E|, std of |dE/E|).
    Each shot count draws its (trials, classes) counts from one stream,
    ``SeedSequence((seed, shots))``, :data:`SHOT_BLOCK` trials per call;
    numpy consumes the stream element by element, so neither the blocks nor
    the rest of the grid change a row. A block's trials get their Rayleigh
    quotients Re(s^T H s)/(s . s) at once, as :func:`rayleigh_energy` does
    for one frequency vector s.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    shot_grid = [int(shots) for shots in shot_grid]
    if any(shots < 1 for shots in shot_grid):
        raise ValueError("shots must be >= 1")
    ideal = batch_weights(params, feature_matrix(h.basis))
    ideal_energy = rayleigh_energy(ideal, h)
    if ideal_energy == 0.0:
        raise ValueError("ideal energy is 0, so |dE/E| is undefined")
    prob0 = np.clip(ideal, 0.0, 1.0)
    rows = []
    for shots in shot_grid:
        rng = np.random.default_rng(np.random.SeedSequence((seed, shots)))
        devs = np.ones(trials)  # an all-zero draw carries no energy estimate
        for start in range(0, trials, SHOT_BLOCK):
            block = min(SHOT_BLOCK, trials - start)
            sampled = rng.binomial(shots, prob0, (block, prob0.size)) / shots
            norm = np.einsum("td,td->t", sampled, sampled)
            energy = np.einsum("td,td->t", sampled @ h.matrix.T, sampled).real
            drawn = norm > 0.0
            devs[start:start + block][drawn] = np.abs(
                energy[drawn] / norm[drawn] - ideal_energy) / abs(ideal_energy)
        rows.append((shots, float(np.median(devs)), float(np.std(devs))))
    return rows


def calibration_report(device: SimulatedDevice, shots: int, seed: int,
                       n_coeffs: int):
    """Per-qubit calibration rows (qubit, p00, p01, p10, p11, fom, selected);
    ``selected`` marks the qubit each replica group of the ``n_coeffs``
    coefficients' :func:`replica_layout` would postselect by this
    calibration."""
    layout = replica_layout(n_coeffs, device.n_qubits)
    qubits = np.arange(device.n_qubits)
    est = calibrate(device, qubits, shots, seed)
    fom = _checked_inverse(est, qubits, shots)[1]
    selected = set(layout[np.arange(n_coeffs),
                          replica_argmin(fom[layout])].tolist())
    table = np.stack([est.p00, est.p01, est.p10, est.p11, fom], 1)
    return [(qubit, *row, int(qubit in selected))
            for qubit, row in enumerate(table.tolist())]


def write_calibration_csv(rows, path) -> None:
    write_csv(path, ("qubit", "p00", "p01", "p10", "p11", "figure_of_merit",
                     "selected"),
              ((row[0], *map(float, row[1:6]), row[6]) for row in rows))


def write_shot_study_csv(rows, path) -> None:
    write_csv(path, ("shots", "median_frac_dev", "std"), rows)


def write_energy_report_csv(rows, path) -> None:
    """Rows of (run, mode, U, energy, ideal_energy)."""
    write_csv(path, ("run", "mode", "U", "energy", "ideal_energy"),
              ((run, mode, float(u), float(energy), float(ideal))
               for run, mode, u, energy, ideal in rows))
