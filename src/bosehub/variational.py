"""Energy functional and the Adam training loop shared by all Ansaetze.

Each ansatz maps a flat parameter vector to one coefficient per basis class
(evaluated on the class representative's features) plus the Jacobian of the
coefficients. Training minimizes the Rayleigh quotient over the full basis,
no mini-batches, recording the energy at every step. Gradients chain the
quotient derivative through the ansatz Jacobian analytically.

Training runs every restart at once, as a population: the ansatz methods
take the members' parameters as an (R, P) array, a step is one kernel call
or one network forward and backward pass over all members, and Adam updates
all R rows together. Only the Rayleigh quotients, which both families share,
run member by member, so every member's trajectory is bitwise the one it
would follow alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as qc
from . import neural
from ._table import write_csv
from .basis import feature_matrix
from .hamiltonian import HamiltonianMatrix


# Adam moment decays and denominator guard, and the half-width of a circuit's
# uniform parameter initialization
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
INIT_SCALE = 0.1


class TrainingDiverged(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainConfig:
    """Adam settings. The learning rate 0.02 is shared by every ansatz."""

    steps: int
    learning_rate: float = 0.02
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class TrainResult:
    theta: np.ndarray  # the parameters that reached final_energy
    energies: np.ndarray  # energy before each update plus the final one
    seed: int
    final_energy: float  # lowest energy of the run


def rayleigh_energy(coeffs, h: HamiltonianMatrix) -> float:
    """(c^dag H c) / (c^dag c); invariant under scaling of c."""
    c = np.asarray(coeffs)
    if c.shape != (h.dim,):
        raise ValueError(f"coefficient length {c.shape} != basis dim {h.dim}")
    norm = np.real(np.vdot(c, c))
    if norm == 0.0:
        raise ValueError("zero coefficient vector")
    return float(np.real(np.vdot(c, h.matrix @ c)) / norm)


def rayleigh_residual(coeffs, h: HamiltonianMatrix):
    """dE/d(conj c) = (Hc - Ec)/(c^dag c); vanishes at any eigenvector."""
    c = np.asarray(coeffs)
    norm = np.vdot(c, c).real
    if norm == 0.0:
        raise ValueError("zero coefficient vector")
    hc = h.matrix @ c
    energy = np.vdot(c, hc).real / norm
    return (hc - energy * c) / norm, float(energy)


def _residuals(coeffs, h: HamiltonianMatrix):
    """Energies (R,) and residuals y (R, B), conjugated so that dE/dtheta =
    2 Re(y @ dc/dtheta). One quotient per member: one fused over all members
    rounds differently, and Adam amplifies that into another trajectory."""
    energies = np.empty(len(coeffs))
    residuals = np.empty_like(coeffs)
    for k, c in enumerate(coeffs):
        residuals[k], energies[k] = rayleigh_residual(c, h)
    return energies, np.conj(residuals, out=residuals)


class MlpAnsatz:
    """Neural coefficients c_C = exp(net(x_C)), complex with two outputs."""

    def __init__(self, h: HamiltonianMatrix, hidden=(64, 32),
                 complex_mode: bool = False, raw_features: bool = False):
        self.features = feature_matrix(h.basis, raw=raw_features)
        self.sizes = (self.features.shape[1],) + tuple(hidden)
        self.complex_mode = complex_mode
        self._template = neural.MlpParams.initialize(
            self.sizes, outputs=2 if complex_mode else 1, rng=0)

    @property
    def n_params(self) -> int:
        return self._template.n_params

    def initial_vector(self, rng) -> np.ndarray:
        return neural.MlpParams.initialize(
            self.sizes, self._template.n_outputs, rng).flatten()

    def coefficients(self, thetas):
        """Coefficients (R, B) of the members' parameters (R, P)."""
        out, _ = neural.mlp_forward(self._template.with_flat(thetas),
                                    self.features)
        return neural.output_to_coefficient(out)

    def energy_gradient(self, thetas, h: HamiltonianMatrix):
        """Energies (R,), dE/dtheta (R, P) and coefficients (R, B) of the
        members' parameters (R, P), from one network pass over all."""
        params = self._template.with_flat(thetas)
        out, cache = neural.mlp_forward(params, self.features)
        c = neural.output_to_coefficient(out)
        energies, y = _residuals(c, h)
        yc = y * c
        if self.complex_mode:
            upstream = np.stack([2.0 * yc.real, -2.0 * yc.imag], axis=-1)
        else:
            upstream = (2.0 * yc)[..., None]
        return energies, neural.mlp_backward(params, cache, upstream), c

    def export(self, theta) -> str:
        return neural.to_json(self._template.with_flat(theta))


class CircuitAnsatz:
    """Circuit coefficients: P(0), or P(0) e^{i pi <sigma_x>} in complex mode."""

    def __init__(self, h: HamiltonianMatrix, kind: str, layers: int,
                 complex_mode: bool = False, raw_features: bool = False):
        self.features = feature_matrix(h.basis, raw=raw_features)
        self.kind = kind
        self.layers = layers
        self.complex_mode = complex_mode
        self.n_features = self.features.shape[1]
        # the layout and the features are checked once, here; each step
        # checks only that the parameters are finite
        self.n_params = qc.param_count(kind, layers, self.n_features)

    def initial_vector(self, rng) -> np.ndarray:
        return qc.init_params(self.kind, self.layers, rng, INIT_SCALE,
                              self.n_features).values

    def coefficients(self, thetas):
        """Coefficients (R, B) of the members' parameters (R, P)."""
        return qc.weights(self.kind, qc.finite_values(thetas), self.features,
                          self.complex_mode)

    def energy_gradient(self, thetas, h: HamiltonianMatrix):
        """Energies (R,), dE/dtheta (R, P) and coefficients (R, B) of the
        members' parameters (R, P), from one kernel call."""
        c, jac = qc.weights_and_jacobian(self.kind, qc.finite_values(thetas),
                                         self.features, self.complex_mode)
        energies, y = _residuals(c, h)
        # a stacked matmul rounds as each member's y @ J; einsum does not
        return energies, 2.0 * (y[:, None] @ jac)[:, 0].real, c

    def export(self, theta) -> str:
        return qc.to_json(
            qc.CircuitParams(self.kind, self.layers, theta, self.n_features))


def train(ansatz, h: HamiltonianMatrix, cfg: TrainConfig) -> TrainResult:
    """Full-basis Adam minimization of the Rayleigh energy.

    Single-qubit landscapes have local minima, so ``cfg.restarts`` members
    start from seeds ``seed, seed+1, ...`` and train together as one
    population: each step is one ``energy_gradient`` call and one Adam
    update over the (R, P) parameters. Each member follows the trajectory
    it would follow alone. Adam at a constant learning rate can spike away
    from a minimum it has reached, so each member keeps its lowest-energy
    iterate, not its last; the lowest of those wins, the lowest seed on a
    tie. If any member's energy turns non-finite, ``TrainingDiverged``
    carries the trace of the lowest-index such member. Deterministic for a
    fixed config.

    Adam works in buffers allocated once, with the operations of the
    textbook update in the same order, so each step rounds as the
    allocating form would. ``theta`` is updated in place and the best
    iterates are copied into a buffer of their own.
    """
    if not h.is_real and not ansatz.complex_mode:
        raise ValueError("complex Hamiltonian needs a complex-mode ansatz")
    seeds = range(cfg.seed, cfg.seed + cfg.restarts)
    theta = np.array([ansatz.initial_vector(np.random.default_rng(seed))
                      for seed in seeds])
    # moments, and the scratch buffers of one update
    m, v, m_hat, v_hat = (np.zeros_like(theta) for _ in range(4))
    energies = np.empty((cfg.restarts, cfg.steps + 1))
    best_energy, best_theta = np.full(cfg.restarts, np.inf), theta.copy()
    for step in range(1, cfg.steps + 1):
        energy, grad, _ = ansatz.energy_gradient(theta, h)
        energies[:, step - 1] = energy
        if not _keep_better(energy, theta, best_energy, best_theta):
            raise _diverged(energy, seeds, f"at step {step}",
                            energies[:, :step])
        # m = BETA1 m + (1 - BETA1) g
        m *= BETA1
        np.multiply(grad, 1.0 - BETA1, out=m_hat)
        m += m_hat
        # v = BETA2 v + ((1 - BETA2) g) g
        v *= BETA2
        np.multiply(grad, 1.0 - BETA2, out=v_hat)
        v_hat *= grad
        v += v_hat
        # theta - lr m_hat / (sqrt(v_hat) + EPSILON)
        np.divide(m, 1.0 - BETA1 ** step, out=m_hat)
        np.divide(v, 1.0 - BETA2 ** step, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += EPSILON
        m_hat *= cfg.learning_rate
        m_hat /= v_hat
        theta -= m_hat
    energy = np.array([rayleigh_energy(c, h)
                       for c in ansatz.coefficients(theta)])
    energies[:, cfg.steps] = energy
    if not _keep_better(energy, theta, best_energy, best_theta):
        raise _diverged(energy, seeds, "at the final step", energies[:, :-1])
    win = int(np.argmin(best_energy))  # the first of equal minima
    return TrainResult(best_theta[win], energies[win], seeds[win],
                       float(best_energy[win]))


def _keep_better(energy, theta, best_energy, best_theta) -> bool:
    """Copy each member's energy and parameters into the best buffers where
    the energy is below its best so far. Returns False, having copied
    nothing, if some energy is not finite."""
    values = energy.tolist()
    if not all(map(math.isfinite, values)):
        return False
    for k, (e, best) in enumerate(zip(values, best_energy.tolist())):
        if e < best:
            best_energy[k] = e
            best_theta[k] = theta[k]
    return True


def _diverged(energy, seeds, when: str, traces) -> TrainingDiverged:
    """``TrainingDiverged`` with the first non-finite member's trace."""
    k = np.flatnonzero(~np.isfinite(energy))[0]
    return TrainingDiverged(
        f"energy of the restart from seed {seeds[k]} became non-finite "
        f"{when}", traces[k].copy())


def layer_study(kind: str, layer_counts, h: HamiltonianMatrix,
                cfg: TrainConfig, complex_mode: bool = False,
                raw_features: bool = False):
    """Train one circuit per layer count; returns [(layers, final_energy)]."""
    rows = []
    for layers in layer_counts:
        ansatz = CircuitAnsatz(h, kind, layers, complex_mode=complex_mode,
                               raw_features=raw_features)
        result = train(ansatz, h, cfg)
        rows.append((int(layers), result.final_energy))
    return rows


def write_trace_csv(result: TrainResult, exact_energy: float, path) -> None:
    """Per-step CSV (step, energy, loss) with loss = exact - estimate."""
    energies = np.asarray(result.energies, dtype=float)
    losses = exact_energy - energies
    write_csv(path, ("step", "energy", "loss"),
              zip(range(energies.size), energies.tolist(), losses.tolist()))
