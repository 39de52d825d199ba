"""Energy functional and the natural-gradient training loop shared by all
Ansaetze.

Each ansatz maps a flat parameter vector to one coefficient per basis class
(evaluated on the class representative's features) plus the Jacobian of the
coefficients. Training minimizes the Rayleigh quotient over the full basis,
no mini-batches, recording the energy at every step.

A step is stochastic reconfiguration (Sorella, Phys. Rev. Lett. 80, 4558
(1998)) written in class space (minSR: Chen & Heyl, arXiv 2302.01941).
With J~ the Jacobian of c/|c| projected off c, and r = (Hc - Ec)/|c|, the
parameters move by -eta J~^T (J~ J~^T + eps I)^-1 r, a B x B solve per
member (2B x 2B in complex mode, real and imaginary parts stacked), with the
step's length capped at MAX_STEP. By default eta = STABLE_RATE/(G - E0),
with G the Gershgorin bound on the largest eigenvalue and E0 the ground
energy: in the linear regime a step multiplies each excited component k by
1 - eta (E_k - E0), which is stable only while eta (Emax - E0) < 2. The
damping eps = min(DAMPING, RESIDUAL_DAMPING sigma/(G - E0)) shrinks with
each member's residual norm sigma = |r|, as Levenberg-Marquardt damping
does (Yamashita & Fukushima, Computing Suppl. 15, 239 (2001); Fan & Yuan,
Computing 74, 23 (2005)), so the directions of J~ J~^T below DAMPING stop
being throttled as a run nears its answer. Each ansatz supplies the Gram
matrix J J^T of its coefficients and the product of a class-space vector
with its Jacobian; the projection and the solve are shared. Training stops
at the first step where some member's energy carries Temple's certificate: with
variance sigma^2 = |r|^2 and ell a lower estimate of the first excited
energy, E - sigma^2/(ell - E) >= E - CERTIFIED_GAP.

Training runs every restart at once, as a population: the ansatz methods
take the members' parameters as an (R, P) array, a step is one kernel call
or one network forward and backward pass over all members, and one update
of all R rows. The Rayleigh quotients run member by member and every other
operation row by row, so every member's trajectory is bitwise the one it
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
from .hamiltonian import (GroundState, HamiltonianMatrix,
                          gershgorin_upper_bound, ground_state)


# The natural-gradient step: the most damping added to the projected
# class-space Gram matrix, eps (G - E0)/sigma below that cap, the least
# damping (so that sigma = 0 never reaches a singular solve), the cap on a
# step's length in parameter space, eta (G - E0) of the default rate (below
# the stability edge 2) and the gap between an energy and its Temple bound
# that stops training.
DAMPING = 1e-3
RESIDUAL_DAMPING = 0.05
MIN_DAMPING = 1e-9
MAX_STEP = 0.2
STABLE_RATE = 1.8
CERTIFIED_GAP = 1e-5


class TrainingDiverged(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainConfig:
    """Natural-gradient settings shared by every ansatz: at most ``steps``
    steps, each of rate ``learning_rate`` (eta). None, the default, takes
    STABLE_RATE/w for the width w of :func:`spectral_width`; an explicit
    rate, such as the 0.02 of runs made before that rule, is the rate of
    every step."""

    steps: int
    learning_rate: float | None = None
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.learning_rate is not None and \
                not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class TrainResult:
    theta: np.ndarray  # the parameters that reached final_energy
    energies: np.ndarray  # energy before each step plus the final one
    seed: int
    final_energy: float  # lowest energy of the run
    energy_variance: float = math.nan  # sigma^2 of the final_energy state
    # the highest Temple lower bound on the ground energy of any iterate
    # (-inf if no energy fell below excited_lower), and the ell it used
    temple_lower_bound: float = -math.inf
    excited_lower: float = math.inf
    stopped_on: str = "step cap"  # or "certificate"
    learning_rate: float = math.nan  # the eta every step took
    energy_upper_bound: float = math.nan  # Gershgorin's G of the matrix
    damping: float = math.nan  # eps of the winner's last step, if any

    @property
    def steps_taken(self) -> int:
        return len(self.energies) - 1


def spectral_width(h: HamiltonianMatrix, upper: float,
                   ground_energy: float) -> float:
    """w = G - E0 for G = ``upper``, Gershgorin's bound on the largest
    eigenvalue Emax, and E0 = ``ground_energy``. The default rate is
    eta = STABLE_RATE/w: since G >= Emax, eta (Emax - E0) <= STABLE_RATE
    < 2, the step's stability edge. A width H cannot resolve,
    G - E0 <= eps max(1, max|H|), is taken as max(1, max|H|): the zero
    matrix (every step is zero) would give 1.8/0, and a subnormal width an
    overflow to inf."""
    width = upper - ground_energy
    if not width > np.finfo(float).eps * h.scale:
        width = h.scale
    return width


def damping(variances, width: float):
    """Each member's eps = min(DAMPING, RESIDUAL_DAMPING sigma/w) for its
    energy variance sigma^2 and the spectral width w, at least MIN_DAMPING.
    The cap keeps every step with sigma/w >= DAMPING/RESIDUAL_DAMPING as it
    was under a fixed DAMPING."""
    return np.clip(RESIDUAL_DAMPING * np.sqrt(variances) / width,
                   MIN_DAMPING, DAMPING)


def rayleigh_energy(coeffs, h: HamiltonianMatrix) -> float:
    """(c^dag H c) / (c^dag c); invariant under scaling of c."""
    c = np.asarray(coeffs)
    if c.shape != (h.dim,):
        raise ValueError(f"coefficient length {c.shape} != basis dim {h.dim}")
    return rayleigh_residual(c, h)[1]


def rayleigh_residual(coeffs, h: HamiltonianMatrix):
    """dE/d(conj c) = (Hc - Ec)/(c^dag c); vanishes at any eigenvector."""
    c = np.asarray(coeffs)
    norm = np.vdot(c, c).real
    if norm == 0.0:
        raise ValueError("zero coefficient vector")
    hc = h.matrix @ c
    energy = np.vdot(c, hc).real / norm
    return (hc - energy * c) / norm, float(energy)


def _residuals(coeffs, h: HamiltonianMatrix, gram=None, width=None):
    """Energies (R,), residuals y (R, B), energy variances (R,) and None.

    y is conjugated so that dE/dtheta = 2 Re(y @ dc/dtheta). Given the
    members' Gram matrices ``gram`` = J_s J_s^T (R, n, n) of dc/dtheta,
    with J_s = J for real coefficients and [Re J; Im J] for complex ones,
    and the spectral ``width``, y instead makes 2 Re(y @ dc/dtheta) the
    natural-gradient step of each member's :func:`damping`, which takes
    None's place, and ``gram`` is overwritten. One quotient per member: one
    fused over all members rounds differently, and the steps amplify that
    into another trajectory.
    """
    energies = np.empty(len(coeffs))
    variances = np.empty(len(coeffs))
    norms = np.empty(len(coeffs))  # |c|^2
    residuals = np.empty_like(coeffs)
    for k, c in enumerate(coeffs):
        residuals[k], energies[k] = rayleigh_residual(c, h)
        norms[k] = np.vdot(c, c).real
        variances[k] = np.vdot(residuals[k], residuals[k]).real * norms[k]
    if gram is None:
        return energies, np.conj(residuals, out=residuals), variances, None
    eps = damping(variances, width)
    steps = _natural_step(coeffs, residuals, norms, gram, eps)
    return energies, steps, variances, eps


def _natural_step(coeffs, residuals, norms, gram, eps):
    """y (R, B) with 2 Re(y @ J) = J~^T (J~ J~^T + eps I)^-1 r for each
    member's damping eps (R,).

    J~ = P J/|c| is the Jacobian of u = c/|c| projected off c, with P the
    projector off u (and off iu in complex mode, the direction of the
    global phase), and r = (Hc - Ec)/|c| lies off them too. The solution x
    of (P K P/|c|^2 + eps I) x = r is then the one of
    (K/|c|^2 + eps I) x = r + Q mu that lies off Q = [u] (or [u, iu]),
    so it takes one solve with K = J_s J_s^T and no projected matrix, and
    J~^T x = J_s^T x/|c|.
    """
    u = coeffs / np.sqrt(norms)[:, None]
    columns = [residuals, u, 1j * u] if np.iscomplexobj(coeffs) \
        else [residuals, u]
    # (K + |c|^2 eps I) z = [residuals, Q], residuals = r/|c|; complex
    # columns stack their real parts over their imaginary ones
    rhs = np.stack(columns, axis=-1)
    if np.iscomplexobj(rhs):
        rhs = np.concatenate([rhs.real, rhs.imag], axis=1)
    n = rhs.shape[1]
    gram.reshape(len(gram), -1)[:, ::n + 1] += (eps * norms)[:, None]
    z = np.linalg.solve(gram, rhs)
    # z_r - Z_q mu, off Q
    qz = rhs[:, :, 1:].swapaxes(-1, -2) @ z  # (R, m, 1 + m)
    if len(columns) == 2:
        mu = qz[:, :, :1] / qz[:, :, 1:]
    else:
        mu = np.linalg.solve(qz[:, :, 1:], qz[:, :, :1])
    x = (z[:, :, :1] - z[:, :, 1:] @ mu)[..., 0]
    x *= 0.5 * norms[:, None]
    if np.iscomplexobj(coeffs):
        half = coeffs.shape[-1]
        return x[:, :half] - 1j * x[:, half:]
    return x


class MlpAnsatz:
    """Neural coefficients c_C = exp(net(x_C)), complex with two outputs."""

    def __init__(self, h: HamiltonianMatrix, hidden=(64, 32),
                 complex_mode: bool = False, raw_features: bool = False):
        self.features = feature_matrix(h.basis, raw=raw_features)
        self.sizes = (self.features.shape[1],) + tuple(hidden)
        self.complex_mode = complex_mode
        self._template = neural.MlpParams.initialize(
            self.sizes, outputs=2 if complex_mode else 1, rng=0)
        self.n_params = self._template.n_params

    def initial_vector(self, rng) -> np.ndarray:
        return neural.MlpParams.initialize(
            self.sizes, self._template.n_outputs, rng).flat

    def coefficients(self, thetas):
        """Coefficients (R, B) of the members' parameters (R, P)."""
        out, _ = neural.mlp_forward(self._template.with_flat(thetas),
                                    self.features)
        return neural.output_to_coefficient(out)

    def energy_gradient(self, thetas, h: HamiltonianMatrix, width=None):
        """Energies (R,), dE/dtheta (R, P), coefficients (R, B), energy
        variances (R,) and None for the members' parameters (R, P), from
        one network pass over all. Given the spectral ``width``, the
        natural-gradient step replaces dE/dtheta, and its dampings (R,)
        replace None."""
        params = self._template.with_flat(thetas)
        out, cache = neural.mlp_forward(params, self.features)
        c = neural.output_to_coefficient(out)
        gram = None if width is None \
            else neural.coefficient_gram(params, cache, c)
        energies, y, variances, eps = _residuals(c, h, gram, width)
        yc = y * c
        if self.complex_mode:
            upstream = np.stack([2.0 * yc.real, -2.0 * yc.imag], axis=-1)
        else:
            upstream = (2.0 * yc)[..., None]
        grad = neural.mlp_backward(params, cache, upstream)
        return energies, grad, c, variances, eps

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
        return qc.init_params(self.kind, self.layers, rng,
                              n_features=self.n_features).values

    def coefficients(self, thetas):
        """Coefficients (R, B) of the members' parameters (R, P)."""
        return qc.weights(self.kind, qc.finite_values(thetas), self.features,
                          self.complex_mode)

    def energy_gradient(self, thetas, h: HamiltonianMatrix, width=None):
        """Energies (R,), dE/dtheta (R, P), coefficients (R, B), energy
        variances (R,) and None for the members' parameters (R, P), from
        one kernel call. Given the spectral ``width``, the natural-gradient
        step replaces dE/dtheta, and its dampings (R,) replace None."""
        c, jac = qc.weights_and_jacobian(self.kind, qc.finite_values(thetas),
                                         self.features, self.complex_mode)
        gram = None
        if width is not None:
            rows = jac if not self.complex_mode else np.concatenate(
                [jac.real, jac.imag], axis=1)
            gram = rows @ rows.swapaxes(-1, -2)
        energies, y, variances, eps = _residuals(c, h, gram, width)
        # a stacked matmul rounds as each member's y @ J; einsum does not
        grad = 2.0 * (y[:, None] @ jac)[:, 0].real
        return energies, grad, c, variances, eps

    def export(self, theta) -> str:
        return qc.to_json(
            qc.CircuitParams(self.kind, self.layers, theta, self.n_features))


def train(ansatz, h: HamiltonianMatrix, cfg: TrainConfig,
          ground: GroundState | None = None) -> TrainResult:
    """Full-basis natural-gradient minimization of the Rayleigh energy.

    Single-qubit landscapes have local minima, so ``cfg.restarts`` members
    start from seeds ``seed, seed+1, ...`` and train together as one
    population, in one loop over the iterates. Each iterate's energies and
    variances are recorded, checked, kept if best and bounded by the same
    code. Every iterate but the last comes from one ``energy_gradient``
    call and moves the (R, P) parameters by theta -= min(eta, MAX_STEP/|d|)
    d for each member's step d, damped by the :func:`damping` that the call
    returns, of the width w = :func:`spectral_width` of the Gershgorin
    bound G and the ground energy E0; eta is ``cfg.learning_rate``, or, if
    that is None, STABLE_RATE/w. The last one comes from ``coefficients`` and takes
    no step: it is iterate ``cfg.steps``, or the one after the first
    iterate where some member's energy E and variance sigma^2 give E < ell
    and sigma^2/(ell - E) <= CERTIFIED_GAP. E0 and ell are the energy and
    ``excited_lower`` of ``ground``, by default ``ground_state(h)``. Each
    member follows the trajectory it would follow alone.

    The steps need not lower the energy, so each member keeps its
    lowest-energy iterate, not its last; the lowest of those wins, the
    lowest seed on a tie. The result's Temple bound is the highest one of
    any iterate. If any member's energy turns non-finite,
    ``TrainingDiverged`` carries the trace of the lowest-index such member,
    up to and including that energy. The result records eta, G and the
    damping of the winner's last step. Deterministic for a fixed config.
    """
    if not h.is_real and not ansatz.complex_mode:
        raise ValueError("complex Hamiltonian needs a complex-mode ansatz")
    if ground is None:
        ground = ground_state(h)
    excited_lower = ground.excited_lower
    upper = gershgorin_upper_bound(h)
    width = spectral_width(h, upper, ground.energy)
    eta = cfg.learning_rate
    if eta is None:
        eta = STABLE_RATE / width
    seeds = range(cfg.seed, cfg.seed + cfg.restarts)
    theta = np.array([ansatz.initial_vector(np.random.default_rng(seed))
                      for seed in seeds])
    energies = np.empty((cfg.restarts, cfg.steps + 1))
    best_energy, best_theta = np.full(cfg.restarts, np.inf), theta.copy()
    best_variance = np.full(cfg.restarts, np.nan)
    eps = np.full(cfg.restarts, np.nan)  # each member's last damping
    bound, stopped_on = -math.inf, "step cap"
    for step in range(cfg.steps + 1):
        last = step == cfg.steps or stopped_on == "certificate"
        if last:
            energy, _, variance, _ = _residuals(ansatz.coefficients(theta), h)
        else:
            energy, direction, _, variance, eps = ansatz.energy_gradient(
                theta, h, width=width)
        energies[:, step] = energy
        certified = False
        for k, (e, v, best) in enumerate(zip(
                energy.tolist(), variance.tolist(), best_energy.tolist())):
            if not math.isfinite(e):
                when = "the final step" if last else f"step {step + 1}"
                raise TrainingDiverged(
                    f"energy of the restart from seed {seeds[k]} became "
                    f"non-finite at {when}", energies[k, :step + 1].copy())
            if e < best:
                best_energy[k], best_variance[k] = e, v
                best_theta[k] = theta[k]
            # Temple: E - sigma^2/(ell - E) <= E_0, if E < ell
            gap = v / (excited_lower - e) if e < excited_lower else math.inf
            bound = max(bound, e - gap)
            certified |= gap <= CERTIFIED_GAP
        if last:
            break
        rate = [min(eta, MAX_STEP / size) if size else eta
                for size in np.linalg.norm(direction, axis=1).tolist()]
        direction *= np.array(rate)[:, None]
        theta -= direction
        if certified:
            stopped_on = "certificate"
    win = int(np.argmin(best_energy))  # the first of equal minima
    return TrainResult(best_theta[win], energies[win, :step + 1],
                       seeds[win], float(best_energy[win]),
                       float(best_variance[win]), float(bound),
                       float(excited_lower), stopped_on, eta, upper,
                       float(eps[win]))


def layer_study(kind: str, layer_counts, h: HamiltonianMatrix,
                cfg: TrainConfig, complex_mode: bool = False,
                raw_features: bool = False):
    """Train one circuit per layer count; returns [(layers, final_energy)]."""
    ground = ground_state(h)
    rows = []
    for layers in layer_counts:
        ansatz = CircuitAnsatz(h, kind, layers, complex_mode=complex_mode,
                               raw_features=raw_features)
        result = train(ansatz, h, cfg, ground)
        rows.append((int(layers), result.final_energy))
    return rows


def write_trace_csv(result: TrainResult, exact_energy: float, path) -> None:
    """Per-step CSV (step, energy, loss) with loss = exact - estimate."""
    energies = np.asarray(result.energies, dtype=float)
    losses = exact_energy - energies
    write_csv(path, ("step", "energy", "loss"),
              zip(range(energies.size), energies.tolist(), losses.tolist()))
