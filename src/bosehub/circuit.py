"""Single-qubit data-re-uploading circuits: states, layers, readout, sampling.

Two circuit families share the interface. The "compressed" scheme packs the
features into triples and feeds each triple, combined with weights and a
shared bias, into a general single-qubit unitary (Rz-Ry-Rz Euler form); a
layer of M features applies M/3 such unitaries in order. The "quat" circuit
folds all features into one variable y = w.x + b per layer and applies
Rz(2y) followed by Ry(2*phi), the rotation angle phi acting like an
activation function.

The circuit output used as a wave-function weight is P(0) = (1+<sigma_z>)/2.
For complex coefficients the same final state also supplies <sigma_x> and the
weight becomes P(0) * exp(i*pi*<sigma_x>). A signed readout variant
(<sigma_z> itself in [-1, 1]) is available through ``readout="sz"`` on the
batch helpers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels

PARAMS_PER_LAYER = {"compressed": lambda nf: nf + 1, "quat": lambda nf: nf + 2}
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Qstate:
    """Normalized single-qubit amplitudes."""

    amp0: complex
    amp1: complex

    def __post_init__(self):
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1")

    @property
    def prob0(self) -> float:
        return abs(self.amp0) ** 2

    @property
    def sigma_z(self) -> float:
        return abs(self.amp0) ** 2 - abs(self.amp1) ** 2

    @property
    def sigma_x(self) -> float:
        return 2.0 * (np.conj(self.amp0) * self.amp1).real


ZERO = Qstate(1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class CircuitParams:
    """Flat layer-major variational parameters of one circuit.

    Compressed layers hold (w_0..w_{M-1}, b); quat layers hold
    (w_0..w_{M-1}, b, phi).
    """

    kind: str
    layers: int
    values: np.ndarray
    n_features: int = 6

    def __post_init__(self):
        if self.kind not in PARAMS_PER_LAYER:
            raise ValueError(f"unknown circuit kind {self.kind!r}")
        _check_layers(self.layers)
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=float).ravel()
        )
        expected = self.layers * PARAMS_PER_LAYER[self.kind](self.n_features)
        if self.values.size != expected:
            raise ValueError(
                f"{self.kind} with {self.layers} layers of {self.n_features} "
                f"features needs {expected} values, got {self.values.size}"
            )
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("parameters must be finite")

    @property
    def n_params(self) -> int:
        return self.values.size

    def layer(self, index: int):
        """(weights, bias) or (weights, bias, phi) of one layer."""
        per = PARAMS_PER_LAYER[self.kind](self.n_features)
        chunk = self.values[index * per:(index + 1) * per]
        if self.kind == "compressed":
            return chunk[:-1], float(chunk[-1])
        return chunk[:-2], float(chunk[-2]), float(chunk[-1])


@dataclass(frozen=True)
class ShotResult:
    """Counts from repeated computational-basis measurements."""

    shots: int
    count0: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0 <= self.count0 <= self.shots:
            raise ValueError("count0 out of range")

    @property
    def count1(self) -> int:
        return self.shots - self.count0

    @property
    def frequency0(self) -> float:
        return self.count0 / self.shots


def rot(state: Qstate, alpha: float, beta: float, gamma: float) -> Qstate:
    """General unitary U = Rz(gamma) Ry(beta) Rz(alpha), rightmost first."""
    a0, a1 = _rz(state.amp0, state.amp1, alpha)
    a0, a1 = _ry(a0, a1, beta)
    a0, a1 = _rz(a0, a1, gamma)
    return Qstate(a0, a1)


def compressed_layer_args(features, weights, bias: float) -> np.ndarray:
    """Angle triples (b + w_i x_i) grouped three features at a time.

    The same bias enters every slot. Shape (M/3, 3); the feature count must
    be divisible by three.
    """
    x = np.asarray(features, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.size != w.size:
        raise ValueError("features and weights must have equal length")
    if x.size % 3 != 0:
        raise ValueError(f"feature count {x.size} is not divisible by 3")
    return (bias + w * x).reshape(-1, 3)


def compressed_layer(state: Qstate, features, weights, bias: float) -> Qstate:
    """Apply one compressed layer: the triple-0 unitary, then triple-1, ..."""
    for alpha, beta, gamma in compressed_layer_args(features, weights, bias):
        state = rot(state, alpha, beta, gamma)
    return state


def quat_layer(state: Qstate, features, weights, bias: float,
               phi: float) -> Qstate:
    """Apply Ry(2*phi) Rz(2*(w.x + b)), the Rz acting first."""
    y = float(np.dot(np.asarray(weights, float), np.asarray(features, float))
              + bias)
    a0, a1 = _rz(state.amp0, state.amp1, 2.0 * y)
    a0, a1 = _ry(a0, a1, 2.0 * phi)
    return Qstate(a0, a1)


def run_circuit(params: CircuitParams, features) -> Qstate:
    """Apply all layers to |0> and return the final state."""
    x = _check_features(params, features)
    state = ZERO
    for layer in range(params.layers):
        if params.kind == "compressed":
            w, b = params.layer(layer)
            state = compressed_layer(state, x, w, b)
        else:
            w, b, ph = params.layer(layer)
            state = quat_layer(state, x, w, b, ph)
    return state


def weight_of(params: CircuitParams, features) -> float:
    """Wave-function weight P(0) = (1+<sigma_z>)/2 of the prepared state."""
    x = _check_features(params, features)
    p0, _, _, _ = _kernels.circuit_batch(params.kind, params.values,
                                         x[None, :], want_grad=False)
    return float(p0[0])


def complex_weight_of(params: CircuitParams, features) -> complex:
    """Complex weight P(0) * exp(i*pi*<sigma_x>), both on the same state."""
    x = _check_features(params, features)
    p0, sx, _, _ = _kernels.circuit_batch(params.kind, params.values,
                                          x[None, :], want_grad=False)
    return complex(p0[0] * np.exp(1j * np.pi * sx[0]))


def gradient(params: CircuitParams, features) -> np.ndarray:
    """Exact dP(0)/dtheta for every flat parameter (closed-form kernel)."""
    x = _check_features(params, features)
    _, _, dp0, _ = _kernels.circuit_batch(params.kind, params.values,
                                          x[None, :], want_grad=True)
    return dp0[0].copy()


def batch_weights(params: CircuitParams, features_matrix,
                  readout: str = "p0") -> np.ndarray:
    """P(0) (or <sigma_z> with readout="sz") for every feature row."""
    X = _check_matrix(params, features_matrix)
    p0, _, _, _ = _kernels.circuit_batch(params.kind, params.values, X,
                                         want_grad=False)
    return _apply_readout(p0, readout)


def batch_complex_weights(params: CircuitParams, features_matrix) -> np.ndarray:
    """Complex weights P(0) * exp(i*pi*<sigma_x>) for every feature row."""
    X = _check_matrix(params, features_matrix)
    p0, sx, _, _ = _kernels.circuit_batch(params.kind, params.values, X,
                                          want_grad=False)
    return p0 * np.exp(1j * np.pi * sx)


def batch_weights_and_jacobian(params: CircuitParams, features_matrix,
                               complex_mode: bool = False,
                               readout: str = "p0"):
    """Coefficients and their parameter Jacobian for a feature batch.

    Real mode returns (c, J) with c = P(0) per row and J[b, k] = dc_b/dtheta_k.
    Complex mode returns the complex weights P(0)*exp(i*pi*<sigma_x>) and the
    matching complex Jacobian.
    """
    X = _check_matrix(params, features_matrix)
    p0, sx, dp0, dsx = _kernels.circuit_batch(params.kind, params.values, X,
                                              want_grad=True)
    if not complex_mode:
        return _apply_readout(p0, readout), _apply_readout_grad(dp0, readout)
    phase = np.exp(1j * np.pi * sx)
    c = p0 * phase
    jac = phase[:, None] * (dp0 + 1j * np.pi * p0[:, None] * dsx)
    return c, jac


def sample(params: CircuitParams, features, shots: int, rng) -> ShotResult:
    """Finite-shot measurement: count0 ~ Binomial(shots, P(0))."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    p0 = min(max(weight_of(params, features), 0.0), 1.0)
    return ShotResult(shots, int(rng.binomial(shots, p0)))


def init_params(kind: str, layers: int, rng, scale: float = 0.1,
                n_features: int = 6) -> CircuitParams:
    """Uniform initialization in [-scale, scale]."""
    _check_layers(layers)
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    count = layers * PARAMS_PER_LAYER[kind](n_features)
    return CircuitParams(kind, layers, rng.uniform(-scale, scale, count),
                         n_features)


def to_json(params: CircuitParams) -> str:
    """Version-tagged serialization; floats round-trip bit-exactly."""
    return json.dumps({
        "format": "bosehub-circuit",
        "version": _FORMAT_VERSION,
        "kind": params.kind,
        "layers": params.layers,
        "n_features": params.n_features,
        "values": params.values.tolist(),
    })


def from_json(text: str) -> CircuitParams:
    data = json.loads(text)
    if data.get("format") != "bosehub-circuit":
        raise ValueError("not a circuit parameter document")
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported version {data.get('version')}")
    return CircuitParams(data["kind"], data["layers"],
                         np.array(data["values"], dtype=float),
                         data["n_features"])


def _rz(a0, a1, theta):
    ph = np.exp(-0.5j * theta)
    return a0 * ph, a1 * np.conj(ph)


def _ry(a0, a1, theta):
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return c * a0 - s * a1, s * a0 + c * a1


def _check_features(params: CircuitParams, features) -> np.ndarray:
    x = np.asarray(features, dtype=float).ravel()
    if x.size != params.n_features:
        raise ValueError(
            f"expected {params.n_features} features, got {x.size}"
        )
    return x


def _check_layers(layers: int) -> None:
    if layers < 0:
        raise ValueError(f"layer count must be >= 0, got {layers}")


def _check_matrix(params: CircuitParams, features_matrix) -> np.ndarray:
    X = np.atleast_2d(np.asarray(features_matrix, dtype=float))
    if X.shape[1] != params.n_features:
        raise ValueError(
            f"expected {params.n_features} feature columns, got {X.shape[1]}"
        )
    return X


def _apply_readout(p0: np.ndarray, readout: str) -> np.ndarray:
    if readout == "p0":
        return p0
    if readout == "sz":
        return 2.0 * p0 - 1.0
    raise ValueError(f"unknown readout {readout!r}")


def _apply_readout_grad(dp0: np.ndarray, readout: str) -> np.ndarray:
    if readout == "p0":
        return dp0
    if readout == "sz":
        return 2.0 * dp0
    raise ValueError(f"unknown readout {readout!r}")
