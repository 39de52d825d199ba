"""Single-qubit data-re-uploading circuits: parameters, weights, sampling.

Two circuit families share the interface. The "compressed" scheme packs the
features into triples and feeds each triple, combined with weights and a
shared bias, into a general single-qubit unitary (Rz-Ry-Rz Euler form); a
layer of M features applies M/3 such unitaries in order. The "quat" circuit
folds all features into one variable y = w.x + b per layer and applies
Rz(2y) followed by Ry(2*phi), the rotation angle phi acting like an
activation function. ``_kernels`` holds both layer layouts and evaluates
every circuit; this module checks one circuit's parameters and features,
shapes the kernel's outputs into weights, and serializes parameters.

The circuit output used as a wave-function weight is P(0) = (1+<sigma_z>)/2.
For complex coefficients the same final state also supplies <sigma_x> and the
weight becomes P(0) * exp(i*pi*<sigma_x>).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CircuitParams:
    """Flat layer-major variational parameters of one circuit, (P,); each
    layer holds ``_kernels.layer_size(kind, n_features)`` values."""

    kind: str
    layers: int
    values: np.ndarray
    n_features: int = 6

    def __post_init__(self):
        expected = param_count(self.kind, self.layers, self.n_features)
        values = finite_values(self.values)
        if values.ndim != 1:
            raise ValueError(f"values must be (P,), got {values.shape}")
        object.__setattr__(self, "values", values)
        if values.size != expected:
            raise ValueError(
                f"{self.kind} with {self.layers} layers of {self.n_features} "
                f"features needs {expected} values, got {values.size}"
            )

    @property
    def n_params(self) -> int:
        return self.values.size


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
    def frequency0(self) -> float:
        return self.count0 / self.shots


def weight_of(params: CircuitParams, features) -> float:
    """Wave-function weight P(0) = (1+<sigma_z>)/2 of the prepared state."""
    return float(batch_weights(params, np.reshape(features, (1, -1)))[0])


def complex_weight_of(params: CircuitParams, features) -> complex:
    """Complex weight P(0) * exp(i*pi*<sigma_x>), both on the same state."""
    return complex(batch_complex_weights(
        params, np.reshape(features, (1, -1)))[0])


def gradient(params: CircuitParams, features) -> np.ndarray:
    """Exact dP(0)/dtheta for every flat parameter (closed-form kernel)."""
    return batch_weights_and_jacobian(
        params, np.reshape(features, (1, -1)))[1][0]


def batch_weights(params: CircuitParams, features_matrix) -> np.ndarray:
    """P(0) for every feature row, (B,)."""
    return weights(params.kind, params.values,
                   _check_matrix(params, features_matrix))


def batch_complex_weights(params: CircuitParams, features_matrix) -> np.ndarray:
    """Complex weights P(0) * exp(i*pi*<sigma_x>) for every feature row."""
    return weights(params.kind, params.values,
                   _check_matrix(params, features_matrix), complex_mode=True)


def batch_weights_and_jacobian(params: CircuitParams, features_matrix,
                               complex_mode: bool = False):
    """Coefficients and their parameter Jacobian for a feature batch.

    Real mode returns (c, J) with c = P(0) per row and J[b, k] = dc_b/dtheta_k.
    Complex mode returns the complex weights P(0)*exp(i*pi*<sigma_x>) and the
    matching complex Jacobian.
    """
    return weights_and_jacobian(params.kind, params.values,
                                _check_matrix(params, features_matrix),
                                complex_mode)


def weights(kind: str, values: np.ndarray, X: np.ndarray,
            complex_mode: bool = False) -> np.ndarray:
    """``batch_weights`` (or, in complex mode, ``batch_complex_weights``) on
    inputs the caller has checked: finite float ``values`` (P,) or (R, P) in
    ``kind``'s layout for the (B, nf) float features ``X``, giving (B,) or
    (R, B). The kernel computes <sigma_x> only in complex mode."""
    p0, sx, _, _ = _rows(kind, values, X, False, complex_mode)
    return _complex(p0, sx)[0] if complex_mode else p0


def weights_and_jacobian(kind: str, values: np.ndarray, X: np.ndarray,
                         complex_mode: bool = False):
    """``batch_weights_and_jacobian`` on inputs checked as for ``weights``;
    real mode forms the one Jacobian dP(0)/dtheta."""
    p0, sx, dp0, dsx = _rows(kind, values, X, True, complex_mode)
    if not complex_mode:
        return p0, dp0
    c, phase = _complex(p0, sx)
    return c, phase[..., None] * (dp0 + 1j * np.pi * p0[..., None] * dsx)


def _complex(p0, sx):
    """The complex coefficients P(0) * exp(i*pi*<sigma_x>) and their phases."""
    phase = np.exp(1j * np.pi * sx)
    return p0 * phase, phase


def _rows(kind: str, values: np.ndarray, X: np.ndarray, want_grad: bool,
          want_sx: bool):
    """The kernel's outputs as (B,) and (B, P), or (R, B) and (R, B, P);
    what the kernel did not compute stays None. The package's one call
    into ``_kernels.circuit_batch``."""
    rows = values.shape[:-1] + (X.shape[0],)
    return [None if out is None else out.reshape(rows + out.shape[1:])
            for out in _kernels.circuit_batch(kind, values, X, want_grad,
                                              want_sx)]


def sample(params: CircuitParams, features, shots: int, rng) -> ShotResult:
    """Finite-shot measurement: count0 ~ Binomial(shots, P(0))."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(rng)
    p0 = min(max(weight_of(params, features), 0.0), 1.0)
    return ShotResult(shots, int(rng.binomial(shots, p0)))


def init_params(kind: str, layers: int, rng, scale: float = 0.1,
                n_features: int = 6) -> CircuitParams:
    """Uniform initialization in [-scale, scale]."""
    count = param_count(kind, layers, n_features)
    rng = np.random.default_rng(rng)
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
    if not isinstance(data, dict) or data.get("format") != "bosehub-circuit":
        raise ValueError("not a circuit parameter document")
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported version {data.get('version')}")
    return CircuitParams(data["kind"], data["layers"], data["values"],
                         data["n_features"])


def param_count(kind: str, layers: int, n_features: int) -> int:
    """Flat parameter count of a circuit; raises on an unknown kind, a
    feature count the kind cannot take, or a negative layer count."""
    per = _kernels.layer_size(kind, n_features)
    if layers < 0:
        raise ValueError(f"layer count must be >= 0, got {layers}")
    return layers * per


def finite_values(values) -> np.ndarray:
    """``values`` as a float array; raises unless every entry is finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("parameters must be finite")
    return values


def _check_matrix(params: CircuitParams, features_matrix) -> np.ndarray:
    X = np.atleast_2d(np.asarray(features_matrix, dtype=float))
    if X.shape[1] != params.n_features:
        raise ValueError(
            f"expected {params.n_features} feature columns, got {X.shape[1]}"
        )
    return X
