"""Scalar reference for the single-qubit circuits, independent of bosehub.

It applies one gate at a time to a pair of amplitudes, written straight from
the circuit definitions: a compressed layer feeds feature triples into
Rz-Ry-Rz Euler unitaries with a shared bias, and a quat layer applies
Rz(2 (w.x + b)) and then Ry(2 phi). It keeps its own copy of each kind's
layer layout, (w, b) or (w, b, phi), so the gate-table kernel is checked
against code that shares nothing with it. It imports no bosehub module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def run_circuit(params, features) -> Qstate:
    """Apply all layers to |0> and return the final state.

    ``params`` is anything with a ``kind``, a ``layers`` count and flat
    layer-major ``values``: compressed layers hold (w_0..w_{M-1}, b), quat
    layers (w_0..w_{M-1}, b, phi) for M features.
    """
    x = np.asarray(features, dtype=float).ravel()
    per = {"compressed": x.size + 1, "quat": x.size + 2}[params.kind]
    values = np.asarray(params.values, dtype=float)
    if values.size != params.layers * per:
        raise ValueError(f"{params.layers} layers of {per} values each, "
                         f"got {values.size}")
    state = ZERO
    for layer in range(params.layers):
        chunk = values[layer * per:(layer + 1) * per]
        if params.kind == "compressed":
            state = compressed_layer(state, x, chunk[:-1], float(chunk[-1]))
        else:
            state = quat_layer(state, x, chunk[:-2], float(chunk[-2]),
                               float(chunk[-1]))
    return state


def _rz(a0, a1, theta):
    ph = np.exp(-0.5j * theta)
    return a0 * ph, a1 * np.conj(ph)


def _ry(a0, a1, theta):
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return c * a0 - s * a1, s * a0 + c * a1
