"""Single-qubit circuit kernel: one gate table, one forward sweep.

Both Ansatz kinds are sequences of Rz/Ry rotations whose angles are linear
in the flat parameters, and every layer has the same gates. ``gate_table``
describes one layer for a batch of B circuits: an axis flag per gate, shape
(g,), and a map ``block`` of shape (B, g, per) from the layer's ``per``
parameters to its gate angles. It is the only code that knows each kind's
layer layout:

* compressed: ``nf`` gates per layer; gate ``fi`` is an Ry when
  ``fi % 3 == 1`` and an Rz otherwise, at angle ``b + w_fi * x_fi``;
* quat: ``Rz(2 (w.x + b))`` then ``Ry(2 phi)`` per layer.

``_sweep`` runs the gates forward on |0> and, with gradients, stores the
state psi_g after every gate. Ry and Rz have determinant 1, so each prefix
P_g = U_g ... U_1 is in SU(2) and fixed by psi_g = P_g|0>:
P_g = [[psi_g0, -conj psi_g1], [psi_g1, conj psi_g0]]. The gates after g are
P_G P_g^dag, which gives dP(0)/dtheta_g and d<sigma_x>/dtheta_g for every gate
in closed form, with no backward pass (the per-gate terms of adjoint
differentiation, Jones & Gacon, arXiv:2009.02823). A gate outside SU(2) would
break this. Contracting each layer's slice with ``block`` gives the Jacobians.

Kernel contract: ``(p0, sx, dp0, dsx) = circuit_batch(kind, values,
features, want_grad)`` where ``p0`` is P(0)=|amp0|^2 per batch row, ``sx``
the sigma_x expectation on the same final state, and ``dp0``/``dsx`` their
exact derivatives with respect to every flat parameter (zeros without
``want_grad``).
"""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Kernel implementation; there is one, vectorized numpy."""
    return "numpy"


def gate_table(kind: str, n_params: int, X: np.ndarray):
    """One layer's axis flags (g,), True for Ry, its angle map (B, g, per),
    and the layer count."""
    B, nf = X.shape
    if kind == "compressed":
        if nf % 3 != 0:
            raise ValueError(
                f"compressed circuits need a feature count divisible by 3, "
                f"got {nf}")
        per = nf + 1
        block = np.zeros((B, nf, per))
        block[:, np.arange(nf), np.arange(nf)] = X
        block[:, :, nf] = 1.0
        layer_axes = np.arange(nf) % 3 == 1
    elif kind == "quat":
        per = nf + 2
        block = np.zeros((B, 2, per))
        block[:, 0, :nf] = 2.0 * X
        block[:, 0, nf] = 2.0
        block[:, 1, nf + 1] = 2.0
        layer_axes = np.array([False, True])
    else:
        raise ValueError(f"unknown circuit kind {kind!r}")
    if n_params % per != 0:
        raise ValueError(
            f"{kind} layers of {nf} features hold {per} values each, "
            f"got {n_params}")
    return layer_axes, block, n_params // per


def _sweep(axes: np.ndarray, theta: np.ndarray, want_grad: bool):
    """Apply the gates at angles ``theta`` (B, G) to |0>.

    Returns ``(p0, sx, dtheta)`` where ``dtheta`` (B, 2, G) stacks
    dP(0)/dtheta_g and d<sigma_x>/dtheta_g, or is None without ``want_grad``.
    """
    B, G = theta.shape
    half = 0.5 * theta.T
    # gate-major (G, B): Ry = [[c, -s], [s, c]], Rz = diag(ph, conj(ph))
    c, s = np.cos(half), np.sin(half)
    ph = c - 1j * s
    phc = np.conj(ph)
    a0 = np.ones(B, np.complex128)
    a1 = np.zeros(B, np.complex128)
    if want_grad:
        st0 = np.empty((G, B), np.complex128)
        st1 = np.empty((G, B), np.complex128)
    for g in range(G):
        if axes[g]:
            a0, a1 = c[g] * a0 - s[g] * a1, s[g] * a0 + c[g] * a1
        else:
            a0, a1 = ph[g] * a0, phc[g] * a1
        if want_grad:
            st0[g], st1[g] = a0, a1
    p0 = np.abs(a0) ** 2
    sx = 2.0 * np.real(np.conj(a0) * a1)
    if not want_grad:
        return p0, sx, None
    # d psi / d theta_g = P_G P_g^dag w, w = (-i/2 sigma_g) psi_g with sigma_g
    # = Y or Z; P_g = [[st0, -conj st1], [st1, conj st0]], P_G from (a0, a1)
    ry = axes[:, None]
    w0 = np.where(ry, -0.5 * st1, -0.5j * st0)
    w1 = np.where(ry, 0.5 * st0, 0.5j * st1)
    v0 = np.conj(st0) * w0 + np.conj(st1) * w1
    v1 = st0 * w1 - st1 * w0
    d0 = a0 * v0 - np.conj(a1) * v1
    d1 = a1 * v0 + np.conj(a0) * v1
    dtheta = np.empty((B, 2, G))
    dtheta[:, 0] = (2.0 * np.real(np.conj(a0) * d0)).T
    dtheta[:, 1] = (2.0 * np.real(np.conj(a1) * d0 + np.conj(a0) * d1)).T
    return p0, sx, dtheta


def circuit_batch(kind: str, values: np.ndarray, features: np.ndarray,
                  want_grad: bool = True):
    """Evaluate a batch of circuits and (optionally) their Jacobians.

    Returns ``(p0, sx, dp0, dsx)`` with shapes (B,), (B,), (B,P), (B,P).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    layer_axes, block, layers = gate_table(kind, values.size, X)
    B, g, per = block.shape
    # theta[b, l*g + k] = block[b, k] . values of layer l
    theta = (block @ values.reshape(layers, per).T).transpose(0, 2, 1)
    p0, sx, dtheta = _sweep(np.tile(layer_axes, layers),
                            theta.reshape(B, layers * g), want_grad)
    if dtheta is None:
        shape = (B, values.size)
        return p0, sx, np.zeros(shape), np.zeros(shape)
    # einsum('bklg,bgp->bklp', dtheta, block) over each layer's gates
    jac = dtheta.reshape(B, 2, layers, g) @ block[:, None]
    jac = jac.reshape(B, 2, values.size)
    return p0, sx, jac[:, 0], jac[:, 1]
