"""Reference circuit kernel: the gate-table kernel as it was before its
angles became one matrix product and its Jacobian an elementwise form.

``circuit_batch`` has ``bosehub._kernels.circuit_batch``'s contract and
computes every output the old way: the angles as R·B small products of a
(layers, per) parameter block with a (per, g) angle map, and the Jacobians as
R·B·k small products of a (layers, g) slice of the gate derivatives with the
(g, per) map. The fast kernel must return the same bytes. Its tables are
built on every call. It imports no bosehub module.
"""
from __future__ import annotations

import numpy as np


def layer_size(kind: str, nf: int) -> int:
    """Parameters per layer of ``nf`` features: compressed layers hold
    (w_0..w_{nf-1}, b), quat layers (w_0..w_{nf-1}, b, phi)."""
    if kind == "compressed":
        if nf % 3 != 0:
            raise ValueError(
                f"compressed circuits need a feature count divisible by 3, "
                f"got {nf}")
        return nf + 1
    if kind == "quat":
        return nf + 2
    raise ValueError(f"unknown circuit kind {kind!r}")


def _tables(kind: str, n_params: int, R: int, shape: tuple, data: bytes):
    """Everything R circuits of ``kind`` with ``n_params`` parameters on the
    float64 feature rows ``data`` (B, nf) need besides their angles: one
    layer's angle map ``block`` (B, g, per), as its two contraction views,
    the layer count, and the ``_Sweep`` of all their gates."""
    X = np.frombuffer(data).reshape(shape)
    B, nf = shape
    per = layer_size(kind, nf)
    if n_params % per != 0:
        raise ValueError(
            f"{kind} layers of {nf} features hold {per} values each, "
            f"got {n_params}")
    if kind == "compressed":
        block = np.zeros((B, nf, per))
        block[:, np.arange(nf), np.arange(nf)] = X
        block[:, :, nf] = 1.0
        layer_axes = tuple(fi % 3 == 1 for fi in range(nf))
    else:
        block = np.zeros((B, 2, per))
        block[:, 0, :nf] = 2.0 * X
        block[:, 0, nf] = 2.0
        block[:, 1, -1] = 2.0
        layer_axes = (False, True)
    layers = n_params // per
    return (block.transpose(0, 2, 1), block[None, :, None], layers,
            _Sweep(layer_axes * layers, R * B))


class _Sweep:
    """The angle-independent part of a sweep of the axis pattern ``axes``
    over ``rows`` circuits: the merge map of ``_layout``, where each gate's
    derivative sits, scratch buffers, and the views of them that the sweep
    reads and writes."""

    def __init__(self, axes: tuple, rows: int):
        gate_slot, self.merge = _layout(axes)
        pairs = self.merge.shape[0] // 2
        # slot half angles, and cos and sin of pair k's Rz (slot 2k) and
        # Ry (slot 2k + 1) half angles
        self.half = np.empty((2 * pairs, rows))
        cos, sin = np.empty((2, 2 * pairs, rows))
        self.cos, self.sin = cos, sin
        self.trig = cos[::2], sin[::2], cos[1::2], sin[1::2]
        # e^{-i alpha/2} per pair, as one complex array and its two parts
        self.e = np.empty((pairs, rows), np.complex128)
        self.e_parts = self.e.real, self.e.imag
        # pair k's matrix by columns, pair[k, j, i] = u_ij: the views of
        # p, q, (q, p), the second column and -conj q
        pair = np.empty((pairs, 2, 2, rows), np.complex128)
        self.pair = (pair[:, 0, 0], pair[:, 0, 1], pair[:, 0, ::-1],
                     pair[:, 1], pair[:, 1, 0])
        # the state at every pair boundary, |0> first, with the final state
        # and the states before and after each pair
        st = np.empty((pairs + 1, 2, rows), np.complex128)
        st[0, 0], st[0, 1] = 1.0, 0.0
        self.states = (*st[-1], st[:-1, 0], st[:-1, 1], st[1:, 0], st[1:, 1])
        # one step's terms[j, i] = u_ij psi_j, summed over j
        self.terms = np.empty((2, 2, rows), np.complex128)
        self.steps = [(cur[:, None], nxt, u)
                      for cur, nxt, u in zip(st, st[1:], pair)]
        # v1 of every slot, Rz slots first: slot 2k + a sits at a * pairs + k
        self.v1 = np.empty((2, pairs, rows), np.complex128)
        self.v1_rows = self.v1.reshape(2 * pairs, rows).T[:, None]
        self.gate_v1 = gate_slot % 2 * pairs + gate_slot // 2


def _layout(axes: tuple):
    """Runs and pair slots of one axis pattern, True for Ry.

    Adjacent same-axis gates form a run, and the runs fill slots that
    alternate Rz, Ry from an Rz: slot 2k is the Rz of pair k and slot 2k + 1
    its Ry. A pattern that opens with an Ry leaves slot 0 empty, and an odd
    run count ends on an empty Ry; an empty slot is a rotation by 0, the
    identity. Returns each gate's slot and the map (slots, G) from gate
    angles to slot half angles.
    """
    flags = np.array(axes, dtype=bool)
    new_run = np.ones(flags.size, dtype=bool)
    new_run[1:] = flags[1:] != flags[:-1]
    gate_slot = np.cumsum(new_run) - 1 + flags[:1].sum()
    used = gate_slot[-1] + 1 if flags.size else 0
    merge = np.zeros((used + used % 2, flags.size))
    merge[gate_slot, np.arange(flags.size)] = 0.5
    gate_slot.setflags(write=False)
    merge.setflags(write=False)
    return gate_slot, merge


def _sweep(plan: _Sweep, theta: np.ndarray, want_grad: bool,
           want_sx: bool = True):
    """Apply the gates of ``plan`` at angles ``theta`` (B, G) to |0>.

    Returns ``(p0, sx, dtheta)`` where ``dtheta`` (B, k, G) stacks
    dP(0)/dtheta_g and, with ``want_sx`` (k = 2), d<sigma_x>/dtheta_g; it is
    None without ``want_grad``, and ``sx`` is None without ``want_sx``.
    """
    # Rz(a) Rz(b) = Rz(a + b), and so for Ry: a run's angles add
    np.matmul(plan.merge, theta.T, out=plan.half)
    np.cos(plan.half, out=plan.cos)
    np.sin(plan.half, out=plan.sin)
    cz, sz, cy, sy = plan.trig
    # Ry(beta) Rz(alpha) = [[p, -conj q], [q, conj p]] per row, with
    # (p, q) = (cos beta/2, sin beta/2) e^{-i alpha/2}. e^{-i alpha/2} is
    # written part by part: its imaginary part is 0 - sin, +0 where sin is
    # +-0, bit for bit what cos - 1j * sin gives
    e, (e_re, e_im) = plan.e, plan.e_parts
    p, q, qp, col1, u01 = plan.pair
    np.copyto(e_re, cz)
    np.subtract(0.0, sz, out=e_im)
    np.multiply(cy, e, out=p)
    np.multiply(sy, e, out=q)
    np.conj(qp, out=col1)
    u01 *= -1.0
    # the state at every pair boundary: psi'_i = u_i0 psi_0 + u_i1 psi_1
    terms = plan.terms
    t0, t1 = terms
    for cur, nxt, u in plan.steps:
        np.multiply(u, cur, out=terms)
        np.add(t0, t1, out=nxt)
    a0, a1, before0, before1, after0, after1 = plan.states
    p0 = np.abs(a0) ** 2
    sx = 2.0 * np.real(np.conj(a0) * a1) if want_sx else None
    if not want_grad:
        return p0, sx, None
    # per slot: a pair's Rz reads the state before the pair, its Ry the
    # state after; v1 as in the module docstring, where Re v0 = 0
    vz, vy = plan.v1
    np.multiply(1j, before0, out=vz)
    np.multiply(vz, before1, out=vz)
    np.square(after0, out=vy)
    np.add(vy, np.square(after1, out=e), out=vy)
    np.multiply(0.5, vy, out=vy)
    # dP(0) = Re(alpha v1), d<sigma_x> = Re(beta v1), per row (alpha, beta)
    ca0, ca1 = np.conj(a0), np.conj(a1)
    alpha = -2.0 * ca0 * ca1
    coef = (np.stack((alpha, 2.0 * (ca0 ** 2 - ca1 ** 2)), axis=1) if want_sx
            else alpha[:, None])
    dslot = np.real(coef[:, :, None] * plan.v1_rows)
    return p0, sx, dslot[:, :, plan.gate_v1]


def circuit_batch(kind: str, values: np.ndarray, features: np.ndarray,
                  want_grad: bool = True, want_sx: bool = True):
    """Evaluate R circuits on B feature rows and (optionally) their Jacobians.

    ``values`` is (P,) for R = 1 or (R, P). Returns ``(p0, sx, dp0, dsx)``
    with shapes (R·B,), (R·B,), (R·B, P), (R·B, P), member-major; ``dp0``
    and ``dsx`` are None without ``want_grad``, ``sx`` and ``dsx`` without
    ``want_sx``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    R, P = values.shape
    block_t, block_j, layers, plan = _tables(kind, P, R, X.shape,
                                             X.tobytes())
    B, per, g = block_t.shape
    # theta[r, b, l*g + k] = values[r] of layer l . block[b, k]
    theta = values.reshape(R, 1, layers, per) @ block_t
    p0, sx, dtheta = _sweep(plan, theta.reshape(R * B, layers * g),
                            want_grad, want_sx)
    if dtheta is None:
        return p0, sx, None, None
    # einsum('rbklg,bgp->rbklp', dtheta, block) over each layer's gates
    k = dtheta.shape[1]
    jac = dtheta.reshape(R, B, k, layers, g) @ block_j
    jac = jac.reshape(R * B, k, P)
    return p0, sx, jac[:, 0], jac[:, 1] if want_sx else None
