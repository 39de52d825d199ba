"""Single-qubit circuit kernel: one gate table, one forward sweep.

Both Ansatz kinds are sequences of Rz/Ry rotations whose angles are linear
in the flat parameters, and every layer has the same gates. This module is
the only code in the package that knows each kind's layer layout:
``layer_size`` gives the parameters per layer, and ``_tables`` describes
one layer for a batch of B circuits: an axis flag per gate, which of the g
gates each of the layer's ``per`` parameters moves (``feeds``, g x per, 0
or 1) and by how much on each feature row (``factor``, B x per). Their
product is the layer's angle map ``block``, g x B x per.

* compressed: ``nf`` gates per layer; gate ``fi`` is an Ry when
  ``fi % 3 == 1`` and an Rz otherwise, at angle ``b + w_fi * x_fi``;
* quat: ``Rz(2 (w.x + b))`` then ``Ry(2 phi)`` per layer.

The angles of all R·B circuits are one matrix product, (R·layers, per) @
(per, g·B), into the (R, G, B) layout from which each member's merge
product below reads its gates. A one-layer circuit keeps one
vector-matrix product per row instead: BLAS sums those in another order.

``_sweep`` runs the gates forward on |0> in Rz·Ry pairs. Adjacent same-axis
gates, also across a layer boundary, merge into one run, since
Rz(a) Rz(b) = Rz(a + b) and likewise for Ry; each gate's derivative is its
run's. The runs fill slots that alternate Rz, Ry from an Rz, with a
rotation by 0 (the identity) where a pattern needs padding, and each
Ry(beta) Rz(alpha) pair is one SU(2) matrix [[p, -conj q], [q, conj p]]
with (p, q) = (cos beta/2, sin beta/2) e^{-i alpha/2}. At six features, six
compressed layers (36 gates, 25 runs) take 13 steps and six quat layers 6.

Nothing of this but the angles changes during a training run: the kind,
the parameter count, the population size R and the features stay fixed.
So ``_tables`` builds, once per such call shape and keyed by the features'
content, the angle tables, ``feeds`` and ``factor``, the sweep layout
(``_layout``) and a ``_Sweep``: the scratch buffers of the angles, the pair
matrices, the boundary states and v1 below, with the views each step reads
and writes. A small bounded cache keeps the recent call shapes, and each
call does only the angle-dependent work. The scratch is all that is
reused: every array ``circuit_batch`` returns is freshly allocated, so a
later call leaves an earlier call's results alone. Two threads must not
run calls of one shape at the same time.

With gradients the sweep keeps the state at every pair boundary. A gate's
generator commutes with its rotation, so the derivative may read the state
just before the gate or just after it: a pair's Rz reads the state before
the pair and its Ry the state after. Ry and Rz have determinant 1, so each
such state psi = P|0> fixes its prefix P in SU(2), and the gates after it
are P_G P^dag. The final state then moves by P_G v with
v = P^dag (-i/2 sigma) psi, where Re v0 = 0 for both axes and
v1 = i psi0 psi1 for an Rz, (psi0^2 + psi1^2) / 2 for an Ry. With
(a0, a1) the final state, dP(0)/dtheta = Re(alpha v1) and
d<sigma_x>/dtheta = Re(beta v1) for every gate, with alpha = -2 conj(a0 a1)
and beta = 2 (conj(a0)^2 - conj(a1)^2) per row: closed forms, with no
backward pass (the per-gate terms of adjoint differentiation, Jones & Gacon,
arXiv:2009.02823). A gate outside SU(2) would break this. The Jacobians
are one product of all gates' derivatives with ``feeds``, times each row's
``factor``: the terms of the per-row products with ``block``, summed in
the same order.

Kernel contract: ``(p0, sx, dp0, dsx) = circuit_batch(kind, values,
features, want_grad, want_sx)`` where ``p0`` is P(0)=|amp0|^2 per batch row,
``sx`` the sigma_x expectation on the same final state, and ``dp0``/``dsx``
their exact derivatives with respect to every flat parameter (None without
``want_grad``). sigma_x is computed only on request: without ``want_sx``,
``sx`` and ``dsx`` are None and a gradient call forms the one Jacobian
``dp0`` (a real-mode training step needs no more). ``values`` is one
parameter vector (P,) or a population of R vectors (R, P) on the same B
feature rows; all R·B circuits run in one sweep, and the rows come back
flattened member-major: row ``r * B + b`` is member r on feature row b, and
``dp0``/``dsx`` are (R·B, P). Every row is computed as a single-vector call
computes it, so a population's rows equal R separate calls bit for bit. The
forward pass is the same with and without gradients or sigma_x, so ``p0``,
``sx`` and ``dp0`` are bitwise equal in every mode that returns them.
"""
from __future__ import annotations

import functools

import numpy as np


def backend() -> str:
    """Kernel implementation; there is one, vectorized numpy."""
    return "numpy"


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


@functools.lru_cache(maxsize=8)
def _tables(kind: str, n_params: int, R: int, shape: tuple, data: bytes):
    """Everything R circuits of ``kind`` with ``n_params`` parameters on the
    float64 feature rows ``data`` (B, nf) need besides their angles: the
    layer count; one layer's angle map, block[k, b, p] = feeds[k, p] *
    factor[b, p], as the (per, g·B) table of the angle product and, for a
    single layer, as one (per, g) map per row; ``feeds``; ``factor`` over
    all members and layers, (R·B, 1, P); and the ``_Sweep`` of all their
    gates."""
    X = np.frombuffer(data).reshape(shape)
    B, nf = shape
    per = layer_size(kind, nf)
    if n_params % per != 0:
        raise ValueError(
            f"{kind} layers of {nf} features hold {per} values each, "
            f"got {n_params}")
    if kind == "compressed":
        feeds = np.hstack([np.eye(nf), np.ones((nf, 1))])
        factor = np.hstack([X, np.ones((B, 1))])
        layer_axes = tuple(fi % 3 == 1 for fi in range(nf))
    else:
        feeds = np.zeros((2, per))
        feeds[0, :nf + 1] = feeds[1, -1] = 1.0
        factor = np.hstack([2.0 * X, np.full((B, 2), 2.0)])
        layer_axes = (False, True)
    # +0 where a parameter moves no gate (feeds * factor would give -0)
    block = np.where(feeds[:, None] == 1.0, factor, 0.0)
    g = len(layer_axes)
    layers = n_params // per
    return (layers, np.ascontiguousarray(block.reshape(g * B, per).T),
            block.transpose(1, 2, 0), feeds,
            np.tile(factor, (R, layers))[:, None],
            _Sweep(layer_axes * layers, R, B))


class _Sweep:
    """The angle-independent part of a sweep of the axis pattern ``axes``
    over R members on B rows each: the merge map of ``_layout``, where each
    gate's derivative sits, scratch buffers, and the views of them that the
    sweep reads and writes."""

    def __init__(self, axes: tuple, R: int, B: int):
        gate_slot, self.merge = _layout(axes)
        slots = self.merge.shape[0]
        pairs, rows = slots // 2, R * B
        # the gate angles, member by member, and the slot half angles, whose
        # rows are member-major: each member's merge product writes its own
        self.theta = np.empty((R, len(axes), B))
        self.half = np.empty((slots, rows))
        self.half_of = self.half.reshape(slots, R, B).transpose(1, 0, 2)
        # cos and sin of pair k's Rz (slot 2k) and Ry (slot 2k + 1) half
        # angles, and (cos, sin) of the Ry half angles
        trig = np.empty((2, slots, rows))
        self.cos, self.sin = trig
        self.trig = trig[0, ::2], trig[1, ::2]
        self.ry = trig[:, 1::2]
        # e^{-i alpha/2} per pair, as one complex array and its two parts
        self.e = np.empty((pairs, rows), np.complex128)
        self.e_parts = self.e.real, self.e.imag
        # the pair matrices by columns, pair[j, i, k] = u_ij of pair k: the
        # first column (p, q), (q, p), the second column and -conj q
        pair = np.empty((2, 2, pairs, rows), np.complex128)
        self.pair = pair[0], pair[0, ::-1], pair[1], pair[1, 0]
        # the state at every pair boundary, |0> first, and the final state;
        # with gradients, the states again part by part, and the states
        # before and after each pair
        st = np.empty((pairs + 1, 2, rows), np.complex128)
        st[0, 0], st[0, 1] = 1.0, 0.0
        self.final = st[-1]
        self.by_state = st.transpose(1, 0, 2)
        self.by_part = np.empty((2, pairs + 1, rows), np.complex128)
        self.before, self.after = self.by_part[:, :-1], self.by_part[:, 1:]
        self.squares = np.empty((2, pairs, rows), np.complex128)
        # one step's terms[j, i] = u_ij psi_j, summed over j
        self.terms = np.empty((2, 2, rows), np.complex128)
        self.steps = [(cur[:, None], nxt, pair[:, :, k])
                      for k, (cur, nxt) in enumerate(zip(st, st[1:]))]
        # v1 of every slot, Rz slots first: slot 2k + a sits at a * pairs + k
        self.v1 = np.empty((2, pairs, rows), np.complex128)
        self.v1_slots = self.v1.reshape(slots, rows)
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
    """Apply the gates of ``plan`` at angles ``theta`` (R, G, B) to |0>.

    Returns ``(p0, sx, dtheta)`` over the R·B rows, member-major, where
    ``dtheta`` (R·B, k, G) stacks dP(0)/dtheta_g and, with ``want_sx``
    (k = 2), d<sigma_x>/dtheta_g; it is None without ``want_grad``, and
    ``sx`` is None without ``want_sx``.
    """
    # Rz(a) Rz(b) = Rz(a + b), and so for Ry: a run's angles add
    np.matmul(plan.merge, theta, out=plan.half_of)
    np.cos(plan.half, out=plan.cos)
    np.sin(plan.half, out=plan.sin)
    cz, sz = plan.trig
    # Ry(beta) Rz(alpha) = [[p, -conj q], [q, conj p]] per row, with
    # (p, q) = (cos beta/2, sin beta/2) e^{-i alpha/2}. e^{-i alpha/2} is
    # written part by part: its imaginary part is 0 - sin, +0 where sin is
    # +-0, bit for bit what cos - 1j * sin gives
    e, (e_re, e_im) = plan.e, plan.e_parts
    pq, qp, col1, u01 = plan.pair
    np.copyto(e_re, cz)
    np.subtract(0.0, sz, out=e_im)
    np.multiply(plan.ry, e, out=pq)
    np.conj(qp, out=col1)
    u01 *= -1.0
    # the state at every pair boundary: psi'_i = u_i0 psi_0 + u_i1 psi_1
    terms = plan.terms
    t0, t1 = terms
    multiply, add = np.multiply, np.add
    for cur, nxt, u in plan.steps:
        multiply(u, cur, terms)
        add(t0, t1, nxt)
    a0, a1 = plan.final
    p0 = np.abs(a0) ** 2
    sx = 2.0 * (np.conj(a0) * a1).real if want_sx else None
    if not want_grad:
        return p0, sx, None
    np.copyto(plan.by_part, plan.by_state)
    before0, before1 = plan.before
    # per slot: a pair's Rz reads the state before the pair, its Ry the
    # state after; v1 as in the module docstring, where Re v0 = 0
    vz, vy = plan.v1
    np.multiply(1j, before0, out=vz)
    np.multiply(vz, before1, out=vz)
    after0_sq, after1_sq = np.square(plan.after, out=plan.squares)
    np.add(after0_sq, after1_sq, out=vy)
    np.multiply(0.5, vy, out=vy)
    # dP(0) = Re(alpha v1), d<sigma_x> = Re(beta v1), per row
    ca0, ca1 = np.conj(plan.final)
    alpha = -2.0 * ca0 * ca1
    coef = (np.stack((alpha, 2.0 * (ca0 ** 2 - ca1 ** 2))) if want_sx
            else alpha[None])
    dslot = (coef[:, None] * plan.v1_slots).real
    # each gate's slot, gathered row by row
    return p0, sx, dslot.transpose(2, 0, 1)[:, :, plan.gate_v1]


def circuit_batch(kind: str, values: np.ndarray, features: np.ndarray,
                  want_grad: bool = True, want_sx: bool = True):
    """Evaluate R circuits on B feature rows and (optionally) their Jacobians.

    ``values`` is (P,) for R = 1 or (R, P). Returns ``(p0, sx, dp0, dsx)``
    with shapes (R·B,), (R·B,), (R·B, P), (R·B, P), member-major; what
    ``want_grad`` and ``want_sx`` do not ask for is None.
    """
    values = np.asarray(values, dtype=np.float64)
    values = values[None] if values.ndim == 1 else values
    X = np.asarray(features, dtype=np.float64)
    X = X[None] if X.ndim == 1 else X
    R, P = values.shape
    layers, table, block_t, feeds, factor, plan = _tables(
        kind, P, R, X.shape, X.tobytes())
    (g, per), B = feeds.shape, X.shape[0]
    theta = plan.theta
    # theta[r, l*g + k, b] = values[r] of layer l . block[k, b]; one layer
    # is a vector-matrix product per row, which BLAS sums in another order
    # than the matrix product, so it keeps the per-row form
    if layers == 1:
        np.matmul(values[:, None, None], block_t,
                  out=theta.transpose(0, 2, 1)[:, :, None])
    else:
        np.matmul(values.reshape(R * layers, per), table,
                  out=theta.reshape(R * layers, g * B))
    p0, sx, dtheta = _sweep(plan, theta, want_grad, want_sx)
    if dtheta is None:
        return p0, sx, None, None
    # d/dvalue_p = sum over the layer's gates k of dtheta_k block[k, b, p],
    # in one product: the derivatives times feeds, summed in gate order,
    # then the row's factor. Every column but the compressed bias's has one
    # term, so this rounds as the product with block does; that product
    # starts its sums at +0, so an exact zero comes out +0 here too
    rows, k, _ = dtheta.shape
    jac = np.matmul(dtheta.reshape(rows * k * layers, g), feeds)
    jac = jac.reshape(rows, k, P)
    jac *= factor
    jac += 0.0
    return p0, sx, jac[:, 0], jac[:, 1] if want_sx else None
