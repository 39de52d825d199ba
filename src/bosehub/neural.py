"""Feed-forward neural baseline with hand-rolled forward and backward passes.

The reference architecture takes the M mean-subtracted occupations into two
tanh hidden layers of 64 and 32 nodes and a linear output head carrying no
bias, for 2560 parameters in one flat vector at M=6 with one output. The
coefficients are the exponential of the output: strictly positive for one
output (the ground state has uniform sign), e^{x0 + i x1} for two.
"""
from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

EXP_CLAMP = 30.0
_FORMAT_VERSION = 1


@dataclass
class MlpParams:
    """Values ``flat`` in parameter order (W1, b1, W2, b2, ..., W_out), (P,)
    or (R, P) with a member axis R; ``sizes`` are the inputs, then each
    hidden width. ``hidden`` ((W, b) per layer) and the bias-free ``output``
    are views into ``flat``, so they share its writability."""

    sizes: tuple[int, ...]
    n_outputs: int
    flat: np.ndarray
    hidden: list[tuple[np.ndarray, np.ndarray]] = field(init=False)
    output: np.ndarray = field(init=False)

    def __post_init__(self):
        lead, size = self.flat.shape[:-1], self.flat.shape[-1]
        layers, start, count = _layout(tuple(self.sizes), self.n_outputs)
        if size != count:
            raise ValueError(f"expected {count} values, got {size}")
        self.hidden = [
            (self.flat[..., pos:end].reshape(lead + shape),
             self.flat[..., end:stop]) for pos, end, stop, shape in layers]
        self.output = self.flat[..., start:].reshape(
            lead + (self.sizes[-1], self.n_outputs))

    @property
    def n_params(self) -> int:
        return _layout(tuple(self.sizes), self.n_outputs)[2]

    @classmethod
    def initialize(cls, sizes=(6, 64, 32), outputs: int = 1, rng=0,
                   ) -> "MlpParams":
        """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per block,
        drawn block by block in parameter order into one flat vector."""
        rng = np.random.default_rng(rng)
        blocks = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            lim = 1.0 / np.sqrt(fan_in)
            blocks += [rng.uniform(-lim, lim, fan_in * fan_out),
                       rng.uniform(-lim, lim, fan_out)]
        lim = 1.0 / np.sqrt(sizes[-1])
        blocks.append(rng.uniform(-lim, lim, sizes[-1] * outputs))
        return cls(tuple(sizes), outputs, np.concatenate(blocks))

    def with_flat(self, flat: np.ndarray) -> "MlpParams":
        """Parameters of this shape as read-only views into ``flat``, (P,)
        or (R, P) with a leading member axis.

        Nothing is copied: the result reads ``flat`` (or its float copy,
        when it is not a float array), so ``flat`` must not change while the
        result is in use."""
        # slices of a read-only view are read-only; the caller's array is not
        flat = np.asarray(flat, dtype=float).view()
        flat.flags.writeable = False
        return MlpParams(self.sizes, self.n_outputs, flat)


@functools.lru_cache(maxsize=None)
def _layout(sizes: tuple, n_outputs: int):
    """Where each block of a network's flat parameters lies, computed once
    per shape: (weight start, bias start, bias end, weight shape) of each
    hidden layer, the output matrix's start and the parameter count."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = pos + fan_in * fan_out
        layers.append((pos, end, end + fan_out, (fan_in, fan_out)))
        pos = end + fan_out
    return tuple(layers), pos, pos + sizes[-1] * n_outputs


def mlp_forward(params: MlpParams, features):
    """Affine -> tanh through the hidden stack, linear output.

    Accepts a single feature vector or a (batch, M) matrix; returns the
    output(s) with matching leading shape plus the activation cache used by
    :func:`mlp_backward`. Parameters with a member axis R run every member
    on the same features at once, and the outputs gain that axis in front.
    """
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    X = x.reshape(1, -1) if x.ndim < 2 else x
    if X.shape[1] != params.sizes[0]:
        raise ValueError(
            f"expected {params.sizes[0]} inputs, got {X.shape[1]}"
        )
    activations = [X]
    a = X
    for w, b in params.hidden:
        a = a @ w
        a += b[..., None, :]
        np.tanh(a, out=a)
        activations.append(a)
    out = a @ params.output
    return (out[..., 0, :] if single else out), activations


def mlp_backward(params: MlpParams, activations, upstream) -> np.ndarray:
    """Reverse-mode gradient, flattened in parameter order.

    ``upstream`` holds d(loss)/d(output) per batch row; the result is the
    gradient of the scalar loss with respect to every weight and bias. A
    member axis R leads both: (R, batch, outputs) in, (R, P) out, each block
    written in place through its :class:`MlpParams` view.
    """
    dout = np.asarray(upstream, dtype=float)
    if dout.ndim < 2:
        dout = dout.reshape(1, -1)
    blocks = MlpParams(params.sizes, params.n_outputs,
                       np.empty(dout.shape[:-2] + params.flat.shape[-1:]))
    np.matmul(activations[-1].swapaxes(-1, -2), dout, out=blocks.output)
    da = dout @ params.output.swapaxes(-1, -2)
    for layer in reversed(range(len(params.hidden))):
        gw, gb = blocks.hidden[layer]
        # dz = da * (1 - a_out^2)
        dz = np.square(activations[layer + 1])
        np.subtract(1.0, dz, out=dz)
        dz *= da
        dz.sum(axis=-2, out=gb)
        np.matmul(activations[layer].swapaxes(-1, -2), dz, out=gw)
        if layer:  # the input layer passes nothing further back
            da = dz @ params.hidden[layer][0].swapaxes(-1, -2)
    return blocks.flat


def coefficient_gram(params: MlpParams, activations, coeffs) -> np.ndarray:
    """Gram matrix of the coefficients' parameter Jacobian J = dc/dtheta,
    without forming J.

    ``coeffs`` is ``output_to_coefficient`` of the outputs that
    ``activations`` led to: c = e^{out0}, or e^{out0 + i out1} with two
    outputs. The result is J J^T (..., batch, batch) for real coefficients
    and J_s J_s^T (..., 2 batch, 2 batch) with J_s = [Re J; Im J] for
    complex ones. Row b of J is c_b times row b of d(out0 + i out1)/dtheta,
    so each factor below has its rows turned by c first, and the turn
    commutes with the backward pass. Weights and biases of hidden layer l
    add (A A^T + 1) * (D D^T), with A the layer's input rows and D the
    turned derivatives of the outputs with respect to its pre-activations;
    the bias-free output matrix adds T T^T, with T the last hidden layer's
    output turned the same way.
    """
    top = activations[-1]
    slope = 1.0 - np.square(top)
    weights = params.output.swapaxes(-1, -2)[..., None, :]  # (..., k, 1, H)
    stacks = params.n_outputs  # 2 for complex coefficients: [Re J; Im J]
    if stacks == 1:
        c = coeffs[..., None]
        rows = c * top
        delta = (c * slope) * weights[..., 0, :, :]
    else:
        re, im = coeffs.real[..., None], coeffs.imag[..., None]
        rows = np.concatenate([
            np.concatenate([re * top, -im * top], axis=-1),
            np.concatenate([im * top, re * top], axis=-1)], axis=-2)
        d0 = slope * weights[..., 0, :, :]
        d1 = slope * weights[..., 1, :, :]
        delta = np.concatenate([re * d0 - im * d1, im * d0 + re * d1],
                               axis=-2)
    gram = rows @ rows.swapaxes(-1, -2)
    for layer in reversed(range(len(params.hidden))):
        a = activations[layer]
        inputs = a @ a.swapaxes(-1, -2)
        inputs += 1.0
        if stacks > 1:
            inputs = np.tile(inputs, (stacks, stacks))
        block = delta @ delta.swapaxes(-1, -2)
        block *= inputs
        gram += block
        if layer:
            delta = delta @ params.hidden[layer][0].swapaxes(-1, -2)
            slope = 1.0 - np.square(a)
            delta *= slope if stacks == 1 else np.concatenate(
                [slope] * stacks, axis=-2)
    return gram


def output_to_coefficient(out: np.ndarray) -> np.ndarray:
    """Network outputs (..., batch, 1 or 2) to coefficients (..., batch)."""
    mag = out[..., 0]
    if np.abs(mag).max(initial=0.0) > EXP_CLAMP:
        warnings.warn(
            "network output exceeded the exponent clamp; magnitude limited "
            f"to e^{EXP_CLAMP:g}", RuntimeWarning, stacklevel=2)
        mag = np.clip(mag, -EXP_CLAMP, EXP_CLAMP)
    if out.shape[-1] == 1:
        return np.exp(mag)
    return np.exp(mag) * np.exp(1j * out[..., 1])


def to_json(params: MlpParams) -> str:
    """Versioned checkpoint; exact round-trip."""
    return json.dumps({
        "format": "bosehub-mlp",
        "version": _FORMAT_VERSION,
        "hidden": [[a, b] for a, b in zip(params.sizes[:-1],
                                          params.sizes[1:])],
        "outputs": params.n_outputs,
        "values": params.flat.tolist(),
    })


def from_json(text: str) -> MlpParams:
    data = json.loads(text)
    if data.get("format") != "bosehub-mlp":
        raise ValueError("not an MLP checkpoint")
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported version {data.get('version')}")
    sizes = [data["hidden"][0][0]] + [shape[1] for shape in data["hidden"]]
    return MlpParams(tuple(sizes), data["outputs"],
                     np.array(data["values"], dtype=float))
