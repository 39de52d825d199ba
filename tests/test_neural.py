import hashlib
import json

import numpy as np
import pytest

from bosehub import neural


def test_reference_parameter_count():
    params = neural.MlpParams.initialize((6, 64, 32), outputs=1, rng=0)
    assert params.n_params == 2560  # 6*64 + 64 + 64*32 + 32 + 32, no output bias
    assert params.n_params == 6 * 64 + 64 + 64 * 32 + 32 + 32 * 1


def test_two_output_count():
    params = neural.MlpParams.initialize((6, 64, 32), outputs=2, rng=0)
    assert params.n_params == 2560 + 32


def test_zero_network_outputs_zero():
    params = neural.MlpParams.initialize((4, 5, 3), outputs=1, rng=0)
    params = params.with_flat(np.zeros(params.n_params))
    out, _ = neural.mlp_forward(params, np.ones(4))
    assert out[0] == pytest.approx(0.0)


def test_value_at_zero_features_is_bias_composition():
    params = neural.MlpParams.initialize((3, 4, 2), outputs=1, rng=5)
    out, _ = neural.mlp_forward(params, np.zeros(3))
    a = np.tanh(params.hidden[0][1])
    a = np.tanh(a @ params.hidden[1][0] + params.hidden[1][1])
    assert out[0] == pytest.approx(float(a @ params.output[:, 0]))


def test_linear_output_scaling():
    params = neural.MlpParams.initialize((3, 4, 2), outputs=1, rng=5)
    doubled = neural.MlpParams(params.sizes, params.n_outputs,
                               params.flat.copy())
    doubled.output *= 2.0
    x = np.array([0.3, -0.2, 0.9])
    out, _ = neural.mlp_forward(params, x)
    out2, _ = neural.mlp_forward(doubled, x)
    assert out2[0] == pytest.approx(2.0 * out[0])


def test_dimension_mismatch_rejected():
    params = neural.MlpParams.initialize((3, 4, 2), outputs=1, rng=0)
    with pytest.raises(ValueError):
        neural.mlp_forward(params, np.ones(5))


def coefficient(params, x):
    """The network's coefficient for one feature vector."""
    out, _ = neural.mlp_forward(params, np.atleast_2d(x))
    return neural.output_to_coefficient(out)[0]


def test_coefficient_examples():
    params = neural.MlpParams.initialize((3, 4, 2), outputs=1, rng=0)
    zeroed = params.with_flat(np.zeros(params.n_params))
    assert coefficient(zeroed, np.ones(3)) == pytest.approx(1.0)

    out = np.array([[0.0, np.pi]])
    assert neural.output_to_coefficient(out)[0] == pytest.approx(-1.0)


def test_coefficient_never_zero(rng):
    params = neural.MlpParams.initialize((6, 8, 4), outputs=1, rng=rng)
    for _ in range(20):
        c = coefficient(params, rng.uniform(-3, 3, 6))
        assert c > 0.0


def test_exponent_clamp_warns():
    params = neural.MlpParams.initialize((2, 3, 2), outputs=1, rng=0)
    big = params.with_flat(np.full(params.n_params, 50.0))
    with pytest.warns(RuntimeWarning):
        c = coefficient(big, np.ones(2))
    assert c <= np.exp(neural.EXP_CLAMP) * (1 + 1e-12)


def flat_gradient(params, x, upstream):
    out, cache = neural.mlp_forward(params, x)
    return neural.mlp_backward(params, cache, upstream)


@pytest.mark.parametrize("sizes,outputs", [((2, 3, 2), 1), ((6, 64, 32), 1),
                                           ((3, 5, 4), 2)])
def test_gradient_matches_finite_differences(sizes, outputs, rng):
    params = neural.MlpParams.initialize(sizes, outputs=outputs, rng=rng)
    x = rng.uniform(-1, 1, sizes[0])
    upstream = rng.uniform(-1, 1, (1, outputs))
    analytic = flat_gradient(params, x, upstream)
    flat = params.flat
    h = 1e-6
    for k in rng.choice(flat.size, size=min(60, flat.size), replace=False):
        step = np.zeros(flat.size)
        step[k] = h
        out_p, _ = neural.mlp_forward(params.with_flat(flat + step), x)
        out_m, _ = neural.mlp_forward(params.with_flat(flat - step), x)
        fd = float((out_p - out_m) @ upstream[0]) / (2 * h)
        assert analytic[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_zero_upstream_zero_gradient(rng):
    params = neural.MlpParams.initialize((4, 5, 3), outputs=1, rng=rng)
    grad = flat_gradient(params, rng.uniform(-1, 1, 4), np.zeros((1, 1)))
    np.testing.assert_array_equal(grad, 0.0)


def test_dead_zero_network_gradient():
    # with every parameter zero the activations vanish, so the chain rule
    # kills all parameter gradients; finite differences confirm
    params = neural.MlpParams.initialize((3, 4, 2), outputs=1, rng=0)
    dead = params.with_flat(np.zeros(params.n_params))
    x = np.array([0.5, -1.0, 2.0])
    grad = flat_gradient(dead, x, np.ones((1, 1)))
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)
    h = 1e-6
    for k in (0, 5, 12, params.n_params - 1):
        step = np.zeros(params.n_params)
        step[k] = h
        out_p, _ = neural.mlp_forward(dead.with_flat(step), x)
        out_m, _ = neural.mlp_forward(dead.with_flat(-step), x)
        assert abs(out_p[0] - out_m[0]) / (2 * h) < 1e-9


def test_batched_forward_matches_rows(rng):
    params = neural.MlpParams.initialize((6, 8, 4), outputs=2, rng=rng)
    X = rng.uniform(-1, 1, (5, 6))
    batch, _ = neural.mlp_forward(params, X)
    for i in range(5):
        row, _ = neural.mlp_forward(params, X[i])
        np.testing.assert_allclose(batch[i], row, atol=1e-14)


def test_initialization_deterministic():
    a = neural.MlpParams.initialize((6, 64, 32), outputs=1, rng=123)
    b = neural.MlpParams.initialize((6, 64, 32), outputs=1, rng=123)
    assert np.array_equal(a.flat, b.flat)
    lim = 1.0 / np.sqrt(6)
    w1 = a.hidden[0][0]
    assert np.all(np.abs(w1) <= lim)


def test_checkpoint_round_trip_exact(rng):
    params = neural.MlpParams.initialize((6, 64, 32), outputs=2, rng=rng)
    text = neural.to_json(params)
    back = neural.from_json(text)
    assert np.array_equal(back.flat, params.flat)
    doc = json.loads(text)
    assert doc["format"] == "bosehub-mlp"


def test_checkpoint_bytes_are_pinned():
    # the JSON layout of a network checkpoint, pinned to its bytes
    params = neural.MlpParams.initialize((3, 4, 2), 2, rng=0)
    text = neural.to_json(params)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c4c9da3e323ae78538386074d4213107e2c108b24fec4b8150ece639cb0d42e9")
    back = neural.from_json(text)
    assert (back.sizes, back.n_outputs) == ((3, 4, 2), 2)
    assert back.flat.tobytes() == params.flat.tobytes()
    assert neural.to_json(back) == text


def test_checkpoint_rejects_foreign():
    with pytest.raises(ValueError):
        neural.from_json(json.dumps({"format": "nope"}))
    doc = json.loads(neural.to_json(neural.MlpParams.initialize()))
    doc["version"] = 2
    with pytest.raises(ValueError, match="^unsupported version 2$"):
        neural.from_json(json.dumps(doc))


def test_with_flat_validates_length():
    params = neural.MlpParams.initialize((3, 4, 2), outputs=1, rng=0)
    with pytest.raises(ValueError, match="^expected 28 values, got 3$"):
        params.with_flat(np.zeros(3))
    with pytest.raises(ValueError, match="^expected 28 values, got 27$"):
        params.with_flat(np.zeros((2, 27)))


@pytest.mark.parametrize("outputs", [1, 2])
def test_with_flat_returns_read_only_views(outputs):
    template = neural.MlpParams.initialize((6, 5, 4), outputs=outputs, rng=0)
    flat = np.random.default_rng(3).standard_normal(template.n_params)
    flat[0] = -0.0
    params = template.with_flat(flat)
    arrays = [a for pair in params.hidden for a in pair] + [params.output]
    assert [a.shape for a in arrays] == [
        a.shape for pair in template.hidden for a in pair] + [
        template.output.shape]
    for a in arrays:
        assert not a.flags.writeable
        assert np.shares_memory(a, flat)
        with pytest.raises(ValueError):
            a[...] = 0.0
    # the caller's vector stays writable, and .flat reads it
    assert flat.flags.writeable
    assert params.flat.tobytes() == flat.tobytes()


@pytest.mark.parametrize("outputs", [1, 2])
def test_member_axis_matches_each_member_bit_for_bit(outputs, rng):
    # a population's pass rounds as each member's own pass, so a trained
    # member follows the trajectory it would follow alone
    template = neural.MlpParams.initialize((6, 64, 32), outputs=outputs,
                                           rng=0)
    flats = rng.uniform(-0.5, 0.5, (3, template.n_params))
    X = rng.uniform(-1, 1, (26, 6))
    upstream = rng.uniform(-1, 1, (3, 26, outputs))
    params = template.with_flat(flats)
    assert params.hidden[0][0].shape == (3, 6, 64)
    assert np.shares_memory(params.output, flats)
    out, cache = neural.mlp_forward(params, X)
    grads = neural.mlp_backward(params, cache, upstream)
    assert out.shape == (3, 26, outputs) and grads.shape == flats.shape
    for k, flat in enumerate(flats):
        member = template.with_flat(flat)
        out_k, cache_k = neural.mlp_forward(member, X)
        assert np.array_equal(out[k], out_k)
        assert np.array_equal(grads[k],
                              neural.mlp_backward(member, cache_k,
                                                  upstream[k]))
        assert np.array_equal(neural.output_to_coefficient(out)[k],
                              neural.output_to_coefficient(out_k))


@pytest.mark.parametrize("members", [None, 2])
def test_flatten_undoes_with_flat(members):
    params = neural.MlpParams.initialize((6, 5, 4), outputs=1, rng=0)
    shape = (members, params.n_params) if members else (params.n_params,)
    flat = np.random.default_rng(3).standard_normal(shape)
    assert np.array_equal(params.with_flat(flat).flat, flat)


def _coefficient_jacobian(params, activations, coeffs):
    """dc/dtheta row by row, from one backward pass per row and output."""
    rows = []
    for b in range(coeffs.shape[-1]):
        per_output = []
        for a in range(params.n_outputs):
            upstream = np.zeros(coeffs.shape + (params.n_outputs,))
            upstream[..., b, a] = 1.0
            per_output.append(neural.mlp_backward(params, activations,
                                                  upstream))
        d_out = per_output[0] if len(per_output) == 1 else \
            per_output[0] + 1j * per_output[1]
        rows.append(coeffs[..., b, None] * d_out)
    return np.stack(rows, axis=-2)


@pytest.mark.parametrize("outputs", [1, 2])
@pytest.mark.parametrize("members", [None, 3])
def test_coefficient_gram_matches_the_explicit_jacobian(outputs, members):
    rng = np.random.default_rng(outputs)
    template = neural.MlpParams.initialize((6, 7, 5), outputs, rng)
    flat = template.flat
    if members:
        flat = flat + 0.3 * rng.standard_normal((members, flat.size))
    params = template.with_flat(flat)
    out, cache = neural.mlp_forward(params, rng.uniform(-1, 1, (9, 6)))
    c = neural.output_to_coefficient(out)
    jac = _coefficient_jacobian(params, cache, c)
    if outputs == 2:
        jac = np.concatenate([jac.real, jac.imag], axis=-2)
    expected = jac @ jac.swapaxes(-1, -2)
    gram = neural.coefficient_gram(params, cache, c)
    assert gram.shape == expected.shape
    np.testing.assert_allclose(gram, expected, rtol=1e-12,
                               atol=1e-13 * np.abs(expected).max())
