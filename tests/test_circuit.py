import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosehub import circuit as qc

import circuit_oracle as co

ANGLES = st.floats(-8.0, 8.0, allow_nan=False)


def random_case(kind, layers, rng, scale=1.0):
    params = qc.init_params(kind, layers, rng, scale=scale)
    x = rng.uniform(-1.5, 1.5, 6)
    return params, x


# --- gates ---------------------------------------------------------------

def test_rot_identity():
    out = co.rot(co.ZERO, 0.0, 0.0, 0.0)
    assert out.amp0 == pytest.approx(1.0)
    assert out.amp1 == pytest.approx(0.0)


def test_rot_ry_pi_flips():
    out = co.rot(co.ZERO, 0.0, np.pi, 0.0)
    assert out.prob0 == pytest.approx(0.0, abs=1e-15)


@given(ANGLES, ANGLES)
@settings(max_examples=25, deadline=None)
def test_rot_rz_only_preserves_basis_state(alpha, gamma):
    out = co.rot(co.ZERO, alpha, 0.0, gamma)
    assert out.prob0 == pytest.approx(1.0, abs=1e-12)


@given(ANGLES, ANGLES, ANGLES)
@settings(max_examples=50, deadline=None)
def test_rot_is_unitary(alpha, beta, gamma):
    out = co.rot(co.ZERO, alpha, beta, gamma)
    assert abs(out.amp0) ** 2 + abs(out.amp1) ** 2 == pytest.approx(1.0, abs=1e-12)


# --- layer argument packing ------------------------------------------------

def test_compressed_args_zero_weights():
    triples = co.compressed_layer_args(np.ones(6), np.zeros(6), 0.4)
    np.testing.assert_allclose(triples, 0.4)
    assert triples.shape == (2, 3)


def test_compressed_args_zero_features():
    triples = co.compressed_layer_args(np.zeros(6), np.ones(6), -1.1)
    np.testing.assert_allclose(triples, -1.1)


def test_compressed_args_direct_substitution():
    triples = co.compressed_layer_args([1, 2, 3, 4, 5, 6], np.ones(6), 0.0)
    np.testing.assert_allclose(triples, [[1, 2, 3], [4, 5, 6]])


def test_compressed_args_bad_arity():
    with pytest.raises(ValueError):
        co.compressed_layer_args(np.ones(4), np.ones(4), 0.0)


# --- quat layer -------------------------------------------------------------

def test_quat_layer_zero_is_identity():
    out = co.quat_layer(co.ZERO, np.ones(6), np.zeros(6), 0.0, 0.0)
    assert out.amp0 == pytest.approx(1.0)


def test_quat_layer_quarter_phi():
    out = co.quat_layer(co.ZERO, np.zeros(6), np.zeros(6), 0.0, np.pi / 4)
    assert out.prob0 == pytest.approx(0.5)


def test_quat_layer_rz_leaves_probability():
    out = co.quat_layer(co.ZERO, np.ones(6), np.full(6, 0.3), 1.7, 0.0)
    assert out.prob0 == pytest.approx(1.0)


# --- weights ---------------------------------------------------------------

def test_weight_no_layers():
    params = qc.CircuitParams("quat", 0, np.array([]))
    assert qc.weight_of(params, np.zeros(6)) == pytest.approx(1.0)


def test_weight_single_quat_flip():
    values = np.zeros(8)
    values[7] = np.pi / 2
    params = qc.CircuitParams("quat", 1, values)
    assert qc.weight_of(params, np.ones(6)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("kind", ["compressed", "quat"])
def test_weight_in_unit_interval(kind, rng):
    for _ in range(20):
        params, x = random_case(kind, 4, rng, scale=2.0)
        w = qc.weight_of(params, x)
        assert 0.0 <= w <= 1.0


def test_weight_matches_run_circuit(rng):
    for kind in ("compressed", "quat"):
        params, x = random_case(kind, 3, rng)
        state = co.run_circuit(params, x)
        assert qc.weight_of(params, x) == pytest.approx(state.prob0, abs=1e-12)


def test_weight_global_phase_insensitive(rng):
    params, x = random_case("quat", 3, rng)
    state = co.run_circuit(params, x)
    shifted = co.Qstate(state.amp0 * np.exp(0.9j), state.amp1 * np.exp(0.9j))
    assert shifted.prob0 == pytest.approx(state.prob0, abs=1e-12)
    assert shifted.sigma_x == pytest.approx(state.sigma_x, abs=1e-12)


# --- complex weights ---------------------------------------------------------

def test_complex_weight_no_layers():
    params = qc.CircuitParams("compressed", 0, np.array([]))
    assert qc.complex_weight_of(params, np.zeros(6)) == pytest.approx(1.0 + 0j)


def test_complex_weight_sigma_x_eigenstate():
    # Ry(pi/2) sends |0> to (|0>+|1>)/sqrt(2): magnitude 1/2, phase e^{i pi}
    values = np.zeros(8)
    values[7] = np.pi / 4
    params = qc.CircuitParams("quat", 1, values)
    w = qc.complex_weight_of(params, np.zeros(6))
    assert w == pytest.approx(-0.5, abs=1e-12)


def test_complex_weight_magnitude_is_weight(rng):
    for kind in ("compressed", "quat"):
        params, x = random_case(kind, 4, rng)
        assert abs(qc.complex_weight_of(params, x)) == pytest.approx(
            qc.weight_of(params, x), abs=1e-12)


# --- gradients ---------------------------------------------------------------

def central_difference(params, x, h=1e-5):
    grad = np.empty(params.n_params)
    for k in range(params.n_params):
        step = np.zeros(params.n_params)
        step[k] = h
        plus = qc.CircuitParams(params.kind, params.layers, params.values + step)
        minus = qc.CircuitParams(params.kind, params.layers, params.values - step)
        grad[k] = (qc.weight_of(plus, x) - qc.weight_of(minus, x)) / (2 * h)
    return grad


def test_gradient_phi_stationary_at_zero():
    params = qc.CircuitParams("quat", 1, np.zeros(8))
    grad = qc.gradient(params, np.ones(6))
    assert grad[7] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["compressed", "quat"])
def test_gradient_matches_finite_differences(kind, rng):
    for _ in range(50):
        params, x = random_case(kind, 3, rng)
        analytic = qc.gradient(params, x)
        fd = central_difference(params, x)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)


def test_quat_gradient_symmetric_roles(rng):
    # with w_i = w_j the quat output is invariant under swapping x_i and x_j,
    # so the gradient entries trade places
    values = rng.uniform(-0.5, 0.5, 16)
    values[0] = values[3]
    values[8] = values[11]
    params = qc.CircuitParams("quat", 2, values)
    x = rng.uniform(-1, 1, 6)
    swapped = x.copy()
    swapped[[0, 3]] = swapped[[3, 0]]
    g = qc.gradient(params, x)
    g_swapped = qc.gradient(params, swapped)
    assert qc.weight_of(params, x) == pytest.approx(
        qc.weight_of(params, swapped), abs=1e-12)
    assert g[0] == pytest.approx(g_swapped[3], abs=1e-12)
    assert g[8] == pytest.approx(g_swapped[11], abs=1e-12)


def test_complex_jacobian_matches_finite_differences(rng):
    params, x = random_case("quat", 2, rng)
    _, jac = qc.batch_weights_and_jacobian(params, x[None, :],
                                           complex_mode=True)
    h = 1e-6
    for k in range(params.n_params):
        step = np.zeros(params.n_params)
        step[k] = h
        plus = qc.complex_weight_of(
            qc.CircuitParams("quat", 2, params.values + step), x)
        minus = qc.complex_weight_of(
            qc.CircuitParams("quat", 2, params.values - step), x)
        fd = (plus - minus) / (2 * h)
        assert jac[0, k] == pytest.approx(fd, abs=1e-6)


# --- sampling ----------------------------------------------------------------

def test_sample_degenerate_probabilities():
    sure = qc.CircuitParams("quat", 0, np.array([]))
    res = qc.sample(sure, np.zeros(6), 500, rng=0)
    assert (res.shots, res.count0) == (500, 500)

    values = np.zeros(8)
    values[7] = np.pi / 2
    never = qc.CircuitParams("quat", 1, values)
    res = qc.sample(never, np.zeros(6), 500, rng=0)
    assert (res.shots, res.count0) == (500, 0)


def test_sample_deterministic_and_binomial():
    values = np.zeros(8)
    values[7] = np.pi / 4  # P(0) = 1/2
    params = qc.CircuitParams("quat", 1, values)
    a = qc.sample(params, np.zeros(6), 20000, rng=42)
    b = qc.sample(params, np.zeros(6), 20000, rng=42)
    assert a == b
    assert abs(a.frequency0 - 0.5) <= 0.02  # ~5.7 sigma at 20000 shots


def test_sampling_consistency_over_trials():
    for prob_angle, p in ((np.pi / 8, np.cos(np.pi / 8) ** 2),
                          (np.pi / 4, 0.5)):
        values = np.zeros(8)
        values[7] = prob_angle
        params = qc.CircuitParams("quat", 1, values)
        shots = 400
        freqs = [qc.sample(params, np.zeros(6), shots, rng=seed).frequency0
                 for seed in range(1000)]
        tol = 3.0 * np.sqrt(p * (1 - p) / shots)
        assert abs(np.mean(freqs) - p) <= tol


def test_sample_validates_shots():
    params = qc.CircuitParams("quat", 0, np.array([]))
    with pytest.raises(ValueError):
        qc.sample(params, np.zeros(6), 0, rng=0)


# --- parameter bookkeeping ----------------------------------------------------

@pytest.mark.parametrize("layers", [1, 3, 6])
def test_parameter_counts(layers):
    assert qc.init_params("compressed", layers, 0).n_params == 7 * layers
    assert qc.init_params("quat", layers, 0).n_params == 8 * layers


def test_params_validation():
    with pytest.raises(ValueError):
        qc.CircuitParams("compressed", 2, np.zeros(13))
    with pytest.raises(ValueError):
        qc.CircuitParams("bogus", 1, np.zeros(7))
    with pytest.raises(ValueError):
        qc.CircuitParams("quat", 1, np.array([np.nan] * 8))


def test_params_reject_values_of_three_axes():
    # one CircuitParams is one circuit: a population (R, P) is refused too
    for shape in ((1, 1, 8), (2, 8), (1, 8)):
        with pytest.raises(ValueError, match="^values must be \\(P,\\), got "
                                             + re.escape(str(shape)) + "$"):
            qc.CircuitParams("quat", 1, np.zeros(shape))


def test_params_compressed_feature_count_rule():
    with pytest.raises(ValueError,
                       match="feature count divisible by 3, got 4"):
        qc.CircuitParams("compressed", 1, np.zeros(5), n_features=4)
    doc = json.dumps({"format": "bosehub-circuit", "version": 1,
                      "kind": "compressed", "layers": 1, "n_features": 4,
                      "values": [0.0] * 5})
    with pytest.raises(ValueError,
                       match="feature count divisible by 3, got 4"):
        qc.from_json(doc)


def test_negative_layer_count_rejected():
    with pytest.raises(ValueError, match="layer count must be >= 0, got -1"):
        qc.init_params("quat", -1, 0)
    with pytest.raises(ValueError, match="layer count must be >= 0, got -2"):
        qc.CircuitParams("compressed", -2, np.zeros(0))


def test_feature_arity_checked():
    params = qc.init_params("compressed", 2, 0)
    for entry in (qc.weight_of, qc.complex_weight_of, qc.gradient):
        for size in (5, 7):
            with pytest.raises(ValueError,
                               match="^expected 6 feature columns, got"):
                entry(params, np.ones(size))


def test_batch_entry_points_check_the_feature_columns():
    params = qc.init_params("compressed", 2, 0)
    for entry in (qc.batch_weights, qc.batch_complex_weights,
                  qc.batch_weights_and_jacobian):
        with pytest.raises(ValueError,
                           match="^expected 6 feature columns, got 5$"):
            entry(params, np.zeros((3, 5)))


def test_shot_result_checks():
    with pytest.raises(ValueError, match="^shots must be >= 1$"):
        qc.ShotResult(0, 0)
    for count0 in (-1, 11):
        with pytest.raises(ValueError, match="^count0 out of range$"):
            qc.ShotResult(10, count0)


# --- serialization -------------------------------------------------------------

@pytest.mark.parametrize("kind,layers", [("compressed", 6), ("quat", 3)])
def test_json_round_trip_bit_exact(kind, layers, rng):
    params = qc.init_params(kind, layers, rng, scale=1.3)
    text = qc.to_json(params)
    back = qc.from_json(text)
    assert back.kind == params.kind
    assert back.layers == params.layers
    assert back.n_features == params.n_features
    assert np.array_equal(back.values, params.values)  # bit-exact
    doc = json.loads(text)
    assert doc["format"] == "bosehub-circuit"
    assert doc["version"] == 1


def test_from_json_rejects_foreign_documents():
    with pytest.raises(ValueError):
        qc.from_json(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(ValueError):
        qc.from_json(json.dumps({"format": "bosehub-circuit", "version": 99}))
