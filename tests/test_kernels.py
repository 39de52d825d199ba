"""The gate-table kernel against the scalar circuit oracle and finite differences."""
import numpy as np
import pytest

from bosehub import _kernels
from bosehub.circuit import init_params, run_circuit

# the last two are long circuits (360 and 400 gates): the closed-form
# Jacobians need the accumulated prefixes to stay unitary
CASES = [("compressed", 0), ("compressed", 1), ("compressed", 5),
         ("quat", 0), ("quat", 1), ("quat", 4),
         ("compressed", 60), ("quat", 200)]


def _case(kind, layers):
    rng = np.random.default_rng(layers)
    params = init_params(kind, layers, rng, scale=1.5)
    return params, rng.uniform(-2.0, 2.0, (11, 6))


@pytest.mark.parametrize("kind,layers", CASES)
def test_matches_scalar_oracle(kind, layers):
    params, X = _case(kind, layers)
    states = [run_circuit(params, x) for x in X]
    for want_grad in (False, True):
        p0, sx, _, _ = _kernels.circuit_batch(kind, params.values, X,
                                              want_grad)
        np.testing.assert_allclose(p0, [st.prob0 for st in states],
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(sx, [st.sigma_x for st in states],
                                   atol=1e-12, rtol=0)


@pytest.mark.parametrize("kind,layers", CASES)
def test_jacobians_match_central_differences(kind, layers):
    params, X = _case(kind, layers)
    _, _, dp0, dsx = _kernels.circuit_batch(kind, params.values, X)
    assert dp0.shape == dsx.shape == (X.shape[0], params.n_params)
    h = 1e-5
    # every parameter of the short circuits, a seeded 40 of the long ones
    sample = np.random.default_rng(layers).permutation(params.n_params)[:40]
    for k in sample:
        step = np.zeros(params.n_params)
        step[k] = h
        plus = _kernels.circuit_batch(kind, params.values + step, X, False)
        minus = _kernels.circuit_batch(kind, params.values - step, X, False)
        np.testing.assert_allclose(dp0[:, k], (plus[0] - minus[0]) / (2 * h),
                                   atol=1e-8, rtol=0)
        np.testing.assert_allclose(dsx[:, k], (plus[1] - minus[1]) / (2 * h),
                                   atol=1e-8, rtol=0)


def test_compressed_feature_count_rule():
    with pytest.raises(ValueError, match="feature count divisible by 3, got 4"):
        _kernels.circuit_batch("compressed", np.zeros(5), np.zeros((2, 4)))
    # quat folds any feature count into one angle per layer
    p0, _, _, _ = _kernels.circuit_batch("quat", np.zeros(6), np.zeros((2, 4)))
    np.testing.assert_array_equal(p0, 1.0)


def test_partial_layer_rejected():
    with pytest.raises(ValueError, match="hold 8 values each, got 9"):
        _kernels.circuit_batch("quat", np.zeros(9), np.zeros((1, 6)))


def test_zero_layer_edge_case():
    for kind in ("compressed", "quat"):
        p0, sx, dp0, dsx = _kernels.circuit_batch(kind, np.array([]),
                                                  np.zeros((3, 6)))
        np.testing.assert_array_equal(p0, 1.0)
        np.testing.assert_array_equal(sx, 0.0)
        assert dp0.shape == (3, 0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        _kernels.circuit_batch("bogus", np.zeros(7), np.zeros((1, 6)))


def test_unitarity_through_layers():
    # norm of the implicit state: P(0) + P(1) = 1 means |amp1|^2 follows;
    # check via sigma_z, sigma_x magnitudes staying on the Bloch sphere
    rng = np.random.default_rng(9)
    params = init_params("compressed", 6, rng, scale=2.0)
    X = rng.uniform(-2, 2, (40, 6))
    p0, sx, _, _ = _kernels.circuit_batch("compressed", params.values, X,
                                          want_grad=False)
    sz = 2.0 * p0 - 1.0
    assert np.all(sz ** 2 + sx ** 2 <= 1.0 + 1e-12)
    assert np.all(p0 >= -1e-12) and np.all(p0 <= 1.0 + 1e-12)


def test_batch_matches_single_evaluation():
    rng = np.random.default_rng(4)
    params = init_params("quat", 3, rng)
    X = rng.uniform(-1, 1, (7, 6))
    batch_p0, _, batch_dp0, _ = _kernels.circuit_batch("quat", params.values, X)
    for row in range(7):
        p0, _, dp0, _ = _kernels.circuit_batch("quat", params.values,
                                               X[row:row + 1])
        assert batch_p0[row] == pytest.approx(p0[0], abs=1e-14)
        np.testing.assert_allclose(batch_dp0[row], dp0[0], atol=1e-14)
