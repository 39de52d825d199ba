"""The gate-table kernel against the scalar circuit oracle, a dense gate-by-gate
product and finite differences."""
import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosehub import _kernels
from bosehub.basis import feature_matrix, reduced_basis
from bosehub.circuit import init_params
from bosehub.variational import CircuitAnsatz, TrainConfig, train

import kernel_oracle
from circuit_oracle import run_circuit

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
        p0, sx, dp0, dsx = _kernels.circuit_batch(kind, params.values, X,
                                                  want_grad)
        np.testing.assert_allclose(p0, [st.prob0 for st in states],
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(sx, [st.sigma_x for st in states],
                                   atol=1e-12, rtol=0)
        # no Jacobian is formed unless asked for
        assert (dp0 is None) == (dsx is None) == (not want_grad)


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


# the sigma_x switch joins want_grad in one parametrize, so that the cases
# with sigma_x on keep their plain False/True ids
@pytest.mark.parametrize("want_grad,want_sx", [
    pytest.param(want_grad, want_sx,
                 id=f"{want_grad}" + ("" if want_sx else "-no_sx"))
    for want_sx in (True, False) for want_grad in (False, True)])
@pytest.mark.parametrize("layers", range(9))
@pytest.mark.parametrize("kind", ["compressed", "quat"])
def test_population_rows_equal_single_calls(kind, layers, want_grad, want_sx):
    rng = np.random.default_rng(layers)
    values = np.array([init_params(kind, layers, rng, scale=1.5).values
                       for _ in range(3)])
    X = rng.uniform(-2.0, 2.0, (11, 6))
    pop = _kernels.circuit_batch(kind, values, X, want_grad, want_sx)
    # rows come back flattened member-major: member r holds rows 11r..11r+10
    assert pop[0].shape == (33,)
    if want_grad:
        assert pop[2].shape == (33, values.shape[1])
    else:
        # no Jacobian without want_grad, not even a zero-filled one
        assert pop[2] is None and pop[3] is None
    if want_sx:
        assert pop[1].shape == (33,)
        if want_grad:
            assert pop[3].shape == (33, values.shape[1])
    else:
        # sigma_x off: p0 and dp0 are the full call's, bit for bit
        assert pop[1] is None and pop[3] is None
        full = _kernels.circuit_batch(kind, values, X, want_grad, True)
        assert pop[0].tobytes() == full[0].tobytes()
        if want_grad:
            assert np.ascontiguousarray(pop[2]).tobytes() == \
                np.ascontiguousarray(full[2]).tobytes()
    for r, member in enumerate(values):
        single = _kernels.circuit_batch(kind, member, X, want_grad, want_sx)
        for got, want in zip(pop, single):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got[11 * r:11 * (r + 1)], want)


@pytest.mark.parametrize("want_grad,want_sx", [
    (False, False), (False, True), (True, False), (True, True)])
@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("kind", ["compressed", "quat"])
def test_a_later_call_leaves_earlier_results_alone(kind, R, want_grad,
                                                   want_sx):
    # the kernel reuses its scratch across calls on the same features, so
    # every array it returns must be a fresh one
    rng = np.random.default_rng(R)
    X = rng.uniform(-2.0, 2.0, (11, 6))
    values = np.array([init_params(kind, 3, rng, scale=1.5).values
                       for _ in range(R)])
    if R == 1:
        values = values[0]  # the single-vector form
    first = _kernels.circuit_batch(kind, values, X, want_grad, want_sx)
    kept = [None if out is None else out.copy() for out in first]
    second = _kernels.circuit_batch(kind, values + 0.5, X, want_grad,
                                    want_sx)
    for got, want, later in zip(first, kept, second):
        if want is None:
            assert got is None and later is None
        else:
            assert np.array_equal(got, want)
            assert not np.shares_memory(got, later)
    # the second call did compute something else
    assert not np.array_equal(first[0], second[0])


def test_restarts_share_one_kernel_call_per_step(h_reduced, monkeypatch):
    h = h_reduced(U=5.0)
    rows = []
    kernel = _kernels.circuit_batch

    def spy(kind, values, *args, **kwargs):
        rows.append(np.shape(values))
        return kernel(kind, values, *args, **kwargs)

    monkeypatch.setattr(_kernels, "circuit_batch", spy)
    steps = 7
    train(CircuitAnsatz(h, "quat", 2), h,
          TrainConfig(steps=steps, seed=0, restarts=3))
    # one call per step and one for the final energies, each on all three
    # members: a fall back to one member at a time would make 3x as many
    assert rows == [(3, 16)] * (steps + 1)


Z, Y = False, True
# axis patterns for _sweep, True for Ry: zero and one gate; openings with an
# Ry (an empty Rz slot first); runs of 1-4 same-axis gates; layers repeated
# so that a run crosses the layer boundary (Z|Z, Z|ZZ, YY|Y); and odd and
# even counts of used slots
PATTERNS = [
    (),
    (Z,), (Y,),
    (Z, Y), (Y, Z), (Y, Y, Z, Z, Z),
    (Y, Y, Y, Z, Z, Z, Z, Y, Z, Z),
    (Z, Y, Z) * 3,
    (Z, Z, Y, Z) * 2,
    (Y, Z, Y, Y) * 2,
    (Z, Y, Z, Z, Y, Z) * 2,
    (Z, Y) * 3,
    (Y, Y, Y, Y),
]


def _dense_sweep(axes, theta):
    """P(0) and <sigma_x> per row from one 2x2 matrix product per gate."""
    p0, sx = [], []
    for row in theta:
        psi = np.array([1.0, 0.0], np.complex128)
        for ry, angle in zip(axes, row):
            c, s = np.cos(angle / 2), np.sin(angle / 2)
            gate = (np.array([[c, -s], [s, c]]) if ry else
                    np.diag([c - 1j * s, c + 1j * s]))
            psi = gate @ psi
        p0.append(abs(psi[0]) ** 2)
        sx.append(2.0 * (np.conj(psi[0]) * psi[1]).real)
    return np.array(p0), np.array(sx)


@pytest.mark.parametrize("axes", PATTERNS, ids=lambda a: "".join(
    "Y" if ry else "Z" for ry in a) or "empty")
def test_sweep_matches_dense_product(axes):
    theta = np.random.default_rng(len(axes)).uniform(-4.0, 4.0, (5, len(axes)))
    # one member on five rows: the sweep reads the angles as (R, G, B)
    angles = theta.T[None]
    p0, sx, none = _kernels._sweep(_kernels._Sweep(axes, 1, 5), angles, False)
    assert none is None
    gp0, gsx, dtheta = _kernels._sweep(_kernels._Sweep(axes, 1, 5), angles,
                                       True)
    # one forward pass serves both modes
    assert np.array_equal(gp0, p0) and np.array_equal(gsx, sx)
    ref_p0, ref_sx = _dense_sweep(axes, theta)
    np.testing.assert_allclose(p0, ref_p0, atol=1e-12, rtol=0)
    np.testing.assert_allclose(sx, ref_sx, atol=1e-12, rtol=0)
    assert dtheta.shape == (5, 2, len(axes))
    h = 1e-5
    for g in range(len(axes)):
        step = np.zeros(len(axes))
        step[g] = h
        plus = _dense_sweep(axes, theta + step)
        minus = _dense_sweep(axes, theta - step)
        for k in range(2):
            np.testing.assert_allclose(dtheta[:, k, g],
                                       (plus[k] - minus[k]) / (2 * h),
                                       atol=1e-8, rtol=0)


@pytest.mark.parametrize("axes,pairs", [
    ((), 0), ((Z,), 1), ((Y,), 1), ((Z, Y), 1), ((Y, Z), 2),
    ((Y, Y, Z, Z, Z), 2), ((Z, Y, Z) * 3, 4),
    # six layers of each kind: compressed 36 gates in 25 runs, quat 12 in 12
    ((Z, Y, Z, Z, Y, Z) * 6, 13), ((Z, Y) * 6, 6),
])
def test_sweep_steps_once_per_rz_ry_pair(axes, pairs):
    gate_slot, merge = _kernels._layout(axes)
    assert merge.shape == (2 * pairs, len(axes))
    # every gate sits in a slot of its own axis: Rz even, Ry odd
    np.testing.assert_array_equal(gate_slot % 2, np.array(axes, dtype=int))


def _package_imports(name: str) -> list[str]:
    """The bosehub and relative imports of the test module ``name``."""
    tree = ast.parse((Path(__file__).parent / name).read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    # a relative import would reach into whatever package holds the file
    modules += ["." * node.level + (node.module or "")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return [m for m in modules if m.startswith(("bosehub", "."))]


def test_oracle_imports_no_bosehub_module():
    assert not _package_imports("circuit_oracle.py")


def test_kernel_oracle_imports_no_bosehub_module():
    assert not _package_imports("kernel_oracle.py")


# the 6-site, 5-boson classes' features, mean-subtracted and raw; the raw
# occupations hold exact zeros, whose products can come out -0
FEATURES = [feature_matrix(reduced_basis(6, 5), raw=raw)
            for raw in (False, True)]


def _layout_and_bytes(out):
    """An output's shape and bytes; the bytes tell -0 from +0."""
    if out is None:
        return None
    return out.shape, np.ascontiguousarray(out).tobytes()


@given(kind=st.sampled_from(["compressed", "quat"]),
       layers=st.integers(0, 8), members=st.integers(1, 3),
       single=st.booleans(), log_scale=st.floats(-3.0, 1.0),
       zeros=st.sampled_from(["none", "some", "all"]), raw=st.booleans(),
       rows=st.sampled_from([26, 5, 1]), want_grad=st.booleans(),
       want_sx=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_kernel_returns_the_oracle_bytes(kind, layers, members, single,
                                         log_scale, zeros, raw, rows,
                                         want_grad, want_sx, seed):
    # the old kernel's per-row products, kept in kernel_oracle, fix every
    # bit the kernel returns, zeros' signs included
    rng = np.random.default_rng(seed)
    X = FEATURES[raw][:rows]
    scale = 10.0 ** log_scale
    values = rng.uniform(-scale, scale,
                         (members, layers * _kernels.layer_size(kind, 6)))
    if zeros != "none":
        hit = (rng.random(values.shape) < 0.5 if zeros == "some"
               else np.ones(values.shape, dtype=bool))
        values[hit] = np.copysign(0.0, values[hit])
    if single and members == 1:
        values = values[0]
    got = _kernels.circuit_batch(kind, values, X, want_grad, want_sx)
    want = kernel_oracle.circuit_batch(kind, values, X, want_grad, want_sx)
    assert ([_layout_and_bytes(out) for out in got]
            == [_layout_and_bytes(out) for out in want])
