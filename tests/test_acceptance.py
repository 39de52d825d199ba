"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to watch). Trained results
are shared through module fixtures so the whole suite stays fast.
"""
import time

import numpy as np
import pytest

from bosehub import circuit as qc
from bosehub import readout as ro
from bosehub.basis import enumerate_fock, parity_reduce, reduced_basis, \
    translation_orbits, feature_matrix
from bosehub.hamiltonian import ModelParams, build_deformed, build_full, \
    build_reduced, ground_state
from bosehub.neural import MlpParams, mlp_backward, mlp_forward
from bosehub.variational import CircuitAnsatz, MlpAnsatz, TrainConfig, \
    layer_study, rayleigh_energy, train

TABLE1 = {2.0: -7.54752, 5.0: -5.46241, 8.0: -4.37439}
DEFORMED_TARGET = -4.6590
U_GRID = (2.0, 5.0, 8.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reduced():
    return reduced_basis(6, 5)


@pytest.fixture(scope="module")
def hams(reduced):
    return {u: build_reduced(ModelParams(1.0, u, 6, 5), reduced)
            for u in U_GRID}


@pytest.fixture(scope="module")
def exact_energies(hams):
    return {u: ground_state(h).energy for u, h in hams.items()}


@pytest.fixture(scope="module")
def trained_compressed(hams):
    results = {}
    for u in U_GRID:
        cfg = TrainConfig(steps=1200, seed=0,
                          restarts=5 if u == 8.0 else 1)
        results[u] = train(CircuitAnsatz(hams[u], "compressed", 6), hams[u],
                           cfg)
    return results


@pytest.fixture(scope="module")
def trained_quat(hams):
    return {u: train(CircuitAnsatz(hams[u], "quat", 6), hams[u],
                     TrainConfig(steps=1200, seed=0))
            for u in (2.0, 5.0)}


def test_criterion_1_exact_diagonalization():
    worst = 0.0
    slowest = 0.0
    for u, expected in TABLE1.items():
        start = time.perf_counter()
        energy = ground_state(build_full(ModelParams(1.0, u, 6, 5))).energy
        slowest = max(slowest, time.perf_counter() - start)
        worst = max(worst, abs(energy - expected))
    report("criterion 1 (exact full-basis energies)",
           worst < 1e-5 and slowest < 10.0,
           f"worst |dE|={worst:.2e}, slowest={slowest:.2f}s")


def test_criterion_2_basis_reduction(reduced, hams, exact_energies):
    full = enumerate_fock(6, 5)
    orbits = translation_orbits(full)
    classes = parity_reduce(full, orbits)
    counts = (len(full), len(np.unique(orbits)), len(np.unique(classes)))
    counts_ok = counts == (252, 42, 26)
    worst = 0.0
    for u in U_GRID:
        e_full = ground_state(build_full(ModelParams(1.0, u, 6, 5))).energy
        worst = max(worst, abs(e_full - exact_energies[u]))
    report("criterion 2 (252 -> 42 -> 26; oracle equivalence)",
           counts_ok and worst < 1e-9,
           f"counts=({counts[0]},{counts[1]},{counts[2]}), "
           f"worst full-reduced gap={worst:.2e}")


def test_criterion_3_neural_baseline(hams, exact_energies):
    start = time.perf_counter()
    worst = 0.0
    finals = {}
    for u in U_GRID:
        result = train(MlpAnsatz(hams[u]), hams[u],
                       TrainConfig(steps=1500, learning_rate=0.02, seed=0))
        finals[u] = result.final_energy
        worst = max(worst, abs(result.final_energy - exact_energies[u]))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"U={u:g}: {finals[u]:.5f}" for u in U_GRID)
    report("criterion 3 (neural baseline within 2e-3)",
           worst < 2e-3 and elapsed < 120.0,
           f"{detail}; worst gap={worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_circuit_training(hams, exact_energies,
                                      trained_compressed, trained_quat):
    gaps = {}
    for u in (2.0, 5.0):
        gaps[("compressed", u)] = abs(
            trained_compressed[u].final_energy - exact_energies[u])
        gaps[("quat", u)] = abs(
            trained_quat[u].final_energy - exact_energies[u])
    gaps[("compressed", 8.0)] = abs(
        trained_compressed[8.0].final_energy - exact_energies[8.0])

    ok = (all(gaps[("compressed", u)] < 5e-3 for u in (2.0, 5.0))
          and all(gaps[("quat", u)] < 5e-3 for u in (2.0, 5.0))
          and gaps[("compressed", 8.0)] < 2e-2)

    trend_ok = True
    trend_detail = []
    for kind in ("compressed", "quat"):
        rows = dict(layer_study(kind, [3], hams[5.0],
                                TrainConfig(steps=1200, seed=0)))
        e6 = (trained_compressed if kind == "compressed" else trained_quat)[
            5.0].final_energy
        trend_ok &= e6 < rows[3]
        trend_detail.append(f"{kind}: 3L {rows[3]:.5f} vs 6L {e6:.5f}")

    gap_detail = ", ".join(f"{k[0]}@U={k[1]:g}: {v:.1e}"
                           for k, v in gaps.items())
    report("criterion 4 (circuit training)", ok and trend_ok,
           f"{gap_detail}; {'; '.join(trend_detail)}")


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(2024)
    worst_circuit = 0.0
    for case in range(50):
        kind = "compressed" if case % 2 == 0 else "quat"
        layers = int(rng.integers(1, 4))
        params = qc.init_params(kind, layers, rng, scale=1.0)
        x = rng.uniform(-1.5, 1.5, 6)
        analytic = qc.gradient(params, x)
        for k in range(params.n_params):
            step = np.zeros(params.n_params)
            step[k] = 1e-5
            fd = (qc.weight_of(qc.CircuitParams(kind, layers,
                                                params.values + step), x)
                  - qc.weight_of(qc.CircuitParams(kind, layers,
                                                  params.values - step), x)
                  ) / 2e-5
            worst_circuit = max(worst_circuit,
                                abs(analytic[k] - fd)
                                - 1e-6 * abs(fd) - 1e-9)

    worst_net = 0.0
    for case in range(50):
        sizes = (6, int(rng.integers(3, 9)), int(rng.integers(2, 6)))
        params = MlpParams.initialize(sizes, outputs=1, rng=rng)
        x = rng.uniform(-1.5, 1.5, 6)
        upstream = rng.uniform(-1, 1, (1, 1))
        out, cache = mlp_forward(params, x)
        analytic = mlp_backward(params, cache, upstream)
        flat = params.flat
        for k in rng.choice(flat.size, size=25, replace=False):
            step = np.zeros(flat.size)
            step[k] = 1e-6
            op, _ = mlp_forward(params.with_flat(flat + step), x)
            om, _ = mlp_forward(params.with_flat(flat - step), x)
            fd = float((op - om)[0] * upstream[0, 0]) / 2e-6
            worst_net = max(worst_net,
                            abs(analytic[k] - fd) - 1e-6 * abs(fd) - 1e-9)

    report("criterion 5 (gradients vs central differences)",
           worst_circuit <= 0.0 and worst_net <= 0.0,
           f"circuit excess {worst_circuit:.2e}, network excess {worst_net:.2e}")


def test_criterion_6_shot_study(hams, trained_compressed):
    start = time.perf_counter()
    params = qc.CircuitParams("compressed", 6, trained_compressed[5.0].theta)
    rows = ro.shot_study(params, hams[5.0], [20000], trials=100, seed=0)
    elapsed = time.perf_counter() - start
    median = rows[0][1]
    report("criterion 6 (median dE/E at 20000 shots)",
           median < 1e-3 and elapsed < 60.0,
           f"median={median:.2e}, {elapsed:.1f}s")


def test_criterion_7_readout_mitigation(hams, trained_compressed):
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=9)

    # every qubit's inverse, from the device's (Q,) arrays at once
    inv, fom = device.confusion.inverse()
    matrices = np.moveaxis(device.confusion.matrix(), -1, 0)
    inverse_ok = (inv.shape == (125, 2, 2)
                  and np.allclose(inv @ matrices, np.eye(2), atol=1e-12)
                  and bool((fom >= 1.0).all()))
    report("criterion 7a (inverse identity and merit bound)", inverse_ok,
           "125 qubits checked")

    trials = 100
    modes = [ro.CorrectionMode.UNCORRECTED, ro.CorrectionMode.CORRECTED,
             ro.CorrectionMode.POSTSELECTED,
             ro.CorrectionMode.POSTSELECTED_CORRECTED]
    all_b_ok = True
    all_c_ok = True
    details = []
    for u in U_GRID:
        h = hams[u]
        params = qc.CircuitParams("compressed", 6,
                                  trained_compressed[u].theta)
        ideal = rayleigh_energy(
            qc.batch_weights(params, feature_matrix(h.basis)), h)
        corrected_wins = 0
        smaller_shift = 0
        for trial in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence((9, int(u), trial)))
            res = ro.noisy_energies(params, h, device, 20000, modes, rng)
            if (abs(res[ro.CorrectionMode.CORRECTED] - ideal)
                    < abs(res[ro.CorrectionMode.UNCORRECTED] - ideal)):
                corrected_wins += 1
            unselected_shift = abs(res[ro.CorrectionMode.CORRECTED]
                                   - res[ro.CorrectionMode.UNCORRECTED])
            postselected_shift = abs(
                res[ro.CorrectionMode.POSTSELECTED_CORRECTED]
                - res[ro.CorrectionMode.POSTSELECTED])
            if postselected_shift < unselected_shift:
                smaller_shift += 1
        all_b_ok &= corrected_wins >= 90
        all_c_ok &= smaller_shift >= 90
        details.append(f"U={u:g}: corrected wins {corrected_wins}/100, "
                       f"smaller postselected shift {smaller_shift}/100")
    report("criterion 7b (correction beats raw >= 90/100)", all_b_ok,
           "; ".join(details))
    report("criterion 7c (postselected correction is small)", all_c_ok,
           "; ".join(details))


def test_criterion_8_complex_deformation(reduced):
    params = ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2)
    h = build_deformed(params, reduced, orientation="interaction")
    exact = ground_state(h).energy
    anchor_ok = abs(exact - DEFORMED_TARGET) < 1e-3

    nn = train(MlpAnsatz(h, complex_mode=True), h,
               TrainConfig(steps=2400, seed=0))
    nn_gap = abs(nn.final_energy - exact)

    # complex convergence is the slowest landscape here; use the documented
    # multi-restart option
    circ = train(CircuitAnsatz(h, "compressed", 8, complex_mode=True), h,
                 TrainConfig(steps=2400, seed=0, restarts=3))
    circ_gap = abs(circ.final_energy - exact)

    report("criterion 8 (complex deformation)",
           anchor_ok and nn_gap < 5e-3 and circ_gap < 3e-2,
           f"exact={exact:.5f} (target {DEFORMED_TARGET}), "
           f"nn={nn.final_energy:.5f} (gap {nn_gap:.1e}), "
           f"compressed8={circ.final_energy:.5f} (gap {circ_gap:.1e})")


def test_criterion_9_limits():
    e_t0 = ground_state(build_full(ModelParams(0.0, 5.0, 6, 5))).energy
    e_u0 = ground_state(build_full(ModelParams(1.0, 0.0, 6, 5))).energy
    report("criterion 9 (t=0 and U=0 limits)",
           abs(e_t0) < 1e-9 and abs(e_u0 + 10.0) < 1e-9,
           f"t=0: {e_t0:.2e}, U=0: {e_u0:.10f}")
