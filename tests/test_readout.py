import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosehub import circuit as qc
from bosehub import readout as ro
from bosehub.basis import feature_matrix
from bosehub.circuit import ShotResult
from bosehub.hamiltonian import ground_state
from bosehub.variational import CircuitAnsatz, TrainConfig, rayleigh_energy, train

RATES = st.floats(0.0, 0.2)
ENTRIES = ("p00", "p01", "p10", "p11")


def device_of(eps0, eps1) -> ro.SimulatedDevice:
    """A device with these per-qubit flip rates."""
    return ro.SimulatedDevice(ro.ConfusionMatrix.from_flip_rates(
        np.asarray(eps0, dtype=float), np.asarray(eps1, dtype=float)))


def noiseless(n_qubits: int) -> ro.SimulatedDevice:
    return device_of(np.zeros(n_qubits), np.zeros(n_qubits))


def qubit_confusion(device: ro.SimulatedDevice, q: int) -> ro.ConfusionMatrix:
    """Qubit ``q``'s confusion matrix, as a scalar one."""
    return ro.ConfusionMatrix(*(float(getattr(device.confusion, name)[q])
                                for name in ENTRIES))


@pytest.fixture(scope="module")
def trained(h_reduced_module):
    h = h_reduced_module
    result = train(CircuitAnsatz(h, "compressed", 6), h,
                   TrainConfig(steps=1200, seed=0))
    return qc.CircuitParams("compressed", 6, result.theta), h


@pytest.fixture(scope="module")
def h_reduced_module():
    from bosehub.basis import reduced_basis
    from bosehub.hamiltonian import ModelParams, build_reduced
    return build_reduced(ModelParams(1.0, 5.0, 6, 5), reduced_basis(6, 5))


# --- confusion matrices -------------------------------------------------------

def test_inverse_identity_and_merit_example():
    cm = ro.ConfusionMatrix.from_flip_rates(0.1, 0.1)
    inv = cm.invert()
    np.testing.assert_allclose(inv.matrix @ cm.matrix(), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        inv.matrix, np.array([[0.9, -0.1], [-0.1, 0.9]]) / 0.8, atol=1e-12)
    assert inv.figure_of_merit == pytest.approx(1.125)


@given(RATES, RATES)
@settings(max_examples=60, deadline=None)
def test_inverse_properties(eps0, eps1):
    cm = ro.ConfusionMatrix.from_flip_rates(eps0, eps1)
    inv = cm.invert()
    np.testing.assert_allclose(inv.matrix @ cm.matrix(), np.eye(2), atol=1e-10)
    assert inv.figure_of_merit >= 1.0 - 1e-12
    assert inv.matrix[0, 0] >= 1.0 - 1e-12
    assert inv.matrix[1, 1] >= 1.0 - 1e-12


def test_merit_is_one_iff_perfect():
    perfect = ro.ConfusionMatrix(1.0, 0.0, 0.0, 1.0).invert()
    assert perfect.figure_of_merit == pytest.approx(1.0)
    noisy = ro.ConfusionMatrix.from_flip_rates(0.01, 0.0).invert()
    assert noisy.figure_of_merit > 1.0


def test_merit_monotone_in_symmetric_error():
    merits = [ro.ConfusionMatrix.from_flip_rates(e, e).invert().figure_of_merit
              for e in np.linspace(0.0, 0.2, 9)]
    assert all(b > a for a, b in zip(merits, merits[1:]))


def test_confusion_validation():
    with pytest.raises(ValueError):
        ro.ConfusionMatrix(0.4, 0.5, 0.6, 0.5)  # p00+p11 <= 1
    with pytest.raises(ValueError):
        ro.ConfusionMatrix(0.9, 0.2, 0.2, 0.8)  # columns don't sum to 1
    # columns that sum to 1 through an entry outside [0, 1]
    with pytest.raises(ValueError, match="^probabilities must lie in "
                                         "\\[0, 1\\]$"):
        ro.ConfusionMatrix(1.2, 0.0, -0.2, 1.0)


def test_inverse_confusion_checks():
    with pytest.raises(ValueError, match="^inverse confusion must be 2x2$"):
        ro.InverseConfusion(np.eye(3), 1.0)
    with pytest.raises(ValueError,
                       match="^diagonal of the inverse must be >= 1$"):
        ro.InverseConfusion(np.array([[0.9, 0.1], [0.1, 0.9]]), 0.9)


# --- calibration ----------------------------------------------------------------

def test_calibrate_noiseless_is_exact():
    device = noiseless(4)
    est = ro.calibrate(device, 0, shots=100, rng=0)
    assert (est.p00, est.p01, est.p10, est.p11) == (1.0, 0.0, 0.0, 1.0)


def test_calibrate_converges_to_truth():
    device = device_of([0.1], [0.1])
    est = ro.calibrate(device, 0, shots=20000, rng=7)
    # 3 sigma ~ 3*sqrt(0.1*0.9/20000) ~ 0.0064 < 0.01
    for got, want in [(est.p00, 0.9), (est.p01, 0.1),
                      (est.p10, 0.1), (est.p11, 0.9)]:
        assert abs(got - want) < 0.01


def test_calibrate_validates_shots():
    with pytest.raises(ValueError):
        ro.calibrate(noiseless(1), 0, shots=0, rng=0)


def test_calibrate_rejects_non_invertible_estimate():
    # flip rates near 0.5 and 10 shots: some qubit's p00 + p11 falls <= 1.
    # calibrate returns that estimate as data; what inverts it refuses it
    device = ro.SimulatedDevice.random(125, (0.49, 0.5), seed=0)
    est = ro.calibrate(device, np.arange(125), shots=10, rng=0)
    singular = np.flatnonzero(est.p00 + est.p11 <= 1.0)
    assert singular.size
    with pytest.raises(ValueError, match=(
            f"^calibration with 10 shots leaves qubit {singular[0]} with "
            "p00 \\+ p11 <= 1, so its readout cannot be inverted; "
            "calibrate with more shots$")):
        ro.calibration_report(device, shots=10, seed=0, n_coeffs=25)


def test_array_inverse_matches_scalar_invert():
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=9)
    inv, fom = device.confusion.inverse()
    assert inv.shape == (125, 2, 2) and fom.shape == (125,)
    for q in range(125):
        cm = qubit_confusion(device, q)
        scalar = cm.invert()
        # the formula of the per-qubit inverse, operation for operation
        det = cm.p00 * cm.p11 - cm.p01 * cm.p10
        ref = np.array([[cm.p11, -cm.p01], [-cm.p10, cm.p00]]) / det
        assert np.array_equal(inv[q], ref) and np.array_equal(inv[q], scalar.matrix)
        assert fom[q] == float(np.trace(ref) / 2.0) == scalar.figure_of_merit
    layout = ro.replica_layout(25, 125)
    picked = layout[np.arange(len(layout)), ro.replica_argmin(fom[layout])]
    for group, best in zip(layout.tolist(), picked.tolist()):
        assert best == min(group, key=lambda q: (
            qubit_confusion(device, q).invert().figure_of_merit, q))


# --- correction -------------------------------------------------------------------

def test_correct_identity_unchanged():
    inv = ro.ConfusionMatrix(1.0, 0.0, 0.0, 1.0).invert()
    p0, p1 = ro.correct(ShotResult(1000, 400), inv)
    assert (p0, p1) == (0.4, 0.6)


def test_correct_inverts_noisy_image_exactly():
    cm = ro.ConfusionMatrix.from_flip_rates(0.08, 0.03)
    true = np.array([0.7, 0.3])
    observed = cm.matrix() @ true
    shots = 10 ** 6
    res = ShotResult(shots, int(round(observed[0] * shots)))
    p0, p1 = ro.correct(res, cm.invert())
    assert p0 == pytest.approx(0.7, abs=1e-5)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_correct_clamps_out_of_range():
    # observed frequency 1.0 with symmetric noise drives corrected p0 above 1
    inv = ro.ConfusionMatrix.from_flip_rates(0.1, 0.1).invert()
    p0, p1 = ro.correct(ShotResult(100, 100), inv)
    assert 0.0 <= p0 <= 1.0
    assert p0 + p1 == pytest.approx(1.0)
    assert p0 == pytest.approx(1.0)


# --- postselection -----------------------------------------------------------------

def merit(eps):
    cm = ro.ConfusionMatrix.from_flip_rates(eps, eps)
    return cm.invert().figure_of_merit


def test_postselect_picks_minimum():
    fom = np.array([[merit(0.05), merit(0.01), merit(0.08)],
                    [merit(0.03), merit(0.06), merit(0.02)]])
    assert ro.replica_argmin(fom).tolist() == [1, 2]


def test_postselect_tie_breaks_low_index():
    # a row's ids increase with the column, so a tie goes to the lowest id
    layout = ro.replica_layout(2, 10)
    fom = np.full(layout.shape, merit(0.02))
    best = ro.replica_argmin(fom)
    assert layout[np.arange(2), best].tolist() == [0, 1]
    # a tie of the two smallest beats a larger figure at a lower id
    fom = np.array([[merit(0.03), merit(0.02), merit(0.02), merit(0.04),
                     merit(0.05)]])
    assert ro.replica_argmin(fom).tolist() == [1]


def test_postselect_perfect_wins():
    fom = np.array([[merit(0.001), merit(0.0)]])
    assert ro.replica_argmin(fom).tolist() == [1]


# --- device & layout ---------------------------------------------------------------

def test_device_generation_in_range():
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=0)
    assert device.n_qubits == 125
    for q in range(125):
        cm = qubit_confusion(device, q)
        assert 0.95 <= cm.p00 <= 0.99
        assert 0.95 <= cm.p11 <= 0.99


@pytest.mark.parametrize("n_qubits,seed", [(1, 0), (8, 3), (125, 9),
                                           (200, 11)])
def test_random_device_holds_the_drawn_flip_rates(n_qubits, seed):
    rates = np.random.default_rng(seed).uniform(0.01, 0.05, (n_qubits, 2))
    cm = ro.SimulatedDevice.random(n_qubits, (0.01, 0.05), seed=seed).confusion
    # bit for bit the per-qubit ConfusionMatrix.from_flip_rates(eps0, eps1)
    for got, want in zip((cm.p00, cm.p01, cm.p10, cm.p11),
                         (1.0 - rates[:, 0], rates[:, 1], rates[:, 0],
                          1.0 - rates[:, 1])):
        assert got.shape == (n_qubits,) and np.array_equal(got, want)


def test_device_arrays_are_read_only_and_not_the_callers():
    eps0, eps1 = np.array([0.01, 0.03]), np.array([0.02, 0.04])
    given = ro.ConfusionMatrix.from_flip_rates(eps0, eps1)
    device = ro.SimulatedDevice(given)
    cm = device.confusion
    np.testing.assert_array_equal(np.stack([cm.p00, cm.p01], axis=1),
                                  [[0.99, 0.02], [0.97, 0.04]])
    # measure draws from these arrays, so none of them may change
    for name in ENTRIES:
        with pytest.raises(ValueError, match="read-only"):
            getattr(cm, name)[0] = 1.0
        with pytest.raises(AttributeError):
            setattr(cm, name, np.ones(2))
    with pytest.raises(AttributeError):
        device.confusion = ro.ConfusionMatrix.from_flip_rates(eps1, eps0)
    # the caller's arrays are not the device's
    eps1[0] = 0.5
    given.p00[0] = 0.5
    np.testing.assert_array_equal(np.stack([cm.p00, cm.p01], axis=1),
                                  [[0.99, 0.02], [0.97, 0.04]])


def test_device_needs_arrays_of_qubits():
    with pytest.raises(ValueError, match="one \\(Q,\\) array per entry"):
        ro.SimulatedDevice(ro.ConfusionMatrix(1.0, 0.0, 0.0, 1.0))


def test_layout_shape_and_blocks():
    layout = ro.replica_layout(25, 125)
    assert layout.shape == (25, 5)
    assert np.unique(layout).size == 125
    np.testing.assert_array_equal(layout[:, 0], np.arange(25))
    np.testing.assert_array_equal(layout[:, 1], 25 + np.arange(25))


def test_layout_too_big_rejected():
    with pytest.raises(ValueError, match="^layout does not fit on the "
                                         "device$"):
        ro.replica_layout(26, 125)


def test_noiseless_measure_is_plain_binomial():
    device = noiseless(125)
    layout = ro.replica_layout(25, 125)
    prob0 = np.linspace(-0.1, 1.1, 25)[:, None]  # clipped to [0, 1]
    counts = device.measure(layout, prob0, 1000, np.random.default_rng(4))
    expected = np.random.default_rng(4).binomial(
        1000, np.broadcast_to(np.clip(prob0, 0.0, 1.0), layout.shape))
    np.testing.assert_array_equal(counts, expected)


def test_measure_one_draw_law():
    # true outcome then readout flip is one binomial in the recorded P(0)
    cm = ro.ConfusionMatrix.from_flip_rates(0.08, 0.15)
    device = device_of([0.0, 0.08], [0.0, 0.15])
    shots, prob0, draws = 500, 0.3, 2000
    counts = device.measure(np.ones(draws, dtype=int), prob0, shots,
                            np.random.default_rng(21))
    p = prob0 * cm.p00 + (1.0 - prob0) * cm.p01
    mean, var = shots * p, shots * p * (1.0 - p)
    # binomial fourth central moment, for the spread of the sample variance
    mu4 = var * (1.0 + 3.0 * (shots - 2) * p * (1.0 - p))
    assert abs(counts.mean() - mean) < 5.0 * np.sqrt(var / draws)
    assert abs(counts.var(ddof=1) - var) < 5.0 * np.sqrt((mu4 - var ** 2) / draws)


# --- noisy energy runs ----------------------------------------------------------------

def test_noiseless_run_converges_to_ideal(trained):
    params, h = trained
    ideal = rayleigh_energy(
        qc.batch_weights(params, feature_matrix(h.basis)), h)
    device = noiseless(125)
    energy = ro.noisy_energy_run(params, h, device, 10 ** 6,
                                 ro.CorrectionMode.UNCORRECTED, rng=0)
    assert abs(energy - ideal) / abs(ideal) < 1e-3


def test_modes_share_samples(trained):
    params, h = trained
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=5)
    both = ro.noisy_energies(params, h, device, 4000,
                             list(ro.CorrectionMode), rng=11)
    single = ro.noisy_energy_run(params, h, device, 4000,
                                 ro.CorrectionMode.UNCORRECTED, rng=11)
    assert both[ro.CorrectionMode.UNCORRECTED] == pytest.approx(single)
    assert len(both) == 4


def test_correction_beats_uncorrected_usually(trained):
    params, h = trained
    ideal = rayleigh_energy(
        qc.batch_weights(params, feature_matrix(h.basis)), h)
    device = ro.SimulatedDevice.random(125, (0.02, 0.02001), seed=2)
    wins = 0
    trials = 20
    for trial in range(trials):
        res = ro.noisy_energies(params, h, device, 20000,
                                [ro.CorrectionMode.UNCORRECTED,
                                 ro.CorrectionMode.CORRECTED],
                                rng=trial)
        if abs(res[ro.CorrectionMode.CORRECTED] - ideal) < abs(
                res[ro.CorrectionMode.UNCORRECTED] - ideal):
            wins += 1
    assert wins >= 15


def test_postselected_tracks_best_qubits(trained):
    # one near-perfect qubit per replica group makes postselection match the
    # noiseless result to shot noise
    params, h = trained
    ideal = rayleigh_energy(
        qc.batch_weights(params, feature_matrix(h.basis)), h)
    rng = np.random.default_rng(3)
    eps0, eps1 = [], []
    for k in range(125):
        if k < 25:  # replica block 0 is near perfect
            eps0.append(1e-4)
            eps1.append(1e-4)
        else:
            eps0.append(rng.uniform(0.03, 0.05))
            eps1.append(rng.uniform(0.03, 0.05))
    device = device_of(eps0, eps1)
    energy = ro.noisy_energy_run(params, h, device, 200000,
                                 ro.CorrectionMode.POSTSELECTED, rng=4)
    assert abs(energy - ideal) < 5e-3


def test_anchor_is_the_last_class_at_its_ideal_value(trained, monkeypatch):
    params, h = trained
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=5)
    ideal = qc.batch_weights(params, feature_matrix(h.basis))
    seen = []

    def spy(coeffs, h):
        seen.append(np.array(coeffs))
        return rayleigh_energy(coeffs, h)
    monkeypatch.setattr(ro, "rayleigh_energy", spy)
    ro.noisy_energies(params, h, device, 4000, list(ro.CorrectionMode),
                      rng=11)
    assert len(seen) == 4
    for coeffs in seen:
        assert coeffs.shape == (h.dim,)
        assert coeffs[-1].tobytes() == ideal[-1].tobytes()
        assert not np.array_equal(coeffs[:-1], ideal[:-1])  # measured


def test_layout_validation(trained, monkeypatch):
    params, h = trained
    draws = counted_draws(monkeypatch)
    with pytest.raises(ValueError, match="^layout does not fit on the "
                                         "device$"):
        ro.noisy_energy_run(params, h, noiseless(10), 100,
                            ro.CorrectionMode.UNCORRECTED, rng=0)
    assert draws == {"measure": 0}


def counted_draws(monkeypatch) -> dict:
    """Count every SimulatedDevice.measure call from here on."""
    calls = {"measure": 0}
    measure = ro.SimulatedDevice.measure

    def spy(*args, **kwargs):
        calls["measure"] += 1
        return measure(*args, **kwargs)
    monkeypatch.setattr(ro.SimulatedDevice, "measure", spy)
    return calls


def test_modes_that_invert_refuse_a_singular_calibration(trained,
                                                        monkeypatch):
    # 2 shots on flip rates near 0.5: the one calibration every mode shares
    # leaves some layout qubits singular; only uncorrected reads no inverse
    params, h = trained
    device = ro.SimulatedDevice.random(125, (0.45, 0.49), seed=3)
    layout = ro.replica_layout(25, 125)
    est = ro.calibrate(device, layout, 2, np.random.default_rng(0))
    singular = layout[est.p00 + est.p11 <= 1.0]
    assert singular.size
    energy = ro.noisy_energies(params, h, device, 2, ["uncorrected"],
                               rng=0)["uncorrected"]
    assert np.isfinite(energy)
    draws = counted_draws(monkeypatch)
    for mode in list(ro.CorrectionMode)[1:]:
        with pytest.raises(ValueError, match=(
                f"^calibration with 2 shots leaves qubit {singular.min()} "
                "with p00 \\+ p11 <= 1")):
            ro.noisy_energies(params, h, device, 2, ["uncorrected", mode],
                              rng=0)
    assert draws == {"measure": 3}  # each calibrated, none drew its data


def test_zero_shots_rejected(trained):
    params, h = trained
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=5)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        ro.noisy_energies(params, h, device, 0, list(ro.CorrectionMode),
                          rng=0)


def test_one_draw_per_stage_and_per_observation_correction(trained,
                                                           monkeypatch):
    params, h = trained
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=5)
    calls = {"measure": 0, "correct": 0}
    measure, correct = ro.SimulatedDevice.measure, ro.correct

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(ro.SimulatedDevice, "measure", counted("measure", measure))
    monkeypatch.setattr(ro, "correct", counted("correct", correct))
    energies = ro.noisy_energies(params, h, device, 4000,
                                 list(ro.CorrectionMode), rng=11)
    assert len(energies) == 4
    # one calibration draw and one data draw; 25 x 5 corrected + 25 best
    assert calls == {"measure": 2, "correct": 150}


def test_given_ideal_weights_draw_the_same_energies(trained):
    params, h = trained
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=5)
    weights = qc.batch_weights(params, feature_matrix(h.basis))
    modes = list(ro.CorrectionMode)
    own = ro.noisy_energies(params, h, device, 4000, modes, rng=11)
    given = ro.noisy_energies(params, h, device, 4000, modes, rng=11,
                              ideal=weights)
    assert own == given


@pytest.mark.parametrize("modes,corrections,postselections", [
    (["uncorrected"], 0, 0),
    (["corrected"], 125, 0),
    (["postselected"], 0, 1),
    (["uncorrected", "postselected-corrected"], 25, 1),
])
def test_per_qubit_work_only_for_modes_that_read_it(trained, monkeypatch,
                                                    modes, corrections,
                                                    postselections):
    params, h = trained
    device = ro.SimulatedDevice.random(125, (0.01, 0.05), seed=5)
    everything = ro.noisy_energies(params, h, device, 4000,
                                   list(ro.CorrectionMode), rng=11)
    calls = {"correct": 0, "replica_argmin": 0}
    for name in calls:
        def spy(*args, fn=getattr(ro, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(ro, name, spy)
    some = ro.noisy_energies(params, h, device, 4000, modes, rng=11)
    assert calls == {"correct": corrections, "replica_argmin": postselections}
    # every mode set draws the same samples, so each energy is unchanged
    assert some == {mode: everything[mode]
                    for mode in map(ro.CorrectionMode, modes)}


# --- shot study ------------------------------------------------------------------------

def test_shot_study_median_shrinks(trained):
    params, h = trained
    rows = ro.shot_study(params, h, [100, 1000, 10000], trials=40, seed=0)
    medians = [r[1] for r in rows]
    assert medians[0] > medians[1] > medians[2]
    # ~1/sqrt(shots) scaling: two decades of shots, about one decade of error
    ratio = medians[0] / medians[2]
    assert ratio > 3.0


def test_shot_study_rejects_zero_trials(trained):
    params, h = trained
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        ro.shot_study(params, h, [100], trials=0)


def test_shot_study_single_shot_order_unity(trained):
    params, h = trained
    rows = ro.shot_study(params, h, [1], trials=30, seed=1)
    assert rows[0][1] > 0.05


def test_shot_study_deterministic(trained):
    params, h = trained
    a = ro.shot_study(params, h, [500], trials=10, seed=3)
    b = ro.shot_study(params, h, [500], trials=10, seed=3)
    assert a == b


def shot_rows_one_by_one(ideal, h, shot_grid, trials, seed):
    """The shot study row by row: one unsplit (trials, classes) draw from
    ``SeedSequence((seed, shots))``, then rayleigh_energy on each trial."""
    ideal_energy = rayleigh_energy(ideal, h)
    rows, zero_draws = [], 0
    for shots in shot_grid:
        rng = np.random.default_rng(np.random.SeedSequence((seed, shots)))
        counts = rng.binomial(shots, np.clip(ideal, 0.0, 1.0),
                              (trials, ideal.size))
        devs = []
        for sampled in counts / shots:
            if not sampled.any():
                zero_draws += 1
                devs.append(1.0)
                continue
            energy = rayleigh_energy(sampled, h)
            devs.append(abs(energy - ideal_energy) / abs(ideal_energy))
        rows.append((shots, float(np.median(devs)), float(np.std(devs))))
    return rows, zero_draws


def assert_rows_close(rows, expected):
    """Equal shot counts; medians and stds within 1e-12. A deviation is
    |E - E0|/|E0|, so energies that agree to 1e-12 relative move it by
    about 1e-12 absolute, and the median and std by no more."""
    assert [r[0] for r in rows] == [r[0] for r in expected]
    np.testing.assert_allclose([r[1:] for r in rows],
                               [r[1:] for r in expected],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 7])
def test_shot_study_matches_row_by_row_reference(trained, seed):
    params, h = trained
    grid = [1, 100, 20000, 100000]
    ideal = qc.batch_weights(params, feature_matrix(h.basis))
    expected, _ = shot_rows_one_by_one(ideal, h, grid, 60, seed)
    assert_rows_close(ro.shot_study(params, h, grid, trials=60, seed=seed),
                      expected)


def test_shot_study_complex_hamiltonian_matches_reference(trained):
    from bosehub.basis import reduced_basis
    from bosehub.hamiltonian import ModelParams, build_deformed
    params, _ = trained
    h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2),
                       reduced_basis(6, 5))
    assert np.iscomplexobj(h.matrix)
    ideal = qc.batch_weights(params, feature_matrix(h.basis))
    expected, _ = shot_rows_one_by_one(ideal, h, [100, 20000], 40, 2)
    assert_rows_close(ro.shot_study(params, h, [100, 20000], trials=40,
                                    seed=2), expected)


def test_shot_study_all_zero_draws_count_as_deviation_one(trained, monkeypatch):
    params, h = trained
    # a small P(0) on every class, so one or two shots often record no 0
    ideal = np.linspace(0.01, 0.07, h.dim)
    monkeypatch.setattr(ro, "batch_weights", lambda *args: ideal)
    expected, zero_draws = shot_rows_one_by_one(ideal, h, [1, 2], 200, 4)
    assert 0 < zero_draws < 400
    assert_rows_close(ro.shot_study(params, h, [1, 2], trials=200, seed=4),
                      expected)
    # P(0) too small to ever record a 0: every trial is all-zero
    monkeypatch.setattr(ro, "batch_weights",
                        lambda *args: np.full(h.dim, 1e-30))
    assert ro.shot_study(params, h, [1, 10], trials=5, seed=0) == [
        (1, 1.0, 0.0), (10, 1.0, 0.0)]


def test_shot_study_row_does_not_depend_on_the_grid(trained):
    params, h = trained
    alone = {shots: ro.shot_study(params, h, [shots], trials=30, seed=5)[0]
             for shots in (1, 100, 20000)}
    for grid in ([1, 100, 20000], [20000, 1, 100], [100, 20000, 1]):
        assert ro.shot_study(params, h, grid, trials=30, seed=5) == [
            alone[shots] for shots in grid]


@pytest.mark.parametrize("block", [7, 100, None])
def test_shot_study_blocks_equal_one_unsplit_draw(trained, monkeypatch, block):
    params, h = trained
    trials = ro.SHOT_BLOCK + 37  # above one block of the module's size
    if block is not None:
        monkeypatch.setattr(ro, "SHOT_BLOCK", block)
    split = ro.shot_study(params, h, [1, 20000], trials=trials, seed=6)
    monkeypatch.setattr(ro, "SHOT_BLOCK", trials)
    assert split == ro.shot_study(params, h, [1, 20000], trials=trials, seed=6)


# --- reports ------------------------------------------------------------------------------

def test_calibration_report_and_csv(tmp_path):
    device = ro.SimulatedDevice.random(12, (0.01, 0.04), seed=1)
    rows = ro.calibration_report(device, shots=20000, seed=0, n_coeffs=2)
    assert len(rows) == 12  # qubits 10 and 11 unused
    assert all(r[5] >= 1.0 for r in rows)
    # each group's smallest figure of merit, ties to the lowest qubit id
    fom = {r[0]: r[5] for r in rows}
    best = {min(group, key=lambda q: (fom[q], q))
            for group in ro.replica_layout(2, 12).tolist()}
    assert len(best) == 2
    assert [r[6] for r in rows] == [int(q in best) for q in range(12)]
    # a noiseless device ranks every qubit 1: ties go to the lowest qubit
    rows = ro.calibration_report(noiseless(11), shots=100, seed=0,
                                 n_coeffs=2)
    assert [r[5] for r in rows] == [1.0] * 11
    assert [r[6] for r in rows] == [1, 1] + [0] * 9
    path = tmp_path / "cal.csv"
    ro.write_calibration_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "qubit,p00,p01,p10,p11,figure_of_merit,selected"


def test_calibration_report_off_the_device_fails_before_any_draw(
        monkeypatch):
    device = ro.SimulatedDevice.random(9, (0.01, 0.04), seed=1)
    draws = counted_draws(monkeypatch)
    with pytest.raises(ValueError, match="^layout does not fit on the "
                                         "device$"):
        ro.calibration_report(device, shots=100, seed=0, n_coeffs=2)
    assert draws == {"measure": 0}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_calibration_report_selects_the_lowest_merit_then_id(data):
    n_coeffs = data.draw(st.integers(1, 6))
    n_qubits = n_coeffs * ro.REPLICAS + data.draw(st.integers(0, 3))
    # qubits below this id are noiseless: a figure of merit of exactly 1,
    # so groups with two or more of them tie
    quiet = data.draw(st.integers(0, n_qubits))
    flips = st.lists(st.floats(0.01, 0.05), min_size=n_qubits,
                     max_size=n_qubits)
    eps0, eps1 = (np.where(np.arange(n_qubits) < quiet, 0.0,
                           data.draw(flips)) for _ in range(2))
    rows = ro.calibration_report(device_of(eps0, eps1), shots=200,
                                 seed=data.draw(st.integers(0, 2 ** 16)),
                                 n_coeffs=n_coeffs)
    fom = {r[0]: r[5] for r in rows}
    assert all(fom[q] == 1.0 for q in range(quiet))
    layout = ro.replica_layout(n_coeffs, n_qubits)
    best = {min(group, key=lambda q: (fom[q], q)) for group in layout.tolist()}
    assert [r[6] for r in rows] == [int(q in best) for q in range(n_qubits)]


def test_energy_report_csv(tmp_path):
    path = tmp_path / "noise.csv"
    ro.write_energy_report_csv(
        [(0, "corrected", 5.0, -5.4, -5.46)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "run,mode,U,energy,ideal_energy"
    assert lines[1].startswith("0,corrected,5.0,")
