import numpy as np
import pytest

from bosehub import circuit as qc
from bosehub import neural
from bosehub.basis import reduced_basis
from bosehub.hamiltonian import ModelParams, build_deformed, build_full, \
    build_reduced, ground_state
from bosehub.variational import (
    BETA1,
    BETA2,
    EPSILON,
    CircuitAnsatz,
    MlpAnsatz,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    layer_study,
    rayleigh_energy,
    rayleigh_residual,
    train,
    write_trace_csv,
)

TABLE1 = {2.0: -7.54752, 5.0: -5.46241, 8.0: -4.37439}


# --- Rayleigh quotient -------------------------------------------------------

def test_rayleigh_at_exact_eigenvector(h_reduced):
    for u, expected in TABLE1.items():
        h = h_reduced(U=u)
        state = ground_state(h)
        assert rayleigh_energy(state.amplitudes, h) == pytest.approx(
            expected, abs=1e-5)


def test_rayleigh_variational_bound(h_reduced, rng):
    h = h_reduced(U=5.0)
    for _ in range(30):
        v = rng.standard_normal(26)
        assert rayleigh_energy(v, h) >= TABLE1[5.0] - 1e-4


def test_rayleigh_scaling_invariance(h_reduced, rng):
    h = h_reduced(U=5.0)
    v = rng.standard_normal(26)
    assert rayleigh_energy(2.0 * v, h) == pytest.approx(
        rayleigh_energy(v, h), abs=1e-12)


def test_rayleigh_global_phase_invariance(h_reduced, rng):
    h = h_reduced(U=5.0)
    v = rng.standard_normal(26) + 1j * rng.standard_normal(26)
    assert rayleigh_energy(np.exp(0.7j) * v, h) == pytest.approx(
        rayleigh_energy(v, h), abs=1e-12)


def test_rayleigh_rejects_zero_vector(h_reduced):
    with pytest.raises(ValueError):
        rayleigh_energy(np.zeros(26), h_reduced(U=5.0))


def test_rayleigh_rejects_wrong_length(h_reduced):
    with pytest.raises(ValueError):
        rayleigh_energy(np.ones(25), h_reduced(U=5.0))


def test_residual_vanishes_at_eigenvector(h_reduced):
    h = h_reduced(U=5.0)
    state = ground_state(h)
    residual, energy = rayleigh_residual(state.amplitudes, h)
    assert np.linalg.norm(residual) <= 1e-8
    assert energy == pytest.approx(state.energy, abs=1e-10)


# --- end-to-end gradients ------------------------------------------------------

def _energy(ansatz, theta, h):
    """Rayleigh energy of one parameter vector, a population of one."""
    return rayleigh_energy(ansatz.coefficients(theta[None])[0], h)


@pytest.mark.parametrize("kind,layers", [("compressed", 2), ("quat", 2)])
def test_circuit_energy_gradient_vs_fd(kind, layers, h_reduced, rng):
    h = h_reduced(U=5.0)
    ansatz = CircuitAnsatz(h, kind, layers)
    theta = qc.init_params(kind, layers, rng, 0.4).values
    grad = ansatz.energy_gradient(theta[None], h)[1][0]
    eps = 1e-6
    for k in range(theta.size):
        step = np.zeros(theta.size)
        step[k] = eps
        ep = _energy(ansatz, theta + step, h)
        em = _energy(ansatz, theta - step, h)
        assert grad[k] == pytest.approx((ep - em) / (2 * eps),
                                        rel=1e-5, abs=1e-8)


def test_mlp_energy_gradient_vs_fd(h_reduced, rng):
    h = h_reduced(U=5.0)
    ansatz = MlpAnsatz(h, hidden=(7, 4))
    theta = ansatz.initial_vector(rng)
    grad = ansatz.energy_gradient(theta[None], h)[1][0]
    eps = 1e-6
    for k in rng.choice(theta.size, size=40, replace=False):
        step = np.zeros(theta.size)
        step[k] = eps
        ep = _energy(ansatz, theta + step, h)
        em = _energy(ansatz, theta - step, h)
        assert grad[k] == pytest.approx((ep - em) / (2 * eps),
                                        rel=1e-5, abs=1e-8)


def test_complex_circuit_energy_gradient_vs_fd(reduced26, rng):
    h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2), reduced26)
    ansatz = CircuitAnsatz(h, "compressed", 2, complex_mode=True)
    theta = qc.init_params("compressed", 2, rng, 0.4).values
    grad = ansatz.energy_gradient(theta[None], h)[1][0]
    eps = 1e-6
    for k in range(theta.size):
        step = np.zeros(theta.size)
        step[k] = eps
        ep = _energy(ansatz, theta + step, h)
        em = _energy(ansatz, theta - step, h)
        assert grad[k] == pytest.approx((ep - em) / (2 * eps),
                                        rel=1e-5, abs=1e-8)


def test_complex_mlp_energy_gradient_vs_fd(reduced26, rng):
    h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2), reduced26)
    ansatz = MlpAnsatz(h, hidden=(6, 3), complex_mode=True)
    theta = ansatz.initial_vector(rng)
    grad = ansatz.energy_gradient(theta[None], h)[1][0]
    eps = 1e-6
    for k in rng.choice(theta.size, size=40, replace=False):
        step = np.zeros(theta.size)
        step[k] = eps
        ep = _energy(ansatz, theta + step, h)
        em = _energy(ansatz, theta - step, h)
        assert grad[k] == pytest.approx((ep - em) / (2 * eps),
                                        rel=1e-5, abs=1e-8)


def test_circuit_ansatz_checks_its_layout_once(h_reduced, monkeypatch):
    # kind, layer count and features are checked when the ansatz is built;
    # each step then checks only that the parameters are finite
    h = h_reduced(U=5.0)
    with pytest.raises(ValueError, match="unknown circuit kind"):
        CircuitAnsatz(h, "bogus", 2)
    with pytest.raises(ValueError, match="layer count must be >= 0"):
        CircuitAnsatz(h, "quat", -1)
    four = build_reduced(ModelParams(1.0, 2.0, 4, 3), reduced_basis(4, 3))
    with pytest.raises(ValueError, match="divisible by 3, got 4"):
        CircuitAnsatz(four, "compressed", 1)

    ansatz = CircuitAnsatz(h, "compressed", 2, complex_mode=True)
    theta = ansatz.initial_vector(np.random.default_rng(0))[None]

    def recheck(*args):
        raise AssertionError("the layout was checked again")

    monkeypatch.setattr(qc, "param_count", recheck)
    monkeypatch.setattr(qc, "_check_matrix", recheck)
    energy, _, c = ansatz.energy_gradient(theta, h)
    np.testing.assert_array_equal(ansatz.coefficients(theta), c)
    assert energy[0] == rayleigh_energy(c[0], h)
    bad = theta.copy()
    bad[0, 3] = np.inf
    with pytest.raises(ValueError, match="parameters must be finite"):
        ansatz.energy_gradient(bad, h)
    with pytest.raises(ValueError, match="parameters must be finite"):
        ansatz.coefficients(bad)


# --- training ------------------------------------------------------------------

def test_quat_zero_layers_gives_uniform_vector(h_reduced):
    # oracle: a layerless circuit leaves |0> alone, so every coefficient is 1
    # and the energy equals the uniform-vector Rayleigh quotient
    h = h_reduced(U=5.0)
    ansatz = CircuitAnsatz(h, "quat", 0)
    energy = _energy(ansatz, np.array([]), h)
    assert energy == pytest.approx(rayleigh_energy(np.ones(26), h), abs=1e-12)


def test_short_training_improves_and_respects_bound(h_reduced):
    h = h_reduced(U=5.0)
    exact = ground_state(h).energy
    result = train(CircuitAnsatz(h, "compressed", 3), h,
                   TrainConfig(steps=60, seed=0))
    assert result.energies[-1] < result.energies[0]
    assert np.all(result.energies >= exact - 1e-9)
    assert result.energies.shape == (61,)


def test_training_deterministic(h_reduced):
    h = h_reduced(U=2.0)
    cfg = TrainConfig(steps=40, seed=3)
    a = train(CircuitAnsatz(h, "quat", 2), h, cfg)
    b = train(CircuitAnsatz(h, "quat", 2), h, cfg)
    np.testing.assert_array_equal(a.energies, b.energies)
    np.testing.assert_array_equal(a.theta, b.theta)


def test_training_returns_lowest_iterate(h_reduced):
    # at this seed Adam reaches its lowest energy at step 43 and then
    # overshoots, ending 1.6e-3 higher
    h = h_reduced(U=2.0)
    ansatz = CircuitAnsatz(h, "quat", 2)
    result = train(ansatz, h, TrainConfig(steps=60, seed=1))
    assert result.energies[-1] > result.energies.min() + 1e-4
    assert result.final_energy == result.energies.min()
    assert _energy(ansatz, result.theta, h) == \
        pytest.approx(result.final_energy, abs=1e-12)


def test_restarts_never_hurt(h_reduced):
    h = h_reduced(U=8.0)
    single = train(CircuitAnsatz(h, "compressed", 3), h,
                   TrainConfig(steps=60, seed=0))
    multi = train(CircuitAnsatz(h, "compressed", 3), h,
                  TrainConfig(steps=60, seed=0, restarts=3))
    assert multi.final_energy <= single.final_energy + 1e-12


@pytest.mark.parametrize("lr", [0.0, -0.02, np.nan, np.inf])
def test_config_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate must be finite and "
                                         "positive"):
        TrainConfig(steps=5, learning_rate=lr)


def test_real_ansatz_rejected_on_complex_hamiltonian(reduced26):
    h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2), reduced26)
    with pytest.raises(ValueError):
        train(CircuitAnsatz(h, "quat", 1), h, TrainConfig(steps=5))


def test_complex_run_at_phi_zero_matches_real(h_reduced):
    h = h_reduced(U=5.0)
    cfg = TrainConfig(steps=400, seed=0)
    real = train(MlpAnsatz(h), h, cfg)
    cplx = train(MlpAnsatz(h, complex_mode=True), h, cfg)
    assert abs(real.final_energy - cplx.final_energy) < 1e-3


def test_divergence_aborts_with_trace(h_reduced):
    h = h_reduced(U=5.0)

    class Exploder:
        complex_mode = False

        def initial_vector(self, rng):
            return np.zeros(2)

        def energy_gradient(self, thetas, hh):
            energies = np.where(thetas[:, 0] != 0, np.nan, 1.0)
            return (energies, np.ones_like(thetas),
                    np.ones((len(thetas), hh.dim)))

        def coefficients(self, thetas):
            return np.ones((len(thetas), h.dim))

    with pytest.raises(TrainingDiverged) as err:
        train(Exploder(), h, TrainConfig(steps=10, seed=0))
    trace = err.value.trace
    assert trace.shape == (2,)
    assert trace[0] == 1.0 and np.isnan(trace[1])


class _Scripted:
    """Members whose energies on the ``call``-th step are ``script(call)``;
    every member's final energy is the uniform vector's."""

    complex_mode = False

    def __init__(self, script):
        self.script, self.calls = script, 0

    def initial_vector(self, rng):
        return np.zeros(2)

    def energy_gradient(self, thetas, hh):
        self.calls += 1
        energies = np.array(self.script(self.calls), dtype=float)
        return energies, np.ones_like(thetas), np.ones((len(thetas), hh.dim))

    def coefficients(self, thetas):
        return np.ones((len(thetas), 26))


def test_each_member_keeps_its_own_best_iterate(h_reduced):
    h = h_reduced(U=5.0)
    # member 0 improves alone at step 2 and wins; member 1 improves alone
    # at step 3, which must not move member 0's best iterate
    script = {1: [-5.0, -5.0], 2: [-7.0, -4.0], 3: [-4.0, -6.0]}
    seen = []

    class Recording(_Scripted):
        def initial_vector(self, rng):
            return rng.uniform(-1.0, 1.0, 2)

        def energy_gradient(self, thetas, hh):
            seen.append(thetas.copy())
            return super().energy_gradient(thetas, hh)

    result = train(Recording(lambda call: script.get(call, [-4.0, -4.0])), h,
                   TrainConfig(steps=5, seed=0, restarts=2))
    assert result.seed == 0 and result.final_energy == -7.0
    assert np.array_equal(result.theta, seen[1][0])


def test_divergence_of_one_member_carries_its_trace(h_reduced):
    h = h_reduced(U=5.0)
    # member 0 stays finite; member 1 (seed 8) blows up at step 3
    ansatz = _Scripted(lambda call: [1.0, 2.0 if call < 3 else np.inf])
    with pytest.raises(TrainingDiverged, match="seed 8 .* at step 3") as err:
        train(ansatz, h, TrainConfig(steps=10, seed=7, restarts=2))
    np.testing.assert_array_equal(err.value.trace, [2.0, 2.0, np.inf])


def test_divergence_of_two_members_reports_the_first(h_reduced):
    h = h_reduced(U=5.0)
    ansatz = _Scripted(
        lambda call: [1.0, 2.0] if call < 2 else [np.nan, np.inf])
    with pytest.raises(TrainingDiverged, match="seed 7 .* at step 2") as err:
        train(ansatz, h, TrainConfig(steps=10, seed=7, restarts=2))
    assert err.value.trace[0] == 1.0 and np.isnan(err.value.trace[1])


# --- restarts as one population ----------------------------------------------

class _Recorder:
    """Forwards to ``ansatz`` and keeps every population it is called with,
    so each member's trajectory inside ``train`` can be read back."""

    def __init__(self, ansatz):
        self.ansatz = ansatz
        self.complex_mode = ansatz.complex_mode
        self.thetas, self.energies = [], []

    def initial_vector(self, rng):
        return self.ansatz.initial_vector(rng)

    def energy_gradient(self, thetas, h):
        energy, grad, c = self.ansatz.energy_gradient(thetas, h)
        self.thetas.append(thetas.copy())
        self.energies.append(energy.copy())
        return energy, grad, c

    def coefficients(self, thetas):
        self.thetas.append(thetas.copy())
        self.final = self.ansatz.coefficients(thetas)
        return self.final


def _single_start(ansatz, h, seed, steps):
    """One start trained on its own: the Adam loop written out, on a
    population of one. Returns its energy trace and every iterate."""
    theta = ansatz.initial_vector(np.random.default_rng(seed))
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    energies, thetas = [], []
    for step in range(1, steps + 1):
        energy, grad, _ = ansatz.energy_gradient(theta[None], h)
        energies.append(energy[0])
        thetas.append(theta)
        m = BETA1 * m + (1.0 - BETA1) * grad[0]
        v = BETA2 * v + (1.0 - BETA2) * grad[0] * grad[0]
        m_hat = m / (1.0 - BETA1 ** step)
        v_hat = v / (1.0 - BETA2 ** step)
        theta = theta - 0.02 * m_hat / (np.sqrt(v_hat) + EPSILON)
    energies.append(_energy(ansatz, theta, h))
    thetas.append(theta)
    return np.array(energies), np.array(thetas)


def _population_case(name, h_reduced):
    if "complex" in name:
        h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2),
                           reduced_basis(6, 5))
        if name == "nn-complex":
            return MlpAnsatz(h, hidden=(7, 4), complex_mode=True), h
        return CircuitAnsatz(h, "compressed", 2, complex_mode=True), h
    h = h_reduced(U=8.0)
    if name == "nn":
        return MlpAnsatz(h, hidden=(7, 4)), h
    return CircuitAnsatz(h, name, 2), h


@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("name", ["compressed", "quat", "complex-compressed",
                                  "nn", "nn-complex"])
def test_population_members_match_single_starts(name, restarts, h_reduced):
    ansatz, h = _population_case(name, h_reduced)
    seed, steps = 3, 25
    recorder = _Recorder(ansatz)
    result = train(recorder, h, TrainConfig(steps=steps, seed=seed,
                                            restarts=restarts))
    # one call per step and one for the final energy, each on all members
    thetas = np.array(recorder.thetas)
    assert thetas.shape == (steps + 1, restarts, ansatz.n_params)
    energies = np.array(recorder.energies)
    best = []
    for r in range(restarts):
        ref_energies, ref_thetas = _single_start(ansatz, h, seed + r, steps)
        trace = np.append(energies[:, r],
                          rayleigh_energy(recorder.final[r], h))
        assert np.array_equal(trace, ref_energies)
        assert np.array_equal(thetas[:, r], ref_thetas)
        k = int(np.argmin(ref_energies))  # the first of equal minima
        best.append((ref_energies[k], ref_thetas[k], ref_energies))
    win = int(np.argmin([b[0] for b in best]))
    assert result.seed == seed + win
    assert result.final_energy == best[win][0]
    assert np.array_equal(result.theta, best[win][1])
    assert np.array_equal(result.energies, best[win][2])


def test_network_population_is_one_forward_and_one_backward_pass(
        h_reduced, monkeypatch):
    h = h_reduced(U=8.0)
    ansatz = MlpAnsatz(h, hidden=(7, 4))
    thetas = np.array([ansatz.initial_vector(np.random.default_rng(seed))
                       for seed in range(3)])
    calls = []
    for name in ("mlp_forward", "mlp_backward"):
        def spy(*args, _name=name, _real=getattr(neural, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(neural, name, spy)
    energies, grads, c = ansatz.energy_gradient(thetas, h)
    assert calls == ["mlp_forward", "mlp_backward"]
    assert energies.shape == (3,) and grads.shape == thetas.shape
    assert c.shape == (3, h.dim)


def test_tied_members_pick_the_lowest_seed(h_reduced):
    h = h_reduced(U=5.0)
    # seeds 5 and 6 tie at -1 on every step and beat seed 4; the final
    # energies are the uniform vector's, above -1, for every member
    result = train(_Scripted(lambda call: [1.0, -1.0, -1.0]), h,
                   TrainConfig(steps=20, seed=4, restarts=3))
    assert result.seed == 5
    assert result.final_energy == -1.0


def test_layer_study_rows(h_reduced):
    h = h_reduced(U=5.0)
    rows = layer_study("quat", [0, 1], h, TrainConfig(steps=30, seed=0))
    assert [r[0] for r in rows] == [0, 1]
    assert rows[1][1] <= rows[0][1] + 1e-9


def test_nn_full_basis_published_value():
    # the 252-state network baseline reaches -7.54750 at U=2
    h = build_full(ModelParams(1.0, 2.0, 6, 5))
    result = train(MlpAnsatz(h), h, TrainConfig(steps=1500, seed=0))
    assert result.final_energy == pytest.approx(-7.54750, abs=2e-3)


def test_layer_study_published_values(h_reduced):
    # published 1200-step energies at U=5: -5.40019 (3 layers), -5.46048
    # (6 layers); local minima make runs seed-sensitive, so compare the
    # best-of-5 protocol within the run-to-run tolerance
    h = h_reduced(U=5.0)
    rows = dict(layer_study("compressed", [3, 6], h,
                            TrainConfig(steps=1200, seed=0, restarts=5)))
    assert rows[3] == pytest.approx(-5.40019, abs=5e-2)
    assert rows[6] == pytest.approx(-5.46048, abs=5e-2)
    assert rows[6] < rows[3]


def test_trace_csv(tmp_path):
    result = TrainResult(np.zeros(3), np.array([1.0, 0.5, 0.25]), seed=0,
                         final_energy=0.25)
    path = tmp_path / "trace.csv"
    write_trace_csv(result, 0.2, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,energy,loss"
    assert len(lines) == 4
    step, energy, loss = lines[2].split(",")
    assert (int(step), float(energy)) == (1, 0.5)
    assert float(loss) == pytest.approx(0.2 - 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, restarts=0)
