import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosehub import circuit as qc
from bosehub import neural
from bosehub.basis import reduced_basis
from bosehub.hamiltonian import ModelParams, build_deformed, build_full, \
    build_reduced, gershgorin_upper_bound, ground_state
from bosehub.variational import (
    CERTIFIED_GAP,
    DAMPING,
    MAX_STEP,
    MIN_DAMPING,
    RESIDUAL_DAMPING,
    STABLE_RATE,
    CircuitAnsatz,
    MlpAnsatz,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    layer_study,
    rayleigh_energy,
    rayleigh_residual,
    spectral_width,
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
    with pytest.raises(ValueError, match="^zero coefficient vector$"):
        rayleigh_residual(np.zeros(26), h_reduced(U=5.0))


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


def _textbook_step(c, jac, h, width):
    """J~^T (J~ J~^T + eps I)^-1 r, |r|^2 and eps, with J~ = (I - u u^H)
    J/|c|, r = (H - E) u, real and imaginary parts stacked, and
    eps = min(DAMPING, RESIDUAL_DAMPING |r|/width)."""
    u = c / np.linalg.norm(c)
    energy = np.vdot(u, h.matrix @ u).real
    r = h.matrix @ u - energy * u
    jt = (jac - np.outer(u, u.conj() @ jac)) / np.linalg.norm(c)
    if np.iscomplexobj(jt):
        jt = np.concatenate([jt.real, jt.imag])
        r = np.concatenate([r.real, r.imag])
    eps = min(DAMPING, RESIDUAL_DAMPING * np.sqrt(r @ r) / width)
    step = jt.T @ np.linalg.solve(jt @ jt.T + eps * np.eye(len(jt)), r)
    return step, r @ r, eps


def _network_jacobian(ansatz, theta):
    """dc/dtheta of one network, from one backward pass per class and
    output."""
    params = ansatz._template.with_flat(theta)
    out, cache = neural.mlp_forward(params, ansatz.features)
    c = neural.output_to_coefficient(out)
    rows = []
    for b in range(len(c)):
        grads = []
        for a in range(params.n_outputs):
            upstream = np.zeros(out.shape)
            upstream[b, a] = 1.0
            grads.append(neural.mlp_backward(params, cache, upstream))
        rows.append(c[b] * (grads[0] if len(grads) == 1
                            else grads[0] + 1j * grads[1]))
    return c, np.array(rows)


@pytest.mark.parametrize("complex_mode,phi", [(False, 0.0), (True, 0.0),
                                              (True, np.pi / 2)])
@pytest.mark.parametrize("kind", ["compressed", "quat", "nn"])
def test_natural_step_is_the_textbook_formula(kind, complex_mode, phi,
                                              reduced26, rng):
    params = ModelParams(1.0, 5.0, 6, 5, phi)
    h = (build_deformed(params, reduced26) if phi
         else build_reduced(params, reduced26))
    if kind == "nn":
        ansatz = MlpAnsatz(h, hidden=(7, 4), complex_mode=complex_mode)
        thetas = np.array([ansatz.initial_vector(rng) for _ in range(2)])
    else:
        ansatz = CircuitAnsatz(h, kind, 3, complex_mode=complex_mode)
        thetas = np.array([qc.init_params(kind, 3, rng, 1.0).values
                           for _ in range(2)])
    # without a width, the same method returns dE/dtheta, in the same
    # five-value shape, with no damping
    energies_plain, _, c_plain, variances_plain, none = \
        ansatz.energy_gradient(thetas, h)
    assert none is None
    # a width that puts the member of the larger variance above the damping
    # cap and the other one below it, by the same factor
    width = RESIDUAL_DAMPING * np.sqrt(np.sqrt(np.prod(variances_plain))) \
        / DAMPING
    energies, steps, c, variances, dampings = ansatz.energy_gradient(
        thetas, h, width=width)
    damped = []
    for k, theta in enumerate(thetas):
        if kind == "nn":
            ck, jac = _network_jacobian(ansatz, theta)
        else:
            ck, jac = qc.weights_and_jacobian(kind, theta, ansatz.features,
                                              complex_mode)
        np.testing.assert_allclose(c[k], ck, rtol=1e-14)
        step, variance, eps = _textbook_step(ck, jac, h, width)
        assert np.abs(steps[k] - step).max() <= 1e-10 * np.abs(step).max()
        assert variances[k] == pytest.approx(variance, rel=1e-12)
        assert energies[k] == rayleigh_energy(ck, h)
        damped.append(eps)
        assert dampings[k] == pytest.approx(eps, rel=1e-12)
    assert sorted(damped)[0] < DAMPING == sorted(damped)[1]
    assert np.array_equal(energies_plain, energies)
    assert np.array_equal(c_plain, c)
    assert np.array_equal(variances_plain, variances)


@given(kind=st.sampled_from(["nn", "compressed", "quat"]),
       u=st.sampled_from([2.0, 5.0, 8.0]), seed=st.integers(0, 100),
       steps=st.integers(0, 120), restarts=st.integers(1, 2))
@settings(max_examples=20, deadline=None)
def test_temple_bound_brackets_the_ground_energy(kind, u, seed, steps,
                                                 restarts):
    h = build_reduced(ModelParams(1.0, u, 6, 5), reduced_basis(6, 5))
    ansatz = (MlpAnsatz(h, hidden=(7, 4)) if kind == "nn"
              else CircuitAnsatz(h, kind, 2))
    result = train(ansatz, h, TrainConfig(steps=steps, seed=seed,
                                          restarts=restarts))
    exact = np.linalg.eigvalsh(h.matrix)[0]
    assert result.temple_lower_bound <= exact + 1e-9
    assert exact <= result.final_energy + 1e-9
    assert result.excited_lower == ground_state(h).excited_lower
    assert result.steps_taken == len(result.energies) - 1 <= steps


def test_a_certified_run_is_within_the_gap_of_its_bound(h_reduced):
    h = h_reduced(U=5.0)
    result = train(CircuitAnsatz(h, "quat", 6), h,
                   TrainConfig(steps=1200, seed=0))
    assert result.stopped_on == "certificate"
    assert result.steps_taken < 200
    assert result.final_energy - result.temple_lower_bound <= CERTIFIED_GAP
    exact = ground_state(h).energy
    assert result.temple_lower_bound <= exact <= result.final_energy
    assert result.energy_variance > 0.0


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
    energy, _, c, _, _ = ansatz.energy_gradient(theta, h)
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
    # at this seed the natural-gradient steps reach their lowest energy at
    # step 15 and then climb, ending 1.1 higher
    h = h_reduced(U=5.0)
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


# name -> a function that builds the Hamiltonian of that name
SPECTRA = {
    **{f"6/5 U={u:g}": lambda u=u: build_reduced(
        ModelParams(1.0, u, 6, 5), reduced_basis(6, 5))
       for u in (0.0, 2.0, 5.0, 8.0)},
    "6/5 full U=2": lambda: build_full(ModelParams(1.0, 2.0, 6, 5)),
    "6/5 deformed": lambda: build_deformed(
        ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2), reduced_basis(6, 5)),
    "6/5 t=0": lambda: build_reduced(ModelParams(0.0, 5.0, 6, 5),
                                     reduced_basis(6, 5)),
    "8/8 U=5": lambda: build_reduced(ModelParams(1.0, 5.0, 8, 8),
                                     reduced_basis(8, 8)),
}


@pytest.mark.parametrize("name", SPECTRA)
def test_the_default_rate_is_inside_the_stability_edge(name):
    h = SPECTRA[name]()
    spectrum = np.linalg.eigvalsh(h.matrix)
    e0, emax = spectrum[0], spectrum[-1]
    upper = gershgorin_upper_bound(h)
    assert upper >= emax
    # with U >= 0 the diagonal is non-negative, and G is the largest row
    # sum of |H|, bit for bit: the shift power iteration always took
    assert upper == np.max(np.sum(np.abs(h.matrix), axis=1))
    eta = STABLE_RATE / spectral_width(h, upper, ground_state(h).energy)
    assert 0.0 < eta < np.inf
    if upper > e0:
        # a step multiplies excited component k by 1 - eta (E_k - E0)
        assert eta * (emax - e0) < 2.0


@pytest.mark.parametrize("u", [0.0, 1e-310],
                         ids=["zero matrix", "subnormal width"])
def test_a_spectrum_of_zero_width_takes_a_finite_rate(u, reduced26):
    # t = U = 0 is the zero matrix, G = E0 = 0; at U = 1e-310, G - E0 is
    # subnormal and 1.8/(G - E0) would overflow to inf
    h = build_reduced(ModelParams(0.0, u, 6, 5), reduced26)
    upper = gershgorin_upper_bound(h)
    assert upper - ground_state(h).energy < np.finfo(float).eps
    result = train(CircuitAnsatz(h, "quat", 2), h, TrainConfig(steps=5))
    assert (result.learning_rate, result.energy_upper_bound) == (
        STABLE_RATE, upper)
    # sigma = 0 (or subnormal) takes the least damping, not a singular solve
    assert 0.0 < result.damping == MIN_DAMPING
    assert result.final_energy == pytest.approx(0.0, abs=1e-300)
    assert result.stopped_on == "certificate"


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

        def energy_gradient(self, thetas, hh, width=None):
            energies = np.where(thetas[:, 0] != 0, np.nan, 1.0)
            return (energies, np.ones_like(thetas),
                    np.ones((len(thetas), hh.dim)), np.ones(len(thetas)),
                    np.full(len(thetas), np.nan))

        def coefficients(self, thetas):
            return np.ones((len(thetas), h.dim))

    with pytest.raises(TrainingDiverged) as err:
        train(Exploder(), h, TrainConfig(steps=10, seed=0))
    trace = err.value.trace
    assert trace.shape == (2,)
    assert trace[0] == 1.0 and np.isnan(trace[1])


class _Scripted:
    """Members whose energies on the ``call``-th step are ``script(call)``,
    with a variance of 1 that certifies no energy and a NaN damping; every
    member's final energy is the uniform vector's."""

    complex_mode = False

    def __init__(self, script):
        self.script, self.calls = script, 0

    def initial_vector(self, rng):
        return np.zeros(2)

    def energy_gradient(self, thetas, hh, width=None):
        self.calls += 1
        energies = np.array(self.script(self.calls), dtype=float)
        return (energies, np.ones_like(thetas),
                np.ones((len(thetas), hh.dim)), np.ones(len(thetas)),
                np.full(len(thetas), np.nan))

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

        def energy_gradient(self, thetas, hh, width=None):
            seen.append(thetas.copy())
            return super().energy_gradient(thetas, hh, width)

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


@pytest.mark.parametrize("energy,variance,trace", [
    (1.0, 1.0, [1.0, 1.0, 1.0, np.nan]),  # at the step cap
    (-9.0, 0.0, [-9.0, np.nan]),  # one step after a certified iterate
], ids=["step cap", "certificate"])
def test_divergence_at_the_final_step_ends_the_trace(h_reduced, energy,
                                                     variance, trace):
    # the last iterate comes from coefficients alone; its non-finite energy
    # ends the trace, as a divergence inside the loop does
    h = h_reduced(U=5.0)

    class NanAtTheEnd(_Scripted):
        def energy_gradient(self, thetas, hh, width=None):
            out = super().energy_gradient(thetas, hh, width)
            return (*out[:3], np.full(len(thetas), variance), out[4])

        def coefficients(self, thetas):
            return np.full((len(thetas), 26), np.nan)

    with pytest.raises(TrainingDiverged, match="seed 4 became non-finite at "
                                               "the final step$") as err:
        train(NanAtTheEnd(lambda call: [energy]), h,
              TrainConfig(steps=3, seed=4))
    np.testing.assert_array_equal(err.value.trace, trace)


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

    def energy_gradient(self, thetas, h, width=None):
        out = self.ansatz.energy_gradient(thetas, h, width)
        self.thetas.append(thetas.copy())
        self.energies.append(out[0].copy())
        return out

    def coefficients(self, thetas):
        self.thetas.append(thetas.copy())
        self.final = self.ansatz.coefficients(thetas)
        return self.final


def _single_start(ansatz, h, seed, steps, excited_lower, eta, width):
    """One start trained on its own: the capped natural-gradient update of
    rate ``eta`` and spectral ``width`` written out, on a population of one,
    for ``steps`` steps.
    Returns its energy trace, every iterate, and the first step whose energy
    carries Temple's certificate (None if none does)."""
    theta = ansatz.initial_vector(np.random.default_rng(seed))
    energies, thetas, certified = [], [], None
    for step in range(1, steps + 1):
        energy, d, _, variance, _ = ansatz.energy_gradient(theta[None], h,
                                                           width=width)
        energies.append(energy[0])
        thetas.append(theta)
        rate = min(eta, MAX_STEP / np.sqrt(np.square(d[0]).sum()))
        theta = theta - rate * d[0]
        if (certified is None and energy[0] < excited_lower
                and variance[0] / (excited_lower - energy[0])
                <= CERTIFIED_GAP):
            certified = step
    energies.append(_energy(ansatz, theta, h))
    thetas.append(theta)
    return np.array(energies), np.array(thetas), certified


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


def _check_members(ansatz, h, seed, restarts, steps):
    """Train a population and compare each member with its single start up
    to the population's stop: the first step at which some member's energy
    is certified, or ``steps``."""
    recorder = _Recorder(ansatz)
    result = train(recorder, h, TrainConfig(steps=steps, seed=seed,
                                            restarts=restarts))
    ground = ground_state(h)
    width = spectral_width(h, gershgorin_upper_bound(h), ground.energy)
    singles = [_single_start(ansatz, h, seed + r, steps,
                             ground.excited_lower, result.learning_rate,
                             width)
               for r in range(restarts)]
    certified = [s[2] for s in singles if s[2] is not None]
    taken = min(certified, default=steps)
    assert result.steps_taken == taken
    assert result.stopped_on == ("certificate" if certified else "step cap")
    # one call per step and one for the final energy, each on all members
    thetas = np.array(recorder.thetas)
    assert thetas.shape == (taken + 1, restarts, ansatz.n_params)
    energies = np.array(recorder.energies)
    best = []
    for r, (ref_energies, ref_thetas, _) in enumerate(singles):
        ref_energies = np.append(ref_energies[:taken],
                                 _energy(ansatz, ref_thetas[taken], h))
        ref_thetas = ref_thetas[:taken + 1]
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
    return result


@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("name", ["compressed", "quat", "complex-compressed",
                                  "nn", "nn-complex"])
def test_population_members_match_single_starts(name, restarts, h_reduced):
    ansatz, h = _population_case(name, h_reduced)
    _check_members(ansatz, h, seed=3, restarts=restarts, steps=25)


@pytest.mark.parametrize("seed", [0, 1])
def test_population_stops_with_its_first_certified_member(seed, h_reduced):
    # alone, the starts from seeds 0 and 2 certify within about 80 and 90
    # steps and the one from seed 1 only after about 420: each population
    # stops with its first certified member
    h = h_reduced(U=5.0)
    result = _check_members(CircuitAnsatz(h, "quat", 6), h, seed=seed,
                            restarts=2, steps=300)
    assert result.stopped_on == "certificate"


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
    energies, grads, c, variances, _ = ansatz.energy_gradient(thetas, h)
    assert calls == ["mlp_forward", "mlp_backward"]
    assert energies.shape == (3,) and grads.shape == thetas.shape
    assert c.shape == (3, h.dim) and variances.shape == (3,)


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
