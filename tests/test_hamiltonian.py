import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lanczos_oracle

from bosehub.basis import (
    BasisDescriptor,
    BasisKind,
    PartitionError,
    full_basis,
    rank,
    reduced_basis,
)
from bosehub.hamiltonian import (
    DiagonalizationError,
    GroundState,
    HamiltonianMatrix,
    ModelParams,
    build_deformed,
    build_full,
    build_reduced,
    deformation_ranks,
    ground_state,
    interaction_energy,
    min_eigenvalue_power,
    write_ground_state_csv,
    write_matrix_coo,
)
from bosehub.hamiltonian import (
    LANCZOS_TOL,
    _CHECK_ROWS,
    _assemble,
    _hermitian_deviation,
    _lanczos,
)

TABLE1 = {2.0: -7.54752, 5.0: -5.46241, 8.0: -4.37439}


def test_diagonal_entry_formula(h_full):
    h = h_full(U=2.0)
    states = h.basis.representatives().tolist()
    col = states.index([5, 0, 0, 0, 0, 0])
    assert h.matrix[col, col] == pytest.approx(20.0)


def test_limit_t_zero(h_full):
    h = build_full(ModelParams(0.0, 5.0, 6, 5))
    assert ground_state(h).energy == pytest.approx(0.0, abs=1e-9)


def test_limit_u_zero(h_full):
    # oracle: all bosons condense into the zero-momentum ring mode with
    # single-particle energy -2t, giving -2 t N
    h = build_full(ModelParams(1.0, 0.0, 6, 5))
    assert ground_state(h).energy == pytest.approx(-2.0 * 1.0 * 5, abs=1e-9)


def test_uniform_composite_vector_is_not_the_condensate(h_reduced):
    # The U=0 ground state is the condensate, whose Fock amplitudes carry
    # multinomial weights; the flat composite vector sqrt(m_C) lies strictly
    # above the -2tN ground energy.
    h = h_reduced(U=0.0)
    v = np.sqrt(h.basis.multiplicities())
    quotient = float(v @ h.matrix @ v / (v @ v))
    assert quotient > -10.0 + 0.5
    assert ground_state(h).energy == pytest.approx(-10.0, abs=1e-9)


@pytest.mark.parametrize("u,energy", sorted(TABLE1.items()))
def test_published_ground_energies(h_full, u, energy):
    assert ground_state(h_full(U=u)).energy == pytest.approx(energy, abs=1e-5)


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("u", [0.0, 2.0, 5.0, 8.0])
def test_full_vs_reduced_equivalence(t, u, reduced26):
    params = ModelParams(t, u, 6, 5)
    e_full = ground_state(build_full(params)).energy
    e_red = ground_state(build_reduced(params, reduced26)).energy
    assert abs(e_full - e_red) < 1e-9


@pytest.mark.parametrize("kind,dim", [(BasisKind.REDUCED, 26),
                                      (BasisKind.TRANSLATION, 42)])
def test_reduced_matrix_matches_representative_row_formula(kind, dim):
    # dense reference: entry H[C,C'] = sqrt(m_C/m_C') sum_{s' in C'}
    # <rep_C|H_full|s'>, read off the full-basis matrix
    params = ModelParams(1.0, 5.0, 6, 5)
    basis = reduced_basis(6, 5, kind)
    assert basis.dim == dim
    full = build_full(params)
    states = map(tuple, full.basis.representatives().tolist())
    index = {s: i for i, s in enumerate(states)}
    reps = basis.representatives().tolist()
    mult = basis.multiplicities()
    direct = np.zeros((dim, dim))
    for ci in range(dim):
        row = index[tuple(reps[ci])]
        for cj in range(dim):
            members = basis.states[basis.class_of == cj].tolist()
            total = sum(full.matrix[row, index[tuple(s)]] for s in members)
            direct[ci, cj] = np.sqrt(mult[ci] / mult[cj]) * total
    built = build_reduced(params, basis).matrix
    np.testing.assert_allclose(built, direct, atol=1e-10)


def test_reduced_build_skips_the_full_matrix():
    # 8 sites / 8 bosons: 6435 states in 440 classes; a dense full-basis
    # matrix alone would take 331 MB
    basis = reduced_basis(8, 8)
    tracemalloc.start()
    try:
        h = build_reduced(ModelParams(1.0, 5.0, 8, 8), basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.dim == 440
    assert peak < 50e6


def test_reduced_build_rejects_incomplete_classes(reduced26):
    keep = reduced26.class_of < reduced26.dim - 1
    with pytest.raises(PartitionError):
        broken = BasisDescriptor(BasisKind.REDUCED, reduced26.states[keep],
                                 reduced26.class_of[keep], 6, 5)
        build_reduced(ModelParams(1.0, 5.0, 6, 5), broken)


@pytest.mark.parametrize("case", ["wrong_boson_count", "wrong_length",
                                  "negative_occupation", "fractional_occupation",
                                  "member_in_two_classes", "other_site_count"])
def test_reduced_build_rejects_non_partitions(reduced26, case):
    # all but the last keep the state count at C(10, 5) = 252; all but the
    # last two swap one state, so only the state check or the repeat check
    # can catch them. A wrong length is a seventh, empty site on every
    # state, and a member in two classes is a repeated row.
    states, class_of = reduced26.states, reduced26.class_of
    swap_in = {"wrong_boson_count": (5, 1, 0, 0, 0, 0),
               "negative_occupation": (5, 1, -1, 0, 0, 0),
               "fractional_occupation": (0.5, 4.5, 0, 0, 0, 0),
               "member_in_two_classes": states[0]}
    if case in swap_in:
        new = np.asarray(swap_in[case])
        states = states.astype(np.result_type(states, new))
        states[-1] = new
    elif case == "wrong_length":
        states = np.hstack([states, np.zeros_like(states[:, :1])])
    else:
        other = reduced_basis(5, 5)
        states, class_of = other.states, other.class_of
    with pytest.raises(PartitionError):
        basis = BasisDescriptor(BasisKind.REDUCED, states, class_of, 6, 5)
        build_reduced(ModelParams(1.0, 5.0, 6, 5), basis)


@pytest.mark.parametrize("sites,bosons", [(4, 3), (5, 4), (8, 3)])
def test_reduction_equivalence_other_lattices(sites, bosons):
    params = ModelParams(1.0, 3.0, sites, bosons)
    e_full = ground_state(build_full(params)).energy
    e_red = ground_state(
        build_reduced(params, reduced_basis(sites, bosons))).energy
    assert abs(e_full - e_red) < 1e-9


def test_forty_site_ring_beyond_a_packed_key():
    # 3**40 > 2**63: a base-(bosons+1) integer key of a state would overflow
    params = ModelParams(1.0, 5.0, 40, 2)
    e_full = ground_state(build_full(params)).energy
    e_red = ground_state(build_reduced(params, reduced_basis(40, 2))).energy
    assert abs(e_full - e_red) < 1e-9


def test_translation_basis_also_matches(reduced26):
    params = ModelParams(1.0, 5.0, 6, 5)
    tr = reduced_basis(6, 5, BasisKind.TRANSLATION)
    e42 = ground_state(build_reduced(params, tr)).energy
    assert e42 == pytest.approx(TABLE1[5.0], abs=1e-5)


def test_single_site_sanity():
    h = build_reduced(ModelParams(1.0, 3.0, 1, 4), reduced_basis(1, 4))
    assert h.dim == 1
    assert h.matrix[0, 0] == pytest.approx(0.5 * 3.0 * 4 * 3)


def test_hermiticity_and_reality(h_full, h_reduced):
    for h in (h_full(U=5.0), h_reduced(U=5.0)):
        np.testing.assert_allclose(h.matrix, h.matrix.conj().T, atol=1e-12)
        assert h.is_real


def test_hop_connectivity_structure(h_full):
    # every nonzero off-diagonal element joins states differing by moving
    # exactly one boson between neighboring sites
    h = h_full(U=2.0)
    states = h.basis.representatives()
    rows, cols = np.nonzero(h.matrix)
    for r, c in zip(rows, cols):
        if r == c:
            continue
        delta = np.subtract(states[r], states[c])
        assert delta.sum() == 0
        nz = np.nonzero(delta)[0]
        assert len(nz) == 2
        assert sorted(delta[nz]) == [-1, 1]
        gap = (nz[1] - nz[0]) % 6
        assert gap in (1, 5)


def test_variational_bound(h_reduced, rng):
    h = h_reduced(U=5.0)
    e0 = ground_state(h).energy
    for _ in range(25):
        v = rng.standard_normal(h.dim)
        v /= np.linalg.norm(v)
        assert v @ h.matrix @ v >= e0 - 1e-9


def test_ground_state_sign_structure(h_full):
    # Perron-Frobenius: the full-basis ground vector can be chosen strictly
    # positive, matching the positive neural parameterization
    state = ground_state(h_full(U=5.0))
    assert np.all(state.amplitudes > 0)


def test_ground_state_normalized_and_residual(h_full):
    h = h_full(U=8.0)
    state = ground_state(h)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    resid = np.linalg.norm(h.matrix @ state.amplitudes
                           - state.energy * state.amplitudes)
    assert resid <= 1e-9 * np.abs(h.matrix).max() * h.dim


def test_scalar_matrix():
    h = build_reduced(ModelParams(1.0, 2.0, 1, 1), reduced_basis(1, 1))
    state = ground_state(h)
    assert state.energy == pytest.approx(0.0)
    assert abs(state.amplitudes[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("kwargs,message", [
    ({"sites": 0}, "sites must be >= 1"),
    ({"bosons": -1}, "bosons must be >= 0"),
    ({"t": np.nan}, "t, U, phi must be finite"),
    ({"U": np.inf}, "t, U, phi must be finite"),
    ({"phi": -np.inf}, "t, U, phi must be finite"),
], ids=["sites", "bosons", "t", "U", "phi"])
def test_model_params_refusals(kwargs, message):
    fields = {"t": 1.0, "U": 5.0, "sites": 6, "bosons": 5, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        ModelParams(**fields)


def test_non_hermitian_rejected(reduced26):
    bad = np.zeros((26, 26))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        HamiltonianMatrix(bad, reduced26, ModelParams(1.0, 2.0, 6, 5))
    # the shape is checked first, so no matrix is empty
    with pytest.raises(ValueError, match="^matrix shape \\(0, 0\\) does not "
                                         "match basis dim 26$"):
        HamiltonianMatrix(np.zeros((0, 0)), reduced26,
                          ModelParams(1.0, 2.0, 6, 5))


def test_power_iteration_cross_check(h_reduced):
    h = h_reduced(U=5.0)
    e_dense = ground_state(h).energy
    e_power = min_eigenvalue_power(h)
    assert abs(e_dense - e_power) < 1e-7


def test_power_iteration_reports_no_convergence(h_reduced):
    # the change between the last two energies (1.50 from the fourth
    # iterate to the fifth); the first energy has none before it
    for max_iter, delta in ((1, "inf"), (5, "1\\.50e\\+00")):
        with pytest.raises(DiagonalizationError, match=(
                f"^power iteration did not converge in {max_iter} steps "
                f"\\(last delta {delta}\\)$")):
            min_eigenvalue_power(h_reduced(U=5.0), max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_power_iteration_refuses_no_iterations(max_iter, h_reduced):
    with pytest.raises(ValueError,
                       match=f"^max_iter must be >= 1, got {max_iter}$"):
        min_eigenvalue_power(h_reduced(U=5.0), max_iter=max_iter)


def test_hermiticity_deviation_counts_the_conjugate(reduced26):
    # m - m^H, not m - m^T: equal imaginary parts above and below the
    # diagonal are a deviation of 2, while a conjugate pair is Hermitian
    params = ModelParams(1.0, 2.0, 6, 5)
    bad = np.zeros((26, 26), dtype=complex)
    bad[0, 1] = bad[1, 0] = 1j
    with pytest.raises(ValueError, match=r"deviation 2\.00e\+00"):
        HamiltonianMatrix(bad, reduced26, params)
    good = bad.copy()
    good[1, 0] = -1j
    HamiltonianMatrix(good, reduced26, params)


# --- Lanczos ground state against the dense eigh oracle -----------------

@pytest.fixture
def eigh_sizes(monkeypatch):
    """The size of every matrix passed to ``np.linalg.eigh``."""
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def _eigh_ground(h):
    energies, vectors = np.linalg.eigh(h.matrix)
    return energies[0], vectors[:, 0]


def _lanczos_case(name):
    if name == "6/5 full":
        return build_full(ModelParams(1.0, 5.0, 6, 5))
    if name == "t=0":
        return build_full(ModelParams(0.0, 5.0, 6, 5))
    if name == "8/8 deformed":
        return build_deformed(ModelParams(1.0, 5.0, 8, 8, phi=0.7),
                              reduced_basis(8, 8))
    if name == "D=2":
        # t < 0: the ground state (1, -1)/sqrt(2) is orthogonal to the
        # uniform vector, so a uniform start would find +2
        return build_full(ModelParams(-1.0, 3.0, 2, 1))
    if name == "6/5 deformed":
        return build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2),
                              reduced_basis(6, 5))
    sites, bosons, u = {"8/8 U=2": (8, 8, 2.0), "8/8 U=5": (8, 8, 5.0),
                        "8/8 U=8": (8, 8, 8.0), "10/8 U=5": (10, 8, 5.0),
                        "D=1": (1, 4, 3.0)}[name]
    return build_reduced(ModelParams(1.0, u, sites, bosons),
                         reduced_basis(sites, bosons))


@pytest.mark.parametrize("name", ["6/5 full", "8/8 U=2", "8/8 U=5",
                                  "8/8 U=8", "10/8 U=5", "6/5 deformed",
                                  "D=1", "D=2"])
def test_lanczos_matches_dense_eigh(name):
    h = _lanczos_case(name)
    state = ground_state(h)
    energy, vector = _eigh_ground(h)
    assert abs(state.energy - energy) <= 1e-10
    assert abs(np.vdot(vector, state.amplitudes)) >= 1.0 - 1e-10
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_lanczos_on_the_degenerate_t_zero_spectrum(eigh_sizes):
    # t=0 leaves a diagonal matrix with 7 distinct values whose ground
    # energy 0 is six-fold degenerate. ARPACK (scipy.sparse.linalg.eigsh)
    # returns 5.0 here, with or without v0 and at each ncv tried; the Lanczos
    # loop must stop at the breakdown and return a vector of the null space.
    h = build_full(ModelParams(0.0, 5.0, 6, 5))
    assert len(np.unique(np.diag(h.matrix))) == 7
    state = ground_state(h)
    # the Krylov space of 7 distinct eigenvalues is invariant after 7 steps
    assert eigh_sizes[-1] == 7
    assert f"{state.energy:.5f}" == "0.00000"
    assert abs(state.energy) <= 1e-12
    assert np.linalg.norm(h.matrix @ state.amplitudes) <= 1e-12
    occupied = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
    assert np.all(np.diag(h.matrix)[occupied] == 0.0)


@pytest.mark.parametrize("name", ["8/8 U=5", "6/5 deformed"])
def test_lanczos_is_deterministic(name):
    h = _lanczos_case(name)
    a, b = ground_state(h), ground_state(h)
    assert a.energy == b.energy
    assert a.amplitudes.tobytes() == b.amplitudes.tobytes()


def test_ground_state_phase_makes_the_largest_component_positive():
    state = ground_state(_lanczos_case("6/5 deformed"))
    k = np.argmax(np.abs(state.amplitudes))
    assert abs(state.amplitudes[k].imag) <= 1e-15
    assert state.amplitudes[k].real > 0


@pytest.mark.parametrize("name", ["6/5 full", "8/8 U=5"])
def test_no_dense_eigh_of_the_hamiltonian(name, eigh_sizes):
    h = _lanczos_case(name)
    ground_state(h)
    # the loop converges long before its Krylov space is the whole space
    assert eigh_sizes and max(eigh_sizes) < h.dim // 2


@pytest.mark.parametrize("name", ["6/5 full", "8/8 U=2", "8/8 U=5",
                                  "8/8 U=8", "10/8 U=5", "6/5 deformed",
                                  "D=1", "D=2", "t=0", "8/8 deformed"])
def test_lanczos_matches_the_every_fourth_step_oracle(name):
    # the loop that checks every fourth step stops at the same step and
    # returns the same bytes
    h = _lanczos_case(name)
    tol = LANCZOS_TOL * h.scale
    vec, steps, _ = _lanczos(h.matrix, tol)
    ref_vec, ref_steps = lanczos_oracle.lanczos(h.matrix, tol)
    assert steps == ref_steps
    assert vec.tobytes() == ref_vec.tobytes()


@pytest.mark.parametrize("name", ["6/5 U=5", "6/5 U=8", "6/5 deformed"])
def test_excited_lower_is_the_first_excited_energy_on_a_full_krylov_space(
        name):
    # at these points Lanczos runs all 26 steps, so its second Ritz value is
    # an eigenvalue and its residual vanishes
    h = _lanczos_case(name) if name == "6/5 deformed" else build_reduced(
        ModelParams(1.0, float(name[-1]), 6, 5), reduced_basis(6, 5))
    assert _lanczos(h.matrix, LANCZOS_TOL * h.scale)[1] == h.dim == 26
    e1 = np.linalg.eigvalsh(h.matrix)[1]
    assert abs(ground_state(h).excited_lower - e1) <= 1e-10


@pytest.mark.parametrize("name", ["6/5 full", "8/8 U=5", "10/8 U=5", "D=2"])
def test_excited_lower_lies_below_the_next_eigenvalue(name):
    # the Krylov space stops short of the whole space, and the second Ritz
    # value less its residual stays at or below the eigenvalue it estimates
    h = _lanczos_case(name)
    energies = np.linalg.eigvalsh(h.matrix)
    e1 = energies[energies > energies[0] + 1e-9][0]
    assert e1 - 1e-7 <= ground_state(h).excited_lower <= e1 + 1e-12


def test_excited_lower_on_the_degenerate_t_zero_spectrum():
    # Temple's ell bounds the next eigenvalue above the ground energy, here
    # 5: the six-fold degenerate ground energy 0 does not count
    assert ground_state(_lanczos_case("t=0")).excited_lower == \
        pytest.approx(5.0, abs=1e-12)
    assert ground_state(_lanczos_case("D=1")).excited_lower == np.inf


@pytest.mark.parametrize("name", ["8/8 U=5", "6/5 full"])
def test_lanczos_skips_most_tridiagonal_eigensolves(name, eigh_sizes):
    # the every-fourth-step loop makes 15 (8/8 U=5) and 13 (6/5 full)
    ground_state(_lanczos_case(name))
    assert 1 <= len(eigh_sizes) <= 8


def _hermitian(draw_real, draw_imag, n, is_complex):
    m = np.asarray(draw_real, dtype=float).reshape(n, n)
    if is_complex:
        m = m + 1j * np.asarray(draw_imag, dtype=float).reshape(n, n)
    return (m + m.conj().T) / 2


ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@given(st.data(), st.integers(1, 40), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lanczos_matches_dense_eigh_on_drawn_matrices(data, n, is_complex):
    real = data.draw(arrays(float, n * n, elements=ENTRIES))
    imag = data.draw(arrays(float, n * n, elements=ENTRIES))
    m = _hermitian(real, imag, n, is_complex)
    h = HamiltonianMatrix(m, full_basis(n, 1), ModelParams(1.0, 0.0, n, 1))
    state = ground_state(h)
    assert abs(state.energy - np.linalg.eigh(m)[0][0]) <= 1e-10


def test_non_finite_matrix_fails_the_residual_check(reduced26):
    m = build_reduced(ModelParams(1.0, 5.0, 6, 5), reduced26).matrix.copy()
    m[0, 1] = m[1, 0] = np.nan
    h = HamiltonianMatrix(m, reduced26, ModelParams(1.0, 5.0, 6, 5))
    with pytest.raises(DiagonalizationError):
        ground_state(h)


def _hops_bond_by_bond(basis):
    """Reference hop table: each directed bond's hops found from the
    representatives on their own, as (row, col, ratio, amp) lists per bond,
    bond (i, i+1) as i <- i+1 then i+1 <- i."""
    reps = basis.representatives()
    mult = basis.multiplicities()
    m = basis.sites
    bonds = []
    for i in range(m if m > 1 else 0):
        j = (i + 1) % m
        for dst, src in ((i, j), (j, i)):
            col = np.flatnonzero(reps[:, src])
            moved = reps[col]
            amp = np.sqrt(moved[:, src] * (moved[:, dst] + 1.0))
            moved[:, src] -= 1
            moved[:, dst] += 1
            row = basis.class_of[rank(moved, basis.bosons)]
            bonds.append((row, col, np.sqrt(mult[col] / mult[row]), amp))
    return bonds


def _assemble_bond_by_bond(params, basis):
    """Reference assembly: each bond's hops scattered on their own, bond
    after bond."""
    h = np.diag(0.5 * params.U * interaction_energy(basis.representatives()))
    for row, col, ratio, amp in _hops_bond_by_bond(basis):
        np.add.at(h, (row, col), ratio * (-params.t * amp))
    return h


HOP_CASES = [(6, 5, "full"), (6, 5, "translation"), (6, 5, "reduced"),
             (8, 8, "reduced"), (2, 3, "full"), (1, 3, "full"),
             (1, 3, "reduced"), (4, 0, "full"), (4, 0, "reduced")]


@pytest.mark.parametrize("sites,bosons,kind", HOP_CASES)
def test_hop_table_lists_the_hops_bond_by_bond(sites, bosons, kind):
    basis = reduced_basis(sites, bosons, kind)
    bonds = _hops_bond_by_bond(basis)
    for got, *parts in zip(basis.hops, *bonds):
        reference = np.concatenate([np.empty(0, got.dtype), *parts])
        assert got.dtype == reference.dtype
        assert got.tobytes() == reference.tobytes()


@pytest.mark.parametrize("sites,bosons,kind", HOP_CASES)
@pytest.mark.parametrize("t,u", [(1.0, 5.0), (0.3, 2.0), (0.0, 8.0)])
def test_hop_triplet_assembly_is_bit_identical(sites, bosons, kind, t, u):
    params = ModelParams(t, u, sites, bosons)
    basis = reduced_basis(sites, bosons, kind)
    built = _assemble(params, basis)
    assert built.tobytes() == _assemble_bond_by_bond(params, basis).tobytes()


# --- builds against the dense formulas ----------------------------------

def _dense_reduced(params, basis):
    """The mirror scrub over the whole D x D matrix."""
    h = _assemble(params, basis)
    return h if basis.kind is BasisKind.FULL else 0.5 * (h + h.T)


def _dense_deformed(params, basis):
    """The phases through a dense complex factor."""
    base = _dense_reduced(
        ModelParams(params.t, params.U, params.sites, params.bosons), basis)
    ranks = deformation_ranks(basis.representatives())
    phase = np.exp(1j * params.phi)
    factor = np.where(ranks[:, None] < ranks[None, :], phase, np.conj(phase))
    np.fill_diagonal(factor, 1.0)
    return base.astype(complex) * factor


BUILD_CASES = [(6, 5, "full"), (6, 5, "translation"), (6, 5, "reduced"),
               (8, 8, "reduced"), (10, 8, "reduced")]


@pytest.mark.parametrize("sites,bosons,kind", BUILD_CASES)
def test_build_is_bitwise_the_dense_scrub(sites, bosons, kind):
    params = ModelParams(1.0, 5.0, sites, bosons)
    basis = reduced_basis(sites, bosons, kind)
    built = (build_full if kind == "full" else build_reduced)(params, basis)
    assert built.matrix.tobytes() == _dense_reduced(params, basis).tobytes()


@pytest.mark.parametrize("sites,bosons", [(6, 5), (8, 8), (10, 8)])
@pytest.mark.parametrize("phi", [np.pi / 2, -0.7, 0.3])
def test_deformed_build_is_bitwise_the_dense_factor(sites, bosons, phi):
    params = ModelParams(1.0, 5.0, sites, bosons, phi)
    basis = reduced_basis(sites, bosons)
    built = build_deformed(params, basis).matrix
    assert built.tobytes() == _dense_deformed(params, basis).tobytes()


@pytest.mark.parametrize("phi", [2.2, -2.5])
def test_deformed_build_at_negative_cosine_differs_only_in_signed_zeros(phi):
    # with cos(phi) < 0 the dense product gives the zero entries a -0.0
    # part on one side of the rank order; the build leaves them +0.0. Equal
    # finite values can differ in their bytes only by the sign of a zero.
    params = ModelParams(1.0, 5.0, 8, 8, phi)
    basis = reduced_basis(8, 8)
    built = build_deformed(params, basis).matrix
    dense = _dense_deformed(params, basis)
    np.testing.assert_array_equal(built, dense)


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("col", ["next", "first block"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_blockwise_hermiticity_check_matches_the_dense_one(where, col,
                                                           is_complex):
    # 6/5 full has 252 rows: seven whole blocks and a partial last one. The
    # deviation sits beside the diagonal, inside the row's own block, or
    # below it in the first block's columns.
    m = build_full(ModelParams(1.0, 5.0, 6, 5)).matrix.astype(
        complex if is_complex else float)
    n = len(m)
    assert n % _CHECK_ROWS
    row = {"first": 1, "middle": n // 2, "last": n - 2}[where]
    assert row // _CHECK_ROWS == (row + 1) // _CHECK_ROWS
    m[row, row + 1 if col == "next" else 3] += 2.5e-3 * (
        1 + 1j if is_complex else 1)
    dense = np.abs(m - m.conj().T).max(), np.abs(m).max()
    got = _hermitian_deviation(m)
    assert np.float64(got[0]).tobytes() == dense[0].tobytes()
    assert np.float64(got[1]).tobytes() == dense[1].tobytes()
    with pytest.raises(ValueError, match="not Hermitian"):
        HamiltonianMatrix(m, full_basis(6, 5), ModelParams(1.0, 5.0, 6, 5))


def _build_peak(build, *args):
    tracemalloc.start()
    try:
        h = build(*args)
        return h, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_builds_hold_no_dense_temporary():
    # 10 sites / 8 bosons: 1282 classes. The dense scrub and check held two
    # D x D matrices at once, the dense phase factor more.
    basis = reduced_basis(10, 8)
    h, peak = _build_peak(build_reduced, ModelParams(1.0, 5.0, 10, 8), basis)
    assert peak <= 1.25 * h.matrix.nbytes
    h, peak = _build_peak(build_deformed,
                          ModelParams(1.0, 5.0, 10, 8, phi=0.7), basis)
    assert peak <= 1.25 * (h.matrix.nbytes + h.matrix.real.nbytes)


def test_matrix_keeps_its_scale(reduced26):
    h = build_reduced(ModelParams(1.0, 8.0, 6, 5), reduced26)
    assert h.scale == np.max(np.abs(h.matrix))
    small = build_reduced(ModelParams(0.1, 0.0, 6, 5), reduced26)
    assert small.scale == 1.0


def test_basis_mismatch_rejected(reduced26):
    params = ModelParams(1.0, 2.0, 6, 4)
    with pytest.raises(ValueError):
        build_full(params, full_basis(6, 5))


def test_builds_refuse_a_phase_or_the_wrong_basis(reduced26):
    params = ModelParams(1.0, 5.0, 6, 5)
    deformed = ModelParams(1.0, 5.0, 6, 5, phi=0.5)
    with pytest.raises(ValueError,
                       match="^full-basis construction requires phi = 0$"):
        build_full(deformed)
    with pytest.raises(ValueError, match="^build_full needs a full basis$"):
        build_full(params, reduced26)
    with pytest.raises(ValueError, match="^use build_deformed for phi != 0$"):
        build_reduced(deformed, reduced26)
    with pytest.raises(ValueError, match="^the deformation is defined on the "
                                         "fully reduced basis$"):
        build_deformed(deformed, reduced_basis(6, 5, BasisKind.TRANSLATION))


# --- complex deformation -----------------------------------------------

def test_deformed_phi_zero_is_reduced(reduced26):
    a = build_reduced(ModelParams(1.0, 5.0, 6, 5), reduced26)
    b = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=0.0), reduced26)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert b.is_real


def test_deformed_published_energy(reduced26):
    h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2), reduced26)
    assert not h.is_real
    assert ground_state(h).energy == pytest.approx(-4.6590, abs=1e-3)


def test_deformed_convention_study(reduced26):
    """Documents the phase-orientation study resolving the convention.

    Interaction-ranked triangle phases reproduce the published value; the
    plain lexicographic orientation sits ~0.22 above it.
    """
    params = ModelParams(1.0, 5.0, 6, 5, phi=np.pi / 2)
    e_interaction = ground_state(
        build_deformed(params, reduced26, orientation="interaction")).energy
    e_lex = ground_state(
        build_deformed(params, reduced26, orientation="lex")).energy
    assert e_interaction == pytest.approx(-4.65903, abs=1e-4)
    assert e_lex == pytest.approx(-4.43560, abs=1e-4)
    assert abs(e_interaction - (-4.6590)) < 1e-3
    assert abs(e_lex - (-4.6590)) > 1e-2


@pytest.mark.parametrize("phi", [0.3, 1.0, np.pi / 2, 2.2])
def test_deformed_hermitian_any_phi(reduced26, phi):
    h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=phi), reduced26)
    np.testing.assert_allclose(h.matrix, h.matrix.conj().T, atol=1e-12)
    evals = np.linalg.eigvals(h.matrix)
    assert np.max(np.abs(evals.imag)) < 1e-9


def test_deformed_magnitudes_match_reduced(reduced26):
    base = build_reduced(ModelParams(1.0, 5.0, 6, 5), reduced26)
    h = build_deformed(ModelParams(1.0, 5.0, 6, 5, phi=0.7), reduced26)
    np.testing.assert_allclose(np.abs(h.matrix), np.abs(base.matrix),
                               atol=1e-12)
    np.testing.assert_allclose(np.diag(h.matrix).imag, 0, atol=1e-15)


def test_deformation_ranks_are_a_permutation(reduced26):
    for orientation in ("interaction", "lex"):
        ranks = deformation_ranks(reduced26.representatives(), orientation)
        assert sorted(ranks) == list(range(26))
    with pytest.raises(ValueError):
        deformation_ranks(reduced26.representatives(), "bogus")


def test_interaction_energy():
    np.testing.assert_array_equal(
        interaction_energy([[5, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 0]]), [20, 0])


# --- dumps ---------------------------------------------------------------

def test_matrix_coo_dump(tmp_path, h_reduced):
    h = h_reduced(U=5.0)
    path = tmp_path / "matrix.txt"
    write_matrix_coo(h, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# dim=26 t=1.0 U=5.0 phi=0.0 basis=reduced")
    rebuilt = np.zeros((26, 26), complex)
    for line in lines[1:]:
        r, c, re, im = line.split()
        rebuilt[int(r), int(c)] = float(re) + 1j * float(im)
    np.testing.assert_array_equal(rebuilt.real, h.matrix)


def test_ground_state_csv(tmp_path, h_reduced):
    state = ground_state(h_reduced(U=5.0))
    path = tmp_path / "ground.csv"
    write_ground_state_csv(state, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "class_index,amplitude_re,amplitude_im"
    assert len(lines) == 27
    amp0 = float(lines[1].split(",")[1])
    assert amp0 == pytest.approx(state.amplitudes[0])


def test_ground_state_csv_matches_the_csv_module(tmp_path):
    import csv

    amps = np.array([0.5 - 0.25j, -0.0 + 1e-300j, 1 / 3 + 0j, -2e-17 - 0.0j,
                     1e16 + 123456789.125j])
    path = tmp_path / "ground.csv"
    write_ground_state_csv(GroundState(-1.0, amps), path)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_index", "amplitude_re", "amplitude_im"])
        for i, a in enumerate(amps):
            writer.writerow([i, repr(float(a.real)), repr(float(a.imag))])
    assert path.read_bytes() == reference.read_bytes()
