import tracemalloc

import numpy as np
import pytest

from bosehub.basis import (
    BasisDescriptor,
    BasisKind,
    PartitionError,
    SymmetryClass,
    full_basis,
    reduced_basis,
)
from bosehub.hamiltonian import (
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

TABLE1 = {2.0: -7.54752, 5.0: -5.46241, 8.0: -4.37439}


def test_diagonal_entry_formula(h_full):
    h = h_full(U=2.0)
    states = h.basis.representatives()
    col = states.index((5, 0, 0, 0, 0, 0))
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
    states = full.basis.representatives()
    index = {s: i for i, s in enumerate(states)}
    direct = np.zeros((dim, dim))
    for ci, cls in enumerate(basis.classes):
        row = index[cls.representative]
        for cj, other in enumerate(basis.classes):
            total = sum(full.matrix[row, index[s]] for s in other.members)
            direct[ci, cj] = np.sqrt(
                cls.multiplicity / other.multiplicity) * total
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
    broken = BasisDescriptor(BasisKind.REDUCED, reduced26.classes[:-1], 6, 5)
    with pytest.raises(PartitionError):
        build_reduced(ModelParams(1.0, 5.0, 6, 5), broken)


def _replace_member(classes, index, old, new):
    members = tuple(sorted(new if m == old else m
                           for m in classes[index].members))
    return (classes[:index] + (SymmetryClass(members[0], members),)
            + classes[index + 1:])


@pytest.mark.parametrize("case", ["wrong_boson_count", "wrong_length",
                                  "negative_occupation", "fractional_occupation",
                                  "member_in_two_classes", "other_site_count"])
def test_reduced_build_rejects_non_partitions(reduced26, case):
    # all but the last keep the member count at C(10, 5) = 252, so only the
    # state check or the repeat check can catch them
    classes = reduced26.classes
    last = classes[-1].members[-1]
    swap_in = {"wrong_boson_count": (5, 1, 0, 0, 0, 0),
               "wrong_length": (5, 0, 0, 0, 0),
               "negative_occupation": (5, 1, -1, 0, 0, 0),
               "fractional_occupation": (0.5, 4.5, 0, 0, 0, 0),
               "member_in_two_classes": classes[0].members[0]}
    if case in swap_in:
        classes = _replace_member(classes, len(classes) - 1, last,
                                  swap_in[case])
    else:
        classes = reduced_basis(5, 5).classes
    basis = BasisDescriptor(BasisKind.REDUCED, classes, 6, 5)
    with pytest.raises(PartitionError):
        build_reduced(ModelParams(1.0, 5.0, 6, 5), basis)


@pytest.mark.parametrize("sites,bosons", [(4, 3), (5, 4), (8, 3)])
def test_reduction_equivalence_other_lattices(sites, bosons):
    params = ModelParams(1.0, 3.0, sites, bosons)
    e_full = ground_state(build_full(params)).energy
    e_red = ground_state(
        build_reduced(params, reduced_basis(sites, bosons))).energy
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


def test_non_hermitian_rejected(reduced26):
    bad = np.zeros((26, 26))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        HamiltonianMatrix(bad, reduced26, ModelParams(1.0, 2.0, 6, 5))


def test_power_iteration_cross_check(h_reduced):
    h = h_reduced(U=5.0)
    e_dense = ground_state(h).energy
    e_power = min_eigenvalue_power(h)
    assert abs(e_dense - e_power) < 1e-7


def test_basis_mismatch_rejected(reduced26):
    params = ModelParams(1.0, 2.0, 6, 4)
    with pytest.raises(ValueError):
        build_full(params, full_basis(6, 5))


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
        ranks = deformation_ranks(reduced26.classes, orientation)
        assert sorted(ranks) == list(range(26))
    with pytest.raises(ValueError):
        deformation_ranks(reduced26.classes, "bogus")


def test_interaction_energy():
    assert interaction_energy((5, 0, 0, 0, 0, 0)) == 20
    assert interaction_energy((1, 1, 1, 1, 1, 0)) == 0


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
