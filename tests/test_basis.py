import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosehub.basis import (
    BasisDescriptor,
    BasisKind,
    PartitionError,
    check_partition,
    enumerate_fock,
    feature_matrix,
    full_basis,
    occupation_string,
    parity_reduce,
    rank,
    reduced_basis,
    translation_orbits,
    write_basis_csv,
)

PARTITION_GRID = [(m, n) for m in range(1, 9) for n in range(0, 7)]


def _groups(states, keys):
    """Members of each key as sorted tuples, sorted."""
    return sorted(sorted(map(tuple, states[keys == k].tolist()))
                  for k in np.unique(keys))


def test_enumeration_counts():
    assert len(enumerate_fock(6, 5)) == 252
    assert enumerate_fock(2, 1).tolist() == [[0, 1], [1, 0]]
    assert len(enumerate_fock(3, 2)) == 6


def test_enumeration_is_sorted_and_valid():
    states = enumerate_fock(4, 3).tolist()
    assert states == sorted(states)
    assert all(sum(s) == 3 and len(s) == 4 for s in states)
    assert len(set(map(tuple, states))) == len(states)


def test_enumeration_degenerate_inputs():
    assert enumerate_fock(1, 3).tolist() == [[3]]
    assert enumerate_fock(3, 0).tolist() == [[0, 0, 0]]
    with pytest.raises(ValueError):
        enumerate_fock(0, 2)
    with pytest.raises(ValueError):
        enumerate_fock(3, -1)


def _fock_from_bars(sites, bosons):
    """Reference enumeration: one stars-and-bars tuple per state, from
    itertools.combinations, which yields the bars in lexicographic order."""
    slots = bosons + sites - 1
    combos = list(itertools.combinations(range(slots), sites - 1))
    bars = np.array(combos, dtype=np.intp).reshape(len(combos), sites - 1)
    edges = np.hstack([np.full((len(bars), 1), -1), bars,
                       np.full((len(bars), 1), slots)])
    dtype = np.result_type(np.int8, np.min_scalar_type(bosons))
    return (np.diff(edges, axis=1) - 1).astype(dtype)


@pytest.mark.parametrize("sites,bosons", PARTITION_GRID + [
    (10, 8), (2, 200), (3, 130), (1, 300)])
def test_enumeration_matches_stars_and_bars(sites, bosons):
    states = enumerate_fock(sites, bosons)
    reference = _fock_from_bars(sites, bosons)
    assert states.dtype == reference.dtype
    assert states.shape == reference.shape
    assert states.tobytes() == reference.tobytes()


@pytest.mark.parametrize("sites,bosons", PARTITION_GRID)
def test_rank_inverts_enumeration(sites, bosons):
    states = enumerate_fock(sites, bosons)
    np.testing.assert_array_equal(rank(states, bosons),
                                  np.arange(len(states)))


def test_translation_orbit_count_and_multiplicity():
    states = enumerate_fock(6, 5)
    _, sizes = np.unique(translation_orbits(states), return_counts=True)
    assert len(sizes) == 42
    # oracle: no 6-site state with 5 bosons is invariant under a proper shift
    for shift in range(1, 6):
        assert not (np.roll(states, shift, axis=1) == states).all(axis=1).any()
    assert all(sizes == 6)


def test_translation_orbits_small_cases():
    # exhaustive enumeration by hand: {(0,2),(2,0)} and {(1,1)}
    states = enumerate_fock(2, 2)
    orbits = translation_orbits(states)
    assert _groups(states, orbits) == [[(0, 2), (2, 0)], [(1, 1)]]
    assert sorted(np.unique(orbits, return_counts=True)[1]) == [1, 2]

    single = translation_orbits(enumerate_fock(1, 3))
    assert len(single) == 1 and len(np.unique(single)) == 1


def test_translation_orbits_rejects_incomplete_basis():
    incomplete = enumerate_fock(3, 2)[:-1]
    with pytest.raises(PartitionError):
        translation_orbits(incomplete)


def test_translation_orbits_rejects_an_empty_basis():
    with pytest.raises(PartitionError, match="^empty basis$"):
        translation_orbits(enumerate_fock(3, 2)[:0])


def test_parity_reduction_counts():
    states = enumerate_fock(6, 5)
    classes = parity_reduce(states, translation_orbits(states))
    _, sizes = np.unique(classes, return_counts=True)
    assert len(sizes) == 26
    assert sizes.sum() == 252


def test_parity_merges_published_pair():
    basis = reduced_basis(6, 5)
    home = basis.class_of[rank([[0, 1, 2, 0, 1, 1], [1, 1, 0, 2, 1, 0]], 5)]
    assert home[0] == home[1]


def test_self_conjugate_orbit_is_fixed_point():
    states = enumerate_fock(6, 5)
    orbits = translation_orbits(states)
    # the max-stacked state reverses onto a translation of itself
    (stacked,) = rank([[5, 0, 0, 0, 0, 0]], 5)
    target = orbits == orbits[stacked]
    representative = states[target][0]
    assert target[rank([representative[::-1]], 5)[0]]
    merged = parity_reduce(states, orbits)
    np.testing.assert_array_equal(merged == merged[stacked], target)


def test_features_examples():
    X = feature_matrix(full_basis(6, 5))
    rows = rank([[1, 1, 1, 1, 1, 0], [5, 0, 0, 0, 0, 0]], 5)
    np.testing.assert_allclose(
        X[rows[0]], [1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, -5 / 6])
    np.testing.assert_allclose(
        X[rows[1]], [25 / 6, -5 / 6, -5 / 6, -5 / 6, -5 / 6, -5 / 6])


@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_features_sum_to_zero(sites, bosons, pick):
    X = feature_matrix(full_basis(sites, bosons))
    assert abs(X[pick % len(X)].sum()) < 1e-12


@pytest.mark.parametrize("sites,bosons", PARTITION_GRID)
def test_partition_property(sites, bosons):
    full = enumerate_fock(sites, bosons)
    for kind in (BasisKind.TRANSLATION, BasisKind.REDUCED):
        basis = reduced_basis(sites, bosons, kind)
        np.testing.assert_array_equal(basis.states, full)
        assert basis.class_of.shape == (len(full),)
        mult = basis.multiplicities()
        assert mult.sum() == math.comb(bosons + sites - 1, bosons)
        assert all(mult % 1 == 0)
        if kind is BasisKind.TRANSLATION:
            assert all(sites % mult == 0)


@pytest.mark.parametrize("sites,bosons", PARTITION_GRID)
def test_every_image_ranks_into_its_class(sites, bosons):
    for kind in (BasisKind.TRANSLATION, BasisKind.REDUCED):
        basis = reduced_basis(sites, bosons, kind)
        images = [basis.states] + ([basis.states[:, ::-1]]
                                   if kind is BasisKind.REDUCED else [])
        for image in images:
            for shift in range(sites):
                rolled = np.roll(image, shift, axis=1)
                np.testing.assert_array_equal(
                    basis.class_of[rank(rolled, bosons)], basis.class_of)


def test_orbit_closure():
    basis = reduced_basis(6, 5, BasisKind.TRANSLATION)
    for shift in range(6):
        moved = rank(np.roll(basis.states, shift, axis=1), 5)
        np.testing.assert_array_equal(basis.class_of[moved], basis.class_of)
    basis = reduced_basis(6, 5)
    for image in (basis.states[:, ::-1], np.roll(basis.states, 1, axis=1)):
        np.testing.assert_array_equal(basis.class_of[rank(image, 5)],
                                      basis.class_of)


def _same_basis(a, b):
    return ((a.kind, a.sites, a.bosons) == (b.kind, b.sites, b.bosons)
            and np.array_equal(a.states, b.states)
            and np.array_equal(a.class_of, b.class_of))


def test_determinism():
    a = reduced_basis(6, 5)
    b = reduced_basis(6, 5)
    assert _same_basis(a, b)
    assert not _same_basis(a, reduced_basis(6, 5, BasisKind.TRANSLATION))
    reps = a.representatives().tolist()
    assert reps == sorted(reps)


def test_representative_is_smallest_member():
    basis = reduced_basis(7, 4)
    reps = basis.representatives().tolist()
    for c in range(basis.dim):
        assert reps[c] == min(basis.states[basis.class_of == c].tolist())
    # the type refuses a class with no member, and states out of order,
    # whose first member would not be the smallest
    with pytest.raises(PartitionError):
        BasisDescriptor(BasisKind.REDUCED, basis.states, basis.class_of + 1,
                        7, 4)
    with pytest.raises(PartitionError):
        BasisDescriptor(BasisKind.REDUCED, basis.states[::-1],
                        basis.class_of, 7, 4)


def test_representatives_found_once_and_shared_read_only(monkeypatch):
    basis = reduced_basis(7, 4)
    reps = basis.representatives()
    # later calls reuse the array instead of regrouping every state
    monkeypatch.setattr(np, "unique", None)
    assert basis.representatives() is reps
    with pytest.raises(ValueError, match="read-only"):
        reps[0, 0] = 1


@pytest.mark.parametrize("rows", [[[0, 0], [1, 0]], [[2, -1], [1, 0]]],
                         ids=["short_sum", "out_of_range"])
def test_check_partition_rejects_rows_that_rank_like_the_basis(rows):
    # off the simplex the rank is not one-to-one: both lists rank to [0, 1],
    # the ranks of the true 2-site/1-boson basis [[0, 1], [1, 0]]
    np.testing.assert_array_equal(rank(rows, 1), [0, 1])
    check_partition(np.array([[0, 1], [1, 0]]), 2, 1)
    with pytest.raises(PartitionError):
        check_partition(np.array(rows), 2, 1)


@pytest.mark.parametrize("case", ["short", "float", "negative"])
def test_descriptor_rejects_malformed_class_numbers(reduced26, case):
    class_of = {"short": reduced26.class_of[:-1],
                "float": reduced26.class_of.astype(float),
                "negative": reduced26.class_of - 1}[case]
    with pytest.raises(PartitionError):
        BasisDescriptor(BasisKind.REDUCED, reduced26.states, class_of, 6, 5)


def test_feature_matrix_modes(reduced26):
    X = feature_matrix(reduced26)
    assert X.shape == (26, 6)
    np.testing.assert_allclose(X.sum(axis=1), 0, atol=1e-12)
    raw = feature_matrix(reduced26, raw=True)
    np.testing.assert_allclose(raw - 5 / 6, X)


def test_basis_csv_dump(tmp_path, reduced26):
    out = tmp_path / "basis.csv"
    write_basis_csv(reduced26, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class_index,representative_occ,multiplicity,kind"
    assert len(lines) == 27
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == occupation_string(reduced26.representatives()[0])
    assert first[3] == "reduced"


def test_full_basis_is_singletons():
    full = full_basis(3, 2)
    assert full.dim == 6
    assert all(full.multiplicities() == 1)


def test_descriptor_is_read_only_and_keeps_its_hops():
    basis = reduced_basis(6, 5)
    for array in (basis.states, basis.class_of, *basis.hops):
        assert not array.flags.writeable
    assert basis.hops is basis.hops
    with pytest.raises(ValueError, match="read-only"):
        basis.states[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        basis.hops[0][0] = 1


def test_descriptor_leaves_the_callers_arrays_writable():
    states, class_of = enumerate_fock(3, 2), np.arange(6)
    basis = BasisDescriptor(BasisKind.FULL, states, class_of, 3, 2)
    assert states.flags.writeable and class_of.flags.writeable
    assert not basis.states.flags.writeable


def test_reduced_basis_checks_the_partition_once(monkeypatch):
    import bosehub.basis as basis_mod

    calls = []
    real = basis_mod.check_partition
    monkeypatch.setattr(basis_mod, "check_partition",
                        lambda *a: calls.append(a) or real(*a))
    reduced_basis(6, 5)
    assert len(calls) == 1
