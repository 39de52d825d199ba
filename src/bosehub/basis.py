"""Bosonic Fock basis enumeration and symmetry reduction.

The full basis of a ring of ``sites`` lattice sites holding ``bosons``
particles is the set of occupation vectors with fixed total, held as an
(N, sites) integer array in ascending lexicographic order. ``rank`` maps an
occupation vector to its row in that order with the combinatorial number
system, so a state is found by arithmetic, not by a lookup table.

Cyclic shifts (translations) and site-order reversal (parity) of the ring
group these states into equivalence classes; a normalized equal-weight
superposition of the members of one class is a composite basis state, and
the composite basis carries the ground state at a fraction of the full
dimension. A state's class key is the smallest rank among its images, which
is the rank of the class representative, its lexicographically smallest
member.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np


class BasisKind(str, Enum):
    FULL = "full"
    TRANSLATION = "translation"
    REDUCED = "reduced"


class PartitionError(ValueError):
    """Raised when symmetry classes fail to partition the full basis."""


@dataclass(frozen=True)
class BasisDescriptor:
    """An ordered basis of symmetry classes for fixed (sites, bosons).

    ``states`` is the whole Fock basis in lexicographic order and
    ``class_of[i]`` numbers the class of ``states[i]``. The representative
    of a class is its smallest member; it is the state fed to the
    variational Ansaetze, so it is recorded in every output artifact for
    reproducibility.
    """

    kind: BasisKind
    states: np.ndarray
    class_of: np.ndarray
    sites: int
    bosons: int

    def __post_init__(self):
        check_partition(self.states, self.sites, self.bosons)
        c = self.class_of
        if not (c.shape == self.states.shape[:1] and c.dtype.kind in "iu"
                and c.min() >= 0 and np.bincount(c).all()):
            raise PartitionError(
                "class_of must give every state a class in 0..dim-1, "
                "leaving no class empty")

    @property
    def dim(self) -> int:
        return int(self.class_of.max()) + 1

    def representatives(self) -> np.ndarray:
        """(dim, sites) array: the first, hence smallest, member of each class.

        Found once per descriptor; the array is read-only, since every
        caller shares it.
        """
        return self._representatives

    @cached_property
    def _representatives(self) -> np.ndarray:
        reps = self.states[np.unique(self.class_of, return_index=True)[1]]
        reps.setflags(write=False)
        return reps

    def multiplicities(self) -> np.ndarray:
        return np.bincount(self.class_of).astype(float)


def enumerate_fock(sites: int, bosons: int) -> np.ndarray:
    """All occupation vectors of length ``sites`` summing to ``bosons``.

    Rows in ascending lexicographic order, one per placement of sites - 1
    bars among bosons + sites - 1 slots (stars and bars), so there are
    C(bosons + sites - 1, bosons) of them. The dtype is the smallest signed
    integer that holds ``bosons``.
    """
    if sites < 1:
        raise ValueError(f"need at least one site, got {sites}")
    if bosons < 0:
        raise ValueError(f"boson count must be non-negative, got {bosons}")
    n, slots = comb(bosons + sites - 1, bosons), bosons + sites - 1
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), sites - 1)),
                       dtype=np.intp, count=n * (sites - 1)).reshape(n, sites - 1)
    edges = np.hstack([np.full((n, 1), -1), bars, np.full((n, 1), slots)])
    dtype = np.result_type(np.int8, np.min_scalar_type(bosons))
    return (np.diff(edges, axis=1) - 1).astype(dtype)


def rank(states, bosons: int) -> np.ndarray:
    """Row index of each state in ``enumerate_fock(sites, bosons)``.

    With r_i the bosons left before site i and m_i = sites - 1 - i, the rank
    is sum_i C(r_i + m_i, m_i) - C(r_i - n_i + m_i, m_i): the count of
    states that agree up to site i and hold fewer bosons there.
    """
    states = np.asarray(states)
    sites = states.shape[1]
    total = np.zeros(len(states), dtype=np.int64)
    left = np.full(len(states), bosons, dtype=np.intp)
    for i in range(sites):
        m = sites - 1 - i
        binom = np.array([comb(r + m, m) for r in range(bosons + 1)],
                         dtype=np.int64)  # C(r + m, m) for r = 0..bosons
        total += binom[left]
        left = left - states[:, i]
        total -= binom[left]
    return total


def translation_orbits(states: np.ndarray) -> np.ndarray:
    """Class key of every state of a complete Fock basis under cyclic shifts.

    The key is the smallest rank among the state's rolls, the rank of its
    orbit's representative; each orbit's size divides the number of sites.
    The basis is checked, so a state's row is its rank, and one ranking of
    the shifted basis gives the row of every state's shift.
    """
    if len(states) == 0:
        raise PartitionError("empty basis")
    bosons = int(states[0].sum())
    check_partition(states, states.shape[1], bosons)
    shift = rank(np.roll(states, 1, axis=1), bosons)
    key = image = np.arange(len(states))
    for _ in range(states.shape[1] - 1):
        image = shift[image]
        key = np.minimum(key, image)
    return key


def parity_reduce(states: np.ndarray, orbit_keys: np.ndarray) -> np.ndarray:
    """Merge translation orbits related by site-order reversal.

    ``orbit_keys`` are ``translation_orbits(states)``. Each state's key
    becomes the smaller of its orbit key and the orbit key of its reversal.
    An orbit closed under reversal keeps its key; otherwise it merges with
    its mirror partner and the multiplicities add.
    """
    mirror = rank(states[:, ::-1], int(states[0].sum()))
    return np.minimum(orbit_keys, orbit_keys[mirror])


def full_basis(sites: int, bosons: int) -> BasisDescriptor:
    """Full Fock basis as singleton classes, lexicographic order."""
    states = enumerate_fock(sites, bosons)
    return BasisDescriptor(BasisKind.FULL, states, np.arange(len(states)),
                           sites, bosons)


def reduced_basis(sites: int, bosons: int,
                  kind: BasisKind = BasisKind.REDUCED) -> BasisDescriptor:
    """Symmetry-reduced basis of the requested kind, classes numbered in
    the order of their representatives."""
    kind = BasisKind(kind)
    if kind is BasisKind.FULL:
        return full_basis(sites, bosons)
    states = enumerate_fock(sites, bosons)
    keys = translation_orbits(states)
    if kind is BasisKind.REDUCED:
        keys = parity_reduce(states, keys)
    class_of = np.unique(keys, return_inverse=True)[1]
    return BasisDescriptor(kind, states, class_of, sites, bosons)


def feature_matrix(descriptor: BasisDescriptor, raw: bool = False) -> np.ndarray:
    """Representative features as a (dim, sites) array.

    The default subtracts the average filling from every occupation, so each
    row sums to zero; this preprocessing feeds both the network and the
    circuit inputs. ``raw=True`` skips the subtraction and feeds plain
    occupation numbers.
    """
    reps = descriptor.representatives().astype(float)
    if raw:
        return reps
    return reps - descriptor.bosons / descriptor.sites


def check_partition(states: np.ndarray, sites: int, bosons: int) -> None:
    """Raise PartitionError unless the rows of ``states`` are every Fock
    state of ``bosons`` on ``sites`` sites, once each, in lexicographic
    order.

    Rows of ``sites`` integers in 0..bosons that sum to ``bosons``, as many
    as C(bosons + sites - 1, bosons), whose ranks run 0, 1, 2, ... are the
    whole basis in order, so the basis is never enumerated.
    """
    states = np.asarray(states)
    n = comb(bosons + sites - 1, bosons)
    if not (states.shape == (n, sites)
            and states.dtype.kind in "iu"
            and ((states >= 0) & (states <= bosons)).all()
            and (states.sum(axis=1) == bosons).all()
            and (rank(states, bosons) == np.arange(n)).all()):
        raise PartitionError(
            f"states are not the lexicographic Fock basis for sites={sites}, "
            f"bosons={bosons}"
        )


def occupation_string(state) -> str:
    """Concatenated occupation digits, e.g. (0,1,2,0,1,1) -> '012011'."""
    return "".join(str(n) for n in state)


def write_basis_csv(descriptor: BasisDescriptor, path) -> None:
    """Dump classes as (class_index, representative_occ, multiplicity, kind)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_index", "representative_occ", "multiplicity", "kind"])
        writer.writerows(zip(range(descriptor.dim),
                             map(occupation_string, descriptor.representatives()),
                             np.bincount(descriptor.class_of),
                             [descriptor.kind.value] * descriptor.dim))
