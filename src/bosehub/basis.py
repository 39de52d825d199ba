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

A descriptor is read-only and computes its hop table
(``BasisDescriptor.hops``) on first use: for every directed bond, the hop of
one boson applied to each representative, as (row, col, ratio, amp) arrays.
None of them depends on t or U, so every Hamiltonian built on the same
descriptor, such as ``study noise`` at several U, reuses them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import comb

import numpy as np

from ._table import write_csv


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
    ``class_of[i]`` numbers the class of ``states[i]``; the descriptor holds
    both as read-only views. The representative of a class is its smallest
    member; it is the state fed to the variational Ansaetze, so it is
    recorded in every output artifact for reproducibility.
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
        for name in ("states", "class_of"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

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
        c = self.class_of
        first = np.full(self.dim, len(c))
        np.minimum.at(first, c, np.arange(len(c)))
        reps = self.states[first]
        reps.setflags(write=False)
        return reps

    def multiplicities(self) -> np.ndarray:
        return np.bincount(self.class_of).astype(float)

    @cached_property
    def hops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every hop of one boson along a bond, from each representative.

        Four read-only arrays with one entry per hop: the target's class
        ``row``, the source class ``col``, ``ratio`` = sqrt(m_col / m_row)
        and ``amp`` = sqrt(n_src (n_dst + 1)). A Hamiltonian entry gets
        ratio * (-t * amp) from each of its hops. Hops are listed bond by
        bond, i <- i+1 then i+1 <- i for bond (i, i+1) of the ring; a
        one-site ring has none.
        """
        reps = self.representatives()
        m = self.sites
        bond = np.arange(m if m > 1 else 0)
        dst = np.stack([bond, (bond + 1) % m], axis=1).ravel()
        src = np.stack([(bond + 1) % m, bond], axis=1).ravel()
        # hop k of directed bond b: k-th class with a boson on src[b]
        b, col = np.nonzero(reps[:, src].T)
        hop = np.arange(len(col))
        moved = reps[col]
        amp = np.sqrt(moved[hop, src[b]] * (moved[hop, dst[b]] + 1.0))
        moved[hop, src[b]] -= 1
        moved[hop, dst[b]] += 1
        row = self.class_of[rank(moved, self.bosons)]
        mult = self.multiplicities()
        hops = row, col, np.sqrt(mult[col] / mult[row]), amp
        for a in hops:
            a.setflags(write=False)
        return hops


def enumerate_fock(sites: int, bosons: int) -> np.ndarray:
    """All occupation vectors of length ``sites`` summing to ``bosons``.

    Rows in ascending lexicographic order; there are C(bosons + sites - 1,
    bosons) of them. The dtype is the smallest signed integer that holds
    ``bosons``. The last site takes the bosons the others leave, so the rows
    are the lexicographic list of the other sites' occupations summing to at
    most ``bosons``. That list grows one leading site at a time: a new
    leading occupation k goes before every tail that leaves room for it, and
    pairs (k, tail) taken k-major, each in order, stay in order.
    """
    if sites < 1:
        raise ValueError(f"need at least one site, got {sites}")
    if bosons < 0:
        raise ValueError(f"boson count must be non-negative, got {bosons}")
    dtype = np.result_type(np.int8, np.min_scalar_type(bosons))
    head = np.zeros((1, 0), dtype)
    used = np.zeros(1, dtype=np.intp)
    occupations = np.arange(bosons + 1)
    for _ in range(sites - 1):
        k, tail = np.nonzero(occupations[:, None] + used <= bosons)
        head = np.column_stack([k.astype(dtype), head[tail]])
        used = k + used[tail]
    return np.column_stack([head, (bosons - used).astype(dtype)])


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
    return _orbit_keys(states, bosons)


def _orbit_keys(states: np.ndarray, bosons: int) -> np.ndarray:
    """``translation_orbits`` of a basis already known to be complete."""
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
    # the descriptor checks the partition, so the keys skip that check
    keys = _orbit_keys(states, bosons)
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
    write_csv(path, ("class_index", "representative_occ", "multiplicity",
                     "kind"),
              zip(range(descriptor.dim),
                  map(occupation_string, descriptor.representatives()),
                  np.bincount(descriptor.class_of),
                  [descriptor.kind.value] * descriptor.dim))
