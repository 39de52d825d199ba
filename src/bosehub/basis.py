"""Bosonic Fock basis enumeration and symmetry reduction.

The full basis of a ring of ``sites`` lattice sites holding ``bosons``
particles is the set of occupation vectors with fixed total. Cyclic shifts
(translations) and site-order reversal (parity) of the ring group these
states into equivalence classes; a normalized equal-weight superposition of
the members of one class is a composite basis state, and the composite basis
carries the ground state at a fraction of the full dimension.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from math import comb

import numpy as np

FockState = tuple[int, ...]


class BasisKind(str, Enum):
    FULL = "full"
    TRANSLATION = "translation"
    REDUCED = "reduced"


class PartitionError(ValueError):
    """Raised when symmetry classes fail to partition the full basis."""


@dataclass(frozen=True)
class SymmetryClass:
    """One equivalence class of Fock states under the generating symmetries.

    The representative is the lexicographically smallest member; it is the
    state fed to the variational Ansaetze, so it is recorded in every output
    artifact for reproducibility.
    """

    representative: FockState
    members: tuple[FockState, ...]

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError("class members must be pairwise distinct")
        if self.representative != min(self.members):
            raise ValueError("representative must be the smallest member")

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class BasisDescriptor:
    """An ordered basis of symmetry classes for fixed (sites, bosons)."""

    kind: BasisKind
    classes: tuple[SymmetryClass, ...]
    sites: int
    bosons: int

    @property
    def dim(self) -> int:
        return len(self.classes)

    def representatives(self) -> list[FockState]:
        return [c.representative for c in self.classes]

    def multiplicities(self) -> np.ndarray:
        return np.array([c.multiplicity for c in self.classes], dtype=float)


def enumerate_fock(sites: int, bosons: int) -> list[FockState]:
    """All occupation vectors of length ``sites`` summing to ``bosons``.

    Returned in ascending lexicographic order; the count is the stars-and-bars
    binomial C(bosons + sites - 1, bosons).
    """
    if sites < 1:
        raise ValueError(f"need at least one site, got {sites}")
    if bosons < 0:
        raise ValueError(f"boson count must be non-negative, got {bosons}")

    states: list[FockState] = []

    def fill(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            states.append(tuple(prefix + [remaining]))
            return
        for n in range(remaining + 1):
            fill(prefix + [n], remaining - n, slots - 1)

    fill([], bosons, sites)
    assert len(states) == comb(bosons + sites - 1, bosons)
    return states


def translate(state: FockState, shift: int) -> FockState:
    """Cyclic shift of site labels on the periodic ring."""
    m = len(state)
    return tuple(state[(i - shift) % m] for i in range(m))


def reflect(state: FockState) -> FockState:
    """Site-order reversal (parity)."""
    return tuple(reversed(state))


def translation_orbits(basis: list[FockState]) -> list[SymmetryClass]:
    """Group a complete Fock basis into cyclic-shift orbits.

    Orbits are returned sorted by representative; each orbit's size divides
    the number of sites.
    """
    if not basis:
        raise PartitionError("empty basis")
    sites = len(basis[0])
    check_partition(basis, sites, sum(basis[0]))
    seen: set[FockState] = set()
    orbits: list[SymmetryClass] = []
    for state in basis:
        if state in seen:
            continue
        members = sorted({translate(state, k) for k in range(sites)})
        seen.update(members)
        orbits.append(SymmetryClass(members[0], tuple(members)))
    orbits.sort(key=lambda c: c.representative)
    return orbits


def parity_reduce(orbits: list[SymmetryClass]) -> list[SymmetryClass]:
    """Merge translation orbits related by site-order reversal.

    An orbit closed under reversal maps to itself; otherwise it merges with
    its mirror partner and the multiplicities add.
    """
    index: dict[FockState, int] = {}
    for i, orbit in enumerate(orbits):
        for member in orbit.members:
            index[member] = i

    merged: list[SymmetryClass] = []
    used = [False] * len(orbits)
    for i, orbit in enumerate(orbits):
        if used[i]:
            continue
        used[i] = True
        partner = index[reflect(orbit.representative)]
        members = set(orbit.members)
        if partner != i:
            used[partner] = True
            members |= set(orbits[partner].members)
        members = tuple(sorted(members))
        merged.append(SymmetryClass(members[0], members))
    merged.sort(key=lambda c: c.representative)
    return merged


def full_basis(sites: int, bosons: int) -> BasisDescriptor:
    """Full Fock basis as singleton classes, lexicographic order."""
    classes = tuple(SymmetryClass(s, (s,)) for s in enumerate_fock(sites, bosons))
    return BasisDescriptor(BasisKind.FULL, classes, sites, bosons)


def reduced_basis(sites: int, bosons: int,
                  kind: BasisKind = BasisKind.REDUCED) -> BasisDescriptor:
    """Symmetry-reduced basis of the requested kind."""
    kind = BasisKind(kind)
    if kind is BasisKind.FULL:
        return full_basis(sites, bosons)
    orbits = translation_orbits(enumerate_fock(sites, bosons))
    if kind is BasisKind.TRANSLATION:
        return BasisDescriptor(kind, tuple(orbits), sites, bosons)
    return BasisDescriptor(kind, tuple(parity_reduce(orbits)), sites, bosons)


def features(state: FockState) -> np.ndarray:
    """Mean-subtracted occupations: occ_i minus the average filling.

    The components always sum to zero. This is the preprocessing used for
    both the network and the circuit inputs.
    """
    occ = np.asarray(state, dtype=float)
    return occ - occ.sum() / occ.size


def feature_matrix(descriptor: BasisDescriptor, raw: bool = False) -> np.ndarray:
    """Stack per-class representative features into a (dim, sites) array.

    ``raw=True`` skips the mean subtraction and feeds plain occupation
    numbers (variant switch; the default matches the network preprocessing).
    """
    reps = np.array(descriptor.representatives(), dtype=float)
    if raw:
        return reps
    return reps - descriptor.bosons / descriptor.sites


def check_partition(states: list[FockState], sites: int, bosons: int) -> None:
    """Raise PartitionError unless ``states`` lists every Fock state of
    ``bosons`` on ``sites`` sites exactly once.

    Distinct states of ``sites`` occupations in 0..bosons that sum to
    ``bosons``, as many as C(bosons + sites - 1, bosons), are the whole basis,
    so the basis is never enumerated.
    """
    if not (len(states) == comb(bosons + sites - 1, bosons)
            and len(set(states)) == len(states)
            and set(map(len, states)) <= {sites}
            and set(chain.from_iterable(states)) <= set(range(bosons + 1))
            and set(map(sum, states)) <= {bosons}):
        raise PartitionError(
            f"states do not partition the Fock basis for sites={sites}, "
            f"bosons={bosons}"
        )


def occupation_string(state: FockState) -> str:
    """Concatenated occupation digits, e.g. (0,1,2,0,1,1) -> '012011'."""
    return "".join(str(n) for n in state)


def write_basis_csv(descriptor: BasisDescriptor, path) -> None:
    """Dump classes as (class_index, representative_occ, multiplicity, kind)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_index", "representative_occ", "multiplicity", "kind"])
        for i, cls in enumerate(descriptor.classes):
            writer.writerow([i, occupation_string(cls.representative),
                             cls.multiplicity, descriptor.kind.value])
