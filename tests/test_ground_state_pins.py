"""Exact ground states pinned bit for bit.

``ground_states.json`` holds, per case, the ``float.hex`` of the energy and
of ``excited_lower`` that ``ground_state`` returns, and the SHA-256 of the
amplitudes' bytes. The values were recorded with one and with two OpenBLAS
threads (identical), so a change to the basis, the build or the Lanczos loop
that claims to be bit-identical must leave them as they are. Regenerate with
``python tests/test_ground_state_pins.py > tests/ground_states.json`` only
for a change that means to move them.
"""
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bosehub.basis import full_basis, reduced_basis
from bosehub.hamiltonian import (ModelParams, build_deformed, build_full,
                                 build_reduced, ground_state)

PINS = Path(__file__).parent / "ground_states.json"

# name -> (sites, bosons, basis, U, phi)
CASES = {
    "6/5 reduced U=2": (6, 5, "reduced", 2.0, 0.0),
    "6/5 reduced U=5": (6, 5, "reduced", 5.0, 0.0),
    "6/5 reduced U=8": (6, 5, "reduced", 8.0, 0.0),
    "6/5 full U=5": (6, 5, "full", 5.0, 0.0),
    "6/5 deformed U=5 phi=pi/2": (6, 5, "reduced", 5.0, math.pi / 2),
    "8/8 reduced U=5": (8, 8, "reduced", 5.0, 0.0),
}


def pin(name):
    """The pin of case ``name``."""
    sites, bosons, basis, u, phi = CASES[name]
    params = ModelParams(1.0, u, sites, bosons, phi)
    if basis == "full":
        h = build_full(params, full_basis(sites, bosons))
    elif phi:
        h = build_deformed(params, reduced_basis(sites, bosons))
    else:
        h = build_reduced(params, reduced_basis(sites, bosons))
    state = ground_state(h)
    amplitudes = np.ascontiguousarray(state.amplitudes)
    return {"energy": float(state.energy).hex(),
            "excited_lower": float(state.excited_lower).hex(),
            "dtype": amplitudes.dtype.str,
            "amplitudes": hashlib.sha256(amplitudes.tobytes()).hexdigest()}


@pytest.mark.parametrize("name", CASES)
def test_ground_state_is_pinned(name):
    assert pin(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: pin(name) for name in CASES}, indent=1))
