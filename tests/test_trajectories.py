"""Short seed-0 trainings pinned bit for bit.

``trajectories.json`` holds, per case, every entry of ``TrainResult.energies``
as ``float.hex`` and the SHA-256 of the winning parameters' comma-joined
``float.hex`` strings, trained at the rate eta = STABLE_RATE/(G - E0) of
``variational.train``. Every step takes the residual damping of
``variational.damping``; the values were recorded with it, with one and
with two OpenBLAS threads (identical), so a change to the training step
that claims to be bit-identical must leave them as they are. The complex
cases never leave the damping's cap within their 40 steps, so their pins
are also those of the old fixed damping.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bosehub.hamiltonian import ModelParams, build_deformed, build_reduced
from bosehub.variational import CircuitAnsatz, MlpAnsatz, TrainConfig, train

STEPS = 40
PINS = json.loads((Path(__file__).parent / "trajectories.json").read_text())

# name -> (ansatz factory, U, phi, restarts)
CASES = {
    "nn": (MlpAnsatz, 2.0, 0.0, 1),
    "nn-restarts-2": (MlpAnsatz, 5.0, 0.0, 2),
    "quat": (lambda h: CircuitAnsatz(h, "quat", 6), 5.0, 0.0, 1),
    "compressed-restarts-2": (lambda h: CircuitAnsatz(h, "compressed", 6),
                              8.0, 0.0, 2),
    "quat-complex": (lambda h: CircuitAnsatz(h, "quat", 6, complex_mode=True),
                     5.0, 0.0, 1),
    "compressed-phi": (lambda h: CircuitAnsatz(h, "compressed", 6,
                                               complex_mode=True),
                       5.0, np.pi / 2, 1),
}


def trajectory(name, reduced26):
    """The pin of case ``name``."""
    make, u, phi, restarts = CASES[name]
    params = ModelParams(1.0, u, 6, 5, phi)
    h = (build_deformed(params, reduced26) if phi
         else build_reduced(params, reduced26))
    result = train(make(h), h, TrainConfig(steps=STEPS, seed=0,
                                           restarts=restarts))
    theta = ",".join(float(x).hex() for x in result.theta)
    return {"seed": result.seed,
            "energies": [float(e).hex() for e in result.energies],
            "theta": hashlib.sha256(theta.encode()).hexdigest()}


@pytest.mark.parametrize("name", CASES)
def test_spectral_rate_trajectory_is_pinned(name, reduced26):
    assert trajectory(name, reduced26) == PINS[name]
