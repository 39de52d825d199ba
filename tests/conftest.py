import functools

import numpy as np
import pytest

from bosehub import basis as basis_mod
from bosehub import variational
from bosehub.hamiltonian import ModelParams, build_full, build_reduced

SITES = 6
BOSONS = 5


def _bracketed(train):
    """``train`` that also checks Temple's bracket: where the run's energy
    fell below ell, the exact ground energy (dense ``eigvalsh``) lies
    between the run's Temple lower bound and its final energy. Installed
    before the test modules import ``train``, so it sees every run, also
    those made through the CLI or ``layer_study``. Runs of the test fakes,
    whose energies are scripted, are not checked."""

    @functools.wraps(train)
    def checked(ansatz, h, cfg, ground=None):
        result = train(ansatz, h, cfg, ground)
        real = getattr(ansatz, "ansatz", ansatz)  # the recording wrapper's
        if isinstance(real, (variational.MlpAnsatz,
                             variational.CircuitAnsatz)):
            exact = float(np.linalg.eigvalsh(h.matrix)[0])
            lower = result.temple_lower_bound
            assert lower <= exact + 1e-9 <= result.final_energy + 2e-9, (
                f"ground energy {exact!r} outside [{lower!r}, "
                f"{result.final_energy!r}]")
        return result

    return checked


variational.train = _bracketed(variational.train)


@pytest.fixture(scope="session")
def full6():
    return basis_mod.full_basis(SITES, BOSONS)


@pytest.fixture(scope="session")
def reduced26():
    return basis_mod.reduced_basis(SITES, BOSONS)


@pytest.fixture(scope="session")
def h_full():
    def make(t=1.0, U=2.0):
        return build_full(ModelParams(t, U, SITES, BOSONS))
    return make


@pytest.fixture(scope="session")
def h_reduced(reduced26):
    def make(t=1.0, U=2.0):
        return build_reduced(ModelParams(t, U, SITES, BOSONS), reduced26)
    return make


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
