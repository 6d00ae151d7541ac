import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from deltashock import default_eps_grid
from deltashock.ansatz import RiemannJumpData, SmoothAnsatz
from deltashock.dynamics import solve_front
from deltashock.kernels import (
    EXPONENTIAL,
    QUARTIC,
    PrimitiveTable,
    make_kernel,
)
from deltashock.verifier import verify_weak_solution

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def quartic():
    return make_kernel(QUARTIC)


@pytest.fixture(scope="session")
def exponential():
    return make_kernel(EXPONENTIAL)


@pytest.fixture(scope="session", params=[QUARTIC, EXPONENTIAL])
def kernel(request):
    return make_kernel(request.param)


@pytest.fixture(scope="session")
def eps_grid():
    return default_eps_grid()


@pytest.fixture(scope="session")
def worked_data():
    return RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.1)


@pytest.fixture(scope="session")
def worked_data_k0():
    return RiemannJumpData(0.0, 2.0, 0.0, 0.5, 0.1, 0.0)


@pytest.fixture(scope="session")
def worked_ansatz(worked_data, quartic):
    return SmoothAnsatz(worked_data, solve_front(worked_data, quartic.omega0),
                        quartic)


@pytest.fixture(scope="session")
def worked_ansatz_k0(worked_data_k0, quartic):
    return SmoothAnsatz(worked_data_k0,
                        solve_front(worked_data_k0, quartic.omega0), quartic)


@pytest.fixture(scope="session")
def worked_report(worked_ansatz, worked_data):
    """Weak-solution verification of the worked data at k = 0.1."""
    return verify_weak_solution(worked_ansatz, worked_data.k,
                                t_grid=np.linspace(0.0, 1.0, 33))


@pytest.fixture(scope="session")
def worked_report_k0(worked_ansatz_k0):
    return verify_weak_solution(worked_ansatz_k0, 0.0,
                                t_grid=np.linspace(0.0, 1.0, 33))


@pytest.fixture
def ddelta_without_limit(monkeypatch):
    """Perturb the zeroth moment of the table's ``dd`` column by 1e-6.

    Its eps^-1 term, which cancels, then no longer vanishes: the Lemma 3.1
    family ddelta has no eps -> 0 limit.
    """
    moments = PrimitiveTable.moments

    def perturbed(self, n_max):
        m, scale = moments(self, n_max)
        m[0, self.keys.index((("dd",), 0))] += 1e-6
        return m, scale

    monkeypatch.setattr(PrimitiveTable, "moments", perturbed)
