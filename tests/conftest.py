import numpy as np
import pytest

from qbsim import SystemParams, thermo


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread() -> None:
    """Run the suite on one BLAS thread, so a second busy process cannot stall the timed tests."""
    thermo._one_blas_thread()


@pytest.fixture
def fig3a_params() -> SystemParams:
    """Dark state just inside the upper band edge (xi units)."""
    return SystemParams.with_dark_coupling(
        g=0.3, omega0=100.0 / 3.0, xi=1.0, n_cavities=253,
        omega_p_rabi=50.0 / 3.0, omega_c_rabi=5.0 / 3.0,
        omega_d_real=106.0 / 3.0, kappa=20.0 / 3.0,
        omega_e_level=50.0, omega_m_level=106.0 / 3.0, delta_e=50.0,
    )


@pytest.fixture
def fig3b_params(fig3a_params) -> SystemParams:
    """Dark state far above the band."""
    return fig3a_params.replace(
        omega_d_real=200.0 / 3.0, omega_m_level=200.0 / 3.0,
        omega_e_level=100.0, delta_e=100.0,
    )


@pytest.fixture
def fig2_params() -> SystemParams:
    """Bound-state counting scenario: omega0 = 20 xi, g = 0.3 xi, kappa = 0."""
    return SystemParams.with_dark_coupling(
        g=0.3, omega0=20.0, xi=1.0, n_cavities=253,
        omega_p_rabi=50.0 / 3.0, omega_c_rabi=5.0 / 3.0,
        omega_d_real=20.0, kappa=0.0,
        omega_e_level=50.0, omega_m_level=20.0, delta_e=50.0,
    )


def random_params(rng: np.random.Generator, kappa: float | None = None) -> SystemParams:
    op = rng.uniform(1.0, 20.0)
    oc = rng.uniform(0.1, 5.0)
    return SystemParams.with_dark_coupling(
        g=rng.uniform(0.05, 2.0),
        omega0=rng.uniform(5.0, 40.0),
        xi=rng.uniform(0.2, 3.0),
        n_cavities=int(rng.choice([7, 21, 53])),
        omega_p_rabi=op,
        omega_c_rabi=oc,
        omega_d_real=rng.uniform(0.0, 40.0),
        kappa=rng.uniform(0.0, 8.0) if kappa is None else kappa,
        omega_e_level=rng.uniform(0.0, 50.0),
        omega_m_level=rng.uniform(0.0, 40.0),
        delta_e=rng.uniform(-20.0, 50.0),
    )
