import math

import numpy as np
import pytest

from qbsim import (
    SystemParams,
    atom_eigensystem_exact,
    atom_eigensystem_perturbative,
    atom_hamiltonian,
    band_frequency,
    dark_state_vector,
    effective_hamiltonian,
)
from qbsim.errors import DarkConditionViolated
from qbsim.model import hamiltonian_blocks
from conftest import random_params


class TestBandFrequency:
    def test_center_and_edges(self, fig2_params):
        p = fig2_params
        assert band_frequency(0.0, p) == pytest.approx(p.omega0 - 2.0)
        assert band_frequency(np.pi / 2, p) == pytest.approx(p.omega0)
        assert band_frequency(np.pi, p) == pytest.approx(p.omega0 + 2.0)


class TestAtomHamiltonian:
    def test_decoupled_levels(self):
        p = SystemParams(omega0=20.0, xi=1.0, n_cavities=5, g1=0.0, g2=0.0,
                         omega_p_rabi=0.0, omega_c_rabi=0.0, omega_d_real=3.0,
                         kappa=0.0, omega_m_level=5.0, delta_e=2.0)
        h = atom_hamiltonian(p)
        assert np.allclose(h, np.diag([3.0, 2.0, 5.0]))

    def test_fig3a_dd_entry(self, fig3a_params):
        h = atom_hamiltonian(fig3a_params)
        assert h[0, 0] == pytest.approx(106.0 / 3.0 - 10.0j / 3.0)
        assert h[0, 1] == pytest.approx(50.0 / 3.0)
        assert h[1, 2] == pytest.approx(5.0 / 3.0)

    def test_symmetric_not_hermitian(self, fig3a_params):
        h = atom_hamiltonian(fig3a_params)
        assert np.allclose(h, h.T)
        assert not np.allclose(h, h.conj().T)


class TestExactEigensystem:
    def test_fig3a_caption_value(self, fig3a_params):
        e1 = atom_eigensystem_exact(fig3a_params).dark_energy
        assert abs(e1.real - 35.327) / 35.327 < 0.005
        assert abs(e1.imag - (-0.032)) / 0.032 < 0.005

    def test_fig3b_caption_value(self, fig3b_params):
        e1 = atom_eigensystem_exact(fig3b_params).dark_energy
        assert abs(e1.real - 66.6553) / 66.6553 < 0.005
        assert abs(e1.imag - (-0.0287)) / 0.0287 < 0.005

    def test_trace_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = random_params(rng)
            es = atom_eigensystem_exact(p)
            expected = p.delta_e + p.omega_d + p.omega_m_level
            assert abs(es.energies.sum() - expected) <= 1e-10 * max(abs(expected), 1.0)

    def test_eigenproblem_residual(self, fig3a_params):
        es = atom_eigensystem_exact(fig3a_params)
        h = atom_hamiltonian(fig3a_params)
        hnorm = np.linalg.norm(h)
        for i in range(3):
            res = np.linalg.norm(h @ es.vectors[:, i] - es.energies[i] * es.vectors[:, i])
            assert res <= 1e-10 * hnorm

    def test_kappa_zero_spectrum_real(self, fig3a_params):
        es = atom_eigensystem_exact(fig3a_params.replace(kappa=0.0))
        assert np.max(np.abs(es.energies.imag)) < 1e-10

    def test_degenerate_limit_dark_energy(self):
        # omega_2 = 0, kappa = 0 makes y = 0 an exact root: E1 = omega_d_real.
        p = SystemParams.with_dark_coupling(
            g=0.3, omega0=20.0, xi=1.0, n_cavities=21,
            omega_p_rabi=10.0, omega_c_rabi=1.0, omega_d_real=17.0,
            kappa=0.0, omega_m_level=17.0, delta_e=4.0)
        es = atom_eigensystem_exact(p)
        assert es.dark_energy == pytest.approx(17.0, abs=1e-10)
        assert abs(es.dark_vector[1]) < 1e-10


class TestPerturbative:
    def test_fig3a_dark_energy_close_to_exact(self, fig3a_params):
        exact = atom_eigensystem_exact(fig3a_params).dark_energy
        pert = atom_eigensystem_perturbative(fig3a_params)[0]
        assert abs(pert.real - exact.real) / abs(exact.real) < 0.02
        assert abs(pert.imag - exact.imag) / abs(exact.imag) < 0.05

    def test_dark_becomes_lossless_without_control(self, fig3a_params):
        p = fig3a_params.replace(omega_c_rabi=0.0, g1=0.0, g2=0.3)
        e1 = atom_eigensystem_perturbative(p)[0]
        assert e1.imag == pytest.approx(0.0, abs=1e-14)

    def test_bright_splitting(self):
        # omega_1 = omega_2 = 0, kappa = 0: E2 - E3 = 2 Omega exactly.
        p = SystemParams.with_dark_coupling(
            g=0.1, omega0=20.0, xi=1.0, n_cavities=21,
            omega_p_rabi=3.0, omega_c_rabi=4.0, omega_d_real=7.0,
            kappa=0.0, omega_m_level=7.0, delta_e=7.0)
        e = atom_eigensystem_perturbative(p)
        assert e[1] - e[2] == pytest.approx(10.0)

    def test_quadratic_error_scaling_in_omega2(self):
        # Halve omega_2 twice (via Omega_m) and watch the worst error drop ~4x.
        base = dict(g=0.2, omega0=20.0, xi=1.0, n_cavities=21,
                    omega_p_rabi=8.0, omega_c_rabi=2.0, omega_d_real=15.0,
                    kappa=0.0, delta_e=15.0)
        errs = []
        for om2 in (0.8, 0.4, 0.2):
            p = SystemParams.with_dark_coupling(omega_m_level=15.0 + om2, **base)
            exact = atom_eigensystem_exact(p).energies
            pert = atom_eigensystem_perturbative(p)
            errs.append(max(abs(exact[i] - pert[i]) for i in range(3)))
        assert errs[1] / errs[0] < 0.35
        assert errs[2] / errs[1] < 0.35


class TestDarkStateVector:
    def test_symmetric_drive(self):
        p = SystemParams.with_dark_coupling(
            g=0.5, omega0=20.0, xi=1.0, n_cavities=21,
            omega_p_rabi=2.0, omega_c_rabi=2.0, omega_d_real=20.0,
            kappa=0.0, omega_m_level=20.0)
        v = dark_state_vector(p)
        assert np.allclose(v, [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)])

    def test_fig3a_components(self, fig3a_params):
        v = dark_state_vector(fig3a_params)
        assert abs(v[0] - (-0.0995)) < 1e-3
        assert v[1] == 0.0
        assert abs(v[2] - 0.9950) < 1e-3

    def test_no_control_limit(self, fig3a_params):
        p = fig3a_params.replace(omega_c_rabi=0.0, g1=0.0, g2=0.3)
        assert np.allclose(dark_state_vector(p), [0.0, 0.0, 1.0])

    def test_condition_violation_raises(self, fig3a_params):
        with pytest.raises(DarkConditionViolated):
            dark_state_vector(fig3a_params.replace(g1=0.05))


class TestEffectiveHamiltonian:
    def test_hermitian_iff_kappa_zero(self, fig3a_params):
        h = effective_hamiltonian(fig3a_params.replace(kappa=0.0), "mode")
        assert np.allclose(h, h.conj().T)
        h = effective_hamiltonian(fig3a_params, "mode")
        assert not np.allclose(h, h.conj().T)

    def test_mode_site_spectra_match(self, fig3a_params):
        p = fig3a_params.replace(kappa=0.0, n_cavities=53)
        sm = np.sort(np.linalg.eigvalsh(effective_hamiltonian(p, "mode").real))
        ss = np.sort(np.linalg.eigvalsh(effective_hamiltonian(p, "site").real))
        assert np.max(np.abs(sm - ss)) < 1e-10

    def test_two_eigenvalues_outside_band(self, fig2_params):
        h = effective_hamiltonian(fig2_params, "site", e1=20.0 + 0j)
        ev = np.linalg.eigvalsh(h.real)
        outside = (ev < fig2_params.band_lower) | (ev > fig2_params.band_upper)
        assert outside.sum() == 2

    def test_unknown_representation_rejected(self, fig2_params):
        with pytest.raises(ValueError, match="representation must be 'mode', 'site' or 'even', got 'momentum'"):
            hamiltonian_blocks(fig2_params, "effective", "momentum")

    def test_dark_decoupling_of_bright_states(self):
        # kappa = 0, omega_1 = omega_2 = 0: the bright eigenvectors are
        # orthogonal to the coupled combination g1|d> + g2|m>.
        p = SystemParams.with_dark_coupling(
            g=0.4, omega0=20.0, xi=1.0, n_cavities=21,
            omega_p_rabi=6.0, omega_c_rabi=2.5, omega_d_real=12.0,
            kappa=0.0, omega_m_level=12.0, delta_e=12.0)
        es = atom_eigensystem_exact(p)
        coupled = np.array([p.g1, 0.0, p.g2]) / p.g
        for i in range(3):
            if i == es.dark_index:
                continue
            assert abs(np.vdot(es.vectors[:, i], coupled)) < 1e-10
