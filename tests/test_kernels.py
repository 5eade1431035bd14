"""The precomputed-matrix Schrodinger kernel against the step-by-step RK4 loop.

``_reference_rk4`` is the loop the kernel replaced: four right-hand-side
evaluations per step on the structured Hamiltonian (atom block, coupling
rows, and the photon diagonal in mode space or the cyclic omega0, -xi
chain in site space).  Applying one RK4 step to a linear ODE is the same
polynomial in dt*H as the kernel's step matrix, so the two agree up to
rounding.
"""

import numpy as np
import pytest

from qbsim import effective_hamiltonian
from qbsim._kernels import _matrix_power, _rk4_step_matrix
from qbsim.dynamics import check_time_grid, evolve, initial_state_photon_at_site, step_rule
from qbsim.model import hamiltonian_blocks


def _rhs_mode(atom_block, coupling, diag, psi, na):
    out = np.empty_like(psi)
    a = psi[:na]
    ph = psi[na:]
    out[:na] = atom_block @ a + coupling @ ph
    out[na:] = diag * ph + coupling.T @ a
    return -1j * out


def _rhs_site(atom_block, coupling, omega0, xi, psi, na):
    out = np.empty_like(psi)
    a = psi[:na]
    ph = psi[na:]
    out[:na] = atom_block @ a + coupling @ ph
    out[na:] = omega0 * ph - xi * (np.roll(ph, 1) + np.roll(ph, -1)) + coupling.T @ a
    return -1j * out


def _reference_rk4(atom_block, coupling, photon_diag, omega0, xi, psi0, dt, n_sub, n_samples):
    """Step-by-step RK4; returns (atom_samples, norm2_samples, psi_final)."""
    na = atom_block.shape[0]
    psi = psi0.astype(complex).copy()
    atom_out = np.empty((n_samples, na), dtype=complex)
    norm_out = np.empty(n_samples, dtype=float)
    if photon_diag is not None:
        rhs = lambda p: _rhs_mode(atom_block, coupling, photon_diag, p, na)
    else:
        rhs = lambda p: _rhs_site(atom_block, coupling, omega0, xi, p, na)
    atom_out[0] = psi[:na]
    norm_out[0] = float(np.vdot(psi, psi).real)
    for i in range(1, n_samples):
        for _ in range(n_sub):
            k1 = rhs(psi)
            k2 = rhs(psi + 0.5 * dt * k1)
            k3 = rhs(psi + 0.5 * dt * k2)
            k4 = rhs(psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        atom_out[i] = psi[:na]
        norm_out[i] = float(np.vdot(psi, psi).real)
    return atom_out, norm_out, psi


def _reference_evolve(psi0, t_grid, params):
    """The structured blocks shifted by the same centroid as ``evolve``, through the loop."""
    t_grid, dt_grid = check_time_grid(t_grid)
    atom_block, coupling, photon_diag = hamiltonian_blocks(params, psi0.model, psi0.representation)
    photon_levels = [params.band_lower, params.band_upper] if photon_diag is None else photon_diag.real
    centroid, n_sub, dt = step_rule(np.concatenate([np.diag(atom_block).real, photon_levels]), dt_grid)
    atom_block = atom_block - centroid * np.eye(atom_block.shape[0])
    if photon_diag is not None:
        photon_diag = photon_diag - centroid
    return _reference_rk4(atom_block, coupling, photon_diag, params.omega0 - centroid, params.xi,
                          np.concatenate([psi0.atom, psi0.photon]), dt, n_sub, len(t_grid))


@pytest.mark.parametrize("kappa_zero", [True, False], ids=["kappa0", "kappa"])
@pytest.mark.parametrize("representation", ["mode", "site"])
@pytest.mark.parametrize("model", ["effective", "full"])
def test_evolve_matches_step_by_step_rk4(fig3a_params, model, representation, kappa_zero):
    p = fig3a_params.replace(kappa=0.0) if kappa_zero else fig3a_params
    psi0 = initial_state_photon_at_site(0, p, model, representation)
    t_grid = np.linspace(0.0, 2.0, 21)
    series = evolve(psi0, t_grid, p)
    atom_ref, norm_ref, psi_ref = _reference_evolve(psi0, t_grid, p)
    final = np.concatenate([series.final_state.atom, series.final_state.photon])
    assert np.max(np.abs(series.atom_amps - atom_ref)) <= 1e-10
    assert np.max(np.abs(series.norm2 - norm_ref)) <= 1e-9
    assert np.max(np.abs(final - psi_ref)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 11, 23])
def test_three_buffer_power_matches_numpy(fig3a_params, n):
    h = effective_hamiltonian(fig3a_params, "mode")
    h -= 100.0 / 3.0 * np.eye(h.shape[0])
    step = _rk4_step_matrix(h, 0.01, np.empty_like(h), np.empty_like(h))
    expected = np.linalg.matrix_power(step, n)
    got = _matrix_power(step.copy(), n, np.empty_like(h), np.empty_like(h))
    assert np.max(np.abs(got - expected)) <= 1e-13
