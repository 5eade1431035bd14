"""The kernels against the step-by-step RK4 loops they replaced.

``_reference_rk4`` is the Schrodinger loop: four right-hand-side
evaluations per step on the structured Hamiltonian (atom block, coupling
rows, and the photon diagonal in mode space or the cyclic omega0, -xi
chain in site space).  Applying one RK4 step to a linear ODE is the same
polynomial in dt*H as the kernel's step matrix, so the two agree up to
rounding.

``_reference_rk4_lindblad`` is the dense k1..k4 master-equation loop,
re-Hermitized after every step.  The kernel applies the same polynomial
in dt*L, as four dense Horner stages or in the eigenbasis of H_eff, so the
samples agree up to rounding too.
"""

import numpy as np
import pytest

from qbsim import _kernels, effective_hamiltonian
from qbsim.dynamics import (
    check_time_grid,
    evolve,
    initial_state_atom_m,
    initial_state_photon_at_site,
    step_rule,
)
from qbsim.lindblad import (
    D_IDX,
    SINK,
    DensityMatrix,
    _full_hermitian_hamiltonian,
    initial_density_matrix,
    lindblad_evolve,
)
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
    levels = np.concatenate([np.diag(atom_block).real, params.mode_frequencies()])
    centroid, n_sub, dt = step_rule(levels, dt_grid)
    atom_block = atom_block - centroid * np.eye(atom_block.shape[0])
    if photon_diag is not None:
        photon_diag = photon_diag - centroid
    return _reference_rk4(atom_block, coupling, photon_diag, params.omega0 - centroid, params.xi,
                          np.concatenate([psi0.atom, psi0.photon]), dt, n_sub, len(t_grid))


# Sites 1 and 5 carry an odd sector, which evolve advances in closed form.
@pytest.mark.parametrize("kappa_zero, site", [
    pytest.param(kappa_zero, site,
                 id=("kappa0" if kappa_zero else "kappa") + (f"-site{site}" if site else ""))
    for site in (0, 1, 5) for kappa_zero in (True, False)])
@pytest.mark.parametrize("representation", ["mode", "site"])
@pytest.mark.parametrize("model", ["effective", "full"])
def test_evolve_matches_step_by_step_rk4(fig3a_params, model, representation, kappa_zero, site, caplog):
    p = fig3a_params.replace(kappa=0.0) if kappa_zero else fig3a_params
    psi0 = initial_state_photon_at_site(site, p, model, representation)
    t_grid = np.linspace(0.0, 2.0, 21)
    caplog.set_level("DEBUG", logger="qbsim.dynamics")
    series = evolve(psi0, t_grid, p)
    path = caplog.records[-1].getMessage().split("; ")[-2]
    assert path == ("eigenbasis" if model == "effective" else "dense (full model)")
    atom_ref, norm_ref, psi_ref = _reference_evolve(psi0, t_grid, p)
    final = np.concatenate([series.final_state.atom, series.final_state.photon])
    assert np.max(np.abs(series.atom_amps - atom_ref)) <= 1e-10
    assert np.max(np.abs(series.norm2 - norm_ref)) <= 1e-9
    assert np.max(np.abs(final - psi_ref)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 11, 23])
def test_three_buffer_power_matches_numpy(fig3a_params, n):
    # One sample of the kernel with n_sub = n against n applications of P(z), written term by term.
    h = effective_hamiltonian(fig3a_params, "mode")
    h -= 100.0 / 3.0 * np.eye(h.shape[0])
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[[0, 1, 7]] = 0.6, 0.64j, -0.48
    z = -1j * 0.01 * h
    z2 = z @ z
    step = np.eye(h.shape[0]) + z + z2 / 2 + z2 @ z / 6 + z2 @ z2 / 24
    expected = psi0
    for _ in range(n):
        expected = step @ expected
    samples, _, _, _ = _kernels.rk4_schrodinger(h, h.shape[0], psi0, 0.01, n_sub=n, n_samples=2)
    assert np.max(np.abs(samples[1] - expected)) <= 1e-13


def _reference_rk4_lindblad(h_real, kappa, d_index, sink_index, rho0, dt, n_sub, n_samples):
    """Step-by-step dense RK4 of the master equation; returns (rho_samples, trace_samples)."""
    dim = h_real.shape[0]
    rho = rho0.astype(complex).copy()
    rho_out = np.empty((n_samples, dim, dim), dtype=complex)
    tr_out = np.empty(n_samples, dtype=float)

    def rhs(r):
        hr = h_real @ r
        out = -1j * (hr - hr.conj().T)
        if kappa != 0.0:
            half = 0.5 * kappa
            dd = r[d_index, d_index]
            out[d_index, :] -= half * r[d_index, :]
            out[:, d_index] -= half * r[:, d_index]
            out[sink_index, sink_index] += kappa * dd
        return out

    rho_out[0] = rho
    tr_out[0] = float(np.trace(rho).real)
    for i in range(1, n_samples):
        for _ in range(n_sub):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
        rho_out[i] = rho
        tr_out[i] = float(np.trace(rho).real)
    return rho_out, tr_out


def _shifted_lindblad_hamiltonian(params, t_grid):
    """The Hamiltonian shifted by the same centroid as ``lindblad_evolve``, with its dt and n_sub."""
    t_grid, dt_grid = check_time_grid(t_grid)
    h = _full_hermitian_hamiltonian(params)
    centroid, n_sub, dt = step_rule(np.diag(h).real[D_IDX:], dt_grid)
    h_shift = h - centroid * np.eye(h.shape[0])
    h_shift[SINK, SINK] = 0.0
    return h_shift, dt, n_sub


def _reference_lindblad_evolve(rho0, t_grid, params):
    """``_shifted_lindblad_hamiltonian`` through the loop."""
    h_shift, dt, n_sub = _shifted_lindblad_hamiltonian(params, t_grid)
    return _reference_rk4_lindblad(h_shift, params.kappa, D_IDX, SINK, rho0.rho, dt, n_sub, len(t_grid))


def _assert_lindblad_matches_reference(rho0, t_grid, p):
    lb = lindblad_evolve(rho0, t_grid, p)
    rho_ref, tr_ref = _reference_lindblad_evolve(rho0, t_grid, p)
    ref = [DensityMatrix(rho, p) for rho in rho_ref]
    assert np.max(np.abs(lb.norm2 - tr_ref)) <= 1e-12
    assert np.max(np.abs(lb.p_dark - [dm.dark_population() for dm in ref])) <= 1e-12
    assert np.max(np.abs(lb.atom_amps - np.real(rho_ref[:, D_IDX:, D_IDX:][:, range(3), range(3)]))) <= 1e-12
    assert np.max(np.abs(lb.final_rho.rho - rho_ref[-1])) <= 1e-12
    assert lb.final_rho.hermiticity_defect() == 0.0


# Sites 3 and N - 2 = 19 start with the photon away from the atom, as the lindblad benchmark does.
@pytest.mark.parametrize("kappa_zero, site", [
    pytest.param(kappa_zero, site,
                 id=("kappa0" if kappa_zero else "kappa") + (f"-site{site}" if site else ""))
    for site in (0, 3, 19) for kappa_zero in (True, False)])
@pytest.mark.parametrize("path", ["eigenbasis", "horner"])
def test_lindblad_matches_step_by_step_rk4(fig3a_params, path, kappa_zero, site, monkeypatch, caplog):
    if path == "horner":  # cond(V) >= 1 always, so the Horner stages run
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    p = fig3a_params.replace(n_cavities=21)
    p = p.replace(kappa=0.0) if kappa_zero else p
    rho0 = initial_density_matrix(initial_state_photon_at_site(site, p, "full", "site"), p)
    _assert_lindblad_matches_reference(rho0, np.linspace(0.0, 2.0, 21), p)
    (record,) = caplog.records
    assert ("; Horner stages" if path == "horner" else "; eigenbasis, cond(V) ") in record.getMessage()


def test_lindblad_falls_back_to_horner_stages_at_exceptional_point(fig3a_params, caplog):
    # With the array decoupled and d, e degenerate, two eigenvalues of the atom block
    # of H_eff coalesce at kappa = 170.0340244, where cond(V) is about 1e7; the
    # eigenbasis would lose digits there.  dt = 0.01 keeps dt kappa inside RK4's
    # stability interval.
    p = fig3a_params.replace(n_cavities=21, g1=0.0, g2=0.0, delta_e=fig3a_params.omega_d_real,
                             omega_e_level=fig3a_params.omega_d_real, kappa=170.0340244)
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    rho0 = initial_density_matrix(initial_state_atom_m(p, "full"), p)
    _assert_lindblad_matches_reference(rho0, np.linspace(0.0, 1.0, 101), p)
    (record,) = caplog.records
    assert record.getMessage().endswith("; Horner stages")


def test_horner_stages_reject_a_matrix_that_is_not_ring_and_atom(fig3a_params, monkeypatch):
    # The eigenbasis drops the sink's row and column, so an entry there must be refused on
    # both paths, before any work; this is the Horner path's case.
    monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    monkeypatch.setattr(_kernels, "_sink_padded_eig", None)
    p = fig3a_params.replace(n_cavities=21)
    h = _full_hermitian_hamiltonian(p).real
    h[SINK, D_IDX] = h[D_IDX, SINK] = 5.0
    rho0 = initial_density_matrix(initial_state_photon_at_site(0, p, "full", "site"), p).rho
    with pytest.raises(ValueError, match=r"sink row and column \(index 0\) must be zero"):
        _kernels.rk4_lindblad(h, p.kappa, D_IDX, SINK, rho0, 0.01, 1, 3)


@pytest.mark.parametrize("entry", ["row", "column"])
def test_eigenbasis_rejects_an_entry_in_the_sink_row_or_column(fig3a_params, monkeypatch, entry):
    # Unchecked, this entry would be dropped: the output was byte-identical to the unmodified h's.
    monkeypatch.setattr(_kernels, "_sink_padded_eig", None)
    p = fig3a_params.replace(n_cavities=21)
    h, dt, n_sub = _shifted_lindblad_hamiltonian(p, np.linspace(0.0, 2.0, 21))
    h[(SINK, D_IDX) if entry == "row" else (D_IDX, SINK)] = 5.0
    rho0 = initial_density_matrix(initial_state_photon_at_site(3, p, "full", "site"), p).rho
    with pytest.raises(ValueError, match=r"sink row and column \(index 0\) must be zero"):
        _kernels.rk4_lindblad(h, p.kappa, D_IDX, SINK, rho0, dt, n_sub, 21)


def test_horner_stages_honour_a_hop_across_the_ring(fig3a_params, monkeypatch):
    # The stages apply H_eff as one dense matrix, so an entry outside the ring and the atom
    # block is propagated like any other.
    monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    p = fig3a_params.replace(n_cavities=21)
    t_grid = np.linspace(0.0, 2.0, 21)
    ring, dt, n_sub = _shifted_lindblad_hamiltonian(p, t_grid)
    h = ring.copy()
    h[D_IDX + 3 + 5, D_IDX + 3 + 9] = h[D_IDX + 3 + 9, D_IDX + 3 + 5] = -0.1
    rho0 = initial_density_matrix(initial_state_photon_at_site(3, p, "full", "site"), p).rho
    block, traces, rho_final, cond_v = _kernels.rk4_lindblad(h, p.kappa, D_IDX, SINK, rho0, dt, n_sub,
                                                             len(t_grid))
    rho_ref, tr_ref = _reference_rk4_lindblad(h, p.kappa, D_IDX, SINK, rho0, dt, n_sub, len(t_grid))
    assert cond_v is None
    assert np.max(np.abs(block - rho_ref[:, D_IDX:D_IDX + 3, D_IDX:D_IDX + 3])) <= 1e-12
    assert np.max(np.abs(traces - tr_ref)) <= 1e-12
    assert np.max(np.abs(rho_final - rho_ref[-1])) <= 1e-12
    # The hop moves rho by far more than that bound (1.4e-2), so it was not dropped.
    without = _kernels.rk4_lindblad(ring, p.kappa, D_IDX, SINK, rho0, dt, n_sub, len(t_grid))[2]
    assert np.max(np.abs(rho_final - without)) > 1e-3
