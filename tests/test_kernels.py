"""The kernels against exact references.

``_reference_evolve`` builds the full Hamiltonian, with no parity split,
column by column from the structured right-hand side (atom block,
coupling rows, and the photon diagonal in mode space or the cyclic
omega0, -xi chain in site space), and advances each grid interval with
one ``scipy.linalg.expm``.  ``evolve`` propagates exactly on the
eigenbasis paths and by a degree-12 Taylor step below rounding on the
dense kernel, so the two agree up to rounding.

``_reference_lindblad`` is the Lindblad/non-Hermitian identity: from a
pure excited state, rho(t) is |psi(t)><psi(t)| with psi(t) = expm(-i
H_eff t) psi0, plus 1 - |psi(t)|^2 at the sink.  The kernel propagates
exactly in the eigenbasis of H_eff, or by the dense exponential P rho P^H
with P built from Taylor steps below rounding, so the samples agree up to
rounding too.
"""

import inspect

import numpy as np
import pytest
import scipy.linalg

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
    _parity_basis,
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


def _reference_expm(atom_block, coupling, photon_diag, omega0, xi, psi0, dt_grid, n_samples):
    """One expm of the structured H per grid interval; returns (atom_samples, norm2_samples, psi_final)."""
    na = atom_block.shape[0]
    if photon_diag is not None:
        rhs = lambda p: _rhs_mode(atom_block, coupling, photon_diag, p, na)
    else:
        rhs = lambda p: _rhs_site(atom_block, coupling, omega0, xi, p, na)
    eye = np.eye(len(psi0), dtype=complex)
    step = scipy.linalg.expm(dt_grid * np.column_stack([rhs(col) for col in eye]))  # rhs(psi) = -i H psi
    psi = psi0.astype(complex).copy()
    atom_out = np.empty((n_samples, na), dtype=complex)
    norm_out = np.empty(n_samples, dtype=float)
    atom_out[0] = psi[:na]
    norm_out[0] = float(np.vdot(psi, psi).real)
    for i in range(1, n_samples):
        psi = step @ psi
        atom_out[i] = psi[:na]
        norm_out[i] = float(np.vdot(psi, psi).real)
    return atom_out, norm_out, psi


def _reference_evolve(psi0, t_grid, params):
    """The structured blocks shifted by the same centroid as ``evolve``, through ``_reference_expm``."""
    t_grid, dt_grid = check_time_grid(t_grid)
    atom_block, coupling, photon_diag = hamiltonian_blocks(params, psi0.model, psi0.representation)
    levels = np.concatenate([np.diag(atom_block).real, params.mode_frequencies()])
    centroid = 0.5 * (levels.max() + levels.min())
    atom_block = atom_block - centroid * np.eye(atom_block.shape[0])
    if photon_diag is not None:
        photon_diag = photon_diag - centroid
    return _reference_expm(atom_block, coupling, photon_diag, params.omega0 - centroid, params.xi,
                           np.concatenate([psi0.atom, psi0.photon]), dt_grid, len(t_grid))


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
    # One sample of the kernel with n_sub = n against expm of the whole interval.
    h = effective_hamiltonian(fig3a_params, "mode")
    h -= 100.0 / 3.0 * np.eye(h.shape[0])
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[[0, 1, 7]] = 0.6, 0.64j, -0.48
    expected = scipy.linalg.expm(-1j * (n * 0.01) * h) @ psi0
    samples, _, _, _ = _kernels.rk4_schrodinger(h, h.shape[0], psi0, 0.01, n_sub=n, n_samples=2)
    assert np.max(np.abs(samples[1] - expected)) <= 1e-13


def _reference_lindblad(h_real, kappa, d_index, sink_index, rho0, t_grid):
    """Exact (rho_samples, trace_samples) from the pure excited state rho0 = |psi0><psi0|.

    The Lindblad/non-Hermitian identity: rho(t) = |psi(t)><psi(t)| with
    psi(t) = expm(-i H_eff t) psi0, and the sink holds 1 - |psi(t)|^2.
    """
    vals, vecs = np.linalg.eigh(rho0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-14) and rho0[sink_index, sink_index] == 0.0
    psi0 = vecs[:, -1]
    h_eff = h_real.astype(complex)
    h_eff[d_index, d_index] -= 0.5j * kappa
    rho_out = np.empty((len(t_grid), len(psi0), len(psi0)), dtype=complex)
    for i, t in enumerate(t_grid):
        psi = scipy.linalg.expm(-1j * t * h_eff) @ psi0
        rho_out[i] = np.outer(psi, psi.conj())
        rho_out[i, sink_index, sink_index] = 1.0 - np.vdot(psi, psi).real
    return rho_out, np.trace(rho_out, axis1=1, axis2=2).real


def _lindblad_hamiltonian(params, t_grid):
    """The lab-frame Hamiltonian of ``lindblad_evolve``, with its grid spacing and n_sub."""
    t_grid, dt_grid = check_time_grid(t_grid)
    h = _full_hermitian_hamiltonian(params)
    n_sub, _ = step_rule(2.0 * (np.linalg.norm(h, 1) + params.kappa), dt_grid)
    return h, dt_grid, n_sub


def _assert_lindblad_matches_reference(rho0, t_grid, p, mixture=None):
    """``lindblad_evolve`` against ``_reference_lindblad`` at 1e-12; returns the series.

    ``mixture`` lists the (weight, pure rho) whose sum is a mixed rho0; the
    map is linear, so the reference is the same sum of pure references.
    """
    lb = lindblad_evolve(rho0, t_grid, p)
    h = _lindblad_hamiltonian(p, t_grid)[0]
    rho_ref = sum(w * _reference_lindblad(h, p.kappa, D_IDX, SINK, rho, t_grid)[0]
                  for w, rho in mixture or [(1.0, rho0.rho)])
    tr_ref = np.trace(rho_ref, axis1=1, axis2=2).real
    ref = [DensityMatrix(rho, p) for rho in rho_ref]
    assert np.max(np.abs(lb.norm2 - tr_ref)) <= 1e-12
    assert np.max(np.abs(lb.p_dark - [dm.dark_population() for dm in ref])) <= 1e-12
    assert np.max(np.abs(lb.atom_amps - np.real(rho_ref[:, D_IDX:, D_IDX:][:, range(3), range(3)]))) <= 1e-12
    assert np.max(np.abs(lb.final_rho.rho - rho_ref[-1])) <= 1e-12
    assert lb.final_rho.hermiticity_defect() == 0.0
    return lb


# Sites 3 and N - 2 = 19 start with the photon away from the atom, as the lindblad benchmark does.
@pytest.mark.parametrize("kappa_zero, site", [
    pytest.param(kappa_zero, site,
                 id=("kappa0" if kappa_zero else "kappa") + (f"-site{site}" if site else ""))
    for site in (0, 3, 19) for kappa_zero in (True, False)])
@pytest.mark.parametrize("path", ["eigenbasis", "horner"])
def test_lindblad_matches_step_by_step_rk4(fig3a_params, path, kappa_zero, site, monkeypatch, caplog):
    if path == "horner":  # cond(V) >= 1 always, so the dense exponential runs
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    p = fig3a_params.replace(n_cavities=21)
    p = p.replace(kappa=0.0) if kappa_zero else p
    rho0 = initial_density_matrix(initial_state_photon_at_site(site, p, "full", "site"), p)
    _assert_lindblad_matches_reference(rho0, np.linspace(0.0, 2.0, 21), p)
    (record,) = caplog.records
    assert ("; dense exponential" if path == "horner" else "; eigenbasis, cond(V) ") in record.getMessage()


def test_lindblad_falls_back_to_horner_stages_at_exceptional_point(fig3a_params, caplog):
    # With the array decoupled and d, e degenerate, two eigenvalues of the atom block
    # of H_eff coalesce at kappa = 170.0340244, where cond(V) is about 1e7; the
    # eigenbasis would lose digits there.  The step rule reads kappa through the
    # generator's norm.
    p = fig3a_params.replace(n_cavities=21, g1=0.0, g2=0.0, delta_e=fig3a_params.omega_d_real,
                             omega_e_level=fig3a_params.omega_d_real, kappa=170.0340244)
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    rho0 = initial_density_matrix(initial_state_atom_m(p, "full"), p)
    _assert_lindblad_matches_reference(rho0, np.linspace(0.0, 1.0, 101), p)
    (record,) = caplog.records
    assert record.getMessage().endswith("; dense exponential")


@pytest.mark.parametrize("case", ["eigenbasis", "horner", "exceptional-point"])
def test_lindblad_propagates_a_mixed_state(fig3a_params, case, monkeypatch, caplog):
    # 0.7 of one pure state and 0.3 of another.  At the exceptional point the first is the atom
    # in m, since with the array decoupled a photon would never reach the coalescing levels.
    p = fig3a_params.replace(n_cavities=21)
    if case == "horner":
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    if case == "exceptional-point":
        p = p.replace(g1=0.0, g2=0.0, delta_e=p.omega_d_real, omega_e_level=p.omega_d_real, kappa=170.0340244)
    first = (initial_state_atom_m(p, "full") if case == "exceptional-point"
             else initial_state_photon_at_site(0, p, "full", "site"))
    mixture = [(0.7, initial_density_matrix(first, p).rho),
               (0.3, initial_density_matrix(initial_state_photon_at_site(3, p, "full", "site"), p).rho)]
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    rho0 = DensityMatrix(sum(w * rho for w, rho in mixture), p)
    lb = _assert_lindblad_matches_reference(rho0, np.linspace(0.0, 2.0, 21), p, mixture)
    (record,) = caplog.records
    assert record.getMessage().endswith("; dense exponential") == (case != "eigenbasis")
    assert p.kappa > 0.0 and np.linalg.eigvalsh(rho0.rho)[-2:] == pytest.approx([0.3, 0.7], abs=1e-14)
    assert lb.final_rho.min_eigenvalue() >= -1e-12


@pytest.mark.parametrize("path", ["eigenbasis", "horner"])
def test_coherences_with_the_sink_keep_their_phase(fig3a_params, path, monkeypatch):
    # psi = (|0,g> + photon at site 0) / sqrt(2).  The jump only feeds the sink's population, so
    # rho(t) = U rho0 U^H plus the lost trace at the sink, U = expm(-i t H_eff) over the whole basis
    # with |0,g> at energy 0; a shifted H would rotate the sink's row and column (0.31 off here).
    if path == "horner":
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    p = fig3a_params.replace(n_cavities=21)
    psi0 = np.zeros(p.n_cavities + 4, dtype=complex)
    psi0[[SINK, 4]] = np.sqrt(0.5)  # index 4 is site 0, as in ``initial_density_matrix``
    rho0 = np.outer(psi0, psi0.conj())
    t_grid = np.linspace(0.0, 2.0, 21)
    lb = lindblad_evolve(DensityMatrix(rho0, p), t_grid, p)
    h_eff = _full_hermitian_hamiltonian(p)
    h_eff[D_IDX, D_IDX] -= 0.5j * p.kappa
    u = scipy.linalg.expm(-1j * t_grid[-1] * h_eff)
    rho_ref = u @ rho0 @ u.conj().T
    rho_ref[SINK, SINK] += 1.0 - np.trace(rho_ref).real
    assert abs(rho_ref[4, SINK]) > 0.01  # the coherence is still there to be rotated
    assert np.max(np.abs(lb.final_rho.rho[:, SINK] - rho_ref[:, SINK])) <= 1e-12
    assert np.max(np.abs(lb.final_rho.rho - rho_ref)) <= 1e-12


def test_horner_stages_reject_a_matrix_that_is_not_ring_and_atom(fig3a_params, monkeypatch):
    # The eigenbasis drops the sink's row and column, so an entry there must be refused on
    # both paths, before any work; this is the dense path's case.
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
    h, delta, n_sub = _lindblad_hamiltonian(p, np.linspace(0.0, 2.0, 21))
    h[(SINK, D_IDX) if entry == "row" else (D_IDX, SINK)] = 5.0
    rho0 = initial_density_matrix(initial_state_photon_at_site(3, p, "full", "site"), p).rho
    with pytest.raises(ValueError, match=r"sink row and column \(index 0\) must be zero"):
        _kernels.rk4_lindblad(h, p.kappa, D_IDX, SINK, rho0, delta, n_sub, 21)


def test_horner_stages_honour_a_hop_across_the_ring(fig3a_params, monkeypatch):
    # The dense exponential applies H_eff as one dense matrix, so an entry outside the ring
    # and the atom block is propagated like any other.
    monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    p = fig3a_params.replace(n_cavities=21)
    t_grid = np.linspace(0.0, 2.0, 21)
    ring, delta, n_sub = _lindblad_hamiltonian(p, t_grid)
    h = ring.copy()
    h[D_IDX + 3 + 5, D_IDX + 3 + 9] = h[D_IDX + 3 + 9, D_IDX + 3 + 5] = -0.1
    rho0 = initial_density_matrix(initial_state_photon_at_site(3, p, "full", "site"), p).rho
    block, traces, rho_final, cond_v = _kernels.rk4_lindblad(h, p.kappa, D_IDX, SINK, rho0, delta, n_sub,
                                                             len(t_grid))
    rho_ref, tr_ref = _reference_lindblad(h, p.kappa, D_IDX, SINK, rho0, t_grid)
    assert cond_v is None
    assert np.max(np.abs(block - rho_ref[:, D_IDX:D_IDX + 3, D_IDX:D_IDX + 3])) <= 1e-12
    assert np.max(np.abs(traces - tr_ref)) <= 1e-12
    assert np.max(np.abs(rho_final - rho_ref[-1])) <= 1e-12
    # The hop moves rho by far more than that bound (1.4e-2), so it was not dropped.
    without = _kernels.rk4_lindblad(ring, p.kappa, D_IDX, SINK, rho0, delta, n_sub, len(t_grid))[2]
    assert np.max(np.abs(rho_final - without)) > 1e-3


def _parity_run(p, site, t_grid):
    """The kernel on the site-basis H and on the parity-basis H, the second taken back to sites."""
    ring, delta, n_sub = _lindblad_hamiltonian(p, t_grid)
    u = _parity_basis(p)
    rho0 = initial_density_matrix(initial_state_photon_at_site(site, p, "full", "site"), p).rho
    site_run = _kernels.rk4_lindblad(ring, p.kappa, D_IDX, SINK, rho0, delta, n_sub, len(t_grid))
    parity_run = _kernels.rk4_lindblad(_full_hermitian_hamiltonian(p, "parity"), p.kappa, D_IDX, SINK,
                                       u @ rho0 @ u.conj().T, delta, n_sub, len(t_grid))
    return site_run, parity_run, u


# Site 3 carries both parities; site 0 only the even one.
@pytest.mark.parametrize("site", [0, 3])
@pytest.mark.parametrize("path", ["eigenbasis", "horner"])
def test_parity_basis_gives_the_site_basis_run(fig3a_params, path, site, monkeypatch):
    if path == "horner":
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    p = fig3a_params.replace(n_cavities=21)
    (block, traces, rho, cond_v), (block_p, traces_p, rho_p, cond_p), u = _parity_run(
        p, site, np.linspace(0.0, 2.0, 21))
    assert (cond_v is None) == (cond_p is None) == (path == "horner")
    assert np.max(np.abs(block_p - block)) <= 1e-12
    assert np.max(np.abs(traces_p - traces)) <= 1e-12
    assert np.max(np.abs(u.conj().T @ rho_p @ u - rho)) <= 1e-12


@pytest.mark.parametrize("g, n_free", [(0.3, 10), (0.0, 21)], ids=["coupled", "uncoupled"])
def test_free_states_are_the_uncoupled_modes(fig3a_params, g, n_free):
    # In the parity basis the odd modes never couple; at g1 = g2 = 0 no mode does, and only
    # the sink and d, e, m are kept.  No site of the ring is free: each has two hops.
    p = fig3a_params.replace(n_cavities=21)
    p = p if g else p.replace(g1=0.0, g2=0.0)
    free = _kernels.free_states(_full_hermitian_hamiltonian(p, "parity"), D_IDX, SINK)
    assert np.count_nonzero(free) == n_free
    assert np.array_equal(np.flatnonzero(free), np.arange(p.n_cavities + 4 - n_free, p.n_cavities + 4))
    assert not np.any(_kernels.free_states(_full_hermitian_hamiltonian(p), D_IDX, SINK))


@pytest.mark.parametrize("path", ["eigenbasis", "horner"])
def test_a_hop_between_odd_modes_keeps_both_coupled(fig3a_params, path, monkeypatch):
    # As ``test_horner_stages_honour_a_hop_across_the_ring``, in the parity basis: a hop between
    # two odd modes couples them to each other, so both are kept and the run follows it.
    if path == "horner":
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    p = fig3a_params.replace(n_cavities=21)
    t_grid = np.linspace(0.0, 2.0, 21)
    delta, n_sub = _lindblad_hamiltonian(p, t_grid)[1:]
    parity = _full_hermitian_hamiltonian(p, "parity")
    h, (a, b) = parity.copy(), (p.n_cavities + 4 - 7, p.n_cavities + 4 - 2)  # odd modes k = 4 and 9
    h[a, b] = h[b, a] = -0.1
    free = _kernels.free_states(h, D_IDX, SINK)
    assert np.count_nonzero(free) == 8 and not free[a] and not free[b]
    u = _parity_basis(p)
    rho0 = initial_density_matrix(initial_state_photon_at_site(3, p, "full", "site"), p).rho
    rho0 = u @ rho0 @ u.conj().T
    block, traces, rho_final, cond_v = _kernels.rk4_lindblad(h, p.kappa, D_IDX, SINK, rho0, delta, n_sub,
                                                             len(t_grid))
    rho_ref, tr_ref = _reference_lindblad(h, p.kappa, D_IDX, SINK, rho0, t_grid)
    assert (cond_v is None) == (path == "horner")
    assert np.max(np.abs(block - rho_ref[:, D_IDX:D_IDX + 3, D_IDX:D_IDX + 3])) <= 1e-12
    assert np.max(np.abs(traces - tr_ref)) <= 1e-12
    assert np.max(np.abs(rho_final - rho_ref[-1])) <= 1e-12
    # The hop moves rho by far more than that bound, so it was not dropped.
    without = _kernels.rk4_lindblad(parity, p.kappa, D_IDX, SINK, rho0, delta, n_sub, len(t_grid))[2]
    assert np.max(np.abs(rho_final - without)) > 1e-3


def test_lindblad_kernel_keeps_the_positions_perfbench_reads():
    # perfbench's step counter reads n_sub and n_samples by position (6 and 7).
    names = list(inspect.signature(_kernels.rk4_lindblad).parameters)
    assert names.index("n_sub") == 6 and names.index("n_samples") == 7
