import warnings

import numpy as np
import pytest

from qbsim import _kernels, dynamics, lindblad
from qbsim.dynamics import evolve, initial_state_atom_m, initial_state_photon_at_site
from qbsim.errors import StepSizeTooLarge, TraceDrift
from qbsim.lindblad import initial_density_matrix, lindblad_evolve, population_report
from test_kernels import _assert_lindblad_matches_reference


@pytest.fixture
def small_params(fig3a_params):
    return fig3a_params.replace(n_cavities=21)


def test_unitary_limit_matches_schrodinger(small_params):
    p = small_params.replace(kappa=0.0)
    psi0 = initial_state_photon_at_site(0, p, "full", "site")
    t_grid = np.linspace(0, 10, 201)
    nh = evolve(psi0, t_grid, p)
    lb = lindblad_evolve(initial_density_matrix(psi0, p), t_grid, p)
    assert np.max(np.abs(lb.p_dark - nh.p_dark)) <= 1e-6


def test_jump_to_ground_equals_non_hermitian(small_params):
    # Exact block identity: the excited sector of rho stays the
    # non-Hermitian pure-state projector, so P_E1 agrees to integrator error.
    p = small_params
    psi0 = initial_state_photon_at_site(0, p, "full", "site")
    t_grid = np.linspace(0, 15, 301)
    nh = evolve(psi0, t_grid, p)
    lb = lindblad_evolve(initial_density_matrix(psi0, p), t_grid, p)
    assert np.max(np.abs(lb.p_dark - nh.p_dark)) <= 1e-6
    # and the full excited block, not just the dark projection
    rho_t = lb.final_rho.rho
    psi_t = np.concatenate([nh.final_state.atom, nh.final_state.photon])
    block = rho_t[1:, 1:]
    assert np.max(np.abs(block - np.outer(psi_t, psi_t.conj()))) <= 1e-8


def test_effective_model_state_rejected(small_params):
    psi0 = initial_state_photon_at_site(0, small_params, "effective", "site")
    with pytest.raises(ValueError, match="the Lindblad basis needs a full-model wavefunction"):
        initial_density_matrix(psi0, small_params)


def test_trace_preserved_and_positive(small_params):
    p = small_params
    psi0 = initial_state_photon_at_site(0, p, "full", "site")
    t_grid = np.linspace(0, 50, 501)
    # Ten checkpoints: each segment restarts from the last final_rho on the
    # same grid spacing, so dt and n_sub are those of one run over t_grid.
    dm = initial_density_matrix(psi0, p)
    checkpoints = np.linspace(0, len(t_grid) - 1, 10, dtype=int)
    for start, stop in zip(checkpoints[:-1], checkpoints[1:]):
        lb = lindblad_evolve(dm, t_grid[: stop - start + 1], p)
        assert np.max(np.abs(lb.norm2 - 1.0)) <= 1e-8
        dm = lb.final_rho
        assert dm.min_eigenvalue() >= -1e-8
        assert dm.hermiticity_defect() <= 1e-10


def test_population_report(small_params):
    p = small_params
    psi0 = initial_state_photon_at_site(0, p, "full", "site")
    rho0 = initial_density_matrix(psi0, p)
    rep = population_report(rho0)
    assert rep["photon"] == pytest.approx(1.0)
    assert rep["d"] == rep["e"] == rep["m"] == rep["ground_vacuum"] == 0.0

    t_grid = np.linspace(0, 40, 401)
    lb = lindblad_evolve(rho0, t_grid, p)
    rep_t = population_report(lb.final_rho)
    assert sum(rep_t.values()) == pytest.approx(1.0, abs=1e-8)
    assert rep_t["ground_vacuum"] > 0.0  # dissipation populated the sink


def test_sink_collects_everything_at_strong_decay(small_params):
    # Start in the atom with a large kappa and no array coupling:
    # the excitation decays into |0,g> almost completely.
    p = small_params.replace(kappa=30.0, g1=0.0, g2=0.0,
                             omega_c_rabi=8.0, omega_p_rabi=8.0)
    psi0 = initial_state_atom_m(p, "full")
    t_grid = np.linspace(0, 60, 601)
    lb = lindblad_evolve(initial_density_matrix(psi0, p), t_grid, p)
    rep = population_report(lb.final_rho)
    assert rep["ground_vacuum"] > 0.99


@pytest.mark.parametrize("propagate", ["evolve", "lindblad_evolve"])
@pytest.mark.parametrize("t_grid, message", [
    (np.array([0.0]), "at least two points"),
    (np.linspace(0.0, 1.0, 6).reshape(2, 3), "at least two points"),
    (np.array([0.0, 0.1, 0.3]), "uniform"),
    (np.linspace(0.1, 1.0, 10), "increase from 0"),
])
def test_bad_time_grid_rejected(small_params, propagate, t_grid, message):
    # Both propagators share one grid check and so reject a bad grid alike.
    p = small_params.replace(n_cavities=7)
    psi0 = initial_state_photon_at_site(0, p, "full", "site")
    with pytest.raises(ValueError, match=message):
        if propagate == "evolve":
            evolve(psi0, t_grid, p)
        else:
            lindblad_evolve(initial_density_matrix(psi0, p), t_grid, p)


def test_non_finite_trace_names_the_step(small_params, monkeypatch):
    # STEP_FACTOR = 20 makes each Taylor step of the dense exponential 80 times too long: on
    # this grid rho overflows to NaN, and the check after propagating names the steps.  n_sub
    # comes from the lab-frame H, whose norm holds the levels' energies, not only their spread.
    monkeypatch.setattr(dynamics, "STEP_FACTOR", 20.0)
    monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    psi0 = initial_state_photon_at_site(0, small_params, "full", "site")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow must not leak out
        with pytest.raises(StepSizeTooLarge, match=r"non-finite \(n_sub 150, dt 0\.1333, 1500 Taylor steps\)$"):
            lindblad_evolve(initial_density_matrix(psi0, small_params), np.linspace(0, 200, 11), small_params)


def test_trace_drift_names_the_step(small_params, monkeypatch):
    # A longer step over a short window: rho grows but stays finite.  The dense step conserves
    # the trace by construction only while P is contractive; at STEP_FACTOR 20 each Taylor step
    # of the lab-frame H_eff has ||dt H_eff||_1 up to 10, and P grows rho.
    monkeypatch.setattr(dynamics, "STEP_FACTOR", 20.0)
    monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)
    psi0 = initial_state_photon_at_site(0, small_params, "full", "site")
    with pytest.raises(TraceDrift, match=r"reached .* \(n_sub 4, dt 0\.125, 40 Taylor steps\)$"):
        lindblad_evolve(initial_density_matrix(psi0, small_params), np.linspace(0, 5, 11), small_params)


@pytest.mark.parametrize("kappa_zero", [False, True], ids=["kappa", "kappa0"])
@pytest.mark.parametrize("step_factor, t_max, dt, n_sub", [(5.0, 200.0, "0.5882", 34), (1.0, 5.0, "0.1", 5)])
def test_long_step_raises_before_propagating(small_params, monkeypatch, caplog, step_factor, t_max, dt,
                                             n_sub, kappa_zero):
    # RK4 steps of dt (n_sub per interval) once grew rho on these grids, and were stopped before
    # propagating.  The eigenbasis has no step: each interval is one exact exponential of the grid
    # spacing, whatever STEP_FACTOR says, so the run is stable and matches the run at the default
    # STEP_FACTOR (bit for bit, as ``test_exact_path_advances_by_the_grid_spacing`` checks).
    p = small_params.replace(kappa=0.0) if kappa_zero else small_params
    rho0 = initial_density_matrix(initial_state_photon_at_site(0, p, "full", "site"), p)
    t_grid = np.linspace(0, t_max, 11)
    default = lindblad_evolve(rho0, t_grid, p)
    monkeypatch.setattr(dynamics, "STEP_FACTOR", step_factor)
    monkeypatch.setattr(_kernels, "_taylor_power", None)  # no Taylor step is built
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    lb = lindblad_evolve(rho0, t_grid, p)
    (record,) = caplog.records
    assert f"exact steps of dt {t_max / 10:g}, " in record.getMessage()
    assert f"dt = {dt}" not in record.getMessage() and "n_sub" not in record.getMessage()
    assert np.max(np.abs(lb.norm2 - 1.0)) <= 1e-12 and lb.final_rho.min_eigenvalue() >= -1e-12
    for a, b in ((lb.p_dark, default.p_dark), (lb.norm2, default.norm2), (lb.final_rho.rho, default.final_rho.rho)):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_exact_path_advances_by_the_grid_spacing(small_params, monkeypatch):
    # The eigenbasis path advances by the grid spacing itself, and STEP_FACTOR sets only the dense
    # exponential's substeps, so it moves no bit of the eigenbasis path's output.
    p = small_params.replace(kappa=0.0)
    rho0 = initial_density_matrix(initial_state_photon_at_site(0, p, "full", "site"), p)
    runs = []
    for step_factor in (0.25, 1.0):
        monkeypatch.setattr(dynamics, "STEP_FACTOR", step_factor)
        runs.append(lindblad_evolve(rho0, np.linspace(0, 5, 11), p))
    fine, coarse = runs
    assert np.array_equal(fine.p_dark, coarse.p_dark) and np.array_equal(fine.norm2, coarse.norm2)
    assert np.array_equal(fine.final_rho.rho, coarse.final_rho.rho)


def _fast_decay(params):
    """Atom start, no array coupling, e and d degenerate: rho_dd decays at kappa = 170.034."""
    p = params.replace(g1=0.0, g2=0.0, delta_e=params.omega_d_real, omega_e_level=params.omega_d_real,
                       kappa=170.034)
    return initial_density_matrix(initial_state_atom_m(p, "full"), p), p


def test_fast_decay_raises_before_propagating(small_params, caplog):
    # dt kappa = 3.4 > 2.785 made RK4 unstable on rho_dd on this grid.  Near the exceptional
    # point the dense exponential runs, and the step rule reads kappa through the generator's
    # norm, so dt kappa <= STEP_FACTOR / 2: the run matches the exact solution.
    rho0, p = _fast_decay(small_params)
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    _assert_lindblad_matches_reference(rho0, np.linspace(0, 2, 21), p)
    (record,) = caplog.records
    n_sub = int(record.getMessage().split("n_sub ")[1].split(",")[0])
    assert record.getMessage().endswith("; dense exponential") and 0.1 / n_sub * p.kappa <= 0.125


def test_fast_decay_stable_step_unchanged_by_the_check(small_params):
    # On a ten times finer grid the dense exponential conserves the trace to rounding too.
    rho0, p = _fast_decay(small_params)
    lb = _assert_lindblad_matches_reference(rho0, np.linspace(0, 2, 201), p)
    assert abs(lb.norm2[-1] - 1.0) <= 1e-15


def test_debug_log_names_the_steps(small_params, caplog):
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    psi0 = initial_state_photon_at_site(0, small_params, "full", "site")
    lindblad_evolve(initial_density_matrix(psi0, small_params), np.linspace(0, 1, 11), small_params)
    (record,) = caplog.records
    assert record.name == "qbsim.lindblad"
    assert record.getMessage().startswith("lindblad_evolve jump_to_ground: dim 25, exact steps of dt 0.1, ")
    assert ", trace drift " in record.getMessage() and "n_sub" not in record.getMessage()
    assert "; propagation " in record.getMessage()


def test_debug_log_names_the_eigenbasis(small_params, caplog):
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    psi0 = initial_state_photon_at_site(3, small_params, "full", "site")
    lindblad_evolve(initial_density_matrix(psi0, small_params), np.linspace(0, 1, 11), small_params)
    (record,) = caplog.records
    assert record.getMessage().startswith("lindblad_evolve jump_to_ground: dim 25, exact steps of dt 0.1, ")
    head, cond_v = record.getMessage().rsplit("; eigenbasis, cond(V) ", 1)
    assert ", trace drift " in head and "; propagation " in head and "Taylor steps" not in head
    assert 1.0 <= float(cond_v) <= 10.0


def test_wrong_dim_rejected_before_propagating(small_params, monkeypatch):
    monkeypatch.setattr(lindblad, "_full_hermitian_hamiltonian", None)  # nothing may be built
    rho0 = initial_density_matrix(initial_state_photon_at_site(0, small_params, "full", "site"), small_params)
    with pytest.raises(ValueError, match=r"rho0 has dim 25, but N = 53 needs dim 57"):
        lindblad_evolve(rho0, np.linspace(0, 1, 11), small_params.replace(n_cavities=53))


@pytest.mark.parametrize("uncoupled, n_free", [(False, 10), (True, 21)], ids=["coupled", "uncoupled"])
def test_debug_log_counts_the_free_states(small_params, caplog, uncoupled, n_free):
    # The (N - 1)/2 odd modes, and at g1 = g2 = 0 every mode, advance in closed form.
    p = small_params.replace(g1=0.0, g2=0.0) if uncoupled else small_params
    caplog.set_level("DEBUG", logger="qbsim.lindblad")
    psi0 = initial_state_photon_at_site(3, p, "full", "site")
    lindblad_evolve(initial_density_matrix(psi0, p), np.linspace(0, 1, 11), p)
    (record,) = caplog.records
    head, tail = record.getMessage().split("; propagation ")
    assert head.startswith("lindblad_evolve jump_to_ground: dim 25, exact steps of dt 0.1, trace drift ")
    assert head.endswith(f", {n_free} free states") and "; eigenbasis, cond(V) " in tail
