import json

import numpy as np
import pytest

from qbsim import SystemParams, atom_eigensystem_exact, effective_hamiltonian
from qbsim.cli import main
from qbsim.dynamics import evolve, initial_state_photon_at_site
from qbsim.errors import DarkConditionViolated, DegenerateSpectrum
from qbsim.lindblad import initial_density_matrix, lindblad_evolve


def test_degenerate_spectrum_raises():
    p = SystemParams(omega0=20.0, xi=1.0, n_cavities=5, g1=0.0, g2=0.0,
                     omega_p_rabi=0.0, omega_c_rabi=0.0, omega_d_real=5.0,
                     kappa=0.0, omega_m_level=5.0, delta_e=7.0)
    with pytest.raises(DegenerateSpectrum):
        atom_eigensystem_exact(p)


def test_effective_hamiltonian_requires_dark_condition(fig3a_params):
    with pytest.raises(DarkConditionViolated):
        effective_hamiltonian(fig3a_params.replace(g1=0.05), "mode")


def test_fig3b_population_stays_low(fig3b_params):
    # Dark state far outside the band: the photon barely loads the atom.
    series = evolve(initial_state_photon_at_site(0, fig3b_params, "effective", "mode"),
                    np.linspace(0, 20, 401), fig3b_params)
    assert series.p_dark.max() < 0.01


def test_reproduce_fig2_csv_structure(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "reproduce", "fig2"]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(tmp_path / "fig2_bound_states.csv", delimiter=",", names=True)
    e1 = rows["e1"]
    inside = (e1 > 18.0) & (e1 < 22.0)
    both = ~np.isnan(rows["bound_below"]) & ~np.isnan(rows["bound_above"])
    one = np.isnan(rows["bound_below"]) ^ np.isnan(rows["bound_above"])
    strictly_outside = (e1 < 18.0 - 0.05) | (e1 > 22.0 + 0.05)
    assert np.all(both[inside])
    assert np.all(one[strictly_outside])
    summary = json.loads((tmp_path / "fig2_summary.json").read_text())
    assert summary["count_inside"] == [2]


def test_qbsim_out_env_var(tmp_path, capsys, monkeypatch, fig3a_params):
    from qbsim.presets import ScenarioConfig
    cfg = ScenarioConfig(params=fig3a_params.replace(n_cavities=21),
                         model="analytic", photon_site=0, t_max=2.0, dt=0.1,
                         unit="xi", label="envtest")
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    monkeypatch.setenv("QBSIM_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "envtest_series.csv").exists()


def test_lindblad_matches_non_hermitian_at_full_size(fig3a_params):
    # Full reference scenario (N = 253): the master equation tracks the
    # non-Hermitian curve within 0.03 absolute over [0, 30] (it is in fact
    # identical up to integrator error).
    p = fig3a_params
    psi0 = initial_state_photon_at_site(0, p, "full", "site")
    t_grid = np.linspace(0.0, 30.0, 601)
    nh = evolve(psi0, t_grid, p)
    lb = lindblad_evolve(initial_density_matrix(psi0, p), t_grid, p)
    assert np.max(np.abs(lb.p_dark - nh.p_dark)) <= 0.03
    assert np.max(np.abs(lb.p_dark - nh.p_dark)) <= 1e-6
