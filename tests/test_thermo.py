import ctypes
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsim import SystemParams, atom_eigensystem_exact, dark_state_vector, spectral, thermo
from qbsim.dynamics import WaveFunction, evolve, initial_state_photon_at_site
from qbsim.errors import NoConvergence, NotNormalizable, QbsimError
from qbsim.model import dark_state_energy
from qbsim.presets import preset
from qbsim.thermo import (
    BatteryState,
    ChargingScenario,
    _battery_rho,
    _excited_work,
    _work,
    battery_hamiltonian,
    ergotropy,
    ergotropy_trace,
    passive_state,
    reduce_battery,
    sweep_ergotropy,
)


@pytest.fixture
def charger_params():
    """Omega_c-unit charging scenario (moderate size for speed)."""
    return SystemParams.with_dark_coupling(
        g=2.05, omega0=21.196, xi=1.0, n_cavities=53,
        omega_p_rabi=10.0, omega_c_rabi=1.0, omega_d_real=21.2,
        kappa=4.0, omega_e_level=30.0, omega_m_level=21.2, delta_e=30.0)


def random_battery_state(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return BatteryState(rho / np.trace(rho).real)


def random_hamiltonian(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return a + a.conj().T


class TestChargingScenarioInitialState:
    # One rule for scenarios and the CLI: the effective model starts in mode
    # space, the full model in site space, the atom in |m> without a photon.
    def test_photon_site(self, charger_params):
        p = charger_params
        n = p.n_cavities
        eff = ChargingScenario(p, photon_site=1).initial_state()
        assert (eff.model, eff.representation) == ("effective", "mode")
        assert np.array_equal(eff.atom, [0.0])
        assert np.allclose(eff.photon, np.exp(-1j * p.mode_wavenumbers()) / math.sqrt(n))
        full = ChargingScenario(p, photon_site=1, model="full").initial_state()
        assert (full.model, full.representation) == ("full", "site")
        assert np.array_equal(full.atom, [0.0, 0.0, 0.0])
        assert np.array_equal(full.photon, np.eye(n)[1])

    def test_atom_in_m(self, charger_params):
        p = charger_params
        eff = ChargingScenario(p, photon_site=None).initial_state()
        assert (eff.model, eff.representation) == ("effective", "mode")
        assert eff.atom[0] == pytest.approx(np.conj(dark_state_vector(p)[2]))
        assert not eff.photon.any()
        full = ChargingScenario(p, photon_site=None, model="full").initial_state()
        assert (full.model, full.representation) == ("full", "site")
        assert np.array_equal(full.atom, [0.0, 0.0, 1.0])
        assert not full.photon.any()


class TestReduceBattery:
    def test_empty_atom_is_ground(self, charger_params):
        psi = initial_state_photon_at_site(0, charger_params, "effective", "mode")
        rho = reduce_battery(psi, charger_params)
        assert rho.rho[0, 0] == pytest.approx(1.0)
        assert np.allclose(rho.rho[1:, 1:], 0.0)

    def test_full_dark_state(self, charger_params):
        p = charger_params
        psi = WaveFunction(np.array([1.0 + 0j]), np.zeros(p.n_cavities, dtype=complex),
                           "mode", "effective")
        rho = reduce_battery(psi, p)
        dark = dark_state_vector(p)
        proj = np.outer(dark, dark.conj())
        assert np.allclose(rho.rho[1:, 1:], proj)
        assert rho.rho[2, 2] == pytest.approx(0.0, abs=1e-14)  # no |e> weight

    def test_matches_brute_force_partial_trace(self, charger_params):
        # Entangled single-excitation ansatz embedded in the product space
        # atom (x) cavity-Fock, traced over the cavity by hand.
        p = charger_params.replace(n_cavities=7)
        n = p.n_cavities
        rng = np.random.default_rng(2)
        u = rng.normal() + 1j * rng.normal()
        beta = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec = np.concatenate([[u], beta])
        vec /= np.linalg.norm(vec)
        psi = WaveFunction(vec[:1], vec[1:], "site", "effective")

        dark = dark_state_vector(p)
        # product basis: (g,d,e,m) x (vac, 1_0 .. 1_{n-1})
        big = np.zeros(4 * (n + 1), dtype=complex)
        for a in range(3):
            big[(1 + a) * (n + 1) + 0] = vec[0] * dark[a]
        for j in range(n):
            big[0 * (n + 1) + 1 + j] = vec[1 + j]
        full = np.outer(big, big.conj()).reshape(4, n + 1, 4, n + 1)
        expected = np.trace(full, axis1=1, axis2=3)

        rho = reduce_battery(psi, p)
        assert np.max(np.abs(rho.rho - expected)) < 1e-12
        # no coherence between the ground block and the excited block
        assert np.max(np.abs(rho.rho[0, 1:])) < 1e-14

    def test_rejects_non_finite_state(self):
        # A NaN d amplitude used to give trace NaN, and ergotropy then failed inside eigh.
        p = preset("fig5").params
        for bad in (np.nan, np.inf):
            psi = initial_state_photon_at_site(1, p, "full", "site")
            psi.atom[0] = bad
            with pytest.raises(NotNormalizable, match="atom amplitudes are not finite"):
                reduce_battery(psi, p)


class TestPassiveAndErgotropy:
    def test_passive_state_unchanged(self, charger_params):
        h = battery_hamiltonian(charger_params)
        eps, vecs = np.linalg.eigh(h)
        weights = np.array([0.5, 0.3, 0.15, 0.05])  # descending on ascending energies
        rho = BatteryState((vecs * weights) @ vecs.conj().T)
        rho2 = passive_state(rho, h)
        assert np.max(np.abs(rho2.rho - rho.rho)) < 1e-12
        assert ergotropy(rho, h) <= 1e-10

    def test_pure_excited_moves_to_ground(self, charger_params):
        h = battery_hamiltonian(charger_params)
        eps, vecs = np.linalg.eigh(h)
        top = vecs[:, -1]
        rho = BatteryState(np.outer(top, top.conj()))
        passive = passive_state(rho, h)
        ground = vecs[:, 0]
        assert np.max(np.abs(passive.rho - np.outer(ground, ground.conj()))) < 1e-12

    def test_two_level_population_swap(self):
        h = np.diag([0.0, 2.5, 10.0, 20.0])
        rho = BatteryState(np.diag([0.4, 0.6, 0.0, 0.0]).astype(complex))
        passive = passive_state(rho, h)
        assert np.allclose(np.diag(passive.rho).real, [0.6, 0.4, 0.0, 0.0])
        assert ergotropy(rho, h) == pytest.approx(0.2 * 2.5)

    def test_pure_dark_state_ergotropy(self):
        # omega_2 = 0, kappa = 0 makes the dark vector an exact eigenvector
        # with eigenvalue omega_d_real, so W = E1 for the pure dark state.
        p = SystemParams.with_dark_coupling(
            g=0.5, omega0=20.0, xi=1.0, n_cavities=21,
            omega_p_rabi=10.0, omega_c_rabi=1.0, omega_d_real=21.2,
            kappa=0.0, omega_e_level=30.0, omega_m_level=21.2, delta_e=30.0)
        h = battery_hamiltonian(p)
        dark = dark_state_vector(p)
        rho = np.zeros((4, 4), dtype=complex)
        rho[1:, 1:] = np.outer(dark, dark.conj())
        assert ergotropy(BatteryState(rho), h) == pytest.approx(21.2, rel=1e-12)

    def test_nonnegative_and_passive_fixed_point_1000_states(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rho = random_battery_state(rng)
            h = random_hamiltonian(rng)
            w = ergotropy(rho, h)
            assert w >= -1e-10
            assert ergotropy(passive_state(rho, h), h) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unitary_invariance_of_passive_state(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_battery_state(rng)
        h = random_hamiltonian(rng)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rotated = BatteryState(q @ rho.rho @ q.conj().T)
        p1 = passive_state(rho, h)
        p2 = passive_state(rotated, h)
        assert np.max(np.abs(p1.rho - p2.rho)) < 1e-9


class TestErgotropyTrace:
    def test_no_coupling_no_charging(self, charger_params):
        p = charger_params.replace(g1=0.0, g2=0.0)
        trace = ergotropy_trace(ChargingScenario(params=p, photon_site=1),
                                np.linspace(0, 5, 101))
        assert np.max(np.abs(trace.work)) <= 1e-10
        assert trace.power[0] == 0.0

    def test_work_bounded_by_dark_energy(self, charger_params):
        trace = ergotropy_trace(ChargingScenario(params=charger_params, photon_site=1),
                                np.linspace(0, 15, 301))
        re_e1 = atom_eigensystem_exact(charger_params).dark_energy.real
        assert trace.w_max <= re_e1
        assert trace.w_max > 0.1  # the scenario does charge

    def test_onset_delay(self, charger_params):
        # Photon injected next door: no extractable work before any
        # amplitude has hopped across (within integrator resolution).
        trace = ergotropy_trace(ChargingScenario(params=charger_params, photon_site=1),
                                np.linspace(0, 15, 601))
        assert trace.work[1] <= 1e-4 * trace.w_max

    @pytest.mark.parametrize("model", ["effective", "full"])
    def test_batched_work_matches_per_sample(self, charger_params, model):
        scenario = ChargingScenario(params=charger_params, photon_site=1, model=model)
        t_grid = np.linspace(0, 3, 31)
        trace = ergotropy_trace(scenario, t_grid)
        series = evolve(scenario.initial_state(), t_grid, charger_params)
        h_b = battery_hamiltonian(charger_params)
        per_sample = [
            ergotropy(reduce_battery(WaveFunction(amps, np.zeros(0), "site", model), charger_params), h_b)
            for amps in series.atom_amps
        ]
        assert np.max(np.abs(trace.work - per_sample)) <= 1e-13
        assert trace.w_max > 0.01  # the window charges

    @pytest.mark.parametrize("model, n", [
        pytest.param(model, n, id=str(n) if model == "effective" else f"{model}-{n}")
        for model in ("effective", "full") for n in (21, 253, 1001)])
    def test_closed_form_work_matches_eigvalsh(self, model, n):
        # W(t) in closed form against the stacked 4 x 4 eigvalsh.
        base = preset("fig5").params.replace(n_cavities=n)
        for omega0, xi, kappa in ((19.2, 0.7, base.kappa), (23.2, 1.7, 0.0)):
            p = base.replace(omega0=omega0, xi=xi, kappa=kappa)
            scenario = ChargingScenario(params=p, photon_site=1, model=model)
            t_grid = np.linspace(0.0, 15.0, 301)
            trace = ergotropy_trace(scenario, t_grid)
            series = evolve(scenario.initial_state(), t_grid, p)
            h_b = battery_hamiltonian(p)
            reference = _work(_battery_rho(series.atom_amps, p, model), h_b, np.linalg.eigvalsh(h_b))
            assert np.max(np.abs(trace.work - reference)) <= 1e-13 * max(1.0, np.max(np.abs(reference)))

    def test_closed_form_work_rejects_non_finite_state(self, charger_params):
        h_b = battery_hamiltonian(charger_params)
        with pytest.raises(NotNormalizable):
            _excited_work(np.array([[0.5, 0.0, 0.0], [np.nan, 0.0, 0.0]]), h_b)

    def test_power_definition(self, charger_params):
        trace = ergotropy_trace(ChargingScenario(params=charger_params, photon_site=1),
                                np.linspace(0, 10, 201))
        assert trace.power[0] == 0.0
        k = 50
        assert trace.power[k] == pytest.approx(trace.work[k] / trace.times[k])


class TestSweep:
    def test_single_cell_matches_trace(self, charger_params):
        res = sweep_ergotropy([charger_params.omega0], [1.3], charger_params,
                              t_max=8.0, nt=161, n_workers=1)
        direct = ergotropy_trace(
            ChargingScenario(params=charger_params.replace(xi=1.3), photon_site=1),
            np.linspace(0, 8.0, 161))
        assert res.w_max.shape == (1, 1)
        assert res.w_max[0, 0] == pytest.approx(direct.w_max, rel=1e-12)

    def test_failed_cell_recorded_not_raised(self, charger_params):
        res = sweep_ergotropy([charger_params.omega0], [-1.0, 1.3], charger_params,
                              t_max=4.0, nt=81, n_workers=1)
        assert np.isnan(res.w_max[0, 0])
        assert np.isfinite(res.w_max[0, 1])
        assert (0, 0) in res.errors

    def test_unstable_step_recorded_not_raised(self, charger_params, monkeypatch):
        # An E1 with gain makes the norm grow at kappa > 0; evolve finds it from the atom
        # block before propagating, and each cell of the chunk, which crosses a xi column,
        # records the error.
        monkeypatch.setattr("qbsim.model.dark_state_energy", lambda params: dark_state_energy(params).conjugate())
        res = sweep_ergotropy([21.2, 22.2], [1.0, 2.2], charger_params, t_max=15.0, nt=4, n_workers=1)
        assert np.all(np.isnan(res.w_max))
        assert sorted(res.errors) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(err.startswith("the atom block has gain: norm^2 may grow") for err in res.errors.values())


def _sweep_logged(caplog, *args, **kwargs):
    """``sweep_ergotropy`` at one worker, and the path field of each chunk's DEBUG line."""
    caplog.set_level("DEBUG", logger="qbsim.thermo")
    caplog.clear()
    res = sweep_ergotropy(*args, n_workers=1, **kwargs)
    return res, [r.getMessage().split("; ")[1] for r in caplog.records if r.name == "qbsim.thermo"]


def _assert_cells_match_trace(res, params, t_max, nt, photon_site=1, tol=1e-12) -> float:
    """Every cell's W_max against ``ergotropy_trace`` within ``tol`` (NaN where it raised); the worst gap."""
    worst = 0.0
    for (i, omega0), (j, xi) in itertools.product(enumerate(res.omega0_grid), enumerate(res.xi_grid)):
        try:
            ref = ergotropy_trace(ChargingScenario(params.replace(omega0=omega0, xi=xi), photon_site),
                                  np.linspace(0.0, t_max, nt)).w_max
        except QbsimError:
            assert np.isnan(res.w_max[i, j]) and (i, j) in res.errors
            continue
        worst = max(worst, abs(res.w_max[i, j] - ref))
    assert worst <= tol
    return worst


class TestSweepChunks:
    # The chunk path against the per-cell reference, ergotropy_trace -> evolve.

    @pytest.mark.parametrize("kappa", [4.0, 0.0], ids=["complex-E1", "real-E1"])
    def test_batched_roots_equal_per_cell_roots(self, kappa):
        # A chunk that crosses two xi columns: the last 8 cells of one and the first 8 of the next.
        # Their Newton takes different step counts, so a row that went on updating after its
        # roots stopped moving would differ in its last bits.
        cfg = preset("fig5")
        p = cfg.params.replace(kappa=kappa)
        e1 = dark_state_energy(p)
        omega0 = np.r_[cfg.sweep_omega0[-8:], cfg.sweep_omega0[:8]]
        xi = np.repeat(cfg.sweep_xi[10:12], 8)
        batched = spectral.interior_roots(omega0, xi, e1, p.g, p.n_cavities)
        for row, om, x in zip(batched, omega0, xi):
            assert np.array_equal(row, spectral.even_sector_roots(p.replace(omega0=om, xi=x), e1)[1:-1])

    @pytest.mark.parametrize("n, photon_site", [(21, 1), (253, 1), (1001, 1), (253, None)],
                             ids=["21", "253", "1001", "253-atom"])
    def test_w_max_matches_ergotropy_trace(self, n, photon_site, caplog):
        # omega0 on both sides of Re E1 (21.2), in one chunk across two xi columns.
        p = preset("fig5").params.replace(n_cavities=n)
        omega0 = [19.2, 20.7, 21.7, 23.2]
        assert min(omega0) < dark_state_energy(p).real < max(omega0)
        res, paths = _sweep_logged(caplog, omega0, [0.7, 1.7], p, t_max=15.0, nt=301, photon_site=photon_site)
        assert paths == ["8 eigenbasis"] and not res.errors
        worst = _assert_cells_match_trace(res, p, 15.0, 301, photon_site)
        print(f"N = {n}, photon site {photon_site}: worst |W_max - ergotropy_trace| {worst:.3g}")

    def test_batch_no_convergence_falls_back_per_cell(self, caplog):
        # At g = 0.2 the phase Newton of the cell (21.2, 3.0) alone fails (|Im E1| >> g^2/xi):
        # the chunk's batched Newton raises, and every cell runs through ergotropy_trace.
        base = preset("fig5").params
        p = base.replace(g1=0.2 * base.g1 / base.g, g2=0.2 * base.g2 / base.g)
        e1 = dark_state_energy(p)
        omega0, xi = [20.2, 21.2, 22.2], [1.0, 3.0]
        failing = []
        for om, x in itertools.product(omega0, xi):
            try:
                spectral.interior_roots([om], [x], e1, p.g, p.n_cavities)
            except NoConvergence:
                failing.append((om, x))
        assert failing == [(21.2, 3.0)]
        res, (path,) = _sweep_logged(caplog, omega0, xi, p, t_max=15.0, nt=301)
        assert path.startswith("6 evolve (root search failed in region 'in_band': phase equation")
        assert not res.errors
        _assert_cells_match_trace(res, p, 15.0, 301)

    @pytest.mark.parametrize("guard, expected", [("gap", "1 dense (roots 0 apart)"),
                                                 ("sum_rules", "1 dense (sum rules off by ")],
                             ids=["gap", "sum_rules"])
    def test_failed_guard_falls_back_alone(self, charger_params, monkeypatch, caplog, guard, expected):
        # Spoil the roots of the cell (21.2, 1.7) only, for the chunk path and ergotropy_trace alike:
        # a repeated root trips the root gap, shifted roots the sum rules.
        roots = spectral.even_sector_roots

        def spoiled(params, e1, interior=None):
            lam = roots(params, e1, interior)
            if (params.omega0, params.xi) == (21.2, 1.7):
                if guard == "gap":
                    lam[2] = lam[1]
                else:
                    lam = lam + 1e-9
            return lam

        monkeypatch.setattr(spectral, "even_sector_roots", spoiled)
        res, (path,) = _sweep_logged(caplog, [20.2, 21.2, 22.2], [0.7, 1.7], charger_params, t_max=15.0, nt=301)
        assert "5 eigenbasis" in path and expected in path
        assert not res.errors
        _assert_cells_match_trace(res, charger_params, 15.0, 301)

    def test_raising_cell_mid_chunk(self, charger_params, caplog):
        # The xi < 0 column sits between two valid ones in the chunk's (xi, omega0) order.
        res, (path,) = _sweep_logged(caplog, [20.2, 21.2, 22.2], [1.0, -1.0, 1.3], charger_params,
                                     t_max=15.0, nt=301)
        assert path == "3 failed, 6 eigenbasis"
        assert np.all(np.isnan(res.w_max[:, 1])) and np.all(np.isfinite(res.w_max[:, [0, 2]]))
        assert sorted(res.errors) == [(0, 1), (1, 1), (2, 1)]
        assert all(err == "xi: must be > 0, got -1.0" for err in res.errors.values())
        _assert_cells_match_trace(res, charger_params, 15.0, 301)

    def test_chunk_debug_line(self, charger_params, caplog):
        caplog.set_level("DEBUG", logger="qbsim.thermo")
        sweep_ergotropy([20.2, 21.2, 22.2], [1.0, 1.3], charger_params, t_max=15.0, nt=301, n_workers=1)
        (record,) = caplog.records
        assert re.fullmatch(r"sweep chunk: 6 cells; 6 eigenbasis; roots \d\.\d{4} s, samples \d\.\d{4} s, "
                            r"evolve \d\.\d{4} s", record.getMessage())

    def test_uncoupled_chunk_runs_through_evolve(self, charger_params, caplog):
        # At g = 0 there are no roots to batch: evolve takes each cell on the atom block's eigenbasis.
        p = charger_params.replace(g1=0.0, g2=0.0)
        res, paths = _sweep_logged(caplog, [20.2, 21.2], [1.0, 1.3], p, t_max=15.0, nt=301)
        assert paths == ["4 evolve (g = 0)"] and not res.errors
        _assert_cells_match_trace(res, p, 15.0, 301)

    def test_one_chunk_starts_no_pool(self, charger_params, monkeypatch):
        monkeypatch.setattr(thermo, "ProcessPoolExecutor", None)
        res = sweep_ergotropy(np.linspace(20.2, 22.2, 8), [1.0, 1.3], charger_params, t_max=2.0, nt=41,
                              n_workers=2)
        assert np.all(np.isfinite(res.w_max))

    def test_cells_go_in_chunks(self, charger_params, caplog):
        # 2 x 9 cells in chunks of SWEEP_CHUNK, in (xi, omega0) order: the first chunk crosses the column.
        res, paths = _sweep_logged(caplog, np.linspace(20.2, 22.2, 9), [1.0, 1.3], charger_params,
                                   t_max=2.0, nt=41)
        assert thermo.SWEEP_CHUNK == 16 and paths == ["16 eigenbasis", "2 eigenbasis"]
        assert np.all(np.isfinite(res.w_max))


class TestSweepRelations:
    # ROADMAP item 17's relations on the chunk path, at 1e-12 relative.

    def test_scaling(self, caplog):
        # Every energy and rate times a, and t_max / a: W_max times a, on the same paths.
        a = 3.7
        p = preset("fig5").params
        energies = ("omega0", "xi", "g1", "g2", "omega_p_rabi", "omega_c_rabi", "omega_d_real", "kappa",
                    "omega_e_level", "omega_m_level", "delta_e")
        scaled = p.replace(**{name: a * getattr(p, name) for name in energies})
        omega0, xi = np.array([19.2, 21.2, 23.2]), np.array([0.7, 1.7])
        res, paths = _sweep_logged(caplog, omega0, xi, p, t_max=15.0, nt=301)
        res_a, paths_a = _sweep_logged(caplog, a * omega0, a * xi, scaled, t_max=15.0 / a, nt=301)
        worst = np.max(np.abs(res_a.w_max / (a * res.w_max) - 1.0))
        print(f"scaling by {a}: worst relative deviation of W_max {worst:.3g}")
        assert worst <= 1e-12 and paths == paths_a == ["6 eigenbasis"]

    def test_ring_reflection(self):
        # A photon at site 1 and one at site N - 1 give the same W_max.
        p = preset("fig5").params
        grids = ([19.2, 21.2, 23.2], [0.7, 1.7])
        near = sweep_ergotropy(*grids, p, t_max=15.0, nt=301, photon_site=1, n_workers=1)
        far = sweep_ergotropy(*grids, p, t_max=15.0, nt=301, photon_site=p.n_cavities - 1, n_workers=1)
        worst = np.max(np.abs(far.w_max / near.w_max - 1.0))
        print(f"ring reflection: worst relative deviation of W_max {worst:.3g}")
        assert worst <= 1e-12


def _openblas_thread_counts() -> list[int]:
    """Threads reported by each loaded OpenBLAS bundled with numpy or scipy."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    counts = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts.append(getter())
    return counts


# Run in a fresh interpreter with OpenBLAS at 2 threads: forked workers inherit the parent's count,
# and in the suite's own process it is already 1.  The stub in place of _sweep_chunk, the function
# each worker runs, reports the thread count of the worker that runs a chunk as its cells' W_max;
# the 20 cells make 3 chunks, so the pool starts.
_WORKER_THREADS_SCRIPT = """
import json
from qbsim import thermo
from qbsim.presets import preset
from test_thermo import _openblas_thread_counts

def chunk_threads(task):
    threads = max(_openblas_thread_counts(), default=0)
    return [(i, j, threads, "") for i, j, *_ in task[0]]

parent = _openblas_thread_counts()
thermo._sweep_chunk = chunk_threads
cfg = preset("fig5")
res = thermo.sweep_ergotropy(cfg.sweep_omega0[:20], [1.0], cfg.params, t_max=1.0, nt=2, n_workers=2)
print(json.dumps([parent, sorted(set(res.w_max.ravel().tolist())), res.errors == {}]))
"""


def test_sweep_workers_use_one_blas_thread():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _WORKER_THREADS_SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}, timeout=120)
    assert done.returncode == 0, done.stderr
    parent, workers, no_errors = json.loads(done.stdout)
    if not parent:
        pytest.skip("no OpenBLAS thread-count symbol found")
    if set(parent) != {2}:
        pytest.skip(f"OpenBLAS would not start 2 threads here: {parent}")
    assert no_errors and workers == [1]
