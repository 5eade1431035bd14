import math
import tracemalloc

import numpy as np
import pytest

from qbsim import atom_eigensystem_exact, dynamics, effective_hamiltonian, spectral
from qbsim.dynamics import (
    dark_population,
    evolve,
    initial_state,
    initial_state_atom_m,
    initial_state_photon_at_site,
)
from qbsim.presets import preset
from qbsim.errors import IndexOutOfRange, OutOfRange, StepSizeTooLarge
from conftest import random_params


class TestInitialStates:
    def test_photon_site0_mode_amplitudes(self, fig3a_params):
        psi = initial_state_photon_at_site(0, fig3a_params, "effective", "mode")
        n = fig3a_params.n_cavities
        assert np.allclose(psi.photon, 1.0 / math.sqrt(n))
        assert psi.norm2 == pytest.approx(1.0)

    def test_photon_site1_fourier_phases(self, fig3a_params):
        psi = initial_state_photon_at_site(1, fig3a_params, "effective", "mode")
        k = fig3a_params.mode_wavenumbers()
        n = fig3a_params.n_cavities
        assert np.allclose(psi.photon, np.exp(-1j * k) / math.sqrt(n))

    def test_site_mode_round_trip(self, fig3a_params):
        psi = initial_state_photon_at_site(3, fig3a_params, "effective", "site")
        back = psi.to_representation("mode", fig3a_params).to_representation("site", fig3a_params)
        assert np.allclose(back.photon, psi.photon)
        mode = psi.to_representation("mode", fig3a_params)
        direct = initial_state_photon_at_site(3, fig3a_params, "effective", "mode")
        assert np.allclose(mode.photon, direct.photon)

    @pytest.mark.parametrize("n", [3, 21, 253])
    def test_fft_matches_dense_fourier_map(self, fig3a_params, n):
        # Oracle: the dense map beta_j = sum_k e^{ikj} beta_k / sqrt(N) and its inverse.
        p = fig3a_params.replace(n_cavities=n)
        photon = np.array([1.0, 1j]) @ np.random.default_rng(n).normal(size=(2, n))
        dense = np.exp(1j * np.outer(p.mode_wavenumbers(), np.arange(n))) / math.sqrt(n)
        for source, target, matrix in (("mode", "site", dense.T), ("site", "mode", dense.conj())):
            psi = dynamics.WaveFunction(np.ones(1, dtype=complex), photon, source, "effective")
            assert np.max(np.abs(psi.to_representation(target, p).photon - matrix @ photon)) <= 1e-12

    def test_index_out_of_range(self, fig3a_params):
        with pytest.raises(IndexOutOfRange):
            initial_state_photon_at_site(253, fig3a_params)

    def test_atom_m_effective_overlap(self, fig3a_params):
        psi = initial_state_atom_m(fig3a_params, "effective")
        op, oc = fig3a_params.omega_p_rabi, fig3a_params.omega_c_rabi
        assert abs(psi.atom[0]) == pytest.approx(op / math.hypot(op, oc))
        assert abs(psi.atom[0]) == pytest.approx(0.9950, abs=1e-4)

    def test_atom_m_symmetric_drive(self, fig3a_params):
        p = fig3a_params.replace(omega_p_rabi=2.0, omega_c_rabi=2.0,
                                 g1=-0.3 / math.sqrt(2), g2=0.3 / math.sqrt(2))
        psi = initial_state_atom_m(p, "effective")
        assert abs(psi.atom[0]) == pytest.approx(1.0 / math.sqrt(2))

    def test_atom_m_full_norm(self, fig3a_params):
        psi = initial_state_atom_m(fig3a_params, "full")
        assert psi.norm2 == pytest.approx(1.0)
        assert psi.atom[2] == 1.0


class TestEvolve:
    def test_decoupled_atom_constant(self, fig3a_params):
        p = fig3a_params.replace(kappa=0.0, g1=0.0, g2=0.0)
        psi0 = initial_state_atom_m(p, "effective")
        series = evolve(psi0, np.linspace(0, 5, 101), p)
        assert np.allclose(series.p_dark, series.p_dark[0], atol=1e-10)

    def test_matches_diagonalization_oracle(self, fig3a_params):
        p = fig3a_params
        e1 = atom_eigensystem_exact(p).dark_energy
        psi0 = initial_state_photon_at_site(0, p, "effective", "mode")
        t_grid = np.linspace(0, 10, 401)
        series = evolve(psi0, t_grid, p, e1=e1)
        h = effective_hamiltonian(p, "mode", e1=e1)
        vals, vecs = np.linalg.eig(h)
        c0 = np.linalg.solve(vecs, np.concatenate([psi0.atom, psi0.photon]))
        rng = np.random.default_rng(5)
        for idx in rng.integers(0, len(t_grid), 10):
            psi_t = vecs @ (np.exp(-1j * vals * t_grid[idx]) * c0)
            assert abs(abs(psi_t[0]) ** 2 - series.p_dark[idx]) < 1e-6

    def test_norm_conserved_kappa_zero(self, fig3a_params):
        p = fig3a_params.replace(kappa=0.0)
        series = evolve(initial_state_photon_at_site(0, p, "effective", "mode"),
                        np.linspace(0, 100, 2001), p)
        assert np.max(np.abs(series.norm2 - 1.0)) <= 1e-8

    @pytest.mark.parametrize("model, bound", [("effective", 1e-12), ("full", 1e-8)])
    def test_norm_drift_on_criterion_9_grid(self, fig3a_params, model, bound):
        # Criterion 9's grid: the effective model's exact exponentials keep the norm to
        # rounding, and the full model's dense kernel to its Taylor truncation and rounding.
        p = fig3a_params.replace(kappa=0.0)
        series = evolve(initial_state_photon_at_site(0, p, model, "site"), np.linspace(0, 100, 2001), p)
        assert np.max(np.abs(series.norm2 - 1.0)) <= bound

    @pytest.mark.parametrize("representation", ["mode", "site"])
    def test_norm2_counts_the_odd_sector(self, fig3a_params, representation):
        # About half of a photon at site 5 is parity-odd, advanced outside the propagated block.
        p = fig3a_params.replace(kappa=0.0)
        series = evolve(initial_state_photon_at_site(5, p, "effective", representation),
                        np.linspace(0, 20, 201), p)
        assert np.max(np.abs(series.norm2 - 1.0)) <= 1e-8
        assert abs(series.final_state.norm2 - series.norm2[-1]) <= 1e-12

    def test_unknown_representation_rejected_before_propagating(self, fig3a_params, monkeypatch):
        psi = initial_state_photon_at_site(0, fig3a_params, "effective", "mode")
        psi.representation = "momentum"
        monkeypatch.setattr(dynamics._kernels, "rk4_schrodinger", None)
        with pytest.raises(ValueError, match="unknown representation"):
            evolve(psi, np.linspace(0, 1, 11), fig3a_params)

    def test_norm_monotone_kappa_positive(self, fig3a_params):
        series = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                        np.linspace(0, 30, 601), fig3a_params)
        assert np.all(np.diff(series.norm2) <= 1e-12)

    def test_site_mode_representation_equivalence(self, fig3a_params):
        t_grid = np.linspace(0, 20, 401)
        site = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "site"),
                      t_grid, fig3a_params)
        mode = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                      t_grid, fig3a_params)
        assert np.max(np.abs(site.p_dark - mode.p_dark)) <= 1e-8
        site_final = site.final_state.to_representation("mode", fig3a_params)
        assert np.max(np.abs(site_final.atom - mode.final_state.atom)) <= 1e-12
        assert np.max(np.abs(site_final.photon - mode.final_state.photon)) <= 1e-12

    def test_effective_full_agreement(self, fig3a_params):
        t_grid = np.linspace(0, 50, 1001)
        eff = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                     t_grid, fig3a_params)
        full = evolve(initial_state_photon_at_site(0, fig3a_params, "full", "mode"),
                      t_grid, fig3a_params)
        assert np.max(np.abs(eff.p_dark - full.p_dark)) <= 0.02

    def test_debug_log_names_the_steps(self, fig3a_params, caplog):
        caplog.set_level("DEBUG", logger="qbsim.dynamics")
        evolve(initial_state_photon_at_site(0, fig3a_params, "full", "site"),
               np.linspace(0, 1, 11), fig3a_params)
        (record,) = caplog.records
        assert record.name == "qbsim.dynamics"
        # The full model runs on the dense kernel: no roots, and the matrix build as its own stage.
        assert record.getMessage().startswith("evolve full/site: dim 256, n_sub ")
        assert " Taylor steps; matrix " in record.getMessage() and "roots" not in record.getMessage()
        assert record.getMessage().endswith(" s; dense (full model); even dim 130")


def _evolve_on(path, psi0, t_grid, params, monkeypatch, caplog):
    """``evolve``, forced onto the dense kernel for path "dense"; returns it and the path it logged."""
    caplog.set_level("DEBUG", logger="qbsim.dynamics")
    caplog.clear()
    with monkeypatch.context() as m:
        if path == "dense":
            for name in ("_even_eigenbasis", "_atom_eigenbasis"):
                m.setattr(dynamics, name, lambda *args: (None, "dense (reference)"))
        series = evolve(psi0, t_grid, params)
    (record,) = [r for r in caplog.records if r.name == "qbsim.dynamics"]
    return series, record.getMessage().split("; ")[-2]


def _assert_close(fast, ref, tol=1e-12, norm_tol=1e-12):
    """Atom amplitudes and final states within ``tol``, norm^2 within ``norm_tol``."""
    final = [np.concatenate([s.final_state.atom, s.final_state.photon]) for s in (fast, ref)]
    assert np.max(np.abs(fast.atom_amps - ref.atom_amps)) <= tol
    assert np.max(np.abs(fast.norm2 - ref.norm2)) <= norm_tol
    assert np.max(np.abs(final[0] - final[1])) <= tol


def _assert_matches_dense(psi0, t_grid, params, monkeypatch, caplog) -> str:
    """The default path against the dense kernel at the eigenbasis bounds; returns the path taken."""
    fast, path = _evolve_on("default", psi0, t_grid, params, monkeypatch, caplog)
    ref, _ = _evolve_on("dense", psi0, t_grid, params, monkeypatch, caplog)
    _assert_close(fast, ref, norm_tol=1e-11)
    return path


def _with_coupling(params, g):
    return params.replace(g1=params.g1 * g / params.g, g2=params.g2 * g / params.g)


class TestEigenbasisPath:
    # The dense kernel applies one rounded step matrix per sample, so its error
    # grows linearly with the sample count: over the whole fig3b window (2001
    # samples) its norm^2 is 3.7e-11 from an extended-precision run of the same
    # RK4 map, the eigenbasis 2.9e-13.  So the presets are compared over the
    # first 301 samples of their own grid, as long as fig5's whole window.

    @pytest.mark.parametrize("kappa_zero", [False, True], ids=["kappa", "kappa0"])
    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7"])
    def test_presets_match_dense_kernel(self, name, kappa_zero, monkeypatch, caplog):
        cfg = preset(name)
        p = cfg.params.replace(kappa=0.0) if kappa_zero else cfg.params
        nt = min(int(round(cfg.t_max / cfg.dt)) + 1, 301)
        t_grid = np.linspace(0.0, (nt - 1) * cfg.dt, nt)
        n = p.n_cavities
        starts = [initial_state(p, "effective", cfg.photon_site)] + [
            initial_state_photon_at_site(site, p, "effective", "mode") for site in (1, 5, n - 2)]
        for psi0 in starts:
            assert _assert_matches_dense(psi0, t_grid, p, monkeypatch, caplog) == "eigenbasis"

    @pytest.mark.parametrize("n", [21, 253, 1001])
    def test_fig5_cells_match_dense_kernel(self, n, monkeypatch, caplog):
        # Re E1 = 21.196 lies above omega0 in the first cell and below it in the
        # second; N = 1001 takes one kappa per cell, to keep the dense runs short.
        base = preset("fig5").params.replace(n_cavities=n)
        cells = [(19.2, 0.7, base.kappa), (23.2, 1.7, 0.0)]
        if n < 1001:
            cells += [(19.2, 0.7, 0.0), (23.2, 1.7, base.kappa)]
        for omega0, xi, kappa in cells:
            p = base.replace(omega0=omega0, xi=xi, kappa=kappa)
            for site in (1, 5, n - 2):
                psi0 = initial_state_photon_at_site(site, p, "effective", "mode")
                path = _assert_matches_dense(psi0, np.linspace(0.0, 15.0, 301), p, monkeypatch, caplog)
                assert path == "eigenbasis"

    @pytest.mark.parametrize("kappa_zero", [False, True], ids=["kappa", "kappa0"])
    @pytest.mark.parametrize("g", [1e-2, 1e-3])
    def test_weak_coupling(self, fig3a_params, g, kappa_zero, monkeypatch, caplog):
        # At kappa = 0 the nearest-mode distances from the secular equation keep
        # the expansion's digits.  With |Im E1| >> g^2/xi the phase equation's
        # arctan crosses its branch cut and Newton fails: the dense kernel runs.
        p = _with_coupling(fig3a_params.replace(kappa=0.0) if kappa_zero else fig3a_params, g)
        for site in (1, 5):
            psi0 = initial_state_photon_at_site(site, p, "effective", "mode")
            path = _assert_matches_dense(psi0, np.linspace(0.0, 20.0, 401), p, monkeypatch, caplog)
            if kappa_zero:
                assert path == "eigenbasis"
            else:
                assert path.startswith("dense (root search failed in region 'in_band'")

    def test_repeated_root_that_is_not_a_neighbour_falls_back(self, monkeypatch, caplog):
        # random_params(default_rng(3)), draw 25: N = 7, g = 0.996, E1 = 33.597 - 1.362i.
        # even_sector_roots returns one root at positions 2 and 4, and misses another;
        # neighbours in that order are 0.89 apart, so the gap must be taken over every pair.
        rng = np.random.default_rng(3)
        for _ in range(26):
            p = random_params(rng)
        lam = spectral.even_sector_roots(p, atom_eigensystem_exact(p).dark_energy)
        assert abs(lam[2] - lam[4]) <= 1e-14 and np.min(np.abs(np.diff(lam))) > 0.5
        psi0 = initial_state_photon_at_site(1, p, "effective", "mode")
        path = _assert_matches_dense(psi0, np.linspace(0.0, 20.0, 401), p, monkeypatch, caplog)
        assert path.startswith("dense (roots ") and path.endswith(" apart)")

    def test_sum_rule_failure_runs_dense_kernel(self, fig3a_params, monkeypatch, caplog):
        # As TestDecoupledAtom's guard test, for the arrowhead eigenbasis at g != 0.
        p = fig3a_params.replace(n_cavities=21)
        psi0 = initial_state_photon_at_site(1, p, "effective", "mode")
        t_grid = np.linspace(0.0, 5.0, 101)
        ref, _ = _evolve_on("dense", psi0, t_grid, p, monkeypatch, caplog)
        monkeypatch.setattr(dynamics, "SUM_RULE_TOL", 0.0)
        series, path = _evolve_on("default", psi0, t_grid, p, monkeypatch, caplog)
        assert p.g != 0.0 and path.startswith("dense (sum rules off by ")
        _assert_close(series, ref, tol=0.0, norm_tol=0.0)

    def test_decoupled_amplitudes_advance_by_their_factors(self, fig3a_params, monkeypatch, caplog):
        p = _with_coupling(fig3a_params, 0.0)
        psi0 = initial_state_photon_at_site(5, p, "effective", "mode")
        psi0.atom[0] = 0.6
        t_grid = np.linspace(0.0, 5.0, 101)
        assert _assert_matches_dense(psi0, t_grid, p, monkeypatch, caplog) == "eigenbasis"
        series = evolve(psi0, t_grid, p)
        e1 = atom_eigensystem_exact(p).dark_energy
        levels = np.r_[e1.real, p.mode_frequencies()]
        centroid = 0.5 * (levels.max() + levels.min())
        assert np.max(np.abs(series.atom_amps[:, 0] - 0.6 * np.exp(-1j * (e1 - centroid) * t_grid))) <= 1e-14

    def test_samples_are_blocked(self, monkeypatch, caplog):
        # fig4's 8001 samples at even dim 128: an nt x dim array would take 16 MB.
        cfg = preset("fig4")
        nt = int(round(cfg.t_max / cfg.dt)) + 1
        psi0 = initial_state(cfg.params, "effective", cfg.photon_site)
        t_grid = np.linspace(0.0, cfg.t_max, nt)
        tracemalloc.start()
        try:
            _, path = _evolve_on("default", psi0, t_grid, cfg.params, monkeypatch, caplog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path == "eigenbasis"
        assert peak <= nt * 128 * 16 / 4

    def test_debug_log_names_the_path(self, fig3a_params, caplog, monkeypatch):
        psi0 = initial_state_photon_at_site(0, fig3a_params, "effective", "mode")
        evolve_args = (psi0, np.linspace(0, 1, 11), fig3a_params, monkeypatch, caplog)
        _evolve_on("default", *evolve_args)
        message = caplog.records[-1].getMessage()
        assert message.startswith("evolve effective/mode: dim 254, exact steps of dt 0.1; roots ")
        assert "n_sub" not in message and "matrix" not in message
        assert message.endswith(" s; eigenbasis; even dim 128")
        _, path = _evolve_on("dense", *evolve_args)
        message = caplog.records[-1].getMessage()
        assert message.startswith("evolve effective/mode: dim 254, n_sub ") and path == "dense (reference)"
        assert " Taylor steps; roots " in message and " s, matrix " in message


class TestDecoupledAtom:
    # At g = 0 the atom couples to no mode: its block runs in its own eigenbasis
    # and every mode advances by its own factor.  The reference is the dense
    # kernel on the assembled even H.

    @pytest.mark.parametrize("n", [21, 53, 253])
    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig4"])
    def test_matches_dense_kernel(self, name, n, monkeypatch, caplog):
        cfg = preset(name)
        t_grid = np.linspace(0.0, 300 * cfg.dt, 301)
        for kappa in (cfg.params.kappa, 0.0):
            p = cfg.params.replace(g1=0.0, g2=0.0, n_cavities=n, kappa=kappa)
            for model in ("effective", "full"):
                for rep in ("mode", "site"):
                    starts = [initial_state_atom_m(p, model, rep)] + [
                        initial_state_photon_at_site(site, p, model, rep) for site in (0, 1, 5, n - 2)]
                    for psi0 in starts:
                        fast, path = _evolve_on("default", psi0, t_grid, p, monkeypatch, caplog)
                        ref, _ = _evolve_on("dense", psi0, t_grid, p, monkeypatch, caplog)
                        assert path == "eigenbasis"
                        _assert_close(fast, ref)

    def test_guard_failure_runs_dense_kernel(self, monkeypatch, caplog):
        cfg = preset("fig4")
        p = cfg.params.replace(g1=0.0, g2=0.0)
        psi0 = initial_state_atom_m(p, "full")
        t_grid = np.linspace(0.0, 300 * cfg.dt, 301)
        ref, _ = _evolve_on("dense", psi0, t_grid, p, monkeypatch, caplog)
        monkeypatch.setattr(dynamics, "SUM_RULE_TOL", 0.0)
        series, path = _evolve_on("default", psi0, t_grid, p, monkeypatch, caplog)
        assert path.startswith("dense (sum rules off by ")
        assert " Taylor steps; roots " in caplog.records[-1].getMessage()
        _assert_close(series, ref, tol=0.0, norm_tol=0.0)

    def test_kappa_positive_raises_before_propagating(self, monkeypatch):
        # At g = 0 and kappa > 0 a gain in the atom block is found before the atom eigenbasis,
        # from the block alone: neither sample stage, nor any eigvals of H, may run.
        _stub_propagation(monkeypatch)
        monkeypatch.setattr(dynamics, "_atom_eigenbasis", None)
        p = preset("fig4").params.replace(g1=0.0, g2=0.0)
        e1 = atom_eigensystem_exact(p).dark_energy.conjugate()
        assert p.kappa > 0.0 and e1.imag > 0.0
        with pytest.raises(StepSizeTooLarge, match=_gain_message(2.0 * e1.imag * 20.0, 20)):
            evolve(initial_state_atom_m(p, "effective"), np.linspace(0, 20, 11), p, e1=e1)


def _stub_propagation(monkeypatch):
    """Make every propagation stage, and eigvals of H, raise TypeError if called."""
    monkeypatch.setattr(dynamics._kernels, "rk4_schrodinger", None)
    monkeypatch.setattr(dynamics, "_eigenbasis_samples", None)
    monkeypatch.setattr(np.linalg, "eigvals", None)


def _gain_message(exponent: float, t_end: float) -> str:
    return (rf"^the atom block has gain: norm\^2 may grow by a factor exp\({exponent:.4g}\) by "
            rf"t = {t_end:.4g}, above 1 \+ NORM_GROWTH_TOL = 1 \+ 1e-06$")


class TestStepSizeTooLarge:
    # An E1 with Im E1 > 0 is a gain: the norm grows as exp(2 Im E1 t).  The check before
    # propagating reads it from the atom block alone, with no eigenvalue of H.

    def test_kappa_zero_names_the_step(self, fig3a_params):
        p = fig3a_params.replace(kappa=0.0)
        e1 = atom_eigensystem_exact(p).dark_energy.real + 0.05j
        with pytest.raises(StepSizeTooLarge, match=_gain_message(2.0, 20)):
            evolve(initial_state_photon_at_site(0, p, "effective", "mode"), np.linspace(0, 20, 11), p, e1=e1)

    def test_kappa_zero_raises_before_propagating(self, fig3a_params, monkeypatch):
        # Calling the roots, either sample stage or eigvals would raise TypeError: the check must come first.
        _stub_propagation(monkeypatch)
        monkeypatch.setattr(spectral, "even_sector_roots", None)
        p = fig3a_params.replace(kappa=0.0)
        e1 = atom_eigensystem_exact(p).dark_energy.real + 0.05j
        with pytest.raises(StepSizeTooLarge, match=_gain_message(2.0, 20)):
            evolve(initial_state_photon_at_site(0, p, "effective", "mode"), np.linspace(0, 20, 11), p, e1=e1)

    def test_kappa_positive_raises_before_propagating(self, fig3a_params, monkeypatch):
        # At kappa > 0 the model's own E1 decays; its conjugate gains.
        _stub_propagation(monkeypatch)
        monkeypatch.setattr(spectral, "even_sector_roots", None)
        e1 = atom_eigensystem_exact(fig3a_params).dark_energy.conjugate()
        with pytest.raises(StepSizeTooLarge, match=_gain_message(2.0 * e1.imag * 20.0, 20)):
            evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                   np.linspace(0, 20, 11), fig3a_params, e1=e1)

    def test_full_model_kappa_positive_raises_before_propagating(self, fig3a_params, monkeypatch):
        # The full model at g != 0 runs on the dense kernel; a d level with gain +kappa/2 is
        # found from the 3 x 3 atom block before the matrix is built.
        _stub_propagation(monkeypatch)
        monkeypatch.setattr(dynamics, "assemble_hamiltonian", None)
        blocks = dynamics.hamiltonian_blocks

        def gaining(*args):
            atom_block, coupling, levels = blocks(*args)
            return atom_block.conj(), coupling, levels

        monkeypatch.setattr(dynamics, "hamiltonian_blocks", gaining)
        assert fig3a_params.g != 0.0 and fig3a_params.kappa > 0.0
        with pytest.raises(StepSizeTooLarge, match=_gain_message(fig3a_params.kappa * 20.0, 20)):
            evolve(initial_state_photon_at_site(0, fig3a_params, "full", "site"),
                   np.linspace(0, 20, 11), fig3a_params)

    def test_kappa_positive(self, fig3a_params, monkeypatch):
        # STEP_FACTOR = 10 makes the dense kernel's Taylor step 40 times too long: the norm
        # grows, and the check after propagating names the steps.
        monkeypatch.setattr(dynamics, "STEP_FACTOR", 10.0)
        message = r"^norm\^2 grew from 1 to .* \(n_sub 6, dt 0\.3333, 60 Taylor steps\)$"
        with pytest.raises(StepSizeTooLarge, match=message):
            evolve(initial_state_photon_at_site(0, fig3a_params, "full", "site"),
                   np.linspace(0, 20, 11), fig3a_params)


class TestDarkPopulation:
    def test_grid_point_and_origin(self, fig3a_params):
        series = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                        np.linspace(0, 5, 101), fig3a_params)
        assert dark_population(series, series.times[40]) == series.p_dark[40]
        assert dark_population(series, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_midpoint_of_constant_series(self, fig3a_params):
        p = fig3a_params.replace(kappa=0.0, g1=0.0, g2=0.0)
        series = evolve(initial_state_atom_m(p, "effective"), np.linspace(0, 5, 101), p)
        mid = 0.5 * (series.times[10] + series.times[11])
        assert dark_population(series, mid) == pytest.approx(series.p_dark[10], rel=1e-9)

    def test_out_of_range(self, fig3a_params):
        series = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                        np.linspace(0, 5, 101), fig3a_params)
        with pytest.raises(OutOfRange):
            dark_population(series, 5.1)
