"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, printing a PASS/FAIL line each (run with -s to stream them).

Criteria 1-9 map one-to-one onto the tests below; each asserts both the
numerical tolerances and, where stated, the runtime budget.
"""

import os
import time

import numpy as np
import pytest

from qbsim import atom_eigensystem_exact, effective_hamiltonian
from qbsim.analysis import fit_decay, median_peak_spacing
from qbsim.dynamics import evolve, initial_state_atom_m, initial_state_photon_at_site
from qbsim.lindblad import initial_density_matrix, lindblad_evolve
from qbsim.presets import preset
from qbsim.spectral import branch_cut_integral, find_bound_states, long_time_probability
from qbsim.thermo import (
    BatteryState,
    ChargingScenario,
    ergotropy,
    ergotropy_trace,
    passive_state,
    sweep_ergotropy,
)
from conftest import random_params


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_atom_spectrum():
    cfg_a, cfg_b = preset("fig3a"), preset("fig3b")
    atom_eigensystem_exact(cfg_a.params)  # warm-up outside the timed call
    t0 = time.perf_counter()
    e1a = atom_eigensystem_exact(cfg_a.params).dark_energy
    e1b = atom_eigensystem_exact(cfg_b.params).dark_energy
    elapsed = (time.perf_counter() - t0) / 2.0
    errs = (
        abs(e1a.real - 35.327) / 35.327,
        abs(e1a.imag + 0.032) / 0.032,
        abs(e1b.real - 66.6553) / 66.6553,
        abs(e1b.imag + 0.0287) / 0.0287,
    )
    ok = max(errs) < 0.005 and elapsed < 1e-3
    _report(
        "criterion 1 (atom spectrum)", ok,
        f"E1a={e1a:.4f}, E1b={e1b:.4f}, max rel err {max(errs):.2e}, {elapsed * 1e6:.0f} us/solve",
    )


def test_criterion_2_bound_state_count(fig2_params):
    p = fig2_params
    grid = np.linspace(p.omega0 - 4.0, p.omega0 + 4.0, 200)
    # BLAS warm-up outside the timed region: the first eigvalsh calls of a
    # process pay for OpenBLAS thread start-up, not for the eigensolver.
    warm = effective_hamiltonian(p, "site", e1=complex(grid[0])).real
    for _ in range(2):
        np.linalg.eigvalsh(warm)
    t0 = time.perf_counter()
    sets = [find_bound_states(p, complex(e1)) for e1 in grid]
    counts = np.array([b.count for b in sets])

    worst_match = 0.0
    for idx in range(0, len(grid), 10):
        h = effective_hamiltonian(p, "site", e1=complex(grid[idx]))
        ev = np.linalg.eigvalsh(h.real)
        for s in sets[idx].states:
            worst_match = max(worst_match, float(np.min(np.abs(ev - s.lattice_energy.real))))
    elapsed = time.perf_counter() - t0

    inside = (grid > p.band_lower) & (grid < p.band_upper)
    strictly_outside = (grid < p.band_lower - 0.05) | (grid > p.band_upper + 0.05)
    changes = grid[np.nonzero(np.diff(counts))[0]]
    edge_dist = max(
        (min(abs(c - p.band_lower), abs(c - p.band_upper)) for c in changes), default=0.0
    )
    ok = (
        np.all(counts[inside] == 2)
        and np.all(counts[strictly_outside] <= 1)
        and edge_dist <= 0.05
        and worst_match <= 1e-6
        and elapsed < 1.0
    )
    _report(
        "criterion 2 (bound-state count)", ok,
        f"inside counts {sorted(set(counts[inside].tolist()))}, outside "
        f"{sorted(set(counts[strictly_outside].tolist()))}, transition edge dist {edge_dist:.3f}, "
        f"oracle match {worst_match:.1e}, {elapsed:.2f} s",
    )


def test_criterion_3_analytic_vs_numeric():
    cfg = preset("fig3a")
    p = cfg.params
    t0 = time.perf_counter()
    e1 = atom_eigensystem_exact(p).dark_energy
    series = evolve(initial_state_photon_at_site(0, p, "effective", "mode"),
                    cfg.time_grid(), p, e1=e1)
    bs = find_bound_states(p, e1)
    p21 = long_time_probability(series.times, bs)
    late = series.times >= 20.0
    dev = float(np.max(np.abs(p21[late] - series.p_dark[late])))
    period_pred = 2.0 * np.pi / bs.phi.real
    period_meas = median_peak_spacing(series.times, series.p_dark, t_min=20.0)
    elapsed = time.perf_counter() - t0
    rel = abs(period_meas - period_pred) / period_pred
    ok = dev <= 0.05 and rel <= 0.05 and elapsed < 10.0
    _report(
        "criterion 3 (analytic vs numeric)", ok,
        f"max dev {dev:.4f}, period {period_meas:.4f} vs {period_pred:.4f} ({rel:.2%}), {elapsed:.1f} s",
    )


def test_criterion_4_lindblad_cross_check(fig3a_params):
    p = fig3a_params.replace(n_cavities=53)
    t_grid = np.linspace(0.0, 30.0, 1201)
    t0 = time.perf_counter()
    psi0 = initial_state_photon_at_site(0, p, "full", "site")
    nh = evolve(psi0, t_grid, p)
    lb = lindblad_evolve(initial_density_matrix(psi0, p), t_grid, p)
    elapsed = time.perf_counter() - t0
    dev = float(np.max(np.abs(lb.p_dark - nh.p_dark)))
    ok = dev <= 1e-6 and elapsed < 60.0
    _report(
        "criterion 4 (Lindblad cross-check)", ok,
        f"max |P_L - P_nh| = {dev:.2e} over [0, 30], N=53, {elapsed:.1f} s",
    )


def test_criterion_5_lifetime_suppression():
    cfg = preset("fig4")
    p = cfg.params
    t_grid = cfg.time_grid()
    series = evolve(initial_state_atom_m(p, "effective"), t_grid, p)
    fit_two = fit_decay(series.times, series.p_dark, t_min=10.0)

    bare = p.replace(g1=0.0, g2=0.0)
    series0 = evolve(initial_state_atom_m(bare, "full"), t_grid, bare)
    fit_gamma = fit_decay(series0.times, series0.p_dark, t_min=10.0)

    kp, gam = fit_two.rate, fit_gamma.rate
    ratio = gam / kp
    ok = (
        abs(kp - 2.6487e-2) / 2.6487e-2 <= 0.15
        and fit_two.r_abs >= 0.99
        and abs(gam - 0.0645) / 0.0645 <= 0.05
        and abs(ratio - 2.4) <= 0.5
        and p.kappa / kp > 100.0
        and kp < gam < p.kappa
    )
    _report(
        "criterion 5 (lifetime suppression)", ok,
        f"kappa'={kp:.5f} (r={fit_two.r_abs:.5f}), gamma={gam:.5f} "
        f"(r={fit_gamma.r_abs:.5f}), gamma/kappa'={ratio:.2f}, kappa/kappa'={p.kappa / kp:.0f}",
    )


def test_criterion_6_resonance_optimum():
    cfg = preset("fig5")
    t0 = time.perf_counter()
    res = sweep_ergotropy(
        cfg.sweep_omega0, cfg.sweep_xi, cfg.params,
        t_max=cfg.t_max, nt=int(round(cfg.t_max / cfg.dt)) + 1,
        photon_site=cfg.photon_site, n_workers=os.cpu_count(),
    )
    elapsed = time.perf_counter() - t0
    re_e1 = atom_eigensystem_exact(cfg.params).dark_energy.real
    argmax = res.omega0_grid[np.nanargmax(res.w_max, axis=0)]
    step = res.omega0_grid[1] - res.omega0_grid[0]
    offset = float(np.max(np.abs(argmax - re_e1)))
    ok = offset <= step + 1e-12 and not res.errors and elapsed < 600.0
    _report(
        "criterion 6 (resonance optimum)", ok,
        f"41x21 grid, max |argmax(omega0) - Re E1| = {offset:.3f} (step {step:.3f}), {elapsed:.0f} s",
    )


def test_criterion_7_optimal_hopping():
    cfg = preset("fig6")
    res = sweep_ergotropy(
        [cfg.params.omega0], cfg.sweep_xi, cfg.params,
        t_max=cfg.t_max, nt=int(round(cfg.t_max / cfg.dt)) + 1,
        photon_site=cfg.photon_site, n_workers=os.cpu_count(),
    )
    w = res.w_max[0]
    xi = res.xi_grid
    k = int(np.nanargmax(w))
    rises_then_falls = bool(w[0] < w[k] and w[-1] < w[k] and 0 < k < len(xi) - 1)
    ok = abs(xi[k] - 1.22) <= 0.15 and rises_then_falls
    _report(
        "criterion 7 (optimal hopping)", ok,
        f"argmax xi = {xi[k]:.2f} (target 1.22 +- 0.15), W_max={w[k]:.3f}, "
        f"rise-fall={rises_then_falls}",
    )


def test_criterion_8_power_map():
    cfg = preset("fig7")
    t_grid = cfg.time_grid()
    tail = max(len(t_grid) // 10, 2)
    peaks = []
    shape_ok = True
    for xi in cfg.sweep_xi:
        params = cfg.params.replace(xi=float(xi))
        tr = ergotropy_trace(ChargingScenario(params=params, photon_site=cfg.photon_site), t_grid)
        power = tr.power
        k = int(np.argmax(power))
        plateau = float(np.mean(power[-tail:]))
        peaks.append(power[k])
        # single dominant maximum: interior in time, decaying to a low plateau
        if not (0 < k < len(t_grid) - 1 and plateau < 0.2 * power[k]):
            shape_ok = False
    peaks = np.array(peaks)
    kbest = int(np.argmax(peaks))
    interior = 0 < kbest < len(peaks) - 1
    ok = shape_ok and interior
    _report(
        "criterion 8 (power map)", ok,
        f"rise/peak/plateau shape at all {len(peaks)} xi values: {shape_ok}, "
        f"global peak at xi={cfg.sweep_xi[kbest]} interior: {interior}",
    )


def test_criterion_9_property_suites(fig3a_params):
    t0 = time.perf_counter()

    p0 = fig3a_params.replace(kappa=0.0)
    series = evolve(initial_state_photon_at_site(0, p0, "effective", "mode"),
                    np.linspace(0.0, 100.0, 2001), p0)
    norm_drift = float(np.max(np.abs(series.norm2 - 1.0)))

    series_k = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                      np.linspace(0.0, 50.0, 1001), fig3a_params)
    monotone = bool(np.all(np.diff(series_k.norm2) <= 1e-12))

    rng = np.random.default_rng(23)
    worst_sum_rule = 0.0
    for _ in range(20):
        pr = random_params(rng, kappa=0.0).replace(n_cavities=253)
        e1 = complex(rng.uniform(pr.band_lower + 0.05, pr.band_upper - 0.05))
        bs = find_bound_states(pr, e1)
        poles = sum(s.residue_weight * s.pole_amplitude for s in bs.states)
        worst_sum_rule = max(worst_sum_rule, abs(poles + branch_cut_integral(0.0, pr, e1)))

    worst_w = 0.0
    worst_passive = 0.0
    for _ in range(1000):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = BatteryState((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = b + b.conj().T
        worst_w = min(worst_w, ergotropy(rho, h))
        worst_passive = max(worst_passive, ergotropy(passive_state(rho, h), h))
    elapsed = time.perf_counter() - t0

    ok = (
        norm_drift <= 1e-8
        and monotone
        and worst_sum_rule <= 1e-6
        and worst_w >= -1e-10
        and worst_passive <= 1e-10
        and elapsed < 60.0
    )
    _report(
        "criterion 9 (property suites)", ok,
        f"norm drift {norm_drift:.1e}, monotone decay {monotone}, sum rule {worst_sum_rule:.1e}, "
        f"min W {worst_w:.1e}, passive W {worst_passive:.1e}, {elapsed:.0f} s",
    )
