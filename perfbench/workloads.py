"""The four benchmark workloads, driven through qbsim's public API.

Each workload builds its inputs from the seed in ``__init__`` (part of
set-up), warms its code paths up in ``warm_up`` (also set-up), runs one
timed pass of operations in ``run`` and grades that pass in ``check``,
outside the timer.  ``check`` returns (attempted, failed): an operation
fails if it raised (its traceback goes to stderr) or if its output misses
its acceptance tolerance.

Calls go through module attributes (``thermo.sweep_ergotropy``, not a
name imported into this file), so the tracer's wrappers see them.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path

import numpy as np

from qbsim import cli, dynamics, lindblad, model, spectral, thermo
from qbsim.params import SystemParams
from qbsim.presets import preset


class Sweep:
    """fig5 sub-grid: all 41 omega0 x 3 xi columns, two worker processes.

    One op is one cell.  The seed draws one xi column from each third of
    the fig5 xi range, with the three offsets summing to 9 so that the
    summed hopping, and with it the RK4 step count, is the same for every
    seed.  Many short, overhead-bound evolve calls behind a process pool.
    """

    name = "sweep"
    n_workers = 2

    def __init__(self, seed: int, small: bool = False):
        cfg = preset("fig5")
        rng = np.random.default_rng(seed)
        triples = [(a, b, 9 - a - b) for a in range(7) for b in range(7) if 0 <= 9 - a - b <= 6]
        a, b, c = triples[int(rng.integers(len(triples)))]
        xi = cfg.sweep_xi
        self.xi_columns = [xi[a], xi[7 + b], xi[14 + c]]
        self.omega0 = cfg.sweep_omega0[16:25] if small else cfg.sweep_omega0
        self.params = cfg.params
        self.t_max = cfg.t_max
        self.nt = int(round(cfg.t_max / cfg.dt)) + 1
        self.photon_site = cfg.photon_site

    def describe(self) -> dict:
        return {"xi_columns": list(self.xi_columns), "n_omega0": len(self.omega0), "nt": self.nt}

    def warm_up(self) -> None:
        scenario = thermo.ChargingScenario(params=self.params, photon_site=self.photon_site)
        thermo.ergotropy_trace(scenario, np.linspace(0.0, 0.5, 11))

    def prepare(self, index: int, out_dir: Path) -> None:
        pass

    def run(self) -> dict:
        try:
            res = thermo.sweep_ergotropy(
                self.omega0, self.xi_columns, self.params, t_max=self.t_max, nt=self.nt,
                photon_site=self.photon_site, n_workers=self.n_workers,
            )
        except Exception as exc:  # counted as every cell failing
            traceback.print_exc()
            return {"error": repr(exc)}
        return {"result": res}

    def check(self, out: dict) -> tuple[int, int]:
        cells = len(self.omega0) * len(self.xi_columns)
        if "error" in out:
            return cells, cells
        res = out["result"]
        w = res.w_max
        bad = ~np.isfinite(w)
        for i, j in res.errors:
            bad[i, j] = True
        # Criterion 6: per xi column, argmax over omega0 within one grid
        # step of Re E1; a column that misses fails all its cells.
        re_e1 = model.atom_eigensystem_exact(self.params).dark_energy.real
        step = float(res.omega0_grid[1] - res.omega0_grid[0])
        for j in range(w.shape[1]):
            col = w[:, j]
            if not np.any(np.isfinite(col)):
                bad[:, j] = True
                continue
            if abs(res.omega0_grid[int(np.nanargmax(col))] - re_e1) > step + 1e-12:
                bad[:, j] = True
        return cells, int(bad.sum())


class Series:
    """``run_reproduce`` for fig3a, fig3b and fig4; one op is one figure.

    A few long, step-bound trajectories in one process, in the mode-space
    effective model and the site-space full model (the g = 0 reference of
    fig4), plus spectral, analysis and CSV writing.  The presets are fixed,
    so the seed has no effect.
    """

    name = "series"

    def __init__(self, seed: int, small: bool = False):
        self.figures = ("fig3a",) if small else ("fig3a", "fig3b", "fig4")
        self.params = preset("fig3a").params
        self.e1 = model.atom_eigensystem_exact(self.params).dark_energy

    def describe(self) -> dict:
        return {"figures": list(self.figures), "seed_used": False}

    def warm_up(self) -> None:
        p = self.params
        psi = dynamics.initial_state_photon_at_site(0, p, "effective", "mode")
        series = dynamics.evolve(psi, np.linspace(0.0, 0.5, 11), p, e1=self.e1)
        spectral.long_time_probability(series.times, spectral.find_bound_states(p, self.e1))

    def prepare(self, index: int, out_dir: Path) -> None:
        self.pass_dir = out_dir / f"series-{index}"

    def run(self) -> dict:
        summaries = {}
        for fig in self.figures:
            try:
                summaries[fig] = cli.run_reproduce(fig, self.pass_dir, 1)
            except Exception as exc:  # the figure counts as failed
                traceback.print_exc()
                summaries[fig] = {"error": repr(exc)}
        return summaries

    def check(self, out: dict) -> tuple[int, int]:
        failed = sum(not _figure_ok(fig, s) for fig, s in out.items())
        return len(out), failed


def _figure_ok(fig: str, s: dict) -> bool:
    if "error" in s:
        return False
    if fig == "fig3a":  # criterion 3
        return s["max_abs_dev_analytic_t20plus"] <= 0.05 and s["period_rel_err"] <= 0.05
    if fig == "fig3b":  # criterion 2: E1 far outside the band leaves one bound state
        return s["count"] <= 1
    kp, gam = s["kappa_prime"], s["gamma"]  # fig4, criterion 5
    return (
        abs(kp - 2.6487e-2) / 2.6487e-2 <= 0.15
        and s["r_abs_two_bound"] >= 0.99
        and abs(gam - 0.0645) / 0.0645 <= 0.05
        and abs(s["gamma_over_kappa_prime"] - 2.4) <= 0.5
        and s["kappa_over_kappa_prime"] > 100.0
        and kp < gam < s["kappa"]
    )


class Lindblad:
    """``lindblad_evolve`` on the fig3a parameters, full site-space model.

    Two ops per pass: N = 53 over [0, 30] with 1201 samples (the
    criterion-4 set-up) and N = 125 over [0, 5] with 201 samples, whose
    RK4 working set of about ten 129 x 129 complex matrices outgrows a
    2 MiB L2.  The seed picks each case's initial photon site within 8
    sites of the atom, so the photon reaches it inside the window.
    """

    name = "lindblad"
    CASES = ((53, 30.0, 1201), (125, 5.0, 201))
    SMALL_CASES = ((13, 5.0, 201), (21, 2.0, 101))

    def __init__(self, seed: int, small: bool = False):
        rng = np.random.default_rng(seed)
        base = preset("fig3a").params
        self.cases = []
        for n, t_max, nt in self.SMALL_CASES if small else self.CASES:
            p = base.replace(n_cavities=n)
            site = int(rng.integers(-8, 9)) % n
            psi0 = dynamics.initial_state_photon_at_site(site, p, "full", "site")
            t_grid = np.linspace(0.0, t_max, nt)
            rho0 = lindblad.initial_density_matrix(psi0, p)
            self.cases.append({"n": n, "site": site, "params": p, "psi0": psi0,
                               "t_grid": t_grid, "rho0": rho0})
        self.reference = None

    def describe(self) -> dict:
        return {"cases": [{"n": c["n"], "site": c["site"], "t_max": float(c["t_grid"][-1]),
                           "nt": len(c["t_grid"])} for c in self.cases]}

    def warm_up(self) -> None:
        p = self.cases[0]["params"].replace(n_cavities=5)
        psi = dynamics.initial_state_photon_at_site(0, p, "full", "site")
        t = np.linspace(0.0, 0.1, 3)
        lindblad.lindblad_evolve(lindblad.initial_density_matrix(psi, p), t, p)
        dynamics.evolve(psi, t, p)

    def prepare(self, index: int, out_dir: Path) -> None:
        pass

    def run(self) -> list:
        out = []
        for case in self.cases:
            try:
                series = lindblad.lindblad_evolve(case["rho0"], case["t_grid"], case["params"])
                out.append(series.p_dark)  # drop the stored samples at once
            except Exception as exc:  # TraceDrift and any other raise fail the op
                traceback.print_exc()
                out.append(repr(exc))
        return out

    def check(self, out: list) -> tuple[int, int]:
        if self.reference is None:  # non-Hermitian reference, computed once
            self.reference = [dynamics.evolve(c["psi0"], c["t_grid"], c["params"]).p_dark
                              for c in self.cases]
        failed = 0
        for p_l, p_nh in zip(out, self.reference):
            # Criterion 4: max |P_L - P_nh| <= 1e-6.
            if isinstance(p_l, str) or not float(np.max(np.abs(p_l - p_nh))) <= 1e-6:
                failed += 1
        return len(out), failed


class Spectral:
    """Seeded (params, E1) draws; one op is one draw, timed one by one.

    Half of the parameter sets have kappa = 0 and a real E1 at least 0.05
    inside the band: find_bound_states plus branch_cut_integral(0), checked
    against the criterion-9 sum rule and count == 2.  The other half have
    kappa > 0 and a complex E1 (the Newton path of fig3 and fig4):
    find_bound_states plus long_time_probability on 401 times in
    [0, 100], checked for count == 2 and a finite probability.  Each parameter set carries
    10 E1 values, as the fig2 scan reuses one set for many E1.  Every pass
    draws fresh inputs, so nothing cached in one pass helps the next.
    """

    name = "spectral"
    PER_PARAMS = 10
    T_GRID = np.linspace(0.0, 100.0, 401)

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.n_params = 20 if small else 300
        self.prepare(0, None)

    def describe(self) -> dict:
        return {"draws_per_pass": self.n_params * self.PER_PARAMS, "n_cavities": 253}

    def _draws(self, rng: np.random.Generator, n_params: int) -> list:
        draws = []
        for k in range(n_params):
            kappa = 0.0 if k % 2 == 0 else float(rng.uniform(0.5, 8.0))
            p = SystemParams.with_dark_coupling(
                g=float(rng.uniform(0.05, 2.0)), omega0=float(rng.uniform(5.0, 40.0)),
                xi=float(rng.uniform(0.2, 3.0)), n_cavities=253,
                omega_p_rabi=float(rng.uniform(1.0, 20.0)), omega_c_rabi=float(rng.uniform(0.1, 5.0)),
                omega_d_real=float(rng.uniform(0.0, 40.0)), kappa=kappa,
                omega_e_level=float(rng.uniform(0.0, 50.0)),
                omega_m_level=float(rng.uniform(0.0, 40.0)), delta_e=float(rng.uniform(-20.0, 50.0)),
            )
            for _ in range(self.PER_PARAMS):
                re = float(rng.uniform(p.band_lower + 0.05, p.band_upper - 0.05))
                im = 0.0 if kappa == 0.0 else -float(rng.uniform(0.005, 0.1))
                draws.append((p, complex(re, im)))
        return draws

    def warm_up(self) -> None:
        for p, e1 in self._draws(np.random.default_rng([self.seed, 2**31]), 2):
            self._op(p, e1)

    def prepare(self, index: int, out_dir: Path | None) -> None:
        self.inputs = self._draws(np.random.default_rng([self.seed, index]), self.n_params)

    def _op(self, p: SystemParams, e1: complex):
        bs = spectral.find_bound_states(p, e1)
        if e1.imag == 0.0:
            return bs, spectral.branch_cut_integral(0.0, p, e1)
        return bs, spectral.long_time_probability(self.T_GRID, bs)

    def run(self) -> list:
        out = []
        for p, e1 in self.inputs:
            t0 = time.perf_counter()
            try:
                result = self._op(p, e1)
            except Exception as exc:  # the draw counts as failed
                traceback.print_exc()
                result = repr(exc)
            out.append((time.perf_counter() - t0, result))
        return out

    def check(self, out: list) -> tuple[int, int]:
        failed = 0
        for (p, e1), (_, result) in zip(self.inputs, out):
            if isinstance(result, str):
                failed += 1
                continue
            bs, extra = result
            if e1.imag == 0.0:
                poles = sum(s.residue_weight * s.pole_amplitude for s in bs.states)
                ok = bs.count == 2 and abs(poles + extra) <= 1e-6  # criterion 9 sum rule
            else:
                ok = bs.count == 2 and bool(np.all(np.isfinite(extra)))
            failed += not ok
        return len(out), failed

    @staticmethod
    def latencies(out: list) -> list[float]:
        return [dt for dt, _ in out]


WORKLOADS = {w.name: w for w in (Sweep, Series, Lindblad, Spectral)}
