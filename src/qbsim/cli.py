"""Command-line scenario runner.

Subcommands
-----------
reproduce <figure_id>   regenerate the data behind one of the reference
                        figures (fig2 .. fig7) as CSV + a JSON summary
run <config.json>       run a custom scenario (time series or sweep)
bound-states <config.json>   bound-state energies and residues
atom-spectrum <config.json>  exact and perturbative atom eigenvalues
fit-decay <series.csv>  exponential lifetime fit of a stored series

All numeric CSV output is written with 17 significant digits; a value
that was not computed (a failed sweep cell, or a fig2 bound state that is
absent or insignificant) is an empty field.  A ``run`` sweep starts every
cell from the config's ``initial`` state.  Output is deterministic
run-to-run, and exit codes are 0 (success), 2 (config error, including a
value of the wrong type), 3 (numerical non-convergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import fit_decay, median_peak_spacing
from .dynamics import evolve, initial_state, initial_state_atom_m
from .errors import ConfigError, QbsimError
from .lindblad import initial_density_matrix, lindblad_evolve
from .model import atom_eigensystem_exact, atom_eigensystem_perturbative, dark_state_energy, dark_state_vector
from .presets import PRESET_NAMES, ScenarioConfig, preset
from .spectral import find_bound_states, long_time_probability
from .thermo import ChargingScenario, ergotropy_trace, sweep_ergotropy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_csv(path: Path, header: list[str], columns: list) -> str:
    """One row per sample, every value as %.17g, a NaN (not computed) as an empty field; returns the file name."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines((row % values).replace("nan", "") for values in zip(*columns))
    return path.name


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _c(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _sweep(cfg: ScenarioConfig, threads: int):
    """W_max over the config's sweep grids (a grid not given is its param's value), from its
    initial state, over its window sampled every cfg.dt."""
    return sweep_ergotropy(cfg.sweep_omega0 or (cfg.params.omega0,), cfg.sweep_xi or (cfg.params.xi,),
                           cfg.params, t_max=cfg.t_max,
                           nt=len(cfg.time_grid()),
                           photon_site=cfg.photon_site, n_workers=threads)


def _write_wmax_grid(path: Path, res) -> str:
    om, xi = np.meshgrid(res.omega0_grid, res.xi_grid, indexing="ij")
    return _write_csv(path, ["omega0", "xi", "w_max"], [om.ravel(), xi.ravel(), res.w_max.ravel()])


# -- figure reproduction ---------------------------------------------------------


def _reproduce_fig2(cfg: ScenarioConfig, out: Path, threads: int) -> dict:
    params = cfg.params
    e1_grid = np.linspace(params.omega0 - 4.0, params.omega0 + 4.0, 200)
    below, above, counts = [], [], []
    for e1 in e1_grid:
        bs = find_bound_states(params, complex(e1))
        lo = bs.state("below_band")
        hi = bs.state("above_band")
        below.append(lo.energy.real if lo is not None and lo.significant else np.nan)
        above.append(hi.energy.real if hi is not None and hi.significant else np.nan)
        counts.append(bs.count)
    counts = np.array(counts)
    csv = _write_csv(out / "fig2_bound_states.csv",
                     ["e1", "bound_below", "bound_above", "count"],
                     [e1_grid, below, above, counts])
    inside = (e1_grid > params.band_lower) & (e1_grid < params.band_upper)
    summary = {
        "figure": "fig2",
        "band": [params.band_lower, params.band_upper],
        "n_points": len(e1_grid),
        "count_inside": sorted(set(counts[inside].tolist())),
        "count_outside": sorted(set(counts[~inside].tolist())),
        "files": [csv],
    }
    return summary


def _fig3_series(cfg: ScenarioConfig, out: Path, threads: int) -> dict:
    name = cfg.label
    params = cfg.params
    e1 = dark_state_energy(params)
    psi0 = initial_state(params, "effective", cfg.photon_site)
    series = evolve(psi0, cfg.time_grid(), params, e1=e1)
    bs = find_bound_states(params, e1)
    p_an = long_time_probability(series.times, bs)
    csv = _write_csv(out / f"{name}_dark_population.csv",
                     ["t", "p_numeric", "p_analytic"],
                     [series.times, series.p_dark, p_an])
    late = series.times >= 20.0
    summary = {
        "figure": name,
        "e1": _c(e1),
        "bound_states": [
            {"location": s.location, "energy": _c(s.energy), "weight": _c(s.residue_weight),
             "significant": s.significant}
            for s in bs.states
        ],
        "count": bs.count,
        "max_p_dark": float(series.p_dark.max()),
        "files": [csv],
    }
    if bs.n_roots == 2:
        summary["phi"] = _c(bs.phi)
        if late.any():
            summary["max_abs_dev_analytic_t20plus"] = float(
                np.max(np.abs(p_an[late] - series.p_dark[late])))
    if name == "fig3a":
        period_pred = 2.0 * np.pi / bs.phi.real
        period_meas = median_peak_spacing(series.times, series.p_dark, t_min=20.0)
        summary["period_predicted"] = period_pred
        summary["period_measured"] = period_meas
        summary["period_rel_err"] = abs(period_meas - period_pred) / period_pred
    return summary


def _reproduce_fig4(cfg: ScenarioConfig, out: Path, threads: int) -> dict:
    params = cfg.params
    t_grid = cfg.time_grid()
    series = evolve(initial_state(params, "effective", cfg.photon_site), t_grid, params)
    fit_two = fit_decay(series.times, series.p_dark, t_min=10.0)

    bare = params.replace(g1=0.0, g2=0.0)
    series0 = evolve(initial_state_atom_m(bare, "full"), t_grid, bare)
    fit_gamma = fit_decay(series0.times, series0.p_dark, t_min=10.0)

    csv = _write_csv(out / "fig4_envelopes.csv",
                     ["t", "p_two_bound_states", "p_no_cavity"],
                     [t_grid, series.p_dark, series0.p_dark])
    summary = {
        "figure": "fig4",
        "e1": _c(dark_state_energy(params)),
        "kappa": params.kappa,
        "kappa_prime": fit_two.rate,
        "r_abs_two_bound": fit_two.r_abs,
        "fit_used_envelope_peaks": fit_two.used_peaks,
        "gamma": fit_gamma.rate,
        "r_abs_no_cavity": fit_gamma.r_abs,
        "gamma_over_kappa_prime": fit_gamma.rate / fit_two.rate,
        "kappa_over_kappa_prime": params.kappa / fit_two.rate,
        "files": [csv],
    }
    return summary


def _reproduce_fig5(cfg: ScenarioConfig, out: Path, threads: int) -> dict:
    res = _sweep(cfg, threads)
    csv = _write_wmax_grid(out / "fig5_wmax_grid.csv", res)
    re_e1 = dark_state_energy(cfg.params).real
    argmax_omega0 = res.omega0_grid[np.nanargmax(res.w_max, axis=0)]
    step = float(res.omega0_grid[1] - res.omega0_grid[0])
    summary = {
        "figure": "fig5",
        "re_e1": re_e1,
        "omega0_step": step,
        "argmax_omega0_per_xi": argmax_omega0.tolist(),
        "max_abs_offset_from_e1": float(np.max(np.abs(argmax_omega0 - re_e1))),
        "n_failed_cells": len(res.errors),
        "files": [csv],
    }
    return summary


def _reproduce_fig6(cfg: ScenarioConfig, out: Path, threads: int) -> dict:
    res = _sweep(cfg, threads)
    w = res.w_max[0]
    xi = res.xi_grid
    csv = _write_csv(out / "fig6_wmax_vs_xi.csv", ["xi", "w_max"], [xi, w])
    k = int(np.nanargmax(w))
    argmax_xi = float(xi[k])
    if 0 < k < len(xi) - 1:
        y0, y1, y2 = w[k - 1], w[k], w[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            argmax_xi = float(xi[k] + 0.5 * (xi[k] - xi[k - 1]) * (y0 - y2) / denom)
    summary = {
        "figure": "fig6",
        "e1": _c(dark_state_energy(cfg.params)),
        "argmax_xi_grid": float(xi[k]),
        "argmax_xi": argmax_xi,
        "w_max_at_peak": float(w[k]),
        "rises_then_falls": bool(w[0] < w[k] and w[-1] < w[k]),
        "n_failed_cells": len(res.errors),
        "files": [csv],
    }
    return summary


def _reproduce_fig7(cfg: ScenarioConfig, out: Path, threads: int) -> dict:
    t_grid = cfg.time_grid()
    xi_col, t_col, p_col = [], [], []
    per_xi = []
    for xi in cfg.sweep_xi:
        params = cfg.params.replace(xi=float(xi))
        tr = ergotropy_trace(ChargingScenario(params=params, photon_site=cfg.photon_site), t_grid)
        xi_col.append(np.full(len(t_grid), xi))
        t_col.append(t_grid)
        p_col.append(tr.power)
        k = int(np.argmax(tr.power))
        per_xi.append({
            "xi": float(xi),
            "peak_power": float(tr.power[k]),
            "peak_time": float(t_grid[k]),
            "plateau": float(np.mean(tr.power[-max(len(t_grid) // 10, 2):])),
        })
    csv = _write_csv(out / "fig7_power_map.csv",
                     ["xi", "t", "power"],
                     [np.concatenate(xi_col), np.concatenate(t_col), np.concatenate(p_col)])
    peaks = np.array([row["peak_power"] for row in per_xi])
    kbest = int(np.argmax(peaks))
    summary = {
        "figure": "fig7",
        "per_xi": per_xi,
        "global_peak_xi": per_xi[kbest]["xi"],
        "global_peak_interior": bool(0 < kbest < len(per_xi) - 1),
        "files": [csv],
    }
    return summary


_REPRODUCERS = {
    "fig2": _reproduce_fig2,
    "fig3a": _fig3_series,
    "fig3b": _fig3_series,
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
    "fig7": _reproduce_fig7,
}


def run_reproduce(figure_id: str, out_dir: Path, threads: int) -> dict:
    if figure_id not in _REPRODUCERS:
        raise ConfigError("figure_id", f"must be one of {PRESET_NAMES}")
    cfg = preset(figure_id)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = _REPRODUCERS[figure_id](cfg, out_dir, threads)
    summary["preset"] = cfg.to_dict()
    _write_summary(out_dir / f"{figure_id}_summary.json", summary)
    return summary


# -- custom scenarios -------------------------------------------------------------


def run_custom(cfg: ScenarioConfig, out_dir: Path, threads: int) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    label = cfg.label or "scenario"
    params = cfg.params
    series_path = out_dir / f"{label}_series.csv"
    if cfg.sweep_omega0 is not None or cfg.sweep_xi is not None:
        res = _sweep(cfg, threads)
        csv = _write_wmax_grid(out_dir / f"{label}_wmax.csv", res)
        summary = {
            "label": label,
            "kind": "sweep",
            "n_cells": int(res.w_max.size),
            "n_failed_cells": len(res.errors),
            "w_max_global": float(np.nanmax(res.w_max)),
            "files": [csv],
        }
    elif cfg.model == "analytic":
        e1 = dark_state_energy(params)
        bs = find_bound_states(params, e1)
        t_grid = cfg.time_grid()
        p = long_time_probability(t_grid, bs)
        csv = _write_csv(series_path, ["t", "p_dark"], [t_grid, p])
        summary = {
            "label": label, "kind": "analytic", "e1": _c(e1), "count": bs.count,
            "files": [csv],
        }
        if bs.n_roots == 2:
            summary["phi"] = _c(bs.phi)
    elif cfg.model == "lindblad":
        rho0 = initial_density_matrix(initial_state(params, "full", cfg.photon_site), params)
        series = lindblad_evolve(rho0, cfg.time_grid(), params)
        csv = _write_csv(series_path,
                         ["t", "p_dark", "trace"],
                         [series.times, series.p_dark, series.norm2])
        summary = {
            "label": label, "kind": "lindblad",
            "final_trace": float(series.norm2[-1]),
            "max_p_dark": float(series.p_dark.max()),
            "files": [csv],
        }
    else:
        series = evolve(initial_state(params, cfg.model, cfg.photon_site), cfg.time_grid(), params)
        csv = _write_csv(series_path,
                         ["t", "p_dark", "norm2"],
                         [series.times, series.p_dark, series.norm2])
        summary = {
            "label": label, "kind": cfg.model,
            "final_norm2": float(series.norm2[-1]),
            "max_p_dark": float(series.p_dark.max()),
            "files": [csv],
        }
    _write_summary(out_dir / f"{label}_summary.json", summary)
    return summary


def run_bound_states(cfg: ScenarioConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    e1 = dark_state_energy(cfg.params)
    bs = find_bound_states(cfg.params, e1)
    summary = {
        "label": cfg.label or "scenario",
        "e1": _c(e1),
        "band": [bs.band.lower_edge, bs.band.upper_edge],
        "count": bs.count,
        "states": [
            {
                "location": s.location,
                "energy": _c(s.energy),
                "lattice_energy": _c(s.lattice_energy),
                "residue_weight": _c(s.residue_weight),
                "pole_amplitude": _c(s.pole_amplitude),
                "significant": s.significant,
            }
            for s in bs.states
        ],
    }
    if bs.n_roots == 2:
        summary["phi"] = _c(bs.phi)
    _write_summary(out_dir / "bound_states.json", summary)
    return summary


def run_atom_spectrum(cfg: ScenarioConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    es = atom_eigensystem_exact(cfg.params)
    pert = atom_eigensystem_perturbative(cfg.params)
    dark = dark_state_vector(cfg.params)
    summary = {
        "label": cfg.label or "scenario",
        "energies_exact": [_c(e) for e in es.energies],
        "energies_perturbative": [_c(e) for e in pert],
        "dark_index": es.dark_index,
        "dark_vector_dem": [_c(v) for v in dark],
    }
    _write_summary(out_dir / "atom_spectrum.json", summary)
    return summary


def run_fit_decay(series_path: Path, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        data = np.genfromtxt(series_path, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError("series", str(exc)) from exc
    names = data.dtype.names
    if names is None or len(names) < 2:
        raise ConfigError("series", "need a CSV with a header and at least two columns")
    # One data row reads as 0-d columns.
    t, y = (np.atleast_1d(np.asarray(data[name], dtype=float)) for name in names[:2])
    fit = fit_decay(t, y, t_min=10.0)
    summary = {
        "series": str(series_path),
        "column": names[1],
        "rate": fit.rate,
        "intercept": fit.intercept,
        "r_abs": fit.r_abs,
        "t_window": list(fit.t_window),
        "n_points": fit.n_points,
        "used_envelope_peaks": fit.used_peaks,
    }
    _write_summary(out_dir / "fit_decay.json", summary)
    return summary


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbsim",
        description="EIT quantum-battery simulator: reproduce figure data or run custom scenarios.",
    )
    parser.add_argument("--out", default=None,
                        help="output directory (default: $QBSIM_OUT or ./out)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for sweeps (default: available parallelism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="regenerate a reference figure's data")
    p.add_argument("figure_id", choices=PRESET_NAMES)

    p = sub.add_parser("run", help="run a scenario config")
    p.add_argument("config", type=Path)

    p = sub.add_parser("bound-states", help="bound-state energies for a config")
    p.add_argument("config", type=Path)

    p = sub.add_parser("atom-spectrum", help="atom eigenvalues for a config")
    p.add_argument("config", type=Path)

    p = sub.add_parser("fit-decay", help="exponential decay fit of a CSV series")
    p.add_argument("series", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    out_dir = Path(args.out or os.environ.get("QBSIM_OUT") or "out")
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    try:
        if args.command == "reproduce":
            summary = run_reproduce(args.figure_id, out_dir, threads)
        elif args.command == "run":
            summary = run_custom(ScenarioConfig.from_json(args.config), out_dir, threads)
        elif args.command == "bound-states":
            summary = run_bound_states(ScenarioConfig.from_json(args.config), out_dir)
        elif args.command == "atom-spectrum":
            summary = run_atom_spectrum(ScenarioConfig.from_json(args.config), out_dir)
        elif args.command == "fit-decay":
            summary = run_fit_decay(args.series, out_dir)
        else:  # pragma: no cover
            return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QbsimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
