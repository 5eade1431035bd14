"""Every ``qbsim reproduce`` figure against ``figure_references.json``.

The file holds each figure's summary scalars and its CSV columns (the
time series of fig3a, fig3b, fig4 and fig7 thinned to every THIN-th
sample, fig5's whole W_max grid), written by
``tests/make_figure_references.py``.  The test reruns fig2, fig3a, fig3b,
fig4, fig6 and fig7 in process at one worker, and fig5 on the xi columns
FIG5_COLUMNS only, about 0.8 s in all.  Counts, flags, labels and
argmaxes must match exactly; every other value within VALUE_RTOL of the
largest magnitude in its field.  A change that moves a figure on purpose
regenerates the file with the script and lists each moved field in
CHANGES.md; VALUE_RTOL is never widened to absorb a move.
"""

import json
from pathlib import Path

import numpy as np

from qbsim import cli, thermo
from qbsim.presets import preset

REFERENCE_FILE = Path(__file__).with_name("figure_references.json")
FIGURES = ("fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7")
THIN = 10
FIG5_COLUMNS = (10,)  # xi = 1.2, the middle of the grid
VALUE_RTOL = 1e-12
# Float fields that are positions on an input grid, compared exactly like counts.
ARGMAX_FIELDS = ("count", "argmax_omega0_per_xi", "argmax_xi_grid", "global_peak_xi", "peak_time")
GRID_COLUMNS = ("t", "xi", "omega0", "e1")  # the inputs of each CSV row, not outputs


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}", item, out)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            _flatten(f"{prefix}.{i}", item, out)
    else:
        out[prefix] = value


def _is_value(key: str, value) -> bool:
    """A float field compared at VALUE_RTOL; everything else is compared exactly."""
    items = value if isinstance(value, list) else [value]
    return (key.rsplit(".", 1)[-1] not in ARGMAX_FIELDS
            and all(isinstance(v, float) for v in items) and len(items) > 0)


def figure_record(figure_id: str, out_dir: Path) -> dict:
    """{"exact": ..., "values": ...} of one figure from ``cli.run_reproduce`` at one worker."""
    summary = cli.run_reproduce(figure_id, out_dir, threads=1)
    fields: dict = {}
    _flatten(figure_id, {k: v for k, v in summary.items() if k != "preset"}, fields)
    for name in summary["files"]:
        table = np.genfromtxt(out_dir / name, delimiter=",", names=True)
        thin = THIN if figure_id in ("fig3a", "fig3b", "fig4", "fig7") else 1
        for column in table.dtype.names:
            if column not in GRID_COLUMNS:
                fields[f"{figure_id}.{column}"] = table[column][::thin].tolist()
    record: dict = {"exact": {}, "values": {}}
    for key, value in fields.items():
        record["values" if _is_value(key, value) else "exact"][key] = value
    return record


def _fig5_columns(columns) -> dict:
    """fig5's W_max and argmax on the given xi columns, the way ``reproduce fig5`` computes them."""
    cfg = preset("fig5")
    res = thermo.sweep_ergotropy(cfg.sweep_omega0, [cfg.sweep_xi[j] for j in columns], cfg.params,
                                 t_max=cfg.t_max, nt=int(round(cfg.t_max / cfg.dt)) + 1,
                                 photon_site=cfg.photon_site, n_workers=1)
    return {"w_max": res.w_max, "argmax": res.omega0_grid[np.nanargmax(res.w_max, axis=0)]}


def _relative_deviation(new, ref) -> float:
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    scale = np.max(np.abs(ref), initial=0.0, where=~np.isnan(ref))
    diff = np.max(np.abs(new - ref), initial=0.0, where=~np.isnan(ref))
    return float(diff / scale) if scale > 0.0 else float(diff)


def test_figures_match_references(tmp_path):
    reference = json.loads(REFERENCE_FILE.read_text())["figures"]
    mismatched, deviations = [], {}
    for figure_id in FIGURES:
        if figure_id == "fig5":
            continue
        record = figure_record(figure_id, tmp_path / figure_id)
        ref = reference[figure_id]
        assert sorted(record["exact"]) == sorted(ref["exact"]) and sorted(record["values"]) == sorted(
            ref["values"]), f"{figure_id}: fields differ from the reference file"
        mismatched += [key for key, value in record["exact"].items() if value != ref["exact"][key]]
        for key, value in record["values"].items():
            new, old = np.asarray(value, dtype=float), np.asarray(ref["values"][key], dtype=float)
            if not np.array_equal(np.isnan(new), np.isnan(old)):
                mismatched.append(key)
            deviations[key] = _relative_deviation(new, old)
    fig5, ref5 = _fig5_columns(FIG5_COLUMNS), reference["fig5"]
    grid = np.asarray(ref5["values"]["fig5.w_max"]).reshape(len(fig5["w_max"]), -1)
    for i, j in enumerate(FIG5_COLUMNS):
        if fig5["argmax"][i] != ref5["exact"]["fig5.argmax_omega0_per_xi"][j]:
            mismatched.append(f"fig5.argmax_omega0_per_xi[{j}]")
        deviations[f"fig5.w_max[:, {j}]"] = _relative_deviation(fig5["w_max"][:, i], grid[:, j])
    worst = max(deviations, key=deviations.get)
    print(f"[figures] worst relative deviation {deviations[worst]:.2e} in {worst}")
    assert not mismatched, f"exact fields differ from the reference: {', '.join(mismatched)}"
    assert deviations[worst] <= VALUE_RTOL, (
        f"{worst} deviates from the reference by {deviations[worst]:.3e} relative, above {VALUE_RTOL:g}")
