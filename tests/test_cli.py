import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbsim
from qbsim import cli
from qbsim.cli import main
from qbsim.errors import ConfigError
from qbsim.presets import PRESET_NAMES, ScenarioConfig, preset
from qbsim.thermo import sweep_ergotropy


@pytest.fixture
def small_config(tmp_path):
    cfg = preset("fig3a")
    cfg = ScenarioConfig(
        params=cfg.params.replace(n_cavities=21),
        model=cfg.model, photon_site=cfg.photon_site,
        t_max=5.0, dt=0.05, unit=cfg.unit, label="small",
    )
    path = tmp_path / "small.json"
    cfg.to_json(path)
    return cfg, path


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports qbsim from this source tree."""
    src = str(Path(qbsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


class TestScenarioConfig:
    def test_round_trip_all_presets(self, tmp_path):
        for name in PRESET_NAMES:
            cfg = preset(name)
            path = tmp_path / f"{name}.json"
            cfg.to_json(path)
            assert ScenarioConfig.from_json(path) == cfg

    def test_unknown_top_level_key(self):
        data = preset("fig3a").to_dict()
        data["tmax"] = 3.0
        with pytest.raises(ConfigError, match="tmax"):
            ScenarioConfig.from_dict(data)

    def test_unknown_param_key(self):
        data = preset("fig3a").to_dict()
        data["params"]["coupling"] = 1.0
        with pytest.raises(ConfigError, match="params.coupling"):
            ScenarioConfig.from_dict(data)

    def test_bad_schema_version(self):
        data = preset("fig3a").to_dict()
        data["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            ScenarioConfig.from_dict(data)

    def test_invalid_xi_names_field(self):
        data = preset("fig3a").to_dict()
        data["params"]["xi"] = -1.0
        with pytest.raises(ConfigError, match="xi"):
            ScenarioConfig.from_dict(data)


class TestCli:
    def test_python_m_qbsim_help(self):
        done = _fresh_python("-m", "qbsim", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: qbsim")
        assert "reproduce" in done.stdout

    def test_import_loads_no_scipy(self):
        # scipy was most of the start-up time, and no figure calls it.
        done = _fresh_python("-c", "import sys, qbsim.cli; print([m for m in sys.modules if 'scipy' in m])")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_package_runs_without_scipy(self):
        # The branch-cut rule and the Lindblad dense exponential are numpy only.
        done = _fresh_python("-c", """
import sys
import numpy as np
from qbsim import _kernels, atom_eigensystem_exact, spectral
from qbsim.dynamics import initial_state_photon_at_site
from qbsim.lindblad import initial_density_matrix, lindblad_evolve
from qbsim.presets import preset
p = preset("fig3a").params.replace(n_cavities=21)
e1 = atom_eigensystem_exact(p).dark_energy
assert type(spectral.branch_cut_integral(0.0, p, e1)) is complex
assert spectral.branch_cut_integral(np.linspace(0.0, 5.0, 4), p, e1).shape == (4,)
spectral.analytic_amplitude(np.linspace(0.0, 5.0, 4), p, e1, include_branch_cut=True, initial="atom")
_kernels.EIGENBASIS_MAX_COND = 0.0  # cond(V) >= 1, so the dense exponential runs
rho0 = initial_density_matrix(initial_state_photon_at_site(0, p, "full", "site"), p)
lindblad_evolve(rho0, np.linspace(0.0, 0.2, 3), p)
print([m for m in sys.modules if 'scipy' in m])
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_invalid_xi_exit_code_2(self, tmp_path, capsys):
        data = preset("fig3a").to_dict()
        data["params"]["xi"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["--out", str(tmp_path / "out"), "run", str(path)])
        assert code == 2
        assert "xi" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["full", "lindblad", "analytic"])
    def test_sweep_of_another_model_exit_code_2(self, tmp_path, capsys, model):
        # A sweep runs the effective model; it must not report that model's W_max under another name.
        data = preset("fig6").to_dict()
        data["params"]["n_cavities"] = 21
        data["sweep"] = {"xi": [1.0]}
        data["model"] = model
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["--out", str(tmp_path / "out"), "--threads", "1", "run", str(path)]) == 2
        assert "model:" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [False, True], ids=["series", "sweep"])
    def test_dt_that_does_not_divide_t_max_exit_code_2(self, tmp_path, capsys, sweep):
        # With t_max 1.0 and dt 0.3 a series would end at 0.9 and a sweep would sample every 1/3.
        data = preset("fig6").to_dict()
        data["params"]["n_cavities"] = 21
        data["time"] = {"t_max": 1.0, "dt": 0.3}
        if not sweep:
            del data["sweep"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["--out", str(tmp_path / "out"), "--threads", "1", "run", str(path)]) == 2
        assert "time.dt:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("time", "t_max", "abc"),
        ("initial", "site", "x"),
        ("params", "xi", "1.0"),
        ("params", "n_cavities", 21.5),
        ("", "schema_version", True),  # True == 1, but it is not an integer
    ])
    def test_wrong_typed_value_exit_code_2(self, tmp_path, capsys, section, key, value):
        data = preset("fig3a").to_dict()
        (data[section] if section else data)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 2
        assert (f"{section}.{key}" if section else f"{key}:") in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["../escape", "sub/dir", "sub\\dir", "..", ["x"]])
    def test_label_outside_out_exit_code_2(self, tmp_path, capsys, label):
        data = preset("fig3a").to_dict()
        data["params"]["n_cavities"] = 21
        data["time"] = {"t_max": 1.0, "dt": 0.05}
        data["label"] = label
        path = tmp_path / "cfgs" / "inner" / "bad.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(data))
        assert main(["--out", str(tmp_path / "out" / "inner"), "run", str(path)]) == 2
        assert "label:" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()) == [
            "cfgs/inner/bad.json"]

    def test_sweep_starts_from_the_configured_initial_state(self, tmp_path, capsys):
        base = preset("fig6")
        cfg = ScenarioConfig(params=base.params.replace(n_cavities=21, xi=1.0), photon_site=None,
                             t_max=15.0, dt=0.05, unit="omega_c", label="atom_sweep", sweep_xi=(1.0,))
        path = tmp_path / "atom_sweep.json"
        cfg.to_json(path)
        assert main(["--out", str(tmp_path / "out"), "--threads", "1", "run", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        direct = sweep_ergotropy([cfg.params.omega0], [1.0], cfg.params, t_max=15.0, nt=301,
                                 photon_site=None, n_workers=1)
        assert summary["w_max_global"] == direct.w_max[0, 0]

    def test_csv_text(self, tmp_path):
        path = tmp_path / "x.csv"
        cli._write_csv(path, ["x", "n"], [np.array([0.1, 1 / 3, -0.0, 1e-300, np.nan]), [0, 1, 2, 3, 10**6]])
        # 17 significant digits with trailing zeros dropped; NaN is an empty field.
        assert path.read_text() == ("x,n\n0.10000000000000001,0\n0.33333333333333331,1\n-0,2\n"
                                    "1e-300,3\n,1000000\n")

    def test_run_twice_byte_identical(self, small_config, tmp_path, capsys):
        cfg, path = small_config
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--out", str(out1), "run", str(path)]) == 0
        assert main(["--out", str(out2), "run", str(path)]) == 0
        capsys.readouterr()
        assert (out1 / "small_series.csv").read_bytes() == (out2 / "small_series.csv").read_bytes()

    def test_analytic_model_single_state_no_oscillation(self, tmp_path, capsys):
        base = preset("fig3b")
        cfg = ScenarioConfig(params=base.params.replace(n_cavities=21), model="analytic",
                             photon_site=0, t_max=50.0, dt=0.1, unit="xi", label="one_pole")
        path = tmp_path / "one.json"
        cfg.to_json(path)
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 0
        capsys.readouterr()
        rows = np.genfromtxt(tmp_path / "out" / "one_pole_series.csv", delimiter=",", names=True)
        p = rows["p_dark"]
        tail = p[len(p) // 3:]
        assert np.all(np.diff(tail) <= 1e-12)  # pure decay, no oscillation

    def test_bound_states_and_atom_spectrum(self, small_config, tmp_path, capsys):
        _, path = small_config
        out = tmp_path / "out"
        assert main(["--out", str(out), "bound-states", str(path)]) == 0
        assert main(["--out", str(out), "atom-spectrum", str(path)]) == 0
        capsys.readouterr()
        bs = json.loads((out / "bound_states.json").read_text())
        assert {"e1", "band", "count", "states"} <= set(bs)
        spec = json.loads((out / "atom_spectrum.json").read_text())
        assert len(spec["energies_exact"]) == 3

    def test_fit_decay_command(self, tmp_path, capsys):
        t = np.linspace(0, 60, 601)
        p = np.exp(-0.04 * t)
        csv = tmp_path / "series.csv"
        with open(csv, "w") as fh:
            fh.write("t,p_dark\n")
            for ti, pi in zip(t, p):
                fh.write(f"{ti},{pi}\n")
        assert main(["--out", str(tmp_path / "out"), "fit-decay", str(csv)]) == 0
        capsys.readouterr()
        fit = json.loads((tmp_path / "out" / "fit_decay.json").read_text())
        assert fit["rate"] == pytest.approx(0.04, rel=1e-6)

    def test_reproduce_fig4_runs_without_the_dense_kernel(self, tmp_path, monkeypatch, capsys):
        # Both fig4 runs, the bare atom at g = 0 included, propagate in an eigenbasis.
        monkeypatch.setattr(qbsim._kernels, "rk4_schrodinger", None)
        assert main(["--out", str(tmp_path), "reproduce", "fig4"]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "fig4_summary.json").read_text())
        assert summary["r_abs_no_cavity"] >= 0.99 and summary["gamma"] > 0.0

    @pytest.mark.parametrize("threads", ["-4", "0"])
    def test_threads_below_one_exit_code_2(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "--threads", threads, "reproduce", "fig6"])
        assert exc.value.code == 2
        assert f"argument --threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not tmp_path.joinpath("fig6_wmax_vs_xi.csv").exists()

    def test_reproduce_rejects_unknown_figure(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--out", str(tmp_path), "reproduce", "fig9"])

    def test_numerical_failure_exit_code_3(self, tmp_path, capsys):
        # A series that dips to zero past the fit window cannot be log-fitted.
        t = np.linspace(0, 60, 121)
        p = np.maximum(1.0 - 0.03 * t, 0.0)
        csv = tmp_path / "bad_series.csv"
        with open(csv, "w") as fh:
            fh.write("t,p\n")
            for ti, pi in zip(t, p):
                fh.write(f"{ti},{pi}\n")
        code = main(["--out", str(tmp_path / "out"), "fit-decay", str(csv)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, got", [("", 0), ("20,0.5\n", 1)], ids=["header_only", "one_row"])
    def test_fit_decay_too_short_exit_code_3(self, tmp_path, capsys, rows, got):
        # One data row reads as 0-d columns, which must fail like an empty series.
        csv = tmp_path / "short.csv"
        csv.write_text("t,p\n" + rows)
        assert main(["--out", str(tmp_path / "out"), "fit-decay", str(csv)]) == 3
        assert f"need at least 2 points to fit, got {got}" in capsys.readouterr().err

    def test_run_full_and_lindblad_models(self, tmp_path, capsys):
        base = preset("fig3a")
        for model in ("full", "lindblad"):
            cfg = ScenarioConfig(params=base.params.replace(n_cavities=21),
                                 model=model, photon_site=0, t_max=2.0, dt=0.05,
                                 unit="xi", label=model)
            path = tmp_path / f"{model}.json"
            cfg.to_json(path)
            assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 0
            capsys.readouterr()
            assert (tmp_path / "out" / f"{model}_series.csv").exists()

    def test_full_precision_csv(self, small_config, tmp_path, capsys):
        _, path = small_config
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 0
        capsys.readouterr()
        lines = (out / "small_series.csv").read_text().splitlines()
        # a norm2 column value written with 17 significant digits round-trips
        val = lines[40].split(",")[2]
        assert float(val) == float(f"{float(val):.17g}")
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 16
