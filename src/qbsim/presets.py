"""Scenario configuration (JSON round-trip) and built-in figure presets.

A scenario bundles SystemParams, an initial condition, a time grid, a
model selector, and optional sweep grids.  Configs serialize to JSON with
a required ``schema_version``; unknown keys and values of the wrong type
are rejected, naming the field, so that typos fail loudly instead of
silently using defaults or failing deep inside a run.

The figure presets encode the parameter sets of the reference scenarios.
Frequencies are in units of the hopping xi for fig2-fig4 and of the
control Rabi frequency Omega_c for fig5-fig7 (the ``unit`` field records
which).  Couplings that the scenario descriptions leave unstated are
fixed here at the values that reproduce the reported observables; see
each preset's comment.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .params import SystemParams

__all__ = ["ScenarioConfig", "preset", "PRESET_NAMES"]

SCHEMA_VERSION = 1

PARAM_KEYS = {f.name for f in fields(SystemParams)}
TOP_KEYS = {"schema_version", "unit", "label", "params", "initial", "time", "model", "sweep"}
MODELS = ("effective", "full", "lindblad", "analytic")


def _check_keys(section, allowed: set, name: str = "") -> dict:
    """``section`` itself, once it is a JSON object with keys from ``allowed``; ``name`` prefixes its fields."""
    if not isinstance(section, dict):
        raise ConfigError(name, f"must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{name}.{min(unknown)}" if name else min(unknown), "unknown key")
    return section


def _real(value, name: str):
    """``value`` itself, once it is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(name, f"must be a finite number, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    return int(value)


def _grid(value, name: str) -> tuple:
    """A sweep grid: a list of finite numbers, as a tuple."""
    if not isinstance(value, list):
        raise ConfigError(name, f"must be a list of numbers, got {value!r}")
    return tuple(_real(v, name) for v in value)


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable scenario; validated on construction."""

    params: SystemParams
    model: str = "effective"
    photon_site: int | None = 0  # None means the atom starts in |m>
    t_max: float = 100.0
    dt: float = 0.025
    unit: str = "xi"
    label: str = ""
    sweep_omega0: tuple[float, ...] | None = None
    sweep_xi: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError("model", f"must be one of {MODELS}, got {self.model!r}")
        if self.unit not in ("xi", "omega_c"):
            raise ConfigError("unit", f"must be 'xi' or 'omega_c', got {self.unit!r}")
        if not self.t_max > 0:
            raise ConfigError("time.t_max", f"must be > 0, got {self.t_max}")
        if not 0 < self.dt <= self.t_max:
            raise ConfigError("time.dt", f"must be in (0, t_max], got {self.dt}")
        if not math.isclose(round(self.t_max / self.dt) * self.dt, self.t_max, rel_tol=1e-9):
            raise ConfigError("time.dt", f"must divide t_max = {self.t_max} into whole steps, got {self.dt}")
        if (self.sweep_omega0 is not None or self.sweep_xi is not None) and self.model != "effective":
            raise ConfigError("model", f"a sweep runs the effective model, got {self.model!r}")
        if self.photon_site is not None and not 0 <= self.photon_site < self.params.n_cavities:
            raise ConfigError("initial.site", f"site {self.photon_site} outside 0..{self.params.n_cavities - 1}")
        # The label names the output files, so it must stay one file-name stem inside --out.
        if (not isinstance(self.label, str) or self.label in (".", "..")
                or any(c in self.label for c in "/\\\0")):
            raise ConfigError("label", f"must be a file-name stem without '/', '\\' or NUL, "
                                       f"and not '.' or '..'; got {self.label!r}")

    def time_grid(self) -> np.ndarray:
        n = int(round(self.t_max / self.dt))
        return np.linspace(0.0, n * self.dt, n + 1)

    # -- JSON round-trip ----------------------------------------------------

    def to_dict(self) -> dict:
        initial = {"kind": "atom_m"} if self.photon_site is None else {
            "kind": "photon_site", "site": self.photon_site}
        out = {
            "schema_version": SCHEMA_VERSION,
            "unit": self.unit,
            "label": self.label,
            "params": asdict(self.params),
            "initial": initial,
            "time": {"t_max": self.t_max, "dt": self.dt},
            "model": self.model,
        }
        if self.sweep_omega0 is not None or self.sweep_xi is not None:
            out["sweep"] = {}
            if self.sweep_omega0 is not None:
                out["sweep"]["omega0"] = list(self.sweep_omega0)
            if self.sweep_xi is not None:
                out["sweep"]["xi"] = list(self.sweep_xi)
        return out

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        _check_keys(data, TOP_KEYS)
        if _integer(data.get("schema_version"), "schema_version") != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"must be {SCHEMA_VERSION}, got {data.get('schema_version')!r}")
        raw_params = _check_keys(data.get("params"), PARAM_KEYS, "params")
        missing = PARAM_KEYS - set(raw_params)
        if missing:
            raise ConfigError(f"params.{sorted(missing)[0]}", "missing")
        for key, value in raw_params.items():
            _real(value, f"params.{key}")
        _integer(raw_params["n_cavities"], "params.n_cavities")
        params = SystemParams(**raw_params)

        initial = _check_keys(data.get("initial", {"kind": "photon_site", "site": 0}), {"kind", "site"}, "initial")
        kind = initial.get("kind")
        if kind == "atom_m":
            site = None
        elif kind == "photon_site":
            site = _integer(initial.get("site", 0), "initial.site")
        else:
            raise ConfigError("initial.kind", f"must be 'photon_site' or 'atom_m', got {kind!r}")

        time = _check_keys(data.get("time", {}), {"t_max", "dt"}, "time")
        sweep = _check_keys(data.get("sweep") or {}, {"omega0", "xi"}, "sweep")

        return cls(
            params=params,
            model=data.get("model", "effective"),
            photon_site=site,
            t_max=float(_real(time.get("t_max", 100.0), "time.t_max")),
            dt=float(_real(time.get("dt", 0.025), "time.dt")),
            unit=data.get("unit", "xi"),
            label=data.get("label", ""),
            sweep_omega0=_grid(sweep["omega0"], "sweep.omega0") if "omega0" in sweep else None,
            sweep_xi=_grid(sweep["xi"], "sweep.xi") if "xi" in sweep else None,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("<file>", "top level must be a JSON object")
        return cls.from_dict(data)


# -- built-in presets -----------------------------------------------------------


def _xi_unit_params(g: float, omega_d: float, omega_e: float, kappa: float = 20.0 / 3.0) -> SystemParams:
    return SystemParams.with_dark_coupling(
        g=g,
        omega0=100.0 / 3.0,
        xi=1.0,
        n_cavities=253,
        omega_p_rabi=50.0 / 3.0,
        omega_c_rabi=5.0 / 3.0,
        omega_d_real=omega_d,
        kappa=kappa,
        omega_e_level=omega_e,
        omega_m_level=omega_d,
        # The reported atom eigenvalues are reproduced (to <0.3% per
        # component) with the bare e-level energy on the diagonal, i.e.
        # the rotating-frame detuning equals Omega_e.
        delta_e=omega_e,
    )


def _omega_c_unit_params(g: float, kappa: float, omega0: float, xi: float) -> SystemParams:
    return SystemParams.with_dark_coupling(
        g=g,
        omega0=omega0,
        xi=xi,
        n_cavities=253,
        omega_p_rabi=10.0,
        omega_c_rabi=1.0,
        omega_d_real=21.2,
        kappa=kappa,
        omega_e_level=30.0,
        omega_m_level=21.2,
        delta_e=30.0,
    )


_PRESETS = {
    # Bound-state count vs dark-state energy; E1 is swept externally.
    "fig2": ScenarioConfig(
        params=SystemParams.with_dark_coupling(
            g=0.3, omega0=20.0, xi=1.0, n_cavities=253,
            omega_p_rabi=50.0 / 3.0, omega_c_rabi=5.0 / 3.0,
            omega_d_real=20.0, kappa=0.0, omega_e_level=50.0,
            omega_m_level=20.0, delta_e=50.0),
        model="analytic", photon_site=0, t_max=1.0, dt=1.0,
        unit="xi", label="fig2",
    ),
    # Dark state inside the band; coupling not stated there, so the
    # fig2 value g = 0.3 xi is used.
    "fig3a": ScenarioConfig(
        params=_xi_unit_params(g=0.3, omega_d=106.0 / 3.0, omega_e=50.0),
        model="effective", photon_site=0, t_max=100.0, dt=0.025,
        unit="xi", label="fig3a",
    ),
    # Dark state far above the band.
    "fig3b": ScenarioConfig(
        params=_xi_unit_params(g=0.3, omega_d=200.0 / 3.0, omega_e=100.0),
        model="effective", photon_site=0, t_max=50.0, dt=0.025,
        unit="xi", label="fig3b",
    ),
    # Lifetime suppression with two bound states.  The reported decay
    # rates (kappa' = 2.6487e-2 xi with gamma/kappa' ~ 2.4) require the
    # dark state resonant with the band center and a coupling g = 3.45
    # xi: the fitted kappa'/gamma ratio equals the bound-state residue
    # weight, which is pinned near 0.65 for a dark state at the band
    # edge and reaches the reported 0.41 only near band center.
    "fig4": ScenarioConfig(
        params=_xi_unit_params(g=3.45, omega_d=100.0 / 3.0, omega_e=50.0),
        model="effective", photon_site=None, t_max=100.0, dt=0.0125,
        unit="xi", label="fig4",
    ),
    "fig5": ScenarioConfig(
        params=_omega_c_unit_params(g=2.05, kappa=4.0, omega0=21.196, xi=1.0),
        model="effective", photon_site=1, t_max=15.0, dt=0.05,
        unit="omega_c", label="fig5",
        sweep_omega0=tuple(np.round(np.linspace(19.2, 23.2, 41), 10)),
        sweep_xi=tuple(np.round(np.linspace(0.2, 2.2, 21), 10)),
    ),
    # kappa = 2 Omega_c as stated for this scenario; the quoted
    # E1 = (21.196 - 0.019i) Omega_c actually corresponds to kappa = 4,
    # and the exact eigensolver value at kappa = 2 is used here.
    "fig6": ScenarioConfig(
        params=_omega_c_unit_params(g=2.05, kappa=2.0, omega0=21.196, xi=1.22),
        model="effective", photon_site=1, t_max=15.0, dt=0.05,
        unit="omega_c", label="fig6",
        sweep_xi=tuple(np.round(np.arange(0.3, 3.001, 0.1), 10)),
    ),
    "fig7": ScenarioConfig(
        params=_omega_c_unit_params(g=2.05, kappa=4.0, omega0=21.196, xi=1.0),
        model="effective", photon_site=1, t_max=15.0, dt=0.025,
        unit="omega_c", label="fig7",
        sweep_xi=tuple(np.round(np.arange(0.3, 3.001, 0.15), 10)),
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """The built-in scenario named ``name``, one of PRESET_NAMES; it is frozen, so every call shares it."""
    if name not in _PRESETS:
        raise ConfigError("figure_id", f"unknown preset {name!r}")
    return _PRESETS[name]
