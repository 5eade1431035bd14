"""Ergotropy, passive states, charging power, and parameter sweeps.

Work accounting uses the Hermitian battery Hamiltonian: the kappa = 0
atom block extended by the ground level at energy zero.  Norm lost to
the non-Hermitian evolution is booked as ground-state population before
the ergotropy is evaluated, matching the Lindblad sink.

A single-excitation ket with excited atom amplitudes a = (d, e, m) has
the reduced state (1 - p)|g><g| + |a><a| with p = |a|^2, whose
populations are {1 - p, p, 0, 0}; in the effective model a = u D.  So
``ergotropy_trace`` takes W(t) of both models in closed form,
W = <a|H_B|a> - max(p, 1 - p) eps0 - min(p, 1 - p) eps1, with
eps0 <= eps1 the two lowest eigenvalues of H_B (Allahverdyan, Balian &
Nieuwenhuizen, EPL 67 (2004) 565): one 4 x 4 ``eigvalsh`` per trace instead
of one per sample.  ``ergotropy`` of an arbitrary state keeps the
``eigvalsh`` of ``_work``.

``sweep_ergotropy`` runs chunks of SWEEP_CHUNK cells, contiguous in (xi,
omega0) order.  A chunk checks the time grid and computes E1 with its gain
check, the initial state's parity split, the dark vector and the battery
levels once, and every cell's interior roots in one ``spectral.interior_roots``
call; each cell's outer roots, guards, samples, norm^2 check and W then run
through the functions ``evolve`` and ``ergotropy_trace`` use.  A cell whose
guard fails, and every cell of a chunk whose set-up or batch raises, runs
through ``ergotropy_trace``.
"""

from __future__ import annotations

import ctypes
import logging
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .dynamics import (_check_gain, _check_norm, _eigenbasis_samples, _even_blocks, _even_eigenbasis,
                       _split_parity, check_time_grid, evolve, initial_state)
from .errors import NotNormalizable, QbsimError
from .model import atom_hamiltonian, dark_state_vector
from .params import SystemParams

__all__ = [
    "BatteryState",
    "ErgotropyTrace",
    "SweepResult",
    "battery_hamiltonian",
    "reduce_battery",
    "passive_state",
    "ergotropy",
    "ergotropy_trace",
    "sweep_ergotropy",
]

#: Cells per task of ``sweep_ergotropy`` (module docstring): a fraction of a fig5
#: column, so that the workers of a sweep of a few columns finish together.
SWEEP_CHUNK = 16

logger = logging.getLogger("qbsim.thermo")


@dataclass(frozen=True)
class BatteryState:
    """4x4 reduced density matrix of the atom in the (g, d, e, m) basis."""

    rho: np.ndarray
    time: float = 0.0

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho).min())


@dataclass
class ErgotropyTrace:
    """Ergotropy W(t), average power P(t) = W(t)/t, and the window maximum."""

    times: np.ndarray
    work: np.ndarray
    power: np.ndarray
    w_max: float
    t_at_max: float
    p_dark: np.ndarray = field(default=None, repr=False)


def battery_hamiltonian(params: SystemParams) -> np.ndarray:
    """Hermitian 4x4 battery Hamiltonian: ground at 0 plus the kappa=0 atom block, which is
    the real part of ``atom_hamiltonian`` (omega_d_real - i*kappa/2 is its only complex entry)."""
    h = np.zeros((4, 4))
    h[1:, 1:] = atom_hamiltonian(params).real
    return h


def _excited_amplitudes(atom_amps: np.ndarray, params: SystemParams, model: str) -> np.ndarray:
    """The (d, e, m) amplitudes of a model's atom amplitudes: u D in the effective model."""
    if model == "effective":
        return atom_amps[..., :1] * dark_state_vector(params)
    return np.asarray(atom_amps, dtype=complex)


def _battery_rho(atom_amps: np.ndarray, params: SystemParams, model: str) -> np.ndarray:
    """Reduced state(s) from the atom amplitudes of a single-excitation ket.

    Tracing out the cavity kills every coherence between the atom-excited
    block and the ground level (the photon states are orthogonal to the
    vacuum), so rho_B is the excited-block outer product plus all the
    remaining weight on |g><g|.  Leading axes of ``atom_amps`` (samples)
    are kept: shape (..., na) gives (..., 4, 4).
    """
    bare = _excited_amplitudes(atom_amps, params, model)
    if not np.all(np.isfinite(bare)):
        raise NotNormalizable("atom amplitudes are not finite")
    rho = np.zeros(bare.shape[:-1] + (4, 4), dtype=complex)
    rho[..., 1:, 1:] = bare[..., :, None] * bare[..., None, :].conj()
    excited = np.trace(rho[..., 1:, 1:], axis1=-2, axis2=-1).real
    rho[..., 0, 0] = 1.0 - excited
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    if np.any(trace <= 0.0):
        raise NotNormalizable(f"trace {trace.min()} <= 0")
    return rho


def reduce_battery(psi, params: SystemParams, t: float = 0.0) -> BatteryState:
    """Trace the cavity modes out of a WaveFunction.

    Photon population and any norm already lost to dissipation both land
    on |g><g|.
    """
    return BatteryState(rho=_battery_rho(np.atleast_1d(psi.atom), params, psi.model), time=t)


def _passive_populations(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of rho (stacked over leading axes), in descending order."""
    return np.linalg.eigvalsh(0.5 * (rho + np.swapaxes(rho.conj(), -1, -2)))[..., ::-1]


def _work(rho: np.ndarray, h_battery: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """tr(rho H) - r . eps per stacked rho, with eps the ascending eigenvalues of H."""
    active = np.trace(rho @ h_battery, axis1=-2, axis2=-1).real
    return active - _passive_populations(rho) @ eps


def _excited_work(a: np.ndarray, h_battery: np.ndarray, eps: np.ndarray | None = None) -> np.ndarray:
    """``_work`` of the states (1 - p)|g><g| + |a><a|, p = |a|^2, for excited amplitudes a (..., 3).

    Their populations are {1 - p, p, 0, 0}, so for 0 <= p <= 1
    W = <a|H_B|a> - max(p, 1 - p) eps0 - min(p, 1 - p) eps1, with ``eps``
    the ascending eigenvalues of H_B (computed here if not given).
    """
    if eps is None:
        eps = np.linalg.eigvalsh(h_battery)
    a_conj = a.conj()
    p = (a_conj * a).real.sum(axis=-1)
    trace = (1.0 - p) + p
    if not np.all(np.isfinite(trace)) or np.any(trace <= 0.0):
        raise NotNormalizable(f"trace {trace.min()} is not positive and finite")
    active = (a_conj * (a @ h_battery[1:, 1:])).real.sum(axis=-1)  # H_B is real symmetric
    return active - np.maximum(p, 1.0 - p) * eps[0] - np.minimum(p, 1.0 - p) * eps[1]


def passive_state(rho: BatteryState, h_battery: np.ndarray) -> BatteryState:
    """Zero-ergotropy rearrangement of ``rho``.

    Eigenvalues of rho in descending order are attached to the eigenstates
    of the battery Hamiltonian in ascending energy order; ties broken by
    the stable sort, which leaves the ergotropy unchanged within a
    degenerate block.
    """
    _, vecs = np.linalg.eigh(h_battery)
    out = (vecs * _passive_populations(rho.rho)) @ vecs.conj().T
    return BatteryState(rho=out, time=rho.time)


def ergotropy(rho: BatteryState, h_battery: np.ndarray) -> float:
    """W = tr(rho H) - tr(passive(rho) H); nonnegative by construction."""
    return float(_work(rho.rho, h_battery, np.linalg.eigvalsh(h_battery)))


@dataclass(frozen=True)
class ChargingScenario:
    """What to evolve for an ergotropy trace: params + initial condition."""

    params: SystemParams
    photon_site: int | None = 1
    model: str = "effective"

    def initial_state(self):
        return initial_state(self.params, self.model, self.photon_site)


def ergotropy_trace(scenario: ChargingScenario, t_grid: np.ndarray) -> ErgotropyTrace:
    """Evolve the scenario and compute W(t) and P(t) = W(t)/t on the grid.

    P(0) is defined as 0.
    """
    params = scenario.params
    series = evolve(scenario.initial_state(), np.asarray(t_grid, dtype=float), params)
    work = _excited_work(_excited_amplitudes(series.atom_amps, params, scenario.model),
                         battery_hamiltonian(params))
    power = np.zeros_like(work)
    power[1:] = work[1:] / series.times[1:]
    imax = int(np.argmax(work))
    return ErgotropyTrace(
        times=series.times,
        work=work,
        power=power,
        w_max=float(work[imax]),
        t_at_max=float(series.times[imax]),
        p_dark=series.p_dark,
    )


@dataclass
class SweepResult:
    """W_max over an (omega0, xi) grid; failed cells are NaN."""

    omega0_grid: np.ndarray
    xi_grid: np.ndarray
    w_max: np.ndarray  # shape (len(omega0_grid), len(xi_grid))
    errors: dict = field(default_factory=dict)


def _sweep_chunk(task) -> list[tuple[int, int, float, str]]:
    """(i, j, W_max, error) of each cell of a chunk (module docstring)."""
    cells, params_base, photon_site, t_max, nt = task
    t_grid, dt_grid = check_time_grid(np.linspace(0.0, t_max, nt))
    t0, out, todo = time.perf_counter(), [], []
    for i, j, omega0, xi in cells:
        try:
            todo.append((i, j, params_base.replace(omega0=omega0, xi=xi)))
        except QbsimError as exc:
            out.append((i, j, float("nan"), str(exc)))
    paths, interior, reason = Counter(["failed"] * len(out)), None, "evolve (g = 0)"
    try:
        atom_block = _even_blocks(params_base, "effective", None)[0]
        _check_gain(atom_block, t_grid[-1])
        psi0 = initial_state(params_base, "effective", photon_site)
        even0, odd0 = _split_parity(psi0.photon)
        psi_init, odd_norm2 = np.concatenate([psi0.atom, even0]), np.vdot(odd0, odd0).real
        e1, dark, h_b = complex(atom_block[0, 0]), dark_state_vector(params_base), battery_hamiltonian(params_base)
        eps = np.linalg.eigvalsh(h_b)
        if params_base.g != 0.0:  # at g = 0 evolve takes the atom block's eigenbasis
            interior = spectral.interior_roots([p.omega0 for *_, p in todo], [p.xi for *_, p in todo], e1,
                                               params_base.g, params_base.n_cavities)
    except QbsimError as exc:
        reason = f"evolve ({exc})"
    roots_s, samples_s = time.perf_counter() - t0, 0.0
    for k, (i, j, params) in enumerate(todo):
        t1, path = time.perf_counter(), reason
        try:
            if interior is not None:
                basis, path = _even_eigenbasis(params, *_even_blocks(params, "effective", e1), psi_init, interior[k])
            t2 = time.perf_counter()
            roots_s += t2 - t1
            if path != "eigenbasis":  # a guard failed, or the chunk has no roots
                w = ergotropy_trace(ChargingScenario(params=params, photon_site=photon_site), t_grid).w_max
            else:
                amps, norm2, _ = _eigenbasis_samples(*basis, dt_grid, nt, 1)
                _check_norm(norm2 + odd_norm2, f"exact steps of dt {dt_grid:.4g}")
                w = float(_excited_work(amps[:, :1] * dark, h_b, eps).max())  # excited amplitudes u D
                samples_s += time.perf_counter() - t2
            out.append((i, j, w, ""))
        except QbsimError as exc:
            path = "failed"
            out.append((i, j, float("nan"), str(exc)))
        paths[path] += 1
    logger.debug("sweep chunk: %d cells; %s; roots %.4f s, samples %.4f s, evolve %.4f s", len(cells),
                 ", ".join(f"{n} {path}" for path, n in paths.items()), roots_s, samples_s,
                 time.perf_counter() - t0 - roots_s - samples_s)
    return out


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread per sweep worker, as the workers already fill the cores.

    Calls the thread setters of the OpenBLAS builds bundled with numpy and
    scipy, found in /proc/self/maps; does nothing where the file, a library
    or a setter is missing.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def sweep_ergotropy(
    omega0_grid,
    xi_grid,
    params_base: SystemParams,
    t_max: float,
    nt: int = 501,
    photon_site: int | None = 1,
    n_workers: int | None = None,
) -> SweepResult:
    """W_max(omega0, xi) over the grid within the window [0, t_max].

    Every cell starts from a photon at cavity ``photon_site``, or from the
    atom in |m> when it is None, in the effective model.

    Chunks of cells (module docstring) run in parallel processes with one
    BLAS thread each, unless there is one chunk or one worker.  A failing
    cell records NaN plus its error message instead of aborting the sweep.
    Each chunk logs its cell count, the count of each path and its seconds
    on roots (with the set-up), on samples and in ``evolve`` at DEBUG level.
    """
    omega0_grid = np.asarray(omega0_grid, dtype=float)
    xi_grid = np.asarray(xi_grid, dtype=float)
    cells = [(i, j, float(om0), float(xi)) for j, xi in enumerate(xi_grid) for i, om0 in enumerate(omega0_grid)]
    tasks = [(cells[start:start + SWEEP_CHUNK], params_base, photon_site, t_max, nt)
             for start in range(0, len(cells), SWEEP_CHUNK)]
    w = np.full((len(omega0_grid), len(xi_grid)), np.nan)
    errors: dict = {}
    pool = (ProcessPoolExecutor(max_workers=n_workers, initializer=_one_blas_thread)
            if len(tasks) > 1 and (n_workers is None or n_workers > 1) else None)
    with pool or nullcontext():
        for chunk in map(_sweep_chunk, tasks) if pool is None else pool.map(_sweep_chunk, tasks):
            for i, j, val, err in chunk:
                w[i, j] = val
                if err:
                    errors[(i, j)] = err
    return SweepResult(omega0_grid=omega0_grid, xi_grid=xi_grid, w_max=w, errors=errors)
