"""Single-excitation Schrodinger dynamics for the effective and full models.

The effective model keeps the dark state |0, E1> plus the photon
amplitudes; the full model carries all three atom levels (d, e, m) in the
cavity vacuum plus the photon amplitudes, with the bright states and their
fast decay retained.  Both use the non-Hermitian atom energy
omega_d_real - i*kappa/2, so at kappa > 0 the norm leaks monotonically.

Propagation is fixed-step RK4 with step <= 0.02 / max|diag| after removing
the energy centroid: a uniform diagonal shift only changes the global
phase, never |amplitudes|, and keeps the step criterion tied to physical
frequency spreads instead of the absolute energy offset.

``evolve`` propagates only the parity-even sector.  H is symmetric under
the reflection j -> -j (mod N) about the atom's cavity, so the atom couples
only to k = 0 and (|k> + |-k>)/sqrt(2); the (N-1)/2 odd states
(|k> - |-k>)/sqrt(2) never reach it and are eigenstates of H, so each odd
amplitude advances in closed form by the scalar RK4 factor
P(-i dt (omega_k - centroid))^n_sub per sample.  The even sector, na +
(N+1)/2 states, goes to ``_kernels.rk4_schrodinger`` as the dense, shifted
H of the ``even`` blocks: one precomputed matrix P(-i dt H)^n_sub per
sample at every kappa, 3 x 16 dim^2 bytes; a fig5 cell at N = 1001 takes
0.11-0.15 s on one BLAS thread.  Site-space states are propagated in the
mode basis; ``norm2`` and ``final_state`` describe the full state.
StepSizeTooLarge is raised before propagating, at kappa = 0, if one RK4
step grows the norm^2 of an eigencomponent by more than NORM_GROWTH_TOL:
the factor is |P(-i dt lambda)|^2 = 1 - y^6/72 + y^8/576, y = dt lambda
(Hairer & Wanner, Solving ODEs II, IV.2), and a state's one-step ratio is
its weighted mean, so ``eigvalsh`` of the shifted even H bounds every step
(E1's rounding-level imaginary part is ignored); and after propagating,
at every kappa, if norm^2 rises above its start by more than
NORM_GROWTH_TOL or is not finite.  Each call logs its model,
representation, dims, n_sub, dt, step count and the time spent building
the matrix and propagating to the ``qbsim.dynamics`` logger at DEBUG level.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import IndexOutOfRange, OutOfRange, StepSizeTooLarge
from .model import assemble_hamiltonian, dark_state_vector, hamiltonian_blocks
from .params import SystemParams

__all__ = [
    "WaveFunction",
    "TimeSeries",
    "initial_state_photon_at_site",
    "initial_state_atom_m",
    "initial_state",
    "check_time_grid",
    "step_rule",
    "evolve",
    "dark_population",
    "STEP_FACTOR",
]

#: dt <= STEP_FACTOR / max|diag - centroid|
STEP_FACTOR = 0.02

#: Allowed norm^2 growth: per step of an eigencomponent at kappa = 0, and over the trajectory.
NORM_GROWTH_TOL = 1e-6

logger = logging.getLogger("qbsim.dynamics")


def _split_parity(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mode amplitudes -> even [b_0, (b_k + b_-k)/sqrt(2)] and odd (b_k - b_-k)/sqrt(2), k > 0."""
    half = len(beta) // 2
    pos, neg = beta[half + 1:], beta[half - 1::-1]
    even = np.concatenate([beta[half:half + 1], (pos + neg) / math.sqrt(2.0)])
    return even, (pos - neg) / math.sqrt(2.0)


def _join_parity(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Inverse of ``_split_parity``."""
    pos, neg = (even[1:] + odd) / math.sqrt(2.0), (even[1:] - odd) / math.sqrt(2.0)
    return np.concatenate([neg[::-1], even[:1], pos])


def _odd_norm2(odd: np.ndarray, factor: np.ndarray, n_samples: int) -> np.ndarray:
    """sum_k |odd_k factor_k^i|^2 for i < n_samples, in blocks of samples so memory stays O(N)."""
    log_decay = np.log(np.abs(factor) ** 2)
    weights = np.abs(odd) ** 2
    out = np.empty(n_samples)
    block = max(1, (1 << 16) // len(weights))
    for start in range(0, n_samples, block):
        i = np.arange(start, min(start + block, n_samples))
        out[start:start + len(i)] = np.exp(np.outer(i, log_decay)) @ weights
    return out


@dataclass
class WaveFunction:
    """Single-excitation state: atom amplitudes plus photon amplitudes.

    ``atom`` has one entry (dark amplitude u) for the effective model and
    three entries (u_d, u_e, u_m) for the full model.  ``photon`` holds N
    amplitudes in the representation named by ``representation``.
    """

    atom: np.ndarray
    photon: np.ndarray
    representation: str  # "mode" | "site"
    model: str  # "effective" | "full"

    @property
    def norm2(self) -> float:
        return float(np.sum(np.abs(self.atom) ** 2) + np.sum(np.abs(self.photon) ** 2))

    def to_representation(self, rep: str, params: SystemParams) -> "WaveFunction":
        if rep == self.representation:
            return self
        if {rep, self.representation} != {"mode", "site"}:
            raise ValueError(f"unknown representation {rep!r} or {self.representation!r}")
        # beta_j = sum_k e^{ikj} beta_k / sqrt(N), with k in centred order.
        rt_n = math.sqrt(params.n_cavities)
        if rep == "site":
            photon = rt_n * np.fft.ifft(np.fft.ifftshift(self.photon))
        else:
            photon = np.fft.fftshift(np.fft.fft(self.photon)) / rt_n
        return WaveFunction(self.atom.copy(), photon, rep, self.model)


@dataclass
class TimeSeries:
    """Sampled trajectory: times, dark-state probability, norm, atom amps."""

    times: np.ndarray
    p_dark: np.ndarray
    norm2: np.ndarray
    atom_amps: np.ndarray
    model: str
    final_state: WaveFunction | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if np.any(self.p_dark < -1e-12) or np.any(self.p_dark > 1.0 + 1e-9):
            raise ValueError("p_dark outside [0, 1]")


def _n_atom(model: str) -> int:
    return 1 if model == "effective" else 3


def initial_state_photon_at_site(
    j: int, params: SystemParams, model: str = "effective", representation: str = "site"
) -> WaveFunction:
    """Photon localized in cavity j, atom in its ground state.

    In mode space the same state is beta_k = exp(-i k j)/sqrt(N).
    """
    n = params.n_cavities
    if not 0 <= j < n:
        raise IndexOutOfRange(f"site {j} outside 0..{n - 1}")
    atom = np.zeros(_n_atom(model), dtype=complex)
    if representation == "site":
        photon = np.zeros(n, dtype=complex)
        photon[j] = 1.0
    elif representation == "mode":
        photon = np.exp(-1j * params.mode_wavenumbers() * j) / math.sqrt(n)
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return WaveFunction(atom, photon, representation, model)


def initial_state_atom_m(
    params: SystemParams, model: str = "full", representation: str = "site"
) -> WaveFunction:
    """Atom prepared in |m>, cavities in vacuum.

    The effective model keeps only the dark-state projection
    u(0) = <E1|m> = g2/g (the discarded bright components are decoupled
    from the array and merely decay).
    """
    n = params.n_cavities
    photon = np.zeros(n, dtype=complex)
    if model == "full":
        atom = np.array([0.0, 0.0, 1.0], dtype=complex)
    else:
        dark = dark_state_vector(params)
        atom = np.array([np.conj(dark[2])], dtype=complex)
    return WaveFunction(atom, photon, representation, model)


def initial_state(params: SystemParams, model: str, photon_site: int | None) -> WaveFunction:
    """Scenario start: a photon in ``photon_site``, or the atom in |m> when it is None.

    The effective model starts in mode space, the full model in site space.
    """
    rep = "mode" if model == "effective" else "site"
    if photon_site is None:
        return initial_state_atom_m(params, model, rep)
    return initial_state_photon_at_site(photon_site, params, model, rep)


def check_time_grid(t_grid) -> tuple[np.ndarray, float]:
    """Validate a uniform, increasing grid from 0; returns it and its spacing."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must be 1-D with at least two points")
    dt_grid = np.diff(t_grid)
    if t_grid[0] != 0.0 or np.any(dt_grid <= 0):
        raise ValueError("t_grid must increase from 0")
    if not np.allclose(dt_grid, dt_grid[0], rtol=1e-9, atol=0.0):
        raise ValueError("t_grid must be uniform")
    return t_grid, float(dt_grid[0])


def step_rule(diag: np.ndarray, dt_grid: float) -> tuple[float, int, float]:
    """Centroid, substeps n_sub and RK4 step dt for the grid spacing ``dt_grid``.

    dt is the largest step <= STEP_FACTOR/max|diag - centroid| dividing dt_grid.
    """
    centroid = 0.5 * (diag.max() + diag.min())
    spread = max(np.max(np.abs(diag - centroid)), 1e-30)
    dt_max = STEP_FACTOR / spread
    n_sub = max(1, int(math.ceil(dt_grid / dt_max - 1e-12)))
    return centroid, n_sub, dt_grid / n_sub


def evolve(
    psi0: WaveFunction,
    t_grid: np.ndarray,
    params: SystemParams,
    e1: complex | None = None,
) -> TimeSeries:
    """Integrate i dpsi/dt = H psi and record P_E1(t) on ``t_grid``.

    ``t_grid`` must be a uniform, increasing grid starting at 0.  The RK4
    substep follows ``step_rule`` over the diagonal of the even-sector H in
    either representation.  Raises StepSizeTooLarge as the module docstring
    says: at kappa = 0 before propagating, and if the norm grows or stops
    being finite.
    """
    t_grid, dt_grid = check_time_grid(t_grid)

    psi_mode = psi0.to_representation("mode", params)
    even0, odd0 = _split_parity(psi_mode.photon)
    blocks = hamiltonian_blocks(params, psi0.model, "even", e1)
    _, _, even_levels = blocks
    h = assemble_hamiltonian(params, *blocks)
    centroid, n_sub, dt = step_rule(np.diag(h).real, dt_grid)
    h.flat[:: h.shape[0] + 1] -= centroid
    if params.kappa == 0.0:
        # The even diagonal holds every odd level (omega_k = omega_-k), max|lambda|
        # >= max|h_ii|, and |P(iy)|^2 > 1 only for |y| > 2 sqrt(2), increasing there:
        # no odd mode grows unless an even eigencomponent grows at least as fast.
        growth = np.max(np.abs(_kernels.rk4_factor(-1j * dt * np.linalg.eigvalsh(h))) ** 2) - 1.0
        if growth > NORM_GROWTH_TOL:
            raise StepSizeTooLarge(
                f"RK4 step dt = {dt:.4g} (n_sub = {n_sub}) grows norm^2 by up to {growth:.3e} "
                f"per step, above NORM_GROWTH_TOL = {NORM_GROWTH_TOL:g}")

    na, nt = len(psi0.atom), len(t_grid)
    psi_init = np.concatenate([psi_mode.atom, even0])
    t0 = time.perf_counter()
    atom_amps, norm2, psi_final, build_s = _kernels.rk4_schrodinger(
        h, na, psi_init, dt, n_sub=n_sub, n_samples=nt)
    odd_factor = _kernels.rk4_factor(-1j * dt * (even_levels[1:].real - centroid)) ** n_sub
    norm2 = norm2 + _odd_norm2(odd0, odd_factor, nt)
    logger.debug(
        "evolve %s/%s: dim %d, n_sub %d, dt %.4g, %d RK4 steps; matrix %.4f s, propagation %.4f s; "
        "even dim %d", psi0.model, psi0.representation, na + params.n_cavities, n_sub, dt,
        n_sub * (nt - 1), build_s, time.perf_counter() - t0 - build_s, len(psi_init))
    if not np.all(np.isfinite(norm2)) or norm2.max() > norm2[0] * (1.0 + NORM_GROWTH_TOL):
        raise StepSizeTooLarge(
            f"norm^2 grew from {norm2[0]:.6g} to {norm2.max():.6g} with RK4 step dt = {dt:.4g}")

    if psi0.model == "effective":
        p_dark = np.abs(atom_amps[:, 0]) ** 2
    else:
        dark = dark_state_vector(params)
        p_dark = np.abs(atom_amps @ dark.conj()) ** 2
    photon = _join_parity(psi_final[na:], odd0 * odd_factor ** (nt - 1))
    final = WaveFunction(psi_final[:na], photon, "mode", psi0.model).to_representation(
        psi0.representation, params)
    return TimeSeries(
        times=t_grid,
        p_dark=np.clip(p_dark, 0.0, None),
        norm2=norm2,
        atom_amps=atom_amps,
        model=psi0.model,
        final_state=final,
    )


def dark_population(series: TimeSeries, t: float) -> float:
    """Linear interpolation of P_E1 at time t; t must lie on the grid span."""
    times = series.times
    if t < times[0] or t > times[-1]:
        raise OutOfRange(f"t = {t} outside [{times[0]}, {times[-1]}]")
    return float(np.interp(t, times, series.p_dark))
