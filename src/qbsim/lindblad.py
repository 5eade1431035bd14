"""Lindblad master-equation propagation for the full single-excitation model.

This is the independent check on the non-Hermitian treatment: the
Hamiltonian here is the Hermitian full model (real d-level energy) in
the lab frame, |0,g> at energy 0, over the truncated basis

    {|0,g>} u {|0,d>, |0,e>, |0,m>} u {site-j photon, atom in g},

dimension N + 4, with dissipation carried by the jump operator
sqrt(kappa)|0,g><0,d|.  That channel is the minimal trace-preserving
completion of the complex energy omega_d_real - i*kappa/2: the excited
sector then obeys a closed equation identical to the non-Hermitian pure
state, so P_E1(t) matches the Schrodinger result up to propagator error.

``lindblad_evolve`` hands the kernel H in the parity basis (sink, d, e, m,
the even modes, then the odd modes (|k> - |-k>)/sqrt(2)), built from
``hamiltonian_blocks``' even blocks plus the odd modes' levels, so the
zeros between the sectors are exact; rho goes to that basis and the final
rho back to sites, made exactly Hermitian there.  The odd modes never
couple to the atom, so the kernel advances them, and their coherences,
in closed form, and only the sink, the atom and the (N+1)/2 even modes
are propagated (at g = 0 only the sink and the atom).  That kept block
runs in the eigenbasis of its H_eff = H - i kappa/2 P_d, where each
element of rho advances over a grid interval by one exact exponential and
the sink gains the decay in between, at O(dim^2) per sample (see
``qbsim._kernels``).  Only when cond(V) of that basis exceeds
``_kernels.EIGENBASIS_MAX_COND`` (near an exceptional point of H_eff)
does it run the dense exponential rho <- P rho P^H instead, P built from
n_sub degree-12 Taylor steps per interval (``step_rule`` on the site H's
norm bound; the basis change keeps ||H||_2).  On either path the kernel
first checks that the sink's row and column of H are zero (ValueError).
kappa >= 0 and H is Hermitian, so rho has no gain: there is nothing to
check before propagating.  ``lindblad_evolve`` logs each call's dim, the
grid spacing (on the dense exponential n_sub, dt and the step count),
trace drift, the number of free states, propagation time and kernel path
(eigenbasis with its cond(V), or dense exponential) to ``qbsim.lindblad``
at DEBUG.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .dynamics import TimeSeries, WaveFunction, _split_parity, check_time_grid, step_rule
from .errors import StepSizeTooLarge, TraceDrift
from .model import assemble_hamiltonian, dark_state_vector, hamiltonian_blocks
from .params import SystemParams

__all__ = ["DensityMatrix", "LindbladSeries", "lindblad_evolve", "initial_density_matrix",
           "population_report"]

#: Basis index of the |0,g> sink; atom levels d, e, m follow, then sites.
SINK, D_IDX, E_IDX, M_IDX = 0, 1, 2, 3
TRACE_TOL = 1e-6

logger = logging.getLogger("qbsim.lindblad")


@dataclass
class DensityMatrix:
    """Density matrix over the sink + atom + sites basis, with its params."""

    rho: np.ndarray
    params: SystemParams

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())

    def dark_population(self) -> float:
        dark = dark_state_vector(self.params)
        block = self.rho[D_IDX : M_IDX + 1, D_IDX : M_IDX + 1]
        return float(np.real(dark.conj() @ block @ dark))


@dataclass
class LindbladSeries(TimeSeries):
    """A ``TimeSeries`` from ``lindblad_evolve`` with the final density matrix."""

    final_rho: DensityMatrix = field(kw_only=True, repr=False)


def _full_hermitian_hamiltonian(params: SystemParams, representation: str = "site") -> np.ndarray:
    """Hermitian single-excitation Hamiltonian: an empty sink row and column, then the real part of
    the full model (exact: omega_d_real - i*kappa/2 is its only complex entry).

    In ``site`` representation the photons are the sites; in ``parity`` they
    are the even modes of ``hamiltonian_blocks``' ``even`` blocks, then the
    odd modes (|k> - |-k>)/sqrt(2), k = 1 .. (N-1)/2, at their own levels:
    the sector zeros are exact, not a rotated site H's rounding.
    """
    n = params.n_cavities
    full = assemble_hamiltonian(params, *hamiltonian_blocks(params, "full", "even" if representation == "parity"
                                                             else "site"))
    h = np.zeros((n + 4, n + 4), dtype=complex)
    h[D_IDX:D_IDX + len(full), D_IDX:D_IDX + len(full)] = full.real
    odd = np.arange(D_IDX + len(full), n + 4)  # none in site space
    h[odd, odd] = params.mode_frequencies()[n - len(odd):]  # omega_k of k > 0
    return h


def _parity_basis(params: SystemParams) -> np.ndarray:
    """Unitary U from the site basis to the parity basis of ``_full_hermitian_hamiltonian``.

    The sink and atom rows are I's; the photon rows are the even, then the
    odd modes of ``dynamics._split_parity`` over the sites.
    """
    n = params.n_cavities
    modes = np.fft.fftshift(np.fft.fft(np.eye(n), axis=0), axes=0) / math.sqrt(n)  # column j: site j in modes
    u = np.eye(n + 4, dtype=complex)
    u[4:, 4:] = np.concatenate(_split_parity(modes))
    return u


def initial_density_matrix(psi: WaveFunction, params: SystemParams) -> DensityMatrix:
    """Embed a full-model pure state as |psi><psi| (site representation)."""
    if psi.model != "full":
        raise ValueError("the Lindblad basis needs a full-model wavefunction")
    psi = psi.to_representation("site", params)
    vec = np.zeros(params.n_cavities + 4, dtype=complex)
    vec[D_IDX : M_IDX + 1] = psi.atom
    vec[4:] = psi.photon
    return DensityMatrix(np.outer(vec, vec.conj()), params)


def lindblad_evolve(
    rho0: DensityMatrix,
    t_grid: np.ndarray,
    params: SystemParams,
) -> LindbladSeries:
    """Propagate drho/dt = -i[H, rho] + D[L]rho and record P_E1(t).

    In the parity basis, with the odd modes advanced in closed form (module
    docstring).  Exact on the grid in H_eff's eigenbasis, or near an exceptional point
    the dense exponential with the same step rule as the Schrodinger side
    (``step_rule``, on a bound of the generator's norm).  The result holds
    the final state.  ``rho0`` must have dim N + 4 (ValueError).  After
    propagating it raises StepSizeTooLarge if tr rho stops being finite
    and TraceDrift if |tr rho - 1| exceeds 1e-6 at any sample, both naming
    the steps.
    """
    dim = params.n_cavities + 4
    if rho0.rho.shape != (dim, dim):
        raise ValueError(f"rho0 has dim {rho0.rho.shape[0]}, but N = {params.n_cavities} needs dim {dim}")
    t_grid, dt_grid = check_time_grid(t_grid)

    h = _full_hermitian_hamiltonian(params)
    # 2 (||H||_1 + kappa) >= 2 ||H_eff||_1, so each dense Taylor step has ||dt H_eff||_1 <= STEP_FACTOR / 2;
    # the parity basis keeps ||H_eff||_2, which the site H's ||H_eff||_1 bounds.
    n_sub, dt = step_rule(2.0 * (np.linalg.norm(h, 1) + params.kappa), dt_grid)
    h = _full_hermitian_hamiltonian(params, "parity")
    u = _parity_basis(params)

    t0 = time.perf_counter()
    # A dense step far too long overflows rho; the trace checks below report it as a typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        block, traces, rho_final, cond_v = _kernels.rk4_lindblad(
            h, params.kappa, D_IDX, SINK, u @ rho0.rho @ u.conj().T, dt_grid, n_sub, len(t_grid))
        rho_final = u.conj().T @ rho_final @ u
    drift = np.max(np.abs(traces - traces[0]))
    steps = (f"n_sub {n_sub}, dt {dt:.4g}, {n_sub * (len(t_grid) - 1)} Taylor steps" if cond_v is None
             else f"exact steps of dt {dt_grid:.4g}")
    logger.debug(
        "lindblad_evolve jump_to_ground: dim %d, %s, trace drift %.3e, %d free states; propagation %.4f s; %s",
        h.shape[0], steps, drift, np.count_nonzero(_kernels.free_states(h, D_IDX, SINK)),
        time.perf_counter() - t0, "dense exponential" if cond_v is None else f"eigenbasis, cond(V) {cond_v:.3g}")
    if not np.all(np.isfinite(traces)):
        raise StepSizeTooLarge(f"tr rho became non-finite ({steps})")
    if drift > TRACE_TOL:
        raise TraceDrift(f"|tr rho - 1| reached {drift:.3e} ({steps})")

    dark = dark_state_vector(params)
    p_dark = np.real(np.einsum("i,tij,j->t", dark.conj(), block, dark))
    atom_diag = np.real(np.einsum("tii->ti", block))
    return LindbladSeries(
        times=t_grid,
        p_dark=np.clip(p_dark, 0.0, None),
        norm2=traces,
        atom_amps=atom_diag,
        model="lindblad",
        final_rho=DensityMatrix(0.5 * (rho_final + rho_final.conj().T), params),
    )


def population_report(rho: DensityMatrix) -> dict[str, float]:
    """Populations of the sink, the three atom levels, and all photons."""
    diag = np.real(np.diag(rho.rho))
    return {
        "ground_vacuum": float(diag[SINK]),
        "d": float(diag[D_IDX]),
        "e": float(diag[E_IDX]),
        "m": float(diag[M_IDX]),
        "photon": float(diag[4:].sum()),
    }
