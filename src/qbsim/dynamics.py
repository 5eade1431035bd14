"""Single-excitation Schrodinger dynamics for the effective and full models.

The effective model keeps the dark state |0, E1> plus the photon
amplitudes; the full model carries all three atom levels (d, e, m) in the
cavity vacuum plus the photon amplitudes, with the bright states and their
fast decay retained.  Both use the non-Hermitian atom energy
omega_d_real - i*kappa/2, so at kappa > 0 the norm leaks monotonically.

Every path propagates by exponentials: exactly on the paths that hold an
eigenbasis, and as a degree-12 Taylor polynomial on the dense kernel.  H
is first shifted by the centroid of its diagonal: a uniform shift only
changes the global phase, never |amplitudes|, and keeps ||H|| small.

``evolve`` propagates only the parity-even sector.  H is symmetric under
the reflection j -> -j (mod N) about the atom's cavity, so the atom couples
only to k = 0 and (|k> + |-k>)/sqrt(2); the (N-1)/2 odd states
(|k> - |-k>)/sqrt(2) never reach it and are eigenstates of H, so each odd
amplitude advances by exp(-i (omega_k - centroid) t).  Their levels are
real, so their norm^2 stays what it was at t = 0.  Site-space states are
propagated in the mode basis; ``norm2`` and ``final_state`` describe the
full state.

The effective model's even H is an arrowhead matrix: E1 coupled by real
c_k to the (N+1)/2 distinct mode energies.  Its eigenvalues lambda_j are
``spectral.even_sector_roots`` (whose interior roots a sweep solves for a
chunk of cells at once), its eigenvectors v_j = (1, c_k/(lambda_j -
omega_k)), and psi0 = sum_j r_j v_j with r_j = v_j^T psi0 / v_j^T v_j (H is
complex symmetric, so v_j^T are the left eigenvectors).  Sample i is then
psi = V (r o G^i), G_j = exp(-i Delta (lambda_j - centroid)) for the grid
spacing Delta, with u = sum_j r_j G_j^i.  The G^i come from cumulative
products of G in blocks of about 2^14/dim samples, so the extra working
set is O(block dim), not O(nt dim).  norm2 stays O(dim^2) per sample: at
kappa > 0 the v_j are not orthogonal (H is not normal), so |psi|^2 needs
all of V (r o G^i), one matrix product per block.  At weak coupling
lambda_j - omega_k of the nearest mode keeps only the roots' absolute
digits, so that distance is taken from the secular equation as a
quadratic in it.

At g = 0, in either model, the atom couples to no mode.  Its na x na
block alone (E1, or the full model's (d, e, m) block), shifted by the
centroid, is diagonalised by ``np.linalg.eig`` as W diag(lambda) W^-1, and
psi_atom = W r runs through the same sample stage; every mode, even and
odd, advances by its own exponential, as the odd modes do at g != 0.

The eigenbasis paths fall back to the dense kernel, and the DEBUG line
says which guard failed, when the root search fails to converge (the
phase equation's arctan crosses its branch cut when |Im E1| >> g^2/xi),
when two roots, of any pair, lie within MIN_ROOT_GAP xi (near an
exceptional point, or a root returned twice), or when the sum rules, the
atom rows of psi0 = V r and of (H - centroid) psi0 = V (lambda o r), miss
by more than SUM_RULE_TOL |psi0| (the second over max|lambda|).  The full
model at g != 0 runs on the dense kernel, which stays the tests'
reference.

The dense kernel, ``_kernels.rk4_schrodinger``, takes the na + (N+1)/2
even states as the dense, shifted H of the ``even`` blocks: one
precomputed matrix T(-i dt H)^n_sub per sample at every kappa, with
n_sub from ``step_rule``, in O(dim^2) memory.

StepSizeTooLarge (named after the RK4 step it used to guard) is raised
before propagating if the atom block A has gain.  The mode levels and
the couplings are real, so d|psi|^2/dt <= 2 r |psi|^2, where r is the
largest eigenvalue of the Hermitian part of -i A: Im E1 for the
effective model, 0 for the full model, whose d level only decays.  It is
raised if exp(2 r t_end) - 1 exceeds NORM_GROWTH_TOL.  Without gain every
exponential factor has |G| <= 1, and the dense kernel's step is bounded as
``_kernels`` shows, so no eigenvalue of H is needed.  After propagating,
at every kappa, it is raised if norm^2 rises above its start by more than
NORM_GROWTH_TOL or is not finite.  Each call logs its model,
representation and dims, the grid spacing (on the dense kernel n_sub, dt
and the step count), the time spent on the roots, on the matrix (its
assembly and build) and on propagating, and the path to the
``qbsim.dynamics`` logger at DEBUG level.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, spectral
from .errors import IndexOutOfRange, NoConvergence, OutOfRange, StepSizeTooLarge
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

#: ||dt A||_1 <= STEP_FACTOR for the generator A that a dense kernel exponentiates
STEP_FACTOR = 0.25
#: Allowed norm^2 growth over a trajectory, and the gain bound checked before it.
NORM_GROWTH_TOL = 1e-6

#: Eigenbasis guards: the smallest gap between roots, over xi, and the
#: sum-rule residuals, over |psi| (module docstring).
MIN_ROOT_GAP = 1e-8
SUM_RULE_TOL = 1e-13

logger = logging.getLogger("qbsim.dynamics")


def _split_parity(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mode amplitudes -> even [b_0, (b_k + b_-k)/sqrt(2)] and odd (b_k - b_-k)/sqrt(2), k > 0, along axis 0."""
    half = len(beta) // 2
    pos, neg = beta[half + 1:], beta[half - 1::-1]
    even = np.concatenate([beta[half:half + 1], (pos + neg) / math.sqrt(2.0)])
    return even, (pos - neg) / math.sqrt(2.0)


def _join_parity(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Inverse of ``_split_parity``."""
    pos, neg = (even[1:] + odd) / math.sqrt(2.0), (even[1:] - odd) / math.sqrt(2.0)
    return np.concatenate([neg[::-1], even[:1], pos])


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
    """Sampled trajectory: times, dark-state probability, norm, atom amps.

    From ``evolve`` the atom amps and ``final_state`` are complex amplitudes
    of H shifted by the centroid, so they carry exp(i centroid t) as a
    global phase against the lab frame; from ``lindblad_evolve``, which runs
    in the lab frame, the atom amps are the atom levels' populations.
    """

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


def step_rule(a_norm: float, dt_grid: float) -> tuple[int, float]:
    """Substeps n_sub and step dt = dt_grid/n_sub of a dense kernel, for the grid spacing ``dt_grid``.

    ``a_norm`` is ||A||_1, or a bound on it, of the generator A that the
    kernel exponentiates; n_sub is the fewest with dt a_norm <= STEP_FACTOR.
    """
    n_sub = max(1, math.ceil(dt_grid * a_norm / STEP_FACTOR - 1e-12))
    return n_sub, dt_grid / n_sub


def _check_gain(atom_block: np.ndarray, t_end: float) -> None:
    """Raise StepSizeTooLarge if the atom block's gain could grow norm^2 by t_end (module docstring)."""
    gain = 2.0 * np.linalg.eigvalsh(0.5j * (atom_block.conj().T - atom_block)).max() * t_end
    if gain > math.log1p(NORM_GROWTH_TOL):
        raise StepSizeTooLarge(
            f"the atom block has gain: norm^2 may grow by a factor exp({gain:.4g}) by t = {t_end:.4g}, "
            f"above 1 + NORM_GROWTH_TOL = 1 + {NORM_GROWTH_TOL:g}")


def _check_norm(norm2: np.ndarray, steps: str) -> None:
    """Raise StepSizeTooLarge if the sampled norm^2 is not finite or grew above its start."""
    if not np.all(np.isfinite(norm2)) or norm2.max() > norm2[0] * (1.0 + NORM_GROWTH_TOL):
        raise StepSizeTooLarge(f"norm^2 grew from {norm2[0]:.6g} to {norm2.max():.6g} ({steps})")


def _even_blocks(params: SystemParams, model: str, e1: complex | None):
    """``hamiltonian_blocks``' even blocks and the centroid of the even H's diagonal."""
    atom_block, coupling, even_levels = hamiltonian_blocks(params, model, "even", e1)
    levels = np.r_[np.diag(atom_block).real, even_levels.real]
    return atom_block, coupling, even_levels, 0.5 * (levels.max() + levels.min())


def _even_eigenbasis(params: SystemParams, atom_block: np.ndarray, coupling: np.ndarray,
                     even_levels: np.ndarray, centroid: float, psi: np.ndarray,
                     interior: np.ndarray | None = None):
    """(lambda - centroid, V, r) of the effective model's even H, and the path for the log.

    Takes the effective model's ``_even_blocks``; ``interior`` passes the
    interior roots on to ``spectral.even_sector_roots`` when a sweep has
    solved them for a batch of cells.  Column j of V is v_j = (1,
    c_k/(lambda_j - omega_k)), and psi = V r.  Returns (None, "dense
    (...)") naming the first guard that fails (module docstring).
    """
    dim, e1 = len(psi), complex(atom_block[0, 0])
    coupling, levels = coupling[0].real, even_levels.real - params.omega0  # c_k, omega_k - omega0
    try:
        lam = spectral.even_sector_roots(params, e1, interior)
    except NoConvergence as exc:
        return None, f"dense ({exc})"
    gap = np.abs(lam[:, None] - lam)  # every pair: a repeated root need not be a neighbour
    np.fill_diagonal(gap, np.inf)
    gap = gap.min()
    if not gap > MIN_ROOT_GAP * params.xi:
        return None, f"dense (roots {gap:.3g} apart)"
    dist = lam - levels[:, None]  # lambda_j - omega_k
    near, cols = np.argmin(np.abs(dist), axis=0), np.arange(dim)
    vecs = np.empty((dim, dim), dtype=complex)
    vecs[0] = 1.0
    np.divide(coupling[:, None], dist, out=vecs[1:])
    # lambda_j - omega_k keeps only the roots' absolute digits, which the nearest
    # mode's component loses at weak coupling.  That distance d solves the secular
    # equation as the quadratic d^2 + b d - c_k^2 = 0, b = omega_k - E1 - (the other
    # modes' terms at lambda_j); take its root nearer the first value.
    vecs[1 + near, cols] = 0.0
    b = levels[near] - (e1 - params.omega0) - coupling @ vecs[1:]
    c2 = coupling[near] ** 2
    q = np.sqrt(b * b + 4.0 * c2)
    q = -0.5 * np.where(np.abs(b + q) >= np.abs(b - q), b + q, b - q)
    first = dist[near, cols]
    vecs[1 + near, cols] = coupling[near] / np.where(np.abs(q - first) <= np.abs(c2 / q + first),
                                                     q, -c2 / q)
    res = (psi @ vecs) / np.einsum("ij,ij->j", vecs, vecs)
    lam = lam + (params.omega0 - centroid)
    # Sum rules: the atom rows of psi = V r and of (H - centroid) psi = V (lambda r).
    drift = (abs(res.sum() - psi[0]),
             abs(res @ lam - (e1 - centroid) * psi[0] - coupling @ psi[1:]) / np.max(np.abs(lam)))
    if not max(drift) <= SUM_RULE_TOL * math.sqrt(np.vdot(psi, psi).real):
        return None, f"dense (sum rules off by {drift[0]:.3g}, {drift[1]:.3g})"
    return (lam, vecs, res), "eigenbasis"


def _atom_eigenbasis(atom_block: np.ndarray, centroid: float, psi: np.ndarray, mode_shift: np.ndarray):
    """(lambda - centroid, W, r) of the atom block alone, for g = 0, and the path for the log.

    The columns of W are the eigenvectors of the shifted na x na block and
    the atom amplitudes psi[:na] = W r; ``mode_shift`` holds the mode levels
    minus the centroid.  Returns (None, "dense (...)") if the sum rules miss
    (module docstring).
    """
    atom = psi[:len(atom_block)]
    shifted = atom_block - centroid * np.eye(len(atom))
    lam, vecs = np.linalg.eig(shifted)
    res = np.linalg.solve(vecs, atom)
    # Sum rules: psi_atom = W r and (A - centroid) psi_atom = W (lambda r), the second over
    # max|lambda| of the even H, as in _even_eigenbasis.
    scale = max(np.max(np.abs(lam)), np.max(np.abs(mode_shift)))
    drift = (np.max(np.abs(vecs @ res - atom)), np.max(np.abs(vecs @ (lam * res) - shifted @ atom)) / scale)
    if not max(drift) <= SUM_RULE_TOL * math.sqrt(np.vdot(psi, psi).real):
        return None, f"dense (sum rules off by {drift[0]:.3g}, {drift[1]:.3g})"
    return (lam, vecs, res), "eigenbasis"


def _eigenbasis_samples(lam: np.ndarray, vecs: np.ndarray, res: np.ndarray, delta: float, n_samples: int,
                        na: int):
    """Samples i < n_samples of psi = V (r o G^i), G = exp(-i delta lambda), on a grid of spacing ``delta``.

    The coefficients come from cumulative products of G in blocks of about
    2^14/dim samples, so the working set stays O(dim) per sample of a block.
    Returns (atom_samples, norm2_samples, psi_final), with the first ``na``
    amplitudes of psi as the atom samples.
    """
    dim = len(lam)
    step = np.exp(-1j * delta * lam)
    block = max(1, (1 << 14) // dim)
    coef = np.empty((min(block, n_samples), dim), dtype=complex)
    atom_out = np.empty((n_samples, na), dtype=complex)
    norm_out = np.empty(n_samples)
    last = res
    for start in range(0, n_samples, block):
        rows = coef[:min(block, n_samples - start)]
        rows[0] = last
        rows[1:] = step
        np.cumprod(rows, axis=0, out=rows)
        psi = rows @ vecs.T
        atom_out[start:start + len(rows)] = psi[:, :na]
        norm_out[start:start + len(rows)] = np.einsum("ij,ij->i", psi.real, psi.real) + np.einsum(
            "ij,ij->i", psi.imag, psi.imag)
        last = rows[-1] * step
    return atom_out, norm_out, vecs @ rows[-1]


def evolve(
    psi0: WaveFunction,
    t_grid: np.ndarray,
    params: SystemParams,
    e1: complex | None = None,
) -> TimeSeries:
    """Integrate i dpsi/dt = H psi and record P_E1(t) on ``t_grid``.

    ``t_grid`` must be a uniform, increasing grid starting at 0.  The
    effective model runs in the eigenbasis of its even H, and either model
    at g = 0 in that of its atom block, exactly on the grid, unless a guard
    fails; otherwise the dense kernel takes ``step_rule``'s substeps
    (module docstring).  Raises StepSizeTooLarge as the module docstring
    says: before propagating if the atom block has gain, and after it if
    the norm grows or stops being finite.  The amplitudes keep the
    centroid frame (``TimeSeries``); P_E1 and norm^2 do not see it.
    """
    t_grid, dt_grid = check_time_grid(t_grid)

    psi_mode = psi0.to_representation("mode", params)
    even0, odd0 = _split_parity(psi_mode.photon)
    atom_block, coupling, even_levels, centroid = _even_blocks(params, psi0.model, e1)
    # The mode levels and couplings are real: only the atom block can add norm (module docstring).
    _check_gain(atom_block, t_grid[-1])
    # Amplitudes that couple to nothing advance by their own exponentials: the odd
    # modes, and at g = 0 the even modes too.
    free, free_shift = odd0, even_levels[1:].real - centroid
    na, nt = len(psi0.atom), len(t_grid)
    psi_init = np.concatenate([psi_mode.atom, even0])

    t0 = time.perf_counter()
    basis, path = None, "dense (full model)"
    if params.g == 0.0:
        even_shift = even_levels.real - centroid
        basis, path = _atom_eigenbasis(atom_block, centroid, psi_init, even_shift)
        if basis is not None:
            free, free_shift = np.concatenate([even0, free]), np.concatenate([even_shift, free_shift])
    elif psi0.model == "effective":
        basis, path = _even_eigenbasis(params, atom_block, coupling, even_levels, centroid, psi_init)
    t_roots = time.perf_counter()
    stages = [] if path == "dense (full model)" else [f"roots {t_roots - t0:.4f} s"]
    if basis is None:
        h = assemble_hamiltonian(params, atom_block, coupling, even_levels)
        h.flat[:: h.shape[0] + 1] -= centroid
        n_sub, dt = step_rule(np.linalg.norm(h, 1), dt_grid)
        t_matrix = time.perf_counter()
        atom_amps, norm2, psi_final, build_s = _kernels.rk4_schrodinger(
            h, na, psi_init, dt, n_sub=n_sub, n_samples=nt)
        stages.append(f"matrix {t_matrix - t_roots + build_s:.4f} s")
        steps = f"n_sub {n_sub}, dt {dt:.4g}, {n_sub * (nt - 1)} Taylor steps"
    else:
        atom_amps, norm2, psi_final = _eigenbasis_samples(*basis, dt_grid, nt, na)
        t_matrix, build_s, steps = t_roots, 0.0, f"exact steps of dt {dt_grid:.4g}"
    stages.append(f"propagation {time.perf_counter() - t_matrix - build_s:.4f} s")
    norm2 = norm2 + np.vdot(free, free).real
    logger.debug("evolve %s/%s: dim %d, %s; %s; %s; even dim %d", psi0.model, psi0.representation,
                 na + params.n_cavities, steps, ", ".join(stages), path, len(psi_init))
    _check_norm(norm2, steps)

    if psi0.model == "effective":
        p_dark = np.abs(atom_amps[:, 0]) ** 2
    else:
        dark = dark_state_vector(params)
        p_dark = np.abs(atom_amps @ dark.conj()) ** 2
    # atom, even modes, odd modes: the propagated block first, then the free amplitudes
    psi_final = np.concatenate([psi_final, free * np.exp(-1j * t_grid[-1] * free_shift)])
    photon = _join_parity(psi_final[na:na + len(even0)], psi_final[na + len(even0):])
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
