"""Hamiltonians of the driven atom and the atom + array hybrid.

The atom block lives in the rotating frame with basis ordering (d, e, m).
Dissipation on level d enters as the complex energy omega_d_real - i*kappa/2,
so the matrices here are complex symmetric, not Hermitian, whenever
kappa > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DarkConditionViolated, DegenerateSpectrum
from .params import SystemParams

__all__ = [
    "AtomEigensystem",
    "band_frequency",
    "atom_hamiltonian",
    "atom_eigensystem_exact",
    "atom_eigensystem_perturbative",
    "dark_state_vector",
    "dark_state_energy",
    "effective_hamiltonian",
    "hamiltonian_blocks",
    "assemble_hamiltonian",
]


def band_frequency(k, params: SystemParams):
    """Array dispersion omega_k = omega0 - 2*xi*cos(k); k may be an array."""
    return params.omega0 - 2.0 * params.xi * np.cos(k)


def atom_hamiltonian(params: SystemParams) -> np.ndarray:
    """3x3 atom block in the (d, e, m) basis.

    Diagonal (omega_d, delta_e, omega_m) with Omega_p on the d-e bond and
    Omega_c on the e-m bond.  Symmetric (equal off-diagonal pairs), and
    Hermitian only when kappa = 0.
    """
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0] = params.omega_d
    h[1, 1] = params.delta_e
    h[2, 2] = params.omega_m_level
    h[0, 1] = h[1, 0] = params.omega_p_rabi
    h[1, 2] = h[2, 1] = params.omega_c_rabi
    return h


@dataclass(frozen=True)
class AtomEigensystem:
    """Eigen-decomposition of the 3x3 atom block.

    ``energies[i]`` pairs with the unit column ``vectors[:, i]``;
    ``dark_index`` identifies the weakly dissipative state.
    """

    energies: np.ndarray
    vectors: np.ndarray
    dark_index: int

    @property
    def dark_energy(self) -> complex:
        return complex(self.energies[self.dark_index])

    @property
    def dark_vector(self) -> np.ndarray:
        return self.vectors[:, self.dark_index]


def _detunings(params: SystemParams) -> tuple[complex, complex]:
    omega_d = params.omega_d
    return params.delta_e - omega_d, params.omega_m_level - omega_d


def atom_eigensystem_perturbative(params: SystemParams) -> np.ndarray:
    """First-order (in omega_2) eigenvalues [E1, E2, E3].

    E1 is the dark energy
        (Op^2/Om^2)*Omega_m + (1 - Op^2/Om^2)*omega_d_real - i*(Oc^2/2Om^2)*kappa,
    and E2, E3 = +-Omega + (omega_1 + (Oc^2/Om^2)*omega_2)/2 + omega_d are the
    bright energies, each with Im = -(Op^2/4Om^2)*kappa.  Valid for
    |omega_1|, |omega_2| << Omega; no check is made here.
    """
    op2 = params.omega_p_rabi**2
    oc2 = params.omega_c_rabi**2
    om2 = op2 + oc2
    omega = np.sqrt(om2)
    omega_d = params.omega_d
    omega1, omega2 = _detunings(params)
    e1 = (op2 / om2) * omega2 + omega_d
    bright_shift = 0.5 * (omega1 + (oc2 / om2) * omega2) + omega_d
    return np.array([e1, omega + bright_shift, -omega + bright_shift], dtype=complex)


def atom_eigensystem_exact(params: SystemParams) -> AtomEigensystem:
    """Diagonalize the atom block exactly and label the dark state.

    The three eigenvalues come from the 3x3 complex eigensolver (equivalent
    to the companion-matrix treatment of the cubic in y = E - omega_d, and
    free of the cancellation a closed-form Cardano would risk).  States are
    ordered [E1, E2, E3] by proximity to the perturbative triple, which is
    the continuity labelling from the kappa = 0, Oc -> 0 limit.

    Raises DegenerateSpectrum when two eigenvalues agree to 1e-10 relative
    to the spectral scale.
    """
    h = atom_hamiltonian(params)
    vals, vecs = np.linalg.eig(h)
    scale = max(np.max(np.abs(vals)), 1e-300)
    gaps = [abs(vals[i] - vals[j]) for i in range(3) for j in range(i + 1, 3)]
    if min(gaps) <= 1e-10 * scale:
        raise DegenerateSpectrum(
            f"eigenvalue gap {min(gaps):.3e} below 1.0e-10 * {scale:.3e}"
        )

    anchors = atom_eigensystem_perturbative(params)
    order = np.empty(3, dtype=int)
    taken: list[int] = []
    # Greedy nearest-anchor assignment, dark anchor first so the dark label
    # wins any contested pairing.
    for slot in (0, 1, 2):
        dist = np.abs(vals - anchors[slot])
        dist[taken] = np.inf
        pick = int(np.argmin(dist))
        order[slot] = pick
        taken.append(pick)
    vals = vals[order]
    vecs = vecs[:, order]
    # numpy returns unit vectors with arbitrary phase; pin the largest
    # component to the positive real axis for reproducibility.
    for i in range(3):
        lead = np.argmax(np.abs(vecs[:, i]))
        phase = vecs[lead, i] / abs(vecs[lead, i])
        vecs[:, i] = vecs[:, i] / phase

    return AtomEigensystem(energies=vals, vectors=vecs, dark_index=0)


def dark_state_energy(params: SystemParams) -> complex:
    """Exact dark-state energy E1 of the atom block."""
    return atom_eigensystem_exact(params).dark_energy


def dark_state_vector(params: SystemParams) -> np.ndarray:
    """Dark state (g1|d> + g2|m>)/g in the (d, e, m) basis.

    Requires the coupling condition g1/g2 = -Oc/Op; the vector then equals
    (-Oc|d> + Op|m>)/Omega with an exactly vanishing |e> component.
    """
    if not params.dark_condition_ok:
        raise DarkConditionViolated(
            f"g1/g2 = {params.g1}/{params.g2} but -Oc/Op = "
            f"{-params.omega_c_rabi}/{params.omega_p_rabi}"
        )
    if params.g > 0:
        vec = np.array([params.g1, 0.0, params.g2], dtype=complex) / params.g
    else:
        norm = params.rabi_norm
        vec = np.array([-params.omega_c_rabi, 0.0, params.omega_p_rabi], dtype=complex) / norm
    return vec


def hamiltonian_blocks(params: SystemParams, model: str = "effective", representation: str = "mode",
                       e1: complex | None = None):
    """Structured single-excitation Hamiltonian: (atom_block, coupling, photon_diag).

    The atom block is [[E1]] for the ``effective`` model (``e1`` defaults to
    the exact dark energy) and the 3x3 (d, e, m) block for ``full``;
    ``coupling`` has one row per atom state.  In ``mode`` representation
    photon_diag holds omega_k and every mode couples with g/sqrt(N); in
    ``site`` representation it is None (the cyclic omega0, -xi chain) and
    only site 0 couples.  The ``even`` representation is the parity-even
    part of ``mode``: k = 0, then (|k> + |-k>)/sqrt(2) for k = 1 .. (N-1)/2,
    coupling with g/sqrt(N) and sqrt(2) g/sqrt(N).
    """
    if representation not in ("mode", "site", "even"):
        raise ValueError(f"representation must be 'mode', 'site' or 'even', got {representation!r}")
    if model == "effective":
        if not params.dark_condition_ok:
            raise DarkConditionViolated("effective model needs g1/g2 = -Oc/Op")
        if e1 is None:
            e1 = dark_state_energy(params)
        atom_block = np.array([[e1]], dtype=complex)
        couplings = np.array([params.g])
    else:
        atom_block = atom_hamiltonian(params)
        couplings = np.array([params.g1, 0.0, params.g2])
    if representation == "site":
        coupling = np.zeros((len(couplings), params.n_cavities), dtype=complex)
        coupling[:, 0] = couplings
        return atom_block, coupling, None
    freqs, weights = params.mode_frequencies(), np.ones(params.n_cavities)
    if representation == "even":
        half = params.n_cavities // 2
        freqs, weights = freqs[half:], np.r_[1.0, np.full(half, math.sqrt(2.0))]
    coupling = (np.outer(couplings, weights) / math.sqrt(params.n_cavities)).astype(complex)
    return atom_block, coupling, freqs.astype(complex)


def assemble_hamiltonian(params: SystemParams, atom_block: np.ndarray, coupling: np.ndarray,
                         photon_diag: np.ndarray | None) -> np.ndarray:
    """Dense matrix of the blocks from ``hamiltonian_blocks``: atom states first, then photons."""
    na, n = coupling.shape
    h = np.zeros((na + n, na + n), dtype=complex)
    h[:na, :na] = atom_block
    h[:na, na:] = coupling
    h[na:, :na] = coupling.T
    idx = np.arange(na, na + n)
    if photon_diag is not None:
        h[idx, idx] = photon_diag
    else:
        h[idx, idx] = params.omega0
        nxt = na + (np.arange(n) + 1) % n
        h[idx, nxt] = -params.xi
        h[nxt, idx] = -params.xi
    return h


def effective_hamiltonian(
    params: SystemParams,
    representation: str = "mode",
    e1: complex | None = None,
) -> np.ndarray:
    """(N+1)x(N+1) dark-state + array Hamiltonian, assembled from ``hamiltonian_blocks``.

    Index 0 is |0, E1> (atom in the dark state, array in vacuum), indices
    1..N are single-photon states.  The ``mode`` and ``site`` forms are
    related by the discrete Fourier transform and share their spectrum.
    """
    return assemble_hamiltonian(params, *hamiltonian_blocks(params, "effective", representation, e1))
