"""Numpy RK4 propagation kernels: the hot loops of the package.

Both kernels integrate i dpsi/dt = H psi (or the master equation) with
fixed-step classical RK4 and record samples every ``n_sub`` steps.
Callers look them up as ``_kernels.rk4_*`` at call time, so a wrapper
installed on this module sees every call.

State layout for the Schrodinger kernels: psi = [atom amplitudes (na),
photon amplitudes (N)].  The Hamiltonian is passed in structured form:

  atom_block : (na, na) complex   -- atom Hamiltonian (non-Hermitian ok)
  coupling   : (na, N) complex    -- atom-photon coupling rows
  photon part: either diag (N,) for mode space, or (omega0, xi) for the
               cyclic tight-binding chain in site space.

Records per sample: atom amplitudes and the total norm^2.
"""

from __future__ import annotations

import numpy as np

#: There is no compiled backend; kept for run records that report it.
USING_COMPILED = False


def _rhs_mode(atom_block, coupling, diag, psi, na):
    out = np.empty_like(psi)
    a = psi[:na]
    ph = psi[na:]
    out[:na] = atom_block @ a + coupling @ ph
    out[na:] = diag * ph + coupling.T @ a
    return -1j * out


def _rhs_site(atom_block, coupling, omega0, xi, psi, na):
    out = np.empty_like(psi)
    a = psi[:na]
    ph = psi[na:]
    out[:na] = atom_block @ a + coupling @ ph
    out[na:] = omega0 * ph - xi * (np.roll(ph, 1) + np.roll(ph, -1)) + coupling.T @ a
    return -1j * out


def rk4_schrodinger(
    atom_block: np.ndarray,
    coupling: np.ndarray,
    photon_diag: np.ndarray | None,
    omega0: float,
    xi: float,
    psi0: np.ndarray,
    dt: float,
    n_sub: int,
    n_samples: int,
    norm_tol: float = 0.0,
):
    """Propagate psi0, sampling every n_sub steps (sample 0 is psi0).

    Returns (atom_samples, norm2_samples, psi_final).  If ``norm_tol`` > 0,
    raises RuntimeError as soon as a single step grows the norm^2 by more
    than norm_tol (used for the kappa = 0 sanity check).
    """
    na = atom_block.shape[0]
    psi = psi0.astype(complex).copy()
    atom_out = np.empty((n_samples, na), dtype=complex)
    norm_out = np.empty(n_samples, dtype=float)
    if photon_diag is not None:
        rhs = lambda p: _rhs_mode(atom_block, coupling, photon_diag, p, na)
    else:
        rhs = lambda p: _rhs_site(atom_block, coupling, omega0, xi, p, na)

    atom_out[0] = psi[:na]
    norm_out[0] = float(np.vdot(psi, psi).real)
    prev_norm = norm_out[0]
    for i in range(1, n_samples):
        for _ in range(n_sub):
            k1 = rhs(psi)
            k2 = rhs(psi + 0.5 * dt * k1)
            k3 = rhs(psi + 0.5 * dt * k2)
            k4 = rhs(psi + dt * k3)
            psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if norm_tol > 0.0:
                cur = float(np.vdot(psi, psi).real)
                if cur > prev_norm * (1.0 + norm_tol):
                    raise RuntimeError(
                        f"norm^2 grew by {cur / prev_norm - 1.0:.3e} in one step"
                    )
                prev_norm = cur
        atom_out[i] = psi[:na]
        norm_out[i] = float(np.vdot(psi, psi).real)
    return atom_out, norm_out, psi


def rk4_lindblad(
    h_real: np.ndarray,
    kappa: float,
    d_index: int,
    sink_index: int,
    rho0: np.ndarray,
    dt: float,
    n_sub: int,
    n_samples: int,
    dephasing: bool = False,
):
    """Propagate the master equation with jump sqrt(kappa)|sink><d|.

    drho/dt = -i[H, rho] - (kappa/2){Pd, rho} + kappa rho_dd |sink><sink|
    (jump-to-ground), or the pure-dephasing variant
    -i[H, rho] + kappa (Pd rho Pd - (1/2){Pd, rho}) when ``dephasing``.

    rho is re-Hermitized each step.  Returns (rho_samples, trace_samples).
    """
    dim = h_real.shape[0]
    rho = rho0.astype(complex).copy()
    rho_out = np.empty((n_samples, dim, dim), dtype=complex)
    tr_out = np.empty(n_samples, dtype=float)

    def rhs(r):
        hr = h_real @ r
        out = -1j * (hr - hr.conj().T)
        if kappa != 0.0:
            half = 0.5 * kappa
            dd = r[d_index, d_index]
            out[d_index, :] -= half * r[d_index, :]
            out[:, d_index] -= half * r[:, d_index]
            if dephasing:
                out[d_index, d_index] += kappa * dd
            else:
                out[sink_index, sink_index] += kappa * dd
        return out

    rho_out[0] = rho
    tr_out[0] = float(np.trace(rho).real)
    for i in range(1, n_samples):
        for _ in range(n_sub):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
        rho_out[i] = rho
        tr_out[i] = float(np.trace(rho).real)
    return rho_out, tr_out
