"""Numpy RK4 propagation kernels: the hot loops of the package.

Both kernels integrate i dpsi/dt = H psi (or the master equation) with
fixed-step classical RK4 and record samples every ``n_sub`` steps.
Callers look them up as ``_kernels.rk4_*`` at call time, so a wrapper
installed on this module sees every call.

Schrodinger: H does not depend on time, so one RK4 step is exactly the
matrix P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 with z = -i dt H, and n_sub
steps are P^n_sub (Moler & Van Loan, SIAM Rev. 45 (2003) 3).  The kernel
builds P by Horner's rule (3 matrix products) and raises it with
``np.linalg.matrix_power``, then advances each sample with one
matrix-vector product; dt, n_sub and the truncation error are those of
the step-by-step loop.  The build holds a few transient dim x dim
complex arrays at a time, O(dim^2) memory.  It serves the full model at
g != 0, and either model wherever one of ``evolve``'s eigenbasis paths
falls back, at every kappa; ``evolve`` passes it only the parity-even
sector (na + (N+1)/2 states).  It stays the reference the eigenbasis
paths are tested against.

Lindblad: with H_eff = H - i kappa/2 P_d and Z = -i dt H_eff, one RK4
step is P(dt L), dt L(rho) = Z rho + rho Z^H + dt kappa rho_dd |sink><sink|:
the one master equation, whose jump takes d to the sink.  H's sink row
and column must be zero (ValueError otherwise), so H_eff = V diag(lam)
V^-1 with the sink as eigenvalue 0, and Z rho + rho Z^H multiplies each
element of y = V^-1 rho V^-H by mu_ab = -i dt (lam_a - conj lam_b).  The
jump writes only y_sink,sink, where mu = 0, and reads nothing there, so
one step is exactly y_ab <- P(mu_ab) y_ab plus
kappa dt sum_ab V_da conj(V_db) Q(mu_ab) y_ab into the sink, with
Q(x) = 1 + x/2 + x^2/6 + x^3/24 (Hairer & Wanner, Solving ODEs II, IV.2):
the same polynomial, dt and n_sub as the step-by-step loop, at O(dim^2)
per sample after one ``eig``.  rho is rebuilt only at the end, made
exactly Hermitian.  Near an exceptional point V is ill-conditioned and
the eigenbasis loses digits, so above EIGENBASIS_MAX_COND the Horner
stages run instead.  Either way the same step scales y_ab by P(mu_ab), so
StepSizeTooLarge is raised before the first step if max |P(mu_ab)|^2 - 1
exceeds NORM_GROWTH_TOL: RK4 is stable on rho_dd only while dt kappa <=
2.785, and ``step_rule`` does not read kappa.

The Horner stages write the step as r <- rho + (dt/k) L(r) for
k = 4, 3, 2, 1: each stage is one dense product m = Z r / k, then
r = rho + m + m^H, plus (dt/k) kappa r_dd at the sink, so every stage is
exactly Hermitian and costs O(dim^3).  Both paths store only the sampled
atom block, the traces and the final rho; an N = 53 run of 1201 samples
takes 0.03-0.05 s in the eigenbasis against about 3.6 s in Horner stages
(one BLAS thread).
"""

from __future__ import annotations

import time

import numpy as np

from .errors import StepSizeTooLarge

#: There is no compiled backend; kept for run records that report it.
USING_COMPILED = False
#: Allowed norm^2 growth: per RK4 step of an eigencomponent, and over a trajectory.
NORM_GROWTH_TOL = 1e-6
#: Largest cond(V) of H_eff's eigenvectors at which ``rk4_lindblad`` runs in
#: the eigenbasis; closer to an exceptional point the Horner stages run.
#: Every preset at N = 21, 53 and 253, with and without kappa and g, has
#: cond(V) 1.0-4.7; at 1.75e3 the eigenbasis moved rho by 5.9e-10.
EIGENBASIS_MAX_COND = 1e3


def rk4_schrodinger(
    h: np.ndarray,
    na: int,
    psi0: np.ndarray,
    dt: float,
    n_sub: int,
    n_samples: int,
):
    """Propagate psi0 under the dense complex H, sampling every n_sub steps (sample 0 is psi0).

    Returns (atom_samples, norm2_samples, psi_final, build_s), where
    atom_samples holds the first ``na`` amplitudes and build_s is the time
    spent building the propagation matrix.
    """
    t0 = time.perf_counter()
    z, one = -1j * dt * h, np.eye(len(h))
    step = np.linalg.matrix_power(z @ ((z @ ((z @ (one + z / 4)) / 3 + one)) / 2 + one) + one, n_sub)
    build_s = time.perf_counter() - t0

    psi = psi0.astype(complex)
    atom_out = np.empty((n_samples, na), dtype=complex)
    norm_out = np.empty(n_samples, dtype=float)
    atom_out[0] = psi[:na]
    norm_out[0] = float(np.vdot(psi, psi).real)
    for i in range(1, n_samples):
        psi = step @ psi
        atom_out[i] = psi[:na]
        norm_out[i] = float(np.vdot(psi, psi).real)
    return atom_out, norm_out, psi, build_s


def rk4_factor(z):
    """RK4 stability polynomial sum_{j<=4} z^j/j!: one step of y' = a y scales y by P(dt a)."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def rk4_lindblad(
    h_real: np.ndarray,
    kappa: float,
    d_index: int,
    sink_index: int,
    rho0: np.ndarray,
    dt: float,
    n_sub: int,
    n_samples: int,
):
    """Propagate the master equation with jump sqrt(kappa)|sink><d|, sampling every n_sub steps.

    drho/dt = -i[H, rho] - (kappa/2){Pd, rho} + kappa rho_dd |sink><sink|.
    The atom levels (d, e, m) are d_index .. d_index + 2, and the sink's
    row and column of ``h_real`` must be zero (ValueError naming it,
    before any work).  It runs in the eigenbasis of H_eff when cond(V) <=
    EIGENBASIS_MAX_COND, otherwise in Horner stages.

    Returns (atom_samples, trace_samples, rho_final, cond_v): the sampled
    3 x 3 atom block, tr rho, the last state, and cond(V) of the
    eigenbasis, or None where the Horner stages ran.  Raises
    StepSizeTooLarge before the first step if that step is unstable
    (module docstring).
    """
    if np.any(h_real[sink_index]) or np.any(h_real[:, sink_index]):
        raise ValueError(f"h_real's sink row and column (index {sink_index}) must be zero")
    h_eff = h_real.astype(complex)
    h_eff[d_index, d_index] -= 0.5j * kappa
    rho = rho0.astype(complex)
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian, so every Horner stage stays so
    lam, v, cond_v = _sink_padded_eig(h_eff, sink_index)
    mu = lam[:, None] - lam.conj()
    mu *= -1j * dt
    growth = np.max(np.abs(rk4_factor(mu)) ** 2) - 1.0
    if growth > NORM_GROWTH_TOL:
        raise StepSizeTooLarge(
            f"RK4 step dt = {dt:.4g} (n_sub = {n_sub}, kappa = {kappa:.6g}) grows |y_ab|^2 by up to "
            f"{growth:.3e} per step, above NORM_GROWTH_TOL = {NORM_GROWTH_TOL:g}")
    if cond_v <= EIGENBASIS_MAX_COND:
        w = np.linalg.inv(v)
        y = w @ rho @ w.conj().T
        del h_eff, rho, w  # keep only the eigenbasis arrays live while it propagates
        return (*_lindblad_eigenbasis(mu, v, y, kappa, d_index, sink_index, dt, n_sub, n_samples), cond_v)
    del mu
    return (*_lindblad_horner(h_eff, kappa, d_index, sink_index, rho, dt, n_sub, n_samples), None)


def _sink_padded_eig(h_eff: np.ndarray, sink: int):
    """(lambda, V, cond(V)) of h_eff, whose sink row and column are zero.

    The excited block is diagonalized; the sink is eigenvalue 0 with
    eigenvector e_sink.
    """
    excited = np.flatnonzero(np.arange(h_eff.shape[0]) != sink)
    block = np.ix_(excited, excited)
    lam, v = np.zeros(h_eff.shape[0], dtype=complex), np.zeros_like(h_eff)
    lam[excited], v[block] = np.linalg.eig(h_eff[block])
    v[sink, sink] = 1.0
    return lam, v, float(np.linalg.cond(v))


def _lindblad_eigenbasis(mu, v, y, kappa, d_index, sink, dt, n_sub, n_samples):
    """Jump-to-ground RK4 on y = V^-1 rho V^-H (module docstring), sampling every n_sub steps.

    mu_ab = -i dt (lam_a - conj lam_b).  Per sample y <- y o P^n_sub, and the
    sink gains sum_ab C_ab y_ab with C = kappa dt (V_d x conj V_d) o Q o
    sum_{m < n_sub} P^m.  ``y`` is overwritten.
    """
    dim = len(mu)
    step = rk4_factor(mu)
    # Weights of tr(V y V^H) = sum_ab (V^H V)_ba y_ab and of the sink gain, read as one product.
    weights = np.empty((2, dim, dim), dtype=complex)
    trace_w, gain_w = weights
    sample = np.ones_like(mu)
    gain_w[...] = 0.0
    for _ in range(n_sub):  # P^n_sub and sum_{m < n_sub} P^m by the products of n_sub steps
        gain_w += sample
        sample *= step
    del step  # before Q's temporaries
    # Q by Horner's rule: (P - 1)/mu would be 0/0 at mu = 0 (the sink, the diagonal at kappa = 0).
    gain_w *= 1.0 + mu / 2.0 * (1.0 + mu / 3.0 * (1.0 + mu / 4.0))
    gain_w *= (kappa * dt) * v[d_index][:, None]
    gain_w *= v[d_index].conj()
    np.matmul(v.T, v.conj(), out=trace_w)
    weights = weights.reshape(2, dim * dim)
    atom = v[d_index:d_index + 3]
    atom_h = atom.conj().T

    atom_out = np.empty((n_samples, 3, 3), dtype=complex)
    tr_out = np.empty(n_samples, dtype=float)
    for i in range(n_samples):
        atom_out[i] = atom @ y @ atom_h
        trace, gain = weights @ y.ravel()
        tr_out[i] = trace.real
        if i + 1 < n_samples:
            y *= sample
            y[sink, sink] += gain
    rho = v @ y @ v.conj().T
    return atom_out, tr_out, 0.5 * (rho + rho.conj().T)


def _lindblad_horner(h_eff, kappa, d_index, sink, rho, dt, n_sub, n_samples):
    """RK4 as four Horner stages r <- rho + (dt/k) L(r), k = 4, 3, 2, 1, with jump |sink><d|.

    Each stage writes a fresh array, so ``rho`` is never overwritten.
    """
    z = -1j * dt * h_eff
    atom = slice(d_index, d_index + 3)
    atom_out = np.empty((n_samples, 3, 3), dtype=complex)
    tr_out = np.empty(n_samples, dtype=float)
    atom_out[0], tr_out[0] = rho[atom, atom], np.trace(rho).real
    for i in range(1, n_samples):
        for _ in range(n_sub):
            r = rho
            for k in (4, 3, 2, 1):
                m = (z @ r) / k
                dd = r[d_index, d_index].real
                r = rho + (m + m.conj().T)
                r[sink, sink] += (dt / k) * kappa * dd
            rho = r
        atom_out[i], tr_out[i] = rho[atom, atom], np.trace(rho).real
    return atom_out, tr_out, rho
