"""Numpy propagation kernels: the hot loops of the package.

Both kernels integrate i dpsi/dt = H psi (or the master equation) with
time-independent generators and record a sample every grid spacing
dt n_sub.  Callers look them up as ``_kernels.rk4_*`` at call time, so a
wrapper installed on this module sees every call; the names are kept
from the RK4 kernels they replaced.

Schrodinger: the propagator over one grid spacing is exp(z)^n_sub with
z = -i dt H, and the kernel takes exp(z) as its degree-12 Taylor
polynomial T(z), built by Horner's rule (11 matrix products) and raised
with ``np.linalg.matrix_power`` (scaling and squaring; Moler & Van Loan,
SIAM Rev. 45 (2003) 3), then advances each sample with one matrix-vector
product.  The caller picks n_sub by ``dynamics.step_rule``, so that
||z||_1 <= STEP_FACTOR = 0.25.  H is complex symmetric, so ||z||_2 <=
||z||_1, and the truncation ||T(z) - exp(z)||_2 is below ||z||^13/13!
e^||z|| = 3.1e-18, under rounding (at 0.5 it is 3.3e-14, and the 3.6e-15
per step that fig3b's atom block at g = 0 takes adds up to 1.2e-12 over
300 samples).  With no gain in H (``evolve`` checks that first),
||exp(z)||_2 <= 1, so no step can grow the norm beyond rounding.  The build
holds a few transient dim x dim complex arrays at a time, O(dim^2)
memory.  It serves the full model at g != 0, and either model wherever
one of ``evolve``'s eigenbasis paths falls back, at every kappa;
``evolve`` passes it only the parity-even sector (na + (N+1)/2 states).
It stays the reference the eigenbasis paths are tested against.

Lindblad: with H_eff = H - i kappa/2 P_d, drho/dt = L(rho) = -i H_eff rho
+ i rho H_eff^H + kappa rho_dd |sink><sink|: the one master equation,
whose jump takes d to the sink.  H's sink row and column must be zero
(ValueError otherwise), so H_eff = V diag(lam) V^-1 with the sink as
eigenvalue 0, and y = V^-1 rho V^-H obeys dy_ab/dt = -i (lam_a - conj
lam_b) y_ab, except that the jump feeds y_sink,sink, where that rate is
0, and reads nothing there.  Over one interval Delta = dt n_sub, then,
exactly y_ab <- exp(mu_ab) y_ab, mu_ab = -i Delta (lam_a - conj lam_b),
and the sink gains kappa Delta sum_ab V_da conj(V_db) phi1(mu_ab) y_ab,
phi1(x) = (e^x - 1)/x (Hochbruck & Ostermann, Acta Numer. 19 (2010)
209): O(dim^2) per sample after one ``eig``, with no step inside the
interval.  rho is rebuilt only at the end, made exactly Hermitian.  Near
an exceptional point V is ill-conditioned and the eigenbasis loses
digits, so above EIGENBASIS_MAX_COND the Horner stages run instead: n_sub
steps dt per interval, each T(dt L) written as r <- rho + (dt/k) L(r) for
k = 12, ..., 1.  A stage is one dense product m = Z r / k with Z = -i dt
H_eff, then r = rho + m + m^H, plus (dt/k) kappa r_dd at the sink, so
every stage is exactly Hermitian and costs O(dim^3).  Both paths store
only the sampled atom block, the traces and the final rho; an N = 53 run
of 1201 samples takes about 0.03 s in the eigenbasis and seconds in
Horner stages (one BLAS thread).
"""

from __future__ import annotations

import time

import numpy as np

#: There is no compiled backend; kept for run records that report it.
USING_COMPILED = False
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
    spent building the propagation matrix T(-i dt H)^n_sub.
    """
    t0 = time.perf_counter()
    z, one = -1j * dt * h, np.eye(len(h))
    step = one + z / 12
    for k in range(11, 0, -1):
        step = one + (z @ step) / k
    step = np.linalg.matrix_power(step, n_sub)
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
    """Propagate the master equation with jump sqrt(kappa)|sink><d|, sampling every dt n_sub.

    drho/dt = -i[H, rho] - (kappa/2){Pd, rho} + kappa rho_dd |sink><sink|.
    The atom levels (d, e, m) are d_index .. d_index + 2, and the sink's
    row and column of ``h_real`` must be zero (ValueError naming it,
    before any work).  It runs in the eigenbasis of H_eff, exactly over
    each interval dt n_sub, when cond(V) <= EIGENBASIS_MAX_COND, otherwise
    in Horner stages of n_sub steps dt per interval.

    Returns (atom_samples, trace_samples, rho_final, cond_v): the sampled
    3 x 3 atom block, tr rho, the last state, and cond(V) of the
    eigenbasis, or None where the Horner stages ran.
    """
    if np.any(h_real[sink_index]) or np.any(h_real[:, sink_index]):
        raise ValueError(f"h_real's sink row and column (index {sink_index}) must be zero")
    h_eff = h_real.astype(complex)
    h_eff[d_index, d_index] -= 0.5j * kappa
    rho = rho0.astype(complex)
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian, so every Horner stage stays so
    lam, v, cond_v = _sink_padded_eig(h_eff, sink_index)
    if cond_v <= EIGENBASIS_MAX_COND:
        w = np.linalg.inv(v)
        y = w @ rho @ w.conj().T
        del h_eff, rho, w  # keep only the eigenbasis arrays live while it propagates
        return (*_lindblad_eigenbasis(lam, v, y, kappa, d_index, sink_index, dt * n_sub, n_samples), cond_v)
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


def _lindblad_eigenbasis(lam, v, y, kappa, d_index, sink, delta, n_samples):
    """The master equation on y = V^-1 rho V^-H (module docstring), exactly, sampling every ``delta``.

    Per sample y <- y o exp(mu), mu_ab = -i delta (lam_a - conj lam_b), and
    the sink gains sum_ab C_ab y_ab with C = kappa delta (V_d x conj V_d) o
    phi1(mu).  ``y`` is overwritten.
    """
    dim = len(lam)
    mu = lam[:, None] - lam.conj()
    mu *= -1j * delta
    # Weights of tr(V y V^H) = sum_ab (V^H V)_ba y_ab and of the sink gain, read as one product.
    weights = np.empty((2, dim, dim), dtype=complex)
    trace_w, gain_w = weights
    gain_w[...] = 1.0  # phi1(0): the sink, and the diagonal where lam is real
    np.divide(np.expm1(mu), mu, out=gain_w, where=mu != 0.0)
    step = np.exp(mu, out=mu)
    gain_w *= (kappa * delta) * v[d_index][:, None]
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
            y *= step
            y[sink, sink] += gain
    rho = v @ y @ v.conj().T
    return atom_out, tr_out, 0.5 * (rho + rho.conj().T)


def _lindblad_horner(h_eff, kappa, d_index, sink, rho, dt, n_sub, n_samples):
    """Each step T(dt L) as Horner stages r <- rho + (dt/k) L(r), k = 12, ..., 1, with jump |sink><d|.

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
            for k in range(12, 0, -1):
                m = (z @ r) / k
                dd = r[d_index, d_index].real
                r = rho + (m + m.conj().T)
                r[sink, sink] += (dt / k) * kappa * dd
            rho = r
        atom_out[i], tr_out[i] = rho[atom, atom], np.trace(rho).real
    return atom_out, tr_out, rho
