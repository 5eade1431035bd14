"""Numpy RK4 propagation kernels: the hot loops of the package.

Both kernels integrate i dpsi/dt = H psi (or the master equation) with
fixed-step classical RK4 and record samples every ``n_sub`` steps.
Callers look them up as ``_kernels.rk4_*`` at call time, so a wrapper
installed on this module sees every call.

Schrodinger: H does not depend on time, so one RK4 step is exactly the
matrix P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 with z = -i dt H, and n_sub
steps are P^n_sub (Moler & Van Loan, SIAM Rev. 45 (2003) 3).  The kernel
builds P by Horner's rule (3 matrix products) and its n_sub-th power by
binary powering, in H's storage plus two buffers (3 x 16 dim^2 bytes),
then advances each sample with one matrix-vector product; dt, n_sub and
the truncation error are those of the step-by-step loop.  One code path
serves both models at every kappa; ``evolve`` passes it only the
parity-even sector (na + (N+1)/2 states), where a fig5 cell at N = 1001
takes 0.11-0.15 s against 0.70-1.0 s at full dimension (one BLAS thread).

Lindblad: one RK4 step is written as four Horner stages
r <- rho + (dt/k) L(r) for k = 4, 3, 2, 1, which give the same degree-4
polynomial in dt L as the k1..k4 loop, so dt, n_sub and the truncation
error are unchanged.  With H_eff = H - i kappa/2 P_d,
(dt/k) L(r) = M + M^H + (dt/k) kappa r_dd |j><j| where M = Z_k r,
Z_k = -i (dt/k) H_eff is a sparse CSR matrix built once per call, and j
is the sink (jump-to-ground) or d itself (dephasing).  H is a cyclic
chain plus the atom block and two couplings, about 3 dim nonzeros, so a
stage costs O(nnz dim) instead of a dense O(dim^3) product.  Each stage
adds M to its own conjugate transpose, so every stage is exactly
Hermitian and no re-Hermitization is needed.  Only the sampled atom
block, the traces and the final rho are stored.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

#: There is no compiled backend; kept for run records that report it.
USING_COMPILED = False


def _rk4_step_matrix(h: np.ndarray, dt: float, buf1: np.ndarray, buf2: np.ndarray) -> np.ndarray:
    """P(-i dt H) by Horner's rule, left in buf2; h is overwritten with -i dt H."""
    diag = slice(None, None, h.shape[0] + 1)
    z = h
    z *= -1j * dt
    np.divide(z, 4.0, out=buf1)
    buf1.flat[diag] += 1.0  # 1 + z/4
    np.matmul(z, buf1, out=buf2)
    buf2 /= 3.0
    buf2.flat[diag] += 1.0  # 1 + z/3 (1 + z/4)
    np.matmul(z, buf2, out=buf1)
    buf1 /= 2.0
    buf1.flat[diag] += 1.0  # 1 + z/2 (1 + z/3 (1 + z/4))
    np.matmul(z, buf1, out=buf2)
    buf2.flat[diag] += 1.0
    return buf2


def _matrix_power(m: np.ndarray, n: int, buf1: np.ndarray, buf2: np.ndarray) -> np.ndarray:
    """m^n for n >= 1 by binary powering in m, buf1 and buf2, all of which it may overwrite.

    Returns the one of the three arrays that holds the result.
    """
    result, spare = None, [buf1, buf2]
    while True:
        if n & 1:
            out = spare.pop()
            if result is None:
                np.copyto(out, m)
            else:
                np.matmul(result, m, out=out)
                spare.append(result)
            result = out
        n >>= 1
        if n == 0:
            return result
        out = spare.pop()
        np.matmul(m, m, out=out)
        spare.append(m)
        m = out


def rk4_schrodinger(
    h: np.ndarray,
    na: int,
    psi0: np.ndarray,
    dt: float,
    n_sub: int,
    n_samples: int,
):
    """Propagate psi0 under the dense complex H, sampling every n_sub steps (sample 0 is psi0).

    ``h`` is overwritten.  Returns (atom_samples, norm2_samples, psi_final,
    build_s), where atom_samples holds the first ``na`` amplitudes and
    build_s is the time spent building the propagation matrix.
    """
    t0 = time.perf_counter()
    buf1, buf2 = np.empty_like(h), np.empty_like(h)
    step = _matrix_power(_rk4_step_matrix(h, dt, buf1, buf2), n_sub, h, buf1)
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
    dephasing: bool = False,
):
    """Propagate the master equation with jump sqrt(kappa)|sink><d|, sampling every n_sub steps.

    drho/dt = -i[H, rho] - (kappa/2){Pd, rho} + kappa rho_dd |sink><sink|
    (jump-to-ground), or the pure-dephasing variant
    -i[H, rho] + kappa (Pd rho Pd - (1/2){Pd, rho}) when ``dephasing``.
    The atom levels (d, e, m) are d_index .. d_index + 2.

    Returns (atom_samples, trace_samples, rho_final): the sampled 3 x 3
    atom block, tr rho and the last state.
    """
    jump = d_index if dephasing else sink_index
    h_eff = h_real.astype(complex)
    h_eff[d_index, d_index] -= 0.5j * kappa
    stages = [(sparse.csr_matrix(-1j * (dt / k) * h_eff), (dt / k) * kappa) for k in (4, 3, 2, 1)]

    rho = rho0.astype(complex)
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian, so every stage stays so
    r, lift = np.empty_like(rho), np.empty_like(rho)
    atom = slice(d_index, d_index + 3)
    atom_out = np.empty((n_samples, 3, 3), dtype=complex)
    tr_out = np.empty(n_samples, dtype=float)

    def record(i):
        atom_out[i] = rho[atom, atom]
        tr_out[i] = float(np.trace(rho).real)

    record(0)
    for i in range(1, n_samples):
        for _ in range(n_sub):
            src = rho
            for z, jump_rate in stages:  # r <- rho + (dt/k) L(src), k = 4, 3, 2, 1
                dd = src[d_index, d_index].real
                m = z @ src
                np.conjugate(m.T, out=lift)
                lift += m
                np.add(rho, lift, out=r)
                r[jump, jump] += jump_rate * dd
                src = r
            rho, r = r, rho
        record(i)
    return atom_out, tr_out, rho
