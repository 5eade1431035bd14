"""Numpy propagation kernels: the hot loops of the package.

Both kernels integrate i dpsi/dt = H psi (or the master equation) with
time-independent generators and record a sample every grid spacing.
Callers look them up as ``_kernels.rk4_*`` at call time, so a
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
(ValueError otherwise).  A state whose row and column of H are zero off
the diagonal, other than the sink and d, e, m, is free (``free_states``):
the jump neither reads nor feeds it, so over t_end = (n_samples - 1)
Delta the free-free block of rho turns exactly to exp(-i H_F t_end)
rho_FF exp(i H_F t_end), the kept-free block to E rho_KF exp(i H_F
t_end), with E the kept block's no-jump propagator over t_end, and tr
rho_FF is a constant of every trace sample.  ``lindblad_evolve`` passes
H in the parity basis, where the (N-1)/2 odd modes are free (all N modes
at g = 0); a site-basis H has none and runs the same code.  Everything
below runs on the kept block K.  There H_eff = V diag(lam) V^-1 with the
sink as eigenvalue 0, and y = V^-1 rho V^-H obeys dy_ab/dt = -i (lam_a -
conj lam_b) y_ab, except that the jump feeds y_sink,sink, where that
rate is 0, and reads nothing there.  Over one grid interval Delta, then,
exactly y_ab <- exp(mu_ab) y_ab, mu_ab = -i Delta (lam_a - conj lam_b),
and the sink gains kappa Delta sum_ab V_da conj(V_db) phi1(mu_ab) y_ab,
phi1(x) = (e^x - 1)/x (Hochbruck & Ostermann, Acta Numer. 19 (2010)
209): O(dim_K^2) per sample after one ``eig``, and E = V exp(-i t_end
lam) V^-1.  Near an exceptional point V is ill-conditioned and the
eigenbasis loses digits, so above EIGENBASIS_MAX_COND the dense
exponential runs on rho itself: P = T(-i dt H_eff)^n_sub with dt =
Delta/n_sub, the Schrodinger build, M = P - I and E = P^(n_samples - 1).
Exactly rho <- P rho P^H over the interval (P's sink row and column are
I's), applied as rho + X + X^H with X = M rho (I + M^H/2) so that rho
stays exactly Hermitian, and the sink gains tr(K rho), K = I - P^H P =
-(M + M^H + M^H M), since d tr rho_excited/dt = -kappa rho_dd: the trace
is conserved by construction, at two dense products a sample.  Both
paths run one sample loop, on their readout basis (V, or I), their
advance over one interval and the weights of tr rho and the sink's gain,
and store only the sampled atom block, the traces and the final rho.  In
the parity basis an N = 53 run of 1201 samples takes 0.017 s in the
eigenbasis and 0.05 s by the dense exponential (one BLAS thread), against
0.027 s and 0.14 s with every state kept.
"""

from __future__ import annotations

import time

import numpy as np

#: There is no compiled backend; kept for run records that report it.
USING_COMPILED = False
#: Largest cond(V) of H_eff's eigenvectors at which ``rk4_lindblad`` runs in
#: the eigenbasis; closer to an exceptional point the dense exponential runs.
#: Every preset at N = 21, 53 and 253, with and without kappa and g, has
#: cond(V) 1.0-4.7; at 1.75e3 the eigenbasis moved rho by 5.9e-10.
EIGENBASIS_MAX_COND = 1e3


def _taylor_power(h: np.ndarray, dt: float, n_sub: int) -> np.ndarray:
    """T(-i dt h)^n_sub: the degree-12 Taylor polynomial by Horner's rule, raised by ``matrix_power``."""
    z, one = -1j * dt * h, np.eye(len(h))
    step = one + z / 12
    for k in range(11, 0, -1):
        step = one + (z @ step) / k
    return np.linalg.matrix_power(step, n_sub)


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
    step = _taylor_power(h, dt, n_sub)
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


def rk4_lindblad(h_real: np.ndarray, kappa: float, d_index: int, sink_index: int, rho0: np.ndarray,
                 delta: float, n_sub: int, n_samples: int):
    """Propagate the master equation with jump sqrt(kappa)|sink><d|, sampling every grid spacing ``delta``.

    drho/dt = -i[H, rho] - (kappa/2){Pd, rho} + kappa rho_dd |sink><sink|.
    The atom levels (d, e, m) are d_index .. d_index + 2, and the sink's
    row and column of ``h_real`` must be zero (ValueError naming it,
    before any work).  The states that ``free_states`` names advance in
    closed form; the rest, the kept block, runs in the eigenbasis of its
    H_eff when cond(V) <= EIGENBASIS_MAX_COND, otherwise by the dense
    exponential of n_sub Taylor steps delta/n_sub.

    Returns (atom_samples, trace_samples, rho_final, cond_v): the sampled
    3 x 3 atom block, tr rho, the last state, and cond(V) of the kept
    block's eigenbasis, or None where the dense exponential ran.
    """
    if np.any(h_real[sink_index]) or np.any(h_real[:, sink_index]):
        raise ValueError(f"h_real's sink row and column (index {sink_index}) must be zero")
    rho = rho0.astype(complex)
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian, so every dense step keeps it so
    free = free_states(h_real, d_index, sink_index)
    kept, free = np.flatnonzero(~free), np.flatnonzero(free)
    d_index, sink_index = np.searchsorted(kept, [d_index, sink_index])  # their places in the kept block
    h_eff = h_real[np.ix_(kept, kept)].astype(complex)
    h_eff[d_index, d_index] -= 0.5j * kappa
    # The jump reads and feeds neither the kept-free nor the free-free block: each advances once (module docstring).
    levels, t_end = h_real.diagonal()[free].real, (n_samples - 1) * delta
    kept_free = rho[np.ix_(kept, free)] * np.exp(1j * t_end * levels)
    free_free = rho[np.ix_(free, free)] * np.exp(-1j * t_end * (levels[:, None] - levels))
    lam, basis, cond_v = _sink_padded_eig(h_eff, sink_index)
    if cond_v <= EIGENBASIS_MAX_COND:
        w = np.linalg.inv(basis)
        y = w @ rho[np.ix_(kept, kept)] @ w.conj().T
        kept_free = basis @ (np.exp(-1j * t_end * lam)[:, None] * (w @ kept_free))
        del h_eff, rho, w  # keep only the eigenbasis arrays live while it propagates
        advance, weights = _eigenbasis_step(lam, basis, kappa, d_index, delta)
    else:
        y, basis, cond_v = rho[np.ix_(kept, kept)], np.eye(len(kept)), None
        step = _taylor_power(h_eff, delta / n_sub, n_sub)
        kept_free = np.linalg.matrix_power(step, n_samples - 1) @ kept_free
        advance, weights = _dense_step(step)
    free_trace = np.trace(free_free).real

    # rho = B y B^H (B = basis), tr rho = weights[0] . y; the sink gains weights[1] . y, taken before each advance.
    atom = basis[d_index:d_index + 3]
    atom_h = atom.conj().T
    atom_out = np.empty((n_samples, 3, 3), dtype=complex)
    tr_out = np.empty(n_samples, dtype=float)
    for i in range(n_samples):
        atom_out[i] = atom @ y @ atom_h
        trace, gain = weights @ y.ravel()
        tr_out[i] = trace.real
        if i + 1 < n_samples:
            advance(y)
            y[sink_index, sink_index] += gain
    rho = np.empty(h_real.shape, dtype=complex)
    rho[np.ix_(kept, kept)] = basis @ y @ basis.conj().T
    rho[np.ix_(kept, free)] = kept_free
    rho[np.ix_(free, kept)] = kept_free.conj().T
    rho[np.ix_(free, free)] = free_free
    return atom_out, tr_out + free_trace, 0.5 * (rho + rho.conj().T), cond_v


def free_states(h_real: np.ndarray, d_index: int, sink_index: int) -> np.ndarray:
    """Mask of the states that ``rk4_lindblad`` advances in closed form.

    A state is free when its row and column of ``h_real`` are zero off the
    diagonal; the sink and the atom levels d, e, m are always kept.
    """
    coupled = h_real != 0
    np.fill_diagonal(coupled, False)
    free = ~(coupled.any(axis=0) | coupled.any(axis=1))
    free[[sink_index, d_index, d_index + 1, d_index + 2]] = False
    return free


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


def _eigenbasis_step(lam, v, kappa, d_index, delta):
    """(advance, weights) of one exact interval ``delta`` on y = V^-1 rho V^-H (module docstring).

    advance(y) sets y <- y o exp(mu), mu_ab = -i delta (lam_a - conj lam_b);
    the sink gains sum_ab C_ab y_ab, C = kappa delta (V_d x conj V_d) o phi1(mu).
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
    return (lambda y: np.multiply(y, step, out=y)), weights.reshape(2, dim * dim)


def _dense_step(p):
    """(advance, weights) of one interval on rho by the dense step P (module docstring).

    advance(rho) sets rho <- P rho P^H; the sink gains tr(K rho), K = I - P^H P.
    """
    one = np.eye(len(p))
    m = p - one
    m_h = m.conj().T
    right = one + 0.5 * m_h
    # Weights of tr(rho) and of tr(K rho) = sum_ab K_ba rho_ab, read as one product.
    weights = np.stack([one, -(m + m_h + m_h @ m).T]).reshape(2, -1)

    def advance(rho):
        x = m @ rho @ right
        rho += x + x.conj().T  # X + X^H is exactly Hermitian, so rho stays so

    return advance, weights
