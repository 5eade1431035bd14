"""Bound states, residues, and the analytic long-time amplitude.

The single dark-state emitter coupled to the cosine band omega_k =
omega0 - 2*xi*cos(k) has poles of its resolvent at solutions of

    E = E1 + J^2 * sum_k 1/(E - omega_k),

one beyond each band edge.  In the N -> infinity limit the lattice sum has
the closed form N/sqrt((E - omega0)^2 - 4*xi^2) with the branch fixed by
analytic continuation off the band (positive above, negative below).  The
inverse-Laplace decomposition of the amplitude u(t) then splits into the
two pole terms B_j * Q(p_j) * exp(-i*E_j*t) plus a branch-cut integral
over the band that dephases at long times.

One root search, ``_dispersion_root``, solves E = E1 + Sigma(E) on either
side for both self-energies: the continuum g^2 * G(E) beyond the band edge
and the finite-N mode sum beyond the outermost mode.  Beyond that end,
``inner``, both obey |Sigma(E)| <= g^2/|E - inner|.  At the far end
inner +- (max(+-(Re E1 - inner), 0) + g + xi) the distance |E - Re E1| is
at least g + xi while |Sigma| < g, so that end always brackets the root
with the near end inner +- 1e-13 xi; only a root closer than 1e-13 xi to
``inner`` escapes, and it raises NoConvergence.

A mathematical subtlety drives the "significant" flag below: the 1/sqrt
van Hove divergence at a 1D band edge guarantees a root beyond *each*
edge for any coupling, so by bare root counting there are always two.
When E1 sits outside the band, the far root hugs the opposite edge with
residue weight B -> 0 and is physically invisible -- equivalently, the
hybrid system behaves as having a single bound state.  We count a root
as significant when its weight exceeds the weight the far root has with
E1 placed exactly on the opposite band edge; that threshold makes the
2 <-> 1 count transition happen at the band edges themselves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize

from .errors import EdgeSingularity, NoConvergence, OnBranchCut
from .params import SystemParams

__all__ = [
    "BandInfo",
    "BoundState",
    "BoundStateSet",
    "lattice_sum",
    "discrete_lattice_sum",
    "find_bound_states",
    "branch_cut_integrand",
    "branch_cut_integral",
    "analytic_amplitude",
    "long_time_probability",
]

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 200


@dataclass(frozen=True)
class BandInfo:
    """Edges of the cosine band omega0 -+ 2 xi."""

    lower_edge: float
    upper_edge: float

    def contains(self, energy: float) -> bool:
        return self.lower_edge < energy < self.upper_edge

    @classmethod
    def from_params(cls, params: SystemParams) -> "BandInfo":
        return cls(lower_edge=params.band_lower, upper_edge=params.band_upper)


@dataclass(frozen=True)
class BoundState:
    """One resolvent pole outside the band.

    ``energy`` solves the continuum dispersion relation; ``lattice_energy``
    solves the same relation with the exact N-term mode sum and therefore
    equals the corresponding eigenvalue of the (N+1)-dim effective
    Hamiltonian.  ``residue_weight`` is B_j and ``pole_amplitude`` is
    Q(p_j) from the inverse-Laplace pole expansion.  ``significant`` marks
    weights above the band-edge transition threshold (see module docstring).
    """

    energy: complex
    location: str  # "above_band" | "below_band"
    residue_weight: complex
    pole_amplitude: complex
    lattice_energy: complex
    significant: bool


@dataclass(frozen=True)
class BoundStateSet:
    band: BandInfo
    states: tuple[BoundState, ...]
    e1: complex

    @property
    def phi(self) -> complex:
        """Pole splitting phi = E_above - E_below; defined for two states."""
        if len(self.states) != 2:
            raise ValueError("phi requires both bound states")
        above = next(s for s in self.states if s.location == "above_band")
        below = next(s for s in self.states if s.location == "below_band")
        return above.energy - below.energy

    @property
    def count(self) -> int:
        """Number of significant bound states (the Fig.-2 count)."""
        return sum(1 for s in self.states if s.significant)

    @property
    def n_roots(self) -> int:
        return len(self.states)

    def state(self, location: str) -> BoundState | None:
        for s in self.states:
            if s.location == location:
                return s
        return None


# -- lattice Green's function -------------------------------------------------


def lattice_sum(energy: complex, params: SystemParams) -> complex:
    """Continuum closed form of sum_k 1/(E - omega_k).

    Returns N / (sqrt(E - omega0 - 2 xi) * sqrt(E - omega0 + 2 xi)) with
    principal square roots.  The product form is analytic everywhere off
    the band interval (the individual cuts cancel on the shared half-line),
    reduces to +N/sqrt((E-omega0)^2 - 4 xi^2) for real E above the band and
    to the negative of that below, and continues smoothly into the complex
    plane from either side.
    """
    e = complex(energy)
    band = BandInfo.from_params(params)
    if abs(e.imag) < 1e-14 and band.lower_edge <= e.real <= band.upper_edge:
        raise OnBranchCut(f"E = {e} lies on the band [{band.lower_edge}, {band.upper_edge}]")
    root = cmath.sqrt(e - band.upper_edge) * cmath.sqrt(e - band.lower_edge)
    return params.n_cavities / root


def discrete_lattice_sum(energy: complex, params: SystemParams) -> complex:
    """Exact finite-N mode sum sum_k 1/(E - omega_k)."""
    return complex(np.sum(1.0 / (complex(energy) - params.mode_frequencies())))


def _local_green(energy: complex, params: SystemParams) -> complex:
    """Per-mode continuum Green's function lattice_sum/N (bypasses cut check)."""
    e = complex(energy)
    root = cmath.sqrt(e - params.band_upper) * cmath.sqrt(e - params.band_lower)
    return 1.0 / root


def _local_green_deriv(energy: complex, params: SystemParams) -> complex:
    e = complex(energy)
    s2 = (e - params.omega0) ** 2 - 4.0 * params.xi**2
    root = cmath.sqrt(e - params.band_upper) * cmath.sqrt(e - params.band_lower)
    return -(e - params.omega0) / (s2 * root)


# -- dispersion roots ----------------------------------------------------------


def _complex_newton(
    f: Callable[[complex], complex],
    fprime: Callable[[complex], complex],
    z0: complex,
    scale: float,
    region: str,
) -> complex:
    z = complex(z0)
    for _ in range(NEWTON_MAXITER):
        fz = f(z)
        if abs(fz) < NEWTON_TOL * scale:
            return z
        dz = fz / fprime(z)
        z = z - dz
        # Near a band edge f' blows up and |f| stalls above the residual
        # tolerance even though z is machine-accurate; a vanishing step is
        # then the honest convergence signal.
        if abs(dz) <= 4e-16 * max(abs(z), scale):
            return z
    raise NoConvergence(region, f"|f| = {abs(f(z)):.3e} after {NEWTON_MAXITER} Newton steps")


def _dispersion_root(
    params: SystemParams,
    e1: complex,
    location: str,
    sigma: Callable[[complex], complex],
    sigma_prime: Callable[[complex], complex],
    inner: float,
) -> complex:
    """Solve E = E1 + sigma(E) beyond ``inner`` on the ``location`` side.

    brentq solves the real part between inner +- 1e-13 xi and the far end
    from the module docstring; for complex E1, Newton refines that root.
    """
    xi = params.xi
    side = 1.0 if location == "above_band" else -1.0

    def f_real(e: float) -> float:
        return e - e1.real - sigma(e).real

    lo = inner + side * 1e-13 * xi
    if side * f_real(lo) > 0:
        raise NoConvergence(location, f"root closer than {1e-13 * xi:.3g} to {inner}")
    hi = inner + side * (max(side * (e1.real - inner), 0.0) + params.g + xi)
    root = float(optimize.brentq(f_real, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200))
    if e1.imag == 0.0:
        return complex(root)
    return complex(_complex_newton(lambda z: z - e1 - sigma(z), lambda z: 1.0 - sigma_prime(z),
                                   complex(root), xi, location))


def _continuum_root(params: SystemParams, e1: complex, location: str) -> complex:
    """Solve E = E1 + g^2 * G(E) beyond one band edge (continuum G)."""
    g2 = params.g**2
    edge = params.band_upper if location == "above_band" else params.band_lower
    return _dispersion_root(params, e1, location, lambda e: g2 * _local_green(e, params),
                            lambda z: g2 * _local_green_deriv(z, params), edge)


def _lattice_root(params: SystemParams, e1: complex, location: str) -> complex:
    """Solve the dispersion relation with the exact N-term mode sum.

    The real-axis root between the outermost mode and infinity is exactly
    the out-of-band eigenvalue of the (N+1)-dim effective Hamiltonian.
    """
    modes = params.mode_frequencies()
    j2 = params.g**2 / params.n_cavities
    outer = float(modes.max() if location == "above_band" else modes.min())
    return _dispersion_root(params, e1, location, lambda e: j2 * np.sum(1.0 / (e - modes)),
                            lambda z: -j2 * np.sum(1.0 / (z - modes) ** 2), outer)


def _residue_weight(energy: complex, e1: complex, params: SystemParams) -> complex:
    """B_j = s2 / (s2 + (E - E1)(E - omega0)) with s2 = (E-omega0)^2 - 4 xi^2."""
    s2 = (energy - params.omega0) ** 2 - 4.0 * params.xi**2
    return s2 / (s2 + (energy - e1) * (energy - params.omega0))


def _pole_amplitude(energy: complex, params: SystemParams) -> complex:
    """Q(p_j) = (g/N) * lattice_sum(E_j); +g/(xi sqrt(M^2-4)) above the band."""
    return params.g * _local_green(energy, params)


def _critical_weight(params: SystemParams) -> float:
    """Far-root weight when E1 sits exactly on the opposite band edge.

    The weight of the root hugging the far edge decreases monotonically as
    E1 moves away, so comparing |B| against this value places the
    significant-count transition exactly at the band edges.  The cosine
    band is symmetric, so one edge suffices.
    """
    if params.g == 0.0:
        return 0.0
    e1_edge = complex(params.band_upper)
    root = _continuum_root(params, e1_edge, "below_band")
    return abs(_residue_weight(root, e1_edge, params))


def find_bound_states(params: SystemParams, e1: complex) -> BoundStateSet:
    """Locate the resolvent poles beyond both band edges.

    For kappa = 0 (real ``e1``) this is bracketed real root-finding; complex
    ``e1`` refines each real root by Newton iteration on the analytically
    continued dispersion relation.  Each returned state carries the
    continuum pole energy (used in all analytic formulas), the exact
    finite-N root (equal to the matrix eigenvalue), the residue weight B_j,
    the pole amplitude Q(p_j), and the significance flag described in the
    module docstring.

    Raises NoConvergence, naming the failing region, if either search fails.
    """
    e1 = complex(e1)
    band = BandInfo.from_params(params)
    if params.g == 0.0:
        # Decoupled atom: the resolvent pole is E1 itself.
        states: tuple[BoundState, ...]
        if band.contains(e1.real):
            states = ()
        else:
            loc = "above_band" if e1.real >= band.upper_edge else "below_band"
            states = (BoundState(e1, loc, 1.0 + 0j, 0.0j, e1, True),)
        return BoundStateSet(band=band, states=states, e1=e1)

    b_crit = _critical_weight(params)
    found = []
    for location in ("below_band", "above_band"):
        energy = _continuum_root(params, e1, location)
        lattice_energy = _lattice_root(params, e1, location)
        weight = _residue_weight(energy, e1, params)
        found.append(
            BoundState(
                energy=energy,
                location=location,
                residue_weight=weight,
                pole_amplitude=_pole_amplitude(energy, params),
                lattice_energy=lattice_energy,
                significant=bool(abs(weight) >= b_crit * (1.0 - 1e-9)),
            )
        )
    return BoundStateSet(band=band, states=tuple(found), e1=e1)


# -- branch cut ---------------------------------------------------------------


def _branch_cut_density(params: SystemParams, e1: complex,
                        initial: str) -> Callable[[float, float], complex]:
    """Branch-cut density C(x) without its phase, as a function of (x, w2 = 4 xi^2 - x^2).

    photon at site 0:  C(x) = -(1/pi) * [g/sqrt(w2)] * (E1 - omega0 + x)
                              / [(E1 - omega0 + x)^2 + g^4/w2]
    atom (u(0) = 1):   C(x) = (1/pi) * [g^2/sqrt(w2)] / [(E1 - omega0 + x)^2 + g^4/w2]

    The g^4 in the denominator is (J^2 N)^2: the mode sum contributes
    J^2 * N/sqrt(w2) on the cut, and it is that full term that gets squared.
    """
    g = params.g
    g4 = g**4
    shift = e1 - params.omega0
    if initial == "photon":

        def density(x: float, w2: float) -> complex:
            a = shift + x
            return -(g / math.sqrt(w2)) * a / (a * a + g4 / w2) / math.pi

    elif initial == "atom":

        def density(x: float, w2: float) -> complex:
            a = shift + x
            return (g * g / math.sqrt(w2)) / (a * a + g4 / w2) / math.pi

    else:
        raise ValueError(f"initial must be 'photon' or 'atom', got {initial!r}")
    return density


def branch_cut_integrand(x: float, t: float, params: SystemParams, e1: complex) -> complex:
    """Branch-cut integrand C(x) exp(i (x - omega0) t) for the photon-at-site-0 start.

    See ``_branch_cut_density`` for C(x); valid strictly inside |x| < 2 xi.
    """
    xi = params.xi
    if abs(x) >= 2.0 * xi:
        raise EdgeSingularity(f"|x| = {abs(x)} is not inside the band half-width {2.0 * xi}")
    dens = _branch_cut_density(params, e1, "photon")(x, 4.0 * xi**2 - x * x)
    return dens * cmath.exp(1j * (x - params.omega0) * t)


def branch_cut_integral(
    t: float,
    params: SystemParams,
    e1: complex,
    initial: str = "photon",
    epsabs: float = 1e-11,
) -> complex:
    """Adaptive Gauss-Kronrod quadrature of the branch-cut term at time t.

    Uses the substitution x = 2 xi sin(theta), which absorbs the
    1/sqrt(4 xi^2 - x^2) edge behaviour into a bounded integrand.
    """
    if params.g == 0.0:
        return 0.0j
    density = _branch_cut_density(params, e1, initial)
    two_xi = 2.0 * params.xi
    omega0 = params.omega0

    def integrand(theta: float) -> complex:
        x = two_xi * math.sin(theta)
        w = two_xi * math.cos(theta)
        # dx = w dtheta cancels one sqrt(w2) = w in the density.
        return density(x, w * w) * w * cmath.exp(1j * (x - omega0) * t)

    # Oscillation count grows like 2*xi*t; cap subdivision accordingly.
    limit = int(200 + 4.0 * two_xi * abs(t))
    re, _ = integrate.quad(lambda th: integrand(th).real, -np.pi / 2, np.pi / 2,
                           epsabs=epsabs, epsrel=1e-10, limit=limit)
    im, _ = integrate.quad(lambda th: integrand(th).imag, -np.pi / 2, np.pi / 2,
                           epsabs=epsabs, epsrel=1e-10, limit=limit)
    return complex(re, im)


# -- analytic amplitude ---------------------------------------------------------


def analytic_amplitude(
    t,
    params: SystemParams,
    e1: complex,
    include_branch_cut: bool = False,
    bound: BoundStateSet | None = None,
    initial: str = "photon",
    u0: complex = 1.0,
):
    """Pole-expansion amplitude u(t); accepts scalar or array t.

    For the photon initial condition u(t) = sum_j B_j Q(p_j) exp(-i E_j t);
    for ``initial='atom'`` the Q factors are replaced by the initial
    amplitude ``u0``.  With ``include_branch_cut`` the quadrature term is
    added, making the decomposition exact (u(0) = 0 for the photon case).
    """
    if bound is None:
        bound = find_bound_states(params, e1)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    u = np.zeros(ts.shape, dtype=complex)
    for s in bound.states:
        coef = s.residue_weight * (s.pole_amplitude if initial == "photon" else u0)
        u += coef * np.exp(-1j * s.energy * ts)
    if include_branch_cut:
        scale = 1.0 if initial == "photon" else u0
        u += scale * np.array([branch_cut_integral(tv, params, e1, initial=initial) for tv in ts])
    return u if np.ndim(t) else complex(u[0])


def long_time_probability(t, bound: BoundStateSet):
    """Long-time dark-state probability from the bound-state poles.

    With two states this is Q(p1)^2 |B1 e^{-i E_+ t} - B2 e^{-i E_- t}|^2,
    which for kappa = 0 reduces to the familiar
    Q(p1)^2 [B1^2 + B2^2 - 2 B1 B2 cos(phi t)] with phi = E_+ - E_-,
    and for kappa > 0 gives the decaying oscillation.  With a single state
    the probability is the constant (decaying) |Q B|^2 term.  Accepts
    scalar or array t.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    above = bound.state("above_band")
    below = bound.state("below_band")
    if above is not None and below is not None:
        q1 = above.pole_amplitude
        u = above.residue_weight * np.exp(-1j * above.energy * ts) - below.residue_weight * np.exp(
            -1j * below.energy * ts
        )
        p = np.abs(q1) ** 2 * np.abs(u) ** 2
    elif above is not None or below is not None:
        s = above if above is not None else below
        p = np.abs(s.pole_amplitude * s.residue_weight * np.exp(-1j * s.energy * ts)) ** 2
    else:
        p = np.zeros(ts.shape)
    return p if np.ndim(t) else float(p[0])
