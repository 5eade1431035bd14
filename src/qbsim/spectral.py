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

Both self-energies are written in the Joukowski variable z, E - omega0 =
xi (z + 1/z) with |z| <= 1, where s = 1/z - z is sqrt((E - omega0)^2 -
4 xi^2)/xi on the branch above.  For odd N the mean mode sum is exactly

    (1/N) sum_k 1/(E - omega_k) = (1 - q) / (xi s (1 + q)),   q = z^N,

and the continuum G(E) = 1/(xi s) is its q = 0 limit; |q| <= 1, so the
form never overflows, and it holds on the band too, where |z| = 1.  With
a = omega0 - E1, the continuum relation E = E1 + g^2 G(E) is the quartic

    xi^2 (1 - z^4) + a xi z (1 - z^2) - g^2 z^2 = 0.

For real E1 exactly one root lies in (-1, 0) (below the band) and one in
(0, 1) (above it); the other two lie outside the unit disk.  B and Q are
taken from z, so they keep their digits however close a root is to its
edge.  For complex E1, Newton in E refines the root found at Re E1.  The
finite-N root lies beyond the outermost mode ``outer``.  It is found by
Newton steps in E on F(E) (E - outer), where F(E) = E - E1 - Sigma(E) and
the factor cancels that mode's pole, seeded at the continuum root and
bisecting whenever a step leaves the bracket from outer +- 1e-13 xi to
outer +- (max(+-(Re E1 - outer), 0) + g + xi).  Beyond ``outer``
|Sigma(E)| <= g^2/|E - outer|, so at the far end |E - Re E1| >= g + xi >
|Sigma| and the bracket holds every root except one closer than 1e-13 xi
to ``outer``, which raises NoConvergence.

The same sum gives every eigenvalue of the effective model's parity-even
H, an arrowhead matrix: lambda = E1 + Sigma(lambda), Sigma = g^2 (1/N)
sum_k 1/(lambda - omega_k), whose (N+1)/2 distinct even mode energies
carry the sqrt(2) pair weights.  On the band z = e^{i theta}, lambda =
omega0 + 2 xi cos theta, q = e^{i N theta} and Sigma = g^2 tan(N theta/2) /
(2 xi sin theta), so the (N - 1)/2 roots inside the band solve the
pole-free phase equation

    phi = arctan R(theta),   theta = (2 m pi + 2 phi)/N,   m = 1 .. (N - 1)/2,
    R(theta) = 2 xi sin(theta) (omega0 + 2 xi cos(theta) - E1)/g^2,

with phi in (-pi/2, pi/2): one root between each pair of neighbouring
modes, which sit at theta = (2 m -+ 1) pi/N; ``interior_roots`` solves it
with a leading axis of cells (omega0, xi).  The two outer roots are the
finite-N roots above.

The branch-cut term is the integral over the band of a density C(x)
times exp(i (x - omega0) t), taken in x = 2 xi sin(theta): dx = w dtheta,
w = sqrt(4 xi^2 - x^2), cancels C's 1/w edge factor, and
``_branch_cut_density`` gives C(x) w.  In theta the integrand has three
near-singular features,
each a pair of poles of C, where a w = -+i g^2 with a = E1 - omega0 + x:
the Lorentzian at theta* = arcsin((omega0 - Re E1)/(2 xi)), clamped to
[-pi/2, pi/2], whose width is about g^2/w, and the drop to zero at each
band edge theta = -+pi/2, whose width is about g^2/(2 xi |E1 - omega0 -+
2 xi|).  For real E1 the edge poles sit straight off the edge; for complex
E1 their real part moves a distance d = g^2 |Im E1|/(2 xi |E1 - omega0 -+
2 xi|^2) into the band.  ``branch_cut_integral`` splits theta at theta*,
and at an edge pole's real part where that pole is closer to the real
axis than to its edge, and applies the tanh-sinh (double-exponential)
rule to each piece (Takahasi & Mori, Publ. RIMS 9 (1974) 721), whose
nodes cluster doubly exponentially at both ends of an interval, so at
every feature.  The rule is built on nested levels h = 2^-L, L =
DE_FIRST_LEVEL .. DE_LAST_LEVEL: level L reuses level L - 1's nodes and
adds the odd multiples of h, so the level-(L - 1) sum is every other term
of level L at twice the weight, and |I_L - I_{L-1}| is the error
estimate.  L rises until that estimate is at most DE_TOL max(1, |I_L|) at
every t; if it is still above at DE_LAST_LEVEL, NoConvergence is raised.  The density is
evaluated once per node for all t, and the phases are applied as one
(times x nodes) product, in blocks of at most DE_BLOCK elements, so the
working set stays bounded however many times are asked for.

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
import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EdgeSingularity, NoConvergence, OnBranchCut
from .params import SystemParams

__all__ = [
    "BandInfo",
    "BoundState",
    "BoundStateSet",
    "lattice_sum",
    "discrete_lattice_sum",
    "find_bound_states",
    "even_sector_roots",
    "interior_roots",
    "branch_cut_integrand",
    "branch_cut_integral",
    "analytic_amplitude",
    "long_time_probability",
]

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 200
#: The phase-equation Newton stops when theta moves by at most PHASE_TOL (about 10 ulps of pi).
PHASE_TOL = 4e-15
#: The tanh-sinh branch-cut rule (module docstring): nodes at |k h| <= DE_SPAN, the
#: last within about 1e-16 of each end, on levels h = 2^-L, L = DE_FIRST_LEVEL ..
#: DE_LAST_LEVEL, until the doubling estimate is at most DE_TOL max(1, |I|); times go
#: in blocks of DE_BLOCK (time, node) pairs.  Most kappa = 0 draws of the spectral
#: benchmark stop at level 5; t = 100 takes up to level 9 over random parameters with
#: xi <= 3, and each doubling of xi t one level more.
DE_SPAN = 3.2
DE_FIRST_LEVEL = 5
DE_LAST_LEVEL = 12
DE_TOL = 1e-10
DE_BLOCK = 2**17

logger = logging.getLogger("qbsim.spectral")


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


def _joukowski(energy: complex, params: SystemParams) -> tuple[complex, complex]:
    """z with |z| <= 1 and E - omega0 = xi (z + 1/z), and s = 1/z - z.

    s = sqrt((E - omega0)^2 - 4 xi^2)/xi is taken from E minus each edge,
    so it keeps its digits near an edge.
    """
    e, xi = complex(energy), params.xi
    s = cmath.sqrt((e - params.band_upper) / xi) * cmath.sqrt((e - params.band_lower) / xi)
    return 2.0 / ((e - params.omega0) / xi + s), s


def _mean_green(z: complex, s: complex, params: SystemParams,
                n: int = 0) -> tuple[complex, complex]:
    """(1/N) sum_k 1/(E - omega_k) and its E-derivative at E = omega0 + xi (z + 1/z).

    The closed form of the module docstring in q = z^N, with s = 1/z - z;
    n = 0 gives the continuum G(E) and G'(E).
    """
    xi = params.xi
    q = z**n if n else 0.0
    green = (1.0 - q) / (xi * s * (1.0 + q))
    return green, green / (xi * s) * (2.0 * n * q / (1.0 - q * q) - (z + 1.0 / z) / s)


# -- dispersion roots ----------------------------------------------------------


def _dispersion(params: SystemParams, e1: complex, n: int = 0) -> Callable:
    """(E, (z, s)) -> (F, F'), F(E) = E - E1 - g^2 (1/N) sum_k 1/(E - omega_k); n = 0: continuum."""
    g2 = params.g**2

    def f(e: complex, point: tuple[complex, complex]) -> tuple[complex, complex]:
        green, deriv = _mean_green(*point, params, n)
        return e - e1 - g2 * green, 1.0 - g2 * deriv

    return f


def _complex_newton(f: Callable, e0: complex, params: SystemParams, region: str) -> complex:
    """Newton in E on f(E, (z, s)) -> (F, F') from the real-axis root e0 (complex E1)."""
    e, scale = complex(e0), params.xi
    for _ in range(NEWTON_MAXITER):
        fe, dfe = f(e, _joukowski(e, params))
        if abs(fe) < NEWTON_TOL * scale:
            return e
        de = fe / dfe
        e = e - de
        # Near a band edge f' blows up and |f| stalls above the residual
        # tolerance even though e is machine-accurate; a vanishing step is
        # then the honest convergence signal.
        if abs(de) <= 4e-16 * max(abs(e), scale):
            return e
    raise NoConvergence(region, f"|f| = {abs(f(e, _joukowski(e, params))[0]):.3e} "
                                f"after {NEWTON_MAXITER} Newton steps")


def _continuum_points(params: SystemParams, e1_real: float) -> list[tuple[float, float]]:
    """(z, s) of the quartic's real roots below and above the band at Re E1,
    and below the band at E1 = upper edge.

    One stacked eigvals of the two companion matrices; the two roots of
    smallest |z| are the ones inside the unit disk.  One Newton step in
    u = 1 - |z| gives z and s = 1/z - z their relative digits near z = +-1.
    """
    b, c = (params.omega0 - e1_real) / params.xi, (params.g / params.xi) ** 2
    companion = np.zeros((2, 4, 4))
    companion[:, 1:, :3] = np.eye(3)
    companion[:, 0] = [(-b, -c, b, 1.0), (2.0, -c, -2.0, 1.0)]
    rows = [sorted(r.real for r in sorted(roots, key=abs)[:2])
            for roots in np.linalg.eigvals(companion).tolist()]
    points = []
    for z, b_z in ((rows[0][0], b), (rows[0][1], b), (rows[1][0], -2.0)):
        # With v = |z| = 1 - u and w = 1 - z^2 = u (2 - u) the quartic reads
        # c v^2 - w (v^2 + 1 +- b_z v) = 0, whose terms keep their digits as u -> 0.
        side, u = math.copysign(1.0, z), 1.0 - abs(z)
        v, w = 1.0 - u, u * (2.0 - u)
        rest = v * v + 1.0 + side * b_z * v
        u -= (c * v * v - w * rest) / (w * (2.0 * v + side * b_z) - 2.0 * v * (c + rest))
        z = side * (1.0 - u)
        points.append((z, u * (2.0 - u) / z))
    return points


def _lattice_root(params: SystemParams, e1: complex, location: str,
                  seed: float, point: tuple[float, float]) -> tuple[complex, int, int]:
    """Solve the dispersion relation with the exact N-term mode sum beyond the outermost mode.

    The bracketed Newton of the module docstring from the continuum root
    ``seed`` and its (z, s); complex E1 then refines the real root by
    Newton.  The real root is exactly the out-of-band eigenvalue of the
    (N+1)-dim effective Hamiltonian.  Returns the root, the Newton steps and
    the bisections.
    """
    n, xi = params.n_cavities, params.xi
    side = 1.0 if location == "above_band" else -1.0
    outer = params.omega0 + side * 2.0 * xi * (math.cos(math.pi / n) if side > 0 else 1.0)
    near = outer + side * 1e-13 * xi
    far = outer + side * (max(side * (e1.real - outer), 0.0) + params.g + xi)
    f, point_near = _dispersion(params, e1.real, n), _joukowski(near, params)
    if side * f(near, point_near)[0].real > 0:
        raise NoConvergence(location, f"root closer than {1e-13 * xi:.3g} to {outer}")
    lo, hi = sorted((near, far))
    tol = 2e-15 * max(abs(lo), abs(hi))
    e, bisections = seed, 0
    if not lo < e < hi:  # a continuum root within 1e-13 xi of the edge
        e, point = near, point_near
    for steps in range(1, NEWTON_MAXITER + 1):
        fe, dfe = f(e, point)
        if lo < e < hi:  # F increases with E, so its sign tells the root's side
            lo, hi = (lo, e) if fe.real > 0 else (e, hi)
        de = fe.real / (dfe.real + fe.real / (e - outer))
        # Converged is tested before the bracket: a step from the root
        # itself lands on the bracket end just set at it.
        if abs(de) <= tol:
            break
        e -= de
        if not lo < e < hi:
            e, bisections = 0.5 * (lo + hi), bisections + 1
        point = _joukowski(e, params)
    else:
        raise NoConvergence(location, f"no Newton step below {tol:.3g} in {NEWTON_MAXITER}")
    root = complex(e - de)
    if e1.imag != 0.0:
        root = _complex_newton(_dispersion(params, e1, n), root, params, location)
    return root, steps, bisections


def interior_roots(omega0, xi, e1: complex, g: float, n: int) -> np.ndarray:
    """The interior roots lambda - omega0 of the phase equation, a row per cell (omega0, xi).

    A vectorised Newton in phi from phi = 0 that bisects whenever a step
    leaves the bracket: (-pi/2, pi/2) for Re phi, narrowed by the sign of
    the residual for real E1.  A cell stops once its theta moves by at most
    PHASE_TOL, so its row is bit-identical to a lone call.  Raises
    NoConvergence if a search fails.
    """
    g2 = g**2
    m = np.arange(1, (n - 1) // 2 + 1)
    xi = np.asarray(xi, dtype=float)[:, None]
    a = np.asarray(omega0, dtype=float)[:, None] - (e1 if e1.imag else e1.real)
    phi = np.zeros((len(a), len(m)), dtype=a.dtype)
    lo, hi = np.full(phi.shape, -0.5 * math.pi), np.full(phi.shape, 0.5 * math.pi)
    active = np.ones((len(a), 1), dtype=bool)
    for _ in range(NEWTON_MAXITER):
        theta = (2.0 * math.pi * m + 2.0 * phi) / n
        sin, cos = np.sin(theta), np.cos(theta)
        shift = a + 2.0 * xi * cos  # lambda - E1
        r = (2.0 * xi / g2) * sin * shift
        dr = (2.0 * xi / g2) * (cos * shift - 2.0 * xi * sin * sin)  # dR/dtheta
        f = phi - np.arctan(r)
        step = f / (1.0 - (2.0 / n) * dr / (1.0 + r * r))
        if phi.dtype.kind == "f":
            # Real E1: f(-pi/2) <= 0 <= f(pi/2) with one root between (one
            # eigenvalue between neighbouring poles), so f's sign tells its side.
            hi, lo = np.where(f > 0.0, phi, hi), np.where(f > 0.0, lo, phi)
        phi = np.where(active, phi - step, phi)
        moving = active & (np.abs(step) > PHASE_TOL * (0.5 * n))  # theta moves by 2 step/N
        active = moving.any(axis=1, keepdims=True)
        if not active.any():
            break
        # A converged root may land on its own bracket end: only moving ones bisect.
        outside = moving & ((phi.real < lo) | (phi.real > hi))
        phi.real[outside] = 0.5 * (lo + hi)[outside]
    else:
        raise NoConvergence("in_band", f"phase equation: |step| {np.max(np.abs(step[active[:, 0]])):.3e} "
                                       f"after {NEWTON_MAXITER} Newton steps")
    return 2.0 * xi * np.cos((2.0 * math.pi * m + 2.0 * phi) / n)


def even_sector_roots(params: SystemParams, e1: complex, interior: np.ndarray | None = None) -> np.ndarray:
    """Every eigenvalue lambda of the effective model's parity-even H at E1, as lambda - omega0.

    The (N + 3)/2 roots of lambda = E1 + Sigma(lambda) in descending order
    of their real parts: the finite-N root above the band, the (N - 1)/2
    interior roots of the phase equation (module docstring), m = 1 ..
    (N - 1)/2, from ``interior_roots`` unless a batch passes them, and the
    root below the band.  The outer two are ``_lattice_root``'s, found as in
    ``find_bound_states``.  Needs g > 0.  Raises NoConvergence if a search fails.
    """
    e1 = complex(e1)
    n, g2 = params.n_cavities, params.g**2
    if interior is None:
        interior = interior_roots([params.omega0], [params.xi], e1, params.g, n)[0]
    below, above_point, _ = _continuum_points(params, e1.real)
    outer = []
    for location, point in (("above_band", above_point), ("below_band", below)):
        z = point[0]
        seed = complex(params.omega0 + params.xi * (z + 1.0 / z)).real
        outer.append(_lattice_root(params, e1, location, seed, point)[0] - params.omega0)
    # One Newton step on the even modes' sum: the complex refinement stops at
    # |F| < NEWTON_TOL xi, which would move the phases by 1e-12 per unit time.
    outer = np.array(outer)
    levels = params.mode_frequencies()[n // 2:] - params.omega0
    weights = (g2 / n) * np.r_[1.0, np.full(n // 2, 2.0)][:, None]
    pole = weights / (outer - levels[:, None])
    outer -= (outer - (e1 - params.omega0) - pole.sum(axis=0)) / (1.0 + (pole * pole / weights).sum(axis=0))
    return np.concatenate([outer[:1], interior, outer[1:]]).astype(complex)


def _pole_terms(point: tuple[complex, complex], e1: complex,
                params: SystemParams) -> tuple[complex, complex]:
    """B_j = s2 / (s2 + (E - E1)(E - omega0)) and Q(p_j) = g G(E) from the root's (z, s).

    s2 = (E - omega0)^2 - 4 xi^2 = xi^2 s^2 keeps its digits however close
    the root is to an edge; E - edge would not.  Q is +g/(xi
    sqrt(M^2-4)) above the band.
    """
    xi, (z, s) = params.xi, point
    shift = xi * (z + 1.0 / z)  # E - omega0
    s2 = (xi * s) ** 2
    return complex(s2 / (s2 + (params.omega0 + shift - e1) * shift)), complex(params.g / (xi * s))


def find_bound_states(params: SystemParams, e1: complex) -> BoundStateSet:
    """Locate the resolvent poles beyond both band edges.

    The continuum roots come from the quartic at Re E1; complex ``e1``
    refines each by Newton on the analytically continued dispersion
    relation.  Each returned state carries the continuum pole energy (used
    in all analytic formulas), the exact finite-N root (equal to the matrix
    eigenvalue), the residue weight B_j, the pole amplitude Q(p_j), and the
    significance flag described in the module docstring.  Each call logs E1,
    the real-axis z and the lattice Newton steps and bisections per side to
    the ``qbsim.spectral`` logger at DEBUG level.

    Raises NoConvergence, naming the failing region, if a lattice or
    complex Newton search fails.
    """
    e1 = complex(e1)
    band = BandInfo.from_params(params)
    if params.g == 0.0:
        # Decoupled atom: the resolvent pole is E1 itself.
        logger.debug("find_bound_states E1 = %s: g = 0, no root search", e1)
        states: tuple[BoundState, ...]
        if band.contains(e1.real):
            states = ()
        else:
            loc = "above_band" if e1.real >= band.upper_edge else "below_band"
            states = (BoundState(e1, loc, 1.0 + 0j, 0.0j, e1, True),)
        return BoundStateSet(band=band, states=states, e1=e1)

    *points, edge_point = _continuum_points(params, e1.real)
    # The far root's weight with E1 on the opposite edge; the band is
    # symmetric, so one edge suffices.
    b_crit = abs(_pole_terms(edge_point, complex(params.band_upper), params)[0])
    found, searches = [], []
    for location, point in zip(("below_band", "above_band"), points):
        z = point[0]
        energy = complex(params.omega0 + params.xi * (z + 1.0 / z))
        lattice_energy, steps, bisections = _lattice_root(params, e1, location, energy.real, point)
        searches += [steps, bisections]
        if e1.imag != 0.0:
            energy = _complex_newton(_dispersion(params, e1), energy, params, location)
            point = _joukowski(energy, params)
        weight, amplitude = _pole_terms(point, e1, params)
        found.append(
            BoundState(
                energy=energy,
                location=location,
                residue_weight=weight,
                pole_amplitude=amplitude,
                lattice_energy=lattice_energy,
                significant=bool(abs(weight) >= b_crit * (1.0 - 1e-9)),
            )
        )
    logger.debug("find_bound_states E1 = %s: z below %.17g, above %.17g; lattice Newton "
                 "steps/bisections below %d/%d, above %d/%d",
                 e1, points[0][0], points[1][0], *searches)
    return BoundStateSet(band=band, states=tuple(found), e1=e1)


# -- branch cut ---------------------------------------------------------------


def _branch_cut_density(params: SystemParams,
                        initial: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Branch-cut density per unit theta, C(x) w without its phase, as a function of (a, w2).

    With x = 2 xi sin(theta), a = E1 - omega0 + x and w2 = 4 xi^2 - x^2,
    dx = w dtheta, and the density C(x) of the photon start,
    -(1/pi) [g/sqrt(w2)] a / [a^2 + g^4/w2], gives

    photon at site 0:  C(x) w = -(1/pi) * g a w2 / (a^2 w2 + g^4)
    atom (u(0) = 1):   C(x) w = (1/pi) * g^2 w2 / (a^2 w2 + g^4)

    The g^4 is (J^2 N)^2: the mode sum contributes J^2 * N/sqrt(w2) on the
    cut, and it is that full term that gets squared.  Both vanish like w2
    at the band edges.  Takes scalars or numpy arrays (elementwise).
    """
    g = params.g
    g4 = g**4
    if initial == "photon":

        def density(a, w2):
            return a * w2 * (-g / math.pi) / (a * a * w2 + g4)

    elif initial == "atom":

        def density(a, w2):
            return w2 * (g * g / math.pi) / (a * a * w2 + g4)

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
    w2 = 4.0 * xi**2 - x * x
    dens = _branch_cut_density(params, "photon")(e1 - params.omega0 + x, w2) / math.sqrt(w2)
    return complex(dens * cmath.exp(1j * (x - params.omega0) * t))


@functools.cache
def _tanh_sinh_rule(level: int, span: float) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes and weights on [0, 1] at step h = 2^-level, as (node, 1) columns.

    The nodes are (1 + tanh u)/2, u = (pi/2) sinh(k h), for |k h| <= span,
    even k first: those are the nodes of the level below, whose count
    comes first.  Then each node's distance from 0 and half its distance
    from 1, each taken so that it keeps its digits where it is small, and
    the weights, which include h.  Cached, so read-only.
    """
    h = 2.0**-level
    k = np.arange(-int(span / h), int(span / h) + 1)
    k = np.concatenate([k[k % 2 == 0], k[k % 2 == 1]])
    u = 0.5 * math.pi * np.sinh(h * k)
    rule = (1.0 / (1.0 + np.exp(-2.0 * u)), 0.5 / (1.0 + np.exp(2.0 * u)),
            (0.25 * math.pi * h) * np.cosh(h * k) / np.cosh(u) ** 2)
    for a in rule:
        a.flags.writeable = False
    return np.count_nonzero(k % 2 == 0), *(a[:, None] for a in rule)


def _phase_sums(t: np.ndarray, x: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """sum_k exp(i t_j x_k) fw[k] for every t_j (fw may have columns), in blocks of at most
    DE_BLOCK (time, node) pairs."""
    rows = max(1, DE_BLOCK // len(x))
    if len(t) <= rows:
        return np.exp(np.multiply.outer(1j * t, x)) @ fw
    return np.concatenate([_phase_sums(t[start:start + rows], x, fw) for start in range(0, len(t), rows)])


def _edge_pole(params: SystemParams, e1: complex, side: float) -> complex:
    """Distance d from the band edge theta = side pi/2 of the density's pole next to it.

    The pole solves a w = i s g^2, with s the sign of Im E1 (nonzero), so
    that Re d > 0: inside the band.  Newton from d = i s g^2/(2 xi (E1 -
    omega0 + side 2 xi)), a w to first order in d.
    """
    two_xi, c = 2.0 * params.xi, e1 - params.omega0
    target = 1j * math.copysign(params.g**2, e1.imag)
    d = target / (two_xi * (c + side * two_xi))
    for _ in range(3):
        w, a = two_xi * cmath.sin(d), c + side * two_xi * cmath.cos(d)
        d -= (a * w - target) / (two_xi * a * cmath.cos(d) - side * w * w)
    return d


def branch_cut_integral(t, params: SystemParams, e1: complex, initial: str = "photon"):
    """The branch-cut term of u(t) by the pole-split tanh-sinh rule of the module docstring.

    x = 2 xi sin(theta) absorbs the 1/sqrt(4 xi^2 - x^2) edge behaviour into
    a bounded integrand.  theta in [-pi/2, pi/2] is split at the centre
    theta* of the density's Lorentzian, and for complex E1 also at an edge
    pole that lies closer to the real axis than to its edge; each piece
    takes the tanh-sinh rule on nested levels h = 2^-L from DE_FIRST_LEVEL
    until the largest |I_L - I_{L-1}| / max(1, |I_L|) over the times is at
    most DE_TOL.  Accepts a scalar t (returns a complex) or an array
    (returns its shape).  Raises NoConvergence in region 'branch_cut' if
    DE_LAST_LEVEL is not enough.  Each call logs the level, the node count
    and the estimate to the ``qbsim.spectral`` logger at DEBUG level.
    """
    density = _branch_cut_density(params, initial)
    ts = np.asarray(t, dtype=float)
    times = ts.ravel()
    if params.g == 0.0:
        total = np.zeros(times.shape, dtype=complex)
    else:
        e1, two_xi = complex(e1), 2.0 * params.xi
        centre = math.asin(min(max((params.omega0 - e1.real) / two_xi, -1.0), 1.0))
        x_centre = two_xi * math.sin(centre)
        a_centre = (e1 if e1.imag else e1.real) - params.omega0 + x_centre  # real E1: real arithmetic
        # Half `side` runs from its band edge theta = side pi/2 to theta*.  At
        # distance d from the edge and e from theta*, w = 2 xi sin d keeps its
        # digits at the edge, and a = a(theta*) + dx at theta*, with
        # dx = x - x* = 2 xi (sin theta - sin theta*) = 4 xi side cos(theta* + side e/2) sin(e/2).
        # A piece [d0, d1] of the half of length L takes d = d0 + (d1 - d0) u
        # and e = L - d1 + (d1 - d0) (1 - u) for the rule's nodes u.
        pieces = []
        for side, length in ((-1.0, 0.5 * math.pi + centre), (1.0, 0.5 * math.pi - centre)):
            cuts = [0.0]
            if e1.imag:
                pole = _edge_pole(params, e1, side)
                if abs(pole.imag) < pole.real < length:
                    cuts.append(pole.real)
            pieces += [(side, d0, 0.5 * (length - d1), d1 - d0)
                       for d0, d1 in zip(cuts, cuts[1:] + [length]) if d1 > d0]
        sides, starts, half_ends, lengths = np.array(pieces).T[:, None]

        def terms(level: int, first: int) -> tuple[np.ndarray, np.ndarray]:
            """x and weight * integrand without its phase at the level's nodes from ``first`` on."""
            near, half_far, weights = (v[first:] * lengths for v in _tanh_sinh_rule(level, DE_SPAN)[1:])
            half_e = half_ends + half_far
            dx = np.cos(centre + sides * half_e) * np.sin(half_e) * (2.0 * two_xi * sides)
            w = two_xi * np.sin(starts + near)
            return (x_centre + dx).ravel(), (density(a_centre + dx, w * w) * weights).ravel()

        # (node, piece) order: the first n_below * len(pieces) values belong to the
        # level below DE_FIRST_LEVEL, at twice their weight there.
        level, (n_below, *_) = DE_FIRST_LEVEL, _tanh_sinh_rule(DE_FIRST_LEVEL, DE_SPAN)
        x, fw = terms(level, 0)
        both = np.zeros((len(fw), 2), dtype=fw.dtype)
        both[:, 0] = fw
        both[:n_below * len(pieces), 1] = 2.0 * fw[:n_below * len(pieces)]
        total, previous = _phase_sums(times, x, both).T
        while (estimate := (abs(total - previous) / np.maximum(1.0, abs(total))).max(initial=0.0)) > DE_TOL:
            if level == DE_LAST_LEVEL:
                raise NoConvergence("branch_cut", f"tanh-sinh estimate {estimate:.3e} above "
                                                  f"{DE_TOL:g} at level {level}")
            level += 1
            previous, total = total, 0.5 * total + _phase_sums(
                times, *terms(level, _tanh_sinh_rule(level, DE_SPAN)[0]))
        total *= np.exp(-1j * params.omega0 * times)
        # Levels nest: level L holds every |k| <= DE_SPAN 2^L on each piece.
        logger.debug("branch_cut_integral E1 = %s, %s start, %d times: %d pieces, level %d, %d nodes, "
                     "estimate %.3e", e1, initial, len(times), len(pieces), level,
                     len(pieces) * (2 * int(DE_SPAN * 2**level) + 1), estimate)
    return total.reshape(ts.shape) if ts.ndim else complex(total[0])


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
        u += scale * branch_cut_integral(ts, params, e1, initial=initial)
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
