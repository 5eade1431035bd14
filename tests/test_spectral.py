import cmath
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qbsim import atom_eigensystem_exact, effective_hamiltonian, spectral
from qbsim.errors import EdgeSingularity, NoConvergence, OnBranchCut
from qbsim.presets import preset
from qbsim.spectral import (
    BandInfo,
    analytic_amplitude,
    branch_cut_integral,
    branch_cut_integrand,
    discrete_lattice_sum,
    find_bound_states,
    lattice_sum,
    long_time_probability,
)
from conftest import random_params


def _reference_branch_cut_integral(t: float, params, e1: complex, initial: str = "photon") -> complex:
    """The branch-cut term at one t by two adaptive scipy ``quad`` calls (real and imaginary parts).

    The quadrature, and the density arithmetic in Python floats, that
    ``branch_cut_integral`` used before its tanh-sinh rule: the reference
    where quad is right.
    """
    integrate = pytest.importorskip("scipy.integrate")
    g = params.g
    if g == 0.0:
        return 0.0j
    g4, shift = g**4, e1 - params.omega0
    two_xi = 2.0 * params.xi
    omega0 = params.omega0

    def density(x: float, w2: float) -> complex:
        a = shift + x
        if initial == "photon":
            return -(g / math.sqrt(w2)) * a / (a * a + g4 / w2) / math.pi
        return (g * g / math.sqrt(w2)) / (a * a + g4 / w2) / math.pi

    def integrand(theta: float) -> complex:
        x = two_xi * math.sin(theta)
        w = two_xi * math.cos(theta)
        # dx = w dtheta cancels one sqrt(w2) = w in the density.
        return density(x, w * w) * w * cmath.exp(1j * (x - omega0) * t)

    # Oscillation count grows like 2*xi*t; cap subdivision accordingly.
    limit = int(200 + 4.0 * two_xi * abs(t))
    re_part, _ = integrate.quad(lambda th: integrand(th).real, -np.pi / 2, np.pi / 2,
                                epsabs=1e-11, epsrel=1e-10, limit=limit)
    im_part, _ = integrate.quad(lambda th: integrand(th).imag, -np.pi / 2, np.pi / 2,
                                epsabs=1e-11, epsrel=1e-10, limit=limit)
    return complex(re_part, im_part)


def _mpmath_branch_cut_integrals(t: float, params, e1: complex) -> dict[str, complex]:
    """Both starts' branch-cut terms at one t by ``mpmath.quad`` at 25 digits.

    theta is split at theta*, at the band edges, and at the real part of
    each pole of the density that lies closer to the real axis than to
    those points: the poles solve a w = -+i g^2, with a = E1 - omega0 + x,
    a quartic in z = e^{i theta}.  The two starts share each node's
    evaluation.
    """
    mpmath = pytest.importorskip("mpmath")
    xi, g, c = params.xi, params.g, complex(e1) - params.omega0
    ends = [-0.5 * math.pi, math.asin(min(max(-c.real / (2.0 * xi), -1.0), 1.0)), 0.5 * math.pi]
    # z^2 (a w -+ i g^2) = xi (-i xi z^4 + c z^3 + c z + i xi) -+ i g^2 z^2.
    poles = [cmath.log(z) / 1j for sign in (1.0, -1.0)
             for z in np.roots([-1j * xi * xi, xi * c, -sign * 1j * g * g, xi * c, 1j * xi * xi])]
    cuts = sorted(ends + [p.real for p in poles if abs(p.real) < 0.5 * math.pi
                          and abs(p.imag) < min(abs(p.real - end) for end in ends)])
    with mpmath.workdps(25):
        two_xi, omega0, g, t = (mpmath.mpf(v) for v in (2.0 * xi, params.omega0, g, t))
        c = mpmath.mpc(complex(e1).real, complex(e1).imag) - omega0
        four_xi2, g4, pi = two_xi**2, g**4, +mpmath.pi

        @functools.lru_cache(maxsize=None)
        def shared(theta):  # a, and the rest of both integrands: w^2/(a^2 w^2 + g^4)/pi exp(i x t)
            s = mpmath.sin(theta)
            a, w2 = c + two_xi * s, four_xi2 * (1 - s * s)
            rest = w2 / ((a * a * w2 + g4) * pi)
            return a, rest * mpmath.expj(two_xi * s * t) if t else rest

        phase = mpmath.expj(-omega0 * t)
        photon = mpmath.quad(lambda theta: -g * shared(theta)[0] * shared(theta)[1], cuts)
        atom = mpmath.quad(lambda theta: g * g * shared(theta)[1], cuts)
        return {"photon": complex(photon * phase), "atom": complex(atom * phase)}


def _with_coupling(params, g: float):
    """params with g1, g2 scaled to the total coupling g."""
    scale = g / params.g
    return params.replace(g1=params.g1 * scale, g2=params.g2 * scale)


# TestBranchCutRule's cases.  Their references are stored in REFERENCE_FILE, which
# make_branch_cut_references.py writes with the two reference functions above.
# LIVE_GRID_CASE and LIVE_PRESET are also recomputed on every run and checked against the
# file, so the script and the file cannot drift apart unnoticed.
GRID_G, GRID_OFFSET, GRID_IM, GRID_T = [1e-2, 1.0], [-2.5, -1.999, 0.0, 1.999], [0.0, -0.05], [0.0, 100.0]
WEAK_E1 = [18.001 - 1j, 17.5 - 1j]
PRESETS = ["fig2", "fig3a", "fig4"]
LIVE_GRID_CASE, LIVE_PRESET = (1e-2, 1.999, -0.05, 100.0), "fig4"
REFERENCE_FILE = Path(__file__).with_name("branch_cut_references.json")
STORED_TOL = 1e-13  # a stored reference against its live recomputation


def _grid_case(base, g: float, offset: float, im: float):
    p = _with_coupling(base, g * base.xi)
    return p, complex(p.omega0 + offset * p.xi, im)


def _weak_case(base, e1: complex):
    return _with_coupling(base, 1e-2), e1


def _draw_case(base):
    # Draw 2755 of seed 2 of the spectral benchmark.
    p = base.replace(omega0=31.243793526289384, xi=2.08201891642074,
                     g1=-0.3301795765427415, g2=0.33595926967959033)
    return p, complex(31.49687571220702, -0.053379565308940606)


def _preset_case(name: str):
    p = preset(name).params
    return p, atom_eigensystem_exact(p).dark_energy, np.linspace(0.0, 100.0, 201)


def _reference_key(method: str, t: float, params, e1: complex, initial: str) -> str:
    """A reference's inputs as its key, every number by repr, so that it round-trips exactly."""
    return (f"{method} t={float(t)!r} omega0={float(params.omega0)!r} xi={float(params.xi)!r} "
            f"g={float(params.g)!r} e1={complex(e1)!r} {initial}")


@functools.cache
def _stored_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["values"]


def _stored(method: str, t: float, params, e1: complex, initial: str = "photon") -> complex:
    return complex(*_stored_references()[_reference_key(method, t, params, e1, initial)])


class TestLatticeSum:
    def test_closed_form_above_and_below(self, fig2_params):
        p = fig2_params
        n = p.n_cavities
        assert lattice_sum(p.omega0 + 3.0, p) == pytest.approx(n / np.sqrt(5.0))
        assert lattice_sum(p.omega0 - 3.0, p) == pytest.approx(-n / np.sqrt(5.0))

    def test_matches_discrete_sum(self, fig2_params):
        p = fig2_params
        e = p.omega0 + 2.1
        closed = lattice_sum(e, p)
        direct = discrete_lattice_sum(e, p)
        assert abs(closed - direct) / abs(direct) < 0.005

    @pytest.mark.parametrize("n", [3, 53, 253, 1001])
    def test_closed_form_matches_mode_sum(self, fig2_params, n):
        # (1/N) sum_k 1/(E - omega_k) = (1 - z^N) / (xi s (1 + z^N)) beyond
        # and below the band, off the real axis and far away (z^N underflows),
        # each point >= 1e-3 xi from a mode; and inside the band, halfway
        # between the outermost mode and the edge (|z| = 1), a window only
        # about xi pi^2/N^2 wide.
        p = fig2_params.replace(n_cavities=n)
        outer = p.omega0 + 2.0 * p.xi * np.cos(np.pi / n)
        energies = [p.band_upper + 0.3, p.band_upper + 1e-3, p.band_lower - 0.3,
                    p.band_lower - 1e-3, p.omega0 + 0.7 - 0.05j, p.band_lower - 0.01 - 0.2j,
                    p.band_upper + 300.0 * p.xi]
        for e in energies:
            assert np.min(np.abs(e - p.mode_frequencies())) >= 1e-3 * p.xi
        for e in energies + [0.5 * (outer + p.band_upper)]:
            closed = n * spectral._mean_green(*spectral._joukowski(e, p), p, n)[0]
            direct = discrete_lattice_sum(e, p)
            assert abs(closed - direct) <= 1e-10 * abs(direct)

    def test_on_branch_cut_raises(self, fig2_params):
        with pytest.raises(OnBranchCut):
            lattice_sum(fig2_params.omega0 + 1.0, fig2_params)

    def test_branch_continuity_upper_half_plane(self, fig2_params):
        # Walk a semicircular arc from above-band to below-band through
        # Im E > 0; successive values must stay close (no branch jumps).
        p = fig2_params
        theta = np.linspace(0.0, np.pi, 400)
        path = p.omega0 + 3.0 * np.exp(1j * theta)
        vals = np.array([lattice_sum(z, p) for z in path])
        steps = np.abs(np.diff(vals))
        assert steps.max() < 5.0 * np.median(steps) + 1e-9


class TestBoundStates:
    def test_symmetric_case(self, fig2_params):
        bs = find_bound_states(fig2_params, 20.0 + 0j)
        assert bs.count == 2
        lo, hi = bs.state("below_band"), bs.state("above_band")
        # delta ~ 2.0005 xi, symmetric about omega0
        assert hi.energy.real - 20.0 == pytest.approx(2.000506, abs=1e-4)
        assert (hi.energy.real - 20.0) == pytest.approx(20.0 - lo.energy.real, abs=1e-10)
        assert hi.pole_amplitude == pytest.approx(-lo.pole_amplitude)
        assert hi.residue_weight == pytest.approx(lo.residue_weight)
        assert bs.phi == pytest.approx(hi.energy - lo.energy)

    def test_far_dark_state_gives_one_significant(self, fig3b_params):
        e1 = atom_eigensystem_exact(fig3b_params).dark_energy
        bs = find_bound_states(fig3b_params, e1)
        assert bs.count == 1
        sig = [s for s in bs.states if s.significant]
        assert sig[0].location == "above_band"

    def test_phi_needs_both_states(self, fig2_params):
        # At g = 0 with E1 above the band, E1 itself is the one bound state.
        bs = find_bound_states(fig2_params.replace(g1=0.0, g2=0.0), 25.0 + 0j)
        assert len(bs.states) == 1
        with pytest.raises(ValueError, match="phi requires both bound states"):
            bs.phi

    def test_lattice_roots_match_matrix_eigenvalues(self, fig2_params):
        p = fig2_params
        for e1 in (20.0, 19.2, 21.5):
            bs = find_bound_states(p, complex(e1))
            h = effective_hamiltonian(p, "site", e1=complex(e1))
            ev = np.linalg.eigvalsh(h.real)
            out = ev[(ev < p.band_lower) | (ev > p.band_upper)]
            for s in bs.states:
                assert np.min(np.abs(out - s.lattice_energy.real)) < 1e-6
        # Complex E1 (kappa > 0): Newton on the mode sum and its derivative.
        for name in ("fig3a", "fig4"):
            q = preset(name).params
            e1 = atom_eigensystem_exact(q).dark_energy
            assert e1.imag < 0.0
            ev = np.linalg.eigvals(effective_hamiltonian(q, "mode", e1=e1))
            for s in find_bound_states(q, e1).states:
                assert np.min(np.abs(ev - s.lattice_energy)) < 1e-9

    @pytest.mark.parametrize("edge, offset, kappa", [
        ("above_band", 300.0, 20.0 / 3.0),
        ("above_band", 300.0, 0.0),
        ("below_band", -300.0, 0.0),
    ])
    def test_far_dark_energy_keeps_one_root_each_side(self, fig3b_params, edge, offset, kappa):
        # A root exists beyond each edge however far E1 lies from the band.
        p = fig3b_params.replace(kappa=kappa)
        e1 = complex((p.band_upper if offset > 0 else p.band_lower) + offset,
                     -0.01 if kappa > 0 else 0.0)
        bs = find_bound_states(p, e1)
        assert bs.count == 1
        assert [s.location for s in bs.states if s.significant] == [edge]
        ev = np.linalg.eigvals(effective_hamiltonian(p, "mode", e1=e1))
        for s in bs.states:
            assert np.min(np.abs(ev - s.lattice_energy)) < 1e-9

    @pytest.mark.parametrize("g", [1e-3, 1e-4])
    def test_weak_coupling_roots(self, fig2_params, g):
        # Both continuum roots lie within g^4/(4 (E1 - edge)^2) xi of an edge
        # (4e-14 xi below the band at g = 1e-3); B Q has the weak-coupling
        # asymptote -+ g^3 / (2 xi (E1 - edge)^2).
        scale = g / fig2_params.g
        p = fig2_params.replace(g1=fig2_params.g1 * scale, g2=fig2_params.g2 * scale)
        e1 = 20.5 + 0j
        bs = find_bound_states(p, e1)
        assert [s.location for s in bs.states] == ["below_band", "above_band"]
        ev = np.linalg.eigvalsh(effective_hamiltonian(p, "mode", e1=e1).real)
        for s in bs.states:
            assert np.min(np.abs(ev - s.lattice_energy.real)) < 1e-9
        asymptote = {"below_band": -p.g**3 / (2.0 * 2.5**2), "above_band": p.g**3 / (2.0 * 1.5**2)}
        for s in bs.states:
            bq = s.residue_weight * s.pole_amplitude
            assert abs(bq - asymptote[s.location]) <= 1e-3 * abs(asymptote[s.location])

    @pytest.mark.parametrize("g", [1e-2, 1e-3, 1e-4])
    def test_weak_coupling_matches_extended_precision(self, fig2_params, g):
        # B Q from a 50-digit solve of the same quartic, z^4 + b z^3 + c z^2 - b z - 1 = 0.
        mpmath = pytest.importorskip("mpmath")
        scale = g / fig2_params.g
        p = fig2_params.replace(g1=fig2_params.g1 * scale, g2=fig2_params.g2 * scale)
        e1 = 20.5
        bs = find_bound_states(p, complex(e1))
        with mpmath.workdps(50):
            xi, omega0, g_mp, e1_mp = (mpmath.mpf(v) for v in (p.xi, p.omega0, p.g, e1))
            b, c = (omega0 - e1_mp) / xi, (g_mp / xi) ** 2
            roots = mpmath.polyroots([1, b, c, -b, -1], maxsteps=200, extraprec=200)
            for s in bs.states:
                sign = 1 if s.location == "above_band" else -1
                (z,) = [r.real for r in roots if abs(r.imag) < 1e-40 and 0 < sign * r.real < 1]
                shift, root_s = xi * (z + 1 / z), 1 / z - z
                s2 = (xi * root_s) ** 2
                expected = s2 / (s2 + (omega0 + shift - e1_mp) * shift) * g_mp / (xi * root_s)
                got = s.residue_weight * s.pole_amplitude
                assert abs(got - complex(expected)) <= 1e-12 * abs(complex(expected))

    def test_debug_log_names_the_steps(self, fig2_params, caplog):
        caplog.set_level("DEBUG", logger="qbsim.spectral")
        find_bound_states(fig2_params, 20.5 + 0j)
        (record,) = caplog.records
        assert record.name == "qbsim.spectral"
        message = record.getMessage()
        assert message.startswith("find_bound_states E1 = (20.5+0j): z below -0.")
        assert re.search(r"; lattice Newton steps/bisections below \d+/\d+, above \d+/\d+$", message)

    def test_count_transitions_at_band_edges(self, fig2_params):
        p = fig2_params
        grid = np.linspace(p.omega0 - 4.0, p.omega0 + 4.0, 200)
        counts = np.array([find_bound_states(p, complex(e)).count for e in grid])
        inside = (grid > p.band_lower) & (grid < p.band_upper)
        changes = grid[np.nonzero(np.diff(counts))[0]]
        assert np.all(counts[inside] == 2)
        assert np.all(counts[~inside] <= 2)  # boundary points may straddle
        strictly_outside = (grid < p.band_lower - 0.05) | (grid > p.band_upper + 0.05)
        assert np.all(counts[strictly_outside] <= 1)
        for c in changes:
            assert min(abs(c - p.band_lower), abs(c - p.band_upper)) <= 0.05

    def test_decoupled_limit(self, fig2_params):
        p = fig2_params.replace(g1=0.0, g2=0.0)
        assert find_bound_states(p, 20.0 + 0j).n_roots == 0
        bs = find_bound_states(p, 25.0 + 0j)
        assert bs.n_roots == 1 and bs.states[0].energy == 25.0 + 0j


class TestEvenSectorRoots:
    # Every eigenvalue of the effective model's even H: the phase equation in
    # the band, ``_lattice_root`` beyond it.

    @pytest.mark.parametrize("name, kappa_zero", [
        ("fig3a", False), ("fig3a", True), ("fig3b", False), ("fig4", True), ("fig5", False)])
    def test_outer_roots_are_the_lattice_energies(self, name, kappa_zero):
        # The outer sum carries the sqrt(2) pair weights and stays beyond the
        # outermost mode, so it lands on find_bound_states' finite-N roots.
        p = preset(name).params
        p = p.replace(kappa=0.0) if kappa_zero else p
        e1 = atom_eigensystem_exact(p).dark_energy
        lam = spectral.even_sector_roots(p, e1) + p.omega0
        states = {s.location: s.lattice_energy for s in find_bound_states(p, e1).states}
        for root, location in ((lam[0], "above_band"), (lam[-1], "below_band")):
            assert abs(root - states[location]) <= 1e-12 * abs(states[location])

    @pytest.mark.parametrize("n", [3, 21, 253, 1001])
    @pytest.mark.parametrize("e1", [20.0, 20.5, 21.9, 25.0, 14.0])
    def test_one_root_between_neighbouring_modes(self, fig2_params, n, e1):
        # kappa = 0: (N + 1)/2 + 1 real roots, interlaced with the (N + 1)/2
        # distinct mode energies, and equal to the matrix eigenvalues.
        p = fig2_params.replace(n_cavities=n)
        lam = spectral.even_sector_roots(p, complex(e1)) + p.omega0
        modes = np.sort(p.mode_frequencies()[n // 2:])[::-1]
        assert len(lam) == (n + 1) // 2 + 1 and np.all(lam.imag == 0.0)
        edges = np.r_[np.inf, modes, -np.inf]
        counts = [np.count_nonzero((lam.real < hi) & (lam.real > lo)) for hi, lo in zip(edges, edges[1:])]
        assert counts == [1] * len(lam)
        ev = np.sort(np.linalg.eigvalsh(effective_hamiltonian(p, "mode", e1=complex(e1)).real))
        ev = ev[np.abs(ev[:, None] - modes).min(axis=1) > 1e-9]  # odd modes stay at omega_k
        assert np.max(np.abs(np.sort(lam.real) - ev)) <= 1e-12 * np.max(np.abs(ev))

    def test_complex_e1_roots_match_eigvals(self, fig3a_params):
        e1 = atom_eigensystem_exact(fig3a_params).dark_energy
        lam = spectral.even_sector_roots(fig3a_params, e1) + fig3a_params.omega0
        ev = np.linalg.eigvals(effective_hamiltonian(fig3a_params, "mode", e1=e1))
        assert np.max(np.min(np.abs(lam[:, None] - ev), axis=1)) <= 1e-12 * np.max(np.abs(ev))


class TestBranchCut:
    def test_edge_singularity(self, fig2_params):
        with pytest.raises(EdgeSingularity):
            branch_cut_integrand(2.0, 0.0, fig2_params, 20.0 + 0j)

    def test_vanishes_toward_edges(self, fig2_params):
        # The g^4/(4 xi^2 - x^2) term beats the 1/sqrt prefactor: C -> 0
        # like sqrt(2 xi - x) at the edge.
        mid = abs(branch_cut_integrand(0.3, 0.0, fig2_params, 20.5 + 0j))
        closer = abs(branch_cut_integrand(2.0 - 1e-6, 0.0, fig2_params, 20.5 + 0j))
        closest = abs(branch_cut_integrand(2.0 - 1e-12, 0.0, fig2_params, 20.5 + 0j))
        assert closer < mid
        assert closest < 1e-3 * mid

    def test_sum_rule_t0(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng, kappa=0.0).replace(n_cavities=253)
            e1 = complex(rng.uniform(p.band_lower + 0.05, p.band_upper - 0.05))
            bs = find_bound_states(p, e1)
            poles = sum(s.residue_weight * s.pole_amplitude for s in bs.states)
            branch = branch_cut_integral(0.0, p, e1)
            assert abs(poles + branch) <= 1e-6
            assert abs(branch - _reference_branch_cut_integral(0.0, p, e1)) <= 1e-10

    def test_sum_rule_t0_atom_start(self, fig2_params):
        # Dark-state start: poles plus branch cut rebuild u(0) = 1.
        for e1 in (19.0, 20.5, 21.7):
            u0 = analytic_amplitude(0.0, fig2_params, complex(e1),
                                    include_branch_cut=True, initial="atom")
            assert abs(u0 - 1.0) <= 1e-6

    def test_atom_start_matches_diagonalization(self, fig2_params):
        # u(t) = <0|exp(-iHt)|0> = sum_k |v_0k|^2 exp(-i E_k t) at kappa = 0.
        e1 = 20.5 + 0j
        vals, vecs = np.linalg.eigh(effective_hamiltonian(fig2_params, "mode", e1=e1).real)
        for t in (1.0, 3.0):
            exact = np.sum(np.abs(vecs[0]) ** 2 * np.exp(-1j * vals * t))
            u = analytic_amplitude(t, fig2_params, e1, include_branch_cut=True, initial="atom")
            assert abs(u - exact) <= 1e-6

    def test_fig3a_branch_dephased_at_t50(self, fig3a_params):
        e1 = atom_eigensystem_exact(fig3a_params).dark_energy
        assert abs(branch_cut_integral(50.0, fig3a_params, e1)) < 0.02

    def test_unknown_initial_rejected(self, fig2_params):
        with pytest.raises(ValueError, match="initial must be 'photon' or 'atom', got 'bogus'"):
            branch_cut_integral(0.0, fig2_params, 20.5 + 0j, initial="bogus")


class TestBranchCutRule:
    # The tanh-sinh rule against 25-digit mpmath, including where quad
    # silently misses, and against the quad reference where quad is right.

    @pytest.mark.parametrize("t", GRID_T)
    @pytest.mark.parametrize("im", GRID_IM)
    @pytest.mark.parametrize("offset", GRID_OFFSET)
    @pytest.mark.parametrize("g", GRID_G)
    def test_grid_matches_extended_precision(self, fig2_params, g, offset, im, t):
        p, e1 = _grid_case(fig2_params, g, offset, im)
        for initial in ("photon", "atom"):
            expected = _stored("mpmath", t, p, e1, initial)
            if (g, offset, im, t) == LIVE_GRID_CASE:
                live = _mpmath_branch_cut_integrals(t, p, e1)[initial]
                assert abs(expected - live) <= STORED_TOL
                expected = live
            assert abs(branch_cut_integral(t, p, e1, initial) - expected) <= 1e-10

    @pytest.mark.parametrize("e1", WEAK_E1)
    def test_weak_coupling_cases_quad_misses(self, fig2_params, e1):
        # quad is off by 2.6e-7 (with an IntegrationWarning) and 2.0e-7 (without one).
        p, e1 = _weak_case(fig2_params, e1)
        expected = _stored("mpmath", 0.0, p, e1, "photon")
        assert abs(branch_cut_integral(0.0, p, e1) - expected) <= 1e-10

    def test_spectral_benchmark_draw_quad_misses(self, fig2_params):
        # Atom start: quad gives 0.50043 + 3.1e-6i.  A pole of the density lies about
        # 1e-4 off the real axis at theta*.
        p, e1 = _draw_case(fig2_params)
        expected = _stored("mpmath", 0.0, p, e1, "atom")
        assert abs(expected - (0.99966566832207 + 3.11146e-6j)) <= 1e-13
        assert abs(branch_cut_integral(0.0, p, e1, "atom") - expected) <= 1e-10

    @pytest.mark.parametrize("name", PRESETS)
    def test_presets_match_quad_in_one_call(self, name):
        p, e1, t = _preset_case(name)
        expected = np.array([_stored("quad", tv, p, e1) for tv in t])
        if name == LIVE_PRESET:
            live = np.array([_reference_branch_cut_integral(tv, p, e1) for tv in t])
            assert np.max(np.abs(expected - live)) <= STORED_TOL
            expected = live
        assert np.max(np.abs(branch_cut_integral(t, p, e1) - expected)) <= 1e-10

    def test_scalar_and_array_times(self, fig2_params):
        value = branch_cut_integral(3.0, fig2_params, 20.5 + 0j)
        assert type(value) is complex
        values = branch_cut_integral(np.linspace(0.0, 5.0, 6).reshape(2, 3), fig2_params, 20.5 + 0j)
        assert values.shape == (2, 3) and values.dtype == complex
        assert abs(values[1, 0] - value) <= 1e-10

    def test_decoupled_atom_has_no_branch_cut(self, fig2_params):
        # At g = 0 the photon never meets the atom, so the term is zero without a quadrature.
        p = fig2_params.replace(g1=0.0, g2=0.0)
        value = branch_cut_integral(3.0, p, 20.5 + 0j)
        assert type(value) is complex and value == 0.0
        values = branch_cut_integral(np.linspace(0.0, 5.0, 6).reshape(2, 3), p, 20.5 + 0j)
        assert values.shape == (2, 3) and values.dtype == complex and not np.any(values)

    def test_level_cap_raises_naming_the_stage(self, fig2_params, monkeypatch):
        # t = 100 needs more than the first level.
        monkeypatch.setattr(spectral, "DE_LAST_LEVEL", spectral.DE_FIRST_LEVEL)
        with pytest.raises(NoConvergence, match="'branch_cut'") as raised:
            branch_cut_integral(100.0, fig2_params, 20.5 + 0j)
        assert raised.value.region == "branch_cut"
        assert "root search" not in str(raised.value)

    def test_debug_log_names_the_level(self, fig2_params, caplog):
        caplog.set_level("DEBUG", logger="qbsim.spectral")
        branch_cut_integral(np.array([0.0, 3.0]), fig2_params, 20.5 + 0j)
        (record,) = caplog.records
        # A smooth integrand stops at the first level: two pieces of 205 nodes.
        assert re.fullmatch(r"branch_cut_integral E1 = \(20\.5\+0j\), photon start, 2 times: 2 pieces, "
                            r"level 5, 410 nodes, estimate \S+", record.getMessage())


class TestAnalyticAmplitude:
    def test_initial_completeness(self, fig2_params):
        u0 = analytic_amplitude(0.0, fig2_params, 20.3 + 0j, include_branch_cut=True)
        assert abs(u0) < 1e-6

    def test_oscillation_period_matches_phi(self, fig2_params):
        bs = find_bound_states(fig2_params, 20.0 + 0j)
        period = 2.0 * np.pi / bs.phi.real
        t = np.linspace(0.0, 4.0 * period, 4001)
        p = np.abs(analytic_amplitude(t, fig2_params, 20.0 + 0j, bound=bs)) ** 2
        # |u|^2 is periodic with the pole splitting.
        shift = int(round(period / (t[1] - t[0])))
        assert np.max(np.abs(p[shift:] - p[:-shift])) < 1e-8

    def test_single_state_monotone_tail(self, fig3b_params):
        e1 = atom_eigensystem_exact(fig3b_params).dark_energy
        bs = find_bound_states(fig3b_params, e1)
        t = np.linspace(20.0, 100.0, 501)
        sig = [s for s in bs.states if s.significant]
        p = np.abs(sig[0].residue_weight * sig[0].pole_amplitude
                   * np.exp(-1j * sig[0].energy * t)) ** 2
        assert np.all(np.diff(p) <= 0)


class TestLongTimeProbability:
    def test_symmetric_zero_at_t0(self, fig2_params):
        bs = find_bound_states(fig2_params, 20.0 + 0j)
        assert long_time_probability(0.0, bs) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_maximum_at_half_period(self, fig2_params):
        bs = find_bound_states(fig2_params, 20.0 + 0j)
        hi = bs.state("above_band")
        t_half = np.pi / bs.phi.real
        expected = 4.0 * abs(hi.pole_amplitude) ** 2 * abs(hi.residue_weight) ** 2
        assert long_time_probability(t_half, bs) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("e1, n_states", [(25.0 + 0j, 1), (20.0 + 0j, 0)], ids=["outside", "inside"])
    def test_decoupled_atom_gives_zero(self, fig2_params, e1, n_states):
        # At g = 0 the one state beyond the band (E1 outside it) is the atom alone, with pole
        # amplitude 0; E1 inside the band leaves none.
        bs = find_bound_states(fig2_params.replace(g1=0.0, g2=0.0), e1)
        assert bs.n_roots == n_states
        value = long_time_probability(3.0, bs)
        assert type(value) is float and value == 0.0
        values = long_time_probability(np.linspace(0.0, 5.0, 6), bs)
        assert values.shape == (6,) and not np.any(values)
