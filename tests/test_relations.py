"""Exact input transformations, checked on every solver path against the solver itself.

Shifting omega0, omega_d, Delta_e and omega_m by s adds s to every level of
H except the Lindblad sink |0,g>, which stays at 0.  No reference solver is
needed, because each output of the shifted input follows from the unshifted
one:

- ``evolve`` works in the frame of H's diagonal centroid, which moves with
  s, so P_E1, norm^2 and the amplitudes are unchanged (in the lab frame the
  amplitudes would turn by the global phase exp(-i s t));
- ``lindblad_evolve`` runs in the lab frame, so every element of rho is
  unchanged except the coherences of the sink with the excited states:
  rho[0, j] turns by exp(i s t) and rho[j, 0] by exp(-i s t);
- ``find_bound_states`` moves each energy by s and keeps each residue.

Both Lindblad paths also meet two more relations (fig3a at N = 21, a
photon at site 1, 3 or 7):

- scaling every energy and rate by a and every time by 1/a leaves the
  dynamics as they were, so P_E1 and the final rho are unchanged;
- the ring reflection j -> N - j (mod N) about the atom's cavity maps H to
  itself, so a photon at site N - j gives the P_E1 of one at site j, and
  the final rho with the sites reflected.

Each test prints its worst deviation; the bound is 1e-12.
"""

import numpy as np
import pytest

from qbsim import _kernels, dynamics
from qbsim.dynamics import evolve, initial_state, initial_state_photon_at_site
from qbsim.lindblad import SINK, DensityMatrix, initial_density_matrix, lindblad_evolve
from qbsim.model import dark_state_energy
from qbsim.presets import preset
from qbsim.spectral import find_bound_states
from conftest import random_params

SHIFT = 1.3
SCALE = 3.7
TOL = 1e-12


def _shifted(p):
    return p.replace(omega0=p.omega0 + SHIFT, omega_d_real=p.omega_d_real + SHIFT,
                     delta_e=p.delta_e + SHIFT, omega_m_level=p.omega_m_level + SHIFT)


def _fig3a():
    return preset("fig3a").params.replace(n_cavities=21)


def _seed3_draw25():
    # N = 7, E1 = 33.597 - 1.362i: the arrowhead roots repeat, so evolve runs the dense kernel.
    rng = np.random.default_rng(3)
    for _ in range(26):
        p = random_params(rng)
    return p


def _scaled(p):
    energies = ("omega0", "xi", "g1", "g2", "omega_p_rabi", "omega_c_rabi", "omega_d_real", "kappa",
                "omega_e_level", "omega_m_level", "delta_e")
    return p.replace(**{name: SCALE * getattr(p, name) for name in energies})


def _uncoupled(p):
    return p.replace(g1=0.0, g2=0.0)


@pytest.mark.parametrize("params, model, site, force_dense", [
    (_fig3a(), "effective", 0, False),              # arrowhead eigenbasis
    (_uncoupled(_fig3a()), "effective", None, False),  # g = 0 atom eigenbasis
    (_uncoupled(_fig3a()), "full", None, False),
    (_fig3a(), "effective", 0, True),               # dense kernel, forced
    (_fig3a(), "full", 0, False),                   # dense kernel, full model at g != 0
    (_seed3_draw25(), "effective", 1, False),       # dense kernel, after the root-gap guard
], ids=["arrowhead", "atom-effective", "atom-full", "dense-forced", "dense-full", "seed3-draw25"])
def test_evolve_is_unchanged(params, model, site, force_dense, monkeypatch):
    if force_dense:
        for name in ("_even_eigenbasis", "_atom_eigenbasis"):
            monkeypatch.setattr(dynamics, name, lambda *args: (None, "dense (forced)"))
    t_grid = np.linspace(0.0, 5.0, 101)
    runs = [evolve(initial_state(p, model, site), t_grid, p) for p in (params, _shifted(params))]
    base, moved = ([s.p_dark, s.norm2, s.atom_amps, s.final_state.atom, s.final_state.photon] for s in runs)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(base, moved))
    print(f"shift by {SHIFT}: worst deviation of evolve's P_E1, norm^2 and amplitudes {worst:.3g}")
    assert worst <= TOL


@pytest.mark.parametrize("params", [_fig3a(), _seed3_draw25()], ids=["fig3a", "seed3-draw25"])
@pytest.mark.parametrize("path", ["eigenbasis", "dense"])
def test_lindblad_turns_only_the_sink_coherences(params, path, monkeypatch):
    if path == "dense":
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)  # cond(V) >= 1
    # (|0,g> + photon at site 0)/sqrt(2), so the sink coherences start nonzero.
    vec = np.zeros(params.n_cavities + 4, dtype=complex)
    vec[SINK] = vec[4] = np.sqrt(0.5)
    t_grid = np.linspace(0.0, 2.0, 21)
    base, moved = (lindblad_evolve(DensityMatrix(np.outer(vec, vec.conj()), p), t_grid, p).final_rho.rho
                   for p in (params, _shifted(params)))
    turn = np.exp(1j * SHIFT * t_grid[-1])
    expected = base.copy()
    expected[SINK, 1:] *= turn
    expected[1:, SINK] *= turn.conjugate()
    worst = np.max(np.abs(moved - expected))
    print(f"shift by {SHIFT}: worst deviation of the final rho ({path}) {worst:.3g}, "
          f"largest sink coherence {np.max(np.abs(base[SINK, 1:])):.3g}")
    assert worst <= TOL


def _photon_lindblad(p, site, t_grid):
    return lindblad_evolve(initial_density_matrix(initial_state_photon_at_site(site, p, "full", "site"), p),
                           t_grid, p)


@pytest.mark.parametrize("path", ["eigenbasis", "dense"])
def test_lindblad_is_unchanged_by_scaling(path, monkeypatch):
    if path == "dense":
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)  # cond(V) >= 1
    p, t_grid, worst = _fig3a(), np.linspace(0.0, 5.0, 51), 0.0
    for site in (1, 3, 7):
        base, moved = _photon_lindblad(p, site, t_grid), _photon_lindblad(_scaled(p), site, t_grid / SCALE)
        worst = max(worst, np.max(np.abs(moved.p_dark - base.p_dark)),
                    np.max(np.abs(moved.final_rho.rho - base.final_rho.rho)))
    print(f"scaling by {SCALE}: worst deviation of the Lindblad P_E1 and final rho ({path}) {worst:.3g}")
    assert worst <= TOL


@pytest.mark.parametrize("path", ["eigenbasis", "dense"])
def test_lindblad_ring_reflection(path, monkeypatch):
    if path == "dense":
        monkeypatch.setattr(_kernels, "EIGENBASIS_MAX_COND", 0.0)  # cond(V) >= 1
    p, t_grid, worst = _fig3a(), np.linspace(0.0, 5.0, 51), 0.0
    n = p.n_cavities
    mirror = np.r_[:4, 4 + (-np.arange(n)) % n]  # sink and atom in place, site j -> N - j
    for site in (1, 3, 7):
        near, far = _photon_lindblad(p, site, t_grid), _photon_lindblad(p, n - site, t_grid)
        worst = max(worst, np.max(np.abs(far.p_dark - near.p_dark)),
                    np.max(np.abs(far.final_rho.rho - near.final_rho.rho[np.ix_(mirror, mirror)])))
    print(f"ring reflection: worst deviation of the Lindblad P_E1 and final rho ({path}) {worst:.3g}")
    assert worst <= TOL


@pytest.mark.parametrize("params", [_fig3a(), preset("fig2").params, _seed3_draw25()],
                         ids=["fig3a", "fig2", "seed3-draw25"])
def test_bound_states_move_by_the_shift(params):
    base, moved = (find_bound_states(p, dark_state_energy(p)) for p in (params, _shifted(params)))
    assert [s.location for s in moved.states] == [s.location for s in base.states]
    worst_energy = max(abs(m.energy - b.energy - SHIFT) for b, m in zip(base.states, moved.states))
    worst_residue = max(abs(m.residue_weight - b.residue_weight) for b, m in zip(base.states, moved.states))
    print(f"shift by {SHIFT}: worst deviation of the bound-state energies {worst_energy:.3g}, "
          f"of the residues {worst_residue:.3g}")
    assert worst_energy <= TOL and worst_residue <= TOL
