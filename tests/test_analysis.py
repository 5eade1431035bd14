import numpy as np
import pytest

from qbsim import atom_eigensystem_exact
from qbsim.analysis import envelope_peaks, fit_decay, fit_exponential, median_peak_spacing
from qbsim.dynamics import evolve, initial_state_photon_at_site
from qbsim.errors import NonPositivePeak, TooFewPeaks
from qbsim.spectral import find_bound_states


class TestEnvelopePeaks:
    def test_analytic_peak_locations(self):
        a, omega = 0.08, 3.0
        t = np.linspace(0, 40, 8001)
        p = np.exp(-a * t) * (1.0 - np.cos(omega * t)) / 2.0
        tp, yp = envelope_peaks(t, p, t_min=0.5)
        # peaks slightly before (2m+1) pi/omega because of the decay factor
        expected = np.array([(2 * m + 1) * np.pi / omega for m in range(len(tp))])
        assert np.max(np.abs(tp - expected[: len(tp)])) < 0.05
        assert np.all(np.abs(yp - np.exp(-a * tp)) < 2e-3)

    def test_constant_series_raises(self):
        t = np.linspace(0, 10, 101)
        with pytest.raises(TooFewPeaks):
            envelope_peaks(t, np.ones_like(t))

    def test_spacing_matches_pole_splitting(self, fig3a_params):
        e1 = atom_eigensystem_exact(fig3a_params).dark_energy
        series = evolve(initial_state_photon_at_site(0, fig3a_params, "effective", "mode"),
                        np.linspace(0, 60, 2401), fig3a_params, e1=e1)
        bs = find_bound_states(fig3a_params, e1)
        predicted = 2.0 * np.pi / bs.phi.real
        measured = median_peak_spacing(series.times, series.p_dark, t_min=15.0)
        assert abs(measured - predicted) / predicted < 0.10


class TestFitExponential:
    def test_exact_line(self):
        t = np.linspace(1, 30, 25)
        fit = fit_exponential(t, np.exp(-0.1 * t))
        assert fit.rate == pytest.approx(0.1, abs=1e-12)
        assert fit.r_abs == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        t = np.linspace(1, 30, 25)
        p = np.exp(-0.07 * t) * (1.0 + 0.02 * np.sin(3.0 * t))
        f1 = fit_exponential(t, p)
        f2 = fit_exponential(t, 37.5 * p)
        assert abs(f1.rate - f2.rate) <= 1e-12
        assert abs(f1.r_abs - f2.r_abs) <= 1e-12
        assert f2.intercept - f1.intercept == pytest.approx(np.log(37.5))

    def test_nonpositive_peak_raises(self):
        with pytest.raises(NonPositivePeak):
            fit_exponential([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.0, 0.1])

    def test_one_point_raises(self):
        with pytest.raises(TooFewPeaks, match="need at least 2 points to fit, got 1"):
            fit_exponential([1.0], [0.5])


class TestFitDecay:
    def test_monotone_series_uses_raw_samples(self):
        t = np.linspace(0, 50, 501)
        fit = fit_decay(t, 0.7 * np.exp(-0.05 * t), t_min=10.0)
        assert not fit.used_peaks
        assert fit.rate == pytest.approx(0.05, rel=1e-9)

    def test_oscillatory_series_uses_peaks(self):
        t = np.linspace(0, 80, 8001)
        p = np.exp(-0.06 * t) * (1.0 - 0.8 * np.cos(4.0 * t))
        fit = fit_decay(t, p, t_min=10.0)
        assert fit.used_peaks
        assert fit.rate == pytest.approx(0.06, rel=0.02)
        assert fit.r_abs > 0.999
