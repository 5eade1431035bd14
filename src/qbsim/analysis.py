"""Envelope extraction and exponential lifetime fitting.

The probability of the dark state decays exponentially once the early
transient has passed; with two bound states the decay is modulated by the
Rabi-like beat, so the envelope is traced through the strict local maxima
and the rate comes from a least-squares line through (t_i, ln P_i).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonPositivePeak, TooFewPeaks

__all__ = ["DecayFit", "envelope_peaks", "fit_exponential", "fit_decay", "median_peak_spacing"]

MIN_PEAKS = 4


@dataclass(frozen=True)
class DecayFit:
    """ln P = intercept - rate * t, with |Pearson r| and the fit window."""

    intercept: float
    rate: float
    r_abs: float
    t_window: tuple[float, float]
    n_points: int
    used_peaks: bool = True


def envelope_peaks(times, values, t_min: float = 0.0):
    """Strict 3-point local maxima with t >= t_min, on the raw grid.

    No smoothing: deterministic at the sampling density.  Raises
    TooFewPeaks when fewer than four qualify.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
    idx = np.nonzero(inner)[0] + 1
    idx = idx[t[idx] >= t_min]
    if len(idx) < MIN_PEAKS:
        raise TooFewPeaks(f"found {len(idx)} peaks with t >= {t_min}, need {MIN_PEAKS}")
    return t[idx], y[idx]


def median_peak_spacing(times, values, t_min: float = 0.0) -> float:
    """Median spacing of envelope peaks; the measured oscillation period."""
    tp, _ = envelope_peaks(times, values, t_min)
    return float(np.median(np.diff(tp)))


def fit_exponential(peak_times, peak_values) -> DecayFit:
    """Least-squares line through (t_i, ln P_i); rate is minus the slope."""
    t = np.asarray(peak_times, dtype=float)
    y = np.asarray(peak_values, dtype=float)
    if len(t) < 2:
        raise TooFewPeaks(f"need at least 2 points to fit, got {len(t)}")
    if np.any(y <= 0.0):
        raise NonPositivePeak("log fit needs strictly positive values")
    ln = np.log(y)
    slope, intercept = np.polyfit(t, ln, 1)
    r = np.corrcoef(t, ln)[0, 1]
    return DecayFit(
        intercept=float(intercept),
        rate=float(-slope),
        r_abs=float(abs(r)),
        t_window=(float(t[0]), float(t[-1])),
        n_points=len(t),
    )


def fit_decay(times, values, t_min: float = 10.0) -> DecayFit:
    """Fit the decay rate of a probability series.

    Uses the envelope peaks when at least four exist past ``t_min``; a
    monotone series is its own envelope, so the raw samples are fitted
    directly in that case.
    """
    try:
        tp, yp = envelope_peaks(times, values, t_min)
        used_peaks = True
    except TooFewPeaks:
        t = np.asarray(times, dtype=float)
        mask = t >= t_min
        tp, yp = t[mask], np.asarray(values, dtype=float)[mask]
        used_peaks = False
    return replace(fit_exponential(tp, yp), used_peaks=used_peaks)
