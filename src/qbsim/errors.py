"""Exception types raised by the simulator.

Every error that callers are expected to catch derives from
:class:`QbsimError`, so ``except QbsimError`` is a safe catch-all for
numerical and validation failures.
"""

from __future__ import annotations


class QbsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(QbsimError):
    """A scenario configuration failed validation.

    ``field`` names the offending entry so the CLI can report it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DegenerateSpectrum(QbsimError):
    """Two atomic eigenvalues coincide; dark-state labelling is ambiguous."""


class DarkConditionViolated(QbsimError):
    """g1/g2 != -Omega_c/Omega_p, so the dark state does not decouple."""


class OnBranchCut(QbsimError):
    """Lattice sum requested on the band interval where it is singular."""


class EdgeSingularity(QbsimError):
    """Branch-cut integrand evaluated at or beyond the band edge |x| >= 2*xi."""


class NoConvergence(QbsimError):
    """A root search, or the branch-cut quadrature (region 'branch_cut'), failed; ``region``
    identifies which one, and the message names the stage."""

    def __init__(self, region: str, message: str = ""):
        self.region = region
        stage = "branch-cut quadrature failed" if region == "branch_cut" else "root search failed"
        super().__init__(f"{stage} in region '{region}'" + (f": {message}" if message else ""))


class StepSizeTooLarge(QbsimError):
    """norm^2 or tr rho grows beyond tolerance: from gain in the atom block (found before
    propagating), or over the trajectory, or to a non-finite value.  The name is kept from
    the RK4 step that it used to guard."""


class IndexOutOfRange(QbsimError):
    """Cavity site index outside 0..N-1."""


class OutOfRange(QbsimError):
    """Requested time lies outside the sampled grid."""


class TraceDrift(QbsimError):
    """Density-matrix trace wandered beyond tolerance during propagation."""


class NotNormalizable(QbsimError):
    """Reduced battery state has non-positive trace."""


class TooFewPeaks(QbsimError):
    """Fewer than four envelope peaks were found."""


class NonPositivePeak(QbsimError):
    """Exponential fit got a peak value <= 0; log is undefined."""
