"""Temporal and spectral correlation functions of a single-longitudinal-mode
photon pair with Lorentzian signal and idler lineshapes."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Decay-rate-to-FWHM factor of the two-sided exponential; rounded 2*ln(2),
# kept at the conventional 1.39 used for bandwidth bookkeeping.
FWHM_FACTOR = 1.39


@dataclass(frozen=True)
class BiphotonParams:
    """Signal and idler Lorentzian full widths in MHz."""

    gamma_s_mhz: float
    gamma_i_mhz: float

    def __post_init__(self):
        for name in ("gamma_s_mhz", "gamma_i_mhz"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @classmethod
    def from_cavity(cls, spec) -> "BiphotonParams":
        """Signal inherits the H linewidth, idler the V linewidth."""
        return cls(gamma_s_mhz=spec.fwhm_h_mhz, gamma_i_mhz=spec.fwhm_v_mhz)


def gamma_prime_mhz(p: BiphotonParams) -> float:
    """Geometric mean of the signal and idler widths."""
    return math.sqrt(p.gamma_s_mhz * p.gamma_i_mhz)


def t_fwhm_ns(p: BiphotonParams) -> float:
    """Correlation-peak full width at half maximum in ns."""
    gamma_ghz = gamma_prime_mhz(p) * 1e-3
    return FWHM_FACTOR / (2.0 * math.pi * gamma_ghz)


def coherence_scale_ps(p: BiphotonParams) -> float:
    """Two-sided exponential decay scale 1/(2*pi*gamma') in ps."""
    return 1e6 / (2.0 * math.pi * gamma_prime_mhz(p))


def spectral_overlap(p0: BiphotonParams, p1: BiphotonParams) -> float:
    """Ratio of geometric-mean bandwidths, ordered to stay within (0, 1]."""
    g0 = gamma_prime_mhz(p0)
    g1 = gamma_prime_mhz(p1)
    return min(g0, g1) / max(g0, g1)
