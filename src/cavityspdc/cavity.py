"""Fabry-Perot mode combs, Vernier cluster analysis, and spectral filtering
for birefringent monolithic cavities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CavitySpec, _airy_coefficient, _require_positive

JOINT_POL = "HV"  # paired signal/idler cluster modes


@dataclass(frozen=True)
class ModeComb:
    """Modes k * spacing_ghz for k in ``indices``, offsets relative to degeneracy."""

    spacing_ghz: float
    indices: range
    linewidth_mhz: float
    pol: str

    def csv_rows(self):
        """Rows matching the (index, offset_GHz, linewidth_MHz, pol) export."""
        return [(k, k * self.spacing_ghz, self.linewidth_mhz, self.pol) for k in self.indices]


MODE_COMB_CSV_HEADER = ("index", "offset_GHz", "linewidth_MHz", "pol")


def airy_transmission(detuning_ghz, fsr_ghz: float, fwhm_mhz: float):
    """Airy transmission T(detuning) of a lossless two-mirror resonator.

    T = 1 / (1 + (2F/pi)^2 sin^2(pi * detuning / fsr)) with finesse
    F = fsr / fwhm. Accepts scalar or array detuning.
    """
    _require_positive(fsr_ghz=fsr_ghz, fwhm_mhz=fwhm_mhz)
    if fwhm_mhz >= fsr_ghz * 1e3:
        raise ValueError("fwhm must be below one free spectral range")
    detuning_ghz = np.asarray(detuning_ghz, dtype=float)
    if not np.all(np.isfinite(detuning_ghz)):
        raise ValueError("detuning must be finite")
    coefficient = _airy_coefficient(fsr_ghz, fwhm_mhz)
    if not math.isfinite(coefficient):
        raise ValueError("the finesse fsr / fwhm overflows the Airy coefficient (2F/pi)^2")
    s = np.sin(np.pi * detuning_ghz / fsr_ghz)
    out = 1.0 / (1.0 + coefficient * s * s)
    return float(out) if out.ndim == 0 else out


def _indices(spacing_ghz: float, lo_ghz: float, hi_ghz: float) -> range:
    """Every k whose offset k * spacing lies in [lo, hi], edges included."""
    return range(math.ceil(lo_ghz / spacing_ghz), math.floor(hi_ghz / spacing_ghz) + 1)


def _comb(spacing_ghz: float, span_ghz: float, linewidth_mhz: float, pol: str) -> ModeComb:
    """Modes k * spacing for every k whose offset lies within +-span/2."""
    _require_positive(span_ghz=span_ghz)
    half = 0.5 * span_ghz
    return ModeComb(spacing_ghz, _indices(spacing_ghz, -half, half), linewidth_mhz, pol)


def build_mode_comb(spec: CavitySpec, pol: str, span_ghz: float) -> ModeComb:
    """Mode comb of one polarization over +-span/2 around degeneracy."""
    return _comb(spec.fsr_ghz(pol), span_ghz, spec.fwhm_mhz(pol), pol)


def cluster_spacing(fsr_s_ghz: float, fsr_i_ghz: float) -> float:
    """Vernier period of two interleaved combs: fsr_s*fsr_i/|fsr_s - fsr_i|."""
    _require_positive(fsr_s_ghz=fsr_s_ghz, fsr_i_ghz=fsr_i_ghz)
    if fsr_s_ghz == fsr_i_ghz:
        raise ValueError("degenerate Vernier: infinite cluster spacing")
    return fsr_s_ghz * fsr_i_ghz / abs(fsr_s_ghz - fsr_i_ghz)


def single_mode_margin(spec: CavitySpec) -> float:
    """|fsr_h - fsr_v| minus the mean linewidth, in GHz.

    Positive margin means at most one joint longitudinal mode per cluster.
    """
    return abs(spec.fsr_h_ghz - spec.fsr_v_ghz) - spec.mean_linewidth_mhz() * 1e-3


def dwdm_cluster_count(spec: CavitySpec, center_offset_ghz: float, width_ghz: float) -> int:
    """Clusters whose centers fall inside a rectangular passband, edges included.

    Counted from the index range, so the cost does not grow with the passband.
    """
    _require_positive(width_ghz=width_ghz)
    spacing = cluster_spacing(spec.fsr_h_ghz, spec.fsr_v_ghz)
    half = 0.5 * width_ghz
    ks = _indices(spacing, center_offset_ghz - half, center_offset_ghz + half)
    # not len(ks), which raises OverflowError past sys.maxsize
    return max(0, ks.stop - ks.start)


def cluster_comb(spec: CavitySpec, span_ghz: float) -> ModeComb:
    """Comb of joint signal/idler cluster centers over +-span/2.

    Cluster centers sit at integer multiples of the Vernier spacing of the
    H and V combs; each entry carries the mean linewidth and the joint
    polarization tag.
    """
    spacing = cluster_spacing(spec.fsr_h_ghz, spec.fsr_v_ghz)
    return _comb(spacing, span_ghz, spec.mean_linewidth_mhz(), JOINT_POL)


def phase_matching_envelope(offset_ghz: float, spec: CavitySpec) -> float:
    """Relative phase-matching intensity at an offset from degeneracy.

    A Gaussian whose FWHM is the crystal's pm_fwhm_thz; only that width is
    contractual, since the source characterization does not pin down the
    profile's shape.
    """
    x = offset_ghz / (spec.pm_fwhm_thz * 1e3)
    return math.exp(-4.0 * math.log(2.0) * (x * x))  # x ** 2 raises OverflowError
