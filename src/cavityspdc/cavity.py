"""Fabry-Perot mode combs, Vernier cluster analysis, and spectral filtering
for birefringent monolithic cavities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

JOINT_POL = "HV"  # paired signal/idler cluster modes


def _require_positive(**values):
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class CavitySpec:
    """Static description of one birefringent monolithic cavity.

    Frequencies carry their unit in the field name; mode offsets everywhere
    are relative to the degeneracy frequency, never absolute optical
    frequencies.
    """

    name: str
    fsr_h_ghz: float
    fsr_v_ghz: float
    fwhm_h_mhz: float
    fwhm_v_mhz: float
    degenerate_freq_thz: float
    pm_fwhm_thz: float
    length_mm: float
    out_coupler_reflectivity: float
    poling_period_um: float  # metadata only, never used in computations

    def __post_init__(self):
        # the name is part of the output file names
        if not isinstance(self.name, str) or not self.name or {"/", "\\"} & set(self.name):
            raise ValueError(f"name must be a non-empty string without a path separator, "
                             f"got {self.name!r}")
        _require_positive(
            fsr_h_ghz=self.fsr_h_ghz,
            fsr_v_ghz=self.fsr_v_ghz,
            fwhm_h_mhz=self.fwhm_h_mhz,
            fwhm_v_mhz=self.fwhm_v_mhz,
            degenerate_freq_thz=self.degenerate_freq_thz,
            pm_fwhm_thz=self.pm_fwhm_thz,
            length_mm=self.length_mm,
            poling_period_um=self.poling_period_um,
        )
        if self.fwhm_h_mhz >= self.fsr_h_ghz * 1e3:
            raise ValueError(f"{self.name}: fwhm_h must be below fsr_h")
        if self.fwhm_v_mhz >= self.fsr_v_ghz * 1e3:
            raise ValueError(f"{self.name}: fwhm_v must be below fsr_v")
        if self.fsr_h_ghz == self.fsr_v_ghz:
            raise ValueError(f"{self.name}: fsr_h_ghz must differ from fsr_v_ghz "
                             "(degenerate Vernier)")
        if not 0.0 < self.out_coupler_reflectivity < 1.0:
            raise ValueError(
                f"{self.name}: out_coupler_reflectivity must lie in (0, 1)"
            )

    def fsr_ghz(self, pol: str) -> float:
        if pol == "H":
            return self.fsr_h_ghz
        if pol == "V":
            return self.fsr_v_ghz
        raise ValueError(f"unknown polarization {pol!r}")

    def fwhm_mhz(self, pol: str) -> float:
        if pol == "H":
            return self.fwhm_h_mhz
        if pol == "V":
            return self.fwhm_v_mhz
        raise ValueError(f"unknown polarization {pol!r}")

    def mean_linewidth_mhz(self) -> float:
        return 0.5 * (self.fwhm_h_mhz + self.fwhm_v_mhz)


@dataclass(frozen=True)
class Mode:
    index: int
    offset_ghz: float
    linewidth_mhz: float
    pol: str


@dataclass(frozen=True)
class ModeComb:
    """Ordered set of cavity modes, offsets relative to degeneracy."""

    modes: tuple[Mode, ...]

    def __post_init__(self):
        by_pol: dict[str, list[float]] = {}
        for m in self.modes:
            by_pol.setdefault(m.pol, []).append(m.offset_ghz)
        for pol, offsets in by_pol.items():
            if any(b <= a for a, b in zip(offsets, offsets[1:])):
                raise ValueError(
                    f"mode centers must be strictly increasing for pol {pol}"
                )

    def __len__(self):
        return len(self.modes)

    def csv_rows(self):
        """Rows matching the (index, offset_GHz, linewidth_MHz, pol) export."""
        return [
            (m.index, m.offset_ghz, m.linewidth_mhz, m.pol) for m in self.modes
        ]


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
    finesse = fsr_ghz / (fwhm_mhz * 1e-3)
    s = np.sin(np.pi * detuning_ghz / fsr_ghz)
    out = 1.0 / (1.0 + (2.0 * finesse / np.pi) ** 2 * s * s)
    return float(out) if out.ndim == 0 else out


def _comb(spacing_ghz: float, span_ghz: float, linewidth_mhz: float, pol: str) -> ModeComb:
    """Modes k * spacing for every k whose offset lies within +-span/2."""
    _require_positive(span_ghz=span_ghz)
    k_max = int(math.floor(span_ghz / (2.0 * spacing_ghz)))
    return ModeComb(tuple(
        Mode(index=k, offset_ghz=k * spacing_ghz, linewidth_mhz=linewidth_mhz, pol=pol)
        for k in range(-k_max, k_max + 1)
    ))


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


def dwdm_select(comb: ModeComb, center_offset_ghz: float, width_ghz: float) -> ModeComb:
    """Modes whose centers fall inside a rectangular passband."""
    _require_positive(width_ghz=width_ghz)
    half = 0.5 * width_ghz
    kept = tuple(
        m for m in comb.modes if abs(m.offset_ghz - center_offset_ghz) <= half
    )
    return ModeComb(kept)


def effective_index(length_mm: float, fsr_ghz: float) -> float:
    """Group index implied by a standing-wave FSR: c0 / (2 * L * FSR)."""
    _require_positive(length_mm=length_mm, fsr_ghz=fsr_ghz)
    return SPEED_OF_LIGHT_M_PER_S / (2.0 * length_mm * 1e-3 * fsr_ghz * 1e9)


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
    fwhm_ghz = spec.pm_fwhm_thz * 1e3
    return math.exp(-4.0 * math.log(2.0) * (offset_ghz / fwhm_ghz) ** 2)
