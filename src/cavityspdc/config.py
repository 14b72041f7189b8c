"""Experiment configuration: JSON with units baked into every key name.

The source's description lives here with its checks and its rate algebra:
the cavities, the pair source, the detection chain and, through
``network``, the displacer network and its state, then the CW detected-rate model (pair
rate, singles, coincidences and accidentals), the CAR it implies, the pair
rate that maximizes it and the reduced CAR curve's parameters.  Neither
this module nor ``network`` imports numpy, so describing, loading, saving
and validating an experiment, and evaluating its CAR, loads none.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .network import (BD, HWP, QWP, CrystalSource, NonInterferingNetworkError,
                      _network_rho, displacer_network)

#: Fewest delay-histogram bins fit_exp_g2 accepts.
_MIN_G2_BINS = 20

#: Longest time-tag record in s.  simulate_timetags sorts 2 * t + channel,
#: t in ps, as int64, which holds t below 2**62 ps (4.6e6 s); the rest,
#: about 6e5 s, is margin for the delays and jitter added to pair times.
MAX_DURATION_S = 4e6

#: Most events a simulated record may be expected to hold.  simulate peaks
#: at about 15 B of memory per event, so this is about 4 GB.
MAX_EVENTS = 2**28

#: Pump powers in mW that car's model curve spans, lowest and highest.
CAR_CURVE_POWER_MW = (0.5, 250.0)

#: Vacuum speed of light, which the effective index divides.
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_positive(**values):
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _airy_coefficient(fsr_ghz: float, fwhm_mhz: float) -> float:
    """(2F/pi)^2 of the finesse F = fsr / fwhm; inf where it overflows."""
    try:
        return (2.0 * (fsr_ghz / (fwhm_mhz * 1e-3)) / math.pi) ** 2
    except (OverflowError, ZeroDivisionError):
        return math.inf


def effective_index(length_mm: float, fsr_ghz: float) -> float:
    """Group index implied by a standing-wave FSR: c0 / (2 * L * FSR); inf
    where the round trip 2 * L * FSR underflows to 0."""
    _require_positive(length_mm=length_mm, fsr_ghz=fsr_ghz)
    round_trip_m_hz = 2.0 * length_mm * 1e-3 * fsr_ghz * 1e9
    return SPEED_OF_LIGHT_M_PER_S / round_trip_m_hz if round_trip_m_hz else math.inf


@dataclass(frozen=True)
class CavitySpec:
    """Static description of one birefringent monolithic cavity.

    Frequencies carry their unit in the field name; mode offsets everywhere
    are relative to the degeneracy frequency, never absolute optical
    frequencies.
    """

    fsr_h_ghz: float
    fsr_v_ghz: float
    fwhm_h_mhz: float
    fwhm_v_mhz: float
    pm_fwhm_thz: float
    length_mm: float

    def __post_init__(self):
        _require_positive(
            fsr_h_ghz=self.fsr_h_ghz,
            fsr_v_ghz=self.fsr_v_ghz,
            fwhm_h_mhz=self.fwhm_h_mhz,
            fwhm_v_mhz=self.fwhm_v_mhz,
            pm_fwhm_thz=self.pm_fwhm_thz,
            length_mm=self.length_mm,
        )
        for pol in ("h", "v"):
            fsr, fwhm = getattr(self, f"fsr_{pol}_ghz"), getattr(self, f"fwhm_{pol}_mhz")
            if fwhm >= fsr * 1e3:
                raise ValueError(f"fwhm_{pol} must be below fsr_{pol}")
            if not math.isfinite(_airy_coefficient(fsr, fwhm)):
                raise ValueError(f"the finesse fsr_{pol}_ghz / fwhm_{pol}_mhz overflows "
                                 "the Airy coefficient (2F/pi)^2")
            if not math.isfinite(effective_index(self.length_mm, fsr)):
                raise ValueError(f"length_mm * fsr_{pol}_ghz is too small for a finite "
                                 "effective index c0 / (2 L FSR)")
        if self.fsr_h_ghz == self.fsr_v_ghz:
            raise ValueError("fsr_h_ghz must differ from fsr_v_ghz (degenerate Vernier)")

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
class SourceRate:
    """Spectral brightness model: pairs/s = brightness * power * bandwidth."""

    brightness_per_s_mw_mhz: float
    power_mw: float
    bandwidth_mhz: float

    def __post_init__(self):
        for name in ("brightness_per_s_mw_mhz", "power_mw", "bandwidth_mhz"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class DetectionChain:
    """Per-arm efficiencies, dark rates, and timing parameters."""

    eta_s: float
    eta_i: float
    dark_s_per_s: float
    dark_i_per_s: float
    window_ns: float
    jitter_sigma_ps: float
    bin_ps: float

    def __post_init__(self):
        for name in ("eta_s", "eta_i"):
            eta = getattr(self, name)
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {eta!r}")
        for name in ("dark_s_per_s", "dark_i_per_s", "jitter_sigma_ps"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("window_ns", "bin_ps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.window_ns < 1e-3:  # time tags are whole picoseconds
            raise ValueError(f"window_ns must be at least 1e-3 (1 ps), got {self.window_ns!r}")
        # a 40-sigma draw (4e13 ps) stays far inside MAX_DURATION_S's margin
        if self.jitter_sigma_ps > 1e12:
            raise ValueError("jitter_sigma_ps must be at most 1e12 (1 s), "
                             f"got {self.jitter_sigma_ps!r}")
        # where car_optimal_rate is defined, tiny efficiencies underflow its
        # divisor eta_s * eta_i to 0 or overflow the ratio under its root
        efficiency, darks = self.eta_s * self.eta_i, self.dark_s_per_s * self.dark_i_per_s
        if min(self.eta_s, self.eta_i, self.dark_s_per_s, self.dark_i_per_s) > 0.0 and not (
                efficiency > 0.0 and math.isfinite(darks / efficiency)):
            raise ValueError("the CAR-optimal pair rate sqrt(dark_s_per_s * dark_i_per_s / "
                             "(eta_s * eta_i)) must be finite")


def pair_rate(src: SourceRate, power_mw: float | None = None) -> float:
    """Generated pair rate in pairs/s at power_mw, src.power_mw if None;
    pair_rate(src, 1.0) is the pairs/s per mW."""
    power = src.power_mw if power_mw is None else power_mw
    return src.brightness_per_s_mw_mhz * power * src.bandwidth_mhz


def detected_rates(rate: float, chain: DetectionChain) -> tuple[float, float, float, float]:
    """The singles S = eta * rate + dark of each arm and the true coincidences
    C = eta_s * eta_i * rate, per second, and the accidentals per window
    A = S_s * S_i * window, of pairs generated at rate per second."""
    if not math.isfinite(rate) or rate < 0.0:
        raise ValueError(f"rate must be finite and >= 0, got {float(rate)!r}")
    singles_s = chain.eta_s * rate + chain.dark_s_per_s
    singles_i = chain.eta_i * rate + chain.dark_i_per_s
    accidentals = singles_s * singles_i * chain.window_ns * 1e-9
    return singles_s, singles_i, chain.eta_s * chain.eta_i * rate, accidentals


def _car(rate: float, chain: DetectionChain) -> float | None:
    """car_model, or None where no accidentals leave it undefined."""
    _, _, coincidences, accidentals = detected_rates(rate, chain)
    return coincidences / accidentals if accidentals else None


def car_model(rate: float, chain: DetectionChain) -> float:
    """Coincidence-to-accidental ratio C / A of a CW pair source (detected_rates)."""
    car = _car(rate, chain)
    if car is None:
        raise ValueError("no accidentals: CAR undefined for zero rate and darks")
    return car


def car_optimal_rate(chain: DetectionChain) -> float:
    """Pair rate maximizing car_model: sqrt(dark_s*dark_i/(eta_s*eta_i))."""
    if chain.dark_s_per_s <= 0.0 or chain.dark_i_per_s <= 0.0:
        raise ValueError("CAR has no interior maximum without dark counts")
    if chain.eta_s <= 0.0 or chain.eta_i <= 0.0:
        raise ValueError("CAR has no interior maximum with zero efficiency")
    return math.sqrt(
        chain.dark_s_per_s * chain.dark_i_per_s / (chain.eta_s * chain.eta_i)
    )


def car_curve_reference(source, chain):
    """True reduced parameters implied by a source/detection description."""
    k = pair_rate(source, 1.0)  # pairs/s/mW
    norm = k * chain.window_ns * 1e-9
    knee_s = chain.dark_s_per_s / (chain.eta_s * k)
    knee_i = chain.dark_i_per_s / (chain.eta_i * k)
    return norm, knee_s, knee_i


@dataclass(frozen=True)
class Links:
    """A config's rates, derived as it loads: at its pump power, per second,
    the pairs and detected_rates, and the CAR, None without accidentals.
    The CAR optimum is None without darks and efficiency in both arms, and
    car_curve_reference's knees where they would divide by 0."""

    bandwidth_mhz: float
    pairs_per_s_per_mw: float
    pairs_per_s: float
    singles_s_per_s: float
    singles_i_per_s: float
    coincidences_per_s: float
    accidentals_per_s: float
    car_at_config_power: float | None
    optimal_rate_pairs_per_s: float | None
    optimal_power_mw: float | None
    peak_car: float | None
    reference_curve: dict | None

    @classmethod
    def of(cls, source: SourceRate, chain: DetectionChain) -> "Links":
        rate, k = pair_rate(source), pair_rate(source, 1.0)
        if not math.isfinite(rate):
            raise ConfigError("source.brightness_per_s_mw_mhz * source.power_mw overflows")
        if not math.isfinite(k * CAR_CURVE_POWER_MW[1]):
            raise ConfigError("source.brightness_per_s_mw_mhz overflows the pair rate at "
                              f"car's highest curve power, {CAR_CURVE_POWER_MW[1]:g} mW")
        optimum = power = peak = curve = None
        if min(chain.eta_s, chain.eta_i, chain.dark_s_per_s, chain.dark_i_per_s) > 0.0:
            optimum = car_optimal_rate(chain)  # finite, as DetectionChain checks
            power = optimum / k if k > 0.0 else None
            peak = _car(optimum, chain)
        if chain.eta_s * k > 0.0 and chain.eta_i * k > 0.0:
            curve = dict(zip(("norm_per_mw", "knee_s_mw", "knee_i_mw"),
                             car_curve_reference(source, chain)))
        return cls(source.bandwidth_mhz, k, rate, *detected_rates(rate, chain),
                   _car(rate, chain), optimum, power, peak, curve)


def histogram_k_max(range_ns: float, bin_ps: float) -> int:
    """Bins on each side of the central one in a +-range/2 delay histogram.

    Raises ValueError unless bin_ps is a whole number of picoseconds that
    divides the range evenly.
    """
    range_ps = range_ns * 1e3
    if not all(math.isfinite(v) and v > 0.0 for v in (range_ps, bin_ps)):
        raise ValueError("range and bin must be finite and > 0 in picoseconds")
    if bin_ps < 1.0 or abs(bin_ps - round(bin_ps)) > 1e-9:
        # timestamps are integer picoseconds; fractional bins would alias
        raise ValueError("bin_ps must be a whole number of picoseconds, at least 1")
    n_bins_f = range_ps / bin_ps
    if abs(n_bins_f - round(n_bins_f)) > 1e-9:
        raise ValueError("bin_ps must divide range_ns evenly")
    return int(round(range_ps / (2.0 * bin_ps)))


@dataclass(frozen=True)
class DwdmFilter:
    center_offset_ghz: float = 0.0
    width_ghz: float = 200.0

    def __post_init__(self):
        if not math.isfinite(self.center_offset_ghz):
            raise ConfigError("dwdm.center_offset_ghz must be finite")
        if not (math.isfinite(self.width_ghz) and self.width_ghz > 0.0):
            raise ConfigError("dwdm.width_ghz must be finite and > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    ppktp0: CavitySpec
    ppktp1: CavitySpec
    source: SourceRate
    chain: DetectionChain
    dwdm: DwdmFilter
    pump_phase_rad: float
    coherence: float
    seed: int | None
    tomo_counts_per_setting: int
    bootstrap_resamples: int
    accidental_offset_ns: float
    histogram_range_ns: float
    network: tuple

    def crystals(self) -> tuple[tuple[str, CavitySpec], ...]:
        """Each crystal with its name, the key of its config section."""
        return ("ppktp0", self.ppktp0), ("ppktp1", self.ppktp1)

    @property
    def pair_crystal(self) -> CavitySpec:
        """The crystal whose pairs simulate draws; its mean linewidth is the
        pair bandwidth of ``source``."""
        return self.ppktp0

    def car_at_power(self, power_mw: float) -> float | None:
        """car_model at a pump power in mW, None where it is undefined."""
        return _car(self.links.pairs_per_s_per_mw * power_mw, self.chain)

    def __post_init__(self):
        bandwidth = self.pair_crystal.mean_linewidth_mhz()
        if not math.isfinite(bandwidth):
            raise ConfigError("ppktp0.fwhm_h_mhz + ppktp0.fwhm_v_mhz overflows, so the "
                              "pair bandwidth, their mean, is not finite")
        object.__setattr__(self, "source", dataclasses.replace(self.source,
                                                               bandwidth_mhz=bandwidth))
        if self.seed is not None and not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError("seed must be an integer >= 0 or null")
        if not math.isfinite(self.pump_phase_rad):
            raise ConfigError("pump_phase_rad must be finite")
        if not 0.0 <= self.coherence <= 1.0:
            raise ConfigError("coherence must lie in [0, 1]")
        if not _is_int(self.tomo_counts_per_setting) or self.tomo_counts_per_setting <= 0:
            raise ConfigError("tomo_counts_per_setting must be an integer > 0")
        if not _is_int(self.bootstrap_resamples) or self.bootstrap_resamples < 100:
            raise ConfigError("bootstrap_resamples must be an integer >= 100")
        offset = self.accidental_offset_ns
        if not (math.isfinite(offset) and offset > 2.0 * self.chain.window_ns):
            raise ConfigError("accidental_offset_ns must be finite and far exceed the window")
        if not (math.isfinite(self.histogram_range_ns * 1e3) and self.histogram_range_ns > 0.0):
            raise ConfigError("histogram_range_ns must be > 0 and finite in picoseconds")
        k_max = histogram_k_max(self.histogram_range_ns, self.chain.bin_ps)
        if 2 * k_max + 1 < _MIN_G2_BINS:
            raise ConfigError(f"histogram_range_ns must span at least {_MIN_G2_BINS} bins")
        # the lag scan lists every cross-channel delay up to its limit, so it
        # stays linear in events only while the limit is short against the
        # mean spacing of detected events
        chain, links = self.chain, Links.of(self.source, self.chain)
        object.__setattr__(self, "links", links)  # derived: neither a field nor a key
        events_per_ns = (links.singles_s_per_s + links.singles_i_per_s) * 1e-9
        for name, limit_ns in (
            ("accidental_offset_ns", offset + chain.window_ns / 2.0),
            ("histogram_range_ns", self.histogram_range_ns / 2.0 + chain.bin_ps / 2e3),
        ):
            if limit_ns * events_per_ns >= 1.0:
                raise ConfigError(f"{name} must keep the delay scan ({limit_ns:g} ns) "
                                  "short of the mean spacing of detected events "
                                  f"({1.0 / events_per_ns:g} ns)")
        try:  # derived like links: the state that every stage measures
            rho = _network_rho(self.network, self.pump_phase_rad, self.coherence)
        except NonInterferingNetworkError as exc:
            raise ConfigError(f"network: {exc}") from exc
        object.__setattr__(self, "rho", rho)


def default_config() -> ExperimentConfig:
    """Bundled two-crystal telecom source description."""
    return ExperimentConfig(
        ppktp0=CavitySpec(
            fsr_h_ghz=57.91,
            fsr_v_ghz=54.91,
            fwhm_h_mhz=454.0,
            fwhm_v_mhz=462.0,
            pm_fwhm_thz=2.04,
            length_mm=1.47,
        ),
        ppktp1=CavitySpec(
            fsr_h_ghz=57.41,
            fsr_v_ghz=54.91,
            fwhm_h_mhz=422.0,
            fwhm_v_mhz=384.0,
            pm_fwhm_thz=2.04,
            length_mm=1.47,
        ),
        # the bandwidth is derived from ppktp0 by ExperimentConfig
        source=SourceRate(brightness_per_s_mw_mhz=0.7, power_mw=150.0, bandwidth_mhz=0.0),
        chain=DetectionChain(
            eta_s=0.125,
            eta_i=0.125,
            dark_s_per_s=100.0,
            dark_i_per_s=100.0,
            window_ns=3.2,
            jitter_sigma_ps=60.0,
            bin_ps=25.0,
        ),
        dwdm=DwdmFilter(center_offset_ghz=0.0, width_ghz=200.0),
        pump_phase_rad=math.pi,
        coherence=0.8709,
        seed=None,
        tomo_counts_per_setting=10_000,
        bootstrap_resamples=200,
        accidental_offset_ns=50.0,
        histogram_range_ns=20.0,
        network=displacer_network(),
    )


# ---------------------------------------------------------------------------
# JSON round trip

_ELEMENT_TYPES = {"bd": BD, "hwp": HWP, "qwp": QWP, "crystal": CrystalSource}


def _element_to_dict(element) -> dict:
    for name, cls in _ELEMENT_TYPES.items():
        if isinstance(element, cls):
            payload = {"type": name}
            payload.update(dataclasses.asdict(element))
            if payload.get("rail") is not None:
                payload["rail"] = list(payload["rail"])
            return payload
    raise ConfigError(f"unknown network element {element!r}")


def _element_from_dict(payload: dict, path: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object")
    if "type" not in payload:
        raise ConfigError(f"{path}.type is required")
    kind = payload["type"]
    cls = _ELEMENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}.type: unknown element type {kind!r}")
    kwargs = {k: v for k, v in payload.items() if k != "type"}
    rail = kwargs.get("rail")
    # a null rail means every rail for a wave plate; a crystal sits on one
    if rail is not None or ("rail" in kwargs and cls is CrystalSource):
        if not (isinstance(rail, (list, tuple)) and len(rail) == 2
                and all(map(_is_int, rail))):
            raise ConfigError(f"{path}.rail: expected two integers")
        kwargs["rail"] = tuple(rail)
    return _build(cls, kwargs, path)


#: What a field takes, by its annotation, where that is not a number.
_KINDS = {"str": "a string", "int": "an integer", "int | None": "an integer or null"}


def _build(base, payload: dict, path: str):
    """Dataclass ``base`` with the fields given in ``payload``.

    ``base`` is an instance whose values stand in for omitted fields, or a
    dataclass type built from ``payload`` alone.  Unknown keys and invalid
    values raise ConfigError naming ``path``.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object")
    annotations = {f.name: f.type for f in dataclasses.fields(base)}
    unknown = set(payload) - set(annotations)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    for key, value in payload.items():
        if isinstance(value, bool):  # a JSON true would pass as 1.0
            kind = _KINDS.get(annotations[key], "a number")
            raise ConfigError(f"{path}.{key}: expected {kind}, got {json.dumps(value)}")
    try:
        if isinstance(base, type):
            return base(**payload)
        return dataclasses.replace(base, **payload)
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Overlay a JSON payload onto ``default_config()``.

    Dataclass-valued sections merge key by key onto their defaults,
    ``network`` replaces the built-in displacer network, and any other
    field is taken as given.
    """
    if not isinstance(payload, dict):
        raise ConfigError("config: expected a JSON object")
    base = default_config()
    kwargs = dict(payload)  # keys that name no field are rejected by _build
    for field in dataclasses.fields(base):
        key = field.name
        if key not in payload:
            continue
        default, value, path = getattr(base, key), payload[key], f"config.{key}"
        if key == "source" and isinstance(value, dict) and "bandwidth_mhz" in value:
            raise ConfigError(f"{path}.bandwidth_mhz: derived from ppktp0's linewidths, "
                              "not a config key")
        if dataclasses.is_dataclass(default):
            kwargs[key] = _build(default, value, path)
        elif key == "network":
            if not isinstance(value, list):
                raise ConfigError(f"{path}: expected a list of elements")
            kwargs[key] = tuple(
                _element_from_dict(e, f"{path}[{i}]") for i, e in enumerate(value)
            )
    return _build(base, kwargs, "config")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    payload = dataclasses.asdict(cfg)
    del payload["source"]["bandwidth_mhz"]  # derived, not a key
    payload["network"] = [_element_to_dict(e) for e in cfg.network]
    return payload


def load_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    try:
        return config_from_dict(payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
