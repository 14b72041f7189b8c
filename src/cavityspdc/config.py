"""Experiment configuration: JSON with units baked into every key name."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .cavity import CavitySpec
from .fitting import _MIN_G2_BINS
from .photostats import DetectionChain, SourceRate, histogram_k_max, pair_rate
from .polarization import BD, HWP, QWP, CrystalSource, ElementNet, Mirror


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class DwdmFilter:
    center_offset_ghz: float = 0.0
    width_ghz: float = 200.0

    def __post_init__(self):
        if not math.isfinite(self.center_offset_ghz):
            raise ConfigError("dwdm.center_offset_ghz must be finite")
        if not (math.isfinite(self.width_ghz) and self.width_ghz > 0.0):
            raise ConfigError("dwdm.width_ghz must be finite and > 0")


#: Reference tolerances used by the comparison report.
DEFAULT_TOLERANCES = {
    "cluster_spacing_rel": 0.01,
    "t_fwhm_rel": 0.005,
    "overlap_abs": 0.005,
    "chsh_abs": 1e-3,
    "visibility_abs": 1e-6,
    "fidelity_abs": 1e-6,
}


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
    network: ElementNet | None
    tolerances: dict

    def __post_init__(self):
        if self.ppktp0.name == self.ppktp1.name:
            raise ConfigError(f"ppktp1.name {self.ppktp1.name!r} must differ from ppktp0.name")
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
        if not (math.isfinite(self.histogram_range_ns) and self.histogram_range_ns > 0.0):
            raise ConfigError("histogram_range_ns must be finite and > 0")
        k_max = histogram_k_max(self.histogram_range_ns, self.chain.bin_ps)
        if 2 * k_max + 1 < _MIN_G2_BINS:
            raise ConfigError(f"histogram_range_ns must span at least {_MIN_G2_BINS} bins")
        # the lag scan lists every cross-channel delay up to its limit, so it
        # stays linear in events only while the limit is short against the
        # mean spacing of detected events
        chain, rate = self.chain, pair_rate(self.source)
        events_per_ns = (chain.eta_s * rate + chain.dark_s_per_s
                         + chain.eta_i * rate + chain.dark_i_per_s) * 1e-9
        for name, limit_ns in (
            ("accidental_offset_ns", offset + chain.window_ns / 2.0),
            ("histogram_range_ns", self.histogram_range_ns / 2.0 + chain.bin_ps / 2e3),
        ):
            if limit_ns * events_per_ns >= 1.0:
                raise ConfigError(f"{name} must keep the delay scan ({limit_ns:g} ns) "
                                  "short of the mean spacing of detected events "
                                  f"({1.0 / events_per_ns:g} ns)")


def default_config() -> ExperimentConfig:
    """Bundled two-crystal telecom source description."""
    return ExperimentConfig(
        ppktp0=CavitySpec(
            name="ppktp0",
            fsr_h_ghz=57.91,
            fsr_v_ghz=54.91,
            fwhm_h_mhz=454.0,
            fwhm_v_mhz=462.0,
            degenerate_freq_thz=193.3895,
            pm_fwhm_thz=2.04,
            length_mm=1.47,
            out_coupler_reflectivity=0.96,
            poling_period_um=46.2,
        ),
        ppktp1=CavitySpec(
            name="ppktp1",
            fsr_h_ghz=57.41,
            fsr_v_ghz=54.91,
            fwhm_h_mhz=422.0,
            fwhm_v_mhz=384.0,
            degenerate_freq_thz=193.3895,
            pm_fwhm_thz=2.04,
            length_mm=1.47,
            out_coupler_reflectivity=0.96,
            poling_period_um=46.2,
        ),
        source=SourceRate(
            brightness_per_s_mw_mhz=0.7, power_mw=150.0, bandwidth_mhz=458.0
        ),
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
        network=None,
        tolerances=dict(DEFAULT_TOLERANCES),
    )


# ---------------------------------------------------------------------------
# JSON round trip

_ELEMENT_TYPES = {"bd": BD, "hwp": HWP, "qwp": QWP, "mirror": Mirror,
                  "crystal": CrystalSource}


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
    if "type" not in payload:
        raise ConfigError(f"{path}.type is required")
    kind = payload["type"]
    cls = _ELEMENT_TYPES.get(kind)
    if cls is None:
        raise ConfigError(f"{path}.type: unknown element type {kind!r}")
    kwargs = {k: v for k, v in payload.items() if k != "type"}
    if kwargs.get("rail") is not None:
        rail = kwargs["rail"]
        if not (isinstance(rail, (list, tuple)) and len(rail) == 2
                and all(map(_is_int, rail))):
            raise ConfigError(f"{path}.rail: expected two integers")
        kwargs["rail"] = tuple(rail)
    return _build(cls, kwargs, path)


def _build(base, payload: dict, path: str):
    """Dataclass ``base`` with the fields given in ``payload``.

    ``base`` is an instance whose values stand in for omitted fields, or a
    dataclass type built from ``payload`` alone.  Unknown keys and invalid
    values raise ConfigError naming ``path``.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(payload) - {f.name for f in dataclasses.fields(base)}
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    try:
        if isinstance(base, type):
            return base(**payload)
        return dataclasses.replace(base, **payload)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Overlay a JSON payload onto ``default_config()``.

    Dataclass-valued sections merge key by key onto their defaults,
    ``tolerances`` merges onto the reference tolerances, ``network``
    replaces the built-in displacer network, and any other field is taken
    as given.
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
        if dataclasses.is_dataclass(default):
            kwargs[key] = _build(default, value, path)
        elif key == "tolerances":
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: expected an object")
            kwargs[key] = dict(default)
            for name, tol in value.items():
                if name not in default:
                    raise ConfigError(f"{path}.{name}: unknown key")
                if not (_is_int(tol) or isinstance(tol, float)):
                    raise ConfigError(f"{path}.{name}: expected a number")
                if not (math.isfinite(tol) and tol >= 0):
                    raise ConfigError(f"{path}.{name}: must be finite and >= 0, got {tol!r}")
                kwargs[key][name] = float(tol)
        elif key == "network" and value is not None:
            if not isinstance(value, list):
                raise ConfigError(f"{path}: expected a list of elements")
            elements = tuple(
                _element_from_dict(e, f"{path}[{i}]") for i, e in enumerate(value)
            )
            kwargs[key] = _build(ElementNet, {"elements": elements}, path)
    return _build(base, kwargs, "config")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    payload = dataclasses.asdict(cfg)
    if cfg.network is not None:
        payload["network"] = [_element_to_dict(e) for e in cfg.network.elements]
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
