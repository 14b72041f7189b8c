"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop of units.  ``work`` makes one unit's calls
into the package through a :class:`harness.Recorder`; ``check`` then
compares what the package returned with independent expectations and
returns the problems it found.  Only ``work`` is timed.  Inputs come from
the unit's seeds and the bundled default configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from cavityspdc import (
    PHI_SETTINGS,
    BiphotonParams,
    airy_transmission,
    bootstrap_errors,
    car_from_stream,
    car_model,
    chsh_S,
    chsh_max,
    coincidence_histogram,
    count_coincidences,
    degraded_state,
    displacer_network,
    fidelity,
    fit_car_curve,
    fit_exp_g2,
    fit_lorentzian,
    interference_curve,
    load_config,
    propagate_network,
    read_ttag,
    save_config,
    simulate_timetags,
    tomo_mle,
    tomo_simulate_counts,
    write_ttag,
)
from cavityspdc.config import config_to_dict

from harness import OpFailed, run_child

# Inputs as the scripts make them: cavity_sweep.py sweeps +-3 linewidths in
# 400 points with 0.02 RMS noise; car_power_scan.py checks 2.5, 25 and 150 mW
# at 20 s and fits a 40-point model curve from 0.5 to 250 mW.  The 2.5 mW
# record is where fit_exp_g2 is known not to converge on some seeds; it is
# kept at the script's length so that the failure share shows.
SWEEP_POINTS = 400
SWEEP_NOISE = 0.02
SCAN_POWERS_MW = (2.5, 25.0, 150.0)
SCAN_S = 20.0
CURVE_POWERS_MW = np.logspace(math.log10(0.5), math.log10(250.0), 40)
LOW_COUNTS = 500  # per tomography setting; the MLE sits near the boundary
# Every unit analyses the two observed tomography records that
# entanglement_run.py draws at its default seed; the unit's seeds draw the
# bootstrap resamples.  The MLE's run time depends on the observed record,
# because the resamples inherit its difficulty: a 200-resample bootstrap
# took 4.9 to 9.1 s over eight 10k-count records.  The 3 to 5 units of a
# run cannot average that out, so fixed records keep the runs comparable.
OBSERVED_SEED = 0
BETA_DEG = np.arange(0.0, 361.0, 7.5)
CLI_TIMEOUT_S = 60.0

# Tolerances of the checks.  The statistical ones were measured over seeds:
# fit_lorentzian's FWHM error has a 3.4 MHz spread (500 seeds per line, none
# beyond 11.2 MHz), and converged fit_exp_g2 widths scatter around 0.50 ns
# (jitter-broadened) with spread 0.65 ns / sqrt(expected peak counts)
# (6000 seeds at 2.5 mW, none beyond 4.7 spreads).  Bands are 6 and 8
# spreads wide; count checks reject only Poisson tails below 1e-9 (6 sigma).
LORENTZ_FWHM_BAND_MHZ = 6 * 3.4
G2_WIDTH_CENTER_NS = 0.50
G2_WIDTH_SPREAD_NS = 0.65
G2_WIDTH_BAND_SPREADS = 8
POISSON_TAIL = 1e-9
CAR_FIT_REL = 1e-4  # exact data, as in the acceptance suite
CHSH_ABS = 1e-3  # the report's tolerance
VISIBILITY_ABS = 1e-6
STATE_ABS = 1e-12


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Sizes that the smoke test shrinks; the defaults are the benchmark's."""

    long_record_s: float = 120.0
    resamples: int | None = None  # None: the configured bootstrap_resamples
    simulate_s: float = 1.0
    pool: int | None = None  # distinct unit inputs a run cycles through; None: the workload's POOL


FULL = Sizes()
TINY = Sizes(long_record_s=2.0, resamples=100, simulate_s=0.2, pool=2)


def _fit(run, name, fn, *args):
    """A fit call; a FitResult the package reports as not converged is a
    failed operation, with the fitted parameters in its message."""
    result = run.call(name, fn, *args)
    run.note(name, "iterations", result.iterations)
    if not result.converged:
        params = ", ".join(f"{k}={v:.4g}" for k, v in result.parameters.items())
        run.fail(name, f"not converged: {result.message} ({params})")
    return result


def poisson_tails(k: int, lam: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Poisson(lam)."""
    n_max = int(max(k, lam + 40.0 * math.sqrt(lam) + 50.0)) + 1
    n = np.arange(n_max + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(n[1:]))])
    pmf = np.exp(n * math.log(lam) - lam - log_fact)
    cdf = np.cumsum(pmf)
    return float(cdf[k]), float(1.0 - (cdf[k - 1] if k > 0 else 0.0))


def window_fraction(cfg) -> float:
    """Share of detected pairs whose delay falls in the zero-delay window.

    The delay is two-sided exponential with scale 1/(2 pi gamma'), gamma'
    the geometric-mean linewidth of ppktp0, plus the difference of two
    Gaussian jitters.
    """
    scale_ps = 1e6 / (2.0 * math.pi * math.sqrt(cfg.ppktp0.fwhm_h_mhz * cfg.ppktp0.fwhm_v_mhz))
    half_ps = cfg.chain.window_ns * 1e3 / 2.0

    def cdf(x):
        return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0) / scale_ps),
                        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / scale_ps))

    sigma = math.sqrt(2.0) * cfg.chain.jitter_sigma_ps
    if sigma == 0.0:
        return float(cdf(np.array(half_ps)) - cdf(np.array(-half_ps)))
    g = np.linspace(-10.0 * sigma, 10.0 * sigma, 20001)
    w = np.exp(-0.5 * (g / sigma) ** 2)
    return float(np.sum(w * (cdf(half_ps - g) - cdf(-half_ps - g))) / np.sum(w))


def expected_counts(cfg, power_mw: float, duration_s: float) -> tuple[float, float]:
    """Mean counts in the zero-delay and the delayed window, from the CAR model."""
    ch = cfg.chain
    rate = cfg.source.brightness_per_s_mw_mhz * power_mw * cfg.source.bandwidth_mhz
    accidental = (ch.eta_s * rate + ch.dark_s_per_s) * (ch.eta_i * rate + ch.dark_i_per_s) \
        * ch.window_ns * 1e-9 * duration_s
    true_pairs = ch.eta_s * ch.eta_i * rate * duration_s * window_fraction(cfg)
    return true_pairs + accidental, accidental


def car_curve_truth(cfg) -> dict:
    """Reduced CAR-curve parameters implied by the configuration."""
    k = cfg.source.brightness_per_s_mw_mhz * cfg.source.bandwidth_mhz
    ch = cfg.chain
    return {"norm_per_mw": k * ch.window_ns * 1e-9,
            "knee_s_mw": ch.dark_s_per_s / (ch.eta_s * k),
            "knee_i_mw": ch.dark_i_per_s / (ch.eta_i * k)}


def model_curve(cfg):
    k = cfg.source.brightness_per_s_mw_mhz * cfg.source.bandwidth_mhz
    return CURVE_POWERS_MW, np.array([car_model(k * p, cfg.chain) for p in CURVE_POWERS_MW])


def _check_car_fit(params: dict, cfg, where: str) -> list[str]:
    return [f"{where}: {key} {params[key]:.6g} != {ref:.6g}"
            for key, ref in car_curve_truth(cfg).items()
            if not abs(params[key] - ref) <= CAR_FIT_REL * abs(ref)]


def _same_stream(a, b) -> bool:
    return np.array_equal(a.t_ps, b.t_ps) and np.array_equal(a.channel, b.channel)


class Timetag:
    """Source characterisation: Lorentzian sweeps, the CAR power scan, and
    one long 150 mW record written, read back and analysed."""

    POOL = 8  # ~1.6 s units: the distinct inputs take ~13 s of a 33 s run

    def __init__(self, cfg, sizes: Sizes, workdir: Path):
        self.cfg = cfg
        self.sizes = sizes
        self.bp = BiphotonParams.from_cavity(cfg.ppktp0)
        self.curve = model_curve(cfg)
        self.ttag_path = workdir / "long.ttag"

    def work(self, run, seeds) -> dict:
        cfg = self.cfg
        out = {"sweeps": [], "records": [], "events": 0}
        rng = np.random.default_rng(seeds[0])
        for spec in (cfg.ppktp0, cfg.ppktp1):
            for pol in ("H", "V"):
                fsr, fwhm = spec.fsr_ghz(pol), spec.fwhm_mhz(pol)
                x = np.linspace(-3.0 * fwhm, 3.0 * fwhm, SWEEP_POINTS)
                with suppress(OpFailed):
                    trans = run.call("cavity.airy_transmission", airy_transmission, x * 1e-3, fsr, fwhm)
                    noisy = trans + rng.normal(0.0, SWEEP_NOISE, x.size)
                    out["sweeps"].append((fwhm, _fit(run, "fitting.fit_lorentzian", fit_lorentzian, x, noisy)))
        for power, seed in zip(SCAN_POWERS_MW, seeds[1:]):
            src = dataclasses.replace(cfg.source, power_mw=power)
            with suppress(OpFailed):
                stream = self._simulate(run, out, src, SCAN_S, seed)
                if power == SCAN_POWERS_MW[0]:
                    out["repeat"] = (stream, self._simulate(run, out, src, SCAN_S, seed))
                self._analyse(run, out, power, SCAN_S, stream)
        with suppress(OpFailed):
            out["car_fit"] = _fit(run, "fitting.fit_car_curve", fit_car_curve, *self.curve)
        with suppress(OpFailed):
            duration = self.sizes.long_record_s
            stream = self._simulate(run, out, cfg.source, duration, seeds[4])
            run.call("photostats.write_ttag", write_ttag, stream, self.ttag_path)
            size = self.ttag_path.stat().st_size
            run.note("photostats.write_ttag", "bytes", size)
            back = run.call("photostats.read_ttag", read_ttag, self.ttag_path)
            run.note("photostats.read_ttag", "bytes", size)
            out["round_trip"] = (stream, back, size)
            self._analyse(run, out, cfg.source.power_mw, duration, back)
        return out

    def _simulate(self, run, out, src, duration, seed):
        stream = run.call("photostats.simulate_timetags", simulate_timetags,
                          src, self.bp, self.cfg.chain, duration, seed)
        run.note("photostats.simulate_timetags", "events", len(stream))
        out["events"] += len(stream)
        return stream

    def _analyse(self, run, out, power, duration, stream):
        cfg, ch = self.cfg, self.cfg.chain
        hist = run.call("photostats.coincidence_histogram", coincidence_histogram,
                        stream, cfg.histogram_range_ns, ch.bin_ps)
        record = {"power": power, "duration": duration}
        out["records"].append(record)
        record["car"] = run.call("photostats.car_from_stream", car_from_stream,
                                 stream, ch, cfg.accidental_offset_ns)
        record["peak"] = run.call("photostats.count_coincidences", count_coincidences,
                                  stream, 0.0, ch.window_ns)
        record["accidental"] = run.call("photostats.count_coincidences", count_coincidences,
                                        stream, cfg.accidental_offset_ns, ch.window_ns)
        record["g2"] = _fit(run, "fitting.fit_exp_g2", fit_exp_g2, hist)

    def check(self, run, out) -> tuple[list[str], int]:
        cfg = self.cfg
        problems = []
        for fwhm, fit in out["sweeps"]:
            got = fit.parameters["fwhm"]
            if fit.converged and not abs(got - fwhm) <= LORENTZ_FWHM_BAND_MHZ:
                problems.append(f"fit_lorentzian: fwhm {got:.2f} MHz, configured {fwhm} MHz")
        for rec in out["records"]:
            where = f"{rec['power']} mW x {rec['duration']} s"
            lam_peak, lam_acc = expected_counts(cfg, rec["power"], rec["duration"])
            for key, lam in (("peak", lam_peak), ("accidental", lam_acc)):
                if key in rec and min(poisson_tails(rec[key], lam)) < POISSON_TAIL:
                    problems.append(f"{where}: {key} count {rec[key]} against mean {lam:.4g}")
            if "accidental" in rec:
                car = math.inf if rec["accidental"] == 0 else rec["peak"] / rec["accidental"]
                if rec["car"] != car:
                    problems.append(f"{where}: car_from_stream {rec['car']} != {car}")
            g2 = rec.get("g2")
            if g2 is not None and g2.converged:
                width = g2.derived["t_fwhm_ns"]
                band = G2_WIDTH_BAND_SPREADS * G2_WIDTH_SPREAD_NS / math.sqrt(lam_peak - lam_acc) + 0.01
                if not abs(width - G2_WIDTH_CENTER_NS) <= band:
                    problems.append(f"{where}: fit_exp_g2 t_fwhm {width:.4f} ns outside "
                                    f"{G2_WIDTH_CENTER_NS} +- {band:.4f} ns")
        if "repeat" in out and not _same_stream(*out["repeat"]):
            problems.append("simulate_timetags: the same seed gave a different stream")
        if "round_trip" in out:
            stream, back, size = out["round_trip"]
            if not _same_stream(stream, back):
                problems.append("read_ttag: read-back stream differs from the one written")
            if size != 6 + 9 * len(stream):
                problems.append(f"write_ttag: {size} bytes for {len(stream)} events")
        fit = out.get("car_fit")
        if fit is not None and fit.converged:
            problems += _check_car_fit(fit.parameters, cfg, "fit_car_curve")
        return problems, out["events"]


class Tomography:
    """entanglement_run.py: tomography with bootstrap errors at the
    configured counts and at 500 counts, then CHSH and interference."""

    POOL = 2  # ~11 s units

    def __init__(self, cfg, sizes: Sizes, workdir: Path):
        self.cfg = cfg
        self.resamples = sizes.resamples or cfg.bootstrap_resamples
        self.state = degraded_state(cfg.pump_phase_rad, cfg.coherence)
        # (|HH> + e^{i theta}|VV>)/sqrt(2), built here rather than by the package
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0 / math.sqrt(2.0)
        ket[3] = np.exp(1j * cfg.pump_phase_rad) / math.sqrt(2.0)
        self.target = ket
        self.network = displacer_network()

    def work(self, run, seeds) -> dict:
        cfg, state = self.cfg, self.state
        out = {"mle": [], "boot": [], "events": 0}

        def fidelity_of_mle(rec):
            return fidelity(run.call("measurement.tomo_mle", tomo_mle, rec), self.target)

        for counts, seed in ((cfg.tomo_counts_per_setting, seeds[0]), (LOW_COUNTS, seeds[1])):
            with suppress(OpFailed):
                rec = run.call("measurement.tomo_simulate_counts", tomo_simulate_counts,
                               state, counts, OBSERVED_SEED)
                out["events"] += int(rec.counts().sum())
                with suppress(OpFailed):
                    out["mle"].append(run.call("measurement.tomo_mle", tomo_mle, rec))
                out["boot"].append(run.call("measurement.bootstrap_errors", bootstrap_errors,
                                            rec, self.resamples, fidelity_of_mle, seed=seed))
        with suppress(OpFailed):
            out["chsh_max"] = run.call("measurement.chsh_max", chsh_max, state)
        with suppress(OpFailed):
            out["chsh_S"] = run.call("measurement.chsh_S", chsh_S, state, PHI_SETTINGS)
        for alpha in (0.0, 45.0):
            with suppress(OpFailed):
                out[f"visibility_{alpha:g}"] = run.call(
                    "measurement.interference_curve", interference_curve, state, alpha, BETA_DEG).visibility
        with suppress(OpFailed):
            out["network"] = run.call("polarization.propagate_network", propagate_network,
                                      self.network, cfg.pump_phase_rad)
        return out

    def check(self, run, out) -> tuple[list[str], int]:
        c = self.cfg.coherence
        problems = []
        for est in out["mle"]:
            rho = est.rho
            if not (np.max(np.abs(rho - rho.conj().T)) <= STATE_ABS
                    and abs(np.trace(rho) - 1.0) <= STATE_ABS
                    and np.linalg.eigvalsh(rho).min() >= -STATE_ABS):
                problems.append("tomo_mle: estimate is not a unit-trace PSD matrix")
        for boot in out["boot"]:
            if not (boot.resamples == self.resamples and 0.0 <= boot.mean <= 1.0
                    and 0.0 < boot.std < math.inf):
                problems.append(f"bootstrap_errors: {boot}")
        expected = {"chsh_max": 2.0 * math.sqrt(1.0 + c * c), "chsh_S": math.sqrt(2.0) * (1.0 + c)}
        for key, ref in expected.items():
            if key in out:
                got = out[key].s_value if key == "chsh_max" else out[key]
                if not abs(got - ref) <= CHSH_ABS:
                    problems.append(f"{key}: S {got:.6f}, expected {ref:.6f}")
        for key, ref in (("visibility_0", 1.0), ("visibility_45", c)):
            if key in out and not abs(out[key] - ref) <= VISIBILITY_ABS:
                problems.append(f"interference_curve: {key} {out[key]:.8f}, expected {ref}")
        if "network" in out:
            ideal = np.outer(self.target, self.target.conj())
            if not np.linalg.norm(out["network"].rho - ideal) < 1e-10:
                problems.append("propagate_network: output differs from the ideal target")
        return problems, out["events"]


def _cli_sweep(curve_csv: Path, simulate_s: float):
    """The CLI sweep: subcommand, extra arguments, and the artifacts it writes."""
    modes = [f"modes_{c}_{p}.csv" for c in ("ppktp0", "ppktp1") for p in ("H", "V")]
    return (
        ("report", (), ["report.csv", "report.json"]),
        ("cavity", (), modes + ["clusters_ppktp0.csv", "clusters_ppktp1.csv", "cavity_summary.json"]),
        ("biphoton", (), ["biphoton.json"]),
        ("car", ("--fit-csv", str(curve_csv)), ["car_curve.csv", "car_summary.json", "car_fit.json"]),
        ("interference", (), ["interference.csv", "interference.json"]),
        ("chsh", (), ["chsh.json"]),
        ("simulate", ("--duration", f"{simulate_s:g}"),
         ["timetags.ttag", "histogram.csv", "simulate_summary.json"]),
    )


def _import_seconds(stderr_text: str) -> float | None:
    """Cumulative import time of the package from ``-X importtime`` output."""
    for line in stderr_text.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1] == " cavityspdc":
            return int(line.split("|")[1]) * 1e-6
    return None


def _parse_ttag(path: Path) -> int:
    """Number of records in a TTAG1 file, read without the package."""
    data = path.read_bytes()
    if not data.startswith(b"TTAG1\x00") or (len(data) - 6) % 9:
        raise ValueError("not a whole TTAG1 file")
    records = np.frombuffer(data[6:], dtype=np.dtype([("t", "<u8"), ("ch", "u1")]))
    if np.any(np.diff(records["t"].astype(np.int64)) < 0) or np.any(records["ch"] > 1):
        raise ValueError("timestamps out of order or channel out of range")
    return records.size


def _parse_csv(path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("no rows or ragged rows")


class Cli:
    """One sweep of fresh ``python -m cavityspdc.cli`` processes per unit."""

    POOL = 3  # ~6.5 s units

    def __init__(self, cfg, sizes: Sizes, workdir: Path):
        self.cfg = cfg
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        save_config(cfg, self.config_path)
        curve_path = workdir / "car_model.csv"
        with open(curve_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("power_mw", "car"))
            writer.writerows(zip(*model_curve(cfg)))
        self.sweep = _cli_sweep(curve_path, sizes.simulate_s)

    def work(self, run, seeds) -> dict:
        out = {"dir": self.workdir / f"unit{run.unit}", "done": [], "peak_rss_mb": 0.0}
        with suppress(OpFailed):
            out["config"] = run.call("config.load_config", load_config, self.config_path)
        for sub, extra, _ in self.sweep:
            target = out["dir"] / sub
            argv = [sys.executable, *(["-X", "importtime"] if run.tracing else []),
                    "-m", "cavityspdc.cli", "--config", str(self.config_path),
                    "--seed", str(seeds[0]), "--out", str(target), sub, *extra]
            with suppress(OpFailed):
                rss, stderr_text = run.call(f"cli.{sub}", self._child, argv, target)
                out["done"].append(sub)
                out["peak_rss_mb"] = max(out["peak_rss_mb"], rss)
                run.note(f"cli.{sub}", "peak_rss_mb", rss)
                seconds = _import_seconds(stderr_text) if run.tracing else None
                if seconds is not None:
                    run.note("cli.import", "s", seconds)
        return out

    def _child(self, argv, target: Path):
        target.mkdir(parents=True)
        _, code, rss = run_child(argv, target.parent / f"{target.name}.stdout",
                                 target.parent / f"{target.name}.stderr", CLI_TIMEOUT_S)
        stderr_text = (target.parent / f"{target.name}.stderr").read_text(errors="replace")
        if code != 0:
            lines = [ln for ln in stderr_text.splitlines() if not ln.startswith("import time:")]
            raise RuntimeError(f"exit status {code}: {lines[-1] if lines else ''}")
        return rss, stderr_text

    def check(self, run, out) -> tuple[list[str], int]:
        c = self.cfg.coherence
        problems = []
        events = 0
        if "config" in out and config_to_dict(out["config"]) != config_to_dict(self.cfg):
            problems.append("load_config: the written config did not load back unchanged")
        for sub, _, artifacts in self.sweep:
            if sub not in out["done"]:
                continue
            d = out["dir"] / sub
            parsed = {}
            for name in artifacts + ["metadata.json"]:
                try:
                    if name.endswith(".json"):
                        parsed[name] = json.loads((d / name).read_text())
                    elif name.endswith(".csv"):
                        _parse_csv(d / name)
                    else:
                        parsed[name] = _parse_ttag(d / name)
                except (OSError, ValueError) as exc:
                    problems.append(f"cli {sub}: {name}: {exc}")
            if parsed.get("metadata.json", {}).get("command") not in (None, sub):
                problems.append(f"cli {sub}: metadata.json names another command")
            if sub == "report" and parsed.get("report.json", {}).get("all_passed") is not True:
                problems.append("cli report: all_passed is not true")
            if sub == "car" and "car_fit.json" in parsed:
                fit = parsed["car_fit.json"]
                if fit["converged"]:
                    problems += _check_car_fit(fit["parameters"], self.cfg, "cli car")
                else:
                    run.fail("cli.car", f"car_fit.json not converged: {fit['message']}")
            if sub == "interference" and "interference.json" in parsed:
                vis = parsed["interference.json"]
                for key, ref in (("visibility_0deg", 1.0), ("visibility_45deg", c)):
                    if not abs(vis[key] - ref) <= VISIBILITY_ABS:
                        problems.append(f"cli interference: {key} {vis[key]}, expected {ref}")
            if sub == "chsh" and "chsh.json" in parsed:
                got = parsed["chsh.json"]
                for key, ref in (("s_max", 2.0 * math.sqrt(1.0 + c * c)),
                                 ("s_at_phi_settings", math.sqrt(2.0) * (1.0 + c))):
                    if not abs(got[key] - ref) <= CHSH_ABS:
                        problems.append(f"cli chsh: {key} {got[key]}, expected {ref:.6f}")
            if sub == "simulate" and "simulate_summary.json" in parsed:
                summary = parsed["simulate_summary.json"]
                events = summary["events"]
                if parsed.get("timetags.ttag") not in (None, events):
                    problems.append("cli simulate: timetags.ttag holds another event count")
                if "g2_fit" not in summary:
                    run.fail("cli.simulate", "fit_exp_g2 not converged (no g2_fit in the summary)")
        shutil.rmtree(out["dir"], ignore_errors=True)  # checked; the next unit writes afresh
        return problems, events


WORKLOADS = {"timetag": Timetag, "tomography": Tomography, "cli": Cli}
