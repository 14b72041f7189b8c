"""Command-line front end: per-stage outputs plus a reference-comparison
report, all driven by one JSON config."""

from __future__ import annotations

import argparse
import csv
import json
import math
import secrets
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, biphoton, cavity, fitting, measurement, photostats, polarization
from .config import ConfigError, ExperimentConfig, config_to_dict, default_config, load_config

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_REPORT_FAIL = 3

#: Report columns.  A row passes when ``computed`` lies within ``tolerance`` of
#: ``reference``, relatively ("rel") or absolutely ("abs"), or, by ``kind``,
#: strictly above ("bound") or below ("upper") it.
REPORT_COLUMNS = ("quantity", "computed", "reference", "tolerance", "kind", "passed", "source")

#: Transmission sweep across one cavity line: points over +-3 linewidths and
#: the additive RMS noise on each point.
SWEEP_POINTS = 400
SWEEP_HALF_SPAN_LINEWIDTHS = 3.0
SWEEP_NOISE_RMS = 0.02


def _strict(obj):
    """``obj`` with numpy values as Python ones and non-finite floats as None."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinity is written as null."""
    payload = _strict({"schema_version": SCHEMA_VERSION, **payload})
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _write_table(path: Path, header, rows, fmt: str) -> None:
    """Tabular artifact in the requested format, fixed basename per command."""
    if fmt == "json":
        _write_json(path.with_suffix(".json"), {"columns": header, "rows": list(rows)})
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _resolve_seed(args, cfg: ExperimentConfig):
    if args.seed is not None:
        return args.seed, "cli"
    if cfg.seed is not None:
        return cfg.seed, "config"
    return secrets.randbits(32), "generated"


def _state_from_config(cfg: ExperimentConfig) -> polarization.TwoPhotonState:
    return polarization.degraded_state(cfg.pump_phase_rad, cfg.coherence)


def _biphoton_params(cfg: ExperimentConfig):
    return (
        biphoton.BiphotonParams.from_cavity(cfg.ppktp0),
        biphoton.BiphotonParams.from_cavity(cfg.ppktp1),
    )


# ---------------------------------------------------------------------------
# Subcommands


def _sweep_fit(spec, pol, rng):
    """Noisy Airy sweep across one line of ``pol`` and its Lorentzian fit's summary."""
    fwhm = spec.fwhm_mhz(pol)
    half_span = SWEEP_HALF_SPAN_LINEWIDTHS * fwhm
    detuning_mhz = np.linspace(-half_span, half_span, SWEEP_POINTS)
    trans = cavity.airy_transmission(detuning_mhz * 1e-3, spec.fsr_ghz(pol), fwhm)
    noisy = trans + rng.normal(0.0, SWEEP_NOISE_RMS, trans.size)
    fit = fitting.fit_lorentzian(detuning_mhz, noisy)
    model = fitting.lorentzian(detuning_mhz, *fit.parameters.values())
    table = (("detuning_mhz", "transmission", "fit"), zip(detuning_mhz, noisy, model))
    if not fit.converged:
        return table, {"fit_error": fit.message}
    return table, {"fwhm_mhz": fit.parameters["fwhm"], "fwhm_err_mhz": fit.errors["fwhm"]}


def _cmd_cavity(cfg, args, seed, seed_source):
    span = args.span_ghz
    rng = np.random.default_rng(seed)
    header = cavity.MODE_COMB_CSV_HEADER
    artifacts, summary_specs = {}, []
    for spec in (cfg.ppktp0, cfg.ppktp1):
        sweep_fits = {}
        for pol in ("H", "V"):
            comb = cavity.build_mode_comb(spec, pol, span)
            artifacts[f"modes_{spec.name}_{pol}.csv"] = (header, comb.csv_rows())
            artifacts[f"sweep_{spec.name}_{pol}.csv"], sweep_fits[pol] = _sweep_fit(spec, pol, rng)
        clusters = cavity.cluster_comb(spec, span)
        selected = cavity.dwdm_select(
            clusters, cfg.dwdm.center_offset_ghz, cfg.dwdm.width_ghz
        )
        artifacts[f"clusters_{spec.name}.csv"] = (header, clusters.csv_rows())
        spacing = cavity.cluster_spacing(spec.fsr_h_ghz, spec.fsr_v_ghz)
        summary_specs.append(
            {
                "name": spec.name,
                "cluster_spacing_ghz": spacing,
                "single_mode_margin_ghz": cavity.single_mode_margin(spec),
                "effective_index_h": cavity.effective_index(
                    spec.length_mm, spec.fsr_h_ghz
                ),
                "effective_index_v": cavity.effective_index(
                    spec.length_mm, spec.fsr_v_ghz
                ),
                # the neighbouring cluster's emission is not negligible, so the
                # DWDM passband, not the envelope, selects a single cluster
                "pm_weight_adjacent_cluster": cavity.phase_matching_envelope(spacing, spec),
                "dwdm_selected_clusters": len(selected),
                "sweep_fit": sweep_fits,
            }
        )
    artifacts["cavity_summary.json"] = {"crystals": summary_specs}
    return EXIT_OK, artifacts


def _cmd_biphoton(cfg, args, seed, seed_source):
    bp0, bp1 = _biphoton_params(cfg)
    payload = {
        "crystals": [
            {
                "name": spec.name,
                "gamma_prime_mhz": biphoton.gamma_prime_mhz(bp),
                "t_fwhm_ns": biphoton.t_fwhm_ns(bp),
            }
            for spec, bp in ((cfg.ppktp0, bp0), (cfg.ppktp1, bp1))
        ],
        "spectral_overlap": biphoton.spectral_overlap(bp0, bp1),
    }
    return EXIT_OK, {"biphoton.json": payload}


def _cmd_car(cfg, args, seed, seed_source):
    chain = cfg.chain
    powers = np.logspace(math.log10(0.5), math.log10(250.0), args.points)
    k = cfg.source.brightness_per_s_mw_mhz * cfg.source.bandwidth_mhz
    cars = [photostats.car_model(k * p, chain) for p in powers]
    # CAR has an interior maximum only with dark counts and a nonzero
    # efficiency in both arms; the optimum's power and the reduced curve's
    # knees also divide by the pairs per second per mW, k
    efficient = chain.eta_s > 0.0 and chain.eta_i > 0.0
    summary = {
        "car_at_config_power": photostats.car_model(photostats.pair_rate(cfg.source), chain),
        "optimal_rate_pairs_per_s": None,
        "optimal_power_mw": None,
        "peak_car": None,
        "reference_curve": None,
    }
    artifacts = {"car_curve.csv": (("power_mw", "car"), zip(powers, cars))}
    if efficient and chain.dark_s_per_s > 0.0 and chain.dark_i_per_s > 0.0:
        optimum = photostats.car_optimal_rate(chain)
        summary["optimal_rate_pairs_per_s"] = optimum
        summary["optimal_power_mw"] = optimum / k if k > 0.0 else None
        summary["peak_car"] = photostats.car_model(optimum, chain)
    if efficient and k > 0.0:
        # the parameters that a --fit-csv fit of this curve estimates
        summary["reference_curve"] = dict(zip(
            ("norm_per_mw", "knee_s_mw", "knee_i_mw"),
            fitting.car_curve_reference(cfg.source, chain),
        ))
    if args.fit_csv is not None:
        with warnings.catch_warnings():
            # a header-only file is reported below, not by numpy's warning
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(args.fit_csv, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] == 0:
            raise ValueError(f"{args.fit_csv}: no data rows")
        if data.shape[1] < 2:
            raise ValueError(f"{args.fit_csv}: need two columns, power_mw and car")
        fit = fitting.fit_car_curve(data[:, 0], data[:, 1])
        artifacts["car_fit.json"] = summary["fit"] = fit.to_json_payload()
    artifacts["car_summary.json"] = summary
    return EXIT_OK, artifacts


def _cmd_simulate(cfg, args, seed, seed_source):
    bp0, _ = _biphoton_params(cfg)
    stream = photostats.simulate_timetags(
        cfg.source, bp0, cfg.chain, args.duration, seed
    )
    hist = photostats.coincidence_histogram(
        stream, cfg.histogram_range_ns, cfg.chain.bin_ps
    )

    rate = photostats.pair_rate(cfg.source)
    peak, accidental = photostats._car_counts(stream, cfg.chain, cfg.accidental_offset_ns)
    summary = {
        "duration_s": args.duration,
        "seed": seed,
        "seed_source": seed_source,
        "events": len(stream),
        "singles_ch0": int((stream.channel == 0).sum()),
        "singles_ch1": int((stream.channel == 1).sum()),
        "coincidences_window": peak,
        "accidentals_window": accidental,
        "car_monte_carlo": peak / accidental if accidental else "inf",
        "car_model": photostats.car_model(rate, cfg.chain),
    }
    fit = fitting.fit_exp_g2(hist)
    if fit.converged:
        summary["g2_fit"] = {
            "gamma_ghz": fit.parameters["gamma_ghz"],
            "t_fwhm_ns": fit.derived.get("t_fwhm_ns"),
            "t_fwhm_err_ns": fit.derived.get("t_fwhm_err_ns"),
            "iterations": fit.iterations,
            "residual_norm": fit.residual_norm,
        }
    else:
        summary["g2_fit_error"] = fit.message
        summary["g2_fit_iterations"] = fit.iterations
    return EXIT_OK, {
        "timetags.ttag": stream,
        "histogram.csv": (photostats.HISTOGRAM_CSV_HEADER, hist.csv_rows()),
        "simulate_summary.json": summary,
    }


def _cmd_interference(cfg, args, seed, seed_source):
    state = _state_from_config(cfg)
    beta = np.arange(0.0, 361.0, 7.5)
    rows = []
    visibilities = {}
    for alpha in (0.0, 45.0):
        curve = measurement.interference_curve(state, alpha, beta)
        rows.extend(
            (alpha, b, p) for b, p in zip(curve.beta_deg, curve.probs)
        )
        visibilities[f"visibility_{alpha:g}deg"] = curve.visibility
        visibilities[f"degenerate_{alpha:g}deg"] = curve.degenerate
    return EXIT_OK, {
        "interference.csv": (("alpha_deg", "beta_deg", "probability"), rows),
        "interference.json": visibilities,
    }


def _cmd_chsh(cfg, args, seed, seed_source):
    state = _state_from_config(cfg)
    result = measurement.chsh_max(state)
    s_canonical = measurement.chsh_S(state, measurement.PHI_SETTINGS)

    # Poisson bootstrap of S at the optimizer settings, from simulated counts
    settings = result.settings
    n = cfg.tomo_counts_per_setting
    projectors = measurement.bell_projector_settings(settings)
    record = measurement.tomo_simulate_counts(state, n, seed, settings=projectors)
    boot = measurement.bootstrap_errors(
        record, cfg.bootstrap_resamples, lambda r: measurement.chsh_from_counts(r.counts()), seed
    )
    payload = {
        "seed": seed,
        "seed_source": seed_source,
        "s_max": result.s_value,
        "settings_deg": {
            "a": settings.a_deg,
            "a_prime": settings.a_prime_deg,
            "b": settings.b_deg,
            "b_prime": settings.b_prime_deg,
        },
        "s_at_phi_settings": s_canonical,
        "bootstrap": {
            "counts_per_setting": n,
            "resamples": cfg.bootstrap_resamples,
            "s_mean": boot.mean,
            "s_std": boot.std,
        },
    }
    return EXIT_OK, {"chsh.json": payload}


def _cmd_tomo(cfg, args, seed, seed_source):
    state = _state_from_config(cfg)
    record = measurement.tomo_simulate_counts(
        state, cfg.tomo_counts_per_setting, seed
    )
    fit = measurement.tomo_mle_fit(record)
    rho_hat = fit.state

    target = polarization.entangled_ket(cfg.pump_phase_rad)
    boot = measurement.bootstrap_errors(
        record,
        cfg.bootstrap_resamples,
        lambda rec: measurement.fidelity(measurement.tomo_mle(rec), target),
        seed=seed,
    )
    return EXIT_OK, {
        "counts.csv": (measurement.TOMO_CSV_HEADER, record.csv_rows()),
        "rho.json": measurement.rho_to_json_payload(rho_hat),
        "tomo_summary.json": {
            "seed": seed,
            "seed_source": seed_source,
            "counts_per_setting": cfg.tomo_counts_per_setting,
            "fidelity_to_target": measurement.fidelity(rho_hat, target),
            "fidelity_bootstrap_mean": boot.mean,
            "fidelity_bootstrap_std": boot.std,
            "state_fidelity_to_model": measurement.state_fidelity(rho_hat, state),
            # below 0 when the unconstrained inversion is unphysical, which is
            # why the state is reconstructed by constrained MLE
            "linear_inversion_min_eigenvalue": float(
                np.linalg.eigvalsh(measurement.tomo_linear(record))[0]
            ),
            "concurrence": polarization.concurrence(rho_hat),
            "mle_newton_steps": fit.steps,
            "mle_certificate_gap": fit.gap,
        },
    }


def _passes(computed, reference, tolerance, kind) -> bool:
    deviation = abs(computed - reference)
    rules = {"rel": deviation <= tolerance * abs(reference), "abs": deviation <= tolerance,
             "bound": computed > reference, "upper": computed < reference}
    return bool(rules[kind])


def _report_rows(cfg: ExperimentConfig):
    """``(quantity, computed, reference, tolerance, kind, source)`` per row; ``source``
    is "paper" for a published figure and "model" for a closed form of the same
    config, which checks only self-consistency."""
    tol = cfg.tolerances
    bp0, bp1 = _biphoton_params(cfg)
    state = _state_from_config(cfg)
    c = cfg.coherence
    target = polarization.entangled_ket(cfg.pump_phase_rad)
    beta = np.arange(0.0, 361.0, 15.0)
    net = cfg.network if cfg.network is not None else polarization.displacer_network()
    ideal = polarization.propagate_network(net, cfg.pump_phase_rad).rho
    pure = polarization.degraded_state(cfg.pump_phase_rad, 1.0).rho
    return (
        ("cluster_spacing_ppktp0_ghz",
         cavity.cluster_spacing(cfg.ppktp0.fsr_h_ghz, cfg.ppktp0.fsr_v_ghz),
         1060.0, tol["cluster_spacing_rel"], "rel", "paper"),
        ("cluster_spacing_ppktp1_ghz",
         cavity.cluster_spacing(cfg.ppktp1.fsr_h_ghz, cfg.ppktp1.fsr_v_ghz),
         1260.0, tol["cluster_spacing_rel"], "rel", "paper"),
        ("t_fwhm_ppktp0_ns", biphoton.t_fwhm_ns(bp0), 0.483, tol["t_fwhm_rel"], "rel", "paper"),
        ("t_fwhm_ppktp1_ns", biphoton.t_fwhm_ns(bp1), 0.550, tol["t_fwhm_rel"], "rel", "paper"),
        ("spectral_overlap", biphoton.spectral_overlap(bp0, bp1), 0.879,
         tol["overlap_abs"], "abs", "paper"),
        ("single_mode_margin_ppktp0_ghz", cavity.single_mode_margin(cfg.ppktp0),
         0.0, 0.0, "bound", "paper"),
        ("single_mode_margin_ppktp1_ghz", cavity.single_mode_margin(cfg.ppktp1),
         0.0, 0.0, "bound", "paper"),
        ("visibility_0deg", measurement.interference_curve(state, 0.0, beta).visibility,
         1.0, tol["visibility_abs"], "abs", "model"),
        ("visibility_45deg", measurement.interference_curve(state, 45.0, beta).visibility,
         c, tol["visibility_abs"], "abs", "model"),
        ("chsh_s_at_phi_settings", measurement.chsh_S(state, measurement.PHI_SETTINGS),
         math.sqrt(2.0) * (1.0 + c), tol["chsh_abs"], "abs", "model"),
        ("chsh_s_max", measurement.chsh_max(state).s_value,
         2.0 * math.sqrt(1.0 + c * c), tol["chsh_abs"], "abs", "model"),
        ("fidelity_to_target", measurement.fidelity(state, target),
         (1.0 + c) / 2.0, tol["fidelity_abs"], "abs", "model"),
        ("car_model_at_config_power",
         photostats.car_model(photostats.pair_rate(cfg.source), cfg.chain),
         6000.0, 0.0, "bound", "paper"),
        ("network_vs_ideal_frobenius", float(np.linalg.norm(ideal - pure)),
         1e-10, 0.0, "upper", "model"),
    )


def _cmd_report(cfg, args, seed, seed_source):
    table = [
        (name, computed, ref, tol, kind, _passes(computed, ref, tol, kind), source)
        for name, computed, ref, tol, kind, source in _report_rows(cfg)
    ]
    rows = [dict(zip(REPORT_COLUMNS, row)) for row in table]
    passed = all(r["passed"] for r in rows)
    # report.json carries every row, so no table stands in for it under --format json
    artifacts = {"report.csv": (REPORT_COLUMNS, table)} if args.format == "csv" else {}
    artifacts["report.json"] = {"rows": rows, "all_passed": passed}
    width = max(len(r["quantity"]) for r in rows)
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        print(
            f"{r['quantity']:<{width}}  {r['computed']:>14.6g}  "
            f"ref {r['reference']:>10.6g}  [{status}]"
        )
    print("overall:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_REPORT_FAIL, artifacts


_COMMANDS = {
    "cavity": _cmd_cavity,
    "biphoton": _cmd_biphoton,
    "car": _cmd_car,
    "simulate": _cmd_simulate,
    "interference": _cmd_interference,
    "chsh": _cmd_chsh,
    "tomo": _cmd_tomo,
    "report": _cmd_report,
}


#: Options checked before any work: option -> (rule, holds).
_OPTION_RULES = {
    "duration": ("finite and > 0", lambda v: math.isfinite(v) and v > 0.0),
    "points": (">= 2", lambda v: v >= 2),
    "seed": (">= 0", lambda v: v >= 0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityspdc",
        description="Monolithic-cavity photon-pair source simulation toolkit",
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "--out", type=Path, default=Path("out"), help="output directory"
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="preferred tabular format (JSON summaries are always written)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cavity", help="mode combs, margins, cluster spacings")
    p.add_argument("--span-ghz", type=float, default=240.0)
    sub.add_parser("biphoton", help="bandwidths, correlation widths, overlap")
    p = sub.add_parser("car", help="CAR model curve and optional fit")
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--fit-csv", type=Path, default=None,
                   help="CSV of (power_mw, car) samples to fit")
    p = sub.add_parser("simulate", help="time-tag Monte Carlo plus histogram")
    p.add_argument("--duration", type=float, default=1.0, help="seconds")
    sub.add_parser("interference", help="polarization interference curves")
    sub.add_parser("chsh", help="CHSH S, optimal settings, bootstrap error")
    sub.add_parser("tomo", help="simulate counts, reconstruct, fidelity")
    sub.add_parser("report", help="reference comparison table")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; return its exit status.

    The subcommand returns its artifacts and they are written here, so an
    error that stops it writes none.  Once the output directory exists,
    metadata.json is written there whether the command succeeds or fails:
    its ``status`` is "ok" exactly when the exit status is 0, and ``error``
    holds the message of an error that stopped the command (null otherwise).
    """
    start = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = default_config() if args.config is None else load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for option, (rule, holds) in _OPTION_RULES.items():
        value = getattr(args, option, None)
        if value is not None and not holds(value):
            print(f"error: --{option} must be {rule}, got {value!r}", file=sys.stderr)
            return EXIT_CONFIG

    out = args.out
    seed, seed_source = _resolve_seed(args, cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    error = None
    try:
        code, artifacts = _COMMANDS[args.command](cfg, args, seed, seed_source)
        for name, artifact in artifacts.items():
            if isinstance(artifact, dict):
                _write_json(out / name, artifact)
            elif isinstance(artifact, photostats.TimeTagStream):
                photostats.write_ttag(artifact, out / name)
            else:
                _write_table(out / name, *artifact, args.format)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, error = EXIT_RUNTIME, str(exc)
    _write_json(
        out / "metadata.json",
        {
            "command": args.command,
            "status": "ok" if code == EXIT_OK else "failed",
            "exit_status": code,
            "error": error,
            "seed": seed,
            "seed_source": seed_source,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "package": __version__,
            "wall_s": time.perf_counter() - start,
            "config": config_to_dict(cfg),
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
