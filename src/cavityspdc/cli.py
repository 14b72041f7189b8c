"""Command-line front end: per-stage outputs plus a reference-comparison
report, all driven by one JSON config."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

# metadata.json records numpy's version; each subcommand imports the
# package modules it computes with, so a call loads only those
import numpy as np

from . import __version__
from .config import (CAR_CURVE_POWER_MW, MAX_DURATION_S, MAX_EVENTS, ConfigError, ExperimentConfig,
                     config_to_dict, default_config, effective_index, load_config)

SCHEMA_VERSION = 4

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_REPORT_FAIL = 3

#: Report columns.  A row passes when ``computed`` lies within ``tolerance`` of
#: ``reference``, relatively ("rel") or absolutely ("abs"), or, by ``kind``,
#: strictly above ("bound") or below ("upper") it.
REPORT_COLUMNS = ("quantity", "computed", "reference", "tolerance", "kind", "passed", "source",
                  "artifact", "field")

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


#: Tables whose CSV name with a .json suffix would name a summary of the same
#: run, and the file each is written to under --format json instead.
_JSON_TABLE_NAMES = {"interference.csv": "interference_curve.json"}


def _file_name(name: str, artifact, fmt: str) -> str:
    """The path, relative to --out, of the artifact named ``name``: a table's
    .json twin under --format json, otherwise ``name`` itself."""
    if fmt == "csv" or not isinstance(artifact, tuple):
        return name
    path = Path(name)
    return path.with_name(_JSON_TABLE_NAMES.get(path.name, f"{path.stem}.json")).as_posix()


def _write_table(path: Path, header, rows, fmt: str) -> None:
    """Tabular artifact in the requested format."""
    if fmt == "json":
        _write_json(path, {"columns": header, "rows": list(rows)})
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _error_line(exc: Exception) -> str:
    """``exc``'s message; a type that names no user error (a ZeroDivisionError,
    say) prefixes its name."""
    expected = isinstance(exc, (ValueError, RuntimeError, OSError))
    return str(exc) if expected else f"{type(exc).__name__}: {exc}"


def _resolve_seed(args, cfg: ExperimentConfig):
    if args.seed is not None:
        return args.seed, "cli"
    if cfg.seed is not None:
        return cfg.seed, "config"
    return int.from_bytes(os.urandom(4), "little"), "generated"


# ---------------------------------------------------------------------------
# Subcommands


def _sweep_fit(spec, pol, rng):
    """Noisy Airy sweep across one line of ``pol`` and its Lorentzian fit's summary."""
    from . import cavity, fitting

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
    from . import cavity

    span = args.span_ghz
    rng = np.random.default_rng(seed)
    header = cavity.MODE_COMB_CSV_HEADER
    artifacts, summary_specs = {}, []
    for name, spec in cfg.crystals():
        sweep_fits = {}
        for pol in ("H", "V"):
            comb = cavity.build_mode_comb(spec, pol, span)
            artifacts[f"modes_{name}_{pol}.csv"] = (header, comb.csv_rows())
            artifacts[f"sweep_{name}_{pol}.csv"], sweep_fits[pol] = _sweep_fit(spec, pol, rng)
        clusters = cavity.cluster_comb(spec, span)
        artifacts[f"clusters_{name}.csv"] = (header, clusters.csv_rows())
        spacing = cavity.cluster_spacing(spec.fsr_h_ghz, spec.fsr_v_ghz)
        summary_specs.append({
            "name": name,
            "cluster_spacing_ghz": spacing,
            "single_mode_margin_ghz": cavity.single_mode_margin(spec),
            "effective_index_h": effective_index(spec.length_mm, spec.fsr_h_ghz),
            "effective_index_v": effective_index(spec.length_mm, spec.fsr_v_ghz),
            # the neighbouring cluster's emission is not negligible, so the
            # DWDM passband, not the envelope, selects a single cluster
            "pm_weight_adjacent_cluster": cavity.phase_matching_envelope(spacing, spec),
            # clusters inside the passband, whatever --span-ghz is
            "dwdm_selected_clusters": cavity.dwdm_cluster_count(
                spec, cfg.dwdm.center_offset_ghz, cfg.dwdm.width_ghz),
            "sweep_fit": sweep_fits,
        })
    artifacts["cavity_summary.json"] = {"crystals": summary_specs}
    return EXIT_OK, artifacts


def _cmd_biphoton(cfg, args, seed, seed_source):
    from . import biphoton

    bp0, bp1 = (biphoton.BiphotonParams.from_cavity(spec) for _, spec in cfg.crystals())
    crystals = [{"name": name, "gamma_prime_mhz": biphoton.gamma_prime_mhz(bp),
                 "t_fwhm_ns": biphoton.t_fwhm_ns(bp)}
                for (name, _), bp in zip(cfg.crystals(), (bp0, bp1))]
    return EXIT_OK, {"biphoton.json": {"crystals": crystals,
                                       "spectral_overlap": biphoton.spectral_overlap(bp0, bp1)}}


def _cmd_car(cfg, args, seed, seed_source):
    powers = np.logspace(*map(math.log10, CAR_CURVE_POWER_MW), args.points)
    links = dataclasses.asdict(cfg.links)
    # reference_curve holds the parameters that a --fit-csv fit of the curve estimates
    summary = {name: links[name] for name in ("car_at_config_power", "optimal_rate_pairs_per_s",
                                              "optimal_power_mw", "peak_car", "reference_curve")}
    artifacts = {"car_curve.csv": (("power_mw", "car"),
                                   ((p, cfg.car_at_power(p)) for p in powers))}
    if args.fit_csv is not None:
        from . import fitting

        with warnings.catch_warnings():
            # a header-only file is reported below, not by numpy's warning
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(args.fit_csv, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] == 0:
            raise ValueError(f"{args.fit_csv}: no data rows")
        if data.shape[1] < 2:
            raise ValueError(f"{args.fit_csv}: need two columns, power_mw and car")
        fit = fitting.fit_car_curve(data[:, 0], data[:, 1])
        artifacts["car_fit.json"] = summary["fit"] = dataclasses.asdict(fit)
    artifacts["car_summary.json"] = summary
    return EXIT_OK, artifacts


def _cmd_simulate(cfg, args, seed, seed_source):
    from . import biphoton, fitting, photostats

    bp = biphoton.BiphotonParams.from_cavity(cfg.pair_crystal)
    stream = photostats.simulate_timetags(
        cfg.source, bp, cfg.chain, args.duration, seed
    )
    hist, peak, accidental = photostats.analyze_record(
        stream, cfg.chain, cfg.histogram_range_ns, cfg.accidental_offset_ns
    )
    singles_ch1 = int(np.count_nonzero(stream.channel))
    summary = {
        "duration_s": args.duration,
        "seed": seed,
        "seed_source": seed_source,
        "events": len(stream),
        "singles_ch0": len(stream) - singles_ch1,
        "singles_ch1": singles_ch1,
        "coincidences_window": peak,
        "accidentals_window": accidental,
        "car_monte_carlo": peak / accidental if accidental else "inf",
        "car_model": cfg.links.car_at_config_power,
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
    from . import measurement, polarization

    state = polarization.TwoPhotonState(cfg.rho)
    beta = np.arange(0.0, 361.0, 7.5)
    rows = []
    summary = {}
    for alpha in (0.0, 45.0):
        curve = measurement.interference_curve(state, alpha, beta)
        rows.extend((alpha, b, p) for b, p in zip(curve.beta_deg, curve.probs))
        summary[f"visibility_{alpha:g}deg"] = curve.visibility
        summary[f"degenerate_{alpha:g}deg"] = curve.degenerate
    # the network's state against the target, and against the closed form
    # that the report's model rows assume
    summary["fidelity_to_target"] = measurement.fidelity(
        state, polarization.entangled_ket(cfg.pump_phase_rad))
    closed = polarization.degraded_state(cfg.pump_phase_rad, cfg.coherence).rho
    summary["network_vs_ideal_frobenius"] = float(np.linalg.norm(state.rho - closed))
    return EXIT_OK, {
        "interference.csv": (("alpha_deg", "beta_deg", "probability"), rows),
        "interference.json": summary,
    }


def _cmd_chsh(cfg, args, seed, seed_source):
    from . import measurement, polarization

    state = polarization.TwoPhotonState(cfg.rho)
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
    from . import measurement, polarization

    state = polarization.TwoPhotonState(cfg.rho)
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
    if computed is None:  # an undefined value, such as a CAR without accidentals
        return False
    deviation = abs(computed - reference)
    rules = {"rel": deviation <= tolerance * abs(reference), "abs": deviation <= tolerance,
             "bound": computed > reference, "upper": computed < reference}
    return bool(rules[kind])


#: The stages whose payloads the report's rows are read from, each run as a
#: bare ``<stage>`` call parses.
REPORT_STAGES = ("cavity", "biphoton", "car", "interference", "chsh")


def _report_table(c: float):
    """``(quantity, artifact, field, reference, tolerance, kind, source)`` per row.

    ``field`` is the dotted path of the value in the stage artifact, a list
    index where the payload holds a list.  ``source`` is "paper" for a
    published figure and "model" for a closed form in the coherence ``c``,
    which checks only self-consistency.  The tolerances are fixed here, so
    that no config can loosen a pass rule.
    """
    cavity, biphoton = "cavity/cavity_summary.json", "biphoton/biphoton.json"
    interference, chsh = "interference/interference.json", "chsh/chsh.json"
    return (
        ("cluster_spacing_ppktp0_ghz", cavity, "crystals.0.cluster_spacing_ghz",
         1060.0, 0.01, "rel", "paper"),
        ("cluster_spacing_ppktp1_ghz", cavity, "crystals.1.cluster_spacing_ghz",
         1260.0, 0.01, "rel", "paper"),
        ("t_fwhm_ppktp0_ns", biphoton, "crystals.0.t_fwhm_ns", 0.483, 0.005, "rel", "paper"),
        ("t_fwhm_ppktp1_ns", biphoton, "crystals.1.t_fwhm_ns", 0.550, 0.005, "rel", "paper"),
        ("spectral_overlap", biphoton, "spectral_overlap", 0.879, 0.005, "abs", "paper"),
        ("single_mode_margin_ppktp0_ghz", cavity, "crystals.0.single_mode_margin_ghz",
         0.0, 0.0, "bound", "paper"),
        ("single_mode_margin_ppktp1_ghz", cavity, "crystals.1.single_mode_margin_ghz",
         0.0, 0.0, "bound", "paper"),
        ("visibility_0deg", interference, "visibility_0deg", 1.0, 1e-6, "abs", "model"),
        ("visibility_45deg", interference, "visibility_45deg", c, 1e-6, "abs", "model"),
        ("chsh_s_at_phi_settings", chsh, "s_at_phi_settings",
         math.sqrt(2.0) * (1.0 + c), 1e-3, "abs", "model"),
        ("chsh_s_max", chsh, "s_max", 2.0 * math.sqrt(1.0 + c * c), 1e-3, "abs", "model"),
        ("fidelity_to_target", interference, "fidelity_to_target",
         (1.0 + c) / 2.0, 1e-6, "abs", "model"),
        ("car_model_at_config_power", "car/car_summary.json", "car_at_config_power",
         6000.0, 0.0, "bound", "paper"),
        ("network_vs_ideal_frobenius", interference, "network_vs_ideal_frobenius",
         1e-10, 0.0, "upper", "model"),
    )


def _field(payload, path: str):
    for key in path.split("."):
        payload = payload[int(key) if isinstance(payload, list) else key]
    return payload


def _cmd_report(cfg, args, seed, seed_source):
    artifacts = {}
    for stage in REPORT_STAGES:
        try:
            _, produced = _COMMANDS[stage](cfg, build_parser().parse_args([stage]), seed,
                                           seed_source)
        except Exception as exc:
            raise RuntimeError(f"{stage}: {_error_line(exc)}") from exc
        artifacts.update((f"{stage}/{name}", artifact) for name, artifact in produced.items())
    table = []
    for name, artifact, field, ref, tol, kind, source in _report_table(cfg.coherence):
        computed = _field(artifacts[artifact], field)
        table.append((name, computed, ref, tol, kind, _passes(computed, ref, tol, kind), source,
                      artifact, field))
    rows = [dict(zip(REPORT_COLUMNS, row)) for row in table]
    passed = all(r["passed"] for r in rows)
    # report.json carries every row, so no table stands in for it under --format json
    if args.format == "csv":
        artifacts["report.csv"] = (REPORT_COLUMNS, table)
    artifacts["report.json"] = {"rows": rows, "all_passed": passed}
    width = max(len(r["quantity"]) for r in rows)
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        computed = "undefined" if r["computed"] is None else f"{r['computed']:.6g}"
        print(f"{r['quantity']:<{width}}  {computed:>14}  "
              f"ref {r['reference']:>10.6g}  [{status}]")
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


#: Options checked before any work: flag -> (rule, holds).  A span's or a
#: point count's tables grow linearly; 1e5 GHz is +-50 THz.
_OPTION_RULES = {
    "--duration": (f"finite, > 0 and <= {MAX_DURATION_S:g}",
                   lambda v: math.isfinite(v) and 0.0 < v <= MAX_DURATION_S),
    "--span-ghz": ("finite, > 0 and <= 1e5", lambda v: math.isfinite(v) and 0.0 < v <= 1e5),
    "--points": (">= 2 and <= 1e5", lambda v: 2 <= v <= 100_000),
    "--seed": (">= 0", lambda v: v >= 0),
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
    error that stops it writes none, nor do two artifacts that would share
    a file.  Once the output directory exists,
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
        value = getattr(args, option[2:].replace("-", "_"), None)
        if value is not None and not holds(value):
            print(f"error: {option} must be {rule}, got {value!r}", file=sys.stderr)
            return EXIT_CONFIG
    if args.command == "simulate":
        events = (cfg.links.singles_s_per_s + cfg.links.singles_i_per_s) * args.duration
        if events > MAX_EVENTS:
            print(f"error: --duration {args.duration:g} s expects {events:.3g} events, "
                  f"more than the {MAX_EVENTS} a record may hold", file=sys.stderr)
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
        files = {}
        for name, artifact in artifacts.items():
            file = _file_name(name, artifact, args.format)
            if file in files or file == "metadata.json":
                raise RuntimeError(f"two artifacts of one run would be written to {file}")
            files[file] = artifact
        for file, artifact in files.items():
            path = out / file
            path.parent.mkdir(exist_ok=True)  # a report stage's subdirectory
            if isinstance(artifact, dict):
                _write_json(path, artifact)
            elif isinstance(artifact, tuple):
                _write_table(path, *artifact, args.format)
            else:  # a time-tag stream, so photostats is loaded already
                from .photostats import write_ttag

                write_ttag(artifact, path)
    except Exception as exc:
        error = _error_line(exc)
        print(f"error: {error}", file=sys.stderr)
        code = EXIT_RUNTIME
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
            "links": dataclasses.asdict(cfg.links),
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
