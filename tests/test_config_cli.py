import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityspdc
from cavityspdc import default_config, load_config, measurement, save_config
from cavityspdc.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REPORT_FAIL,
    EXIT_RUNTIME,
    REPORT_COLUMNS,
    SWEEP_POINTS,
    _passes,
    _report_rows,
    main,
)
from cavityspdc.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
)
from cavityspdc.polarization import BD, HWP, CrystalSource, displacer_network

DEFAULT = default_config()
SECTION_FIELDS = [
    (section.name, field.name)
    for section in dataclasses.fields(ExperimentConfig)
    if dataclasses.is_dataclass(getattr(DEFAULT, section.name))
    for field in dataclasses.fields(getattr(DEFAULT, section.name))
]


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg

    def test_defaults_carry_source_parameters(self, cfg):
        assert cfg.chain.window_ns == 3.2
        assert cfg.chain.jitter_sigma_ps == 60.0
        assert cfg.chain.bin_ps == 25.0
        assert cfg.source.brightness_per_s_mw_mhz == 0.7
        assert cfg.chain.eta_s == 0.125
        assert cfg.dwdm.width_ghz == 200.0
        assert cfg.pump_phase_rad == math.pi

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"nonsense": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="chain"):
            config_from_dict({"chain": {"eta_s": 0.1, "bogus": 2}})

    def test_invalid_field_value_points_at_field(self):
        with pytest.raises(ConfigError, match="config.source"):
            config_from_dict({"source": {"brightness_per_s_mw_mhz": -1.0,
                                         "power_mw": 1.0, "bandwidth_mhz": 1.0}})

    def test_partial_override_keeps_defaults(self):
        cfg = config_from_dict({"coherence": 0.5})
        assert cfg.coherence == 0.5
        assert cfg.chain.window_ns == 3.2

    def test_network_round_trip(self, tmp_path):
        base = config_to_dict(default_config())
        base["network"] = [
            {"type": "bd", "axis": "x", "moves": "V", "displacement_mm": 4.0},
            {"type": "hwp", "angle_deg": 45.0, "rail": [1, 0]},
            {"type": "crystal", "label": "c0", "rail": [0, 0]},
            {"type": "crystal", "label": "c1", "rail": [1, 0]},
            {"type": "bd", "axis": "y", "moves": "V", "displacement_mm": 4.0},
            {"type": "hwp", "angle_deg": 45.0, "rail": [0, 1]},
            {"type": "hwp", "angle_deg": 45.0, "rail": [1, 0]},
            {"type": "bd", "axis": "x", "moves": "H", "displacement_mm": 4.0},
        ]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(base))
        cfg = load_config(path)
        elements = cfg.network.elements
        assert isinstance(elements[0], BD)
        assert isinstance(elements[1], HWP) and elements[1].rail == (1, 0)
        assert isinstance(elements[2], CrystalSource)

        from cavityspdc import degraded_state, propagate_network

        state = propagate_network(cfg.network, math.pi)
        expected = degraded_state(math.pi, 1.0)
        assert np.linalg.norm(state.rho - expected.rho) < 1e-12

    def test_sections_are_walked(self):
        assert {section for section, _ in SECTION_FIELDS} == {
            "ppktp0", "ppktp1", "source", "chain", "dwdm"
        }

    @pytest.mark.parametrize("section,name", SECTION_FIELDS)
    def test_single_field_overlays_defaults(self, section, name):
        value = getattr(getattr(DEFAULT, section), name)
        assert config_from_dict({section: {name: value}}) == DEFAULT
        if isinstance(value, str):
            changed = value + "_b"
        else:
            changed = 0.8 * value if value else 1.0
        cfg = config_from_dict({section: {name: changed}})
        assert getattr(getattr(cfg, section), name) == changed
        restored = dataclasses.replace(getattr(cfg, section), **{name: value})
        assert dataclasses.replace(cfg, **{section: restored}) == DEFAULT

    def test_round_trip_with_network_and_tolerances(self):
        cfg = dataclasses.replace(
            DEFAULT,
            network=displacer_network(),
            tolerances={**DEFAULT.tolerances, "chsh_abs": 2e-3},
        )
        payload = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(payload) == cfg

    def test_bad_network_element_rejected(self):
        with pytest.raises(ConfigError, match="network"):
            config_from_dict({"network": [{"type": "prism"}]})

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  oops\n}")
        with pytest.raises(ConfigError, match=":2"):
            load_config(path)


@pytest.fixture(scope="module")
def tomo_seed5(tmp_path_factory):
    """Output directory of one `--seed 5 tomo` run."""
    out = tmp_path_factory.mktemp("tomo")
    assert main(["--seed", "5", "--out", str(out), "tomo"]) == EXIT_OK
    return out


class TestCli:
    def test_report_exits_clean(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "report"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["all_passed"] is True
        names = {row["quantity"] for row in payload["rows"]}
        assert {"cluster_spacing_ppktp0_ghz", "t_fwhm_ppktp0_ns",
                "spectral_overlap", "chsh_s_at_phi_settings",
                "fidelity_to_target"} <= names

    def test_report_reference_values(self, tmp_path):
        main(["--out", str(tmp_path), "report"])
        rows = {
            r["quantity"]: r
            for r in json.loads((tmp_path / "report.json").read_text())["rows"]
        }
        assert rows["cluster_spacing_ppktp0_ghz"]["computed"] == pytest.approx(
            1060.0, rel=0.01
        )
        assert rows["cluster_spacing_ppktp1_ghz"]["computed"] == pytest.approx(
            1260.0, rel=0.01
        )
        assert rows["t_fwhm_ppktp0_ns"]["computed"] == pytest.approx(0.483, rel=5e-3)
        assert rows["t_fwhm_ppktp1_ns"]["computed"] == pytest.approx(0.550, rel=5e-3)
        assert rows["spectral_overlap"]["computed"] == pytest.approx(0.879, abs=5e-3)
        assert rows["chsh_s_at_phi_settings"]["computed"] == pytest.approx(
            2.646, abs=1e-3
        )
        assert rows["fidelity_to_target"]["computed"] == pytest.approx(
            0.9355, abs=1e-4
        )

    def test_cavity_outputs(self, tmp_path):
        assert main(["--out", str(tmp_path), "cavity"]) == 0
        header = (tmp_path / "modes_ppktp0_H.csv").read_text().splitlines()[0]
        assert header == "index,offset_GHz,linewidth_MHz,pol"
        summary = json.loads((tmp_path / "cavity_summary.json").read_text())
        assert summary["crystals"][0]["dwdm_selected_clusters"] == 1

    def test_cavity_records_adjacent_cluster_weight(self, tmp_path):
        assert main(["--out", str(tmp_path), "cavity"]) == 0
        crystals = json.loads((tmp_path / "cavity_summary.json").read_text())["crystals"]
        for spec, entry in zip((DEFAULT.ppktp0, DEFAULT.ppktp1), crystals):
            ratio = entry["cluster_spacing_ghz"] / (spec.pm_fwhm_thz * 1e3)
            expected = math.exp(-4.0 * math.log(2.0) * ratio**2)
            assert entry["pm_weight_adjacent_cluster"] == pytest.approx(expected, abs=1e-12)

    def test_cavity_sweeps_recover_linewidths(self, tmp_path):
        assert main(["--seed", "0", "--out", str(tmp_path), "cavity"]) == 0
        summary = json.loads((tmp_path / "cavity_summary.json").read_text())
        for spec, entry in zip((DEFAULT.ppktp0, DEFAULT.ppktp1), summary["crystals"]):
            for pol in ("H", "V"):
                lines = (tmp_path / f"sweep_{spec.name}_{pol}.csv").read_text().splitlines()
                assert lines[0] == "detuning_mhz,transmission,fit"
                assert len(lines) == 1 + SWEEP_POINTS
                fit = entry["sweep_fit"][pol]
                # the fitted FWHM scatters by 3.4 MHz over seeds
                assert abs(fit["fwhm_mhz"] - spec.fwhm_mhz(pol)) <= 6 * 3.4
                assert 0.0 < fit["fwhm_err_mhz"] < 10.0

    def test_cavity_sweeps_are_seeded(self, tmp_path):
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["--seed", "3", "--out", str(out), "cavity"]) == 0
        names = [f"sweep_{c}_{p}.csv" for c in ("ppktp0", "ppktp1") for p in "HV"]
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        out = tmp_path / "json"
        assert main(["--seed", "3", "--format", "json", "--out", str(out), "cavity"]) == 0
        for name in names:
            payload = json.loads((out / name).with_suffix(".json").read_text())
            assert payload["columns"] == ["detuning_mhz", "transmission", "fit"]
            with open(runs[0] / name, newline="") as fh:
                rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
            assert payload["rows"] == rows

    def test_cavity_degenerate_vernier_exit_code(self, tmp_path):
        cfg = config_to_dict(default_config())
        cfg["ppktp0"]["fsr_v_ghz"] = cfg["ppktp0"]["fsr_h_ghz"]
        path = tmp_path / "degen.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path), "cavity"]) == EXIT_CONFIG

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mystery": True}))
        assert main(["--config", str(path), "--out", str(tmp_path), "report"]) == 2

    def test_bin_not_dividing_range_rejected_before_simulate(self, tmp_path):
        payload = config_to_dict(DEFAULT)
        payload["chain"]["bin_ps"] = 7.0  # whole ps, but does not divide 20 ns
        path = tmp_path / "bin.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out), "simulate",
                     "--duration", "0.1"])
        assert code == EXIT_CONFIG
        assert not (out / "timetags.ttag").exists()

    def test_failed_report_exit_code(self, tmp_path, capsys):
        path = tmp_path / "fsr.json"
        path.write_text(json.dumps({"ppktp0": {"fsr_h_ghz": 58.5}}))
        code = main(["--config", str(path), "--out", str(tmp_path), "report"])
        assert code == EXIT_REPORT_FAIL
        assert "overall: FAIL" in capsys.readouterr().out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["all_passed"] is False

    def test_missing_fit_csv_is_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["--out", str(tmp_path), "car", "--fit-csv", str(missing)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.csv" in err

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize(
        "text, message",
        [
            ("power_mw,car\n1.0,2000.0\n", "need at least 5"),
            ("power_mw\n1.0\n2.0\n3.0\n4.0\n5.0\n", "need two columns"),
            ("power_mw,car\n1.0,2000.0\n2.0,3000.0\n", "need at least 5"),
            ("power_mw,car\n", "fit.csv: no data rows"),
        ],
        ids=["one-row", "one-column", "two-rows", "header-only"],
    )
    def test_bad_fit_csv_fails_before_writing(self, tmp_path, capsys, text, message):
        path = tmp_path / "fit.csv"
        path.write_text(text)
        out = tmp_path / "out"
        code = main(["--out", str(out), "car", "--fit-csv", str(path)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (out / "car_curve.csv").exists()

    def test_failed_run_leaves_metadata(self, tmp_path, capsys):
        path = tmp_path / "fit.csv"
        path.write_text("power_mw,car\n")
        out = tmp_path / "out"
        code = main(["--seed", "3", "--out", str(out), "car", "--fit-csv", str(path)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["status"], meta["exit_status"]) == ("failed", EXIT_RUNTIME)
        assert err == f"error: {meta['error']}\n"
        assert meta["error"].endswith("fit.csv: no data rows")
        assert (meta["command"], meta["seed"], meta["seed_source"]) == ("car", 3, "cli")
        assert meta["config"] == config_to_dict(DEFAULT)
        assert meta["package"] == cavityspdc.__version__

    @pytest.mark.parametrize(
        "payload, seed, argv, message",
        [
            ({}, "5", ["simulate", "--duration", "1e-7"], "empty stream"),
            # a bootstrap resample of one count per setting that holds none
            ({"tomo_counts_per_setting": 1}, "1", ["tomo"], "no counts"),
        ],
        ids=["simulate", "tomo"],
    )
    def test_failed_run_writes_only_metadata(self, tmp_path, capsys, payload, seed, argv,
                                             message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = main(["--config", str(path), "--seed", seed, "--out", str(out), *argv])
        assert code == EXIT_RUNTIME
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["status"], meta["exit_status"]) == ("failed", EXIT_RUNTIME)

    def test_json_artifacts_are_strict(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert main(["--seed", "5", "--out", str(tmp_path / "curve"), "car"]) == EXIT_OK
        out = tmp_path / "fit"
        assert main(["--seed", "5", "--out", str(out), "car",
                     "--fit-csv", str(tmp_path / "curve" / "car_curve.csv")]) == EXIT_OK
        payloads = {path.name: json.loads(path.read_text(), parse_constant=reject)
                    for path in out.glob("*.json")}
        assert set(payloads) == {"car_fit.json", "car_summary.json", "metadata.json"}
        # the default chain's knees coincide, so their errors are undefined
        for name in ("car_fit.json", "car_summary.json"):
            fit = payloads[name] if name == "car_fit.json" else payloads[name]["fit"]
            assert fit["errors"]["knee_s_mw"] is None and fit["errors"]["knee_i_mw"] is None

    def test_successful_run_metadata(self, tmp_path):
        assert main(["--out", str(tmp_path), "biphoton"]) == EXIT_OK
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert (meta["status"], meta["exit_status"], meta["error"]) == ("ok", EXIT_OK, None)
        assert meta["python"] == "%d.%d.%d" % sys.version_info[:3]
        assert meta["numpy"] == np.__version__
        assert meta["package"] == cavityspdc.__version__
        assert 0.0 <= meta["wall_s"] < 60.0
        assert meta["command"] == "biphoton" and "config" in meta

    @pytest.mark.parametrize(
        "payload, names",
        [
            ({"seed": "x"}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"tolerances": {"chsh_abs": "x"}}, "config.tolerances.chsh_abs"),
            ({"tolerances": {"chsh_abs": True}}, "config.tolerances.chsh_abs"),
            ({"tolerances": []}, "config.tolerances"),
            ({"network": [{"type": "crystal", "label": "c", "rail": ["a", 0]}]},
             "config.network[0].rail"),
            ({"network": [{"type": "crystal", "label": "c", "rail": [0.5, 0]}]},
             "config.network[0].rail"),
            ({"tolerances": {"chsh_abs": -1}}, "config.tolerances.chsh_abs"),
            ({"tolerances": {"chsh_abs": math.nan}}, "config.tolerances.chsh_abs"),
            ({"tolerances": {"fidelity_abs": math.inf}}, "config.tolerances.fidelity_abs"),
            ({"bootstrap_resamples": 150.5}, "bootstrap_resamples"),
            ({"bootstrap_resamples": True}, "bootstrap_resamples"),
            ({"tomo_counts_per_setting": 150.5}, "tomo_counts_per_setting"),
            ({"tomo_counts_per_setting": True}, "tomo_counts_per_setting"),
            ('{"tomo_counts_per_setting": 1e400}', "tomo_counts_per_setting"),
            # 17 bins of 25 ps, too few for the correlation-peak fit
            ({"histogram_range_ns": 0.4}, "histogram_range_ns"),
            ({"histogram_range_ns": math.inf}, "histogram_range_ns"),
            ({"chain": {"window_ns": math.nan}}, "window_ns"),
            ({"chain": {"bin_ps": math.nan}}, "bin_ps"),
            ({"accidental_offset_ns": math.nan}, "accidental_offset_ns"),
            ({"accidental_offset_ns": math.inf}, "accidental_offset_ns"),
            ({"dwdm": {"width_ghz": math.nan}}, "dwdm.width_ghz"),
            ({"dwdm": {"center_offset_ghz": math.nan}}, "dwdm.center_offset_ghz"),
            ({"ppktp0": {"fsr_v_ghz": 57.91}}, "config.ppktp0"),
            ({"network": [{"type": "hwp", "angle_deg": math.nan}]},
             "config.network[0]: angle_deg"),
            ({"network": [{"type": "crystal", "label": "c"},
                          {"type": "qwp", "angle_deg": math.inf, "rail": [0, 0]}]},
             "config.network[1]: angle_deg"),
            # crystal names become output file names
            ({"ppktp1": {"name": "ppktp0"}}, "ppktp1.name"),
            ({"ppktp0": {"name": "a/b"}}, "config.ppktp0: name"),
            ({"ppktp0": {"name": ""}}, "config.ppktp0: name"),
            # delay scans reaching the 82 us mean spacing of detected events
            ({"accidental_offset_ns": 5e8}, "accidental_offset_ns"),
            ({"histogram_range_ns": 2e5}, "histogram_range_ns"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_bad_config_value_is_one_line_error(self, tmp_path, capsys, payload, names):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), "biphoton"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert names in err
        assert not (tmp_path / "out").exists()

    def test_config_seed_is_used(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"seed": 11}))
        assert main(["--config", str(path), "--out", str(tmp_path), "biphoton"]) == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert (meta["seed"], meta["seed_source"]) == (11, "config")

    def test_out_naming_a_file_is_one_line_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main(["--out", str(afile), "biphoton"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert afile.read_text() == "kept\n"

    def test_simulate_deterministic_bytes(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(
                ["--seed", "7", "--out", str(out), "simulate", "--duration", "0.5"]
            )
            assert code == 0
        assert (out_a / "timetags.ttag").read_bytes() == (
            out_b / "timetags.ttag"
        ).read_bytes()
        meta = json.loads((out_a / "metadata.json").read_text())
        assert meta["seed"] == 7 and meta["seed_source"] == "cli"

    def test_simulate_artifacts_are_pinned(self, tmp_path):
        # digests of the files this seed has always written, so a change to
        # the time tags, their write path or the histogram CSV cannot pass unseen
        assert main(["--seed", "5", "--out", str(tmp_path), "simulate",
                     "--duration", "5"]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("timetags.ttag", "histogram.csv")}
        assert digests == {
            "timetags.ttag": "b54f7800e81260436c11d29653fa9d21c24b2eb2e8010d6cc2ac6f6b0d1ab75c",
            "histogram.csv": "b79a3cecd8501ad94c968fe8526e5ca8fb6c277f6d7cc5b00c507b4d48ede2e9",
        }

    @pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf"])
    def test_simulate_bad_duration_is_one_line_error(self, tmp_path, capsys, duration):
        out = tmp_path / "out"
        code = main(["--out", str(out), "simulate", "--duration", duration])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --duration") and err.count("\n") == 1
        assert not out.exists()

    def test_simulate_reports_accidentals(self, tmp_path):
        assert main(["--seed", "7", "--out", str(tmp_path), "simulate",
                     "--duration", "0.5"]) == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        peak, acc = summary["coincidences_window"], summary["accidentals_window"]
        assert isinstance(acc, int) and acc >= 0
        assert summary["car_monte_carlo"] == (peak / acc if acc else "inf")
        # both windows come from one scan; each matches its own count
        stream = cavityspdc.read_ttag(tmp_path / "timetags.ttag")
        window = DEFAULT.chain.window_ns
        assert peak == cavityspdc.count_coincidences(stream, 0.0, window)
        assert acc == cavityspdc.count_coincidences(stream, DEFAULT.accidental_offset_ns, window)

    def test_simulate_records_failed_g2_fit(self, tmp_path):
        path = tmp_path / "dark.json"
        path.write_text(json.dumps({"chain": {"eta_s": 0.0}}))
        out = tmp_path / "out"
        code = main(["--config", str(path), "--seed", "1", "--out", str(out),
                     "simulate", "--duration", "0.2"])
        assert code == 0
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert "g2_fit" not in summary
        assert summary["g2_fit_error"].startswith("no significant peak")

    def test_simulate_records_g2_fit_diagnostics(self, tmp_path):
        dark = tmp_path / "dark.json"
        dark.write_text(json.dumps({"chain": {"eta_s": 0.0}}))
        runs = {}
        for name, config in (("ok", []), ("failed", ["--config", str(dark)])):
            out = tmp_path / name
            assert main(config + ["--seed", "7", "--out", str(out), "simulate",
                                  "--duration", "0.5"]) == 0
            stream = cavityspdc.read_ttag(out / "timetags.ttag")
            hist = cavityspdc.coincidence_histogram(
                stream, DEFAULT.histogram_range_ns, DEFAULT.chain.bin_ps)
            runs[name] = (json.loads((out / "simulate_summary.json").read_text()),
                          cavityspdc.fit_exp_g2(hist))
        summary, fit = runs["ok"]
        assert fit.converged and fit.iterations >= 1
        assert summary["g2_fit"]["iterations"] == fit.iterations
        assert summary["g2_fit"]["residual_norm"] == fit.residual_norm
        summary, fit = runs["failed"]
        assert not fit.converged
        assert summary["g2_fit_iterations"] == fit.iterations
        assert summary["g2_fit_error"] == fit.message

    def test_simulate_records_generated_seed(self, tmp_path):
        assert main(["--out", str(tmp_path), "simulate", "--duration", "0.1"]) == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["seed_source"] == "generated"
        assert isinstance(meta["seed"], int)

    def test_biphoton_summary(self, tmp_path):
        assert main(["--out", str(tmp_path), "biphoton"]) == 0
        payload = json.loads((tmp_path / "biphoton.json").read_text())
        assert payload["spectral_overlap"] == pytest.approx(0.879, abs=5e-3)

    def test_interference_outputs(self, tmp_path):
        assert main(["--out", str(tmp_path), "interference"]) == 0
        payload = json.loads((tmp_path / "interference.json").read_text())
        assert payload["visibility_0deg"] == pytest.approx(1.0, abs=1e-6)
        assert payload["visibility_45deg"] == pytest.approx(0.8709, abs=1e-6)

    def test_chsh_outputs(self, tmp_path):
        assert main(["--seed", "5", "--out", str(tmp_path), "chsh"]) == 0
        payload = json.loads((tmp_path / "chsh.json").read_text())
        assert payload["s_at_phi_settings"] == pytest.approx(2.6459, abs=1e-3)
        assert payload["s_max"] == pytest.approx(2.6521, abs=1e-3)
        assert payload["bootstrap"]["s_std"] > 0.0

    def test_chsh_bootstrap_stream_is_unchanged(self, tmp_path, monkeypatch):
        # settings and bootstrap block written for --seed 5 by the
        # hand-rolled resampling loop this command used before it shared
        # measurement.bootstrap_errors; at the same settings the shared
        # path must reproduce them bit for bit
        settings = measurement.BellSettings(
            20.526211948981327, 159.4736227840125, 9.442528986434254e-05, 45.000083449841306
        )
        monkeypatch.setattr(
            measurement, "chsh_max",
            lambda state: measurement.ChshResult(2.6521438950397105, settings),
        )
        assert main(["--seed", "5", "--out", str(tmp_path), "chsh"]) == 0
        payload = json.loads((tmp_path / "chsh.json").read_text())
        assert payload["bootstrap"] == {
            "counts_per_setting": 10000,
            "resamples": 200,
            "s_mean": 2.6576163670180835,
            "s_std": 0.014736735928125114,
        }

    def test_tomo_outputs(self, tomo_seed5):
        payload = json.loads((tomo_seed5 / "tomo_summary.json").read_text())
        assert payload["fidelity_to_target"] == pytest.approx(0.9355, abs=0.01)
        rho = json.loads((tomo_seed5 / "rho.json").read_text())
        assert np.asarray(rho["rho_re"]).shape == (4, 4)
        counts_header = (tomo_seed5 / "counts.csv").read_text().splitlines()[0]
        assert counts_header == "setting_a,setting_b,seconds,counts"

    def test_tomo_json_format_writes_counts_json(self, tmp_path):
        assert main(["--seed", "5", "--format", "json", "--out", str(tmp_path), "tomo"]) == 0
        assert not (tmp_path / "counts.csv").exists()
        payload = json.loads((tmp_path / "counts.json").read_text())
        assert payload["columns"] == list(measurement.TOMO_CSV_HEADER)
        record = measurement.tomo_simulate_counts(
            cavityspdc.degraded_state(DEFAULT.pump_phase_rad, DEFAULT.coherence),
            DEFAULT.tomo_counts_per_setting, 5,
        )
        assert payload["rows"] == [list(row) for row in record.csv_rows()]

    def test_tomo_records_linear_inversion_eigenvalue(self, tomo_seed5):
        payload = json.loads((tomo_seed5 / "tomo_summary.json").read_text())
        record = measurement.TomographyRecord.from_csv(tomo_seed5 / "counts.csv")
        least = np.linalg.eigvalsh(measurement.tomo_linear(record))[0]
        assert payload["linear_inversion_min_eigenvalue"] == least
        assert least < 0.0  # the record that needs the constrained fit

    def test_tomo_records_concurrence(self, tomo_seed5):
        # Over seeds 0-999 at the default 10k counts per setting the MLE
        # state's concurrence had mean 0.8708, standard deviation 0.0072
        # and largest |C - coherence| 0.0223; 0.03 exceeds every one of
        # those seeds and is about four standard deviations
        payload = json.loads((tomo_seed5 / "tomo_summary.json").read_text())
        assert abs(payload["concurrence"] - DEFAULT.coherence) < 0.03

    def test_tomo_records_mle_diagnostics(self, tomo_seed5):
        payload = json.loads((tomo_seed5 / "tomo_summary.json").read_text())
        assert payload["mle_certificate_gap"] <= 1e-10
        assert isinstance(payload["mle_newton_steps"], int)
        assert payload["mle_newton_steps"] <= 200

    def test_car_outputs(self, tmp_path):
        assert main(["--out", str(tmp_path), "car"]) == 0
        summary = json.loads((tmp_path / "car_summary.json").read_text())
        assert summary["car_at_config_power"] > 6e3
        assert summary["peak_car"] > 3e4
        header = (tmp_path / "car_curve.csv").read_text().splitlines()[0]
        assert header == "power_mw,car"

    def test_car_fit_from_csv(self, tmp_path):
        main(["--out", str(tmp_path), "car", "--points", "30"])
        fit_out = tmp_path / "fitted"
        assert (
            main(
                [
                    "--out", str(fit_out), "car",
                    "--fit-csv", str(tmp_path / "car_curve.csv"),
                ]
            )
            == 0
        )
        payload = json.loads((fit_out / "car_fit.json").read_text())
        assert payload["converged"] is True
        assert payload["derived"]["peak_car"] == pytest.approx(97656.25, rel=1e-3)
        # the fit recovers the reduced parameters the summary records
        reference = json.loads((tmp_path / "car_summary.json").read_text())["reference_curve"]
        assert set(reference) == set(payload["parameters"])
        for name, value in reference.items():
            assert payload["parameters"][name] == pytest.approx(value, rel=1e-4)

    @pytest.mark.parametrize(
        "payload, defined",
        [
            ({"source": {"brightness_per_s_mw_mhz": 0.0}},
             {"optimal_rate_pairs_per_s", "peak_car"}),
            ({"chain": {"eta_s": 0.0}}, set()),
            ({"chain": {"dark_i_per_s": 0.0}}, {"reference_curve"}),
        ],
        ids=["no-brightness", "no-efficiency", "no-darks"],
    )
    def test_car_undefined_optimum_is_null(self, tmp_path, payload, defined):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "car"]) == EXIT_OK
        summary = json.loads((out / "car_summary.json").read_text())
        optional = {"optimal_rate_pairs_per_s", "optimal_power_mw", "peak_car",
                    "reference_curve"}
        assert {key for key in optional if summary[key] is not None} == defined
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["status"], meta["error"]) == ("ok", None)

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_car_bad_points_is_one_line_error(self, tmp_path, capsys, points):
        out = tmp_path / "out"
        assert main(["--out", str(out), "car", "--points", points]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --points") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tomo", "biphoton"])
    def test_negative_seed_is_one_line_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(["--seed", "-3", "--out", str(out), command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --seed") and err.count("\n") == 1
        assert not out.exists()


PAPER_ROWS = {
    "cluster_spacing_ppktp0_ghz",
    "cluster_spacing_ppktp1_ghz",
    "t_fwhm_ppktp0_ns",
    "t_fwhm_ppktp1_ns",
    "spectral_overlap",
    "single_mode_margin_ppktp0_ghz",
    "single_mode_margin_ppktp1_ghz",
    "car_model_at_config_power",
}


class TestReport:
    @pytest.mark.parametrize(
        "computed, reference, tolerance, kind, expected",
        [
            (1.5, 2.0, 0.25, "rel", True),
            (-1.5, -2.0, 0.25, "rel", True),
            (1.4999999, 2.0, 0.25, "rel", False),
            (2.5, 2.0, 0.5, "abs", True),
            (1.5, 2.0, 0.5, "abs", True),
            (2.5000001, 2.0, 0.5, "abs", False),
            (0.0, 0.0, 0.0, "bound", False),
            (1e-12, 0.0, 0.0, "bound", True),
            (1e-10, 1e-10, 0.0, "upper", False),
            (0.99e-10, 1e-10, 0.0, "upper", True),
            (math.nan, 1.0, 0.5, "abs", False),
        ],
    )
    def test_pass_rule_edges(self, computed, reference, tolerance, kind, expected):
        assert _passes(computed, reference, tolerance, kind) is expected

    def test_csv_matches_json(self, tmp_path):
        assert main(["--out", str(tmp_path), "report"]) == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert header == list(REPORT_COLUMNS)
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert [list(r) for r in rows] == [list(REPORT_COLUMNS)] * len(rows)
        assert body == [[str(r[c]) for c in REPORT_COLUMNS] for r in rows]

    def test_row_sources(self, tmp_path):
        main(["--out", str(tmp_path), "report"])
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert {r["source"] for r in rows} <= {"paper", "model"}
        assert {r["quantity"] for r in rows if r["source"] == "paper"} == PAPER_ROWS

    @pytest.mark.parametrize("coherence", [0.0, 0.25, 0.5, 0.8709, 1.0])
    def test_model_rows_hold_at_any_coherence(self, coherence):
        cfg = config_from_dict({"coherence": coherence})
        model = [row for row in _report_rows(cfg) if row[-1] == "model"]
        assert len(model) == 6
        for name, computed, reference, tolerance, kind, _ in model:
            assert _passes(computed, reference, tolerance, kind), name


def test_import_loads_no_scipy():
    code = (
        "import sys, cavityspdc, cavityspdc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(cavityspdc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_numpy_random():
    # numpy loads numpy.random lazily; the package's import time should not
    # pay for it before a command draws anything
    code = "import sys, cavityspdc, cavityspdc.cli; print('numpy.random' in sys.modules)"
    src = str(Path(cavityspdc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
