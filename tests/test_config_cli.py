import csv
import dataclasses
import hashlib
import importlib
import json
import math
import sys

import numpy as np
import pytest

import cavityspdc
from cavityspdc import cluster_spacing, default_config, load_config, measurement, save_config
from cavityspdc.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REPORT_FAIL,
    EXIT_RUNTIME,
    REPORT_COLUMNS,
    REPORT_STAGES,
    SWEEP_POINTS,
    _passes,
    main,
)
from cavityspdc.config import (
    MAX_EVENTS,
    ConfigError,
    Links,
    car_curve_reference,
    car_optimal_rate,
    config_from_dict,
    config_to_dict,
    detected_rates,
    pair_rate,
)
from cavityspdc.network import BD, HWP, CrystalSource, displacer_network

DEFAULT = default_config()
#: The config error of efficiencies too small for a finite CAR optimum.
OPTIMUM_OVERFLOWS = ("config.chain: the CAR-optimal pair rate "
                     "sqrt(dark_s_per_s * dark_i_per_s / (eta_s * eta_i)) must be finite")
#: A config that loads but has no accidentals at its pump power, so no CAR there.
NO_ACCIDENTALS = {"source": {"power_mw": 0.0}, "chain": {"dark_s_per_s": 0.0, "dark_i_per_s": 0.0}}
SECTION_FIELDS = [
    (section, name)
    for section, fields in config_to_dict(DEFAULT).items() if isinstance(fields, dict)
    for name in fields
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
        # the derived links and state are no keys either
        for key in ("links", "rho"):
            with pytest.raises(ConfigError, match=rf"^config\.{key}: unknown key$"):
                config_from_dict({key: {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="chain"):
            config_from_dict({"chain": {"eta_s": 0.1, "bogus": 2}})

    def test_invalid_field_value_points_at_field(self):
        with pytest.raises(ConfigError, match="config.source"):
            config_from_dict({"source": {"brightness_per_s_mw_mhz": -1.0,
                                         "power_mw": 1.0}})

    def test_partial_override_keeps_defaults(self):
        cfg = config_from_dict({"coherence": 0.5})
        assert cfg.coherence == 0.5
        assert cfg.chain.window_ns == 3.2

    def test_network_round_trip(self, tmp_path):
        base = config_to_dict(default_config())
        base["network"] = [
            {"type": "bd", "axis": "x", "moves": "V"},
            {"type": "hwp", "angle_deg": 45.0, "rail": [1, 0]},
            {"type": "crystal", "rail": [0, 0]},
            {"type": "crystal", "rail": [1, 0]},
            {"type": "bd", "axis": "y", "moves": "V"},
            {"type": "hwp", "angle_deg": 45.0, "rail": [0, 1]},
            {"type": "hwp", "angle_deg": 45.0, "rail": [1, 0]},
            {"type": "bd", "axis": "x", "moves": "H"},
        ]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(base))
        cfg = load_config(path)
        elements = cfg.network
        assert isinstance(elements[0], BD)
        assert isinstance(elements[1], HWP) and elements[1].rail == (1, 0)
        assert isinstance(elements[2], CrystalSource)

        from cavityspdc import degraded_state, propagate_network

        state = propagate_network(cfg.network, math.pi)
        expected = degraded_state(math.pi, 1.0)
        assert np.linalg.norm(state.rho - expected.rho) < 1e-12

    def test_pair_bandwidth_is_derived_from_ppktp0(self):
        wider = dataclasses.replace(DEFAULT.ppktp0, fwhm_h_mhz=500.0)
        for cfg in (DEFAULT, config_from_dict({"ppktp0": {"fwhm_v_mhz": 400.0}}),
                    dataclasses.replace(DEFAULT, ppktp0=wider)):
            assert cfg.source.bandwidth_mhz == cfg.ppktp0.mean_linewidth_mhz()
        assert DEFAULT.source.bandwidth_mhz == 458.0
        assert "bandwidth_mhz" not in config_to_dict(DEFAULT)["source"]

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

    def test_round_trip_with_network(self):
        cfg = dataclasses.replace(DEFAULT, network=displacer_network())
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
        assert payload["schema_version"] == 4
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

    def test_report_traces_the_network_once(self, tmp_path, monkeypatch):
        # the config's build traces it; every stage measures the config's state
        from cavityspdc import config, network, polarization

        calls = []

        def counted(*args):
            calls.append(args)
            return network._network_rho(*args)

        for module in (config, polarization):
            monkeypatch.setattr(module, "_network_rho", counted)
        assert main(["--seed", "5", "--out", str(tmp_path / "default"), "report"]) == EXIT_OK
        assert calls == [(DEFAULT.network, DEFAULT.pump_phase_rad, DEFAULT.coherence)]
        # a loaded config is built once, not over a built default
        calls.clear()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"coherence": 0.9}))
        assert main(["--config", str(path), "--seed", "5", "--out", str(tmp_path / "loaded"),
                     "report"]) == EXIT_OK
        assert calls == [(DEFAULT.network, DEFAULT.pump_phase_rad, 0.9)]

    def test_cavity_outputs(self, tmp_path):
        assert main(["--out", str(tmp_path), "cavity"]) == 0
        header = (tmp_path / "modes_ppktp0_H.csv").read_text().splitlines()[0]
        assert header == "index,offset_GHz,linewidth_MHz,pol"
        summary = json.loads((tmp_path / "cavity_summary.json").read_text())
        assert summary["crystals"][0]["dwdm_selected_clusters"] == 1

    def test_dwdm_selects_every_cluster_in_its_passband(self, tmp_path):
        # 2200 GHz reaches ppktp0's side clusters at +-1060 GHz, not ppktp1's at
        # +-1261 GHz; both lie outside the default span of 240 GHz
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dwdm": {"width_ghz": 2200.0}}))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "cavity"]) == 0
        summary = json.loads((tmp_path / "out" / "cavity_summary.json").read_text())
        assert [c["dwdm_selected_clusters"] for c in summary["crystals"]] == [3, 1]
        # the cluster table still covers --span-ghz only
        rows = (tmp_path / "out" / "clusters_ppktp0.csv").read_text().splitlines()
        assert rows[1:] == ["0,0.0,458.0,HV"]

    @pytest.mark.parametrize(
        "dwdm, counts",
        [
            ({"center_offset_ghz": 600.0}, [0, 0]),
            ({"center_offset_ghz": 1060.0, "width_ghz": 50.0}, [1, 0]),
            # counted in closed form, so a far-off passband costs nothing
            ({"center_offset_ghz": 1e15}, [0, 0]),
            # a passband far wider than the default listing span
            ({"center_offset_ghz": -5e4, "width_ghz": 2e5}, [189, 158]),
            # a count far past sys.maxsize, which len() of a range cannot give
            ({"width_ghz": 1e300}, [
                2 * math.floor(5e299 / cluster_spacing(spec.fsr_h_ghz, spec.fsr_v_ghz)) + 1
                for spec in (DEFAULT.ppktp0, DEFAULT.ppktp1)
            ]),
        ],
    )
    def test_dwdm_count_off_centre(self, tmp_path, dwdm, counts):
        path = tmp_path / "dwdm.json"
        path.write_text(json.dumps({"dwdm": dwdm}))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "cavity"]) == 0
        summary = json.loads((tmp_path / "out" / "cavity_summary.json").read_text())
        assert [c["dwdm_selected_clusters"] for c in summary["crystals"]] == counts

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
        for (name, spec), entry in zip(DEFAULT.crystals(), summary["crystals"]):
            assert entry["name"] == name
            for pol in ("H", "V"):
                lines = (tmp_path / f"sweep_{name}_{pol}.csv").read_text().splitlines()
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
            # a stage that fails ends the report, whose error names the stage
            ({"tomo_counts_per_setting": 1}, "1", ["report"],
             "error: chsh: zero total counts in one basis pair"),
        ],
        ids=["simulate", "tomo", "report"],
    )
    def test_failed_run_writes_only_metadata(self, tmp_path, capsys, payload, seed, argv,
                                             message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = main(["--config", str(path), "--seed", seed, "--out", str(out), *argv])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
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
            # removed keys: a crystal's poling period, out-coupler reflectivity
            # and degeneracy frequency, a displacer's step and the tolerances
            ({"ppktp0": {"poling_period_um": 46.2}}, "config.ppktp0.poling_period_um"),
            ({"ppktp1": {"out_coupler_reflectivity": 0.96}},
             "config.ppktp1.out_coupler_reflectivity"),
            ({"tolerances": []}, "config.tolerances"),
            ({"network": [{"type": "crystal", "rail": ["a", 0]}]},
             "config.network[0].rail"),
            ({"network": [{"type": "crystal", "rail": [0.5, 0]}]},
             "config.network[0].rail"),
            ({"ppktp0": {"degenerate_freq_thz": 193.3895}}, "config.ppktp0.degenerate_freq_thz"),
            ({"network": [{"type": "bd", "axis": "x", "moves": "V", "displacement_mm": 4.0}]},
             "config.network[0].displacement_mm"),
            ({"tolerances": {"chsh_abs": 2e-3}}, "config.tolerances"),
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
            ({"network": [{"type": "crystal"},
                          {"type": "qwp", "angle_deg": math.inf, "rail": [0, 0]}]},
             "config.network[1]: angle_deg"),
            # removed keys: a crystal's name, which repeated its section key,
            # the mirror element, which acted as the identity, and a crystal's
            # label, which nothing read
            ({"ppktp1": {"name": "ppktp0"}}, "ppktp1.name"),
            ({"network": [{"type": "mirror"}]},
             "config.network[0].type: unknown element type 'mirror'"),
            ({"network": [{"type": "crystal", "label": "c0"}]},
             "config.network[0].label: unknown key"),
            # delay scans reaching the 82 us mean spacing of detected events
            ({"accidental_offset_ns": 5e8}, "accidental_offset_ns"),
            ({"histogram_range_ns": 2e5}, "histogram_range_ns"),
            ({"seed": -1}, "seed"),
            # bins below one picosecond
            ({"chain": {"bin_ps": 5e-324}}, "bin_ps"),
            ({"chain": {"bin_ps": 1e-10}}, "bin_ps"),
            # a range that overflows in picoseconds
            ({"histogram_range_ns": 1e308}, "histogram_range_ns"),
            # the pair bandwidth is ppktp0's mean linewidth, not a key
            ({"source": {"bandwidth_mhz": 458}}, "config.source.bandwidth_mhz: derived"),
            # a network element that is not an object, a type that is not a
            # string, and a crystal without a rail
            ({"network": [5]}, "config.network[0]: expected an object"),
            ({"network": [None]}, "config.network[0]: expected an object"),
            ({"network": [{"type": "crystal", "rail": None},
                          {"type": "crystal", "rail": [1, 0]}]},
             "config.network[0].rail: expected two integers"),
            ({"network": [{"type": []}]}, "config.network[0].type: unknown element type"),
            # a null or empty network, one whose photons do not interfere, and
            # a boolean where a number belongs
            ({"network": None}, "config.network: expected a list of elements"),
            ({"network": []}, "network: no pump amplitude reaches a crystal"),
            ({"network": [{"type": "crystal"}]}, "network: non-interfering network"),
            ({"coherence": True}, "config.coherence: expected a number, got true"),
            # a boolean where a string belongs is named as such
            ({"network": [{"type": "bd", "axis": True, "moves": "V"}]},
             "config.network[0].axis: expected a string, got true"),
            # a window below one picosecond, the time tags' resolution
            ({"chain": {"window_ns": 5e-324}}, "window_ns must be at least 1e-3"),
            ({"chain": {"window_ns": 9e-4}}, "window_ns must be at least 1e-3"),
            # a pair rate that overflows names the source fields
            ({"source": {"power_mw": 1e308}}, "source.brightness_per_s_mw_mhz * source.power_mw"),
            ({"source": {"brightness_per_s_mw_mhz": 1e308}},
             "source.brightness_per_s_mw_mhz * source.power_mw"),
            # so do linewidths whose mean, the pair bandwidth, overflows
            ({"ppktp0": {"fsr_h_ghz": 1e308, "fsr_v_ghz": 1.7e308,
                         "fwhm_h_mhz": 1.5e308, "fwhm_v_mhz": 1.5e308}},
             "ppktp0.fwhm_h_mhz + ppktp0.fwhm_v_mhz overflows"),
            # a jitter whose draws would overflow the int64 time keys
            ({"chain": {"jitter_sigma_ps": 1e19}}, "jitter_sigma_ps must be at most 1e12"),
            # efficiencies whose product underflows to 0, or so small that the
            # CAR-optimal pair rate overflows
            ({"chain": {"eta_s": 5e-324}}, OPTIMUM_OVERFLOWS),
            ({"chain": {"eta_s": 1e-200, "eta_i": 1e-200}}, OPTIMUM_OVERFLOWS),
            ({"chain": {"eta_s": 1e-160, "eta_i": 1e-160}}, OPTIMUM_OVERFLOWS),
            # a brightness whose pair rate overflows on car's curve, if not at
            # the pump power
            ({"source": {"brightness_per_s_mw_mhz": 1e308, "power_mw": 0}},
             "source.brightness_per_s_mw_mhz overflows the pair rate at car's highest "
             "curve power, 250 mW"),
            # a finesse whose Airy coefficient (2F/pi)^2 overflows, and a
            # length whose round trip leaves no finite effective index
            ({"ppktp0": {"fsr_h_ghz": 1e300}},
             "config.ppktp0: the finesse fsr_h_ghz / fwhm_h_mhz overflows"),
            ({"ppktp0": {"fwhm_h_mhz": 1e-300}},
             "config.ppktp0: the finesse fsr_h_ghz / fwhm_h_mhz overflows"),
            ({"ppktp1": {"fwhm_v_mhz": 5e-324}},
             "config.ppktp1: the finesse fsr_v_ghz / fwhm_v_mhz overflows"),
            ({"ppktp0": {"length_mm": 5e-324}},
             "config.ppktp0: length_mm * fsr_h_ghz is too small for a finite effective index"),
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

    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError],
                             ids=lambda error: error.__name__)
    def test_unexpected_error_is_one_line_error(self, tmp_path, capsys, monkeypatch, error):
        # an error of a type that names no user error, raised inside a stage
        from cavityspdc import cavity

        def fail(*args):
            raise error("out of range")

        monkeypatch.setattr(cavity, "single_mode_margin", fail)
        out = tmp_path / "out"
        code = main(["--seed", "5", "--out", str(out), "cavity"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["status"], meta["exit_status"]) == ("failed", EXIT_RUNTIME)
        assert err == f"error: {meta['error']}\n"
        assert meta["error"] == f"{error.__name__}: out of range"

    def test_vanishing_phase_matching_width_gives_zero_weight(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ppktp0": {"pm_fwhm_thz": 1e-300}}))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--seed", "5", "--out", str(out), "cavity"]) == 0
        summary = json.loads((out / "cavity_summary.json").read_text())
        assert summary["crystals"][0]["pm_weight_adjacent_cluster"] == 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["cavity", "biphoton", "car", "simulate", "interference",
                                         "chsh", "tomo", "report"])
    def test_every_artifact_lands_in_a_file_of_its_own(self, tmp_path, monkeypatch, command,
                                                       fmt):
        from cavityspdc import cli

        run, returned = cli._COMMANDS[command], []

        def recorded(*args):
            code, artifacts = run(*args)
            returned.extend(artifacts)
            return code, artifacts

        monkeypatch.setitem(cli._COMMANDS, command, recorded)
        argv = ["simulate", "--duration", "0.2"] if command == "simulate" else [command]
        out = tmp_path / "out"
        assert main(["--seed", "5", "--format", fmt, "--out", str(out), *argv]) == EXIT_OK
        written = [p for p in out.rglob("*") if p.is_file() and p.name != "metadata.json"]
        assert len(written) == len(returned) > 0
        if fmt == "json":
            assert all(p.suffix in (".json", ".ttag") for p in written)

    def test_artifacts_that_would_share_a_file_stop_the_run(self, tmp_path, monkeypatch,
                                                            capsys):
        from cavityspdc import cli

        def clash(*args):
            return EXIT_OK, {"curve.csv": (("x",), [(1.0,)]), "curve.json": {"x": 1.0}}

        monkeypatch.setitem(cli._COMMANDS, "biphoton", clash)
        out = tmp_path / "out"
        assert main(["--format", "json", "--out", str(out), "biphoton"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: two artifacts of one run would be written to curve.json\n")
        assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]

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

    # 5e6 s, past MAX_DURATION_S, would overflow the draw's int64 time keys
    @pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf", "5e6"])
    def test_simulate_bad_duration_is_one_line_error(self, tmp_path, capsys, duration):
        out = tmp_path / "out"
        code = main(["--out", str(out), "simulate", "--duration", duration])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --duration") and err.count("\n") == 1
        assert not out.exists()

    # a span or a point count grows its stage's tables linearly
    @pytest.mark.parametrize("argv", [
        ["cavity", "--span-ghz", "0"], ["cavity", "--span-ghz", "-1"],
        ["cavity", "--span-ghz", "nan"], ["cavity", "--span-ghz", "inf"],
        ["cavity", "--span-ghz", "100001"], ["cavity", "--span-ghz", "1e12"],
        ["car", "--points", "100001"], ["car", "--points", "1000000000"],
    ], ids=" ".join)
    def test_span_or_points_out_of_bounds_is_one_line_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[1]} must be") and err.count("\n") == 1
        assert not out.exists()

    # 4e6 s at the default 12,222.5 events/s, and 30 s at a pump power that
    # detects 1.0e7 events/s, about half what the delay scan allows
    @pytest.mark.parametrize("payload, duration", [({}, "4e6"),
                                                   ({"source": {"power_mw": 125_000.0}}, "30")],
                             ids=["default-4e6", "125W-30"])
    def test_simulate_past_max_events_is_one_line_error(self, tmp_path, capsys, payload,
                                                          duration):
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(payload))
        code = main(["--config", str(path), "--out", str(out), "simulate", "--duration", duration])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: --duration {float(duration):g} s expects ")
        assert f"more than the {MAX_EVENTS} " in err and err.count("\n") == 1
        assert not out.exists()

    def test_simulate_reports_accidentals(self, tmp_path):
        assert main(["--seed", "7", "--out", str(tmp_path), "simulate",
                     "--duration", "0.5"]) == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        peak, acc = summary["coincidences_window"], summary["accidentals_window"]
        assert isinstance(acc, int) and acc >= 0
        assert summary["car_monte_carlo"] == (peak / acc if acc else "inf")
        # the histogram and both windows come from one scan; each window
        # matches its own count
        stream = cavityspdc.read_ttag(tmp_path / "timetags.ttag")
        window = DEFAULT.chain.window_ns
        assert peak == cavityspdc.count_coincidences(stream, 0.0, window)
        assert acc == cavityspdc.count_coincidences(stream, DEFAULT.accidental_offset_ns, window)

    def test_simulate_scans_the_record_once(self, tmp_path, monkeypatch):
        from cavityspdc import photostats

        scans = []

        def counted(stream, limit_ps):
            scans.append(limit_ps)
            return scan(stream, limit_ps)

        scan = photostats._cross_deltas
        monkeypatch.setattr(photostats, "_cross_deltas", counted)
        assert main(["--seed", "5", "--out", str(tmp_path), "simulate",
                     "--duration", "0.5"]) == EXIT_OK
        # to the displaced window's far edge, beyond the histogram's
        assert scans == [pytest.approx((DEFAULT.accidental_offset_ns
                                        + DEFAULT.chain.window_ns / 2) * 1e3)]

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
             {"car_at_config_power", "optimal_rate_pairs_per_s", "peak_car"}),
            ({"chain": {"eta_s": 0.0}}, {"car_at_config_power"}),
            ({"chain": {"dark_i_per_s": 0.0}}, {"car_at_config_power", "reference_curve"}),
            (NO_ACCIDENTALS, {"reference_curve"}),
        ],
        ids=["no-brightness", "no-efficiency", "no-darks", "no-accidentals"],
    )
    def test_car_undefined_optimum_is_null(self, tmp_path, payload, defined):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "car"]) == EXIT_OK
        summary = json.loads((out / "car_summary.json").read_text())
        optional = {"car_at_config_power", "optimal_rate_pairs_per_s", "optimal_power_mw",
                    "peak_car", "reference_curve"}
        assert {key for key in optional if summary[key] is not None} == defined
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["status"], meta["error"]) == ("ok", None)

    def test_report_fails_an_undefined_car_row(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(NO_ACCIDENTALS))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "report"]) == EXIT_REPORT_FAIL
        rows = json.loads((out / "report.json").read_text())["rows"]
        failed = [(r["quantity"], r["computed"]) for r in rows if not r["passed"]]
        assert failed == [("car_model_at_config_power", None)]
        printed = capsys.readouterr().out.splitlines()
        assert any(line.startswith("car_model_at_config_power") and "undefined" in line
                   and line.endswith("[FAIL]") for line in printed)
        meta = json.loads((out / "metadata.json").read_text())
        assert (meta["exit_status"], meta["error"]) == (EXIT_REPORT_FAIL, None)

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
    def test_model_rows_hold_at_any_coherence(self, tmp_path, coherence):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"coherence": coherence}))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--seed", "5", "--out", str(out), "report"]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        model = [row for row in rows if row["source"] == "model"]
        assert len(model) == 6
        for row in model:
            assert _passes(row["computed"], row["reference"], row["tolerance"], row["kind"]), \
                row["quantity"]

    def test_rows_are_read_from_the_stage_artifacts(self, tmp_path):
        assert main(["--seed", "5", "--out", str(tmp_path), "report"]) == 0
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert {row["artifact"].split("/")[0] for row in rows} == set(REPORT_STAGES)
        for row in rows:
            value = json.loads((tmp_path / row["artifact"]).read_text())
            for key in row["field"].split("."):
                value = value[int(key) if isinstance(value, list) else key]
            assert value == row["computed"], row["quantity"]


def test_import_loads_no_scipy(fresh_python):
    code = (
        "import sys, cavityspdc, cavityspdc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code) == "[]"


def test_import_loads_no_numpy_random(fresh_python):
    # numpy loads numpy.random lazily, and nothing loads concurrent.futures
    # (with logging, queue and traceback); importing the package should pay
    # for neither
    code = ("import sys, cavityspdc, cavityspdc.cli; "
            "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules])")
    assert fresh_python(code) == "[]"


def test_describing_the_experiment_loads_no_numpy(tmp_path, fresh_python):
    # the package, the config and the network import no numpy, so building,
    # saving, loading and checking a config, its CAR algebra and the rates it
    # implies, its links, pay for none of it
    code = (
        "import sys, cavityspdc\n"
        "from cavityspdc.config import ConfigError, config_from_dict\n"
        "cfg = cavityspdc.default_config()\n"
        "cavityspdc.save_config(cfg, sys.argv[1])\n"
        "assert cavityspdc.load_config(sys.argv[1]) == cfg\n"
        "try:\n"
        "    config_from_dict({'network': [{'type': 'crystal'}]})\n"
        "    sys.exit('a non-interfering network passed')\n"
        "except ConfigError:\n"
        "    pass\n"
        "cavityspdc.car_model(cavityspdc.pair_rate(cfg.source), cfg.chain)\n"
        "cavityspdc.car_optimal_rate(cfg.chain)\n"
        "cavityspdc.config.car_curve_reference(cfg.source, cfg.chain)\n"
        "assert cfg.links.car_at_config_power > 6000.0\n"
        "assert cfg.rho[0][0] == cfg.rho[3][3] == 0.5\n"
        "cavityspdc.effective_index(cfg.ppktp0.length_mm, cfg.ppktp0.fsr_h_ghz)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert fresh_python(code, tmp_path / "cfg.json") == "False"


#: What each call loads beyond cli, config and network, which every call
#: loads: the package modules it computes with, the ones they import
#: (photostats and fitting import biphoton, photostats and measurement
#: polarization), and numpy.random where it draws.  The CAR algebra is
#: config's, so car loads fitting only to fit a --fit-csv curve.
SUBCOMMAND_MODULES = {
    "biphoton": {"biphoton"},
    "cavity": {"cavity", "fitting", "biphoton", "numpy.random"},
    "car": set(),
    "car --fit-csv": {"fitting", "biphoton"},
    "simulate": {"photostats", "fitting", "biphoton", "polarization", "numpy.random"},
    "interference": {"polarization", "measurement"},
    "chsh": {"polarization", "measurement", "numpy.random"},
    "tomo": {"polarization", "measurement", "numpy.random"},
}
#: report runs its stages, so loads what they load.
SUBCOMMAND_MODULES["report"] = set().union(*(SUBCOMMAND_MODULES[s] for s in REPORT_STAGES))


@pytest.mark.parametrize("call", SUBCOMMAND_MODULES)
def test_each_subcommand_loads_only_its_modules(tmp_path, fresh_python, call):
    # a cold call pays for the modules its command runs, writing the
    # artifacts included, and no others
    code = (
        "import sys\n"
        "from cavityspdc.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(m.removeprefix('cavityspdc.') for m in sys.modules\n"
        "               if m.startswith('cavityspdc.') or m == 'numpy.random'))\n"
    )
    args = call.split()
    if args[0] == "simulate":
        args += ["--duration", "0.2"]
    if "--fit-csv" in args:
        # the model curve that car writes, as the benchmark fits it
        assert main(["--out", str(tmp_path / "curve"), "car"]) == EXIT_OK
        args.append(tmp_path / "curve" / "car_curve.csv")
    printed = fresh_python(code, "--seed", 5, "--out", tmp_path / "out", *args)
    expected = SUBCOMMAND_MODULES[call] | {"cli", "config", "network"}
    assert set(printed.splitlines()[-1].split()) == expected


#: The package's public names.
PUBLIC_NAMES = [
    "BD", "BellSettings", "BiphotonParams", "CavitySpec", "CrystalSource", "DetectionChain",
    "ExperimentConfig", "FitResult", "HWP", "Histogram", "ModeComb",
    "NonInterferingNetworkError", "PHI_SETTINGS", "ProjectorSetting", "QWP", "SourceRate",
    "TimeTagStream", "TomographyRecord", "TwoPhotonState", "airy_transmission",
    "analyze_record", "bootstrap_errors", "build_mode_comb", "car_from_stream", "car_model", "car_optimal_rate",
    "chsh_S", "chsh_max", "cluster_comb", "cluster_spacing", "coincidence_histogram",
    "concurrence", "count_coincidences", "default_config", "degraded_state",
    "displacer_network", "dwdm_cluster_count", "effective_index", "entangled_ket", "fidelity",
    "fit_car_curve", "fit_exp_g2", "fit_lorentzian", "gamma_prime_mhz",
    "interference_curve", "load_config", "pair_rate", "propagate_network",
    "read_ttag", "save_config", "simulate_timetags", "single_mode_margin", "spectral_overlap",
    "state_fidelity", "t_fwhm_ns", "tomo_linear", "tomo_mle", "tomo_simulate_counts",
    "write_ttag",
]


def test_lazy_exports():
    assert cavityspdc.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"cavityspdc.{cavityspdc._SUBMODULE[name]}")
        assert getattr(cavityspdc, name) is getattr(module, name), name
    namespace = {}
    exec("from cavityspdc import *\nfrom cavityspdc import cli, measurement", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace) and set(PUBLIC_NAMES) <= set(dir(cavityspdc))
    assert namespace["cli"] is sys.modules["cavityspdc.cli"]
    assert namespace["measurement"] is sys.modules["cavityspdc.measurement"]
    with pytest.raises(AttributeError, match="no_such_name"):
        cavityspdc.no_such_name


def _leaves(payload, prefix=""):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


SIMULATE = ["simulate", "--duration", "2"]

#: For every config leaf but ``seed`` and ``network``: a valid value other than
#: the default, and the subcommand whose artifacts that value changes.
KNOBS = {
    **{f"{crystal}.{name}": (value, ["cavity"])
       for crystal in ("ppktp0", "ppktp1")
       for name, value in (("fsr_h_ghz", 57.0), ("fsr_v_ghz", 54.0),
                           ("fwhm_h_mhz", 400.0), ("fwhm_v_mhz", 400.0),
                           ("pm_fwhm_thz", 1.5), ("length_mm", 1.2))},
    "source.brightness_per_s_mw_mhz": (0.5, ["car"]),
    "source.power_mw": (100.0, ["car"]),
    "chain.eta_s": (0.1, ["car"]),
    "chain.eta_i": (0.1, ["car"]),
    "chain.dark_s_per_s": (50.0, ["car"]),
    "chain.dark_i_per_s": (50.0, ["car"]),
    "chain.window_ns": (2.0, ["car"]),
    "chain.jitter_sigma_ps": (30.0, SIMULATE),
    "chain.bin_ps": (50.0, SIMULATE),
    # a passband that misses the central cluster, and one wide enough to take
    # in ppktp0's side clusters
    "dwdm.center_offset_ghz": (600.0, ["cavity"]),
    "dwdm.width_ghz": (2200.0, ["cavity"]),
    "pump_phase_rad": (0.0, ["interference"]),
    "coherence": (0.5, ["interference"]),
    "tomo_counts_per_setting": (5000, ["chsh"]),
    "bootstrap_resamples": (150, ["chsh"]),
    # at seed 5 the 2 s record holds 2 accidentals at 50 ns and 1 at 20 ns
    "accidental_offset_ns": (20.0, SIMULATE),
    "histogram_range_ns": (10.0, SIMULATE),
}
#: The built-in displacer network, written out as a ``network`` config.
NETWORK = config_to_dict(dataclasses.replace(DEFAULT, network=displacer_network()))["network"]
#: For every field of an element of ``NETWORK``: the index of the element to
#: change, a valid value other than its own, and the exit status of ``report``
#: with that value.
NETWORK_KNOBS = {
    "network.bd.axis": (0, "y", EXIT_REPORT_FAIL),
    # a recombiner that moves V leaves the photons on four rails, which the
    # config check rejects
    "network.bd.moves": (7, "V", EXIT_CONFIG),
    "network.hwp.angle_deg": (1, 44.0, EXIT_REPORT_FAIL),
    "network.hwp.rail": (1, None, EXIT_REPORT_FAIL),
    "network.crystal.rail": (3, [1, 1], EXIT_REPORT_FAIL),
}
LEAVES = [leaf for leaf in _leaves(config_to_dict(DEFAULT)) if leaf not in ("seed", "network")]
LEAVES += sorted({f"network.{element['type']}.{key}"
                  for element in NETWORK for key in element if key != "type"})


def _artifacts(out, argv, config=None, code=EXIT_OK):
    options = [] if config is None else ["--config", str(config)]
    assert main([*options, "--seed", "5", "--out", str(out), *argv]) == code
    if code == EXIT_CONFIG:
        assert not out.exists()
        return {}
    # report's stages write theirs under out/<stage>
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name != "metadata.json"}


@pytest.fixture(scope="module")
def default_artifacts(tmp_path_factory):
    """Artifacts of a default-config run of a subcommand, one run per subcommand."""
    runs = {}

    def artifacts(argv):
        if tuple(argv) not in runs:
            runs[tuple(argv)] = _artifacts(tmp_path_factory.mktemp("default"), argv)
        return runs[tuple(argv)]

    return artifacts


def test_default_network_written_out_is_the_default(tmp_path, default_artifacts):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"network": NETWORK}))
    assert _artifacts(tmp_path / "out", ["report"], path) == default_artifacts(["report"])


@pytest.mark.parametrize("leaf", LEAVES)
def test_no_config_leaf_is_dead(tmp_path, default_artifacts, leaf):
    code = EXIT_OK
    if leaf.startswith("network."):
        index, value, code = NETWORK_KNOBS[leaf]
        _, kind, name = leaf.split(".")
        assert NETWORK[index]["type"] == kind
        network = [dict(element) for element in NETWORK]
        network[index][name] = value
        payload, argv = {"network": network}, ["report"]
    else:
        value, argv = KNOBS[leaf]
        *sections, name = leaf.split(".")
        payload = {name: value}
        for section in reversed(sections):
            payload = {section: payload}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert _artifacts(tmp_path / "out", argv, path, code) != default_artifacts(argv)


def test_network_edit_reaches_the_measured_state(tmp_path, default_artifacts):
    # a pump plate at 44 degrees, not 45, reshapes the traced state that
    # interference, chsh and tomo measure; only the report's row that
    # compares it with the closed form fails
    network = [dict(element) for element in NETWORK]
    network[1]["angle_deg"] = 44.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"network": network}))
    for command in ("interference", "chsh", "tomo"):
        edited = _artifacts(tmp_path / command, [command], path)
        default = default_artifacts([command])
        assert sorted(edited) == sorted(default)
        assert [name for name in default if edited[name] == default[name]] == []
    report = json.loads(_artifacts(tmp_path / "report", ["report"], path,
                                   EXIT_REPORT_FAIL)["report.json"])
    assert [row["quantity"] for row in report["rows"] if not row["passed"]] == [
        "network_vs_ideal_frobenius"]


def test_car_follows_only_the_pair_crystal(tmp_path, default_artifacts):
    runs = {}
    for crystal in ("ppktp0", "ppktp1"):
        path = tmp_path / f"{crystal}.json"
        path.write_text(json.dumps({crystal: {"fwhm_h_mhz": 400.0}}))
        runs[crystal] = _artifacts(tmp_path / crystal, ["car"], path)
    # the pair bandwidth is ppktp0's mean linewidth, (400 + 462) / 2 = 431 MHz
    rate = DEFAULT.source.brightness_per_s_mw_mhz * DEFAULT.source.power_mw * 431.0
    summary = json.loads(runs["ppktp0"]["car_summary.json"])
    assert summary["car_at_config_power"] == pytest.approx(
        cavityspdc.car_model(rate, DEFAULT.chain), rel=1e-12)
    assert summary["car_at_config_power"] == pytest.approx(6667.50, abs=0.01)
    assert runs["ppktp1"] == default_artifacts(["car"])


def test_links_are_the_closed_forms_of_the_config():
    source, chain, links = DEFAULT.source, DEFAULT.chain, DEFAULT.links
    rate, k = pair_rate(source), pair_rate(source, 1.0)
    optimum = car_optimal_rate(chain)
    assert links == Links(
        source.bandwidth_mhz, k, rate, *detected_rates(rate, chain),
        cavityspdc.car_model(rate, chain), optimum, optimum / k,
        cavityspdc.car_model(optimum, chain),
        dict(zip(("norm_per_mw", "knee_s_mw", "knee_i_mw"), car_curve_reference(source, chain))))
    # the paper's 458 MHz pair bandwidth and a CAR above 6000 at 150 mW
    assert links.bandwidth_mhz == 458.0 and links.car_at_config_power > 6000.0


def test_replacing_a_section_rebuilds_the_links():
    cfg = dataclasses.replace(DEFAULT, source=dataclasses.replace(DEFAULT.source, power_mw=75.0))
    assert cfg.links == Links.of(cfg.source, cfg.chain) != DEFAULT.links
    assert cfg.links.pairs_per_s == DEFAULT.links.pairs_per_s / 2.0


def test_metadata_links_are_what_each_artifact_carries(tmp_path):
    runs = {"car": ["car"], "simulate": ["simulate", "--duration", "0.2"], "report": ["report"]}
    for name, argv in runs.items():
        assert main(["--seed", "5", "--out", str(tmp_path / name), *argv]) == EXIT_OK

    def read(name, artifact):
        return json.loads((tmp_path / name / artifact).read_text())

    links = read("car", "metadata.json")["links"]
    assert links == json.loads(json.dumps(dataclasses.asdict(DEFAULT.links)))
    assert all(read(name, "metadata.json")["links"] == links for name in runs)
    summary = read("car", "car_summary.json")
    assert {key: summary[key] for key in summary if key != "schema_version"} == {
        key: links[key] for key in ("car_at_config_power", "optimal_rate_pairs_per_s",
                                    "optimal_power_mw", "peak_car", "reference_curve")}
    assert read("simulate", "simulate_summary.json")["car_model"] == links["car_at_config_power"]
    rows = {r["quantity"]: r["computed"] for r in read("report", "report.json")["rows"]}
    assert rows["car_model_at_config_power"] == links["car_at_config_power"]
