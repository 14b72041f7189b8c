"""Smoke tests of the benchmark itself.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q spdcbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from cavityspdc import Histogram, default_config, fit_exp_g2, tomo_mle, tomo_simulate_counts  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_times_on_a_hand_built_tree():
    spans = [
        harness.Span(0, "root", 0.0, 10.0),
        harness.Span(0, "a", 1.0, 4.0, parent=0),
        harness.Span(0, "b", 3.0, 6.0, parent=0),  # overlaps a
        harness.Span(0, "c", 8.0, 12.0, parent=0),  # runs past its parent
        harness.Span(0, "leaf", 2.0, 3.0, parent=1),
        harness.Span(1, "a", 0.0, 2.0),
    ]
    # root: 10 - |[1, 6] u [8, 10]| = 3
    assert harness.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 2.0])
    totals = harness.layer_totals(spans)
    assert totals[(0, "a.s")] == pytest.approx(3.0)
    assert totals[(0, "a.self_s")] == pytest.approx(2.0)
    assert totals[(1, "a.s")] == pytest.approx(2.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(10))) is None
    tail = harness.tail_percentile([float(v) for v in range(20)])
    assert tail == {"percentile": 50.0, "value": 9.0, "samples": 20}


def test_flat_histogram_is_counted_failed_not_incorrect(tmp_path):
    centers = np.arange(-200, 201) * 25
    fit_out = {"power": 2.5, "duration": 20.0}
    run = harness.Recorder()
    fit_out["g2"] = workloads._fit(run, "fitting.fit_exp_g2", fit_exp_g2,
                                   Histogram(centers, np.full(centers.size, 50.0)))
    assert run.attempted == 1
    assert [f["op"] for f in run.failures] == ["fitting.fit_exp_g2"]
    assert "not converged" in run.failures[0]["message"]
    timetag = workloads.Timetag(default_config(), workloads.TINY, tmp_path)
    problems, _ = timetag.check(run, {"sweeps": [], "records": [fit_out], "events": 0})
    assert problems == []


def test_library_error_is_counted():
    empty = tomo_simulate_counts(np.eye(4) / 4.0, 10, seed=0).with_counts(np.zeros(16))
    run = harness.Recorder()
    with pytest.raises(harness.OpFailed):
        run.call("measurement.tomo_mle", tomo_mle, empty)
    assert run.attempted == 1
    assert run.failures[0]["message"].startswith("TomographyError")


def test_repeated_inputs_are_counted_once():
    run = harness.Recorder()
    for unit, (attempts, failed) in enumerate([(5, ["fit"]), (4, []), (5, ["fit"]), (4, []), (5, [])]):
        run.unit = unit
        run.attempts[unit] = attempts
        for op in failed:
            run.fail(op, "not converged")
    run.unit = 5
    attempted, failures, problems = harness.pool_accounting(run, pool=2)
    assert (attempted, [f["unit"] for f in failures]) == (9, [0])
    # unit 4 repeats unit 0's inputs but did not fail as unit 0 did
    assert len(problems) == 1 and problems[0].startswith("unit 4:")


def test_wrong_output_is_incorrect(tmp_path):
    cfg = default_config()
    timetag = workloads.Timetag(cfg, workloads.TINY, tmp_path)
    lam_peak, lam_acc = workloads.expected_counts(cfg, 150.0, 20.0)
    record = {"power": 150.0, "duration": 20.0, "peak": int(lam_peak * 0.9),
              "accidental": round(lam_acc), "car": 0.0}
    problems, _ = timetag.check(harness.Recorder(), {"sweeps": [], "records": [record], "events": 0})
    assert len(problems) == 2  # the peak count and the CAR


def test_count_model():
    cfg = default_config()
    # without jitter the share is 1 - exp(-half window / decay scale)
    scale_ps = 1e6 / (2.0 * math.pi * math.sqrt(454.0 * 462.0))
    assert workloads.window_fraction(cfg) == pytest.approx(1.0 - math.exp(-1600.0 / scale_ps), abs=1e-3)
    low, high = workloads.poisson_tails(100, 100.0)
    assert low == pytest.approx(0.5266, abs=1e-3) and high == pytest.approx(0.5132, abs=1e-3)
    assert workloads.poisson_tails(150, 100.0)[1] < 1e-5 and workloads.poisson_tails(50, 100.0)[0] < 1e-5


@pytest.mark.parametrize("workload", ["timetag", "tomography", "cli"])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_tiny_and_emits_every_metric(workload, trace):
    result = bench.run_workload(workload, seed=7, seconds=0.0, trace=trace, sizes=workloads.TINY)
    line = result["line"]
    assert line["correct"], result["details"]["problems"]
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert len(result["details"]["setup_times_s"]) == bench.SETUP_PROBES
    elif workload == "tomography":
        metrics = {k: v["value"] for k, v in line["metrics"].items()}
        assert metrics["measurement.tomo_mle.calls"] == 2 + 2 * workloads.TINY.resamples
        assert 0 < metrics["measurement.bootstrap_errors.self_s"] < metrics["measurement.bootstrap_errors.s"]
    env = result["details"]["environment"]
    assert env["nproc"] >= 1 and env["numpy"] and "source_sha256" in env
