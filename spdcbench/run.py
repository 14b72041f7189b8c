#!/usr/bin/env python3
"""Benchmark of the cavityspdc package.

Run from the root of a checkout:

    python3 spdcbench/run.py --workload timetag --seed 1 --seconds 30 --trace 0

It runs units of one workload back to back for ``--seconds``, checks every
unit's outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the details (environment, failures with their messages, problems,
unit times); the same result is written under ``spdcbench/out/``.  See
README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import harness  # imports neither numpy nor the package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
SUBCOMMANDS = ("report", "cavity", "biphoton", "car", "interference", "chsh", "simulate")

END_TO_END = {"setup_s": "s", "unit_s": "s", "peak_rss_mb": "MB", "events_per_s": "1/s"}

#: Per-layer metrics and units; a layer a workload does not call reads 0.
PER_LAYER = {
    "measurement.tomo_mle.s": "s",
    "measurement.tomo_mle.calls": "count",
    "measurement.bootstrap_errors.s": "s",
    "measurement.bootstrap_errors.self_s": "s",
    "measurement.chsh_max.s": "s",
    "measurement.chsh_S.s": "s",
    "measurement.interference_curve.s": "s",
    "measurement.tomo_simulate_counts.s": "s",
    "cli.import.s": "s",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    **{f"cli.{sub}.peak_rss_mb": "MB" for sub in SUBCOMMANDS},
    "config.load_config.s": "s",
    "photostats.simulate_timetags.s": "s",
    "photostats.simulate_timetags.events": "count",
    "photostats.write_ttag.s": "s",
    "photostats.write_ttag.bytes": "B",
    "photostats.read_ttag.s": "s",
    "photostats.read_ttag.bytes": "B",
    "photostats.coincidence_histogram.s": "s",
    "photostats.car_from_stream.s": "s",
    "photostats.count_coincidences.s": "s",
    "fitting.fit_exp_g2.s": "s",
    "fitting.fit_exp_g2.iterations": "count",
    "fitting.fit_exp_g2.failed": "count",
    "fitting.fit_lorentzian.s": "s",
    "fitting.fit_lorentzian.iterations": "count",
    "fitting.fit_car_curve.s": "s",
    "fitting.fit_car_curve.iterations": "count",
    "polarization.propagate_network.s": "s",
    "cavity.airy_transmission.s": "s",
    "trace.unit_s": "s",
    "trace.overhead_s": "s",
}


def measure_setup(workdir: Path) -> float:
    """Wall time of a fresh process that imports the package and builds the
    default configuration."""
    argv = [sys.executable, "-c", "import cavityspdc; cavityspdc.default_config()"]
    wall, code, _ = harness.run_child(argv, workdir / "setup.stdout", workdir / "setup.stderr", 60.0)
    if code != 0:
        raise SystemExit(f"run.py: importing the package failed:\n"
                         f"{(workdir / 'setup.stderr').read_text(errors='replace')}")
    return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; return the result line and the details."""
    import numpy as np

    import workloads
    from cavityspdc import default_config

    sizes = sizes or workloads.FULL
    os.environ["PYTHONPATH"] = str(SRC)  # child processes import this checkout's package
    cfg = default_config()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # set-up is probed at even steps through the run, between units, so
        # that its median spans the same stretch of machine time as the units
        setup_times = []
        probes = [] if trace else [i * seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        workload = workloads.WORKLOADS[name](cfg, sizes, workdir)
        # unit u repeats the inputs of unit u % pool; the first pool units
        # always run, so each run counts the same operations for its seed
        pool = sizes.pool or workload.POOL
        run = harness.Recorder()
        unit_times, traced_times, rates, problems = [], [], [], []
        child_rss = 0.0
        start = time.perf_counter()
        while run.unit < max(pool, 2 if trace else 1) or time.perf_counter() - start < seconds:
            while probes and time.perf_counter() - start >= probes[0]:
                probes.pop(0)
                setup_times.append(measure_setup(workdir))
            traced = trace and run.unit % 2 == 0
            run.tracing = traced
            seeds = [int(s) for s in np.random.SeedSequence([seed, run.unit % pool]).generate_state(5)]
            t0 = time.perf_counter()
            out = workload.work(run, seeds)
            elapsed = time.perf_counter() - t0
            run.tracing = False
            found, events = workload.check(run, out)
            problems += [f"unit {run.unit}: {p}" for p in found]
            (traced_times if traced else unit_times).append(elapsed)
            rates.append(events / elapsed)
            child_rss = max(child_rss, out.get("peak_rss_mb", 0.0))
            run.unit += 1
            del out  # frees the unit's records before the next unit allocates its own
        setup_times += [measure_setup(workdir) for _ in probes]  # those a short run left
        attempted, failures, repeat_problems = harness.pool_accounting(run, pool)
        problems += repeat_problems
        # the process doing the work: the largest CLI child, or this one
        peak_rss = child_rss if name == "cli" else harness.self_peak_rss_mb()
        env = harness.environment(ROOT, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = layer_metrics(run, pool, traced_times, unit_times)
    else:
        values = {"setup_s": harness.median(setup_times), "unit_s": harness.median(unit_times),
                  "peak_rss_mb": peak_rss, "events_per_s": harness.median(rates)}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    line = {"correct": not problems, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": trace,
        "environment": env,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "units": run.unit,
        "input_pool": pool,
        "unit_times_s": unit_times, "traced_unit_times_s": traced_times,
        "unit_s_tail": harness.tail_percentile(unit_times),
        "setup_times_s": setup_times,
        "failed_share": len(failures) / max(attempted, 1),
        "failure_counts": [{"op": op, "message": msg, "count": n}
                           for (op, msg), n in Counter((f["op"], f["message"]) for f in failures).items()],
        "failures": failures[:100],
        "problems": problems,
    }
    return {"line": line, "details": details, "spans": run.spans}


def layer_metrics(run, pool, traced_times, untraced_times) -> dict:
    """Median over traced units of each layer's per-unit total; ``.failed``
    counts are totals over the run's distinct inputs, units 0 .. pool-1."""
    per_unit = dict(harness.layer_totals(run.spans))
    per_unit.update(run.counters)
    traced_units = range(0, run.unit, 2)
    values = {}
    for key in PER_LAYER:
        if key.endswith(".failed"):
            values[key] = sum(v for (u, k), v in run.counters.items() if k == key and u < pool)
        else:
            values[key] = harness.median([per_unit.get((u, key), 0.0) for u in traced_units])
    values["trace.unit_s"] = harness.median(traced_times)
    values["trace.overhead_s"] = values["trace.unit_s"] - harness.median(untraced_times)
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("timetag", "tomography", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cavityspdc" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'cavityspdc'}; run from a checkout",
              file=sys.stderr)
        return 2
    # before numpy loads, here and in every child process
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**result["details"], **result["line"]}, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            [[s.unit, s.name, s.start, s.end, s.parent] for s in result["spans"]]) + "\n")
    print(json.dumps(result["details"]))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
