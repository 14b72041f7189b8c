"""Golden artifacts: the nine default runs at --seed 5 against
tests/golden_seed5.json.

Artifacts whose numbers are integers or plain Python float arithmetic are
pinned by SHA-256.  Every other artifact passes through numpy's SIMD
ufuncs, LAPACK or an iterative fit, whose last digits may differ on another
CPU or numpy build, so its parsed values are stored instead: keys, strings,
booleans and nulls compare exactly, and numbers at the relative tolerance
RTOL, except the few in ROUND_OFF.  metadata.json is compared by its key set and by every field that is
not a time or a version.  report's entry holds its own files only: each of
its stage subdirectories is the stage's standalone run byte for byte, which
test_report_stages_are_the_standalone_runs checks.

A change that moves an artifact rewrites the table in the same commit with
``PYTHONPATH=src python tests/test_golden.py``, and lists the old and new
values in CHANGES.md.
"""

import csv
import fnmatch
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from cavityspdc.cli import REPORT_STAGES, main

GOLDEN = Path(__file__).with_name("golden_seed5.json")

#: Relative tolerance of every number compared by value.  Switching
#: OpenBLAS's kernel (OPENBLAS_CORETYPE Haswell, Zen, Sandybridge, Nehalem,
#: Prescott) or numpy's SIMD targets moves the others by at most 3e-10.
RTOL = 1e-9

#: Absolute tolerances of the numbers that amplify round-off, by JSON key:
#: the concurrence and the Uhlmann fidelity take square roots of eigenvalues
#: that are zero up to round-off, so they move by up to 1.7e-8 between
#: those kernels, and the MLE's certificate gap, 3.6e-11, is itself
#: round-off and moves by up to 3e-4 of its value.
ROUND_OFF = {"concurrence": 1e-7, "state_fidelity_to_model": 1e-7,
             "mle_certificate_gap": 1e-12}

#: Each run's arguments after ``--seed 5 --out <dir>``; {car} is the
#: directory of the car run, which car_fit runs first.
RUNS = {
    "report": ["report"],
    "cavity": ["cavity"],
    "biphoton": ["biphoton"],
    "car": ["car"],
    "car_fit": ["car", "--fit-csv", "{car}/car_curve.csv"],
    "interference": ["interference"],
    "chsh": ["chsh"],
    "tomo": ["tomo"],
    "simulate": ["simulate", "--duration", "5"],
}

#: Artifacts pinned by digest, by run.  car_fit's car_summary.json is not
#: one of them: it carries the fit.
HASHED = {
    "cavity": ("modes_*.csv", "clusters_*.csv"),
    "biphoton": ("biphoton.json",),
    "car": ("car_summary.json",),
    "tomo": ("counts.csv",),
    "simulate": ("timetags.ttag", "histogram.csv"),
}

#: metadata.json fields that are times or versions.
UNPINNED_METADATA = ("wall_s", "python", "numpy", "package")


def _run(name: str, root: Path) -> tuple[str, int, Path]:
    """Run ``name`` into root/name; return the name, exit status and directory."""
    if name == "car_fit":
        _run("car", root)
    out = root / name
    args = [arg.format(car=root / "car") for arg in RUNS[name]]
    return name, main(["--seed", "5", "--out", str(out), *args]), out


def _cell(text: str):
    """A CSV cell as an int or a finite float where it reads as one."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        return value if math.isfinite(value) else text
    return text


def _snapshot(name: str, code: int, out: Path) -> dict:
    """The table entry of one run's exit status and output directory."""
    entry = {"exit_status": code, "sha256": {}, "values": {}}
    for path in sorted(out.iterdir()):
        if path.is_dir():  # a report stage's, the standalone run of that stage
            continue
        if path.name == "metadata.json":
            meta = json.loads(path.read_text())
            entry["metadata_keys"] = sorted(meta)
            entry["metadata"] = {k: v for k, v in meta.items() if k not in UNPINNED_METADATA}
        elif any(fnmatch.fnmatch(path.name, pattern) for pattern in HASHED.get(name, ())):
            entry["sha256"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.suffix == ".json":
            entry["values"][path.name] = json.loads(path.read_text())
        else:
            with open(path, newline="") as fh:
                entry["values"][path.name] = [[_cell(c) for c in row] for row in csv.reader(fh)]
    return entry


def _first_difference(expected, actual, where: str = "", abs_tol: float = 0.0):
    """Where ``actual`` first departs from ``expected``, or None.  A CSV row
    is the index after the artifact's name, the header being row 0."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return f"{where} keys: {sorted(expected)} != {sorted(actual)}"
        pairs = ((f"{where}[{key!r}]", expected[key], actual[key], ROUND_OFF.get(key, 0.0))
                 for key in sorted(expected))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{where}: {len(expected)} items != {len(actual)}"
        pairs = ((f"{where}[{i}]", e, a, abs_tol)
                 for i, (e, a) in enumerate(zip(expected, actual)))
    else:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (expected, actual))
        same = (math.isclose(expected, actual, rel_tol=RTOL, abs_tol=abs_tol) if numbers
                else type(expected) is type(actual) and expected == actual)
        return None if same else f"{where}: {expected!r} != {actual!r}"
    return next((found for path, e, a, tol in pairs
                 if (found := _first_difference(e, a, path, tol)) is not None), None)


@pytest.fixture(scope="module")
def golden():
    table = json.loads(GOLDEN.read_text())
    assert sorted(table) == sorted(RUNS)
    return table


@pytest.mark.parametrize("name", RUNS)
def test_seed5_run_matches_the_golden_table(golden, tmp_path, name):
    difference = _first_difference(golden[name], _snapshot(*_run(name, tmp_path)))
    assert difference is None, f"{name}: {difference}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_stages_are_the_standalone_runs(tmp_path, fmt):
    def files(out):
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*")
                if p.is_file() and p.name != "metadata.json"}

    report = tmp_path / "report"
    assert main(["--seed", "5", "--format", fmt, "--out", str(report), "report"]) == 0
    stages = {}
    for stage in REPORT_STAGES:
        out = tmp_path / stage
        assert main(["--seed", "5", "--format", fmt, "--out", str(out), stage]) == 0
        stages.update((f"{stage}/{name}", data) for name, data in files(out).items())
    nested = {name: data for name, data in files(report).items() if "/" in name}
    assert sorted(nested) == sorted(stages)
    assert [name for name in stages if nested[name] != stages[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: _snapshot(*_run(name, Path(tmp))) for name in RUNS}
    # a list that holds no list or object goes on one line, so a CSV row is
    # one line; JSON strings hold no raw newline, so no value changes
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: re.sub(r"\n\s*", "", m.group()),
                  json.dumps(table, indent=1, sort_keys=True))
    GOLDEN.write_text(text + "\n")
