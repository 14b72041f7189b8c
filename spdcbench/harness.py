"""Measurement core of the benchmark: operation accounting, spans and their
self times, order statistics, child processes and the environment record.

Nothing here imports the package under test, so a checkout without it fails
in ``run.py`` before any work starts.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Exceptions by which a library call reports that it failed.
LIBRARY_ERRORS = (ValueError, RuntimeError)


class OpFailed(Exception):
    """Raised after a failed operation so that the steps depending on its
    result are skipped; the failure itself is already counted."""


@dataclass
class Span:
    unit: int
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None


@dataclass
class Recorder:
    """Counts operations and failures; records spans while ``tracing``.

    An operation is one call into a public function of the package, made
    through :meth:`call`.  It fails when it raises one of LIBRARY_ERRORS or
    when an operation nested in it failed; callers report other failures
    the package signals (an unconverged fit) through :meth:`fail`.
    Failures are counted, never retried.  Attempts and failures are kept
    per unit; :func:`pool_accounting` makes the run's counts from them.
    """

    tracing: bool = False
    unit: int = 0
    attempts: dict = field(default_factory=lambda: defaultdict(int))
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    def call(self, name, fn, *args, **kwargs):
        self.attempts[self.unit] += 1
        span = None
        if self.tracing:
            span = Span(self.unit, name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self.note(name, "calls", 1)
            span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except LIBRARY_ERRORS as exc:
            self.fail(name, f"{type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        except OpFailed:
            self.fail(name, "aborted by a failed inner operation")
            raise
        finally:
            if span is not None:
                span.end = time.perf_counter()
                self._stack.pop()
        return result

    def fail(self, name: str, message: str) -> None:
        self.failures.append({"unit": self.unit, "op": name, "message": message})
        self.counters[(self.unit, f"{name}.failed")] += 1

    def note(self, name: str, key: str, value: float) -> None:
        """Add a count measured at a layer boundary (traced units only)."""
        if self.tracing:
            self.counters[(self.unit, f"{name}.{key}")] += value


def pool_accounting(run: Recorder, pool: int):
    """Attempts, failures and problems of a run whose unit *u* repeats the
    inputs of unit ``u % pool``.

    Each distinct input is counted once, in units ``0 .. pool-1``, so that
    two runs with the same seed report the same counts however many units
    fit in their time.  The package is deterministic, so a repeat must
    attempt and fail exactly what its first run did; a repeat that does
    not is a problem.
    """
    def outcome(unit):
        return run.attempts[unit], [(f["op"], f["message"]) for f in run.failures if f["unit"] == unit]

    attempted = sum(run.attempts[u] for u in range(pool))
    failures = [f for f in run.failures if f["unit"] < pool]
    problems = [f"unit {u}: repeating the inputs of unit {u % pool} gave other attempts or failures"
                for u in range(pool, run.unit) if outcome(u) != outcome(u % pool)]
    return attempted, failures, problems


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[i]):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans) -> dict:
    """Summed duration (``<name>.s``) and self time (``<name>.self_s``) of
    the spans of each name, keyed by (unit, metric name)."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[(span.unit, f"{span.name}.s")] += span.end - span.start
        totals[(span.unit, f"{span.name}.self_s")] += own
    return totals


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "samples": n}


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def run_child(argv, stdout_path, stderr_path, timeout_s: float):
    """Run one child process to completion and return its wall time in
    seconds, exit code and peak resident memory in MB (from ``wait4``)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        deadline = start + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, keyed by the library's package."""
    out = {}
    for module_name in ("numpy", "scipy"):
        module = sys.modules.get(module_name)
        if module is None:
            continue
        libs_dir = os.path.join(os.path.dirname(module.__file__), os.pardir, f"{module_name}.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[module_name] = fn()
                    break
    return out


def environment(root, src_dir) -> dict:
    """Revision, versions and parallelism of the run, for every result."""
    import numpy
    import scipy

    try:
        # the ceiling keeps git from searching the directories above the checkout
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
                             ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None  # a checkout without git metadata
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "cavityspdc", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }
