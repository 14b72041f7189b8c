"""Calibration of the reported uncertainties: each estimator's error bar is
checked against the spread it claims over a fixed list of seeds.

Every bound sits 4 standard errors from its ideal value, for a
false-failure rate of about 6e-5 each under a normal approximation.  The
seeds and bounds were fixed before the first run; a failure means the
estimator is miscalibrated, not that a bound or a seed needs moving.
"""

import math

import numpy as np

from cavityspdc import cli, measurement, polarization
from cavityspdc.config import default_config

DEFAULT = default_config()


def test_sweep_fit_fwhm_err_matches_the_fit_spread():
    # z = (fitted - configured fwhm) / fwhm_err over the CLI's sweep of the
    # ppktp0 H line; a calibrated error makes z a unit normal.  Standard
    # errors: 1/sqrt(N) on the mean, 1/sqrt(2(N - 1)) on the std.
    spec = dict(DEFAULT.crystals())["ppktp0"]
    configured = spec.fwhm_mhz("H")
    z = []
    for seed in range(200):
        _, fit = cli._sweep_fit(spec, "H", np.random.default_rng(seed))
        z.append((fit["fwhm_mhz"] - configured) / fit["fwhm_err_mhz"])
    n = len(z)
    assert abs(np.mean(z)) <= 4.0 / math.sqrt(n)
    assert abs(np.std(z, ddof=1) - 1.0) <= 4.0 / math.sqrt(2.0 * (n - 1))


def test_fidelity_bootstrap_std_matches_the_seed_spread():
    # The spread of the MLE fidelity over observed records, against the mean
    # bootstrap std of each record's own 200 resamples, at 10k counts per
    # setting.  The ratio's standard error is about 1/sqrt(2(N - 1)) from the
    # spread over N records.
    state = polarization.degraded_state(DEFAULT.pump_phase_rad, DEFAULT.coherence)
    target = polarization.entangled_ket(DEFAULT.pump_phase_rad)

    def fidelity_of_mle(rec):
        return measurement.fidelity(measurement.tomo_mle(rec), target)

    fidelities, stds = [], []
    for seed in range(40):
        rec = measurement.tomo_simulate_counts(state, 10_000, seed)
        fidelities.append(fidelity_of_mle(rec))
        stds.append(measurement.bootstrap_errors(rec, 200, fidelity_of_mle, seed=seed).std)
    n = len(fidelities)
    ratio = np.std(fidelities, ddof=1) / np.mean(stds)
    assert abs(ratio - 1.0) <= 4.0 / math.sqrt(2.0 * (n - 1))
