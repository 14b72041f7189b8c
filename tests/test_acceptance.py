"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold, so running
`pytest tests/test_acceptance.py -v -s` gives a one-line-per-criterion
summary.  Independent oracles are kept inline where a criterion demands a
second route to the same number.
"""

import math
import time

import numpy as np
import pytest

from cavityspdc import (
    PHI_SETTINGS,
    BiphotonParams,
    Histogram,
    SourceRate,
    car_from_stream,
    car_model,
    chsh_S,
    chsh_max,
    cluster_spacing,
    coincidence_histogram,
    count_coincidences,
    default_config,
    degraded_state,
    displacer_network,
    entangled_ket,
    fidelity,
    fit_car_curve,
    fit_exp_g2,
    fit_lorentzian,
    interference_curve,
    pair_rate,
    propagate_network,
    simulate_timetags,
    spectral_overlap,
    state_fidelity,
    t_fwhm_ns,
    tomo_mle,
    tomo_simulate_counts,
)
from cavityspdc.config import car_curve_reference
from cavityspdc.fitting import exp_decay, lorentzian
from cavityspdc.measurement import bootstrap_errors

CFG = default_config()
BP0 = BiphotonParams.from_cavity(CFG.ppktp0)
BP1 = BiphotonParams.from_cavity(CFG.ppktp1)
COHERENCE = 0.8709


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_c01_cluster_spacing():
    assert cluster_spacing(57.91, 54.91) == pytest.approx(1060.0, rel=0.01)
    assert cluster_spacing(57.41, 54.91) == pytest.approx(1260.0, rel=0.01)
    _report("01 cluster-spacing 1.06/1.26 THz")


def test_c02_biphoton_fwhm():
    assert t_fwhm_ns(BP0) == pytest.approx(0.483, rel=0.005)
    assert t_fwhm_ns(BP1) == pytest.approx(0.550, rel=0.005)
    _report("02 correlation FWHM 0.483/0.550 ns")


def test_c03_spectral_overlap():
    overlap = spectral_overlap(BP0, BP1)
    assert overlap == pytest.approx(0.879, abs=0.005)
    assert overlap == pytest.approx(0.88, abs=0.005)
    _report("03 spectral overlap 0.879")


def test_c04_chsh():
    """Optimized and fixed-settings CHSH values for the degraded state.

    The four-angle optimum of E = cos2a cos2b - c sin2a sin2b is
    2 sqrt(1 + c^2) (the c = 0 separable case, max S = 2 exactly, pins this
    form); the widely used fixed settings for the ideal target family give
    sqrt(2)(1 + c) = 2.6462.  Both values must sit inside the reference
    band 2.639 +- 0.048, and the optimizer must agree with an exhaustive
    0.5 degree grid oracle evaluated through the Born-rule probabilities.
    """
    c = COHERENCE
    state = degraded_state(math.pi, c)

    result = chsh_max(state)
    analytic_max = 2.0 * math.sqrt(1.0 + c * c)
    assert abs(result.s_value - analytic_max) < 1e-3

    s_fixed = chsh_S(state, PHI_SETTINGS)
    assert abs(s_fixed - math.sqrt(2.0) * (1.0 + c)) < 1e-9
    assert abs(s_fixed - 2.6462) < 1e-3

    for value in (result.s_value, s_fixed):
        assert abs(value - 2.639) < 0.048

    # independent grid oracle: Born-rule probabilities, exhaustive 0.5 deg
    grid = np.arange(0.0, 180.0, 0.5)
    rho_t = state.rho.reshape(2, 2, 2, 2)

    def prob_matrix(shift_a, shift_b):
        rad_a = np.radians(grid + shift_a)
        rad_b = np.radians(grid + shift_b)
        a = np.stack([np.cos(rad_a), np.sin(rad_a)], axis=1).astype(complex)
        b = np.stack([np.cos(rad_b), np.sin(rad_b)], axis=1).astype(complex)
        return np.real(
            np.einsum("ai,bj,ijkl,ak,bl->ab", a.conj(), b.conj(), rho_t, a, b)
        )

    e_grid = (
        prob_matrix(0.0, 0.0)
        + prob_matrix(90.0, 90.0)
        - prob_matrix(0.0, 90.0)
        - prob_matrix(90.0, 0.0)
    )
    best = -np.inf
    for jb in range(grid.size):
        col = e_grid[:, jb][:, None]
        tot = (col - e_grid).max(axis=0) + (col + e_grid).max(axis=0)
        best = max(best, float(tot.max()))
    assert abs(result.s_value - best) < 1e-3
    _report("04 CHSH 2.6521 optimized / 2.6459 fixed settings, grid oracle")


def test_c05_visibility_contract():
    beta = np.arange(0.0, 361.0, 10.0)
    for c in (0.0, 0.5, COHERENCE, 1.0):
        state = degraded_state(math.pi, c)
        v0 = interference_curve(state, 0.0, beta)
        v45 = interference_curve(state, 45.0, beta)
        assert v0.visibility == pytest.approx(1.0, abs=1e-6)
        assert v45.visibility == pytest.approx(c, abs=1e-6)
        if c == 0.0:
            assert v45.degenerate
    _report("05 visibility V(0)=1, V(45)=c")


def test_c06_fidelity_chain():
    # model ceiling for the measured 0.907 +- 0.006: unmodeled imperfections
    # (accidentals, imbalance) are deliberately left out of the state model
    state = degraded_state(math.pi, COHERENCE)
    f = fidelity(state, entangled_ket(math.pi))
    assert f == pytest.approx((1.0 + COHERENCE) / 2.0, abs=1e-6)
    assert f == pytest.approx(0.9355, abs=1e-4)
    assert f > 0.907
    _report("06 fidelity ceiling 0.9355")


def test_c07_tomography_recovery():
    truth = degraded_state(math.pi, 0.88)
    start = time.monotonic()
    good = 0
    for seed in range(100):
        rec = tomo_simulate_counts(truth, 10_000, seed=seed)
        rho_hat = tomo_mle(rec)
        assert np.linalg.eigvalsh(rho_hat.rho).min() >= -1e-12  # physical by construction
        if state_fidelity(rho_hat, truth) >= 0.995:
            good += 1
    elapsed = time.monotonic() - start
    assert good >= 95
    assert elapsed < 60.0
    _report(f"07 tomography recovery {good}/100 in {elapsed:.1f}s")


def test_c08_monte_carlo_consistency():
    duration = 10.0
    seed = 5
    stream = simulate_timetags(CFG.source, BP0, CFG.chain, duration, seed=seed)
    again = simulate_timetags(CFG.source, BP0, CFG.chain, duration, seed=seed)
    assert stream == again  # bit-reproducible

    rate = pair_rate(CFG.source)
    model = car_model(rate, CFG.chain)
    assert model > 6e3

    car_mc = car_from_stream(stream, CFG.chain, CFG.accidental_offset_ns)
    assert car_mc > 6e3

    # count-level agreement with the analytic model, 3 sigma Poisson
    lam_peak = CFG.chain.eta_s * CFG.chain.eta_i * rate * duration
    lam_acc = (
        (CFG.chain.eta_s * rate + CFG.chain.dark_s_per_s)
        * (CFG.chain.eta_i * rate + CFG.chain.dark_i_per_s)
        * CFG.chain.window_ns
        * 1e-9
        * duration
    )
    peak = count_coincidences(stream, 0.0, CFG.chain.window_ns)
    acc = count_coincidences(stream, CFG.accidental_offset_ns, CFG.chain.window_ns)
    assert abs(peak - lam_peak) < 3.0 * math.sqrt(lam_peak)
    assert abs(acc - lam_acc) < 3.0 * math.sqrt(lam_acc) + 1.0
    _report(f"08 monte-carlo CAR {car_mc:.0f} vs model {model:.0f}")


def test_c09_fit_exactness():
    x = np.linspace(-2000.0, 2000.0, 201)
    fit = fit_lorentzian(x, lorentzian(x, 11.0, 454.0, 0.9, 0.03))
    assert fit.parameters["fwhm"] == pytest.approx(454.0, rel=1e-4)
    assert fit.parameters["center"] == pytest.approx(11.0, abs=1e-3)

    centers = np.arange(-200, 201) * 25
    gfit = fit_exp_g2(
        Histogram(centers, exp_decay(centers * 1e-3, 0.45798, 1000.0, 10.0))
    )
    assert gfit.parameters["gamma_ghz"] == pytest.approx(0.45798, rel=1e-4)

    powers = np.logspace(math.log10(0.5), math.log10(250.0), 25)
    norm, knee_s, knee_i = car_curve_reference(CFG.source, CFG.chain)
    # the exact reduced curve P / (norm (P + knee_s) (P + knee_i))
    cfit = fit_car_curve(powers, powers / (norm * (powers + knee_s) * (powers + knee_i)))
    assert cfit.parameters["norm_per_mw"] == pytest.approx(norm, rel=1e-4)
    assert cfit.parameters["knee_s_mw"] == pytest.approx(knee_s, rel=1e-4)
    assert cfit.parameters["knee_i_mw"] == pytest.approx(knee_i, rel=1e-4)

    fitted = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = lorentzian(x, 0.0, 384.0, 1.0, 0.0) + rng.normal(0.0, 0.05, x.size)
        fitted.append(fit_lorentzian(x, noisy).parameters["fwhm"])
    bias = abs(np.mean(fitted) - 384.0) / 384.0
    assert bias <= 0.01
    _report(f"09 fit exactness, lorentzian noise bias {bias * 100:.2f}%")


def test_c10_g2_pipeline():
    src = SourceRate(
        CFG.source.brightness_per_s_mw_mhz, 75.0, CFG.source.bandwidth_mhz
    )
    values = []
    for seed in (1, 2, 3):
        stream = simulate_timetags(src, BP0, CFG.chain, 10.0, seed=seed)
        hist = coincidence_histogram(stream, 10.0, CFG.chain.bin_ps)
        fit = fit_exp_g2(hist)
        assert fit.converged
        values.append(fit.derived["t_fwhm_ns"])
    for value in values:
        assert 0.483 <= value <= 0.52
    _report(f"10 g2 pipeline T_FWHM {['%.3f' % v for v in values]} ns")


def test_c11_network_oracle():
    net = displacer_network()
    worst = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 32):
        got = propagate_network(net, theta)
        expected = degraded_state(theta, 1.0)
        worst = max(worst, float(np.linalg.norm(got.rho - expected.rho)))
    assert worst < 1e-10
    _report(f"11 displacer network vs ideal, frobenius {worst:.2e}")


def test_c12_bootstrap_scaling():
    """Bootstrap error bars: 1/sqrt(n) scaling and the significance check.

    Quadrupling the tomography counts must halve the bootstrapped fidelity
    standard deviation within 20%.  Sizing the counts so the CHSH standard
    deviation lands at 0.048 must reproduce the reference significance of
    roughly (S - 2)/0.048 = 13 standard deviations; S here is evaluated at
    the fixed target-family settings, matching how a four-setting Bell
    measurement is actually error-propagated.
    """
    truth = degraded_state(math.pi, COHERENCE)
    target = entangled_ket(math.pi)

    def fidelity_stat(rec):
        return fidelity(tomo_mle(rec), target)

    rec_n = tomo_simulate_counts(truth, 2_000, seed=11)
    rec_4n = tomo_simulate_counts(truth, 8_000, seed=11)
    boot_n = bootstrap_errors(rec_n, 500, fidelity_stat, seed=1)
    boot_4n = bootstrap_errors(rec_4n, 500, fidelity_stat, seed=2)
    ratio = boot_4n.std / boot_n.std
    assert 0.4 <= ratio <= 0.6  # within 20% of exact halving

    def s_stat(rec):
        return chsh_S(tomo_mle(rec), PHI_SETTINGS)

    s_model = chsh_S(truth, PHI_SETTINGS)
    pilot_n = 500
    pilot = bootstrap_errors(
        tomo_simulate_counts(truth, pilot_n, seed=3), 200, s_stat, seed=4
    )
    sized_n = max(int(round(pilot_n * (pilot.std / 0.048) ** 2)), 50)
    boot_s = bootstrap_errors(
        tomo_simulate_counts(truth, sized_n, seed=5), 500, s_stat, seed=6
    )
    assert abs(boot_s.std - 0.048) <= 0.006
    significance = (s_model - 2.0) / boot_s.std
    assert 11.5 <= significance <= 15.5
    _report(
        f"12 bootstrap: std ratio {ratio:.3f}, sigma_S {boot_s.std:.4f}, "
        f"significance {significance:.1f}"
    )
