import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityspdc import (
    BiphotonParams,
    Histogram,
    airy_transmission,
    coincidence_histogram,
    default_config,
    fit_car_curve,
    fit_exp_g2,
    fit_lorentzian,
    simulate_timetags,
)
from cavityspdc.config import car_curve_reference
from cavityspdc.fitting import (
    _fd_jacobian,
    damped_least_squares,
    exp_decay,
    lorentzian,
)

X_MHZ = np.linspace(-2000.0, 2000.0, 201)
CENTERS_PS = np.arange(-200, 201) * 25


def car_curve(power_mw, norm_per_mw: float, knee_s_mw: float, knee_i_mw: float):
    """The reduced CAR curve P / (norm * (P + knee_s) * (P + knee_i)) that
    fit_car_curve fits."""
    p = np.asarray(power_mw, dtype=float)
    return p / (norm_per_mw * (p + knee_s_mw) * (p + knee_i_mw))


def lorentzian_gradient(x, center: float, fwhm: float, amplitude: float, offset: float):
    """Analytic partials (d/dcenter, d/dfwhm, d/damplitude, d/doffset)."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * abs(fwhm)
    denom = (x - center) ** 2 + half**2
    d_center = amplitude * half**2 * 2.0 * (x - center) / denom**2
    d_fwhm = amplitude * (half * denom - half**3) / denom**2 * np.sign(fwhm)
    d_amp = half**2 / denom
    d_off = np.ones_like(x)
    return np.stack([d_center, d_fwhm, d_amp, d_off], axis=1)


def lorentzian_samples(center=0.0, fwhm=454.0, amplitude=1.0, offset=0.0):
    return lorentzian(X_MHZ, center, fwhm, amplitude, offset)


class TestEngine:
    def test_finite_difference_matches_analytic_lorentzian(self):
        params = np.array([37.0, 420.0, 0.9, 0.05])
        y = np.zeros_like(X_MHZ)

        def residual(p):
            return lorentzian(X_MHZ, *p) - y

        numeric = _fd_jacobian(residual, params, residual(params))
        analytic = lorentzian_gradient(X_MHZ, *params)
        np.testing.assert_allclose(numeric, analytic, rtol=2e-4, atol=1e-7)

    def test_quadratic_bowl_converges(self):
        target = np.array([3.0, -2.0])

        def residual(p):
            return p - target

        params, cov, cost, ok, iters, msg = damped_least_squares(
            residual, np.zeros(2)
        )
        assert ok
        np.testing.assert_allclose(params, target, atol=1e-8)

    def test_non_finite_initial_guess_rejected(self):
        def residual(p):
            return np.array([math.inf])

        with pytest.raises(ValueError):
            damped_least_squares(residual, np.array([1.0]))


class TestFitLorentzian:
    def test_exact_recovery(self):
        fit = fit_lorentzian(X_MHZ, lorentzian_samples(fwhm=454.0))
        assert fit.converged
        assert fit.parameters["fwhm"] == pytest.approx(454.0, rel=1e-6)

    def test_bias_below_one_percent_at_five_percent_noise(self):
        fitted = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = lorentzian_samples(fwhm=384.0) + rng.normal(0.0, 0.05, X_MHZ.size)
            fitted.append(fit_lorentzian(X_MHZ, y).parameters["fwhm"])
        assert abs(np.mean(fitted) - 384.0) / 384.0 <= 0.01

    def test_reported_errors_track_monte_carlo_scatter(self):
        fitted, reported = [], []
        for seed in range(100):
            rng = np.random.default_rng(1_000 + seed)
            y = lorentzian_samples(fwhm=384.0) + rng.normal(0.0, 0.05, X_MHZ.size)
            fit = fit_lorentzian(X_MHZ, y)
            fitted.append(fit.parameters["fwhm"])
            reported.append(fit.errors["fwhm"])
        ratio = np.std(fitted) / np.mean(reported)
        assert 1.0 / 1.5 <= ratio <= 1.5

    def test_airy_sweep_within_two_percent(self):
        x = np.linspace(-908.0, 908.0, 301)  # MHz, +-2 linewidths
        y = airy_transmission(x * 1e-3, 57.91, 454.0)
        fit = fit_lorentzian(x, y)
        assert fit.converged
        assert fit.parameters["fwhm"] == pytest.approx(454.0, rel=0.02)

    def test_needs_five_samples(self):
        with pytest.raises(ValueError):
            fit_lorentzian([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])

    def test_needs_two_linewidths_of_span(self):
        x = np.linspace(-100.0, 100.0, 50)
        with pytest.raises(ValueError, match="linewidths"):
            fit_lorentzian(x, lorentzian(x, 0.0, 454.0, 1.0, 0.0))

    @given(
        shift=st.floats(-500.0, 500.0),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_translation_and_scale_covariance(self, shift, scale):
        rng = np.random.default_rng(11)
        y = lorentzian_samples(fwhm=454.0, amplitude=1.0, offset=0.1)
        y = y + rng.normal(0.0, 0.02, y.size)
        base = fit_lorentzian(X_MHZ, y)
        moved = fit_lorentzian(X_MHZ + shift, scale * y)
        assert moved.parameters["fwhm"] == pytest.approx(
            base.parameters["fwhm"], rel=1e-6
        )
        assert moved.parameters["center"] == pytest.approx(
            base.parameters["center"] + shift, abs=1e-3
        )
        assert moved.parameters["amplitude"] == pytest.approx(
            scale * base.parameters["amplitude"], rel=1e-6
        )


class TestFitExpG2:
    def test_exact_recovery_of_correlation_width(self):
        hist = Histogram(
            bin_centers_ps=CENTERS_PS,
            counts=exp_decay(CENTERS_PS * 1e-3, 0.45798, 1000.0, 10.0),
        )
        fit = fit_exp_g2(hist)
        assert fit.converged
        assert fit.parameters["gamma_ghz"] == pytest.approx(0.45798, rel=1e-6)
        assert fit.derived["t_fwhm_ns"] == pytest.approx(0.483, abs=1e-4)

    def test_flat_histogram_fails(self):
        hist = Histogram(
            bin_centers_ps=CENTERS_PS, counts=np.full(CENTERS_PS.size, 50.0)
        )
        fit = fit_exp_g2(hist)
        assert not fit.converged

    def test_insignificant_excess_is_not_fitted(self):
        # a bump of 300 counts over a floor of 50 per bin is less than
        # 5 * sqrt(total) = 5 * sqrt(20350) ~ 713
        counts = np.full(CENTERS_PS.size, 50.0)
        counts[CENTERS_PS.size // 2] += 300.0
        fit = fit_exp_g2(Histogram(CENTERS_PS, counts))
        assert not fit.converged
        assert fit.message.startswith("no significant peak")
        assert fit.iterations == 0

    def test_pure_noise_is_never_fitted(self):
        # flat Poisson(50) histograms: the floor estimate's own error enters
        # the excess once per bin and must count against it
        for seed in range(100):
            counts = np.random.default_rng(seed).poisson(50, CENTERS_PS.size)
            fit = fit_exp_g2(Histogram(CENTERS_PS, counts))
            assert fit.message.startswith("no significant peak"), seed
            assert fit.iterations == 0

    @pytest.mark.parametrize("seed", [9, 31, 38])
    def test_peak_on_a_negative_delay_bin_converges(self, seed):
        # at 150 mW x 1 s these records put their noisy maximum left of zero
        # delay, where a half-maximum start value used to collapse the fit
        cfg = default_config()
        stream = simulate_timetags(cfg.source, BiphotonParams.from_cavity(cfg.ppktp0),
                                   cfg.chain, 1.0, seed)
        hist = coincidence_histogram(stream, cfg.histogram_range_ns, cfg.chain.bin_ps)
        assert hist.bin_centers_ps[np.argmax(hist.counts)] < 0
        fit = fit_exp_g2(hist)
        assert fit.converged, fit.message
        assert 0.4 < fit.derived["t_fwhm_ns"] < 0.6

    def test_needs_enough_bins(self):
        centers = np.arange(-5, 6) * 25
        with pytest.raises(ValueError, match="bins"):
            fit_exp_g2(Histogram(centers, np.ones(centers.size)))

    def test_needs_symmetric_range(self):
        centers = np.arange(0, 40) * 25
        with pytest.raises(ValueError, match="symmetric"):
            fit_exp_g2(Histogram(centers, np.ones(centers.size)))

    def test_poisson_noise_recovery(self):
        rng = np.random.default_rng(2)
        truth = exp_decay(CENTERS_PS * 1e-3, 0.45798, 800.0, 5.0)
        hist = Histogram(CENTERS_PS, rng.poisson(truth))
        fit = fit_exp_g2(hist)
        assert fit.parameters["gamma_ghz"] == pytest.approx(0.45798, rel=0.05)


class TestFitCarCurve:
    powers = np.logspace(math.log10(0.5), math.log10(250.0), 25)

    def reference(self):
        cfg = default_config()
        return car_curve_reference(cfg.source, cfg.chain)

    def test_exact_recovery(self):
        norm, knee_s, knee_i = self.reference()
        cars = car_curve(self.powers, norm, knee_s, knee_i)
        fit = fit_car_curve(self.powers, cars)
        assert fit.converged
        assert fit.parameters["norm_per_mw"] == pytest.approx(norm, rel=1e-4)
        assert fit.parameters["knee_s_mw"] == pytest.approx(knee_s, rel=1e-4)
        assert fit.parameters["knee_i_mw"] == pytest.approx(knee_i, rel=1e-4)

    def test_peak_reproduces_tuned_target(self):
        # dark rates chosen so the model peak clears 3e4
        norm, _, _ = self.reference()
        knee = 296.0 / (0.125 * 0.7 * 458.0)
        cars = car_curve(self.powers, norm, knee, knee)
        true_peak = 1.0 / (norm * 4.0 * knee)
        assert true_peak > 3e4
        fit = fit_car_curve(self.powers, cars)
        assert fit.derived["peak_car"] == pytest.approx(true_peak, rel=0.02)

    def test_ten_percent_noise_keeps_peak_within_ten_percent(self):
        norm, knee_s, knee_i = self.reference()
        cars = car_curve(self.powers, norm, knee_s, knee_i)
        true_peak = 1.0 / (norm * (math.sqrt(knee_s) + math.sqrt(knee_i)) ** 2)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = np.clip(
                cars * (1.0 + 0.10 * rng.normal(size=cars.size)), 1e-6, None
            )
            fit = fit_car_curve(self.powers, noisy)
            assert fit.derived["peak_car"] == pytest.approx(true_peak, rel=0.10)

    def test_model_consistency_with_detection_chain(self):
        from cavityspdc import SourceRate, car_model, pair_rate

        cfg = default_config()
        norm, knee_s, knee_i = self.reference()
        for power in self.powers:
            src = SourceRate(
                cfg.source.brightness_per_s_mw_mhz, power, cfg.source.bandwidth_mhz
            )
            assert car_model(pair_rate(src), cfg.chain) == pytest.approx(
                float(car_curve(power, norm, knee_s, knee_i)), rel=1e-12
            )

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_car_curve(self.powers, np.full(self.powers.size, 5.0))

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            fit_car_curve([1.0, 2.0, 3.0], [1.0, 2.0, 1.0])

    def test_asymmetric_knees_recovered_in_order(self):
        cars = car_curve(self.powers, 2e-6, 1.2, 7.5)
        fit = fit_car_curve(self.powers, cars)
        assert fit.parameters["knee_s_mw"] == pytest.approx(1.2, rel=1e-4)
        assert fit.parameters["knee_i_mw"] == pytest.approx(7.5, rel=1e-4)


class TestFitResultContract:
    @pytest.mark.parametrize("fitter", ["lorentzian", "exp_g2", "car_curve"])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_errors_are_the_covariance_diagonal(self, fitter, noise):
        # errors[name]**2 is covariance[i, i] in parameter order, NaN for NaN
        rng = np.random.default_rng(4)
        if fitter == "lorentzian":
            y = lorentzian_samples(fwhm=454.0, offset=0.1)
            fit = fit_lorentzian(X_MHZ, y + noise * rng.normal(size=y.size))
        elif fitter == "exp_g2":
            counts = exp_decay(CENTERS_PS * 1e-3, 0.45798, 1000.0, 10.0)
            if noise:
                counts = rng.poisson(counts)
            fit = fit_exp_g2(Histogram(CENTERS_PS, counts))
        else:
            # the default knees coincide, which gives NaN knee rows; the
            # noisy curve has distinct knees and finite rows
            powers = TestFitCarCurve.powers
            if noise:
                cars = car_curve(powers, 2e-6, 1.2, 7.5)
                cars = cars * (1.0 + noise * rng.normal(size=powers.size))
            else:
                cars = car_curve(powers, *TestFitCarCurve().reference())
            fit = fit_car_curve(powers, cars)
            assert np.isnan(fit.errors["knee_s_mw"]) == (noise == 0.0)
        assert fit.covariance.shape == (len(fit.parameters),) * 2
        np.testing.assert_allclose(
            [fit.errors[name] ** 2 for name in fit.parameters],
            np.diag(fit.covariance), rtol=1e-12, atol=0.0, equal_nan=True,
        )

    def test_covariance_psd_when_converged(self):
        rng = np.random.default_rng(9)
        y = lorentzian_samples(fwhm=454.0) + rng.normal(0.0, 0.03, X_MHZ.size)
        fit = fit_lorentzian(X_MHZ, y)
        assert fit.converged
        assert np.linalg.eigvalsh(fit.covariance).min() >= -1e-12
        assert fit.residual_norm >= 0.0
