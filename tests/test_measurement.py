import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityspdc import (
    PHI_SETTINGS,
    ProjectorSetting,
    TomographyRecord,
    bootstrap_errors,
    chsh_S,
    chsh_max,
    degraded_state,
    entangled_ket,
    fidelity,
    interference_curve,
    state_fidelity,
    tomo_linear,
    tomo_mle,
    tomo_simulate_counts,
)
from cavityspdc import measurement
from cavityspdc.measurement import (
    TOMOGRAPHY_LABELS,
    BellSettings,
    MleFit,
    TomographyError,
    _product_probs,
    bell_projector_settings,
    chsh_from_counts,
    tomo_mle_fit,
)
from cavityspdc.cli import main
from cavityspdc.polarization import TwoPhotonState


def correlation_E(state, a_deg, b_deg):
    """Polarization correlation E(a, b) of two linear analyzers, read from
    the state's Pauli table as chsh_S reads it."""
    return measurement._correlation(measurement._pauli_table(state), a_deg, b_deg)


PHI_MINUS = degraded_state(math.pi, 1.0)
PHI_MINUS_KET = entangled_ket(math.pi)

angles = st.floats(-180.0, 180.0)


def random_pure_state(seed):
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoPhotonState.from_pure(ket)


def assert_density_matrix(rho):
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def certificate_gap(rec, rho) -> float:
    """lambda_max(R) - 1 for the whitened likelihood gradient R at rho, an
    upper bound on how far the per-count log-likelihood is from its maximum."""
    # whitened POVM G^{-1/2} P_k G^{-1/2}, state sigma ~ G^{1/2} rho G^{1/2}
    kets = np.stack([s.product_ket() for s in rec.settings])
    g_val, g_vec = np.linalg.eigh(kets.T @ kets.conj())
    g_sqrt = (g_vec * np.sqrt(g_val)) @ g_vec.conj().T
    g_isqrt = (g_vec / np.sqrt(g_val)) @ g_vec.conj().T
    phi = kets @ g_isqrt.T
    sigma = g_sqrt @ rho @ g_sqrt
    sigma /= np.trace(sigma).real
    probs = np.real(np.einsum("ki,ij,kj->k", phi.conj(), sigma, phi))
    freqs = rec.counts() / rec.counts().sum()
    weights = np.divide(freqs, probs, out=np.zeros(16), where=freqs > 0)
    r = np.einsum("k,ki,kj->ij", weights, phi, phi.conj())
    return float(np.linalg.eigvalsh(r).max() - 1.0)


def grid_oracle_chsh(state) -> float:
    """Exhaustive 0.5-degree maximum of S through Born-rule probabilities,
    independent of the correlation-matrix shortcut."""
    grid = np.arange(0.0, 180.0, 0.5)
    rho_t = state.rho.reshape(2, 2, 2, 2)

    def prob_matrix(shift_a, shift_b):
        rad_a = np.radians(grid + shift_a)
        rad_b = np.radians(grid + shift_b)
        a = np.stack([np.cos(rad_a), np.sin(rad_a)], axis=1)
        b = np.stack([np.cos(rad_b), np.sin(rad_b)], axis=1)
        return np.real(
            np.einsum("ai,bj,ijkl,ak,bl->ab", a.conj(), b.conj(), rho_t, a, b,
                      optimize=True)
        )

    e_grid = (
        prob_matrix(0, 0)
        + prob_matrix(90, 90)
        - prob_matrix(0, 90)
        - prob_matrix(90, 0)
    )
    best = -np.inf
    for jb in range(grid.size):
        col = e_grid[:, jb][:, None]
        tot = (col - e_grid).max(axis=0) + (col + e_grid).max(axis=0)
        best = max(best, float(tot.max()))
    return best


def born_prob(rho, ket_a, ket_b) -> float:
    """Brute-force Born rule <ab|rho|ab>, clipped to [0, 1]."""
    ket = np.kron(ket_a, ket_b)
    return min(max(float(np.real(ket.conj() @ rho @ ket)), 0.0), 1.0)


def setting_prob(state, setting) -> float:
    """<ab|rho|ab> from the setting's product ket, clipped to [0, 1]."""
    ket = setting.product_ket()
    return min(max(float(np.real(ket.conj() @ state.rho @ ket)), 0.0), 1.0)


def linear_ket(angle_deg):
    rad = math.radians(angle_deg)
    return np.array([math.cos(rad), math.sin(rad)], dtype=complex)


def born_curve(rho, alpha, beta):
    """Per-angle Born-rule curve with a least-squares sinusoid
    O + A cos 2b + B sin 2b for its offset, amplitude and visibility."""
    probs = np.array([born_prob(rho, linear_ket(alpha), linear_ket(b)) for b in beta])
    two_b = 2.0 * np.radians(beta)
    design = np.column_stack([np.ones_like(two_b), np.cos(two_b), np.sin(two_b)])
    (offset, a_cos, b_sin), *_ = np.linalg.lstsq(design, probs, rcond=None)
    amplitude = math.hypot(a_cos, b_sin)
    return probs, offset, amplitude, amplitude / offset


def born_correlation(rho, a, b) -> float:
    """E(a, b) from the four projector combinations of two linear analyzers."""
    p = [
        born_prob(rho, linear_ket(a + da), linear_ket(b + db))
        for da, db in ((0, 0), (90, 90), (0, 90), (90, 0))
    ]
    return (p[0] + p[1] - p[2] - p[3]) / sum(p)


def random_mixture(rng, k) -> TwoPhotonState:
    weights = rng.dirichlet(np.ones(rng.integers(1, 5)))
    rho = sum(w * random_pure_state(100 * k + i).rho for i, w in enumerate(weights))
    return TwoPhotonState(0.5 * (rho + rho.conj().T))


def test_pauli_table_forms_match_born_rule_oracle():
    rng = np.random.default_rng(7)
    beta = np.arange(0.0, 361.0, 7.5)
    for k in range(120):
        state = random_mixture(rng, k)
        rho = state.rho
        for label_a, label_b in TOMOGRAPHY_LABELS:
            setting = ProjectorSetting.from_labels(label_a, label_b)
            assert _product_probs(state, [setting])[0] == pytest.approx(
                born_prob(rho, setting.ket0, setting.ket1), abs=1e-12
            )
        a, b, alpha, *bell = rng.uniform(-180.0, 180.0, 7)
        assert _product_probs(state, [ProjectorSetting.linear(a, b)])[0] == pytest.approx(
            born_prob(rho, linear_ket(a), linear_ket(b)), abs=1e-12
        )

        curve = interference_curve(state, alpha, beta)
        probs, offset, amplitude, visibility = born_curve(rho, alpha, beta)
        np.testing.assert_allclose(curve.probs, probs, rtol=0.0, atol=1e-12)
        assert curve.offset == pytest.approx(offset, abs=1e-12)
        assert curve.amplitude == pytest.approx(amplitude, abs=1e-12)
        assert curve.visibility == pytest.approx(visibility, abs=1e-12)

        assert correlation_E(state, a, b) == pytest.approx(
            born_correlation(rho, a, b), abs=1e-12
        )
        ba, bap, bb, bbp = bell
        s_oracle = abs(
            born_correlation(rho, ba, bb)
            - born_correlation(rho, ba, bbp)
            + born_correlation(rho, bap, bb)
            + born_correlation(rho, bap, bbp)
        )
        assert chsh_S(state, BellSettings(*bell)) == pytest.approx(s_oracle, abs=1e-12)


class TestCoincidenceProb:
    @pytest.mark.parametrize("make", [
        lambda: ProjectorSetting([math.nan, 0.0], [1.0, 0.0]),
        lambda: ProjectorSetting([1.0, 0.0], [math.nan, 0.0]),
        lambda: ProjectorSetting.linear(math.nan, 0.0),
    ], ids=["ket0", "ket1", "linear"])
    def test_setting_rejects_a_non_finite_ket(self, make):
        with pytest.raises(ValueError, match="^ket[01] must be normalized$"):
            make()

    def test_phi_minus_hh(self):
        assert _product_probs(
            PHI_MINUS, [ProjectorSetting.linear(0.0, 0.0)]
        )[0] == pytest.approx(0.5)

    def test_phi_minus_cos_squared_law(self):
        assert _product_probs(
            PHI_MINUS, [ProjectorSetting.linear(45.0, 135.0)]
        )[0] == pytest.approx(0.5, abs=1e-12)
        assert _product_probs(
            PHI_MINUS, [ProjectorSetting.linear(45.0, 45.0)]
        )[0] == pytest.approx(0.0, abs=1e-12)

    def test_degraded_diagonal_basis_leakage(self):
        c = 0.8709
        state = degraded_state(math.pi, c)
        assert _product_probs(
            state, [ProjectorSetting.linear(45.0, 45.0)]
        )[0] == pytest.approx((1.0 - c) / 4.0, abs=1e-12)

    @given(alpha=angles, beta=angles, seed=st.integers(0, 1000))
    @settings(max_examples=60)
    def test_probability_bounds(self, alpha, beta, seed):
        state = random_pure_state(seed)
        p = _product_probs(state, [ProjectorSetting.linear(alpha, beta)])[0]
        assert 0.0 <= p <= 1.0

    @given(alpha=angles, beta=angles, seed=st.integers(0, 1000))
    @settings(max_examples=60)
    def test_complete_basis_sums_to_one(self, alpha, beta, seed):
        state = random_pure_state(seed)
        total = sum(
            _product_probs(state, [ProjectorSetting.linear(alpha + da, beta + db)])[0]
            for da in (0.0, 90.0)
            for db in (0.0, 90.0)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestInterferenceCurve:
    beta = np.arange(0.0, 361.0, 10.0)

    def test_h_basis_visibility_is_unity(self):
        curve = interference_curve(degraded_state(math.pi, 0.8709), 0.0, self.beta)
        assert curve.visibility == pytest.approx(1.0, abs=1e-6)
        assert not curve.degenerate

    def test_diagonal_basis_visibility_equals_coherence(self):
        c = 0.8709
        curve = interference_curve(degraded_state(math.pi, c), 45.0, self.beta)
        assert curve.visibility == pytest.approx(c, abs=1e-6)

    def test_zero_coherence_diagonal_curve_is_flat(self):
        curve = interference_curve(degraded_state(math.pi, 0.0), 45.0, self.beta)
        assert curve.visibility == 0.0
        assert curve.degenerate

    def test_grid_requirements(self):
        state = degraded_state(math.pi, 0.9)
        with pytest.raises(ValueError):
            interference_curve(state, 0.0, np.arange(0.0, 60.0, 10.0))
        with pytest.raises(ValueError):
            interference_curve(state, 0.0, [0.0, 45.0, 90.0, 180.0])
        grid = self.beta.copy()
        grid[3] = math.nan
        for alpha, beta in ((math.nan, self.beta), (0.0, grid)):
            with pytest.raises(ValueError, match="^analyzer angles must be finite$"):
                interference_curve(state, alpha, beta)

    @given(c=st.floats(0.05, 1.0), alpha=angles)
    @settings(max_examples=40)
    def test_visibility_between_zero_and_one(self, c, alpha):
        curve = interference_curve(degraded_state(math.pi, c), alpha, self.beta)
        assert -1e-9 <= curve.visibility <= 1.0 + 1e-9


class TestCorrelationE:
    def test_phi_minus_parallel_settings(self):
        # both photons share the same linear polarization, so H/V outcomes
        # are perfectly correlated
        assert correlation_E(PHI_MINUS, 0.0, 0.0) == pytest.approx(1.0)

    def test_product_state(self):
        hh = TwoPhotonState.from_pure([1.0, 0.0, 0.0, 0.0])
        assert correlation_E(hh, 0.0, 0.0) == pytest.approx(1.0)

    def test_matches_analytic_form_on_grid(self):
        c = 0.6
        state = degraded_state(math.pi, c)
        for a in np.linspace(0.0, 180.0, 10):
            for b in np.linspace(0.0, 180.0, 10):
                analytic = math.cos(2 * math.radians(a)) * math.cos(
                    2 * math.radians(b)
                ) - c * math.sin(2 * math.radians(a)) * math.sin(2 * math.radians(b))
                assert correlation_E(state, a, b) == pytest.approx(analytic, abs=1e-9)

    @given(a=angles, b=angles, seed=st.integers(0, 500))
    @settings(max_examples=60)
    def test_bounded(self, a, b, seed):
        assert abs(correlation_E(random_pure_state(seed), a, b)) <= 1.0 + 1e-9


class TestChsh:
    def test_phi_minus_reaches_quantum_bound(self):
        assert chsh_S(PHI_MINUS, PHI_SETTINGS) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9
        )
        assert chsh_max(PHI_MINUS).s_value == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-6
        )

    def test_degraded_state_fixed_settings_value(self):
        c = 0.8709
        state = degraded_state(math.pi, c)
        s = chsh_S(state, PHI_SETTINGS)
        assert s == pytest.approx(math.sqrt(2.0) * (1.0 + c), abs=1e-9)
        assert abs(s - 2.639) < 0.048

    def test_degraded_state_optimized_value(self):
        # the true maximum of E = cos2a cos2b - c sin2a sin2b over four free
        # angles is 2 sqrt(1 + c^2), reached with the b settings tilted by
        # atan(c)/2; the fixed-settings sqrt(2)(1+c) is a lower bound
        c = 0.8709
        result = chsh_max(degraded_state(math.pi, c))
        assert result.s_value == pytest.approx(
            2.0 * math.sqrt(1.0 + c * c), abs=1e-6
        )
        assert result.s_value >= math.sqrt(2.0) * (1.0 + c)

    def test_separable_mixture_caps_at_two(self):
        result = chsh_max(degraded_state(math.pi, 0.0))
        assert result.s_value == pytest.approx(2.0, abs=1e-6)

    def test_optimizer_settings_reproduce_value(self):
        state = degraded_state(math.pi, 0.77)
        result = chsh_max(state)
        assert chsh_S(state, result.settings) == pytest.approx(
            result.s_value, abs=1e-9
        )

    @given(c=st.floats(0.0, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_max_follows_closed_form_in_coherence(self, c):
        result = chsh_max(degraded_state(math.pi, c))
        assert result.s_value == pytest.approx(
            2.0 * math.sqrt(1.0 + c * c), abs=2e-4
        )

    def test_grid_oracle_agreement(self):
        state = degraded_state(math.pi, 0.8709)
        result = chsh_max(state)
        assert abs(result.s_value - grid_oracle_chsh(state)) < 1e-3

    def test_grid_oracle_random_mixtures(self):
        rng = np.random.default_rng(2024)
        for k in range(30):
            weights = rng.dirichlet(np.ones(3))
            rho = sum(
                w * random_pure_state(100 * k + i).rho for i, w in enumerate(weights)
            )
            state = TwoPhotonState(0.5 * (rho + rho.conj().T))
            result = chsh_max(state)
            best = grid_oracle_chsh(state)
            assert result.s_value >= best - 1e-12
            assert result.s_value - best < 1e-3
            assert chsh_S(state, result.settings) == pytest.approx(
                result.s_value, abs=1e-9
            )


class TestBellCounts:
    def test_chsh_from_simulated_counts(self):
        state = degraded_state(math.pi, 0.8709)
        rng = np.random.default_rng(5)
        counts = [
            rng.poisson(200_000 * setting_prob(state, s))
            for s in bell_projector_settings(PHI_SETTINGS)
        ]
        s = chsh_from_counts(counts)
        assert s == pytest.approx(math.sqrt(2.0) * 1.8709, abs=0.02)

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            chsh_from_counts([0] * 16)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_count_rejected(self, bad):
        # unchecked, a count of -1 would give S = 1.0 and a NaN or infinite one S = nan
        with pytest.raises(ValueError, match="^counts must be finite and non-negative$"):
            chsh_from_counts([bad] + [1] * 15)

    def test_fractional_count_rejected(self):
        # counts are checked as a record's are, so 1.5 is no count here either
        with pytest.raises(ValueError, match="^counts must be whole numbers within int64$"):
            chsh_from_counts([1.5] + [1] * 15)


class TestTomographySimulation:
    def test_product_state_concentrates_counts(self):
        hh = TwoPhotonState.from_pure([1.0, 0.0, 0.0, 0.0])
        rec = tomo_simulate_counts(hh, 1_000_000, seed=0)
        by_label = {
            (s.label_a, s.label_b): n for s, n in zip(rec.settings, rec.counts())
        }
        assert abs(by_label[("H", "H")] - 1_000_000) < 5_000  # 5 sigma
        assert by_label[("V", "V")] == 0

    def test_counts_scale_linearly(self):
        state = degraded_state(math.pi, 0.9)
        rec1 = tomo_simulate_counts(state, 10_000, seed=1)
        rec2 = tomo_simulate_counts(state, 20_000, seed=1)
        total1 = rec1.counts().sum()
        total2 = rec2.counts().sum()
        assert total2 == pytest.approx(2.0 * total1, rel=0.02)

    def test_seed_mean_converges_to_expectation(self):
        state = degraded_state(math.pi, 0.9)
        n = 10_000
        sums = np.zeros(16)
        n_seeds = 100
        for seed in range(n_seeds):
            sums += tomo_simulate_counts(state, n, seed=seed).counts()
        means = sums / n_seeds
        for mean, (label_a, label_b) in zip(means, TOMOGRAPHY_LABELS):
            lam = n * setting_prob(
                state, ProjectorSetting.from_labels(label_a, label_b)
            )
            assert abs(mean - lam) < 3.0 * math.sqrt(max(lam, 1.0) / n_seeds)

    def test_record_requires_16_entries(self):
        state = degraded_state(math.pi, 0.9)
        rec = tomo_simulate_counts(state, 100, seed=0)
        with pytest.raises(ValueError):
            TomographyRecord(rec.settings[:15], rec.seconds[:15], rec.counts()[:15])
        with pytest.raises(ValueError, match="16 settings and times"):
            TomographyRecord(rec.settings, rec.seconds[:15], rec.counts())
        with pytest.raises(ValueError, match="16 counts"):
            TomographyRecord(rec.settings, rec.seconds, rec.counts()[:15])

    def test_with_counts_validates_counts(self):
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.9), 100, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            rec.with_counts([-1] + [5] * 15)
        with pytest.raises(ValueError, match="16"):
            rec.with_counts([5] * 15)
        # unchecked, 1.5 would be truncated to 1 and 1e30 cast to -9.22e18
        for bad, message in ((math.nan, "^counts must be finite and non-negative$"),
                             (math.inf, "^counts must be finite and non-negative$"),
                             (1.5, "^counts must be whole numbers within int64$"),
                             (1e30, "^counts must be whole numbers within int64$"),
                             (2.0**63, "^counts must be whole numbers within int64$")):
            for make in (rec.with_counts,
                         lambda c: TomographyRecord(rec.settings, rec.seconds, c)):
                with pytest.raises(ValueError, match=message):
                    make([bad] + [1] * 15)
        np.testing.assert_array_equal(rec.with_counts(range(16)).counts(), np.arange(16))
        np.testing.assert_array_equal(rec.with_counts([2.0] * 16).counts(), np.full(16, 2.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_entry_rejects_bad_integration_time(self, bad):
        # one bad entry among the 16 integration times
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.9), 100, seed=0)
        seconds = np.ones(16)
        seconds[3] = bad
        with pytest.raises(ValueError, match="integration time"):
            TomographyRecord(rec.settings, seconds, rec.counts())

    def test_record_seconds_are_read_only(self):
        # records made by with_counts share the times and the projectors
        # built from them
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.9), 100, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            rec.seconds[0] = 2.0

    def test_non_ic_settings_rejected(self):
        setting = ProjectorSetting.from_labels("H", "H")
        rec = TomographyRecord([setting] * 16, np.ones(16), [5] * 16)
        np.testing.assert_array_equal(rec.counts(), np.full(16, 5.0))
        for estimator in (tomo_linear, tomo_mle):
            with pytest.raises(TomographyError, match="informationally complete"):
                estimator(rec)

    def test_with_counts_shares_projectors_and_completeness(self, monkeypatch):
        # the whitened POVM belongs to the settings stack and the times: it is
        # built at the first fit, not with the record, and shared by every
        # record with those settings and times
        whitened_povm, built = measurement._whitened_povm, []

        def counted(settings, seconds):
            built.append(settings)
            return whitened_povm(settings, seconds)

        monkeypatch.setattr(measurement, "_whitened_povm", counted)
        first = tomo_simulate_counts(PHI_MINUS, 100, seed=0)
        second = tomo_simulate_counts(PHI_MINUS, 200, seed=1)
        child = first.with_counts(range(16))
        assert child.settings is first.settings and child.seconds is first.seconds
        bell = tomo_simulate_counts(
            PHI_MINUS, 100, seed=0, settings=bell_projector_settings(PHI_SETTINGS)
        )
        bell_child = bell.with_counts(range(16))
        assert built == []
        povm = first._complete_povm()
        assert second._complete_povm() is povm and child._complete_povm() is povm
        # the rank-9 Bell settings build no POVM and fail at the fit
        for rec in (bell, bell_child):
            with pytest.raises(TomographyError,
                               match="^projector settings are not informationally complete$"):
                tomo_mle(rec)
        assert built == [first.settings] * 3 + [bell.settings] * 2


class TestTomoMle:
    def test_noiseless_counts_recover_target(self):
        n = 1_000_000
        rec = tomo_simulate_counts(PHI_MINUS, n, seed=0)
        exact = rec.with_counts(
            [round(n * setting_prob(PHI_MINUS, s)) for s in rec.settings]
        )
        rho_hat = tomo_mle(exact)
        assert fidelity(rho_hat, PHI_MINUS_KET) > 0.9999

    @pytest.mark.parametrize("seed", range(3))
    def test_integration_times_weight_the_settings(self, seed):
        # exact expected counts flux * t_k * p_k with unequal times t_k
        truth = degraded_state(math.pi, 0.8709)
        times = np.random.default_rng(seed).choice([0.5, 1.0, 2.0, 4.0], 16)
        settings = [ProjectorSetting.from_labels(a, b) for a, b in TOMOGRAPHY_LABELS]
        counts = [round(1e6 * t * setting_prob(truth, s)) for s, t in zip(settings, times)]
        rec = TomographyRecord(settings, times, counts)
        assert np.linalg.norm(tomo_mle(rec).rho - truth.rho) < 1e-5
        assert np.linalg.norm(tomo_linear(rec) - truth.rho) < 1e-5

    def test_poisson_recovery_study(self):
        truth = degraded_state(math.pi, 0.88)
        good = 0
        for seed in range(100):
            rec = tomo_simulate_counts(truth, 10_000, seed=seed)
            rho_hat = tomo_mle(rec)
            assert np.linalg.eigvalsh(rho_hat.rho).min() >= -1e-12
            if state_fidelity(rho_hat, truth) >= 0.995:
                good += 1
        assert good >= 95

    def test_linear_inversion_goes_negative_mle_does_not(self):
        truth = degraded_state(math.pi, 0.88)
        saw_negative = False
        for seed in range(10):
            rec = tomo_simulate_counts(truth, 10_000, seed=seed)
            if np.linalg.eigvalsh(tomo_linear(rec)).min() < -1e-12:
                saw_negative = True
            assert np.linalg.eigvalsh(tomo_mle(rec).rho).min() >= -1e-12
        assert saw_negative

    def test_permutation_invariance(self):
        truth = degraded_state(math.pi, 0.8709)
        rec = tomo_simulate_counts(truth, 5_000, seed=3)
        rng = np.random.default_rng(0)
        perm = rng.permutation(16)
        shuffled = TomographyRecord(
            [rec.settings[i] for i in perm], rec.seconds[perm], rec.counts()[perm]
        )
        a = tomo_mle(rec)
        b = tomo_mle(shuffled)
        assert np.linalg.norm(a.rho - b.rho) < 1e-6

    @pytest.mark.parametrize("n", [10_000, 500])
    def test_kkt_certificate(self, n):
        # the benchmark's observed tomography records, drawn at seed 0
        truth = degraded_state(math.pi, 0.8709)
        rec = tomo_simulate_counts(truth, n, seed=0)
        rho = tomo_mle(rec).rho
        assert_density_matrix(rho)
        assert certificate_gap(rec, rho) <= 1e-10

        perm = np.random.default_rng(0).permutation(16)
        shuffled = tomo_mle(TomographyRecord(
            [rec.settings[i] for i in perm], rec.seconds[perm], rec.counts()[perm]
        ))
        assert np.linalg.norm(shuffled.rho - rho) < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pure_states_converge(self, seed):
        # generic pure states put the optimum on the boundary of the state
        # space; the fit must still certify within a few tens of steps
        rec = tomo_simulate_counts(random_pure_state(seed), 10_000, seed=seed)
        fit = tomo_mle_fit(rec)
        assert fit.steps <= 60
        assert_density_matrix(fit.state.rho)
        assert certificate_gap(rec, fit.state.rho) <= 1e-10

    def test_iteration_cap_raises(self, monkeypatch):
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 10_000, seed=0)
        monkeypatch.setattr(measurement, "_MAX_STEPS", 5)
        with pytest.raises(TomographyError, match="5 iterations, gap"):
            tomo_mle(rec)

    @pytest.mark.parametrize("n", [10_000, 500])
    def test_observed_records_certify_within_17_steps(self, n):
        # the benchmark's observed records; entered at mu = N at the
        # maximally mixed state they needed 21 and 19 steps
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), n, seed=0)
        fit = tomo_mle_fit(rec)
        assert fit.steps <= 17
        assert certificate_gap(rec, fit.state.rho) <= 1e-10

    def test_fit_reports_its_steps_and_gap(self, monkeypatch):
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 10_000, seed=0)
        fit = tomo_mle_fit(rec)
        np.testing.assert_array_equal(fit.state.rho, tomo_mle(rec).rho)
        assert 0 < fit.steps <= 200 and fit.gap <= 1e-10
        monkeypatch.setattr(measurement, "_MAX_STEPS", fit.steps)
        tomo_mle(rec)
        monkeypatch.setattr(measurement, "_MAX_STEPS", fit.steps - 1)
        with pytest.raises(TomographyError, match="iterations, gap"):
            tomo_mle(rec)

    def test_zero_count_settings_certify(self):
        rec = tomo_simulate_counts(PHI_MINUS, 100, seed=0)
        assert np.count_nonzero(rec.counts() == 0) == 3
        rho = tomo_mle(rec).rho
        assert_density_matrix(rho)
        assert certificate_gap(rec, rho) <= 1e-10

    def test_full_rank_state_with_positive_linear_inversion_certifies(self):
        werner = TwoPhotonState(0.5 * PHI_MINUS.rho + 0.5 * np.eye(4) / 4.0)
        rec = tomo_simulate_counts(werner, 10_000, seed=0)
        assert np.linalg.eigvalsh(tomo_linear(rec))[0] > 0.05
        rho = tomo_mle(rec).rho
        assert_density_matrix(rho)
        assert certificate_gap(rec, rho) <= 1e-10

    def test_huge_count_record_certifies(self):
        # the 4 M-count record of TestBootstrap.test_huge_counts_shrink_std
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 4_000_000, seed=1)
        rho = tomo_mle(rec).rho
        assert_density_matrix(rho)
        assert certificate_gap(rec, rho) <= 1e-10

    def test_empty_record_rejected(self):
        rec = tomo_simulate_counts(PHI_MINUS, 100, seed=0)
        zeros = rec.with_counts([0] * 16)
        with pytest.raises(TomographyError, match="counts"):
            tomo_mle(zeros)


def block_fits(rec, resamples, seed):
    """(counts, tomo_mle_fit or its TomographyError) of each bootstrap
    resample, in order, each fitted with its block."""
    out = []

    def statistic(r):
        try:
            out.append((r.counts(), tomo_mle_fit(r)))
        except TomographyError as exc:
            out.append((r.counts(), exc))
        return 0.0

    bootstrap_errors(rec, resamples, statistic, seed=seed)
    return out


class TestBatchedFit:
    @pytest.mark.parametrize("n", [10_000, 500])
    def test_block_rows_match_lone_fits(self, n):
        # the benchmark's observed records, drawn at seed 0
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), n, seed=0)
        fits = block_fits(rec, 200, seed=0)
        assert len(fits) == 200
        for counts, fit in fits:
            lone_rec = rec.with_counts(counts)
            lone = tomo_mle_fit(lone_rec)
            assert fit.steps == lone.steps
            assert np.max(np.abs(fit.state.rho - lone.state.rho)) <= 1e-9
            assert fit.gap <= 1e-10
            assert certificate_gap(lone_rec, fit.state.rho) <= 1e-10

    def test_zero_total_resample_fails_alone(self):
        # one count per setting, as the CLI's failed tomo run: a few
        # resamples hold no counts, and only they raise
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 1, seed=1)
        fits = block_fits(rec, 200, seed=1)
        empty = [i for i, (counts, _) in enumerate(fits) if counts.sum() == 0]
        assert empty and len(empty) < 200
        for i, (counts, fit) in enumerate(fits):
            if i in empty:
                assert isinstance(fit, TomographyError)
                assert str(fit) == "record contains no counts"
            else:
                assert isinstance(fit, MleFit) and fit.gap <= 1e-10

    def test_with_counts_leaves_the_block(self):
        # a record made from a resample by with_counts is fitted alone, on
        # its own counts, not as the block's row
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 1_000, seed=0)
        kept = []
        bootstrap_errors(rec, 100, lambda r: kept.append(r) or fidelity(tomo_mle(r), PHI_MINUS_KET),
                         seed=0)
        with pytest.raises(TomographyError, match="no counts"):
            tomo_mle(kept[40].with_counts(np.zeros(16)))

    def test_uncertified_row_fails_alone(self, monkeypatch):
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 500, seed=0)
        steps = [fit.steps for _, fit in block_fits(rec, 200, seed=0)]
        cap = 16
        assert min(steps) <= cap < max(steps)
        monkeypatch.setattr(measurement, "_MAX_STEPS", cap)
        capped = block_fits(rec, 200, seed=0)
        for need, (_, fit) in zip(steps, capped):
            if need <= cap:
                assert isinstance(fit, MleFit) and fit.steps == need
            else:
                assert isinstance(fit, TomographyError)
                assert f"{cap} iterations, gap" in str(fit)

    def test_rows_with_different_zero_settings_certify(self):
        # three settings of PHI_MINUS see nothing; each further row zeroes
        # one more setting, so every row has its own zero pattern
        rec = tomo_simulate_counts(PHI_MINUS, 100, seed=0)
        rows = np.tile(rec.counts().astype(np.int64), (8, 1))
        for row, setting in zip(rows[1:], np.flatnonzero(rec.counts())):
            row[setting] = 0
        assert len({tuple(row == 0) for row in rows}) == len(rows)
        fits = measurement._fit_rows(rec._complete_povm(), rows)
        for row, fit in zip(rows, fits):
            lone_rec = rec.with_counts(row)
            lone = tomo_mle_fit(lone_rec)
            assert fit.steps == lone.steps
            assert np.max(np.abs(fit.state.rho - lone.state.rho)) <= 1e-9
            assert_density_matrix(fit.state.rho)
            assert certificate_gap(lone_rec, fit.state.rho) <= 1e-10

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e8])
    def test_hessian_map_matches_the_direct_traces(self, cond):
        # hess_map @ feats against coords^T diag(q / p) coords plus
        # mu Re tr(S B_i S B_j), S = sigma^-1, summed term by term, for random
        # positive-definite sigma of condition number cond
        rng = np.random.default_rng(round(math.log10(cond)))
        times = rng.choice([0.5, 1.0, 2.0, 4.0], 16)
        povm = TomographyRecord(tomo_simulate_counts(PHI_MINUS, 100, seed=0).settings,
                                times, np.ones(16))._complete_povm()
        sigmas = []
        for _ in range(8):
            unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            val = np.geomspace(1.0, 1.0 / cond, 4)
            sigmas.append((unitary * (val / val.sum())) @ unitary.conj().T)
        inv = np.linalg.inv(np.array(sigmas))
        paulis = measurement._PAULI_PRODUCTS.reshape(16, 4, 4)
        traceless = paulis[1:] / 2.0
        s = np.real(np.einsum("aij,bji->ba", paulis, inv))
        barrier = np.real(np.einsum("bij,xjk,bkl,yli->bxy", inv, traceless, inv, traceless))
        p = rng.uniform(0.01, 1.0, (8, 16))
        mu = rng.uniform(1e-6, 1e2, 8)
        for q in (np.zeros((8, 16)), rng.uniform(0.0, 1e4, (8, 16))):
            data = (povm.coords.T * (q / p)[:, None, :]) @ povm.coords
            direct = data + mu[:, None, None] * barrier
            error = np.max(np.abs(measurement._hessians(povm, q, p, s, mu) - direct), axis=(1, 2))
            assert np.all(error <= 1e-12 * np.max(np.abs(direct), axis=(1, 2)))

    def test_stacked_state_check_rejects_a_bad_row(self, monkeypatch):
        # the rows certified in one step are checked as one stack; a
        # non-Hermitian row among them raises the constructor's error
        unwhiten = measurement._WhitenedPovm.unwhiten

        def last_row_bad(self, sigma):
            rho = unwhiten(self, sigma)
            rho[-1, 0, 1] += 1e-9
            return rho

        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 10_000, seed=0)
        with pytest.raises(ValueError) as lone:
            TwoPhotonState(last_row_bad(rec._complete_povm(), np.eye(4)[None] / 4.0)[0])
        monkeypatch.setattr(measurement._WhitenedPovm, "unwhiten", last_row_bad)
        with pytest.raises(ValueError) as stacked:
            block_fits(rec, 200, seed=0)
        assert str(stacked.value) == str(lone.value) == "rho must be Hermitian"


class TestFidelity:
    def test_pure_state_self_fidelity(self):
        assert fidelity(PHI_MINUS, PHI_MINUS_KET) == pytest.approx(1.0)

    def test_degraded_against_target(self):
        c = 0.8709
        assert fidelity(degraded_state(math.pi, c), PHI_MINUS_KET) == pytest.approx(
            (1.0 + c) / 2.0, abs=1e-12
        )

    def test_orthogonal_bell_projection(self):
        c = 0.62
        phi_plus = entangled_ket(0.0)
        assert fidelity(degraded_state(math.pi, c), phi_plus) == pytest.approx(
            (1.0 - c) / 2.0, abs=1e-12
        )

    def test_requires_normalized_target(self):
        with pytest.raises(ValueError):
            fidelity(PHI_MINUS, [1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="^target state must be normalized$"):
            fidelity(PHI_MINUS, [math.nan, 0.0, 0.0, 0.0])

    def test_state_fidelity_extremes(self):
        assert state_fidelity(PHI_MINUS, PHI_MINUS) == pytest.approx(1.0)
        hh = TwoPhotonState.from_pure([1, 0, 0, 0])
        vv = TwoPhotonState.from_pure([0, 0, 0, 1])
        assert state_fidelity(hh, vv) == pytest.approx(0.0, abs=1e-12)

    def test_state_fidelity_is_symmetric_to_round_off(self):
        # tomo --seed 5's estimate, with two eigenvalues of about 5e-11 whose
        # square roots once made F(a, b) and F(b, a) differ by 6.2e-10
        model = degraded_state(math.pi, 0.8709)
        rho_hat = tomo_mle(tomo_simulate_counts(model, 10_000, 5))
        assert abs(state_fidelity(rho_hat, model) - state_fidelity(model, rho_hat)) <= 1e-14

    def test_state_fidelity_matches_pure_overlap(self):
        state = degraded_state(math.pi, 0.8)
        assert state_fidelity(state, PHI_MINUS) == pytest.approx(
            fidelity(state, PHI_MINUS_KET), abs=1e-9
        )


@pytest.mark.parametrize("estimator", [
    lambda s: fidelity(s, PHI_MINUS_KET),
    lambda s: state_fidelity(s, PHI_MINUS),
    lambda s: state_fidelity(PHI_MINUS, s),
    lambda s: chsh_S(s, PHI_SETTINGS),
    chsh_max,
    lambda s: interference_curve(s, 0.0, np.arange(0.0, 181.0, 15.0)),
    lambda s: tomo_simulate_counts(s, 100, seed=0),
    measurement.rho_to_json_payload,
], ids=["fidelity", "state_fidelity_a", "state_fidelity_b", "chsh_S", "chsh_max",
        "interference_curve", "tomo_simulate_counts", "rho_to_json_payload"])
@pytest.mark.parametrize("raw, message", [
    (np.full((4, 4), math.nan), "^rho must be finite$"),
    (np.diag([1.0, 1.0, 0.0, 0.0]), "^rho must have unit trace$"),
    (np.eye(2), "^rho must be 4x4$"),
], ids=["nan", "trace", "shape"])
def test_estimators_check_a_raw_matrix(estimator, raw, message):
    # a raw matrix passes the state's checks; unchecked, an all-NaN matrix
    # would give nan or a LinAlgError
    estimator(PHI_MINUS.rho)
    with pytest.raises(ValueError, match=message):
        estimator(raw)


class TestBootstrap:
    def test_requires_100_resamples(self):
        rec = tomo_simulate_counts(PHI_MINUS, 100, seed=0)
        with pytest.raises(ValueError):
            bootstrap_errors(rec, 50, lambda r: 1.0)

    def test_constant_statistic_zero_std(self):
        rec = tomo_simulate_counts(PHI_MINUS, 100, seed=0)
        result = bootstrap_errors(rec, 100, lambda r: 1.0, seed=0)
        assert result.std == 0.0
        assert result.mean == 1.0

    def test_huge_counts_shrink_std(self):
        truth = degraded_state(math.pi, 0.8709)
        rec = tomo_simulate_counts(truth, 4_000_000, seed=1)
        result = bootstrap_errors(
            rec, 100, lambda r: fidelity(tomo_mle(r), PHI_MINUS_KET), seed=1
        )
        assert result.std < 1e-3

    def test_pure_state_bootstrap_completes(self):
        # every resampled fit must converge, or the whole error bar is lost
        truth = random_pure_state(7)
        rec = tomo_simulate_counts(truth, 10_000, seed=7)
        result = bootstrap_errors(
            rec, 100, lambda r: state_fidelity(tomo_mle(r), truth), seed=0
        )
        assert result.mean > 0.98
        assert result.std < 0.01

    @pytest.mark.parametrize("resamples", [100, 200])
    def test_resample_stream(self, monkeypatch, resamples):
        # resample i gets default_rng(child i).poisson(observed), in order,
        # whatever the blocks; a statistic that asks for no MLE fits nothing
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.9), 1_000, seed=2)

        def no_fit(*args):
            raise AssertionError("a statistic without the MLE started a fit")

        monkeypatch.setattr(measurement, "_fit_rows", no_fit)
        seen = []
        bootstrap_errors(rec, resamples, lambda r: seen.append(r.counts()) or 0.0, seed=7)
        children = np.random.SeedSequence(7).spawn(resamples)
        assert len(seen) == resamples
        for counts, child in zip(seen, children):
            np.testing.assert_array_equal(
                counts, np.random.default_rng(child).poisson(rec.counts()))

    def test_memory_does_not_grow_with_resamples(self):
        # only one block of resamples is held at a time.  Peak traced
        # memory of a 200-resample fidelity bootstrap at 10k counts: 102,922 B
        # when every resample was fitted alone, about 690 kB when fitted in
        # blocks of 32 with a complex Kronecker Hessian, about 750 kB in
        # blocks of 128 with the Hessian by one GEMM; bounded here at 1 MB
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.8709), 10_000, seed=0)

        def statistic(r):
            return fidelity(tomo_mle(r), PHI_MINUS_KET)

        def peak(resamples):
            tracemalloc.start()
            try:
                bootstrap_errors(rec, resamples, statistic, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # the first call's one-off allocations are not the bootstrap's
        at_200, at_1000 = peak(200), peak(1000)
        assert at_200 < 1_000_000
        assert at_1000 <= 1.1 * at_200

    def test_reproducible_given_seed(self):
        rec = tomo_simulate_counts(degraded_state(math.pi, 0.9), 1_000, seed=2)
        stat = lambda r: float(r.counts().sum())
        a = bootstrap_errors(rec, 100, stat, seed=7)
        b = bootstrap_errors(rec, 100, stat, seed=7)
        assert a == b


class TestCsvRoundTrip:
    def test_record_round_trips(self, tmp_path, cfg):
        # the CLI's counts.csv reads back as the record it simulated
        assert main(["--seed", "4", "--out", str(tmp_path), "tomo"]) == 0
        rec = tomo_simulate_counts(degraded_state(cfg.pump_phase_rad, cfg.coherence),
                                   cfg.tomo_counts_per_setting, seed=4)
        back = TomographyRecord.from_csv(tmp_path / "counts.csv")
        np.testing.assert_array_equal(rec.counts(), back.counts())
        assert [
            (s.label_a, s.label_b) for s in back.settings
        ] == list(TOMOGRAPHY_LABELS)

    def test_rho_json_round_trip(self, tmp_path):
        # the CLI's rho.json holds the MLE state of the counts.csv beside it
        assert main(["--seed", "4", "--out", str(tmp_path), "tomo"]) == 0
        payload = json.loads((tmp_path / "rho.json").read_text())
        rho = np.asarray(payload["rho_re"]) + 1j * np.asarray(payload["rho_im"])
        record = TomographyRecord.from_csv(tmp_path / "counts.csv")
        np.testing.assert_allclose(rho, tomo_mle(record).rho)
        assert payload["basis"] == ["HH", "HV", "VH", "VV"]
