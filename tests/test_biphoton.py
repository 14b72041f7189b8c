import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from cavityspdc import (
    BiphotonParams,
    gamma_prime_mhz,
    spectral_overlap,
    t_fwhm_ns,
)
from cavityspdc.biphoton import FWHM_FACTOR
from cavityspdc.fitting import exp_decay

widths = st.floats(50.0, 5000.0)


def g2(t_ns, p):
    """Normalized cross-correlation exp(-2*pi*gamma'*|t|): the fitted decay
    at unit amplitude and zero floor."""
    return exp_decay(t_ns, gamma_prime_mhz(p) * 1e-3, 1.0, 0.0)


class TestGammaPrime:
    def test_ppktp0(self, bp0):
        assert gamma_prime_mhz(bp0) == pytest.approx(457.98, abs=0.01)

    def test_ppktp1(self, bp1):
        assert gamma_prime_mhz(bp1) == pytest.approx(402.56, abs=0.01)

    @given(gamma=widths)
    @settings(max_examples=30)
    def test_equal_widths_fixed_point(self, gamma):
        assert gamma_prime_mhz(BiphotonParams(gamma, gamma)) == pytest.approx(gamma)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BiphotonParams(0.0, 400.0)


class TestG2Model:
    def test_peak_value(self, bp0):
        assert g2(0.0, bp0) == 1.0

    def test_half_maximum_at_half_fwhm(self, bp0):
        assert g2(0.2415, bp0) == pytest.approx(0.5, rel=2e-3)

    @given(t=st.floats(-20.0, 20.0))
    @settings(max_examples=100)
    def test_symmetric(self, t, bp0):
        assert g2(t, bp0) == g2(-t, bp0)

    def test_normalization_integral(self, bp0):
        # integral of exp(-2 pi gamma' |t|) over the real line is 1/(pi gamma')
        gamma_ghz = gamma_prime_mhz(bp0) * 1e-3
        span = 10.0 * t_fwhm_ns(bp0)
        value, _ = quad(lambda t: g2(t, bp0), -span, span, limit=200)
        assert value == pytest.approx(1.0 / (math.pi * gamma_ghz), rel=5e-3)


class TestTFwhm:
    def test_ppktp0_value(self, bp0):
        assert t_fwhm_ns(bp0) == pytest.approx(0.483, rel=5e-3)

    def test_ppktp1_value(self, bp1):
        assert t_fwhm_ns(bp1) == pytest.approx(0.550, rel=5e-3)

    def test_formula_inversion(self):
        gamma_mhz = FWHM_FACTOR / (2.0 * math.pi) * 1e3
        assert t_fwhm_ns(BiphotonParams(gamma_mhz, gamma_mhz)) == pytest.approx(1.0)

    @given(gs=widths, gi=widths)
    @settings(max_examples=30)
    def test_matches_numeric_fwhm(self, gs, gi):
        # the 1.39 width convention sits 0.27% above the exact 2 ln 2 value,
        # so the numerically located FWHM agrees to 0.3%
        p = BiphotonParams(gs, gi)
        t_half = brentq(lambda t: g2(t, p) - 0.5, 0.0, 1e6 / gs)
        assert t_fwhm_ns(p) == pytest.approx(2.0 * t_half, rel=3e-3)


class TestSpectralOverlap:
    def test_crystal_pair_value(self, bp0, bp1):
        assert spectral_overlap(bp0, bp1) == pytest.approx(0.879, abs=5e-3)
        assert spectral_overlap(bp0, bp1) == pytest.approx(0.88, abs=5e-3)

    def test_identical_params(self, bp0):
        assert spectral_overlap(bp0, bp0) == 1.0

    def test_bandwidth_ratio(self):
        narrow = BiphotonParams(100.0, 100.0)
        wide = BiphotonParams(400.0, 400.0)
        assert spectral_overlap(narrow, wide) == pytest.approx(0.25)

    @given(a=widths, b=widths, c=widths, d=widths)
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, a, b, c, d):
        p0, p1 = BiphotonParams(a, b), BiphotonParams(c, d)
        overlap = spectral_overlap(p0, p1)
        assert overlap == spectral_overlap(p1, p0)
        assert 0.0 < overlap <= 1.0
