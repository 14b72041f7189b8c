import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityspdc import (
    CavitySpec,
    airy_transmission,
    build_mode_comb,
    cluster_spacing,
    dwdm_cluster_count,
    effective_index,
    single_mode_margin,
)
from cavityspdc.cavity import phase_matching_envelope


class TestAiryTransmission:
    def test_on_resonance_is_unity(self):
        assert airy_transmission(0.0, 57.91, 454.0) == 1.0

    def test_antiresonance_floor(self):
        # midway between modes the transmission drops to 1/(1+(2F/pi)^2)
        finesse = 57.91 / 0.454
        expected = 1.0 / (1.0 + (2.0 * finesse / math.pi) ** 2)
        got = airy_transmission(57.91 / 2.0, 57.91, 454.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.515e-4, rel=1e-3)

    def test_half_width_point_is_half(self):
        got = airy_transmission(454.0 / 2.0 * 1e-3, 57.91, 454.0)
        assert got == pytest.approx(0.5, rel=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            airy_transmission(0.0, -1.0, 454.0)
        with pytest.raises(ValueError):
            airy_transmission(0.0, 57.91, 0.0)
        with pytest.raises(ValueError):
            airy_transmission(math.nan, 57.91, 454.0)
        with pytest.raises(ValueError):
            airy_transmission(0.0, 1.0, 2000.0)  # fwhm above the FSR
        with pytest.raises(ValueError, match="Airy coefficient"):
            airy_transmission(0.0, 1e300, 454.0)  # (2F/pi)^2 overflows

    @given(
        detuning=st.floats(-100.0, 100.0),
        fsr=st.floats(10.0, 100.0),
        finesse=st.floats(5.0, 500.0),
    )
    @settings(max_examples=60)
    def test_periodic_in_one_fsr(self, detuning, fsr, finesse):
        fwhm = fsr / finesse * 1e3
        a = airy_transmission(detuning, fsr, fwhm)
        b = airy_transmission(detuning + fsr, fsr, fwhm)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        detunings = np.linspace(-120.0, 120.0, 4001)
        trans = airy_transmission(detunings, 57.91, 454.0)
        assert np.all(trans > 0.0) and np.all(trans <= 1.0)


class TestModeComb:
    def test_ppktp0_h_span_240(self, ppktp0):
        comb = build_mode_comb(ppktp0, "H", 240.0)
        offsets = [row[1] for row in comb.csv_rows()]
        np.testing.assert_allclose(
            offsets, [-115.82, -57.91, 0.0, 57.91, 115.82], rtol=1e-12
        )

    def test_tiny_span_single_mode(self, ppktp0):
        comb = build_mode_comb(ppktp0, "H", 1.0)
        assert comb.indices == range(0, 1)
        assert comb.csv_rows() == [(0, 0.0, 454.0, "H")]

    def test_ppktp1_v_span_220(self, ppktp1):
        comb = build_mode_comb(ppktp1, "V", 220.0)
        assert len(comb.indices) == 5
        spacing = np.diff([row[1] for row in comb.csv_rows()])
        np.testing.assert_allclose(spacing, 54.91, rtol=1e-9)

    @given(
        span=st.floats(1.0, 2000.0),
        fsr=st.floats(20.0, 80.0),
    )
    @settings(max_examples=60)
    def test_mode_count_formula(self, span, fsr):
        spec = CavitySpec(
            fsr_h_ghz=fsr, fsr_v_ghz=fsr * 0.95,
            fwhm_h_mhz=400.0, fwhm_v_mhz=400.0, pm_fwhm_thz=2.0, length_mm=1.5,
        )
        comb = build_mode_comb(spec, "H", span)
        assert len(comb.indices) == 2 * math.floor(span / (2.0 * fsr)) + 1

    def test_linewidth_tracks_polarization(self, ppktp0):
        assert build_mode_comb(ppktp0, "H", 100.0).linewidth_mhz == 454.0
        assert build_mode_comb(ppktp0, "V", 100.0).linewidth_mhz == 462.0


class TestClusterSpacing:
    def test_quoted_spacings(self):
        assert cluster_spacing(57.91, 54.91) == pytest.approx(1060.0, rel=0.01)
        assert cluster_spacing(57.41, 54.91) == pytest.approx(1260.0, rel=0.01)

    def test_harmonic_combs(self):
        assert cluster_spacing(60.0, 30.0) == pytest.approx(60.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate Vernier"):
            cluster_spacing(55.0, 55.0)

    @given(
        fsr_h=st.floats(20.0, 100.0),
        ratio=st.floats(0.55, 0.999),
    )
    @settings(max_examples=80)
    def test_spacing_exceeds_both_fsrs(self, fsr_h, ratio):
        # holds whenever the FSRs are within a factor of two of each other,
        # which covers every birefringent splitting of one cavity
        fsr_v = fsr_h * ratio
        assert cluster_spacing(fsr_h, fsr_v) >= max(fsr_h, fsr_v)


class TestSingleModeMargin:
    def test_ppktp0(self, ppktp0):
        assert single_mode_margin(ppktp0) == pytest.approx(3.0 - 0.458, abs=1e-12)

    def test_ppktp1(self, ppktp1):
        assert single_mode_margin(ppktp1) == pytest.approx(2.5 - 0.403, abs=1e-12)

    def test_degenerate_fsrs_negative(self, ppktp0):
        # equal FSRs are rejected (TestCavitySpecValidation); FSRs closer
        # than a linewidth leave no single-mode margin
        spec = CavitySpec(
            fsr_h_ghz=55.0, fsr_v_ghz=55.2,
            fwhm_h_mhz=454.0, fwhm_v_mhz=462.0,
            pm_fwhm_thz=2.04, length_mm=1.47,
        )
        assert single_mode_margin(spec) < 0.0


class TestDwdmSelect:
    def test_single_cluster_in_200ghz_window(self, ppktp0):
        assert dwdm_cluster_count(ppktp0, 0.0, 200.0) == 1

    def test_three_clusters_in_2200ghz_window(self, ppktp0):
        assert dwdm_cluster_count(ppktp0, 0.0, 2200.0) == 3

    def test_cluster_on_the_passband_edge_counts(self, ppktp0):
        # a passband of two spacings has the side clusters on its edges
        spacing = cluster_spacing(ppktp0.fsr_h_ghz, ppktp0.fsr_v_ghz)
        assert dwdm_cluster_count(ppktp0, 0.0, 2.0 * spacing) == 3

    @given(
        w1=st.floats(1.0, 3000.0),
        w2=st.floats(1.0, 3000.0),
        center=st.floats(-500.0, 500.0),
    )
    @settings(max_examples=60)
    def test_window_monotonicity(self, w1, w2, center, ppktp0):
        if w1 > w2:
            w1, w2 = w2, w1
        narrow = dwdm_cluster_count(ppktp0, center, w1)
        assert narrow <= dwdm_cluster_count(ppktp0, center, w2)


class TestEffectiveIndex:
    def test_h_mode_index(self):
        assert effective_index(1.47, 57.91) == pytest.approx(1.761, abs=5e-4)

    def test_v_mode_index(self):
        assert effective_index(1.47, 54.91) == pytest.approx(1.857, abs=5e-4)

    def test_vacuum_cavity(self):
        fsr_vacuum = 299_792_458.0 / (2.0 * 1.47e-3) * 1e-9
        assert effective_index(1.47, fsr_vacuum) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_index(0.0, 57.91)

    def test_round_trip_that_underflows_is_infinite(self):
        assert effective_index(5e-324, 57.91) == math.inf


class TestPhaseMatchingEnvelope:
    def test_fwhm_is_contractual(self, ppktp0):
        half = 0.5 * ppktp0.pm_fwhm_thz * 1e3
        assert phase_matching_envelope(0.0, ppktp0) == pytest.approx(1.0)
        assert phase_matching_envelope(half, ppktp0) == pytest.approx(0.5, rel=1e-6)

    def test_vanishing_width_gives_zero_weight(self, ppktp0):
        # (offset / fwhm)^2 overflows; the weight is exp(-inf) = 0, not an error
        narrow = replace(ppktp0, pm_fwhm_thz=1e-300)
        assert phase_matching_envelope(1060.0, narrow) == 0.0
        assert phase_matching_envelope(0.0, narrow) == 1.0

    def test_cluster_spacing_beats_half_envelope_width(self, ppktp0, ppktp1):
        # the adjacent cluster sits beyond the envelope half-width for both
        # crystals, so a single cluster dominates the emission
        for spec in (ppktp0, ppktp1):
            spacing = cluster_spacing(spec.fsr_h_ghz, spec.fsr_v_ghz)
            assert spacing > 0.5 * spec.pm_fwhm_thz * 1e3


class TestCavitySpecValidation:
    def test_linewidth_must_fit_inside_fsr(self):
        with pytest.raises(ValueError):
            CavitySpec(
                fsr_h_ghz=0.4, fsr_v_ghz=54.91,
                fwhm_h_mhz=454.0, fwhm_v_mhz=462.0,
                pm_fwhm_thz=2.04, length_mm=1.47,
            )

    @pytest.mark.parametrize("field, value, message", [
        ("fsr_h_ghz", 1e300, "fsr_h_ghz / fwhm_h_mhz overflows the Airy coefficient"),
        ("fwhm_v_mhz", 1e-300, "fsr_v_ghz / fwhm_v_mhz overflows the Airy coefficient"),
        ("fwhm_h_mhz", 5e-324, "fsr_h_ghz / fwhm_h_mhz overflows the Airy coefficient"),
        ("length_mm", 5e-324, "length_mm * fsr_h_ghz is too small for a finite effective"),
    ])
    def test_airy_coefficient_and_effective_index_must_be_finite(self, ppktp0, field, value,
                                                                message):
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(ppktp0, **{field: value})

    def test_equal_fsrs_rejected(self, ppktp0):
        # a degenerate Vernier: the clusters would sit infinitely far apart
        with pytest.raises(ValueError, match="degenerate Vernier"):
            replace(ppktp0, fsr_v_ghz=ppktp0.fsr_h_ghz)
