import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cavityspdc import (
    DetectionChain,
    SourceRate,
    TimeTagStream,
    car_from_stream,
    car_model,
    car_optimal_rate,
    coincidence_histogram,
    count_coincidences,
    pair_rate,
    read_ttag,
    simulate_timetags,
    write_ttag,
)
from cavityspdc import photostats
from cavityspdc.photostats import TTAG_MAGIC


def quiet_chain(**overrides):
    base = dict(eta_s=1.0, eta_i=1.0, dark_s_per_s=0.0, dark_i_per_s=0.0,
                window_ns=3.2, jitter_sigma_ps=0.0, bin_ps=25.0)
    base.update(overrides)
    return DetectionChain(**base)


class ScriptedStream:
    """Stands in for a Generator reading one scripted run of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None, out=None):
        k = size if out is None else out.size
        block, self.values = self.values[:k], self.values[k:]
        assert len(block) == k
        if out is None:
            return np.array(block)
        out[:] = block
        return out


def sequential_survivors(rng, n, eta_s, eta_i, duration_ps, scale_ps):
    """The record's four uniform blocks drawn one after the other, as the
    generator drew them before it read them side by side: the reference
    for photostats._read_range."""
    t_pair = rng.random(n) * duration_ps
    u_delay = rng.random(n)
    keep_s = rng.random(n) < eta_s
    keep_i = rng.random(n) < eta_i
    t_idler = t_pair[keep_i]
    t_idler += photostats._laplace_from_uniforms(u_delay[keep_i], scale_ps)
    return t_pair[keep_s], t_idler


def joined(parts):
    return np.concatenate([np.empty(0)] + parts)


class TestPairRate:
    def test_product_form(self):
        assert pair_rate(SourceRate(0.7, 150.0, 458.0)) == pytest.approx(48_090.0)

    def test_zero_power(self):
        assert pair_rate(SourceRate(0.7, 0.0, 458.0)) == 0.0

    def test_unit_definition(self):
        assert pair_rate(SourceRate(0.7, 1.0, 1.0)) == pytest.approx(0.7)


class TestCarModel:
    def test_matches_quoted_regime(self, chain):
        car = car_model(48_090.0, chain)
        assert car == pytest.approx(6.3e3, rel=0.01)
        assert car > 6e3

    def test_multiphoton_rolloff(self, chain):
        rate = 1e12
        assert car_model(rate, chain) == pytest.approx(
            1.0 / (rate * chain.window_ns * 1e-9), rel=1e-3
        )

    def test_no_darks_reduces_to_inverse_rate_window(self):
        chain = quiet_chain(eta_s=0.125, eta_i=0.125)
        for rate in (1e3, 1e5, 1e7):
            assert car_model(rate, chain) == pytest.approx(
                1.0 / (rate * 3.2e-9), rel=1e-12
            )

    def test_zero_rate_zero_darks_undefined(self):
        with pytest.raises(ValueError, match="no accidentals"):
            car_model(0.0, quiet_chain())

    def test_unimodal_with_interior_peak(self, chain):
        rates = np.logspace(0.0, 7.0, 10_000)
        cars = np.array([car_model(r, chain) for r in rates])
        diffs = np.diff(cars)
        sign_changes = np.sum(np.diff(np.sign(diffs)) != 0)
        assert sign_changes == 1
        assert rates[np.argmax(cars)] == pytest.approx(
            car_optimal_rate(chain), rel=5e-3
        )


class TestCarOptimalRate:
    def test_closed_form(self, chain):
        assert car_optimal_rate(chain) == pytest.approx(800.0)

    def test_sqrt_scaling_in_darks(self, chain):
        # quadrupling the dark-rate product doubles the optimum
        scaled = DetectionChain(
            eta_s=chain.eta_s, eta_i=chain.eta_i,
            dark_s_per_s=2.0 * chain.dark_s_per_s,
            dark_i_per_s=2.0 * chain.dark_i_per_s,
            window_ns=chain.window_ns, jitter_sigma_ps=chain.jitter_sigma_ps,
            bin_ps=chain.bin_ps,
        )
        assert car_optimal_rate(scaled) == pytest.approx(2.0 * car_optimal_rate(chain))

    def test_grid_scan_agrees(self, chain):
        rates = np.logspace(0.0, 7.0, 10_000)
        cars = [car_model(r, chain) for r in rates]
        assert rates[int(np.argmax(cars))] == pytest.approx(
            car_optimal_rate(chain), rel=5e-3
        )

    def test_zero_darks_rejected(self):
        with pytest.raises(ValueError, match="no interior maximum"):
            car_optimal_rate(quiet_chain())


class TestTimeTagStream:
    def test_requires_sorted_timestamps(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TimeTagStream([10, 5], [0, 1])

    def test_order_check_finds_one_inversion_among_ties(self):
        t = np.repeat(np.arange(50_000, dtype=np.int64), 2)
        channel = np.zeros(t.size, dtype=np.uint8)
        TimeTagStream(t, channel)
        t[70_001], t[70_002] = t[70_002], t[70_001]
        with pytest.raises(ValueError, match="non-decreasing"):
            TimeTagStream(t, channel)

    def test_construction_peak_per_event(self):
        # the order check may hold a bool per event, not an int64 difference
        t = np.arange(200_000, dtype=np.int64)
        channel = np.zeros(t.size, dtype=np.uint8)
        tracemalloc.start()
        try:
            TimeTagStream(t, channel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * t.size

    def test_requires_binary_channels(self):
        with pytest.raises(ValueError, match="channel"):
            TimeTagStream([1, 2], [0, 3])

    def test_binary_roundtrip(self, tmp_path):
        stream = TimeTagStream([0, 17, 17, 4200], [1, 0, 1, 0])
        path = tmp_path / "tags.ttag"
        write_ttag(stream, path)
        raw = path.read_bytes()
        assert raw.startswith(TTAG_MAGIC)
        assert len(raw) == len(TTAG_MAGIC) + 4 * 9  # u64 + u8 records
        assert read_ttag(path) == stream

    def test_negative_timestamps_rejected_on_write(self, tmp_path):
        stream = TimeTagStream([-5, 3], [0, 1])
        with pytest.raises(ValueError, match="translate"):
            write_ttag(stream, tmp_path / "bad.ttag")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ttag"
        path.write_bytes(b"NOTTAG" + b"\x00" * 18)
        with pytest.raises(ValueError, match="not a TTAG1"):
            read_ttag(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "short.ttag"
        path.write_bytes(TTAG_MAGIC + b"\x00" * 17)
        with pytest.raises(ValueError, match="truncated"):
            read_ttag(path)

    def test_read_ttag_keeps_only_the_stream(self, tmp_path):
        n = 200_000
        stream = TimeTagStream(np.arange(n, dtype=np.int64) * 7, np.arange(n, dtype=np.uint8) & 1)
        path = tmp_path / "tags.ttag"
        write_ttag(stream, path)
        tracemalloc.start()
        try:
            back = read_ttag(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == stream
        assert retained <= 9 * n + 4096

    @pytest.mark.parametrize("records, message", [
        ([(5, 0), (9, 1), (7, 0)], "non-decreasing"),
        ([(5, 0), (9, 2)], "channel must be 0 or 1"),
    ])
    def test_read_ttag_checks_the_stream(self, tmp_path, records, message):
        path = tmp_path / "bad.ttag"
        path.write_bytes(TTAG_MAGIC + np.array(records, dtype=photostats._TTAG_DTYPE).tobytes())
        with pytest.raises(ValueError, match=message):
            read_ttag(path)

    @pytest.mark.parametrize("times", [
        [2**63 + 5, 2**63 + 9],
        # small times fill the first block; the huge one opens the second
        list(range(photostats._EVENT_BLOCK)) + [2**63 + 9],
    ], ids=["huge", "mixed"])
    def test_read_ttag_rejects_times_beyond_int64(self, tmp_path, times):
        path = tmp_path / "huge.ttag"
        records = np.zeros(len(times), dtype=photostats._TTAG_DTYPE)
        records["t"] = times
        path.write_bytes(TTAG_MAGIC + records.tobytes())
        with pytest.raises(ValueError, match=r"huge\.ttag: timestamp at or above 2\*\*63") as info:
            read_ttag(path)
        assert "\n" not in str(info.value)

    def test_magic_alone_reads_as_empty_stream(self, tmp_path):
        path = tmp_path / "empty.ttag"
        path.write_bytes(TTAG_MAGIC)
        back = read_ttag(path)
        assert len(back) == 0
        assert back == TimeTagStream([], [])

    def test_order_check_finds_an_inversion_at_a_block_edge(self):
        edge = photostats._EVENT_BLOCK
        t = np.arange(3 * edge, dtype=np.int64)
        t[edge - 1], t[edge] = t[edge], t[edge - 1]
        with pytest.raises(ValueError, match="non-decreasing"):
            TimeTagStream(t, np.zeros(t.size, dtype=np.uint8))

    def test_write_ttag_peaks_at_one_file(self, tmp_path):
        n = 200_000
        stream = TimeTagStream(np.arange(n, dtype=np.int64) * 7, np.arange(n, dtype=np.uint8) & 1)
        path = tmp_path / "tags.ttag"
        tracemalloc.start()
        try:
            write_ttag(stream, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size == len(TTAG_MAGIC) + 9 * n
        assert peak <= 1.05 * size


class TestSimulateTimetags:
    def test_empty_without_efficiency_or_darks(self, source_150mw, bp0):
        chain = quiet_chain(eta_s=0.0, eta_i=0.0)
        stream = simulate_timetags(source_150mw, bp0, chain, 0.5, seed=0)
        assert len(stream) == 0

    def test_fixed_seed_bit_reproducible(self, source_150mw, bp0, chain):
        a = simulate_timetags(source_150mw, bp0, chain, 0.5, seed=42)
        b = simulate_timetags(source_150mw, bp0, chain, 0.5, seed=42)
        assert a == b
        c = simulate_timetags(source_150mw, bp0, chain, 0.5, seed=43)
        assert a != c

    def test_singles_rates_within_3_sigma(self, bp0, chain):
        src = SourceRate(0.7, 75.0, 458.0)
        duration = 10.0
        stream = simulate_timetags(src, bp0, chain, duration, seed=2)
        expected = (0.125 * pair_rate(src) + 100.0) * duration
        for ch in (0, 1):
            n = stream.t_ps[stream.channel == ch].size
            assert abs(n - expected) < 3.0 * math.sqrt(expected)

    def test_delay_distribution_matches_g2(self, bp0):
        # low rate keeps accidentals negligible; chi^2 against the exact
        # bin masses of the two-sided exponential across one million pairs
        from cavityspdc.biphoton import coherence_scale_ps

        chain = quiet_chain(bin_ps=50.0)
        src = SourceRate(0.7, 1.0, 14_285.714285714286)  # 1e4 pairs/s
        duration = 100.0
        stream = simulate_timetags(src, bp0, chain, duration, seed=3)
        hist = coincidence_histogram(stream, 10.0, 50.0)
        scale_ps = coherence_scale_ps(bp0)
        # timestamps live on the integer-ps lattice, so bin k holds the
        # continuous mass of [k*bin - bin/2 - 0.5, k*bin + bin/2 - 0.5)
        edges = np.concatenate(
            [hist.bin_centers_ps - 25.5, [hist.bin_centers_ps[-1] + 24.5]]
        )
        cdf = stats.laplace.cdf(edges, scale=scale_ps)
        probs = np.diff(cdf)
        probs = probs / probs.sum()
        expected = hist.counts.sum() * probs
        mask = expected >= 10.0
        chi2 = float(np.sum((hist.counts[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(mask.sum()) - 1
        assert chi2 / dof < 2.0

    def test_seeded_stream_is_pinned(self, source_150mw, bp0, chain):
        # digest of the record this seed has always produced, so a change to
        # the generator, its random draws or its sort cannot pass unseen
        stream = simulate_timetags(source_150mw, bp0, chain, 20.0, seed=20240607)
        digest = hashlib.sha256(
            stream.t_ps.astype("<i8").tobytes() + stream.channel.tobytes()
        ).hexdigest()
        assert len(stream) == 244_600
        assert digest == "cdd20a6299c071acbf6271192f4190c198f5782e7417f733692c4924d0853487"

    # records the generator gave while it drew the pair times with
    # rng.uniform and transformed every delay with rng.laplace; one per
    # branch of the generator
    @pytest.mark.parametrize(
        "case, n_events, digest",
        [
            ("ppktp1", 61_615, "6dc843f7712e44ea53820dc3a7ad9b05ef28476956dd1747e25caa6081e52f57"),
            ("2.5mw", 7_879, "b8df51052e0a4cb7e33465a96b529c2510191de733663174349d4b6e64a9c41e"),
            ("no-jitter", 61_286, "a6077adda84cd840d4d1a58ba9cba0f5776d2acd8785c255cf32e36833e9ff46"),
            ("dark-heavy", 212_517, "8ec6df5233aeeecd87fe60fcf06f4eef265e2902183eaf4610534a79d86501fa"),
            # its earliest event falls at -302 ps before the translation
            ("translated", 17_139, "01ee041b3053ac2650572200d260fc00c290b8a446a4faa2b69008f19ed41319"),
            # no pairs: the dark counts follow the pair-count draw directly
            ("dark-only", 40_208, "ea94cebc9f6f4a5ba6b3f9d8123fdfe2549b7dba481429500727420b197b99b2"),
        ],
    )
    def test_seeded_stream_branches_are_pinned(self, cfg, bp0, bp1, case, n_events, digest):
        chain = cfg.chain
        args = {
            "ppktp1": (cfg.source, bp1, chain, 5.0, 101),
            "2.5mw": (SourceRate(0.7, 2.5, 458.0), bp0, chain, 20.0, 102),
            "no-jitter": (cfg.source, bp0, replace(chain, jitter_sigma_ps=0.0), 5.0, 103),
            "dark-heavy": (cfg.source, bp0,
                           replace(chain, dark_s_per_s=1e5, dark_i_per_s=1e5), 1.0, 104),
            "translated": (SourceRate(1e6, 150.0, 458.0), bp0, chain, 1e-6, 105),
            "dark-only": (SourceRate(0.7, 0.0, 458.0), bp0,
                          replace(chain, dark_s_per_s=1e4, dark_i_per_s=1e4), 2.0, 106),
        }[case]
        stream = simulate_timetags(*args)
        assert len(stream) == n_events
        assert hashlib.sha256(
            stream.t_ps.astype("<i8").tobytes() + stream.channel.tobytes()
        ).hexdigest() == digest

    def test_traced_peak_per_generated_pair(self, source_150mw, bp0, chain):
        duration = 5.0
        tracemalloc.start()
        try:
            simulate_timetags(source_150mw, bp0, chain, duration, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 22.0 * pair_rate(source_150mw) * duration

    def test_traced_peak_per_returned_event(self, source_150mw, bp0, chain):
        # no array as long as the generated-pair count: memory follows the
        # detected events
        tracemalloc.start()
        try:
            stream = simulate_timetags(source_150mw, bp0, chain, 20.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30.0 * len(stream)

    def test_generator_seed_raises_type_error(self, source_150mw, bp0, chain):
        with pytest.raises(TypeError):
            simulate_timetags(source_150mw, bp0, chain, 0.1, seed=np.random.default_rng(7))

    def test_timestamps_non_negative(self, source_150mw, bp0, chain):
        stream = simulate_timetags(source_150mw, bp0, chain, 0.2, seed=11)
        assert stream.t_ps.min() >= 0

    def test_rejects_nonpositive_duration(self, source_150mw, bp0, chain):
        with pytest.raises(ValueError):
            simulate_timetags(source_150mw, bp0, chain, 0.0, seed=0)


class TestDelayDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_generator_laplace(self, seed):
        scale, n = 52.6, 200_000
        mine_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u = mine_rng.random(n)
        mine = photostats._laplace_from_uniforms(u, scale)
        ref = ref_rng.laplace(0.0, scale, n)
        assert np.all(np.abs(mine - ref) <= 4.0 * np.spacing(np.abs(ref)))
        assert mine_rng.bit_generator.state == ref_rng.bit_generator.state


B = photostats._DRAW_CHUNK


def read_split(at, n, bounds, *args):
    """photostats._read_range over bounds[k] to bounds[k + 1], in range order."""
    parts = [photostats._read_range(at, n, lo, hi, *args)
             for lo, hi in zip(bounds, bounds[1:])]
    return ([t for signal, _ in parts for t in signal],
            [t for _, idler in parts for t in idler])


class TestBlockDraws:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_matches_sequential_draws(self, n):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        at = photostats._streams_from(rng)
        signal, idler = photostats._read_range(at, n, 0, n, 0.3, 0.6, 2e12, 52.6)
        ref_signal, ref_idler = sequential_survivors(ref, n, 0.3, 0.6, 2e12, 52.6)
        assert np.array_equal(joined(signal), ref_signal)
        assert np.array_equal(joined(idler), ref_idler)
        assert at(4 * n).bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("ranges", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_any_split_matches_sequential_draws(self, n, ranges):
        # one range is test_matches_sequential_draws; these bounds need not
        # fall on whole chunks, and some ranges are empty
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        at = photostats._streams_from(rng)
        bounds = [n * k // ranges for k in range(ranges + 1)]
        signal, idler = read_split(at, n, bounds, 0.3, 0.6, 2e12, 52.6)
        ref_signal, ref_idler = sequential_survivors(ref, n, 0.3, 0.6, 2e12, 52.6)
        assert np.array_equal(joined(signal), ref_signal)
        assert np.array_equal(joined(idler), ref_idler)
        assert at(4 * n).bit_generator.state == ref.bit_generator.state

    def test_fast_thread_switching_keeps_the_pinned_record(self, source_150mw, bp0, chain):
        # about 48,000 pairs, more than two chunks, so the worker reads whole
        # chunks while the threads switch every microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stream = simulate_timetags(source_150mw, bp0, chain, 1.0, seed=0)
        finally:
            sys.setswitchinterval(interval)
        assert len(stream) == 12_280
        assert hashlib.sha256(
            stream.t_ps.astype("<i8").tobytes() + stream.channel.tobytes()
        ).hexdigest() == "c14e92f5382105440b1d8965ed94e111695c835ed805a79dc0038b151515655b"

    @pytest.mark.parametrize("zero_in", [0, 1])
    def test_exact_zero_delay_is_read_in_one_pass(self, zero_in):
        # the delay uniform of pair 1 (first range) or pair 2 (second range)
        # is exactly 0.0
        pair, delay = [0.1, 0.3, 0.6, 0.9], [0.3, 0.7, 0.8, 0.4]
        delay[1 + zero_in] = 0.0
        survival_s, survival_i = [0.1, 0.9, 0.1, 0.1], [0.9, 0.1, 0.1, 0.1]
        values = pair + delay + survival_s + survival_i
        opened = []

        def at(k):
            opened.append(k)
            return ScriptedStream(values[k:])

        signal, idler = read_split(at, 4, [0, 2, 4], 0.5, 0.5, 10.0, 2.0)
        # each range opens its blocks at lo, n + lo, 2n + lo and 3n + lo, once
        assert sorted(opened) == sorted([0, 4, 8, 12, 2, 6, 10, 14])
        assert joined(signal).tolist() == [1.0, 6.0, 9.0]
        delays = photostats._laplace_from_uniforms(np.array(delay[1:]), 2.0)
        assert joined(idler).tolist() == (np.array([3.0, 6.0, 9.0]) + delays).tolist()
        # the zero reads as 2**-53: a finite delay of scale * log(2**-52)
        assert delays[zero_in] == pytest.approx(2.0 * math.log(2.0**-52), rel=1e-15)

    def test_worker_exception_reaches_the_caller(self, monkeypatch, source_150mw, bp0, chain):
        read_range, failed_on = photostats._read_range, []

        def fail_after_first_range(at, n, lo, *args):
            if lo > 0:
                failed_on.append(threading.current_thread())
                raise RuntimeError("second range failed")
            return read_range(at, n, lo, *args)

        monkeypatch.setattr(photostats, "_read_range", fail_after_first_range)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="second range failed"):
            simulate_timetags(source_150mw, bp0, chain, 1.0, seed=1)
        assert failed_on and failed_on[0] is not threading.main_thread()
        assert threading.active_count() == threads


class TestCoincidenceHistogram:
    def test_single_pair_lands_in_central_bin(self):
        stream = TimeTagStream([1_000_000, 1_000_000], [0, 1])
        hist = coincidence_histogram(stream, 20.0, 25.0)
        center = hist.bin_centers_ps.size // 2
        assert hist.bin_centers_ps[center] == 0
        assert hist.counts[center] == 1
        assert hist.counts.sum() == 1

    def test_known_delay_bin(self):
        stream = TimeTagStream([1_000_000, 1_000_500], [0, 1])  # +500 ps
        hist = coincidence_histogram(stream, 20.0, 25.0)
        assert hist.counts[hist.bin_centers_ps.tolist().index(500)] == 1

    def test_bin_must_divide_range(self):
        stream = TimeTagStream([0, 10], [0, 1])
        with pytest.raises(ValueError, match="divide"):
            coincidence_histogram(stream, 10.0, 33.0)

    def test_dark_only_channels_are_flat(self, bp0):
        chain = quiet_chain(eta_s=0.0, eta_i=0.0, dark_s_per_s=5000.0,
                            dark_i_per_s=5000.0, bin_ps=100.0)
        src = SourceRate(0.7, 0.0, 458.0)
        stream = simulate_timetags(src, bp0, chain, 20.0, seed=4)
        hist = coincidence_histogram(stream, 20.0, 100.0)
        result = stats.chisquare(hist.counts)
        assert result.pvalue > 0.01

    def test_translation_invariance(self, source_150mw, bp0, chain):
        stream = simulate_timetags(source_150mw, bp0, chain, 0.5, seed=5)
        shifted = TimeTagStream(stream.t_ps + 123_456_789, stream.channel)
        a = coincidence_histogram(stream, 20.0, 25.0)
        b = coincidence_histogram(shifted, 20.0, 25.0)
        assert a.counts.sum() == b.counts.sum()
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_fitted_width_tracks_jitter_broadened_peak(self, bp0, chain):
        from cavityspdc import fit_exp_g2, t_fwhm_ns

        src = SourceRate(0.7, 75.0, 458.0)
        stream = simulate_timetags(src, bp0, chain, 10.0, seed=6)
        hist = coincidence_histogram(stream, 10.0, 25.0)
        fit = fit_exp_g2(hist)
        assert fit.converged
        assert fit.derived["t_fwhm_ns"] == pytest.approx(t_fwhm_ns(bp0), rel=0.10)


@pytest.mark.parametrize("argument, value", [
    *[(name, value) for name in ("center_ns", "window_ns", "accidental_offset_ns", "duration_s")
      for value in (math.nan, math.inf, -math.inf)],
    ("window_ns", -3.2),
])
def test_argument_checks_reject_non_finite_values(source_150mw, bp0, chain, argument, value):
    stream = TimeTagStream([100, 150], [0, 1])
    call = {
        "center_ns": lambda: count_coincidences(stream, value, 3.2),
        "window_ns": lambda: count_coincidences(stream, 0.0, value),
        "accidental_offset_ns": lambda: car_from_stream(stream, chain, value),
        "duration_s": lambda: simulate_timetags(source_150mw, bp0, chain, value, seed=0),
    }[argument]
    with pytest.raises(ValueError, match=f"^{argument} must be finite"):
        call()


class TestCarFromStream:
    def test_agrees_with_model_near_optimal_rate(self, bp0):
        # pick a chain whose optimal rate gives plenty of accidentals
        chain = quiet_chain(eta_s=0.5, eta_i=0.5, dark_s_per_s=2e4,
                            dark_i_per_s=2e4)
        rate = car_optimal_rate(chain)  # 4e4 pairs/s
        src = SourceRate(1.0, 1.0, rate)
        duration = 30.0
        stream = simulate_timetags(src, bp0, chain, duration, seed=7)
        car_mc = car_from_stream(stream, chain)
        model = car_model(rate, chain)
        coincidences = count_coincidences(stream, 0.0, chain.window_ns)
        sigma = model * math.sqrt(1.0 / coincidences + 1.0 /
                                  max(count_coincidences(stream, 50.0, chain.window_ns), 1))
        assert abs(car_mc - model) < 3.0 * sigma

    def test_uncorrelated_channels_car_near_unity(self, bp0):
        chain = quiet_chain(eta_s=0.0, eta_i=0.0, dark_s_per_s=3e4,
                            dark_i_per_s=3e4)
        src = SourceRate(0.7, 0.0, 458.0)
        stream = simulate_timetags(src, bp0, chain, 20.0, seed=8)
        assert car_from_stream(stream, chain) == pytest.approx(1.0, abs=0.25)

    def test_quoted_power_range_bound(self, source_150mw, bp0, chain):
        stream = simulate_timetags(source_150mw, bp0, chain, 10.0, seed=5)
        assert car_from_stream(stream, chain) > 6e3

    def test_infinite_sentinel_when_no_accidentals(self, bp0):
        chain = quiet_chain()
        src = SourceRate(1.0, 1.0, 100.0)
        stream = simulate_timetags(src, bp0, chain, 1.0, seed=9)
        assert car_from_stream(stream, chain) == math.inf

    def test_empty_stream_rejected(self, chain):
        with pytest.raises(ValueError, match="empty"):
            car_from_stream(TimeTagStream([], []), chain)

    def test_offset_must_clear_window(self, source_150mw, bp0, chain):
        stream = simulate_timetags(source_150mw, bp0, chain, 0.1, seed=10)
        with pytest.raises(ValueError, match="offset"):
            car_from_stream(stream, chain, accidental_offset_ns=4.0)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestEventBlocks:
    @pytest.fixture(scope="class")
    def record(self, source_150mw, bp0, chain):
        return simulate_timetags(source_150mw, bp0, chain, 20.0, seed=1)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_block_size_changes_no_result(self, tmp_path, monkeypatch, source_150mw,
                                          bp0, chain, block):
        # pairs straddle block edges at every block size
        stream = simulate_timetags(source_150mw, bp0, chain, 0.05, seed=3)
        results = []
        for size in (photostats._EVENT_BLOCK, block):
            monkeypatch.setattr(photostats, "_EVENT_BLOCK", size)
            path = tmp_path / f"{size}.ttag"
            write_ttag(stream, path)
            results.append((photostats._cross_deltas(stream, 60_000).tolist(),
                            coincidence_histogram(stream, 20.0, 25.0).counts.tolist(),
                            path.read_bytes()))
        assert results[0] == results[1]
        assert read_ttag(tmp_path / f"{block}.ttag") == stream

    def test_analysis_peak_per_event(self, record, chain):
        # no int64 difference per event: 9 B per event before the blocks
        assert traced_peak(coincidence_histogram, record, 20.0, 25.0) <= 3.0 * len(record)
        assert traced_peak(car_from_stream, record, chain) <= 3.0 * len(record)

    def test_read_peak_per_event(self, record, tmp_path):
        # the returned stream's 9 B per event and one reused block of
        # records, not the file beside the stream (19 B per event)
        path = tmp_path / "tags.ttag"
        write_ttag(record, path)
        block_bytes = photostats._TTAG_DTYPE.itemsize * photostats._EVENT_BLOCK
        assert traced_peak(read_ttag, path) <= 9 * len(record) + 2 * block_bytes

    def test_write_peak_per_event(self, record, tmp_path):
        # the records are filled and written a block at a time, not all at once
        assert traced_peak(write_ttag, record, tmp_path / "tags.ttag") <= 1.0 * len(record)


class TestMonteCarloConvergence:
    def test_car_converges_to_model_at_1e6_coincidences(self, bp0):
        # 4.5e6 pairs at 50% arm efficiency leave over 1e6 coincidences in
        # the window and a few thousand accidentals, enough for 5%
        chain = quiet_chain(eta_s=0.5, eta_i=0.5)
        src = SourceRate(1.0, 1.0, 1e6)
        duration = 4.5
        stream = simulate_timetags(src, bp0, chain, duration, seed=21)
        assert count_coincidences(stream, 0.0, chain.window_ns) >= 1_000_000
        car_mc = car_from_stream(stream, chain)
        model = car_model(pair_rate(src), chain)
        assert car_mc == pytest.approx(model, rel=0.05)


@given(dt=st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_count_coincidences_translation_invariant(dt):
    stream = TimeTagStream([100, 150, 90_000, 90_075], [0, 1, 0, 1])
    shifted = TimeTagStream(stream.t_ps + dt, stream.channel)
    assert count_coincidences(stream, 0.0, 3.2) == count_coincidences(
        shifted, 0.0, 3.2
    )


@st.composite
def small_streams(draw):
    """Sorted streams of up to 40 events; a narrow time span makes ties
    across channels and dense clusters, and a stream may use one channel."""
    span = draw(st.sampled_from([0, 30, 300, 10**6]))
    t = sorted(draw(st.lists(st.integers(0, span), max_size=40)))
    channels = draw(st.sampled_from([(0,), (1,), (0, 1)]))
    ch = [draw(st.sampled_from(channels)) for _ in t]
    return TimeTagStream(t, ch)


def brute_force_deltas(stream):
    """t_ch1 - t_ch0 for every cross-channel pair, O(n^2)."""
    t, ch = stream.t_ps.tolist(), stream.channel.tolist()
    return [t[j] - t[i] for i in range(len(t)) for j in range(len(t))
            if ch[i] == 0 and ch[j] == 1]


def brute_force_count(deltas, center_ns, window_ns):
    center_ps, half_ps = center_ns * 1e3, window_ns * 1e3 / 2.0
    return sum(center_ps - half_ps <= d <= center_ps + half_ps for d in deltas)


@given(stream=small_streams(), bin_ps=st.sampled_from([1, 2, 5, 25]),
       k_max=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_histogram_matches_brute_force(stream, bin_ps, k_max):
    hist = coincidence_histogram(stream, 2 * k_max * bin_ps / 1e3, bin_ps)
    expected = np.zeros(2 * k_max + 1, dtype=np.int64)
    for d in brute_force_deltas(stream):
        k = math.floor(d / bin_ps + 0.5)
        if abs(k) <= k_max:
            expected[k + k_max] += 1
    np.testing.assert_array_equal(hist.counts, expected)


@given(stream=small_streams(), center_ps=st.integers(-200, 200),
       window_ps=st.integers(0, 120))
@settings(max_examples=200, deadline=None)
def test_count_coincidences_matches_brute_force(stream, center_ps, window_ps):
    center_ns, window_ns = center_ps / 1e3, window_ps / 1e3
    assert count_coincidences(stream, center_ns, window_ns) == brute_force_count(
        brute_force_deltas(stream), center_ns, window_ns
    )


@given(stream=small_streams(), window_ps=st.integers(1, 40),
       extra_ps=st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_car_from_stream_matches_brute_force(stream, window_ps, extra_ps):
    chain = quiet_chain(window_ns=window_ps / 1e3)
    offset_ns = (2 * window_ps + extra_ps) / 1e3
    if len(stream) == 0:
        with pytest.raises(ValueError, match="empty"):
            car_from_stream(stream, chain, offset_ns)
        return
    deltas = brute_force_deltas(stream)
    peak = brute_force_count(deltas, 0.0, chain.window_ns)
    accidental = brute_force_count(deltas, offset_ns, chain.window_ns)
    expected = math.inf if accidental == 0 else peak / accidental
    assert car_from_stream(stream, chain, offset_ns) == expected
