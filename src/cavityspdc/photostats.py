"""Monte Carlo generation and analysis of detector time-tag streams
(jitter, dark counts, coincidence windows); the CAR model they are checked
against is ``config``'s."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .biphoton import BiphotonParams, coherence_scale_ps
from .config import MAX_DURATION_S, DetectionChain, SourceRate, histogram_k_max, pair_rate
from .polarization import _exact

TTAG_MAGIC = b"TTAG1\x00"
_TTAG_DTYPE = np.dtype([("t", "<u8"), ("ch", "u1")])

#: Events per block when a record is scanned for delays or order, or
#: written out or read in: a block's temporaries stay in cache and far
#: below the record's size.
_EVENT_BLOCK = 1 << 14


class TimeTagStream:
    """Channel-tagged event list, timestamps in integer picoseconds."""

    __slots__ = ("t_ps", "channel")

    def __init__(self, t_ps, channel):
        t_ps = _exact(t_ps, np.int64, "t_ps must be whole picoseconds within int64")
        channel = _exact(channel, np.uint8, "channel must be 0 or 1")
        if t_ps.shape != channel.shape or t_ps.ndim != 1:
            raise ValueError("t_ps and channel must be matching 1-d arrays")
        if channel.size and channel.max() > 1:
            raise ValueError("channel must be 0 or 1")
        # block by block, each block overlapping the next by one event, so
        # no temporary as long as the record
        for start in range(0, t_ps.size - 1, _EVENT_BLOCK):
            block = t_ps[start:start + _EVENT_BLOCK + 1]
            if not np.all(block[1:] >= block[:-1]):
                raise ValueError("timestamps must be non-decreasing")
        self.t_ps = t_ps
        self.channel = channel

    def __len__(self):
        return self.t_ps.size

    def __eq__(self, other):
        if not isinstance(other, TimeTagStream):
            return NotImplemented
        return np.array_equal(self.t_ps, other.t_ps) and np.array_equal(
            self.channel, other.channel
        )


def write_ttag(stream: TimeTagStream, path) -> None:
    """Binary export: magic 'TTAG1\\0', then (u64 timestamp_ps, u8 channel)."""
    if stream.t_ps.size and stream.t_ps.min() < 0:
        raise ValueError("negative timestamps cannot be stored; translate first")
    n = stream.t_ps.size
    records = np.empty(min(n, _EVENT_BLOCK), dtype=_TTAG_DTYPE)
    with open(path, "wb") as fh:
        fh.write(TTAG_MAGIC)
        for start in range(0, n, _EVENT_BLOCK):
            block = records[:min(_EVENT_BLOCK, n - start)]
            block["t"] = stream.t_ps[start:start + block.size]
            block["ch"] = stream.channel[start:start + block.size]
            fh.write(block.data)


def read_ttag(path) -> TimeTagStream:
    """The stream that write_ttag stored at path.

    The file is the magic 'TTAG1\\0', then packed 9-byte records (u64
    timestamp_ps, u8 channel).  A file that does not start with the magic,
    or whose size is not the magic plus whole records, raises ValueError
    before anything is allocated; a read that ends early raises it too, so
    does a timestamp at or above 2**63 ps, which int64 cannot hold, and the
    stream's own checks (channels 0 or 1, non-decreasing timestamps) then
    apply.  The record count comes from the file's size, so the stream's
    arrays (9 bytes per event) are allocated once and filled _EVENT_BLOCK
    records at a time through one reused buffer: the read holds the
    returned stream plus one block, never the whole file.
    """
    with open(path, "rb") as fh:
        if fh.read(len(TTAG_MAGIC)) != TTAG_MAGIC:
            raise ValueError(f"{path}: not a TTAG1 file")
        n, rest = divmod(os.fstat(fh.fileno()).st_size - len(TTAG_MAGIC),
                         _TTAG_DTYPE.itemsize)
        if rest:
            raise ValueError(f"{path}: truncated record")
        t_ps = np.empty(n, dtype=np.int64)
        channel = np.empty(n, dtype=np.uint8)
        records = np.empty(min(n, _EVENT_BLOCK), dtype=_TTAG_DTYPE)
        for start in range(0, n, _EVENT_BLOCK):
            block = records[:min(_EVENT_BLOCK, n - start)]
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"{path}: truncated record")
            t_ps[start:start + block.size] = block["t"]
            # the cast to int64 wraps a time at or above 2**63 to a negative one
            if t_ps[start:start + block.size].min() < 0:
                raise ValueError(f"{path}: timestamp at or above 2**63 ps")
            channel[start:start + block.size] = block["ch"]
    return TimeTagStream(t_ps, channel)


#: Pairs drawn per chunk: a chunk's buffers and temporaries (a few hundred
#: kB) stay in a core's L2 cache while its four streams are read.
_DRAW_CHUNK = 1 << 14


def _laplace_from_uniforms(u: np.ndarray, scale: float) -> np.ndarray:
    """numpy's Laplace(0, scale) transform of uniforms u, with u + u floored at
    2**-52: -scale*log(2 - u - u) for u >= 0.5, else scale*log(u + u)."""
    upper = u >= 0.5
    log_u = np.log(np.where(upper, 2.0 - u - u, np.maximum(u + u, 2.0**-52)))
    np.negative(log_u, out=log_u, where=upper)
    return scale * log_u


def _streams_from(rng):
    """at(k): a new Generator standing k draws past rng's current state."""
    kind, state = type(rng.bit_generator), rng.bit_generator.state

    def at(k):
        # a fixed seed, not OS entropy: the state is overwritten at once
        bit_gen = kind(0)
        bit_gen.state = state
        return np.random.Generator(bit_gen.advance(k))

    return at


def _read_range(at, n: int, eta_s: float, eta_i: float, duration_ps: float, scale_ps: float):
    """The detected photons' times of a record of n pairs.

    at(k) gives a generator k draws into the record's uniforms.  Pair j's
    time (duration_ps * u), delay and signal and idler survival (u < eta
    survives) uniforms are the j-th draws of the blocks at 0, n, 2n and 3n,
    read side by side, _DRAW_CHUNK pairs at a time, into reused buffers;
    only the survivors are scaled and given their Laplace(scale_ps) delay.
    Returns the signal and the idler times, each a list of per-chunk arrays.
    """
    pair, delay, survival_s, survival_i = at(0), at(n), at(2 * n), at(3 * n)
    size = min(n, _DRAW_CHUNK)
    t_buf, u_buf, d_buf = np.empty(size), np.empty(size), np.empty(size)
    signal, idler = [], []
    for start in range(0, n, _DRAW_CHUNK):
        m = min(_DRAW_CHUNK, n - start)
        t_pair = pair.random(out=t_buf[:m])
        u_delay = delay.random(out=d_buf[:m])
        keep = np.flatnonzero(survival_s.random(out=u_buf[:m]) < eta_s)
        t_signal = t_pair.take(keep)
        t_signal *= duration_ps
        signal.append(t_signal)
        keep = np.flatnonzero(survival_i.random(out=u_buf[:m]) < eta_i)
        t_idler = t_pair.take(keep)
        t_idler *= duration_ps
        t_idler += _laplace_from_uniforms(u_delay.take(keep), scale_ps)
        idler.append(t_idler)
    return signal, idler


def simulate_timetags(
    src: SourceRate,
    bp: BiphotonParams,
    chain: DetectionChain,
    duration_s: float,
    seed,
) -> TimeTagStream:
    """Monte Carlo detector record of a CW pair source.

    Pairs arrive as a Poisson process at pair_rate(src); the signal-idler
    delay is drawn from the two-sided exponential matching the pair
    correlation function; each photon independently survives with its arm
    efficiency; surviving timestamps get Gaussian jitter; independent dark
    counts are added per channel.  If a negative delay or jitter pushes the
    earliest event below zero, the whole record is translated to start at 0.

    The draw order from default_rng(seed) is the stream's contract:
    Poisson(rate * duration) pairs n; n pair times duration_ps * u; n
    delay uniforms; n signal and then n idler survival uniforms (u < eta
    survives); signal then idler jitter normals for the survivors; the
    signal then idler dark-count Poisson numbers; the signal then idler
    dark times duration_ps * u.  Only the surviving idlers' delay uniforms
    become delays, and one that is exactly 0.0 is read as 2**-53, the
    smallest nonzero draw, where Generator.laplace would redraw it.  So a
    record without such a zero (n pairs hold one with probability about
    n * 2**-53) is the one rng.uniform and rng.laplace calls in that order
    give, up to np.log's last-place difference from the C library's log,
    which the rounding to integer picoseconds absorbs.

    The seed is an int, a SeedSequence or None, and the generator is
    PCG64(seed), the one default_rng(seed) builds; a Generator passed as
    seed raises TypeError.  The four blocks of n uniforms are read side by
    side on the calling thread, each from its own generator placed by
    PCG64's advance (one rng.random() double is one 64-bit draw), in fixed
    chunks of pairs, so memory grows with the detected events only.

    duration_s must be finite, > 0 and at most MAX_DURATION_S, whose time
    keys fit int64; any other value raises ValueError before a draw.
    """
    if not (math.isfinite(duration_s) and 0.0 < duration_s <= MAX_DURATION_S):
        raise ValueError(f"duration_s must be finite, > 0 and <= {MAX_DURATION_S:g}, "
                         f"got {duration_s!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    duration_ps = duration_s * 1e12

    n_pairs = int(rng.poisson(pair_rate(src) * duration_s))
    at = _streams_from(rng)
    t_signal, t_idler = _read_range(at, n_pairs, chain.eta_s, chain.eta_i, duration_ps,
                                    coherence_scale_ps(bp))

    rng = at(4 * n_pairs)
    if chain.jitter_sigma_ps > 0.0:
        for part in t_signal + t_idler:
            part += rng.normal(0.0, chain.jitter_sigma_ps, part.size)

    n_dark_s = rng.poisson(chain.dark_s_per_s * duration_s)
    n_dark_i = rng.poisson(chain.dark_i_per_s * duration_s)
    dark_s = rng.uniform(0.0, duration_ps, n_dark_s)
    dark_i = rng.uniform(0.0, duration_ps, n_dark_i)

    # sorting 2*t + channel puts channel 0 first on a timestamp tie
    parts = t_signal + [dark_s] + t_idler + [dark_i]
    first_idler = sum(part.size for part in t_signal) + n_dark_s
    key = np.empty(sum(part.size for part in parts), dtype=np.int64)
    end = 0
    for part in parts:
        key[end:end + part.size] = np.rint(part, out=part)
        end += part.size
    del parts, t_signal, t_idler, dark_s, dark_i
    key <<= 1
    key[first_idler:] += 1
    key.sort()
    channel = key.astype(np.uint8)
    channel &= 1
    key >>= 1
    if key.size and key[0] < 0:
        key -= key[0]
    return TimeTagStream(key, channel)


@dataclass(frozen=True)
class Histogram:
    """Cross-correlation histogram with bin centers in ps."""

    bin_centers_ps: np.ndarray
    counts: np.ndarray

    def csv_rows(self):
        return list(zip(self.bin_centers_ps.tolist(), self.counts.tolist()))


HISTOGRAM_CSV_HEADER = ("bin_center_ps", "counts")


def _cross_deltas(stream: TimeTagStream, limit_ps: float) -> np.ndarray:
    """Every cross-channel delay t_ch1 - t_ch0 with |delay| <= limit_ps.

    Scans the sorted record at lag 1, 2, ...; t[i + lag] - t[i] grows with
    lag, so only indices still inside the limit go on to the next lag and
    the cost is linear in events (Wahl et al., Opt. Express 11, 3583 (2003)).
    """
    t, ch = stream.t_ps, stream.channel.view(np.int8)
    # the lag-1 candidates, found block by block with no difference per event
    i = np.concatenate([np.empty(0, dtype=np.intp)] + [
        start + np.flatnonzero(np.diff(t[start:start + _EVENT_BLOCK + 1]) <= limit_ps)
        for start in range(0, t.size - 1, _EVENT_BLOCK)
    ])
    deltas = [np.empty(0, dtype=np.int64)]
    lag = 1
    while i.size:
        sign = ch[i + lag] - ch[i]
        cross = sign != 0
        deltas.append((t[i + lag] - t[i])[cross] * sign[cross])
        lag += 1
        i = i[i + lag < t.size]
        i = i[t[i + lag] - t[i] <= limit_ps]
    return np.concatenate(deltas)


def _window_counts(stream: TimeTagStream, half_ps: float, *centers_ps: float) -> list[int]:
    """Cross-channel pairs within +-half_ps of each center, from one scan."""
    deltas = _cross_deltas(stream, max(map(abs, centers_ps)) + half_ps)
    return [int(np.count_nonzero((deltas >= c - half_ps) & (deltas <= c + half_ps)))
            for c in centers_ps]


def coincidence_histogram(stream: TimeTagStream, range_ns: float, bin_ps: float) -> Histogram:
    """Histogram of cross-channel delays (t_ch1 - t_ch0) over +-range/2.

    Bin centers sit at integer multiples of bin_ps so a zero-delay pair
    lands in the central bin; bin_ps must divide the range evenly.
    """
    k_max = histogram_k_max(range_ns, bin_ps)

    deltas = _cross_deltas(stream, limit_ps=(k_max + 0.5) * bin_ps)
    # half-open bins [k*bin - bin/2, k*bin + bin/2); plain rounding would
    # break ties to even and alias the integer-ps delay lattice
    k = np.floor(deltas / bin_ps + 0.5).astype(np.int64)
    k = k[np.abs(k) <= k_max]
    counts = np.bincount(k + k_max, minlength=2 * k_max + 1)
    centers = np.arange(-k_max, k_max + 1, dtype=np.int64) * int(round(bin_ps))
    return Histogram(bin_centers_ps=centers, counts=counts.astype(np.int64))


def count_coincidences(stream: TimeTagStream, center_ns: float, window_ns: float) -> int:
    """Cross-channel pairs with (t_ch1 - t_ch0) within +-window/2 of center."""
    if not math.isfinite(center_ns):
        raise ValueError(f"center_ns must be finite, got {center_ns!r}")
    if not (math.isfinite(window_ns) and window_ns >= 0.0):
        raise ValueError(f"window_ns must be finite and >= 0, got {window_ns!r}")
    (count,) = _window_counts(stream, window_ns * 1e3 / 2.0, center_ns * 1e3)
    return count


def _car_counts(
    stream: TimeTagStream,
    chain: DetectionChain,
    accidental_offset_ns: float,
) -> tuple[int, int]:
    """Cross-channel pairs in the zero-delay window and in an equal window
    displaced by accidental_offset_ns, from one scan of the record."""
    if len(stream) == 0:
        raise ValueError("empty stream")
    if not (math.isfinite(accidental_offset_ns)
            and accidental_offset_ns > 2.0 * chain.window_ns):
        raise ValueError("accidental_offset_ns must be finite and far exceed the "
                         f"window, got {accidental_offset_ns!r}")
    peak, accidental = _window_counts(
        stream, chain.window_ns * 1e3 / 2.0, 0.0, accidental_offset_ns * 1e3
    )
    return peak, accidental


def car_from_stream(
    stream: TimeTagStream,
    chain: DetectionChain,
    accidental_offset_ns: float = 50.0,
) -> float:
    """CAR estimated with a delayed accidental window.

    Ratio of coincidences in the zero-delay window to coincidences in an
    equal window displaced by accidental_offset_ns.  Returns +inf when the
    accidental window is empty.
    """
    peak, accidental = _car_counts(stream, chain, accidental_offset_ns)
    return peak / accidental if accidental else math.inf
