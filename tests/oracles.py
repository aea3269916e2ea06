"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: direct summation for the transform,
full sorts for the medians, frame-by-frame recomputation for the cascade.
None of it shares code with the package under test.
"""

import numpy as np


def naive_dft(x) -> np.ndarray:
    """Direct O(N^2) summation: X[k] = sum_n x[n] exp(-2j pi k n / N)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return kernel @ x


def naive_dft_many(frames) -> np.ndarray:
    """Direct DFT of every row of a (frames, N) matrix."""
    frames = np.asarray(frames, dtype=np.complex128)
    n = frames.shape[1]
    k = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return frames @ kernel.T


def radix2_reference(frames) -> np.ndarray:
    """The full radix-2 DIT transform of each row, written out stage by stage.

    Not naive: it is the butterfly sequence the transform has always run
    (bit reversal, then per stage upper + w * lower and upper - w * lower),
    kept here to pin the full spectrum's bytes.
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    bits = n.bit_length() - 1
    reverse = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    x = x[..., reverse].astype(np.complex128)
    half = 1
    while half < n:
        w = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
        x = x.reshape(-1, 2 * half)
        upper = x[:, :half].copy()
        lower = x[:, half:] * w
        x[:, :half] = upper + lower
        x[:, half:] = upper - lower
        half *= 2
    return x.reshape(np.shape(frames))


def packed_real_reference(frames) -> np.ndarray:
    """X[0 ... N/2] of each real row, by packing N samples into N/2 complex values.

    Not naive: it is the sequence the pipeline's transform runs, written out
    whole. Samples 2n and 2n + 1 are the real and imaginary parts of z[n]; an
    in-place radix-2 DIT transform of N/2 points (bit reversal, then per stage
    upper + w * lower and upper - w * lower) gives Z; the split gives
    X[k] = Z[k mod N/2]·½(1 − iW^k) + conj Z[−k mod N/2]·½(1 + iW^k), W = exp(−2πi/N).
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    h = n // 2
    z = np.empty(x.shape[:-1] + (h,), dtype=np.complex128)
    z.real, z.imag = x[..., 0::2], x[..., 1::2]
    bits = h.bit_length() - 1
    z = z[..., [int(format(i, f"0{bits}b")[::-1], 2) for i in range(h)]]
    half = 1
    while half < h:
        w = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
        z = z.reshape(-1, 2 * half)
        upper = z[:, :half].copy()
        lower = z[:, half:] * w
        z[:, :half] = upper + lower
        z[:, half:] = upper - lower
        half *= 2
    z = z.reshape(x.shape[:-1] + (h,))
    k = np.arange(h + 1)
    w = np.exp(-2j * np.pi * k / n)
    return z[..., k % h] * (0.5 * (1 - 1j * w)) + np.conj(z[..., -k % h]) * (0.5 * (1 + 1j * w))


def sorted_median(values) -> float:
    """Full-sort order statistic at index len // 2 (upper middle when even)."""
    ordered = sorted(float(v) for v in values)
    return ordered[len(ordered) // 2]


def cascade_reference(stream, fast_window: int, slow_window: int) -> list[float]:
    """Recompute both cascade stages from scratch at every frame."""
    stage1_outputs: list[float] = []
    estimates: list[float] = []
    for t in range(len(stream)):
        window1 = stream[max(0, t - fast_window + 1) : t + 1]
        stage1_outputs.append(sorted_median(window1))
        window2 = stage1_outputs[max(0, t - slow_window + 1) : t + 1]
        estimates.append(sorted_median(window2))
    return estimates


def ema_reference(stream, alpha: float) -> list[float]:
    """Exponential recursion seeded with the first value, one value at a time."""
    estimates: list[float] = []
    for value in stream:
        estimates.append(alpha * estimates[-1] + (1.0 - alpha) * value if estimates else value)
    return estimates


def naive_pipeline_events(
    frames,
    bins,
    fast_window: int,
    slow_window: int,
    coefficient: float,
    warmup: int,
    tracker: str = "median",
    alpha: float = 0.95,
) -> list[int]:
    """Frame indices (row positions of a (frames, N) array) with a system event,
    via naive DFT and recomputed medians (or, with tracker "ema", the
    exponential recursion)."""
    magnitudes = {k: [] for k in bins}
    for frame in frames:
        spectrum = naive_dft(frame)
        for k in bins:
            magnitudes[k].append(abs(spectrum[k]))
    if tracker == "ema":
        estimates = {k: ema_reference(magnitudes[k], alpha) for k in bins}
    else:
        estimates = {
            k: cascade_reference(magnitudes[k], fast_window, slow_window) for k in bins
        }
    events = []
    for t, frame in enumerate(frames):
        if t < warmup:
            continue
        if any(magnitudes[k][t] > coefficient * estimates[k][t] for k in bins):
            events.append(t)
    return events


def naive_fixed_events(frames, bins, calib_frames: int) -> list[tuple]:
    """(frame, delta, bin, strength, payload) of every frame the fixed-threshold baseline fires.

    Magnitudes are numpy's rfft bins; each bin's threshold is mean + 3 sigma of
    its first ``calib_frames`` magnitudes. A frame fires when any magnitude
    exceeds its threshold; the event's bin is the first such bin, its strength
    magnitude / threshold, its delta the frames since the previous event (from
    frame 0 for the first), and its payload delta | bin << 32 | the strength in
    Q8.8, saturating at 0xFFFF, << 40.
    """
    bins = [int(k) for k in bins]
    mags = np.abs(np.fft.rfft(np.asarray(frames, dtype=np.float64), axis=1)[:, bins])
    calib = mags[:calib_frames]
    thresholds = calib.mean(axis=0) + 3.0 * calib.std(axis=0)
    events, last = [], 0
    for t, row in enumerate(mags):
        over = [i for i in range(len(bins)) if row[i] > thresholds[i]]
        if not over:
            continue
        strength = float(row[over[0]] / thresholds[over[0]])
        raw = 0xFFFF if strength * 256 > 0xFFFF else round(strength * 256)
        events.append((t, t - last, bins[over[0]], strength, (t - last) | bins[over[0]] << 32 | raw << 40))
        last = t
    return events


def whole_stream_reference(scenario):
    """A scenario's samples and (start, end, bin) events, drawn for the whole stream at once.

    The generator's original whole-matrix form, one draw after another from
    one seeded generator: every frame's phases, then every frame's jitter,
    then per phase the sorted event anchors and per event its bin and tone
    phase. Chunked generation must reproduce these bits.
    """
    rng = np.random.default_rng(scenario.seed)
    size, total = scenario.frame_size, scenario.total_frames
    nyquist = size // 2
    levels = np.concatenate([p.levels() for p in scenario.phases])
    table = np.exp(2j * np.pi * np.arange(2**16) / 2**16)  # noise phase k/2**16 of a turn
    phases = table[np.floor(rng.random(size=(total, nyquist - 1)) * 2**16).astype(int)]
    jitter = rng.uniform(
        -scenario.magnitude_jitter, scenario.magnitude_jitter, size=(total, nyquist - 1)
    )
    spectrum = np.zeros((total, nyquist + 1), dtype=np.complex128)
    spectrum[:, 1:nyquist] = levels[:, None] * (1.0 + jitter) * phases
    spec, events, start = scenario.events, [], 0
    stride = spec.duration_frames + spec.min_gap_frames
    for phase in scenario.phases:
        end = start + phase.frame_count
        lo, hi = max(start, scenario.warmup_frames), end - spec.duration_frames
        if phase.event_count:
            upper = hi - (phase.event_count - 1) * stride
            anchors = np.sort(rng.integers(lo, upper + 1, size=phase.event_count))
            for i, anchor in enumerate(anchors):
                first = int(anchor) + i * stride
                target = int(rng.choice(spec.target_bins))
                last = first + spec.duration_frames
                tone = spec.amplitude_ratio * levels[first:last] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                spectrum[first:last, target] += tone
                events.append((first, last, target))
        start = end
    return np.fft.irfft(spectrum, n=size, axis=1), events
