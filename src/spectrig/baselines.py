"""Comparison detectors: fixed spectral threshold and decimated time-domain adaptive.

Both are deliberately simple reference points for head-to-head runs against
the adaptive spectral pipeline; neither adapts the way the main detector
does, which is exactly what the comparison is meant to expose.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from .noisefloor import FixedFloor
from .pipeline import Pipeline, PipelineConfig
from .spectral import BLOCK_SAMPLES
from .trigger import ThresholdConfig


# The decimated detector's rule: a frame fires when its RMS exceeds THRESHOLD_RATIO times the
# baseline, a single-pole tracker with coefficient ALPHA.
THRESHOLD_RATIO = 1.2
ALPHA = 0.95
# The fixed detector's thresholds: mean + SIGMA_MULTIPLE standard deviations per bin.
SIGMA_MULTIPLE = 3.0


def magnitude_matrix(features) -> np.ndarray:
    """Per-frame magnitude rows as a (frames, bins) float array, in C order so
    that per-bin sums do not depend on the caller's memory layout."""
    mags = np.ascontiguousarray(features, dtype=np.float64)
    if mags.size and mags.ndim != 2:
        raise ValueError(f"expected a (frames, bins) magnitude array, got shape {mags.shape}")
    return mags


def calibrate_fixed_thresholds(features) -> np.ndarray:
    """Mean + SIGMA_MULTIPLE * sigma per bin over a calibration stretch, as a (bins,) array."""
    mags = magnitude_matrix(features)
    if mags.size == 0:
        raise ValueError("calibration requires at least one frame of features")
    return mags.mean(axis=0) + SIGMA_MULTIPLE * mags.std(axis=0)


def fixed_spectral_detector(config: PipelineConfig, thresholds) -> Pipeline:
    """The detection core on a FixedFloor of the calibrated ``thresholds``, with coefficient 1
    and no warm-up: a frame fires iff a bin magnitude exceeds its constant threshold. Run it
    with ``decide`` on magnitudes, or on samples like any Pipeline."""
    fixed = replace(config, thresholds=ThresholdConfig.uniform(1.0, len(config.bins)), warmup_frames=0)
    return Pipeline(fixed, FixedFloor(config.bins, thresholds))


def frame_rms(samples):
    """Root-mean-square amplitude of one frame of samples, or of each row of a (T, N) block,
    strided or not, squared BLOCK_SAMPLES // N rows at a time; each row's bits are its own."""
    x = np.asarray(samples, dtype=np.float64)
    rows, step = x.reshape(-1, x.shape[-1]), max(1, BLOCK_SAMPLES // x.shape[-1])
    rms = np.empty(len(rows))
    for start in range(0, len(rows), step):
        rms[start : start + step] = np.mean(np.square(rows[start : start + step]), axis=-1)
    return float(np.sqrt(rms[0])) if x.ndim == 1 else np.sqrt(rms, out=rms)


def decimated_adaptive_detector(samples, decimation_factor: int) -> np.ndarray:
    """Time-domain envelope detector that only looks at every D-th frame.

    The amplitude baseline is a single-pole tracker over the RMS of the
    frames it actually sees, seeded by the first one (which never fires).
    Skipped frames always report 0 — events falling between inspected
    frames go unseen, which is this paradigm's known weakness. ``samples``
    is a (frames, N) array, or an iterator of (rows, N) chunks of one
    stream in order; the inspected frames are every D-th of the stream,
    across chunk edges.
    """
    if decimation_factor < 1:
        raise ValueError("decimation_factor must be >= 1")
    step = decimation_factor
    chunks = samples if isinstance(samples, Iterator) else [np.asarray(samples)]
    inspected_rms, total = [], 0
    for chunk in filter(len, chunks):
        # The first inspected frame of this chunk is the first multiple of D at or after `total`.
        inspected_rms.append(frame_rms(chunk[-total % step :: step]))
        total += len(chunk)
        del chunk  # released before the next chunk is read
    flags = np.zeros(total, dtype=np.int64)
    baseline: float | None = None
    for i, rms in enumerate(np.concatenate(inspected_rms) if total else []):
        if baseline is None:
            baseline = rms
            continue
        flags[i * step] = rms > THRESHOLD_RATIO * baseline
        baseline = ALPHA * baseline + (1.0 - ALPHA) * rms
    return flags
