"""Comparison detectors: fixed spectral threshold and decimated time-domain adaptive.

Both are deliberately simple reference points for head-to-head runs against
the adaptive spectral pipeline; neither adapts the way the main detector
does, which is exactly what the comparison is meant to expose.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedThresholdConfig:
    """Constant per-bin magnitude thresholds, never adapted."""

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        thresholds = tuple(float(t) for t in self.thresholds)
        if not thresholds:
            raise ValueError("at least one threshold is required")
        if any(not math.isfinite(t) or t <= 0 for t in thresholds):
            raise ValueError("thresholds must be finite and > 0")
        object.__setattr__(self, "thresholds", thresholds)

    @classmethod
    def uniform(cls, threshold: float, count: int) -> "FixedThresholdConfig":
        return cls(thresholds=(threshold,) * count)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.thresholds, dtype=np.float64)


@dataclass(frozen=True)
class DecimationConfig:
    """Every D-th frame is inspected in the time domain; the rest are skipped."""

    decimation_factor: int = 4
    threshold_ratio: float = 1.2
    alpha: float = 0.95

    def __post_init__(self) -> None:
        if self.decimation_factor < 1:
            raise ValueError("decimation_factor must be >= 1")
        if self.threshold_ratio <= 0 or not math.isfinite(self.threshold_ratio):
            raise ValueError("threshold_ratio must be finite and > 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


def magnitude_matrix(features) -> np.ndarray:
    """Per-frame magnitude rows as a (frames, bins) float array, in C order so
    that per-bin sums do not depend on the caller's memory layout."""
    mags = np.ascontiguousarray(features, dtype=np.float64)
    if mags.size and mags.ndim != 2:
        raise ValueError(f"expected a (frames, bins) magnitude array, got shape {mags.shape}")
    return mags


def calibrate_fixed_thresholds(features, sigma_multiple: float = 3.0) -> FixedThresholdConfig:
    """Mean + k*sigma per bin over a calibration stretch of features."""
    mags = magnitude_matrix(features)
    if mags.size == 0:
        raise ValueError("calibration requires at least one frame of features")
    thresholds = mags.mean(axis=0) + sigma_multiple * mags.std(axis=0)
    return FixedThresholdConfig(thresholds=tuple(float(t) for t in thresholds))


def fixed_spectral_detector(features, config: FixedThresholdConfig) -> np.ndarray:
    """Event flag per frame: 1 iff any bin magnitude exceeds its constant threshold."""
    mags = magnitude_matrix(features)
    if mags.size == 0:
        return np.zeros(0, dtype=np.int64)
    thresholds = config.as_array()
    if mags.shape[1] != thresholds.size:
        raise ValueError(
            f"feature width {mags.shape[1]} does not match {thresholds.size} thresholds"
        )
    return (mags > thresholds).any(axis=1).astype(np.int64)


def frame_rms(samples):
    """Root-mean-square amplitude of one frame of samples, or of each row of a (T, N) block."""
    rms = np.sqrt(np.mean(np.square(np.asarray(samples, dtype=np.float64)), axis=-1))
    return float(rms) if rms.ndim == 0 else rms


def decimated_adaptive_detector(samples, config: DecimationConfig) -> np.ndarray:
    """Time-domain envelope detector that only looks at every D-th frame.

    The amplitude baseline is a single-pole tracker over the RMS of the
    frames it actually sees, seeded by the first one (which never fires).
    Skipped frames always report 0 — events falling between inspected
    frames go unseen, which is this paradigm's known weakness. ``samples``
    is a (frames, N) array, or an iterator of (rows, N) chunks of one
    stream in order; the inspected frames are every D-th of the stream,
    across chunk edges.
    """
    step = config.decimation_factor
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
        flags[i * step] = rms > config.threshold_ratio * baseline
        baseline = config.alpha * baseline + (1.0 - config.alpha) * rms
    return flags
