"""Temporal noise-floor trackers: dual-stage cascaded median and an EMA variant."""

from __future__ import annotations

import numpy as np


class MedianWindows:
    """Fixed-capacity circular windows, one row per series, with order-statistic medians.

    The median of f filled samples is order statistic f // 2 (the upper
    middle for even f; never interpolated). Unfilled slots hold +inf at even
    and -inf at odd positions and fill in order, leaving capacity//2 - f//2
    of -inf, so order statistic capacity // 2 of the whole row is exactly
    that median at every fill level: one fixed-index selection for all rows.
    """

    def __init__(self, capacity: int, rows: int = 1):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        empty = np.where(np.arange(capacity) % 2 == 0, np.inf, -np.inf)
        self._values = np.tile(empty, (rows, 1))
        self._next = 0

    def push(self, values) -> None:
        """Insert one value per row, evicting each row's oldest."""
        self._values[:, self._next] = values
        self._next = (self._next + 1) % self.capacity

    def medians(self) -> np.ndarray:
        """Median of every row; the windows are not reordered."""
        mid = self.capacity // 2
        return np.partition(self._values, mid, axis=1)[:, mid]


class MedianBuffer(MedianWindows):
    """A single window with scalar push and median."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.fill_count = 0

    def push(self, value: float) -> None:
        super().push(value)
        self.fill_count = min(self.fill_count + 1, self.capacity)

    def median(self) -> float:
        if self.fill_count == 0:
            raise ValueError("median of an empty buffer")
        return float(self.medians()[0])

    def contents(self) -> np.ndarray:
        """Copy of the filled window (storage order, not insertion order)."""
        return self._values[0, : self.fill_count].copy()


class _BinTracker:
    """Per-bin estimates; subclasses supply ``_advance(magnitudes)``, one frame's
    update of every bin, returning the new estimates. Every bin updates on every frame."""

    def __init__(self, bins):
        self.bins = tuple(bins)
        self._estimates = np.zeros(len(self.bins))

    def update(self, bin_index: int, magnitude: float) -> float:
        """update_all for a one-bin tracker: one magnitude in, the refreshed estimate out."""
        if self.bins != (bin_index,):
            raise KeyError(f"bin {bin_index} is not the one bin tracked; use update_all")
        return float(self.update_all([magnitude])[0])

    def update_all(self, magnitudes) -> np.ndarray:
        """Update every bin with one frame's magnitudes, shape (M,), or with a
        (T, M) block of frames in order; returns estimates of the same shape."""
        mags = np.asarray(magnitudes, dtype=np.float64)
        if mags.ndim not in (1, 2) or mags.shape[-1] != len(self.bins):
            raise ValueError(f"expected {len(self.bins)} magnitudes per frame, got {mags.shape}")
        if not np.isfinite(mags).all() or (mags < 0).any():
            raise ValueError("magnitudes must be finite and >= 0")
        block = mags.reshape(-1, len(self.bins))
        estimates = np.empty_like(block)
        for t, frame in enumerate(block):
            estimates[t] = self._estimates = self._advance(frame)
        return estimates.reshape(mags.shape)

    @property
    def estimates(self) -> np.ndarray:
        """Current per-bin estimates, aligned with the bin order."""
        return self._estimates.copy()


class NoiseFloorState(_BinTracker):
    """Per-bin dual-stage cascaded median tracker.

    Stage 1 is a short window that absorbs single-frame artifacts; its
    median feeds stage 2, a long window that follows slow ambient drift.
    Both stages update unconditionally on every frame, trigger or not.
    Each stage keeps all bins as one (bins, window) matrix.
    """

    def __init__(self, bins, fast_window: int = 3, slow_window: int = 64):
        if fast_window < 1 or slow_window < 1:
            raise ValueError("window sizes must be >= 1")
        super().__init__(bins)
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.stage1 = MedianWindows(fast_window, len(self.bins))
        self.stage2 = MedianWindows(slow_window, len(self.bins))

    def _advance(self, magnitudes):
        self.stage1.push(magnitudes)
        self.stage2.push(self.stage1.medians())
        return self.stage2.medians()


class EmaTracker(_BinTracker):
    """Single-pole exponential tracker, selectable in place of the cascade.

    estimate <- alpha * estimate + (1 - alpha) * magnitude, seeded with the
    first frame's magnitudes.
    """

    def __init__(self, bins, alpha: float = 0.95):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        super().__init__(bins)
        self.alpha = alpha
        self._seeded = False

    def _advance(self, magnitudes):
        if not self._seeded:
            self._seeded = True
            return magnitudes.copy()
        return self.alpha * self._estimates + (1.0 - self.alpha) * magnitudes
