"""Temporal noise-floor trackers: dual-stage cascaded median, an EMA variant and a fixed floor."""

from __future__ import annotations

import numpy as np


# Values a selection call holds in temporaries: a block's windows are cut into
# calls of at most this many values (2**16 measured fastest).
SELECT_VALUES = 1 << 16

# Consecutive windows whose medians are selected together around their shared
# core (of 1, 4, 6, 8, 10, 12 and 16, 8 measured fastest at window 64 on 4, 8 and 200 rows).
SHARED_WINDOWS = 8

# The longest window, in frames; its history, 2 float64 per frame and row, is made up front.
MAX_WINDOW = 1 << 16


class MedianWindows:
    """Sliding windows of fixed capacity, one row per series, with order-statistic medians.

    Each row's current window is kept in arrival order at the end of a
    history buffer with slack, so the windows after every push of a block
    are overlapping views of that buffer, and one selection over them gives
    the block's medians.

    The median of f filled samples is order statistic f // 2 (the upper
    middle for even f; never interpolated). A new window holds +inf at even
    and -inf at odd positions, evicted first, oldest first, leaving
    capacity//2 - f//2 of -inf after f pushes, so order statistic
    capacity // 2 of the whole window is exactly that median at every fill
    level: one fixed-index selection for all rows.

    Consecutive windows share all but a few values (Suomela 2014), so their
    medians are selected m at a time, m = min(SHARED_WINDOWS, k + 1, cap - k,
    windows left) with cap the capacity and k = cap // 2. The m windows of a
    group share a core of cap - m + 1 columns; each window adds m - 1 more, a
    contiguous slice of the group's fringe (its first and last m - 1
    columns). One partition of the core at k, then of its first k values at
    k - m + 1, gives the band: the core's order statistics k - m + 1 .. k.
    A window's median is order statistic m - 1 of the 2m - 1 values made of
    the band and its m - 1 others. That value v lies between the band's
    first and last values, since at most m - 1 of the set lie outside each
    end, so the core's k - m + 1 lower values are <= v and its cap - k - m
    upper values are >= v: at least k + 1 of the window's values are <= v
    and at least cap - k are >= v, which makes v its order statistic k.
    The clamps keep the band inside the core (k - m + 1 >= 0, k <= cap - m);
    they bind below capacity 15: m = 1 at capacity 1 and 2, 2 at capacity 4,
    3 at capacity 5. The windows left bound m for short pushes: a one-frame
    push and medians() take m = 1, a single partition of the whole window,
    and a push's last count % m windows go as one smaller group. Equal
    values may come from different columns, so of equal zeros the median
    may carry the other sign (np.abs never gives -0.0).
    """

    def __init__(self, capacity: int, rows: int = 1):
        if not 1 <= capacity <= MAX_WINDOW:
            raise ValueError(f"buffer capacity must be in 1..{MAX_WINDOW}, got {capacity!r:.40}")
        self.capacity = capacity
        self._history = np.empty((rows, 2 * capacity))  # the window, then slack
        self._history[:, :capacity] = np.where(np.arange(capacity) % 2 == 0, np.inf, -np.inf)
        self._end = capacity  # one past the newest value

    def push(self, block) -> np.ndarray:
        """Append a (rows, T) block of T values per row in order, evicting each
        row's oldest; returns the (rows, T) medians after each push."""
        block = np.asarray(block, dtype=np.float64)
        count, cap = block.shape[1], self.capacity
        if self._end + count > self._history.shape[1]:
            window = self._history[:, self._end - cap : self._end]
            if cap + count > self._history.shape[1]:
                self._history = np.empty((len(window), cap + max(cap, count)))
            self._history[:, :cap] = window  # the current window moves to the front
            self._end = cap
        self._history[:, self._end : self._end + count] = block
        self._end += count
        return self._select(self._end - count + 1 - cap, count)

    def medians(self) -> np.ndarray:
        """Median of every row's current window; nothing is reordered."""
        return self._select(self._end - self.capacity, 1)[:, 0]

    def _select(self, first: int, count: int) -> np.ndarray:
        """(rows, count) medians of the windows starting at history columns
        first, first + 1, ..., in groups of m windows, several groups a call."""
        history, cap = self._history, self.capacity
        # The median-of-3 network selects the partition's order statistic without a sort;
        # of equal zeros it may return the other sign.
        if cap == 3:
            a, b, c = (history[:, first + i : first + i + count] for i in range(3))
            low, high = np.minimum(a, b), np.maximum(a, b)
            np.minimum(high, c, out=high)
            return np.maximum(low, high, out=low)
        rows, k = len(history), cap // 2
        m = min(SHARED_WINDOWS, k + 1, cap - k, count or 1)  # a zero-frame push selects nothing
        if m == count:  # one group, as every one-frame push and medians() take
            return self._group_medians(first, 1, m).copy()  # frees the group's temporaries
        medians, whole = np.empty((rows, count)), count - count % m
        # A group's temporaries: its core with the band, then the band, fringe and sets.
        step = m * max(1, SELECT_VALUES // (rows * max(cap + 1, 2 * m * (m + 1) - 2)))
        for a in range(0, whole, step):
            b = min(a + step, whole)
            medians[:, a:b] = self._group_medians(first + a, (b - a) // m, m)
        if whole < count:  # the count % m windows left, as one smaller group
            medians[:, whole:] = self._group_medians(first + whole, 1, count - whole)
        return medians

    def _group_medians(self, column: int, groups: int, m: int) -> np.ndarray:
        """(rows, groups * m) medians of the windows starting at history columns column,
        column + 1, ..., m to a group (see the class docstring), as a view of temporaries."""
        history, cap, k = self._history, self.capacity, self.capacity // 2
        rows, item = len(history), history.itemsize

        def columns(offset: int, width: int) -> np.ndarray:
            """(rows, groups, width) view: each group's columns offset .. offset + width - 1."""
            return np.ndarray(
                (rows, groups, width), history.dtype, history, (column + offset) * item,
                (history.strides[0], m * item, item),
            )

        core = np.partition(columns(m - 1, cap - m + 1), k, axis=2)
        if m == 1:
            return core[:, :, k]
        core[:, :, :k].partition(k - m + 1, axis=2)
        band = core[:, :, k - m + 1 : k + 1].copy()
        del core
        fringe = np.concatenate((columns(0, m - 1), columns(cap, m - 1)), axis=2)
        sets = np.empty((rows, groups, m, 2 * m - 1))
        sets[:, :, :, :m] = band[:, :, None, :]
        # Window j's others are fringe[j : j + m - 1]: one view (sliding_window_view costs more).
        shape, strides = (rows, groups, m, m - 1), fringe.strides + (item,)
        sets[:, :, :, m:] = np.ndarray(shape, fringe.dtype, fringe, 0, strides)
        sets.partition(m - 1, axis=3)
        return sets[:, :, :, m - 1].reshape(rows, groups * m)


class _BinTracker:
    """Per-bin estimates; subclasses supply ``_track(block)``, the update of every
    bin by a (T, M) block of frames in order, returning the (T, M) estimates after
    each frame. Every bin updates on every frame."""

    def __init__(self, bins):
        self.bins = tuple(bins)
        self._estimates = np.zeros(len(self.bins))

    def update_all(self, magnitudes) -> np.ndarray:
        """Update every bin with one frame's magnitudes, shape (M,), or with a
        (T, M) block of frames in order; returns estimates of the same shape.
        Magnitudes are checked before any state changes."""
        mags = np.asarray(magnitudes, dtype=np.float64)
        if mags.ndim not in (1, 2) or mags.shape[-1] != len(self.bins):
            raise ValueError(f"expected {len(self.bins)} magnitudes per frame, got {mags.shape}")
        if not np.isfinite(mags).all() or (mags < 0).any():
            raise ValueError("magnitudes must be finite and >= 0")
        block = mags.reshape(-1, len(self.bins))
        estimates = self._track(block)
        if len(block):
            self._estimates = estimates[-1].copy()
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
    Each stage keeps all bins as one MedianWindows, one row per bin, and a
    block of frames goes through each stage as one (bins, T) push.
    """

    def __init__(self, bins, fast_window: int = 3, slow_window: int = 64):
        super().__init__(bins)
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.stage1 = MedianWindows(fast_window, len(self.bins))
        self.stage2 = MedianWindows(slow_window, len(self.bins))

    def _track(self, block):
        return self.stage2.push(self.stage1.push(block.T)).T


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

    def _track(self, block):
        """The recursion frame by frame, with the same float operations for any block size."""
        estimates = np.empty_like(block)
        estimate = self._estimates
        for t, magnitudes in enumerate(block):
            if self._seeded:
                estimate = self.alpha * estimate + (1.0 - self.alpha) * magnitudes
            else:
                estimate, self._seeded = magnitudes, True
            estimates[t] = estimate
        return estimates


class FixedFloor(_BinTracker):
    """Constant per-bin estimates, never adapted: the fixed baseline's calibrated thresholds."""

    def __init__(self, bins, thresholds):
        super().__init__(bins)
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.thresholds.shape != (len(self.bins),):
            raise ValueError(f"expected {len(self.bins)} thresholds, got shape {self.thresholds.shape}")
        if not (np.isfinite(self.thresholds) & (self.thresholds > 0)).all():
            raise ValueError("thresholds must be finite and > 0")

    def _track(self, block):
        return np.broadcast_to(self.thresholds, block.shape)
