"""Detection pipeline: transform, track the floor, decide, emit, a block of frames at a time."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .noisefloor import MAX_WINDOW, EmaTracker, NoiseFloorState
from .spectral import BLOCK_SAMPLES, BinSet, Frame, RealPlan, check_frame_format, chunk_rows
from .trigger import (
    MAX_BIN_ID,
    ThresholdConfig,
    TriggerEvent,
    bins_over,
    frames_fired,
)

TRACKER_MEDIAN = "median"
TRACKER_EMA = "ema"


@dataclass
class PipelineConfig:
    """Everything a detector instance needs, validated up front.

    ``window`` is an optional amplitude taper multiplied into each frame
    before the transform; the default (None) means a rectangular window.
    ``warmup_frames`` defaults to fast_window + slow_window: triggers are
    suppressed until both median stages have filled.
    """

    frame_size: int
    sample_rate_hz: float
    bins: BinSet
    fast_window: int = 3
    slow_window: int = 64
    thresholds: ThresholdConfig | None = None
    tracker: str = TRACKER_MEDIAN
    ema_alpha: float = 0.95
    warmup_frames: int | None = None
    window: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_frame_format(self.frame_size, self.sample_rate_hz)
        self.bins.validate_for(self.frame_size)
        if self.bins.bins[-1] > MAX_BIN_ID:
            raise ValueError(f"bin {self.bins.bins[-1]} above the payload bin limit {MAX_BIN_ID}")
        for name, size in (("fast_window", self.fast_window), ("slow_window", self.slow_window)):
            if not 1 <= size <= MAX_WINDOW:
                raise ValueError(f"{name} must be in 1..{MAX_WINDOW}, got {size!r:.40}")
        if self.thresholds is None:
            self.thresholds = ThresholdConfig.uniform(1.5, len(self.bins))
        if len(self.thresholds) != len(self.bins):
            raise ValueError("one threshold coefficient per monitored bin required")
        if self.tracker not in (TRACKER_MEDIAN, TRACKER_EMA):
            raise ValueError(f"unknown tracker {self.tracker!r}")
        if self.tracker == TRACKER_EMA and not 0.0 < self.ema_alpha < 1.0:
            raise ValueError("ema_alpha must be in (0, 1)")
        if self.warmup_frames is None:
            self.warmup_frames = self.fast_window + self.slow_window
        if self.warmup_frames < 0:
            raise ValueError("warmup_frames must be >= 0")
        if self.window is not None:
            window = np.asarray(self.window, dtype=np.float64)
            if window.shape != (self.frame_size,) or not np.isfinite(window).all():
                raise ValueError("window must hold frame_size finite values")
            self.window = window


@dataclass(eq=False)
class FrameResult:
    """Outputs of one pipeline step, enough to reconstruct the decision."""

    frame_index: int
    magnitudes: np.ndarray
    estimates: np.ndarray
    margins: np.ndarray
    event: int
    event_record: TriggerEvent | None = field(default=None)


@dataclass(eq=False)
class BlockResult:
    """Outputs for a run of frames: one row per frame, one column per bin."""

    frame_indices: np.ndarray
    magnitudes: np.ndarray
    estimates: np.ndarray
    margins: np.ndarray
    events: np.ndarray
    records: list  # TriggerEvent where the frame fired, else None

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, rows: slice) -> BlockResult:
        """The results of a slice of the rows: views of the arrays, and their records."""
        return BlockResult(
            self.frame_indices[rows], self.magnitudes[rows], self.estimates[rows],
            self.margins[rows], self.events[rows], self.records[rows],
        )

    def frame_result(self, t: int) -> FrameResult:
        return FrameResult(
            frame_index=int(self.frame_indices[t]),
            magnitudes=self.magnitudes[t],
            estimates=self.estimates[t],
            margins=self.margins[t],
            event=int(self.events[t]),
            event_record=self.records[t],
        )


class Pipeline:
    """Stateful detector: owns the transform plan and the floor tracker (``tracker``, a
    noisefloor tracker of config.bins, or else the one config.tracker names).

    One instance per simulated node; process frames strictly in order.
    Analysis of frame t never depends on frame t+1, so sequential
    processing is behaviorally identical to the double-buffered
    acquire/analyze overlap it models (the overlap only matters for the
    latency budget, see latency_budget).
    """

    def __init__(self, config: PipelineConfig, tracker=None):
        self.config = config
        self._plan = RealPlan(config.frame_size, config.bins)  # the monitored bins only
        if tracker is None and config.tracker == TRACKER_EMA:
            tracker = EmaTracker(config.bins, alpha=config.ema_alpha)
        elif tracker is None:
            tracker = NoiseFloorState(config.bins, config.fast_window, config.slow_window)
        self._tracker = tracker
        self._coefficients = config.thresholds.as_array()
        self._block_rows = max(1, BLOCK_SAMPLES // config.frame_size)
        # A span, decided (and unless windowed, transformed) at once: the most whole blocks, up
        # to one chunk, whose (rows, bins) magnitudes fit in BLOCK_SAMPLES values.
        rows = min(chunk_rows(config.frame_size), BLOCK_SAMPLES // len(config.bins))
        self._span_rows = max(1, rows // self._block_rows) * self._block_rows
        self._frames_processed = 0
        self._last_event_frame = 0  # so the first event's delta is its absolute index

    @property
    def frames_processed(self) -> int:
        return self._frames_processed

    def process_blocks(self, samples) -> Iterator[BlockResult]:
        """The detection core: transform, floor update and decision, in order.

        ``samples`` is a (frames, frame_size) array, cut into row views of
        BLOCK_SAMPLES // frame_size frames, one BlockResult each, bit-identical
        to one frame at a time. A frame's index is its position in the
        pipeline's stream. Estimates update on every frame; events are forced
        to 0 during the warm-up. Successive calls continue one stream. An error
        names the frame at fault by its index, and every frame before it has
        been processed.

        The work runs a span of several blocks at a time, so a span is processed
        in full before its first block is yielded. A span that raises has changed
        no state: it is redone row by row to name the bad frame (a row alone gives
        its bits in the span), and the frames before that one come out as one-row
        results, not as blocks.
        """
        samples, size = np.asarray(samples, dtype=np.float64), self.config.frame_size
        if samples.size and (samples.ndim != 2 or samples.shape[1] != size):
            raise ValueError(f"expected (frames, {size}) samples, got shape {samples.shape}")
        for start in range(0, len(samples), self._span_rows):
            span = samples[start : start + self._span_rows]
            try:
                result = self.decide(self._magnitudes(span))
            except ValueError:
                for row in span:
                    try:
                        yield self.decide(self._magnitudes(row[None]))
                    except ValueError as exc:
                        raise ValueError(f"frame {self._frames_processed}: {exc}") from exc
            else:
                for first in range(0, len(span), self._block_rows):
                    yield result[first : first + self._block_rows]

    def _magnitudes(self, samples: np.ndarray) -> np.ndarray:
        """Window, real-input transform and |X|: the rows' (rows, bins) magnitudes. A window's
        copy of the samples is made a block at a time."""
        window, step = self.config.window, self._block_rows
        if window is None:
            return np.abs(self._plan(samples))
        blocks = (samples[a : a + step] * window for a in range(0, len(samples), step))
        return np.concatenate([np.abs(self._plan(block)) for block in blocks])

    def decide(self, mags: np.ndarray) -> BlockResult:
        """Floor and decision on the (rows, bins) magnitudes of the frames after the last one
        processed; raises before changing any state.

        Each input is checked once: samples by the transform, magnitudes by the
        tracker. The estimates are selected from or averaged over checked magnitudes,
        or are checked fixed thresholds, and ThresholdConfig checked the coefficients,
        so the decision runs unchecked on the one floor computed here."""
        first = self._frames_processed
        estimates = self._tracker.update_all(mags)
        floor = self._coefficients * estimates
        margins = mags - floor
        decisions = bins_over(mags, floor)
        events = frames_fired(decisions)
        events[: max(self.config.warmup_frames - first, 0)] = 0

        records = [None] * len(mags)
        fired = events.nonzero()[0]
        if fired.size:  # each fired row's first firing bin and its strength, in one gather
            pos = decisions[fired].argmax(axis=1)
            with np.errstate(divide="ignore"):  # a zero estimate gives an infinite strength
                strengths = mags[fired, pos] / estimates[fired, pos]
            for t, p, strength in zip(fired.tolist(), pos.tolist(), strengths.tolist()):
                delta, self._last_event_frame = first + t - self._last_event_frame, first + t
                records[t] = TriggerEvent(delta, self.config.bins.bins[p], strength)
        self._frames_processed += len(mags)
        indices = np.arange(first, self._frames_processed)
        return BlockResult(indices, mags, estimates, margins, events, records)

    def process_frame(self, frame: Frame) -> FrameResult:
        """Run one frame through the detection core, as a block of one row."""
        return self.decide(self._magnitudes(frame.samples[None])).frame_result(0)


def run_stream(config: PipelineConfig, samples) -> list[FrameResult]:
    """A fresh pipeline's process_blocks over a (frames, frame_size) array, one FrameResult
    per frame; errors name the frame."""
    blocks = Pipeline(config).process_blocks(samples)
    return [block.frame_result(t) for block in blocks for t in range(len(block))]


def latency_budget(
    config: PipelineConfig,
    fft_time_s: float,
    median_time_s: float,
    decision_time_s: float,
) -> float:
    """Worst-case seconds from physical event to trigger availability.

    Acquisition contributes one frame period (frame_size / sample_rate);
    the double buffer overlaps acquisition of the next frame with analysis
    of the current one, so processing terms add once.
    """
    if min(fft_time_s, median_time_s, decision_time_s) < 0:
        raise ValueError("component times must be >= 0")
    if config.sample_rate_hz <= 0:
        raise ValueError("sample rate must be positive")
    acquire = config.frame_size / config.sample_rate_hz
    return acquire + fft_time_s + median_time_s + decision_time_s


def state_entry_count(config: PipelineConfig) -> int:
    """Persistent state entries: double sample buffer, median windows, coefficients."""
    m = len(config.bins)
    return 2 * config.frame_size + m * (config.fast_window + config.slow_window) + m


def state_memory_bytes(config: PipelineConfig, bits_per_entry: int = 16) -> int:
    """Footprint of the accounting formula at a given entry width."""
    if bits_per_entry <= 0 or bits_per_entry % 8:
        raise ValueError("bits_per_entry must be a positive multiple of 8")
    return state_entry_count(config) * (bits_per_entry // 8)
