"""Detection pipeline: transform, track the floor, decide, emit, a block of frames at a time."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .noisefloor import EmaTracker, NoiseFloorState
from .spectral import BinSet, FftPlan, Frame, SpectralFeatures, is_power_of_two, magnitude
from .trigger import (
    MAX_BIN_ID,
    ThresholdConfig,
    TriggerEvent,
    decide_bin,
    decide_event,
    first_firing_bin,
)

TRACKER_MEDIAN = "median"
TRACKER_EMA = "ema"
BLOCK_SAMPLES = 8192  # frames per block = this // frame_size (>= 1); larger slowed N=2048 down


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
        if self.frame_size < 8 or not is_power_of_two(self.frame_size):
            raise ValueError("frame_size must be a power of two >= 8")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self.bins.validate_for(self.frame_size)
        if self.bins.bins[-1] > MAX_BIN_ID:
            raise ValueError(f"bin {self.bins.bins[-1]} above the payload bin limit {MAX_BIN_ID}")
        if self.fast_window < 1 or self.slow_window < 1:
            raise ValueError("window sizes must be >= 1")
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
            if window.shape != (self.frame_size,):
                raise ValueError("window length must equal frame_size")
            self.window = window


@dataclass(eq=False)
class FrameResult:
    """Outputs of one pipeline step, enough to reconstruct the decision."""

    frame_index: int
    features: SpectralFeatures
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

    def frame_result(self, t: int) -> FrameResult:
        index = int(self.frame_indices[t])
        return FrameResult(
            frame_index=index,
            features=SpectralFeatures(frame_index=index, magnitudes=self.magnitudes[t]),
            estimates=self.estimates[t],
            margins=self.margins[t],
            event=int(self.events[t]),
            event_record=self.records[t],
        )


class Pipeline:
    """Stateful detector: owns the transform plan and the floor tracker.

    One instance per simulated node; process frames strictly in order.
    Analysis of frame t never depends on frame t+1, so sequential
    processing is behaviorally identical to the double-buffered
    acquire/analyze overlap it models (the overlap only matters for the
    latency budget, see latency_budget).
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self._plan = FftPlan(config.frame_size)
        if config.tracker == TRACKER_EMA:
            self._tracker = EmaTracker(config.bins, alpha=config.ema_alpha)
        else:
            self._tracker = NoiseFloorState(config.bins, config.fast_window, config.slow_window)
        self._coefficients = config.thresholds.as_array()
        self._block_rows = max(1, BLOCK_SAMPLES // config.frame_size)
        self._frames_processed = 0
        self._last_event_frame: int | None = None

    @property
    def tracker(self):
        return self._tracker

    @property
    def frames_processed(self) -> int:
        return self._frames_processed

    def process_blocks(self, frames) -> Iterator[BlockResult]:
        """The detection core: transform, floor update and decision, in order.

        Frames are stacked into blocks of BLOCK_SAMPLES // frame_size rows,
        one BlockResult per block, bit-identical to one frame at a time.
        Estimates update on every frame; events are forced to 0 during the
        warm-up. An error names the frame's position in ``frames``, and every
        frame before it has been processed.
        """
        frames, position = iter(frames), 0
        while block := list(islice(frames, self._block_rows)):
            try:
                yield self._step(block)
            except ValueError:
                # Redo the block frame by frame, to name the frame at fault.
                for offset, frame in enumerate(block):
                    try:
                        yield self._step([frame])
                    except ValueError as exc:
                        raise ValueError(f"frame {position + offset}: {exc}") from exc
            position += len(block)

    def _step(self, frames) -> BlockResult:
        """The detection core on one stacked block; raises before changing any state."""
        size = self.config.frame_size
        for frame in frames:
            if frame.size != size:
                raise ValueError(f"frame size {frame.size} does not match configured {size}")
        samples = np.array([frame.samples for frame in frames])
        if self.config.window is not None:
            samples = samples * self.config.window
        indices = [frame.frame_index for frame in frames]
        mags = magnitude(self._plan(samples), self.config.bins, indices[0]).magnitudes

        estimates = self._tracker.update_all(mags)
        margins = mags - self._coefficients * estimates
        decisions = decide_bin(mags, estimates, self._coefficients)
        events = decide_event(decisions)
        events[: max(self.config.warmup_frames - self._frames_processed, 0)] = 0

        records = [None] * len(frames)
        for t in events.nonzero()[0]:
            pos = first_firing_bin(decisions[t])
            estimate = estimates[t, pos]
            strength = float(mags[t, pos] / estimate) if estimate > 0 else math.inf
            last, self._last_event_frame = self._last_event_frame, indices[t]
            delta = indices[t] if last is None else indices[t] - last
            records[t] = TriggerEvent(delta, self.config.bins.bins[pos], strength)
        self._frames_processed += len(frames)
        return BlockResult(np.array(indices), mags, estimates, margins, events, records)

    def process_frame(self, frame: Frame) -> FrameResult:
        """Run one frame through the detection core, as a block of one."""
        return self._step([frame]).frame_result(0)

    def run_stream(self, frames) -> list[FrameResult]:
        """Process frames in order; per-frame errors carry the frame position."""
        return [b.frame_result(t) for b in self.process_blocks(frames) for t in range(len(b))]


def run_stream(config: PipelineConfig, frames) -> list[FrameResult]:
    """Convenience wrapper: fresh pipeline, frames processed sequentially."""
    return Pipeline(config).run_stream(frames)


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
