"""Detection scoring against ground truth, plus traffic and payload bookkeeping.

Scoring convention: true events are counted per truth interval (a detection
on any frame of an interval claims the whole interval, once), while false
positives and true negatives are counted per non-event frame. That is the
only convention under which interval counts and frame counts can share one
confusion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envsim import GroundTruth
from .trigger import PAYLOAD_BITS

BITS_PER_FEATURE = 16  # one streamed feature value, in the traffic comparison
SETTLE_FRACTION = 0.25  # the trailing share of a phase whose threshold median is "settled"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def score(
    event_frames,
    truth: GroundTruth,
    total_frames: int,
    warmup_frames: int = 0,
) -> ConfusionMatrix:
    """Score detector firings against truth intervals.

    ``event_frames`` is any iterable of frame indices where the detector
    fired. Frames before ``warmup_frames`` are excluded from scoring on
    both sides; truth intervals must lie entirely inside the scored region.
    """
    if total_frames <= 0:
        raise ValueError("total_frames must be positive")
    if not 0 <= warmup_frames <= total_frames:
        raise ValueError("warmup_frames must lie within the frame range")

    interval_frames = 0
    for interval in truth:
        if interval.start_frame < warmup_frames or interval.end_frame > total_frames:
            raise ValueError(
                f"truth interval [{interval.start_frame}, {interval.end_frame}) "
                "outside the scored region"
            )
        interval_frames += interval.end_frame - interval.start_frame

    hits, stray = _match(event_frames, truth, warmup_frames, total_frames)
    tp = sum(hits)
    fp = int(stray.size)
    tn = (total_frames - warmup_frames) - interval_frames - fp
    return ConfusionMatrix(tp=tp, fp=fp, fn=len(truth) - tp, tn=tn)


def _match(event_frames, truth: GroundTruth, lo: float, hi: float):
    """Distinct event frames in [lo, hi) against truth: whether each interval
    was hit, and the event frames that hit no interval (sorted)."""
    events = np.asarray(sorted({int(f) for f in event_frames if lo <= int(f) < hi}), dtype=np.int64)
    covered = np.zeros(events.size, dtype=bool)
    hits = []
    for interval in truth:
        inside = (events >= interval.start_frame) & (events < interval.end_frame)
        hits.append(bool(inside.any()))
        covered |= inside
    return hits, events[~covered]


def _ratio(numerator: int, denominator: int) -> float | None:
    return numerator / denominator if denominator > 0 else None


def derive_metrics(cm: ConfusionMatrix) -> dict[str, float | None]:
    """The metrics document's ``derived`` rates; a rate whose denominator is 0 is None."""
    return {
        "sensitivity": _ratio(cm.tp, cm.tp + cm.fn),
        "specificity": _ratio(cm.tn, cm.tn + cm.fp),
        "precision": _ratio(cm.tp, cm.tp + cm.fp),
        "accuracy": _ratio(cm.tp + cm.tn, cm.total),
        "false_alarm_rate": _ratio(cm.fp, cm.fp + cm.tn),
    }


PHASE_COLUMNS = (
    "name", "start_frame", "end_frame", "true_events", "detected_events", "missed_events",
    "false_positives",
)


def per_phase_scores(
    event_frames,
    truth: GroundTruth,
    phase_bounds,
    warmup_frames: int = 0,
) -> list[dict]:
    """The metrics document's ``per_phase`` rows, keyed by PHASE_COLUMNS: TP/FN split
    per interval (by start frame) and FP per frame."""
    hits, stray = _match(event_frames, truth, warmup_frames, math.inf)
    detected = dict(zip(truth, hits))

    rows = []
    for name, start, end in phase_bounds:
        phase_intervals = [iv for iv in truth if start <= iv.start_frame < end]
        found = sum(detected[iv] for iv in phase_intervals)
        false_positives = int(((stray >= start) & (stray < end)).sum())
        counts = (len(phase_intervals), found, len(phase_intervals) - found, false_positives)
        rows.append(dict(zip(PHASE_COLUMNS, (name, start, end, *counts))))
    return rows


def traffic_stats(
    frame_count: int, event_count: int, monitored_bins: int, bits_per_feature: int
) -> dict[str, float]:
    """The metrics document's ``traffic`` section: trigger-only transmission volume (PAYLOAD_BITS
    an event) versus streaming every feature vector. ``reduction_factor`` is inf when none is sent."""
    if frame_count <= 0:
        raise ValueError("frame_count must be positive")
    if min(event_count, monitored_bins, bits_per_feature) < 0:
        raise ValueError("counts must be >= 0")
    feature_bits = frame_count * monitored_bins * bits_per_feature
    trigger_bits = event_count * PAYLOAD_BITS
    return {
        "data_reduction": 1.0 - event_count / frame_count,
        "feature_stream_bits": feature_bits,
        "trigger_stream_bits": trigger_bits,
        "reduction_factor": feature_bits / trigger_bits if trigger_bits > 0 else math.inf,
    }


def payload_comparison(
    frame_size: int = 128,
    bits_per_sample: int = 16,
    decimation_factor: int = 4,
    monitored_bins: int = 16,
    bits_per_feature: int = 16,
) -> dict[str, int]:
    """Per-event payload size of the four transmission architectures."""
    return {
        "raw_streaming": frame_size * bits_per_sample,
        "decimated_streaming": (frame_size // decimation_factor) * bits_per_sample,
        "feature_transmission": monitored_bins * bits_per_feature,
        "trigger_only": PAYLOAD_BITS,
    }


def amplification(mean_hops: float, false_alarm_rate: float, payload_bits: float) -> float:
    """Mesh-wide traffic cost of false alarms: hops x alarm rate x payload size."""
    if min(mean_hops, false_alarm_rate, payload_bits) < 0:
        raise ValueError("amplification inputs must be >= 0")
    return mean_hops * false_alarm_rate * payload_bits


def threshold_adaptation(threshold_series, phase_bounds, warmup_frames: int = 0) -> dict[str, float]:
    """The metrics document's ``threshold`` section: a per-frame threshold trace
    summarized against the phase layout.

    "Settled" means the median over the trailing SETTLE_FRACTION of a
    phase, where the tracker has had the whole phase to converge.
    ``adaptation_ratio`` is inf when the first phase settles at 0. A phase
    with no frame after the warm-up is a ValueError naming it.
    """
    series = np.asarray(threshold_series, dtype=np.float64)
    if series.ndim != 1 or series.size == 0:
        raise ValueError("threshold series must be a non-empty 1-D sequence")
    for name, start, end in phase_bounds:
        if max(start, warmup_frames) >= end:
            raise ValueError(
                f"phase {name!r} [{start}, {end}) has no frame after the {warmup_frames}-frame warm-up"
            )

    def settled(start: int, end: int) -> float:
        tail = max(start, end - max(1, int((end - start) * SETTLE_FRACTION)))
        return float(np.median(series[tail:end]))

    _, first_start, first_end = phase_bounds[0]
    _, last_start, last_end = phase_bounds[-1]
    first = settled(max(first_start, warmup_frames), first_end)
    last = settled(max(last_start, warmup_frames), last_end)
    scored = series[warmup_frames:]
    return {
        "min": float(scored.min()),
        "max": float(scored.max()),
        "settled_first_phase": first,
        "settled_last_phase": last,
        "adaptation_ratio": last / first if first > 0 else math.inf,
    }


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def build_metrics(
    event_frames,
    truth: GroundTruth,
    total_frames: int,
    warmup_frames: int,
    phase_bounds=None,
    threshold_series=None,
    monitored_bins: int | None = None,
) -> dict:
    """Assemble the full metrics document (JSON-ready). ``threshold_series``, one
    threshold per frame, is summarized per phase, so only with ``phase_bounds``. An event
    frame outside [0, total_frames) is a ValueError naming the first one."""
    event_frames = [int(f) for f in event_frames]
    outside = next((f for f in event_frames if not 0 <= f < total_frames), None)
    if outside is not None:
        raise ValueError(f"event frame {outside} outside the stream's {total_frames} frames")
    cm = score(event_frames, truth, total_frames, warmup_frames)
    transmitted = len({f for f in event_frames if f >= warmup_frames})
    document = {
        "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn, "total": cm.total},
        "derived": derive_metrics(cm),
        "frames": {"total": total_frames, "warmup_excluded": warmup_frames},
        "events_transmitted": transmitted,
    }
    if monitored_bins is not None:
        document["traffic"] = traffic = traffic_stats(
            total_frames, transmitted, monitored_bins, BITS_PER_FEATURE
        )
        traffic["reduction_factor"] = _finite_or_none(traffic["reduction_factor"])
    if phase_bounds is not None:
        document["per_phase"] = per_phase_scores(event_frames, truth, phase_bounds, warmup_frames)
        if threshold_series is not None:
            series = np.asarray(threshold_series, dtype=np.float64)
            if series.shape != (total_frames,):
                raise ValueError(f"threshold series of shape {series.shape}, expected ({total_frames},)")
            document["threshold"] = summary = threshold_adaptation(series, phase_bounds, warmup_frames)
            summary["adaptation_ratio"] = _finite_or_none(summary["adaptation_ratio"])
            for entry, (_, start, end) in zip(document["per_phase"], phase_bounds):
                window = series[max(start, warmup_frames) : end]
                entry["threshold_min"] = float(window.min())
                entry["threshold_max"] = float(window.max())
    return document
