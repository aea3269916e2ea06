"""Output checks made apart from the program.

Every check here recomputes what it compares from the job's inputs with
numpy and the standard library, or tests a property of the method. Nothing
imports the program, and nothing compares against a stored copy of output.
"""

from __future__ import annotations

import csv
import json
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from workloads import (
    CALIB_FRAMES,
    COEFFICIENT,
    DECIMATION,
    EMA_ALPHA,
    FAST_WINDOW,
    SLOW_WINDOW,
    WARMUP,
    Workload,
)

ORACLE_PREFIX = 1024
FEATURE_RTOL = 1e-9
_HEADER = struct.Struct("<4sHHfI")


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_samples(path, start: int = 0, count: int | None = None) -> np.ndarray:
    """(frames, N) samples of a frame container, parsed from its documented layout."""
    with open(path, "rb") as fh:
        magic, _version, size, _rate, total = _HEADER.unpack(fh.read(_HEADER.size))
        require(magic == b"STFR", f"{path}: bad magic {magic!r}")
        if count is None:
            count = total - start
        require(0 <= start and start + count <= total, f"{path}: frames {start}+{count} beyond {total}")
        fh.seek(_HEADER.size + start * size * 8)
        samples = np.fromfile(fh, dtype="<f8", count=count * size)
    require(samples.size == count * size, f"{path}: truncated samples")
    return samples.reshape(count, size)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rfft_magnitudes(samples: np.ndarray, bins, chunk: int = 512) -> np.ndarray:
    """|rfft| at the given bins, computed in chunks to keep memory small."""
    index = np.asarray(bins)
    parts = [np.abs(np.fft.rfft(samples[i : i + chunk], axis=1)[:, index]) for i in range(0, len(samples), chunk)]
    return np.vstack(parts)


def sort_median(x: np.ndarray, window: int, chunk: int = 256) -> np.ndarray:
    """Causal running order statistic len//2 of a full sort, per column.

    The first window-1 rows use the partially filled window.
    """
    out = np.empty_like(x)
    for t in range(min(window - 1, len(x))):
        out[t] = np.sort(x[: t + 1], axis=0)[(t + 1) // 2]
    if len(x) >= window:
        views = sliding_window_view(x, window, axis=0)
        for i in range(0, len(views), chunk):
            out[window - 1 + i : window - 1 + i + chunk] = np.sort(views[i : i + chunk], axis=-1)[..., window // 2]
    return out


def ema_floor(mags: np.ndarray) -> np.ndarray:
    est = np.empty_like(mags)
    est[0] = mags[0]
    for t in range(1, len(mags)):
        est[t] = EMA_ALPHA * est[t - 1] + (1.0 - EMA_ALPHA) * mags[t]
    return est


def recount(event_frames, truth_rows, total: int) -> dict:
    """TP per truth interval, FP per stray event frame, after warm-up."""
    events = sorted({f for f in event_frames if WARMUP <= f < total})
    intervals = [(int(r["start_frame"]), int(r["end_frame"])) for r in truth_rows]
    covered = set()
    tp = 0
    for start, end in intervals:
        inside = [f for f in events if start <= f < end]
        tp += bool(inside)
        covered.update(inside)
    fp = len(events) - len(covered)
    return {"tp": tp, "fp": fp, "fn": len(intervals) - tp, "transmitted": len(events)}


def check_payloads(rows, bins) -> None:
    previous = None
    for row in rows:
        frame, payload = int(row["frame"]), int(row["payload"], 16)
        delta = payload & 0xFFFFFFFF
        bin_id = (payload >> 32) & 0xFF
        raw = (payload >> 40) & 0xFFFF
        gap = frame if previous is None else frame - previous
        require(payload >> 56 == 0, f"frame {frame}: reserved payload bits set")
        require(delta == gap == int(row["frame_delta"]), f"frame {frame}: delta {delta}, gap {gap}")
        require(bin_id == int(row["bin"]), f"frame {frame}: payload bin {bin_id} != row bin {row['bin']}")
        require(bins is None or bin_id in bins, f"frame {frame}: bin {bin_id} not monitored")
        strength = float(row["strength"])
        require(abs(raw / 256 - min(strength, 0xFFFF / 256)) <= 1 / 256, f"frame {frame}: strength {strength} vs Q8.8 {raw}")
        previous = frame


def check_proposed(rows, series_rows, mags: np.ndarray, tracker: str, label: str) -> None:
    """Event frames and series feature on the prefix, against rfft + sort medians or the EMA recurrence."""
    if tracker == "ema":
        floor = ema_floor(mags)
    else:
        floor = sort_median(sort_median(mags, FAST_WINDOW), SLOW_WINDOW)
    margins = mags - COEFFICIENT * floor
    prefix = len(mags)
    fired = np.flatnonzero((margins > 0).any(axis=1))
    expected = [int(t) for t in fired if t >= WARMUP]
    got = [int(r["frame"]) for r in rows if int(r["frame"]) < prefix]
    require(got == expected, f"{label}: event frames in the first {prefix} differ from the oracle")
    feature = mags[np.arange(prefix), np.argmax(margins, axis=1)]
    reported = np.array([float(r["feature"]) for r in series_rows[:prefix]])
    require(reported.size == prefix, f"{label}: series.csv shorter than {prefix} rows")
    worst = float(np.max(np.abs(reported - feature) / feature))
    require(worst <= FEATURE_RTOL, f"{label}: series feature off by {worst:.2e} relative")


def check_fixed(rows, mags: np.ndarray) -> None:
    """Mean + 3 sigma thresholds over the calibration frames, and what they imply."""
    calib = mags[:CALIB_FRAMES]
    thresholds = calib.mean(axis=0) + 3.0 * calib.std(axis=0)
    over = mags > thresholds
    fired = np.flatnonzero(over.any(axis=1))
    require([int(r["frame"]) for r in rows] == fired.tolist(), "fixed: firing frames differ from mean+3sigma thresholds")
    for row, t in zip(rows, fired):
        pos = int(np.argmax(over[t]))
        strength = float(row["strength"])
        expected = mags[t, pos] / thresholds[pos]
        require(abs(strength - expected) <= FEATURE_RTOL * expected, f"fixed: frame {t} strength {strength} vs {expected}")


def check_job(workload: Workload, layout: dict) -> dict:
    """Run every check on one job's artifacts; returns counts for the report."""
    samples = read_samples(layout["frames"])
    total = len(samples)
    require(total == workload.total_frames, f"frames.bin holds {total} frames, expected {workload.total_frames}")
    truth = read_rows(layout["truth"])
    require(len(truth) == workload.event_count, f"truth.csv holds {len(truth)} events, expected {workload.event_count}")
    detect_kinds = {label: (detector, tracker) for label, detector, tracker in workload.detects}
    prefix_mags = rfft_magnitudes(samples[:ORACLE_PREFIX], workload.bins)
    summary = {}
    for label, files in layout["detects"].items():
        detector, tracker = detect_kinds[label]
        rows = read_rows(files["events"])
        frames = [int(r["frame"]) for r in rows]
        counts = recount(frames, truth, total)
        with open(files["metrics"]) as fh:
            metrics = json.load(fh)
        confusion = metrics["confusion"]
        for key in ("tp", "fp", "fn"):
            require(confusion[key] == counts[key], f"{label}: metrics.json {key}={confusion[key]}, recount {counts[key]}")
        require(metrics["events_transmitted"] == counts["transmitted"], f"{label}: transmitted count differs")
        reduction = 1.0 - counts["transmitted"] / total
        require(abs(metrics["traffic"]["data_reduction"] - reduction) <= 1e-12, f"{label}: data_reduction differs")
        check_payloads(rows, None if detector == "decimated" else set(workload.bins))
        if detector == "proposed":
            sensitivity = counts["tp"] / (counts["tp"] + counts["fn"])
            require(counts["fp"] == 0 and sensitivity >= 0.95, f"{label}: FP={counts['fp']}, sensitivity={sensitivity:.3f}")
            check_proposed(rows, read_rows(files["series"]), prefix_mags, tracker or "median", label)
        elif detector == "fixed":
            check_fixed(rows, rfft_magnitudes(samples, workload.bins))
        elif detector == "decimated":
            require(all(f % DECIMATION == 0 for f in frames), "decimated: fired off a multiple of D")
        summary[label] = {"events": len(rows), **counts}
    return summary
