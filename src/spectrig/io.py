"""On-disk formats: binary frame container, CSV truth/event logs, JSON configs.

Frame container layout (all little-endian):
  bytes 0-3    magic b"STFR"
  bytes 4-5    format version (u16, currently 1)
  bytes 6-7    frame size N (u16)
  bytes 8-11   sample rate in Hz (f32)
  bytes 12-15  frame count (u32)
  bytes 16-    frame_count * N float64 samples, frame-major
"""

from __future__ import annotations

import csv
import json
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .envsim import (
    EventInterval,
    EventSpec,
    GroundTruth,
    PhaseSpec,
    Ramp,
    ScenarioConfig,
)
from .pipeline import PipelineConfig
from .spectral import BinSet, check_frame_format, chunk_rows
from .trigger import ThresholdConfig

FRAMES_MAGIC = b"STFR"
FRAMES_VERSION = 1
MAX_FRAME_SIZE = 0xFFFF  # the header's u16 frame-size field
_HEADER = struct.Struct("<4sHHfI")


def pack_header(frame_size: int, sample_rate_hz: float, frame_count: int) -> bytes:
    """The container header, once every field is checked to fit its slot.

    A ValueError here says the container cannot hold the stream, before
    anything is made on disk.
    """
    check_frame_format(frame_size, sample_rate_hz)
    if frame_size > MAX_FRAME_SIZE:
        raise ValueError(f"frame size {frame_size} above the container limit {MAX_FRAME_SIZE}")
    if not 0 < frame_count <= 0xFFFFFFFF:
        raise ValueError(f"a container holds 1 to {0xFFFFFFFF} frames, got {frame_count}")
    try:
        header = _HEADER.pack(FRAMES_MAGIC, FRAMES_VERSION, frame_size, sample_rate_hz, frame_count)
    except OverflowError as exc:  # a finite rate beyond the f32 range
        raise ValueError(f"sample rate {sample_rate_hz} does not fit the container: {exc}") from exc
    stored = _HEADER.unpack(header)[3]
    if stored != sample_rate_hz:
        raise ValueError(
            f"sample rate {sample_rate_hz} Hz is not exact as the container's f32 (reads back as {stored})"
        )
    return header


class FrameWriter:
    """A frame container being written, chunk by chunk, with write_frames(writer, chunk).

    The header, frame count included, is checked and packed before the file
    is opened, so a stream the container cannot hold leaves no file. If the
    stream fails, or ends with another frame count than the header's, the
    file is removed.
    """

    def __init__(self, path, frame_size: int, sample_rate_hz: float, frame_count: int):
        header = pack_header(frame_size, sample_rate_hz, frame_count)
        self.path, self.frame_size, self.frame_count = path, frame_size, frame_count
        self.frames_written = 0
        self._fh = open(path, "wb")
        self._fh.write(header)

    def __enter__(self) -> "FrameWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()
        if exc_type is None and self.frames_written == self.frame_count:
            return
        os.unlink(self.path)
        if exc_type is None:
            raise ValueError(f"{self.path}: wrote {self.frames_written} of {self.frame_count} frames")

    def _append(self, samples) -> None:
        samples = np.ascontiguousarray(samples, dtype="<f8")
        if samples.ndim != 2 or samples.shape[1] != self.frame_size:
            raise ValueError(f"expected (frames, {self.frame_size}) samples, got shape {samples.shape}")
        if self.frames_written + len(samples) > self.frame_count:
            raise ValueError(f"{self.path}: more than the header's {self.frame_count} frames")
        _check_finite(samples, self.frames_written)
        samples.tofile(self._fh)
        self.frames_written += len(samples)


def write_frames(target, samples, sample_rate_hz: float | None = None) -> None:
    """Write a (frames, N) sample array; row t is frame t.

    ``target`` is a path, which gets a whole container at ``sample_rate_hz``,
    or an open FrameWriter, which the rows are appended to.
    """
    if isinstance(target, FrameWriter):
        target._append(samples)
        return
    samples = np.ascontiguousarray(samples, dtype="<f8")
    if samples.ndim != 2 or not samples.size:
        raise ValueError(f"need a non-empty (frames, N) sample array, got shape {samples.shape}")
    with FrameWriter(target, samples.shape[1], sample_rate_hz, len(samples)) as writer:
        writer._append(samples)


class FrameReader:
    """An open frame container, read with read_frames(reader, start, stop) or block by block.

    Its header, magic, version and payload length are checked once, on opening.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            header = self._fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise ValueError(f"{path}: truncated frame container header")
            magic, version, size, rate, count = _HEADER.unpack(header)
            if magic != FRAMES_MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}")
            if version != FRAMES_VERSION:
                raise ValueError(f"{path}: unsupported container version {version}")
            expected = count * size * 8
            found = os.fstat(self._fh.fileno()).st_size - _HEADER.size
            if found != expected:
                raise ValueError(f"{path}: expected {expected} sample bytes, found {found}")
            check_frame_format(size, rate)
        except BaseException:
            self._fh.close()
            raise
        self.frame_size, self.sample_rate_hz, self.frame_count = size, float(rate), count

    def __enter__(self) -> "FrameReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def blocks(self) -> Iterator[np.ndarray]:
        """The stream in order, as (rows, N) arrays of chunk_rows(N) frames."""
        rows = chunk_rows(self.frame_size)
        for start in range(0, self.frame_count, rows):
            yield read_frames(self, start, min(start + rows, self.frame_count))[0]

    def _read(self, start: int, stop: int | None) -> np.ndarray:
        stop = self.frame_count if stop is None else stop
        if not 0 <= start <= stop <= self.frame_count:
            raise ValueError(f"frames [{start}, {stop}) outside the container's {self.frame_count}")
        size = self.frame_size
        self._fh.seek(_HEADER.size + start * size * 8)
        samples = np.fromfile(self._fh, dtype="<f8", count=(stop - start) * size)
        samples = samples.reshape(stop - start, size)
        _check_finite(samples, start)
        return samples


def read_frames(source, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, float]:
    """Frames [start, stop) of a container, by default all, as a (frames, N) float64
    array, and the container's sample rate in Hz.

    ``source`` is a path, or a FrameReader open on one. A non-finite sample
    is an error naming its frame's position in the whole stream.
    """
    if isinstance(source, FrameReader):
        return source._read(start, stop), source.sample_rate_hz
    with FrameReader(source) as reader:
        return reader._read(start, stop), reader.sample_rate_hz


def _check_finite(samples: np.ndarray, first: int) -> None:
    """Rows are frames first, first + 1, ...; the first one with a non-finite sample is named."""
    # A row's extremes are finite exactly when all its samples are; no (frames, N) mask needed.
    bad = np.flatnonzero(~(np.isfinite(samples.min(axis=1)) & np.isfinite(samples.max(axis=1))))
    if bad.size:
        raise ValueError(f"frame {first + bad[0]}: samples must all be finite")


def write_truth(path, truth: GroundTruth) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_frame", "end_frame", "bin"])
        for interval in truth:
            writer.writerow([interval.start_frame, interval.end_frame, interval.bin])


def read_truth(path) -> GroundTruth:
    intervals = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            intervals.append(
                EventInterval(
                    start_frame=int(row["start_frame"]),
                    end_frame=int(row["end_frame"]),
                    bin=int(row["bin"]),
                )
            )
    return GroundTruth(intervals=tuple(intervals))


@dataclass(frozen=True)
class EventRow:
    """One detector firing as logged to events.csv."""

    frame: int
    frame_delta: int
    bin: int
    strength: float
    payload: int


def write_events(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "frame_delta", "bin", "strength", "payload"])
        for row in rows:
            writer.writerow(
                [
                    row.frame,
                    row.frame_delta,
                    row.bin,
                    repr(float(row.strength)),
                    f"0x{row.payload:016x}",
                ]
            )


def read_events(path) -> list[EventRow]:
    rows = []
    with open(path, newline="") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                EventRow(
                    frame=int(record["frame"]),
                    frame_delta=int(record["frame_delta"]),
                    bin=int(record["bin"]),
                    strength=float(record["strength"]),
                    payload=int(record["payload"], 16),
                )
            )
    return rows


_SERIES_ROWS = 4096  # rows formatted at a time, to bound the Python objects alive at once


def write_series(path, columns: dict[str, np.ndarray]) -> None:
    """Plot-ready per-frame series; all columns must share one length.

    Integer columns are written as ints, any other as the repr of each value as a float.
    """
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"series columns differ in length: {sorted(lengths)}")
    integer = [np.issubdtype(a.dtype, np.integer) for a in arrays]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for start in range(0, arrays[0].shape[0], _SERIES_ROWS):
            rows = [a[start : start + _SERIES_ROWS] for a in arrays]
            writer.writerows(zip(*(
                r.tolist() if is_int else map(repr, r.astype(np.float64, copy=False).tolist())
                for r, is_int in zip(rows, integer)
            )))


def read_series(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}


def scenario_to_dict(scenario: ScenarioConfig) -> dict:
    phases = []
    for phase in scenario.phases:
        entry: dict = {"name": phase.name, "frames": phase.frame_count, "events": phase.event_count}
        if phase.ramp is not None:
            entry["ramp"] = {"start": phase.ramp.start, "end": phase.ramp.end}
        else:
            entry["level"] = phase.broadband_level
        phases.append(entry)
    return {
        "seed": scenario.seed,
        "frame_size": scenario.frame_size,
        "sample_rate_hz": scenario.sample_rate_hz,
        "bins": list(scenario.bins.bins),
        "warmup_frames": scenario.warmup_frames,
        "magnitude_jitter": scenario.magnitude_jitter,
        "phases": phases,
        "events": {
            "target_bins": list(scenario.events.target_bins),
            "amplitude_ratio": scenario.events.amplitude_ratio,
            "duration_frames": scenario.events.duration_frames,
            "min_gap_frames": scenario.events.min_gap_frames,
        },
    }


def scenario_from_dict(data: dict) -> ScenarioConfig:
    try:
        phases = tuple(
            PhaseSpec(
                name=p["name"],
                frame_count=int(p["frames"]),
                broadband_level=float(p.get("level", 0.0)),
                ramp=Ramp(float(p["ramp"]["start"]), float(p["ramp"]["end"]))
                if "ramp" in p
                else None,
                event_count=int(p.get("events", 0)),
            )
            for p in data["phases"]
        )
        events = data["events"]
        return ScenarioConfig(
            seed=int(data["seed"]),
            frame_size=int(data["frame_size"]),
            sample_rate_hz=float(data["sample_rate_hz"]),
            bins=BinSet(tuple(data["bins"])),
            phases=phases,
            events=EventSpec(
                target_bins=tuple(events["target_bins"]),
                amplitude_ratio=float(events["amplitude_ratio"]),
                duration_frames=int(events.get("duration_frames", 1)),
                min_gap_frames=int(events.get("min_gap_frames", 1)),
            ),
            warmup_frames=int(data.get("warmup_frames", 67)),
            magnitude_jitter=float(data.get("magnitude_jitter", 0.1)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"scenario config missing field or wrong type: {exc}") from exc


def pipeline_config_to_dict(config: PipelineConfig) -> dict:
    data = {
        "frame_size": config.frame_size,
        "sample_rate_hz": config.sample_rate_hz,
        "bins": list(config.bins.bins),
        "fast_window": config.fast_window,
        "slow_window": config.slow_window,
        "threshold_coefficients": list(config.thresholds.coefficients),
        "tracker": config.tracker,
        "ema_alpha": config.ema_alpha,
        "warmup_frames": config.warmup_frames,
    }
    if config.window is not None:  # a rectangular window writes no key
        data["window"] = config.window.tolist()
    return data


def pipeline_config_from_dict(data: dict) -> PipelineConfig:
    try:
        bins = BinSet(tuple(data["bins"]))
        if "threshold_coefficients" in data:
            thresholds = ThresholdConfig(tuple(data["threshold_coefficients"]))
        elif "threshold" in data:
            thresholds = ThresholdConfig.uniform(float(data["threshold"]), len(bins))
        else:
            thresholds = None
        return PipelineConfig(
            frame_size=int(data["frame_size"]),
            sample_rate_hz=float(data["sample_rate_hz"]),
            bins=bins,
            fast_window=int(data.get("fast_window", 3)),
            slow_window=int(data.get("slow_window", 64)),
            thresholds=thresholds,
            tracker=data.get("tracker", "median"),
            ema_alpha=float(data.get("ema_alpha", 0.95)),
            warmup_frames=int(data["warmup_frames"]) if "warmup_frames" in data else None,
            window=data.get("window"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"pipeline config missing field or wrong type: {exc}") from exc


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(path, payload: dict) -> None:
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> ScenarioConfig:
    return scenario_from_dict(load_json(path))


def save_scenario(path, scenario: ScenarioConfig) -> None:
    dump_json(path, scenario_to_dict(scenario))


def load_pipeline_config(path) -> PipelineConfig:
    return pipeline_config_from_dict(load_json(path))


def save_pipeline_config(path, config: PipelineConfig) -> None:
    dump_json(path, pipeline_config_to_dict(config))


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
