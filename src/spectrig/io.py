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
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path
from sys import float_info

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
from .spectral import BinSet, as_int, check_frame_format, chunk_rows
from .trigger import ThresholdConfig

FRAMES_MAGIC = b"STFR"
FRAMES_VERSION = 1
MAX_FRAME_SIZE = 0xFFFF  # the header's u16 frame-size field
_HEADER = struct.Struct("<4sHHfI")
_RATE = struct.Struct("<f")  # the header's sample-rate field


def check_container_format(frame_size: int, sample_rate_hz: float) -> None:
    """check_frame_format, and that the header holds both exactly: N in its u16 field and
    the rate as its f32. The config decoders and pack_header call this."""
    check_frame_format(frame_size, sample_rate_hz)
    if frame_size > MAX_FRAME_SIZE:
        raise ValueError(f"frame size {frame_size} above the container limit {MAX_FRAME_SIZE}")
    try:
        (stored,) = _RATE.unpack(_RATE.pack(sample_rate_hz))
    except OverflowError as exc:  # a finite rate beyond the f32 range
        raise ValueError(f"sample rate {sample_rate_hz} does not fit the container: {exc}") from exc
    if stored != sample_rate_hz:
        raise ValueError(
            f"sample rate {sample_rate_hz} Hz is not exact as the container's f32 (reads back as {stored})"
        )


def pack_header(frame_size: int, sample_rate_hz: float, frame_count: int) -> bytes:
    """The container header, once every field is checked to fit its slot, before anything is on disk."""
    check_container_format(frame_size, sample_rate_hz)
    if not 0 < frame_count <= 0xFFFFFFFF:
        raise ValueError(f"a container holds 1 to {0xFFFFFFFF} frames, got {frame_count}")
    return _HEADER.pack(FRAMES_MAGIC, FRAMES_VERSION, frame_size, sample_rate_hz, frame_count)


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


@dataclass(frozen=True)
class EventRow:
    """One detector firing as logged to events.csv."""

    frame: int
    frame_delta: int
    bin: int
    strength: float
    payload: int


def _write_csv(path, header, rows, lineterminator="\r\n", row_format=None) -> None:
    """A UTF-8 CSV file: the header line, then one line per row of ``rows`` (any iterable).
    With ``row_format``, a %-format for rows of numbers, which need no quoting, each line
    is ``row_format % row``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        if row_format is None:
            writer.writerows(rows)
        else:
            line = row_format + lineterminator
            fh.writelines(line % row for row in rows)


def _read_csv(path, decode, header=None) -> tuple[list[str], list]:
    """A UTF-8 CSV file's header and decode(fields) of each row after it. An empty file, a
    header other than ``header`` (if given), a row with another field count than the header
    or a row decode rejects is a ValueError naming the file (and line), as is text that is
    not UTF-8."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader, None)
            if names is None:
                raise ValueError(f"{path}: empty file, expected a header line")
            if header is not None and names != header:
                raise ValueError(f"{path}: expected the header {','.join(header)}, got {','.join(names)}")
            rows = []
            for row in reader:
                try:
                    if len(row) != len(names):
                        raise ValueError(f"expected the header's {len(names)} fields, got {len(row)}")
                    rows.append(decode(row))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # raised by the reads of the header and of the rows
            raise ValueError(f"{path}: {exc}") from exc
    return names, rows


# truth.csv's and events.csv's headers: their row classes' field names, in order.
_TRUTH_HEADER = [f.name for f in fields(EventInterval)]
_EVENT_HEADER = [f.name for f in fields(EventRow)]


def write_truth(path, truth: GroundTruth) -> None:
    _write_csv(path, _TRUTH_HEADER, ((i.start_frame, i.end_frame, i.bin) for i in truth))


def read_truth(path) -> GroundTruth:
    _, rows = _read_csv(path, lambda row: EventInterval(*map(int, row)), _TRUTH_HEADER)
    return GroundTruth(tuple(rows))


def write_events(path, rows) -> None:
    _write_csv(path, _EVENT_HEADER, (
        (r.frame, r.frame_delta, r.bin, repr(float(r.strength)), f"0x{r.payload:016x}") for r in rows
    ))


def read_events(path) -> list[EventRow]:
    return _read_csv(path, lambda r: EventRow(*map(int, r[:3]), float(r[3]), int(r[4], 16)), _EVENT_HEADER)[1]


def write_table(path, keys, rows) -> None:
    """CSV with a header line of keys, then those keys' values of each row (a mapping)."""
    _write_csv(path, keys, ([row[k] for k in keys] for row in rows), lineterminator="\n")


_SERIES_ROWS = 4096  # rows formatted at a time, to bound the Python objects alive at once


def write_series(path, columns: dict[str, np.ndarray]) -> None:
    """Plot-ready per-frame series of equal-length columns: integer columns as ints, any
    other as the repr of each value as a float."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"series columns differ in length: {sorted(lengths)}")
    integer = [np.issubdtype(a.dtype, np.integer) for a in arrays]
    slices = ([a[s : s + _SERIES_ROWS] for a in arrays] for s in range(0, len(arrays[0]), _SERIES_ROWS))
    _write_csv(path, names, chain.from_iterable(zip(*(
        r.tolist() if is_int else r.astype(np.float64, copy=False).tolist()
        for r, is_int in zip(rows, integer)
    )) for rows in slices), row_format=",".join("%d" if is_int else "%r" for is_int in integer))


def read_series(path) -> dict[str, np.ndarray]:
    """A series CSV's columns by header name. An empty file, a row with another field count
    than the header or a field that is not a number is a ValueError naming the file (and line)."""
    names, rows = _read_csv(path, lambda row: [float(v) for v in row])
    data = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}


# Each config's JSON form is one table of (JSON key, field, decode, encode) rows. An absent
# key is not passed, so its field takes the dataclass default; a None field writes no key.


def _same(value):
    return value


def _real(value) -> float:
    """A finite JSON number as a float; anything else is a ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= float_info.max:
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r:.40}")


def _items(value, decode=_same) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r:.40}")
    return tuple(map(decode, value))


def _encode(table, obj) -> dict:
    return {key: encode(v) for key, name, _, encode in table if (v := getattr(obj, name)) is not None}


def _decode(cls, table, data, legacy=(), exclusive=()):
    """A cls from the JSON object ``data``; any error is a ValueError naming the JSON key.
    A key neither in the table nor ``legacy`` (read by the caller) is an error, and so are
    the two ``exclusive`` keys together, as one of them would go unused."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {data!r:.40}")
    known = {row[0] for row in table}.union(legacy)
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown field {unknown[0]!r}")
    if exclusive and all(key in data for key in exclusive):
        raise ValueError(f"{cls.__name__}: fields {exclusive[0]!r} and {exclusive[1]!r} exclude each other")
    required = {f.name for f in fields(cls) if f.default is MISSING}
    kwargs = {}
    for key, name, decode, _ in table:
        if key in data:
            try:
                kwargs[name] = decode(data[key])
            except ValueError as exc:
                raise ValueError(f"{cls.__name__} field {key!r}: {exc}") from exc
        elif name in required:
            raise ValueError(f"{cls.__name__} missing field {key!r}")
    return cls(**kwargs)


_INT, _REAL = (as_int, _same), (_real, _same)
_BINS = (lambda data: BinSet(_items(data)), lambda bins: list(bins.bins))
_RAMP = (("start", "start", *_REAL), ("end", "end", *_REAL))
_PHASE = (
    ("name", "name", _same, _same),
    ("frames", "frame_count", *_INT),
    ("level", "broadband_level", *_REAL),
    ("ramp", "ramp", partial(_decode, Ramp, _RAMP), partial(_encode, _RAMP)),
    ("events", "event_count", *_INT),
)
_RAMPED_PHASE = tuple(row for row in _PHASE if row[0] != "level")  # a ramp leaves the level unused
_EVENTS = (
    ("target_bins", "target_bins", _items, list),
    ("amplitude_ratio", "amplitude_ratio", *_REAL),
    ("duration_frames", "duration_frames", *_INT),
    ("min_gap_frames", "min_gap_frames", *_INT),
)
_SCENARIO = (
    ("seed", "seed", *_INT),
    ("frame_size", "frame_size", *_INT),
    ("sample_rate_hz", "sample_rate_hz", *_REAL),
    ("bins", "bins", *_BINS),
    ("warmup_frames", "warmup_frames", *_INT),
    ("magnitude_jitter", "magnitude_jitter", *_REAL),
    ("phases", "phases",
     lambda data: _items(data, partial(_decode, PhaseSpec, _PHASE, exclusive=("ramp", "level"))),
     lambda phases: [_encode(_RAMPED_PHASE if p.ramp else _PHASE, p) for p in phases]),
    ("events", "events", partial(_decode, EventSpec, _EVENTS), partial(_encode, _EVENTS)),
)
_PIPELINE = (
    ("frame_size", "frame_size", *_INT),
    ("sample_rate_hz", "sample_rate_hz", *_REAL),
    ("bins", "bins", *_BINS),
    ("fast_window", "fast_window", *_INT),
    ("slow_window", "slow_window", *_INT),
    ("threshold_coefficients", "thresholds", lambda data: ThresholdConfig(_items(data, _real)),
     lambda thresholds: list(thresholds.coefficients)),
    ("tracker", "tracker", _same, _same),
    ("ema_alpha", "ema_alpha", *_REAL),
    ("warmup_frames", "warmup_frames", *_INT),
    ("window", "window", lambda data: _items(data, _real), lambda window: window.tolist()),
)


scenario_to_dict = partial(_encode, _SCENARIO)
pipeline_config_to_dict = partial(_encode, _PIPELINE)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    scenario = _decode(ScenarioConfig, _SCENARIO, data)
    check_container_format(scenario.frame_size, scenario.sample_rate_hz)
    return scenario


def pipeline_config_from_dict(data: dict) -> PipelineConfig:
    config = _decode(PipelineConfig, _PIPELINE, data, legacy=("threshold",),
                     exclusive=("threshold", "threshold_coefficients"))
    check_container_format(config.frame_size, config.sample_rate_hz)
    if "threshold" in data:  # the legacy scalar key
        thresholds = ThresholdConfig.uniform(_real(data["threshold"]), len(config.bins))
        config = replace(config, thresholds=thresholds)
    return config


def load_json(path, decode=_same):
    """The JSON document at ``path``, through ``decode``; a parse or decode error names the file."""
    try:
        return decode(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError and the decoders' errors
        raise ValueError(f"{path}: {exc}") from exc


def dump_json(path, payload: dict) -> None:
    """Stable serialization: sorted keys, two-space indent, trailing newline, ASCII only."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> ScenarioConfig:
    return load_json(path, scenario_from_dict)


def save_scenario(path, scenario: ScenarioConfig) -> None:
    dump_json(path, scenario_to_dict(scenario))


def load_pipeline_config(path) -> PipelineConfig:
    return load_json(path, pipeline_config_from_dict)


def save_pipeline_config(path, config: PipelineConfig) -> None:
    dump_json(path, pipeline_config_to_dict(config))


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
