"""Deterministic synthetic sensor streams with ground-truth event annotations.

The generator synthesizes each frame in the frequency domain: every interior
bin carries the phase's ambient level (with a bounded relative wobble and a
fresh random phase per frame) and event frames add a tone at the target
bin. The inverse transform of that flat random-phase spectrum is the usual
surrogate for broadband Gaussian noise — energy is spread diffusely over all
bins while the per-bin magnitude stays pinned to the ambient level, which is
what makes multiplicative triggering against a tracked floor well-posed.
"""

from __future__ import annotations

import functools
import math
import os
from bisect import bisect_right
from contextvars import copy_context
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .spectral import BLOCK_SAMPLES, BinSet, bin_indices, check_frame_format, chunk_rows

# Version 2 takes each noise phase from a table (phase_factors); the frames.bin
# files of version 1, "numpy:PCG64", are not reproduced.
GENERATOR_ID = "v2:numpy:PCG64:phase-table-2^16"

# Entries of the noise phase table: phases fall on a grid of 2 pi / 2**16, about 1e-4 rad.
PHASE_STEPS = 1 << 16

# The fewest samples a synthesis range gets: a pool thread costs about 50 us, and
# 2**15 samples take about 140 us to synthesize. Split in two, 2**16 samples break
# even (280 against 290 us) and a 2**18-sample chunk takes 660 against 1,070 us.
RANGE_MIN_SAMPLES = 1 << 15


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def synthesis_ranges(rows: int, frame_size: int) -> list[int]:
    """Row bounds [0, ..., rows] of a chunk's synthesis ranges: one range per
    usable CPU, but none under RANGE_MIN_SAMPLES samples or one row, so one at least."""
    count = max(1, min(usable_cpus(), rows, rows * frame_size // RANGE_MIN_SAMPLES))
    return [rows * i // count for i in range(count + 1)]


@functools.cache
def helper_pool():
    """The live thread pool that runs every chunk's synthesis ranges past the first, made on
    first use. A thread starts only when no idle one is left, so after the first chunk a
    range costs a submit, not a thread start."""
    from concurrent.futures import ThreadPoolExecutor  # not imported with spectrig (2 ms)

    return ThreadPoolExecutor(max_workers=os.cpu_count() or 1, thread_name_prefix="synthesis")


@functools.cache
def phase_table() -> np.ndarray:
    """exp(2j * pi * k / PHASE_STEPS) for k = 0 .. PHASE_STEPS - 1, read-only; built on
    first use (about 1 ms, 1 MiB), not at import."""
    table = np.exp(2j * np.pi * np.arange(PHASE_STEPS) / PHASE_STEPS)
    table.flags.writeable = False
    return table


def phase_factors(draws: np.ndarray) -> np.ndarray:
    """The noise phase factor of each uniform draw u in [0, 1): the table entry at
    k = floor(u * PHASE_STEPS), whose angle lies within 2 pi / PHASE_STEPS below 2 pi u.
    (The direct digital synthesizer's sine table: Tierney, Rader and Gold, 1971.)"""
    # u * 2**16 is exact and not negative, so the cast truncates it to its floor.
    return phase_table()[(draws * PHASE_STEPS).astype(np.intp)]


@dataclass(frozen=True)
class Ramp:
    """Linear ambient-level sweep across one phase."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0 for v in (self.start, self.end)):
            raise ValueError("ramp endpoints must be finite and >= 0")


@dataclass(frozen=True)
class PhaseSpec:
    """One environmental phase: frame budget, noise level, event quota."""

    name: str
    frame_count: int
    broadband_level: float = 0.0
    ramp: Ramp | None = None
    event_count: int = 0

    def __post_init__(self) -> None:
        if self.frame_count < 1:
            raise ValueError("phase frame_count must be >= 1")
        if not math.isfinite(self.broadband_level) or self.broadband_level < 0:
            raise ValueError("broadband_level must be finite and >= 0")
        if self.event_count < 0:
            raise ValueError("event_count must be >= 0")

    def levels(self) -> np.ndarray:
        """Per-frame ambient level across the phase."""
        if self.ramp is not None:
            return np.linspace(self.ramp.start, self.ramp.end, self.frame_count)
        return np.full(self.frame_count, self.broadband_level, dtype=np.float64)


@dataclass(frozen=True)
class EventSpec:
    """How synthetic events look and where they may land."""

    target_bins: tuple[int, ...]
    amplitude_ratio: float
    duration_frames: int = 1
    min_gap_frames: int = 1

    def __post_init__(self) -> None:
        targets = bin_indices(self.target_bins)
        if not targets:
            raise ValueError("at least one event target bin is required")
        if not math.isfinite(self.amplitude_ratio) or self.amplitude_ratio <= 1:
            raise ValueError("amplitude_ratio must be finite and exceed 1")
        if self.duration_frames < 1:
            raise ValueError("duration_frames must be >= 1")
        if self.min_gap_frames < 0:
            raise ValueError("min_gap_frames must be >= 0")
        object.__setattr__(self, "target_bins", targets)


@dataclass(frozen=True)
class EventInterval:
    """Half-open frame interval [start_frame, end_frame) of one true event."""

    start_frame: int
    end_frame: int
    bin: int

    def __post_init__(self) -> None:
        if self.end_frame <= self.start_frame:
            raise ValueError("interval must span at least one frame")


@dataclass(frozen=True)
class GroundTruth:
    """Sorted, non-overlapping true event intervals."""

    intervals: tuple[EventInterval, ...]

    def __post_init__(self) -> None:
        intervals = tuple(self.intervals)
        for a, b in zip(intervals, intervals[1:]):
            if b.start_frame < a.end_frame:
                raise ValueError("truth intervals must be sorted and non-overlapping")
        object.__setattr__(self, "intervals", intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment definition; every derived artifact is a pure function
    of this object (including the seed)."""

    seed: int
    frame_size: int
    sample_rate_hz: float
    bins: BinSet
    phases: tuple[PhaseSpec, ...]
    events: EventSpec
    warmup_frames: int = 67
    magnitude_jitter: float = 0.1

    def __post_init__(self) -> None:
        check_frame_format(self.frame_size, self.sample_rate_hz)
        self.bins.validate_for(self.frame_size)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.phases:
            raise ValueError("at least one phase is required")
        if self.warmup_frames < 0:
            raise ValueError("warmup_frames must be >= 0")
        if not 0.0 <= self.magnitude_jitter < 1.0:
            raise ValueError("magnitude_jitter must be in [0, 1)")
        nyquist = self.frame_size // 2
        for k in self.events.target_bins:
            if k not in self.bins:
                raise ValueError(f"event target bin {k} is not monitored")
            if k <= 0 or k >= nyquist:
                raise ValueError(f"event target bin {k} must be interior (0 < k < {nyquist})")
        object.__setattr__(self, "phases", tuple(self.phases))

    @property
    def total_frames(self) -> int:
        return sum(p.frame_count for p in self.phases)

    def phase_bounds(self) -> list[tuple[str, int, int]]:
        """(name, start_frame, end_frame_exclusive) per phase, in order."""
        bounds = []
        start = 0
        for phase in self.phases:
            bounds.append((phase.name, start, start + phase.frame_count))
            start += phase.frame_count
        return bounds


def _place_events(rng, lo: int, hi: int, count: int, duration: int, gap: int) -> list[int]:
    """Start frames for `count` non-overlapping events with starts in [lo, hi].

    Draws sorted anchors in a shrunk range, then spreads them by the event
    stride — uniform placement with the spacing constraint built in.
    """
    if count == 0:
        return []
    stride = duration + gap
    upper = hi - (count - 1) * stride
    if upper < lo:
        raise ValueError(
            f"cannot place {count} events of duration {duration} (gap {gap}) in frames [{lo}, {hi}]"
        )
    anchors = np.sort(rng.integers(lo, upper + 1, size=count))
    return [int(a + i * stride) for i, a in enumerate(anchors)]


class SyntheticStream:
    """A scenario's frame stream, ready to give any run of rows.

    The per-frame levels and the events are fixed once, here. The noise
    draws sit at fixed offsets of the seeded generator: with K = N/2 - 1
    interior bins and T frames, phase row a starts at output a*K, jitter row
    a at T*K + a*K, and the event draws at 2*T*K. Every draw is a uniform
    double taking exactly one output, so ``advance`` reaches any row, and any
    run of rows is bit-identical to the same rows of the whole stream. Every
    run of rows, through ``generate`` too, is synthesized in the stream's one
    spectrum buffer, so a stream is not safe to share between threads.
    """

    def __init__(self, scenario: ScenarioConfig):
        self.scenario = scenario
        self._levels = np.concatenate([p.levels() for p in scenario.phases])
        self._tones, self.truth = self._events()
        self._tone_ends = [end for _, end, _, _ in self._tones]
        self._spectrum = None  # (rows, N/2 + 1), made once: DC and Nyquist stay empty

    def _events(self):
        """(start, end, bin, tone) per event in draw order, and the ground truth."""
        scenario, spec = self.scenario, self.scenario.events
        rng = np.random.default_rng(scenario.seed)
        rng.bit_generator.advance(2 * scenario.total_frames * (scenario.frame_size // 2 - 1))
        tones, intervals = [], []
        for phase, (_, phase_start, phase_end) in zip(scenario.phases, scenario.phase_bounds()):
            lo = max(phase_start, scenario.warmup_frames)
            hi = phase_end - spec.duration_frames
            starts = _place_events(
                rng, lo, hi, phase.event_count, spec.duration_frames, spec.min_gap_frames
            )
            for start in starts:
                target = int(rng.choice(spec.target_bins))
                tone_phase = rng.uniform(0.0, 2.0 * np.pi)
                end = start + spec.duration_frames
                tone = spec.amplitude_ratio * self._levels[start:end] * np.exp(1j * tone_phase)
                tones.append((start, end, target, tone))
                intervals.append(EventInterval(start_frame=start, end_frame=end, bin=target))
        truth = GroundTruth(intervals=tuple(sorted(intervals, key=lambda e: e.start_frame)))
        return tones, truth

    def chunks(self) -> Iterator[np.ndarray]:
        """The whole stream in order, as (rows, N) sample arrays of chunk_rows(N) frames."""
        total, rows = self.scenario.total_frames, chunk_rows(self.scenario.frame_size)
        for start in range(0, total, rows):
            yield generate(self, start, min(start + rows, total))[0]

    def _synthesize(self, start: int, stop: int, out: np.ndarray) -> None:
        """Rows [start, stop) of the stream into ``out``, a (stop - start, N) array.

        The rows run as disjoint ranges, one per usable CPU (see synthesis_ranges):
        each range but the first on a pool thread, the first in the caller, which
        then waits for the others. Each range draws its own noise into its own
        output rows and makes the same IEEE operations on its rows as the whole
        chunk would, so the bytes do not depend on the split.
        """
        scenario, rows = self.scenario, stop - start
        n_noise_bins = scenario.frame_size // 2 - 1  # interior bins 1 .. nyquist-1
        if self._spectrum is None or len(self._spectrum) < rows:
            self._spectrum = np.zeros((rows, n_noise_bins + 2), dtype=np.complex128)
        bounds = synthesis_ranges(rows, scenario.frame_size)
        args = []
        for a, b in zip(bounds, bounds[1:]):
            # The range's phase and jitter draws, in the first values of its output rows.
            draws = out[a:b].reshape(-1)[: 2 * (b - a) * n_noise_bins]
            phases, magnitude = draws.reshape(2, b - a, n_noise_bins)
            args.append((start + a, phases, magnitude, self._spectrum[a:b], out[a:b]))
        phase_table()  # built here, in the calling thread, before any helper reads it
        # One range asks for no pool and starts no thread. A helper runs in a copy of the
        # caller's context, so numpy's error state (a context variable) holds there too.
        helpers = [helper_pool().submit(copy_context().run, self._synthesize_range, *a) for a in args[1:]]
        try:
            self._synthesize_range(*args[0])
        finally:
            for helper in helpers:
                helper.exception()  # waits: the helpers write into out and the spectrum
        for helper in helpers:
            helper.result()  # re-raises a helper's error

    def _synthesize_range(self, start, phases, magnitude, half_spectrum, out) -> None:
        """The rows from ``start`` on: their seeded draws into ``phases`` and ``magnitude``,
        each phase draw's table factor times the magnitudes, plus the tones on these rows,
        through irfft into ``out``. Writes only into its arguments, and allocates no array of
        their size; the draws may be views into ``out``, which irfft writes after they are read."""
        scenario, jitter = self.scenario, self.scenario.magnitude_jitter
        stop, nyquist = start + len(out), scenario.frame_size // 2
        # Generator.uniform(low, high) is low + (high - low) * random(), two IEEE operations.
        rng = np.random.default_rng(scenario.seed)
        rng.bit_generator.advance(start * (nyquist - 1))
        rng.random(out=phases)
        rng.bit_generator.advance((scenario.total_frames - len(out)) * (nyquist - 1))
        rng.random(out=magnitude)
        magnitude *= jitter - -jitter
        magnitude += -jitter
        # level * (1 + jitter), in place to hold fewer temporaries.
        magnitude += 1.0
        magnitude *= self._levels[start:stop, None]
        # In place, and each step the same IEEE operation as in the whole-matrix expression.
        interior = half_spectrum[:, 1:nyquist]
        group = max(1, BLOCK_SAMPLES // (nyquist - 1))  # bounds the lookup's temporaries
        for a in range(0, len(out), group):
            interior[a : a + group] = phase_factors(phases[a : a + group])
        interior *= magnitude
        # Events are sorted and disjoint, so the tones ending after `start` come next.
        for first, end, target, tone in self._tones[bisect_right(self._tone_ends, start) :]:
            if first >= stop:
                break
            lo, hi = max(first, start), min(end, stop)
            half_spectrum[lo - start : hi - start, target] += tone[lo - first : hi - first]
        np.fft.irfft(half_spectrum, n=self.scenario.frame_size, axis=1, out=out)


def generate(
    source: ScenarioConfig | SyntheticStream, start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, GroundTruth]:
    """Rows [start, stop) of the frame stream, a (frames, N) sample array, and the
    whole stream's ground truth, fully seeded; by default the whole stream.

    ``source`` is a scenario, or a SyntheticStream made from one, which fixes
    the levels and events once for many calls. Per frame, interior bins carry
    magnitude level * (1 + u) with u ~ Uniform(-jitter, +jitter) and an
    independent phase, uniform on a grid of 2**16 steps (phase_factors);
    event frames additionally carry a tone of magnitude amplitude_ratio *
    level at the target bin. DC and Nyquist stay
    empty so the samples are zero-mean. The rows are made chunk_rows(N) at a
    time, so the heap holds the output and one chunk's spectra.
    """
    stream = source if isinstance(source, SyntheticStream) else SyntheticStream(source)
    total, size = stream.scenario.total_frames, stream.scenario.frame_size
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"rows [{start}, {stop}) outside the stream's {total} frames")
    samples, rows = np.empty((stop - start, size)), chunk_rows(size)
    for a in range(start, stop, rows):
        b = min(a + rows, stop)
        stream._synthesize(a, b, samples[a - start : b - start])
    return samples, stream.truth


REPLICA_BINS = (3, 9, 14, 21, 27, 36, 44, 52)
REPLICA_LOW_LEVEL = 40.0
REPLICA_HIGH_LEVEL = 200.0


def replica_scenario(seed: int = 42) -> ScenarioConfig:
    """Canonical three-phase benchmark scenario: 2,800 + 2,000 + 1,984
    frames carrying 98 + 11 + 30 one-frame events, with the ambient floor
    rising 5x between the quiet and loud phases."""
    return ScenarioConfig(
        seed=seed,
        frame_size=128,
        sample_rate_hz=1000.0,
        bins=BinSet(REPLICA_BINS),
        phases=(
            PhaseSpec("low_noise", 2800, broadband_level=REPLICA_LOW_LEVEL, event_count=98),
            PhaseSpec(
                "transition",
                2000,
                ramp=Ramp(REPLICA_LOW_LEVEL, REPLICA_HIGH_LEVEL),
                event_count=11,
            ),
            PhaseSpec("high_noise", 1984, broadband_level=REPLICA_HIGH_LEVEL, event_count=30),
        ),
        events=EventSpec(
            target_bins=REPLICA_BINS,
            amplitude_ratio=6.0,
            duration_frames=1,
            min_gap_frames=2,
        ),
        warmup_frames=67,
        magnitude_jitter=0.1,
    )
