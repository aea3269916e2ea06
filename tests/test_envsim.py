"""Scenario generator: determinism, structure, energy placement."""

import functools
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import whole_stream_reference

from spectrig import envsim, io, spectral
from spectrig.cli import main
from spectrig.envsim import (
    EventInterval,
    EventSpec,
    GroundTruth,
    PhaseSpec,
    Ramp,
    ScenarioConfig,
    SyntheticStream,
    generate,
    replica_scenario,
    synthesis_ranges,
)
from spectrig.pipeline import PipelineConfig
from spectrig.spectral import BinSet, FftPlan


def small_scenario(seed=1, event_count=3, level=10.0, frames=300, **kwargs) -> ScenarioConfig:
    defaults = dict(
        seed=seed,
        frame_size=64,
        sample_rate_hz=500.0,
        bins=BinSet((3, 9, 14)),
        phases=(PhaseSpec("only", frames, broadband_level=level, event_count=event_count),),
        events=EventSpec(target_bins=(3, 9, 14), amplitude_ratio=5.0),
        warmup_frames=20,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestValidation:
    def test_requires_phases(self):
        with pytest.raises(ValueError):
            small_scenario(phases=())

    def test_amplitude_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            EventSpec(target_bins=(3,), amplitude_ratio=1.0)

    def test_event_bins_must_be_monitored(self):
        with pytest.raises(ValueError):
            small_scenario(events=EventSpec(target_bins=(4,), amplitude_ratio=5.0))

    def test_event_bins_must_be_interior(self):
        with pytest.raises(ValueError):
            small_scenario(
                bins=BinSet((0, 3)), events=EventSpec(target_bins=(0,), amplitude_ratio=5.0)
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PipelineConfig(frame_size=64, sample_rate_hz=math.nan, bins=BinSet((3,))),
            lambda: small_scenario(sample_rate_hz=math.nan),
            lambda: Ramp(math.nan, 1.0),
            lambda: Ramp(0.0, math.inf),
            lambda: PhaseSpec("loud", 10, broadband_level=math.inf),
            lambda: EventSpec(target_bins=(3,), amplitude_ratio=math.nan),
            lambda: EventSpec(target_bins=(3,), amplitude_ratio=math.inf),
        ],
        ids=[
            "pipeline-rate", "scenario-rate", "ramp-start", "ramp-end", "phase-level",
            "amplitude-nan", "amplitude-inf",
        ],
    )
    def test_non_finite_values_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BinSet((3.7, 9)),
            lambda: BinSet((3, math.inf)),
            lambda: EventSpec(target_bins=(3, 9.5), amplitude_ratio=5.0),
        ],
        ids=["bin-set", "bin-set-inf", "event-targets"],
    )
    def test_fractional_bins_rejected(self, build):
        with pytest.raises(ValueError, match="integers"):
            build()

    def test_integral_float_bins_accepted(self):
        assert BinSet((3.0, 9)).bins == (3, 9)
        assert EventSpec(target_bins=(9.0,), amplitude_ratio=5.0).target_bins == (9,)

    def test_truth_rejects_overlap(self):
        with pytest.raises(ValueError):
            GroundTruth(
                intervals=(
                    EventInterval(10, 15, 3),
                    EventInterval(12, 20, 3),
                )
            )

    def test_infeasible_placement(self):
        scenario = small_scenario(
            frames=30,
            event_count=10,
            events=EventSpec(
                target_bins=(3,), amplitude_ratio=5.0, duration_frames=4, min_gap_frames=2
            ),
        )
        with pytest.raises(ValueError):
            generate(scenario)


class TestDeterminism:
    def test_same_seed_identical(self):
        scenario = small_scenario(seed=7)
        frames_a, truth_a = generate(scenario)
        frames_b, truth_b = generate(scenario)
        assert truth_a == truth_b
        for fa, fb in zip(frames_a, frames_b):
            assert np.array_equal(fa, fb)

    def test_different_seed_differs(self):
        frames_a, _ = generate(small_scenario(seed=1))
        frames_b, _ = generate(small_scenario(seed=2))
        assert not np.array_equal(frames_a[0], frames_b[0])

    def test_single_event_placement_reproducible(self):
        scenario = small_scenario(seed=5, event_count=1)
        _, truth_a = generate(scenario)
        _, truth_b = generate(scenario)
        assert len(truth_a) == 1
        assert truth_a.intervals == truth_b.intervals


class TestStructure:
    def test_zero_noise_zero_events(self):
        scenario = small_scenario(event_count=0, level=0.0)
        frames, truth = generate(scenario)
        assert len(truth) == 0
        assert all(np.all(f == 0.0) for f in frames)

    def test_events_respect_warmup_and_gaps(self):
        scenario = small_scenario(seed=3, event_count=12)
        _, truth = generate(scenario)
        intervals = list(truth)
        assert len(intervals) == 12
        assert all(iv.start_frame >= scenario.warmup_frames for iv in intervals)
        for a, b in zip(intervals, intervals[1:]):
            assert b.start_frame - a.end_frame >= scenario.events.min_gap_frames

    def test_frame_indices_are_sequential(self):
        samples, _ = generate(small_scenario(frames=50, event_count=0))
        # Row t is frame t: one C-ordered float64 row per frame, in order.
        assert samples.shape == (50, 64)
        assert samples.dtype == np.float64 and samples.flags.c_contiguous


class TestReplicaScenario:
    def test_replica_structure(self):
        scenario = replica_scenario(seed=42)
        assert scenario.total_frames == 6784
        assert [p.frame_count for p in scenario.phases] == [2800, 2000, 1984]
        assert [p.event_count for p in scenario.phases] == [98, 11, 30]
        frames, truth = generate(scenario)
        assert len(frames) == 6784
        assert len(truth) == 139
        bounds = scenario.phase_bounds()
        per_phase = [
            sum(1 for iv in truth if start <= iv.start_frame < end)
            for _, start, end in bounds
        ]
        assert per_phase == [98, 11, 30]

    def test_floor_ratio_between_phases(self):
        scenario = replica_scenario(seed=42)
        frames, truth = generate(scenario)
        plan = FftPlan(scenario.frame_size)
        event_frames = {t for iv in truth for t in range(iv.start_frame, iv.end_frame)}
        bin_index = scenario.bins.bins[0]

        def mean_magnitude(start, end):
            mags = [
                abs(plan(frames[t])[bin_index])
                for t in range(start, end)
                if t not in event_frames
            ]
            return float(np.mean(mags))

        low = mean_magnitude(2400, 2800)
        high = mean_magnitude(6384, 6784)
        assert high / low == pytest.approx(5.0, rel=0.05)

    def test_event_energy_localized_at_target_bin(self):
        scenario = replica_scenario(seed=42)
        frames, truth = generate(scenario)
        plan = FftPlan(scenario.frame_size)
        monitored = np.asarray(scenario.bins.bins)
        for interval in list(truth)[:10]:
            spectrum = plan(frames[interval.start_frame])
            excess = np.abs(spectrum[monitored])
            assert monitored[int(np.argmax(excess))] == interval.bin


@st.composite
def streams(draw):
    """A scenario of 1-3 phases (one may ramp) and a chunk size from 1 to its frame count."""
    size = 2 ** draw(st.integers(3, 11))
    nyquist = size // 2
    duration = draw(st.integers(1, 6))
    gap = draw(st.integers(0, 3))
    phases = []
    for i in range(draw(st.integers(1, 3))):
        frames = draw(st.integers(1, 60 if size >= 1024 else 120))
        room = (frames - duration) // (duration + gap) + 1 if frames >= duration else 0
        level = draw(st.sampled_from([0.0, 1.0, 37.5]))
        ramp = Ramp(level, 4 * level + 1) if draw(st.booleans()) else None
        phases.append(PhaseSpec(f"p{i}", frames, level, ramp, draw(st.integers(0, room))))
    scenario = ScenarioConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        frame_size=size,
        sample_rate_hz=1000.0,
        bins=BinSet((1, nyquist - 1)),
        phases=tuple(phases),
        events=EventSpec(
            target_bins=(1, nyquist - 1),
            amplitude_ratio=6.0,
            duration_frames=duration,
            min_gap_frames=gap,
        ),
        warmup_frames=0,
        magnitude_jitter=draw(st.sampled_from([0.0, 0.1, 0.5])),
    )
    return scenario, draw(st.integers(1, scenario.total_frames))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestChunkedGeneration:
    """Any run of rows equals the same rows of the stream drawn whole, bit for bit."""

    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_equals_the_whole_stream(self, case):
        scenario, rows = case
        reference, events = whole_stream_reference(scenario)
        stream = SyntheticStream(scenario)
        with mock.patch.object(spectral, "CHUNK_SAMPLES", rows * scenario.frame_size):
            chunks = list(stream.chunks())
        assert all(len(c) == rows for c in chunks[:-1])
        assert same_bits(np.concatenate(chunks), reference)
        samples, truth = generate(scenario)
        assert same_bits(samples, reference)
        assert [(iv.start_frame, iv.end_frame, iv.bin) for iv in truth] == events
        assert truth == stream.truth
        start, stop = scenario.total_frames // 3, scenario.total_frames - rows // 2
        assert same_bits(generate(stream, start, stop)[0], reference[start:stop])

    def test_long_events_across_chunk_edges(self):
        scenario = small_scenario(
            seed=8,
            event_count=12,
            events=EventSpec(
                target_bins=(3, 9, 14), amplitude_ratio=5.0, duration_frames=7, min_gap_frames=2
            ),
        )
        reference, _ = whole_stream_reference(scenario)
        for rows in (1, 4, 5, 16):
            truth = SyntheticStream(scenario).truth
            assert any(iv.start_frame // rows != (iv.end_frame - 1) // rows for iv in truth)
            with mock.patch.object(spectral, "CHUNK_SAMPLES", rows * scenario.frame_size):
                chunks = list(SyntheticStream(scenario).chunks())
            assert same_bits(np.concatenate(chunks), reference)

    def test_whole_stream_is_made_a_chunk_at_a_time(self, monkeypatch):
        scenario = small_scenario(seed=4, event_count=6)
        reference, _ = whole_stream_reference(scenario)
        monkeypatch.setattr(spectral, "CHUNK_SAMPLES", 7 * scenario.frame_size)
        assert same_bits(generate(scenario)[0], reference)

    def test_rows_outside_the_stream_are_rejected(self):
        scenario = small_scenario(frames=50)
        for start, stop in ((-1, 10), (10, 51), (20, 10)):
            with pytest.raises(ValueError, match="outside the stream"):
                generate(scenario, start, stop)
        assert generate(scenario, 50, 50)[0].shape == (0, 64)


class TestPhaseTable:
    """Generator v2's noise phase factors: the table entry at floor(u * 2**16) per draw u."""

    @given(st.floats(0.0, 1.0, exclude_max=True))
    def test_entry_lies_within_one_step_below_the_draw(self, u):
        factor = envsim.phase_factors(np.array([u]))[0]
        below = (2 * np.pi * u - np.angle(factor) + np.pi) % (2 * np.pi) - np.pi
        assert -1e-12 <= below <= 2 * np.pi / 2**16
        assert abs(abs(factor) - 1.0) <= 1e-15

    def test_built_once_in_the_calling_thread(self, monkeypatch):
        builds, build = [], envsim.phase_table.__wrapped__

        def recorded():
            builds.append(threading.current_thread())
            return build()

        monkeypatch.setattr(envsim, "phase_table", functools.cache(recorded))
        split_every_chunk(monkeypatch, 3)
        scenario = small_scenario(seed=5)
        assert same_bits(generate(scenario)[0], whole_stream_reference(scenario)[0])
        assert builds == [threading.main_thread()]


def split_every_chunk(monkeypatch, cpus: int) -> None:
    """Give each chunk ``cpus`` synthesis ranges, however few rows it has."""
    monkeypatch.setattr(envsim, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(envsim, "RANGE_MIN_SAMPLES", 1)


def chunked(scenario, rows: int) -> np.ndarray:
    with mock.patch.object(spectral, "CHUNK_SAMPLES", rows * scenario.frame_size):
        return np.concatenate(list(SyntheticStream(scenario).chunks()))


def eight_sample_scenario(seed=6) -> ScenarioConfig:
    """N = 8: three noise bins per row, where numpy's complex loops are the most row-length sensitive."""
    return small_scenario(
        seed=seed,
        frame_size=8,
        bins=BinSet((1, 2, 3)),
        phases=(PhaseSpec("only", 90, ramp=Ramp(2.0, 30.0), event_count=8),),
        events=EventSpec(target_bins=(1, 3), amplitude_ratio=5.0, duration_frames=3),
        warmup_frames=0,
    )


class TestSplitSynthesis:
    """Rows of a chunk synthesized on several threads give the bytes of the unsplit stream."""

    def test_ranges_follow_the_cpus_and_the_minimum(self, monkeypatch):
        monkeypatch.setattr(envsim, "usable_cpus", lambda: 4)
        assert synthesis_ranges(128, 2048) == [0, 32, 64, 96, 128]
        assert synthesis_ranges(33, 4096) == [0, 8, 16, 24, 33]
        assert synthesis_ranges(40, 2048) == [0, 20, 40]  # two ranges of 2**15 samples at most
        assert synthesis_ranges(3, 8) == [0, 3]  # 24 samples: one range
        assert synthesis_ranges(1, 1 << 16) == [0, 1]  # never an empty range
        monkeypatch.setattr(envsim, "usable_cpus", lambda: 1)
        assert synthesis_ranges(128, 2048) == [0, 128]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("rows", [1, 2, 7, 90])
    def test_eight_sample_frames(self, monkeypatch, cpus, rows):
        scenario = eight_sample_scenario()
        reference, _ = whole_stream_reference(scenario)
        split_every_chunk(monkeypatch, cpus)
        assert same_bits(chunked(scenario, rows), reference)
        assert same_bits(generate(scenario, 5, 62)[0], reference[5:62])

    def test_events_on_the_rows_where_ranges_meet(self, monkeypatch):
        scenario = small_scenario(
            seed=8,
            event_count=12,
            events=EventSpec(
                target_bins=(3, 9, 14), amplitude_ratio=5.0, duration_frames=7, min_gap_frames=2
            ),
        )
        reference, _ = whole_stream_reference(scenario)
        split_every_chunk(monkeypatch, 2)
        for rows in (9, 16, 17):
            edges = {c + synthesis_ranges(min(rows, 300 - c), 64)[1] for c in range(0, 300, rows)}
            truth = SyntheticStream(scenario).truth
            assert any(iv.start_frame < edge < iv.end_frame for iv in truth for edge in edges)
            assert same_bits(chunked(scenario, rows), reference)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        scenario = eight_sample_scenario(seed=11)
        reference, _ = whole_stream_reference(scenario)
        split_every_chunk(monkeypatch, 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        for rows in (1, 2, 7):
            assert same_bits(chunked(scenario, rows), reference)
        assert same_bits(generate(scenario)[0], reference)

    def test_chunks_share_one_live_pool(self, monkeypatch):
        """Every chunk's helper range goes to the same pool, whose one thread stays alive
        between chunks: 18 chunks of two ranges start at most one thread."""
        scenario = eight_sample_scenario(seed=12)
        reference, _ = whole_stream_reference(scenario)
        split_every_chunk(monkeypatch, 2)
        envsim.helper_pool()  # made before the count
        start = threading.Thread.start
        started = []

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        assert same_bits(chunked(scenario, 5), reference)
        assert len(started) <= 1, started
        assert envsim.helper_pool() is envsim.helper_pool()


class TestHelperFailure:
    """An exception in a helper thread's range reaches the caller; no unfinished chunk is used."""

    @pytest.fixture
    def failing_helper(self, monkeypatch):
        split_every_chunk(monkeypatch, 2)
        step = SyntheticStream._synthesize_range

        def fail_off_the_main_thread(self, *args):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("helper range failed")
            step(self, *args)

        monkeypatch.setattr(SyntheticStream, "_synthesize_range", fail_off_the_main_thread)

    def test_generate_raises(self, failing_helper):
        with pytest.raises(ValueError, match="helper range failed"):
            generate(small_scenario())

    def test_cli_generate_reports_and_leaves_no_out_dir(self, failing_helper, tmp_path, capsys):
        io.save_scenario(tmp_path / "scenario.json", small_scenario())
        out = tmp_path / "out"
        argv = ["generate", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: helper range failed")
        assert not out.exists()
