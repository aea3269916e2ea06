"""Whole-pipeline behavior: event emission, warm-up, equivalence, accounting."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrig import pipeline as pipeline_module
from spectrig import spectral
from spectrig.pipeline import (
    Pipeline,
    PipelineConfig,
    latency_budget,
    run_stream,
    state_entry_count,
    state_memory_bytes,
)
from spectrig.spectral import BinSet, FftPlan, Frame
from spectrig.trigger import ThresholdConfig

from oracles import naive_pipeline_events, packed_real_reference


def config_for(bins, n=32, fast=3, slow=8, **kwargs) -> PipelineConfig:
    return PipelineConfig(
        frame_size=n,
        sample_rate_hz=1000.0,
        bins=BinSet(tuple(bins)),
        fast_window=fast,
        slow_window=slow,
        **kwargs,
    )


def tone_frame(n, bin_index, amplitude, index=0, rate=1000.0, extra=None) -> Frame:
    t = np.arange(n)
    samples = amplitude * np.sin(2 * np.pi * bin_index * t / n)
    if extra is not None:
        samples = samples + extra
    return Frame(samples=samples, frame_index=index, sample_rate_hz=rate)


class TestProcessFrame:
    def test_all_zero_frames_never_fire(self):
        config = config_for([3, 7])
        pipeline = Pipeline(config)
        for i in range(200):
            result = pipeline.process_frame(
                Frame(samples=np.zeros(32), frame_index=i, sample_rate_hz=1000.0)
            )
            assert result.event == 0
            assert result.event_record is None

    def test_settled_floor_then_injected_tone_fires_once(self):
        """Constant background, one frame with a 3x tone at a monitored bin."""
        n, target = 64, 5
        rng = np.random.default_rng(3)
        background = rng.normal(size=n)
        config = config_for([2, 5, 11], n=n, fast=3, slow=16)
        frames = []
        plan = FftPlan(n)
        base_mag = abs(plan(background)[target])
        spike_at = 500
        for i in range(520):
            samples = background.copy()
            if i == spike_at:
                # add a tone aligned in phase with the background's bin content
                # so the bin magnitude becomes exactly 3x the settled floor
                delta = np.zeros(n, dtype=complex)
                delta[target] = 2 * plan(background)[target]
                delta[n - target] = np.conj(delta[target])
                samples = samples + np.fft.ifft(delta).real
            frames.append(samples)

        results = run_stream(config, np.array(frames))
        fired = [r.frame_index for r in results if r.event]
        assert fired == [spike_at]
        record = results[spike_at].event_record
        assert record is not None
        assert record.bin_id == target
        assert record.strength == pytest.approx(3.0, rel=1e-9)
        assert results[spike_at].magnitudes[1] == pytest.approx(
            3 * base_mag, rel=1e-9
        )
        # independent naive pipeline agrees on the event set
        oracle_fired = naive_pipeline_events(
            frames, [2, 5, 11], 3, 16, 1.5, config.warmup_frames
        )
        assert oracle_fired == fired

    def test_worked_trace_strength(self):
        """Floor settled at 10, frame magnitude 16 -> event with strength 1.6."""
        n, target = 32, 4
        amplitude_for_10 = 2 * 10.0 / n  # tone magnitude a*n/2
        config = config_for([target], n=n, fast=3, slow=8)
        pipeline = Pipeline(config)
        for i in range(200):
            pipeline.process_frame(tone_frame(n, target, amplitude_for_10, index=i))
        result = pipeline.process_frame(
            tone_frame(n, target, 1.6 * amplitude_for_10, index=200)
        )
        assert result.event == 1
        assert result.event_record.strength == pytest.approx(1.6, rel=1e-9)
        assert result.event_record.bin_id == target

    def test_frame_size_mismatch(self):
        pipeline = Pipeline(config_for([3]))
        with pytest.raises(ValueError):
            pipeline.process_frame(
                Frame(samples=np.zeros(64), frame_index=0, sample_rate_hz=1000.0)
            )

    def test_window_hook_scales_magnitudes(self):
        n, target = 32, 4
        tapered = config_for([target], n=n, window=np.full(n, 0.5))
        plain = config_for([target], n=n)
        frame = tone_frame(n, target, 1.0)
        mag_tapered = Pipeline(tapered).process_frame(frame).magnitudes[0]
        mag_plain = Pipeline(plain).process_frame(frame).magnitudes[0]
        assert mag_tapered == pytest.approx(0.5 * mag_plain, rel=1e-12)

    def test_margins_and_strength_consistency_on_events(self):
        n, target = 32, 4
        config = config_for([target], n=n, fast=2, slow=4)
        pipeline = Pipeline(config)
        for i in range(50):
            pipeline.process_frame(tone_frame(n, target, 0.5, index=i))
        result = pipeline.process_frame(tone_frame(n, target, 1.0, index=50))
        assert result.event == 1
        assert result.margins[0] > 0
        assert result.event_record.strength > 1.5


class TestWarmup:
    def test_no_events_during_warmup(self):
        n, target = 32, 4
        config = config_for([target], n=n, fast=3, slow=8, warmup_frames=11)
        pipeline = Pipeline(config)
        # ramp hard enough that decisions would fire from the start
        fired = []
        for i in range(40):
            result = pipeline.process_frame(tone_frame(n, target, 2.0**i / 1e4, index=i))
            if result.event:
                fired.append(i)
        assert fired and min(fired) >= 11

    def test_estimates_update_during_warmup(self):
        n, target = 32, 4
        config = config_for([target], n=n, warmup_frames=100)
        pipeline = Pipeline(config)
        result = None
        for i in range(5):
            result = pipeline.process_frame(tone_frame(n, target, 1.0, index=i))
        assert result.estimates[0] > 0


class TestRunStream:
    def test_empty_stream(self):
        assert run_stream(config_for([3]), []) == []

    def test_matches_sequential_processing(self):
        rng = np.random.default_rng(9)
        n = 32
        config = config_for([3, 9], n=n, fast=2, slow=4)
        frames = rng.normal(size=(120, n))
        batch = run_stream(config, frames)
        pipeline = Pipeline(config_for([3, 9], n=n, fast=2, slow=4))
        sequential = [
            pipeline.process_frame(Frame(samples=f, frame_index=i, sample_rate_hz=1000.0))
            for i, f in enumerate(frames)
        ]
        for a, b in zip(batch, sequential):
            assert a.frame_index == b.frame_index
            assert np.array_equal(a.magnitudes, b.magnitudes)
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.margins, b.margins)
            assert a.event == b.event
            assert a.event_record == b.event_record

    def test_error_carries_frame_position(self):
        config = config_for([3])
        frames = np.zeros((2, 32))
        frames[1, 7] = np.nan  # frame 1 is bad
        with pytest.raises(ValueError, match="frame 1"):
            run_stream(config, frames)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(80, 32))
        first = run_stream(config_for([3, 9], fast=2, slow=4), frames)
        second = run_stream(config_for([3, 9], fast=2, slow=4), frames)
        for a, b in zip(first, second):
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.margins, b.margins)
            assert a.event == b.event


def noisy_stream(seed: int, count: int, n: int = 16, bins=(1, 3, 6)) -> np.ndarray:
    """Noise whose level drifts, with strong tones on monitored bins now and then."""
    rng = np.random.default_rng(seed)
    level = 1.0 + np.cumsum(rng.uniform(-0.2, 0.2, size=count)).clip(-0.5, 3.0)
    t = np.arange(n)
    frames = []
    for i in range(count):
        samples = rng.normal(size=n) * level[i]
        if rng.random() < 0.2:
            samples += 6.0 * level[i] * np.sin(2 * np.pi * rng.choice(bins) * t / n + rng.random())
        frames.append(samples)
    return np.array(frames)


def stacked(results):
    """Frame-by-frame results as the arrays of a block."""
    return (
        np.array([r.magnitudes for r in results]),
        np.array([r.estimates for r in results]),
        np.array([r.margins for r in results]),
        [r.event for r in results],
        [r.event_record for r in results],
    )


class TestBlockCore:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_equals_frame_by_frame_and_oracle(self, data):
        count = data.draw(st.integers(1, 60), label="frames")
        fast = data.draw(st.integers(1, 4), label="fast")
        slow = data.draw(st.integers(1, 12), label="slow")
        tracker = data.draw(st.sampled_from(["median", "ema"]), label="tracker")
        # None gives the default (the window sum); explicit values stay below it.
        warmup = data.draw(st.one_of(st.none(), st.integers(0, fast + slow - 1)), label="warmup")
        cuts = data.draw(st.lists(st.integers(1, max(count - 1, 1)), max_size=6), label="cuts")
        rows = data.draw(st.sampled_from([1, 2, 3, 5, 512]), label="block rows")
        frames = noisy_stream(data.draw(st.integers(0, 2**32 - 1), label="seed"), count)

        def fresh():
            config = config_for(
                [1, 3, 6], n=16, fast=fast, slow=slow, tracker=tracker,
                ema_alpha=0.8, warmup_frames=warmup,
            )
            with mock.patch.object(pipeline_module, "BLOCK_SAMPLES", 16 * rows):
                return Pipeline(config), config

        chunked, config = fresh()
        edges = [0, *sorted(set(cuts)), count]
        blocks = [
            block
            for start, stop in zip(edges, edges[1:])
            for block in chunked.process_blocks(frames[start:stop])
        ]
        assert all(len(block) <= rows for block in blocks)
        stepped, _ = fresh()
        expected = stacked([
            stepped.process_frame(Frame(samples=f, frame_index=i, sample_rate_hz=1000.0))
            for i, f in enumerate(frames)
        ])
        got = (
            np.concatenate([b.magnitudes for b in blocks]),
            np.concatenate([b.estimates for b in blocks]),
            np.concatenate([b.margins for b in blocks]),
            np.concatenate([b.events for b in blocks]).tolist(),
            [record for b in blocks for record in b.records],
        )
        for name, a, b in zip(("magnitudes", "estimates", "margins"), got, expected):
            assert np.array_equal(a, b), name
        assert got[3:] == expected[3:]
        assert chunked.frames_processed == stepped.frames_processed == count

        fired = [t for t, event in enumerate(got[3]) if event]
        mags, estimates = got[0], got[1]
        for number, t in enumerate(fired):
            record = got[4][t]
            pos = int(np.flatnonzero(mags[t] > 1.5 * estimates[t])[0])
            assert record.frame_delta == (t if number == 0 else t - fired[number - 1])
            assert record.bin_id == (1, 3, 6)[pos]
            assert record.strength == mags[t, pos] / estimates[t, pos]
        assert sum(record is not None for record in got[4]) == len(fired)
        assert fired == naive_pipeline_events(
            frames, [1, 3, 6], fast, slow, 1.5, config.warmup_frames, tracker=tracker, alpha=0.8
        )

    def test_error_names_the_frame_across_calls(self):
        """Successive calls continue one stream, and an error names the frame's index in it."""
        frames = np.random.default_rng(6).normal(size=(20, 32))
        frames[13, 2] = np.nan
        pipeline = Pipeline(config_for([3, 9], n=32, fast=2, slow=4))
        list(pipeline.process_blocks(frames[:10]))
        with pytest.raises(ValueError, match="frame 13: samples must all be finite"):
            list(pipeline.process_blocks(frames[10:]))
        assert pipeline.frames_processed == 13

    def test_error_inside_a_block_names_the_frame(self):
        config = config_for([3, 9], n=32, fast=2, slow=4)
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(40, 32))
        frames[23, 5] = np.inf  # the bad frame
        with mock.patch.object(pipeline_module, "BLOCK_SAMPLES", 32 * 8):
            pipeline = Pipeline(config)  # blocks of 8: frame 23 is the last of the third
        with pytest.raises(ValueError, match="frame 23: samples must all be finite"):
            list(pipeline.process_blocks(frames))
        # every frame before the bad one was processed, none after it
        assert pipeline.frames_processed == 23
        reference = Pipeline(config)
        list(reference.process_blocks(frames[:23]))
        next_frame = Frame(samples=frames[24], frame_index=24, sample_rate_hz=1000.0)
        after = pipeline.process_frame(next_frame)
        assert np.array_equal(after.estimates, reference.process_frame(next_frame).estimates)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow the floor rejects
    @pytest.mark.parametrize("core, bad, message, tracker", [
        ("process_blocks", np.nan, "samples must all be finite", "median"),  # the transform fails
        ("process_blocks", 1e308, "magnitudes must be finite", "median"),  # sums overflow: the floor fails
        ("magnitude_blocks", np.inf, "samples must all be finite", "median"),
        ("process_blocks", 1e308, "magnitudes must be finite", "ema"),
    ])
    def test_error_in_a_middle_group_of_a_span_names_the_frame(self, core, bad, message, tracker):
        """A span of several blocks is transformed in groups; a bad frame in a middle
        group is still named, with every frame before it processed and yielded, bit for
        bit as a clean run of those frames gives them."""
        config = config_for([3, 9], n=32, fast=2, slow=4, tracker=tracker)
        frames = np.random.default_rng(5).normal(size=(40, 32))
        frames[22] *= bad
        with mock.patch.object(pipeline_module, "BLOCK_SAMPLES", 32 * 4):
            pipeline = Pipeline(config)  # blocks of 4 rows
        assert pipeline._span_rows >= 40  # one span of 10 blocks: frame 22 lies in the sixth
        yielded = []
        with mock.patch.object(spectral, "BLOCK_SAMPLES", 32 * 4):  # transform groups of 4 rows
            with pytest.raises(ValueError, match=f"frame 22: {message}"):
                for result in getattr(pipeline, core)(frames):
                    yielded.append(result)
        assert pipeline.frames_processed == 22
        clean = list(getattr(Pipeline(config), core)(frames[:22]))
        if core == "magnitude_blocks":
            assert np.array_equal(np.concatenate(yielded), np.concatenate(clean))
            return
        for name in ("frame_indices", "magnitudes", "estimates", "margins", "events"):
            got = np.concatenate([getattr(b, name) for b in yielded])
            assert np.array_equal(got, np.concatenate([getattr(b, name) for b in clean])), name
        assert [r for b in yielded for r in b.records] == [r for b in clean for r in b.records]

    @pytest.mark.parametrize("tracker", ["median", "ema"])
    def test_floor_and_decision_run_once_per_span(self, tracker):
        """The tracker updates once per span of several blocks, and blocks are still yielded."""
        config = config_for([3, 9], n=32, fast=2, slow=4, tracker=tracker)
        frames = noisy_stream(2, 150, n=32, bins=(3, 9))
        with mock.patch.object(pipeline_module, "BLOCK_SAMPLES", 32 * 4):
            pipeline = Pipeline(config)  # blocks of 4 rows, spans of 16 blocks
        assert pipeline._span_rows == 64
        floor = pipeline._tracker
        with mock.patch.object(floor, "update_all", wraps=floor.update_all) as spy:
            blocks = list(pipeline.process_blocks(frames))
        assert [len(call.args[0]) for call in spy.call_args_list] == [64, 64, 22]
        assert [len(b) for b in blocks] == [4] * 37 + [2]
        assert np.concatenate([b.frame_indices for b in blocks]).tolist() == list(range(150))

    def test_magnitude_blocks_are_the_cores_magnitudes(self):
        """The magnitudes alone come in the same blocks, with the same values and errors."""
        frames = noisy_stream(9, 40, n=32, bins=(3, 9))
        config = config_for([3, 9], n=32, fast=2, slow=4, window=np.hanning(32))
        with mock.patch.object(pipeline_module, "BLOCK_SAMPLES", 32 * 7):
            full, alone = Pipeline(config), Pipeline(config)
        blocks = list(full.process_blocks(frames))
        mags = list(alone.magnitude_blocks(frames[:10])) + list(alone.magnitude_blocks(frames[10:]))
        assert [len(m) for m in mags] == [7, 3, 7, 7, 7, 7, 2]
        assert np.array_equal(np.concatenate(mags), np.concatenate([b.magnitudes for b in blocks]))
        assert alone.frames_processed == 40
        frames[31, 4] = np.nan
        pipeline = Pipeline(config)
        list(pipeline.magnitude_blocks(frames[:20]))
        with pytest.raises(ValueError, match="frame 31: samples must all be finite"):
            list(pipeline.magnitude_blocks(frames[20:]))

    @pytest.mark.parametrize("n, bins, window", [
        (128, (3, 9, 14, 21, 27, 36, 44, 52), False),
        (512, tuple(range(56, 256)), False),
        (2048, (37, 101, 173, 241), False),
        (32, (0, 16), True),
    ])
    def test_magnitudes_carry_the_packed_references_bits(self, n, bins, window):
        """Every magnitude, from a span or from one frame, is |X| of the pack-and-split
        reference, bit for bit: the workloads' shapes, and a window with two edge bins."""
        frames = np.random.default_rng(n).normal(size=(40, n)) * 100.0
        config = config_for(bins, n=n, window=np.hanning(n) if window else None)
        mags = np.concatenate(list(Pipeline(config).magnitude_blocks(frames)))
        windowed = frames * config.window if window else frames
        expected = np.abs(packed_real_reference(windowed)[:, list(bins)])
        assert mags.tobytes() == expected.tobytes()
        frame = Frame(samples=frames[3], frame_index=0, sample_rate_hz=1000.0)
        assert Pipeline(config).process_frame(frame).magnitudes.tobytes() == expected[3].tobytes()

    def test_empty_stream_gives_no_block(self):
        assert list(Pipeline(config_for([3])).process_blocks([])) == []
        assert list(Pipeline(config_for([3])).process_blocks(np.empty((0, 32)))) == []

    @pytest.mark.parametrize("shape", [(3, 64), (3, 16), (32,), (2, 3, 32)])
    def test_wrong_shape_rejected_before_any_frame(self, shape):
        pipeline = Pipeline(config_for([3], n=32))
        with pytest.raises(ValueError, match=r"expected \(frames, 32\) samples"):
            list(pipeline.process_blocks(np.ones(shape)))
        assert pipeline.frames_processed == 0

    def test_frame_index_is_stream_position(self):
        """Indices and payload deltas count frames through the pipeline, across calls."""
        n, target = 32, 4
        config = config_for([target], n=n, tracker="ema", ema_alpha=0.9, warmup_frames=0)
        pipeline = Pipeline(config)
        quiet, loud = tone_frame(n, target, 1.0, index=90), tone_frame(n, target, 4.0, index=7)
        assert pipeline.process_frame(quiet).frame_index == 0
        stream = np.array([quiet.samples, loud.samples, quiet.samples, quiet.samples, loud.samples])
        (block,) = pipeline.process_blocks(stream)
        assert block.frame_indices.tolist() == [1, 2, 3, 4, 5]
        assert block.events.tolist() == [0, 1, 0, 0, 1]
        assert [r.frame_delta for r in block.records if r] == [2, 3]
        assert pipeline.process_frame(loud).frame_index == 6

    def test_block_rows_follow_frame_size(self):
        assert Pipeline(config_for([3], n=128))._block_rows == pipeline_module.BLOCK_SAMPLES // 128
        assert Pipeline(config_for([3], n=16384))._block_rows == 1


class TestEmaMode:
    def test_ema_tracker_selected(self):
        n, target = 32, 4
        config = config_for([target], n=n, tracker="ema", ema_alpha=0.9, warmup_frames=5)
        pipeline = Pipeline(config)
        for i in range(50):
            result = pipeline.process_frame(tone_frame(n, target, 1.0, index=i))
        assert result.estimates[0] == pytest.approx(n / 2 * 1.0, rel=1e-6)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            config_for([3], tracker="ema", ema_alpha=1.5)

    def test_unknown_tracker(self):
        with pytest.raises(ValueError):
            config_for([3], tracker="kalman")


class TestLatencyBudget:
    def test_table_values_exact(self):
        for rate, acquire in [(10_000.0, 0.0128), (1_000.0, 0.128), (100.0, 1.28)]:
            config = config_for([3], n=128)
            config.sample_rate_hz = rate
            assert latency_budget(config, 0.0, 0.0, 0.0) == acquire

    def test_total_with_processing(self):
        config = config_for([3], n=128)
        config.sample_rate_hz = 10_000.0
        total = latency_budget(config, 0.0015, 0.0005, 0.0002)
        assert total == pytest.approx(0.0128 + 0.0022)
        assert total == pytest.approx(0.015, abs=2e-4)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            latency_budget(config_for([3]), -1.0, 0.0, 0.0)


class TestMemoryAccounting:
    def test_entry_formula(self):
        config = PipelineConfig(
            frame_size=128,
            sample_rate_hz=1000.0,
            bins=BinSet(tuple(range(1, 9))),
            fast_window=3,
            slow_window=64,
        )
        # 2*128 sample slots + 8*(3+64) median entries + 8 coefficients
        assert state_entry_count(config) == 256 + 536 + 8 == 800
        assert state_memory_bytes(config, bits_per_entry=16) == 1600

    def test_rejects_bad_entry_width(self):
        with pytest.raises(ValueError):
            state_memory_bytes(config_for([3]), bits_per_entry=12)


class TestConfigValidation:
    def test_bad_frame_size(self):
        with pytest.raises(ValueError):
            config_for([3], n=48)

    def test_bins_out_of_range(self):
        with pytest.raises(ValueError):
            PipelineConfig(frame_size=16, sample_rate_hz=1.0, bins=BinSet((9,)))

    def test_threshold_count_mismatch(self):
        with pytest.raises(ValueError):
            config_for([3, 5], thresholds=ThresholdConfig.uniform(1.5, 3))

    def test_bins_must_fit_the_payload_bin_field(self):
        PipelineConfig(frame_size=512, sample_rate_hz=1.0, bins=BinSet((37, 255)))
        with pytest.raises(ValueError, match="255"):
            PipelineConfig(frame_size=1024, sample_rate_hz=1.0, bins=BinSet((37, 300)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_window_names_the_window(self, bad):
        window = np.hanning(16)
        window[5] = bad
        with pytest.raises(ValueError, match="window"):
            PipelineConfig(frame_size=16, sample_rate_hz=1.0, bins=BinSet((3,)), window=window)

    def test_default_warmup_is_window_sum(self):
        config = config_for([3], fast=4, slow=10)
        assert config.warmup_frames == 14
