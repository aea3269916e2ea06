"""Median buffer and cascade behavior against full-sort reference implementations."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectrig import noisefloor
from spectrig.noisefloor import EmaTracker, MedianWindows, NoiseFloorState

from oracles import cascade_reference, ema_reference, sorted_median

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def filled_buffer(values, capacity=None) -> MedianWindows:
    buf = MedianWindows(capacity or len(values))
    for v in values:
        buf.push([[v]])
    return buf


class TestMedianBuffer:
    """One row of MedianWindows, pushed one value at a time."""

    def test_constant_window(self):
        assert filled_buffer([5.0, 5.0, 5.0]).medians()[0] == 5.0

    def test_outlier_rejection(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        buf = filled_buffer(values)
        assert buf.medians()[0] == sorted_median(values) == 3.0

    def test_two_corrupted_of_five_leave_constant_median(self):
        clean = filled_buffer([7.0] * 5)
        corrupted = filled_buffer([7.0, 7.0, 7.0, 1e18, 1e18])
        assert corrupted.medians()[0] == clean.medians()[0] == 7.0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            MedianWindows(0)

    def test_capacity_above_the_bound(self):
        with pytest.raises(ValueError, match="65536"):
            MedianWindows(noisefloor.MAX_WINDOW + 1)

    def test_partial_fill_uses_filled_portion(self):
        buf = MedianWindows(5)
        buf.push([[4.0]])
        assert buf.medians()[0] == 4.0
        buf.push([[9.0]])
        # even count selects the upper middle
        assert buf.medians()[0] == 9.0

    def test_eviction_order(self):
        buf = filled_buffer([1.0, 2.0, 3.0], capacity=3)
        buf.push([[10.0]])  # evicts 1.0 -> window {2, 3, 10}
        assert buf.medians()[0] == 3.0

    def test_median_does_not_mutate_contents(self):
        buf = filled_buffer([3.0, 1.0, 2.0])
        before = buf._history.copy()
        buf.medians()
        assert np.array_equal(buf._history, before)

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_matches_full_sort_oracle(self, values):
        buf = filled_buffer(values)
        assert buf.medians()[0] == sorted_median(values)

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_median_is_a_selected_sample(self, values):
        assert filled_buffer(values).medians()[0] in values

    @given(st.integers(min_value=1, max_value=41), finite_floats)
    def test_upward_breakdown_bound_is_exact(self, capacity, base):
        """(capacity-1)//2 huge values leave a constant window's median put;
        one more flips it."""
        tolerated = (capacity - 1) // 2
        window = [base] * (capacity - tolerated) + [1e30] * tolerated
        assert filled_buffer(window).medians()[0] == base
        if base < 1e30:
            window = [base] * (capacity - tolerated - 1) + [1e30] * (tolerated + 1)
            assert filled_buffer(window).medians()[0] == 1e30


class TestNoiseFloorState:
    def test_constant_stream_converges_exactly(self):
        for fast, slow in [(2, 8), (3, 16), (5, 32)]:
            state = NoiseFloorState([1], fast_window=fast, slow_window=slow)
            estimate = None
            for _ in range(fast + slow):
                estimate = float(state.update_all([42.5])[0])
            assert estimate == 42.5
            assert float(state.update_all([42.5])[0]) == 42.5

    def test_single_frame_spike_never_moves_estimate(self):
        stream = [10.0] * 200
        stream[120] = 10_000.0
        state = NoiseFloorState([0], fast_window=3, slow_window=64)
        estimates = [float(state.update_all([v])[0]) for v in stream]
        assert all(e == 10.0 for e in estimates)
        assert estimates == cascade_reference(stream, 3, 64)

    def test_step_change_settles_within_both_windows(self):
        fast, slow = 3, 16
        step_at = 40
        stream = [5.0] * step_at + [9.0] * 60
        state = NoiseFloorState([0], fast_window=fast, slow_window=slow)
        estimates = [float(state.update_all([v])[0]) for v in stream]
        assert estimates == cascade_reference(stream, fast, slow)
        assert estimates[step_at + fast + slow] == 9.0
        assert all(e == 9.0 for e in estimates[step_at + fast + slow :])

    @pytest.mark.parametrize("fast,slow", [(2, 16), (3, 16), (5, 32)])
    def test_streaming_matches_recompute_oracle(self, fast, slow):
        rng = np.random.default_rng(fast * 100 + slow)
        stream = rng.uniform(0.0, 50.0, size=600).tolist()
        state = NoiseFloorState([2], fast_window=fast, slow_window=slow)
        estimates = [float(state.update_all([v])[0]) for v in stream]
        assert estimates == cascade_reference(stream, fast, slow)

    def test_stage1_breakdown_on_constant_baseline(self):
        # fast window 3 tolerates exactly one corrupted frame
        clean = [20.0] * 100
        corrupted = list(clean)
        corrupted[50] = 1e9
        state_a = NoiseFloorState([0], fast_window=3, slow_window=64)
        state_b = NoiseFloorState([0], fast_window=3, slow_window=64)
        out_a = [float(state_a.update_all([v])[0]) for v in clean]
        out_b = [float(state_b.update_all([v])[0]) for v in corrupted]
        assert out_a == out_b

    def test_stage2_breakdown_on_constant_baseline(self):
        # slow window 64 with the upper-middle rule tolerates 31 corrupted inputs
        buf = MedianWindows(64)
        for _ in range(64):
            buf.push([[20.0]])
        for _ in range(31):
            buf.push([[1e9]])
            assert buf.medians()[0] == 20.0
        buf.push([[1e9]])  # the 32nd flips it
        assert buf.medians()[0] == 1e9

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=2,
            max_size=120,
        )
    )
    @settings(max_examples=60)
    def test_monotone_inputs_give_monotone_outputs(self, values):
        stream = sorted(values)
        state = NoiseFloorState([0], fast_window=3, slow_window=8)
        stage1_series = []
        estimates = []
        for v in stream:
            estimates.append(float(state.update_all([v])[0]))
            stage1_series.append(float(state.stage1.medians()[0]))
        assert all(b >= a for a, b in zip(stage1_series, stage1_series[1:]))
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))

    def test_idempotent_on_constant_contents(self):
        state = NoiseFloorState([0], fast_window=4, slow_window=9)
        for _ in range(30):
            assert float(state.update_all([3.5])[0]) == 3.5

    def test_estimate_is_always_an_inserted_stage1_output(self):
        rng = np.random.default_rng(5)
        state = NoiseFloorState([0], fast_window=3, slow_window=8)
        stage1_seen = set()
        for v in rng.uniform(0, 10, size=300):
            estimate = float(state.update_all([float(v)])[0])
            stage1_seen.add(float(state.stage1.medians()[0]))
            assert estimate in stage1_seen

    def test_invalid_magnitude(self):
        state = NoiseFloorState([1])
        with pytest.raises(ValueError):
            state.update_all([-1.0])
        with pytest.raises(ValueError):
            state.update_all([float("nan")])

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            NoiseFloorState([1], fast_window=0)
        with pytest.raises(ValueError):
            NoiseFloorState([1], slow_window=0)

    def test_update_all_alignment(self):
        state = NoiseFloorState([1, 4, 7], fast_window=1, slow_window=1)
        estimates = state.update_all([3.0, 6.0, 9.0])
        assert estimates.tolist() == [3.0, 6.0, 9.0]
        with pytest.raises(ValueError):
            state.update_all([1.0])


def multi_bin_streams(frames=300, seed=21) -> np.ndarray:
    """Five differently shaped bins side by side: noise, constant, rising,
    spikes on a constant and a step, so that mixed-up rows show."""
    rng = np.random.default_rng(seed)
    t = np.arange(frames)
    spikes = np.full(frames, 7.0)
    spikes[::17] = 1e6
    step = np.where(t < frames // 2, 5.0, 40.0)
    return np.column_stack(
        [rng.uniform(0.0, 50.0, frames), np.full(frames, 3.25), t * 0.5, spikes, step]
    )


class TestMultiBinCascade:
    @pytest.mark.parametrize("fast,slow", [(1, 1), (2, 4), (3, 16), (4, 9), (5, 64)])
    def test_update_all_block_matches_oracle_for_every_bin(self, fast, slow):
        streams = multi_bin_streams()
        state = NoiseFloorState([2, 5, 7, 11, 13], fast_window=fast, slow_window=slow)
        estimates = state.update_all(streams)
        assert estimates.shape == streams.shape
        for column in range(streams.shape[1]):
            expected = cascade_reference(streams[:, column].tolist(), fast, slow)
            assert estimates[:, column].tolist() == expected, column
        assert state.estimates.tolist() == estimates[-1].tolist()

    def test_row_by_row_equals_one_block(self):
        streams = multi_bin_streams(frames=120)
        by_rows = NoiseFloorState([1, 2, 3, 4, 5], fast_window=3, slow_window=8)
        whole = NoiseFloorState([1, 2, 3, 4, 5], fast_window=3, slow_window=8)
        rows = np.array([by_rows.update_all(row) for row in streams])
        assert np.array_equal(rows, whole.update_all(streams))

    def test_update_all_rejects_bad_blocks(self):
        state = NoiseFloorState([1, 2, 3])
        with pytest.raises(ValueError):
            state.update_all(np.ones((4, 2)))
        with pytest.raises(ValueError):
            state.update_all(np.ones((2, 2, 3)))
        bad = np.ones((4, 3))
        bad[2, 1] = np.nan
        with pytest.raises(ValueError):
            state.update_all(bad)


# Non-negative magnitudes with many ties and zeros.
tied_magnitudes = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e6]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestBlockCascade:
    """The block cascade against the per-frame recompute oracle, however the stream is cut."""

    @given(
        fast=st.integers(min_value=1, max_value=70),
        slow=st.integers(min_value=1, max_value=70),
        # A small cap cuts even short blocks into several selection calls.
        select_values=st.sampled_from([1, 150, noisefloor.SELECT_VALUES]),
        # 1 selects every window alone; more share a core, clamped by short windows.
        shared=st.sampled_from([1, 2, 3, 8]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    # One block longer than the slack, so the history grows; blocks that straddle a compaction.
    @example(fast=2, slow=5, select_values=noisefloor.SELECT_VALUES, shared=8, data=None)
    def test_any_chunking_matches_oracle_for_every_bin(self, fast, slow, select_values, shared, data):
        if data is None:
            stream = np.resize([3.0, 0.0, 0.0, 7.5, 1.0, 7.5, 2.0], (60, 3)) * [1.0, 0.0, 2.0]
            cuts = [2, 5, 23, 26, 33, 33, 47]
        else:
            frames = data.draw(st.integers(min_value=1, max_value=240), label="frames")
            stream = data.draw(arrays(np.float64, (frames, 3), elements=tied_magnitudes), label="stream")
            cuts = sorted(data.draw(st.lists(st.integers(0, frames), max_size=6), label="cuts"))
        state = NoiseFloorState([4, 9, 17], fast_window=fast, slow_window=slow)
        with mock.patch.multiple(noisefloor, SELECT_VALUES=select_values, SHARED_WINDOWS=shared):
            estimates = np.concatenate([state.update_all(c) for c in np.split(stream, cuts)])
        for column in range(3):
            expected = cascade_reference(stream[:, column].tolist(), fast, slow)
            assert estimates[:, column].tolist() == expected, column
        assert state.estimates.tolist() == estimates[-1].tolist()

    @pytest.mark.parametrize("slow", [64, 1024])
    def test_heap_peak_grows_with_block_only_by_outputs(self, slow):
        """A block's heap peak is its two stages' (T, M) outputs plus one selection group:
        a selection over a whole (M, T, window) block would grow by window times the output."""
        bins = 200
        peaks = {}
        for frames in (16, 256):
            rng = np.random.default_rng(frames)
            state = NoiseFloorState(range(bins), fast_window=3, slow_window=slow)
            state.update_all(rng.uniform(0.0, 10.0, (frames, bins)))  # the history takes its size
            block = rng.uniform(0.0, 10.0, (frames, bins))
            tracemalloc.start()
            try:
                state.update_all(block)
                peaks[frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            output = frames * bins * 8
            group = max(noisefloor.SELECT_VALUES, bins * slow) * 8
            assert peaks[frames] <= 2 * output + group + 64 * 1024, frames
        assert peaks[256] - peaks[16] <= 2 * (256 - 16) * bins * 8 + 16 * 1024

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejected_block_changes_no_state(self, bad):
        streams = multi_bin_streams(frames=40)
        state = NoiseFloorState([1, 2, 3, 4, 5], fast_window=3, slow_window=8)
        state.update_all(streams[:20])
        before = (state.estimates, state.stage1.medians(), state.stage2.medians())
        block = streams[20:].copy()
        block[7, 3] = bad
        with pytest.raises(ValueError):
            state.update_all(block)
        after = (state.estimates, state.stage1.medians(), state.stage2.medians())
        for old, new in zip(before, after):
            assert np.array_equal(old, new)
        clean = NoiseFloorState([1, 2, 3, 4, 5], fast_window=3, slow_window=8)
        clean.update_all(streams[:20])
        assert np.array_equal(state.update_all(streams[20:]), clean.update_all(streams[20:]))


class TestMedianOfThree:
    """Window 3 selects with the min/max network max(min(a, b), min(max(a, b), c)), not
    np.partition: the same order statistic, which may differ only in the sign of a zero."""

    @given(arrays(np.float64, (2, 30), elements=st.sampled_from(
        [-np.inf, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf]) | finite_floats))
    @settings(max_examples=150, deadline=None)
    def test_same_value_as_the_partition(self, block):
        windows = MedianWindows(3, rows=2)
        medians = np.concatenate([windows.push(block[:, :7]), windows.push(block[:, 7:])], axis=1)
        start = np.broadcast_to([np.inf, -np.inf, np.inf], (2, 3))
        history = np.lib.stride_tricks.sliding_window_view(np.hstack([start, block]), 3, axis=1)
        expected = np.partition(history[:, 1:], 1, axis=2)[:, :, 1]
        assert np.array_equal(medians, expected)
        differs = medians.view(np.uint64) != expected.view(np.uint64)
        assert (medians[differs] == 0.0).all()

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_signed_zero(self, position):
        """Of 0.0, 0.0 and -0.0 the median is -0.0 only when -0.0 came last (np.partition gives
        it when it sits in the middle). Magnitudes come from np.abs, which never gives -0.0,
        so no artifact carries one."""
        window = [0.0, 0.0, 0.0]
        window[position] = -0.0
        median = MedianWindows(3).push([window])[0, -1]
        assert median == 0.0 and bool(np.signbit(median)) == (position == 2)
        assert not np.signbit(np.abs(np.complex128(complex(-0.0, -0.0))))


class TestSharedCore:
    """Windows other than 3 select m consecutive medians around their shared core: the same
    order statistics as one np.partition per window, which may differ only in a zero's sign."""

    @given(
        block=arrays(np.float64, (3, 150), elements=st.sampled_from(
            [-np.inf, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf]) | finite_floats),
        cuts=st.lists(st.integers(0, 150), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_value_as_the_partition(self, block, cuts):
        windows = MedianWindows(64, rows=3)
        medians = np.concatenate([windows.push(c) for c in np.split(block, sorted(cuts), axis=1)], axis=1)
        start = np.broadcast_to(np.where(np.arange(64) % 2 == 0, np.inf, -np.inf), (3, 64))
        history = np.lib.stride_tricks.sliding_window_view(np.hstack([start, block]), 64, axis=1)
        expected = np.partition(history[:, 1:], 32, axis=2)[:, :, 32]
        assert np.array_equal(medians, expected)
        differs = medians.view(np.uint64) != expected.view(np.uint64)
        assert (medians[differs] == 0.0).all()


class TestEmaTracker:
    def test_update_all_block_matches_scalar_recursion(self):
        streams = multi_bin_streams()
        tracker = EmaTracker([2, 5, 7, 11, 13], alpha=0.9)
        estimates = tracker.update_all(streams)
        for column in range(streams.shape[1]):
            assert estimates[:, column].tolist() == ema_reference(streams[:, column], 0.9)

    def test_seeds_with_first_magnitude(self):
        tracker = EmaTracker([0], alpha=0.9)
        assert float(tracker.update_all([12.0])[0]) == 12.0

    def test_recursion(self):
        tracker = EmaTracker([0], alpha=0.95)
        tracker.update_all([10.0])
        assert float(tracker.update_all([30.0])[0]) == pytest.approx(0.95 * 10.0 + 0.05 * 30.0)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            EmaTracker([0], alpha=0.0)
        with pytest.raises(ValueError):
            EmaTracker([0], alpha=1.0)

    def test_converges_toward_constant(self):
        tracker = EmaTracker([0], alpha=0.9)
        estimate = 0.0
        tracker.update_all([0.0])
        for _ in range(400):
            estimate = float(tracker.update_all([8.0])[0])
        assert estimate == pytest.approx(8.0, rel=1e-9)
