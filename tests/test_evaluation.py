"""Scoring conventions, derived rates, and traffic arithmetic."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrig.envsim import EventInterval, GroundTruth
from spectrig.evaluation import (
    ConfusionMatrix,
    amplification,
    build_metrics,
    derive_metrics,
    payload_comparison,
    per_phase_scores,
    score,
    threshold_adaptation,
    traffic_stats,
)


def one_frame_truth(starts, bin_=3) -> GroundTruth:
    return GroundTruth(
        intervals=tuple(EventInterval(s, s + 1, bin_) for s in sorted(starts))
    )


class TestScore:
    def test_perfect_detector(self):
        starts = list(range(100, 100 + 139 * 3, 3))
        truth = one_frame_truth(starts)
        cm = score(starts, truth, total_frames=1000, warmup_frames=50)
        assert (cm.tp, cm.fp, cm.fn) == (139, 0, 0)

    def test_mixed_interval_frame_tallies(self):
        """139 one-frame events in 6,784 frames, 134 detected, nothing else:
        the confusion matrix lands on TP=134 FP=0 FN=5 TN=6645."""
        starts = list(range(200, 200 + 139 * 40, 40))
        truth = one_frame_truth(starts)
        detected = starts[:134]
        cm = score(detected, truth, total_frames=6784, warmup_frames=0)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (134, 0, 5, 6645)
        metrics = derive_metrics(cm)
        assert metrics["sensitivity"] == pytest.approx(0.964, abs=5e-4)
        assert metrics["specificity"] == 1.0
        assert metrics["precision"] == 1.0
        assert metrics["accuracy"] == pytest.approx(0.999, abs=5e-4)
        assert metrics["false_alarm_rate"] == 0.0

    def test_null_detector(self):
        truth = one_frame_truth([10, 20, 30])
        cm = score([], truth, total_frames=100)
        assert (cm.tp, cm.fp, cm.fn) == (0, 0, 3)
        assert cm.tn == 100 - 3

    def test_interval_counts_once_even_for_repeated_hits(self):
        truth = GroundTruth(intervals=(EventInterval(10, 14, 3),))
        cm = score([10, 11, 12, 13], truth, total_frames=50)
        assert cm.tp == 1
        assert cm.fp == 0
        assert cm.tn == 50 - 4

    def test_events_during_warmup_ignored(self):
        truth = one_frame_truth([30])
        cm = score([5, 30], truth, total_frames=50, warmup_frames=20)
        assert (cm.tp, cm.fp) == (1, 0)

    def test_false_positive_per_frame(self):
        truth = one_frame_truth([30])
        cm = score([7, 8, 30], truth, total_frames=50)
        assert (cm.tp, cm.fp) == (1, 2)
        assert cm.tn == 50 - 1 - 2

    def test_interval_in_warmup_rejected(self):
        truth = one_frame_truth([5])
        with pytest.raises(ValueError):
            score([], truth, total_frames=50, warmup_frames=20)

    def test_matrix_totals(self):
        truth = one_frame_truth([30, 40])
        cm = score([30, 45], truth, total_frames=100, warmup_frames=10)
        # intervals counted as units + non-interval frames
        assert cm.total == 2 + (100 - 10 - 2)

    @given(
        st.integers(min_value=30, max_value=200),
        st.sets(st.integers(min_value=10, max_value=199), max_size=40),
        st.sets(st.integers(min_value=0, max_value=30), max_size=8),
    )
    @settings(max_examples=80)
    def test_matches_frame_by_frame_recount(self, total, fired, interval_seeds):
        warmup = 8
        starts = sorted(s * 6 + warmup for s in interval_seeds if s * 6 + warmup + 2 <= total)
        truth = GroundTruth(
            intervals=tuple(EventInterval(s, s + 2, 1) for s in starts)
        )
        fired = {f for f in fired if f < total}
        cm = score(fired, truth, total_frames=total, warmup_frames=warmup)

        # brute recount over every frame label
        tp = fn = fp = tn = 0
        for interval in truth:
            hits = any(f in fired for f in range(interval.start_frame, interval.end_frame))
            tp += hits
            fn += not hits
        in_interval = {
            f for iv in truth for f in range(iv.start_frame, iv.end_frame)
        }
        for frame in range(warmup, total):
            if frame in in_interval:
                continue
            if frame in fired:
                fp += 1
            else:
                tn += 1
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)


class TestDerivedMetrics:
    def test_all_zero_matrix_undefined(self):
        metrics = derive_metrics(ConfusionMatrix(0, 0, 0, 0))
        assert metrics["sensitivity"] is None
        assert metrics["specificity"] is None
        assert metrics["precision"] is None
        assert metrics["accuracy"] is None
        assert metrics["false_alarm_rate"] is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestPerPhase:
    def test_sums_match_global(self):
        truth = one_frame_truth([30, 60, 130, 170])
        fired = [30, 130, 90]
        bounds = [("a", 0, 100), ("b", 100, 200)]
        phases = per_phase_scores(fired, truth, bounds, warmup_frames=10)
        cm = score(fired, truth, total_frames=200, warmup_frames=10)
        assert sum(p["detected_events"] for p in phases) == cm.tp
        assert sum(p["missed_events"] for p in phases) == cm.fn
        assert sum(p["false_positives"] for p in phases) == cm.fp
        assert phases[0]["true_events"] == 2
        assert phases[1]["true_events"] == 2
        assert phases[0]["false_positives"] == 1


class TestTraffic:
    def test_benchmark_reduction(self):
        stats = traffic_stats(6784, 134, monitored_bins=16, bits_per_feature=16)
        assert stats["data_reduction"] == 1 - 134 / 6784
        assert stats["data_reduction"] == pytest.approx(0.980, abs=5e-4)

    def test_feature_vs_trigger_volume(self):
        stats = traffic_stats(6784, 134, monitored_bins=16, bits_per_feature=16)
        assert stats["feature_stream_bits"] == 6784 * 16 * 16 == 1_736_704
        assert stats["trigger_stream_bits"] == 134 * 64 == 8_576
        assert stats["reduction_factor"] > 200

    def test_zero_events(self):
        stats = traffic_stats(1000, 0, monitored_bins=4, bits_per_feature=16)
        assert stats["data_reduction"] == 1.0
        assert stats["trigger_stream_bits"] == 0
        assert math.isinf(stats["reduction_factor"])

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            traffic_stats(0, 0, 4, 16)

    def test_factor_consistent_with_reduction_when_payloads_match(self):
        # 4 bins x 16 bits per feature == the 64-bit trigger payload
        stats = traffic_stats(500, 25, monitored_bins=4, bits_per_feature=16)
        assert stats["reduction_factor"] == pytest.approx(1 / (1 - stats["data_reduction"]))

    def test_payload_comparison_table(self):
        table = payload_comparison(
            frame_size=128,
            bits_per_sample=16,
            decimation_factor=4,
            monitored_bins=16,
            bits_per_feature=16,
        )
        assert table == {
            "raw_streaming": 2048,
            "decimated_streaming": 512,
            "feature_transmission": 256,
            "trigger_only": 64,
        }


class TestAmplification:
    def test_zero_rate(self):
        assert amplification(3.0, 0.0, 64) == 0.0

    def test_direct_product(self):
        assert amplification(3.0, 0.01, 64) == pytest.approx(1.92)

    def test_zero_payload(self):
        assert amplification(3.0, 0.01, 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            amplification(-1.0, 0.0, 64)


class TestThresholdAdaptation:
    def test_settled_ratio(self):
        series = np.concatenate([np.full(100, 10.0), np.linspace(10, 50, 50), np.full(100, 50.0)])
        bounds = [("low", 0, 100), ("ramp", 100, 150), ("high", 150, 250)]
        summary = threshold_adaptation(series, bounds, warmup_frames=10)
        assert summary["settled_first_phase"] == 10.0
        assert summary["settled_last_phase"] == 50.0
        assert summary["adaptation_ratio"] == 5.0
        assert summary["min"] == 10.0
        assert summary["max"] == 50.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            threshold_adaptation([], [("a", 0, 0)])

    def test_rejects_a_phase_inside_the_warmup(self):
        bounds = [("a", 0, 100), ("b", 100, 400)]
        with pytest.raises(ValueError, match="phase 'a' \\[0, 100\\) has no frame after"):
            threshold_adaptation(np.ones(400), bounds, warmup_frames=120)


class TestMetricsDocument:
    """Infinite ratios are written as null, so the document is strict JSON."""

    BOUNDS = [("a", 0, 50), ("b", 50, 100)]

    def document(self, events, threshold_series):
        return build_metrics(
            events, one_frame_truth([30, 60]), total_frames=100, warmup_frames=10,
            phase_bounds=self.BOUNDS, threshold_series=threshold_series, monitored_bins=4,
        )

    def test_no_transmitted_event(self):
        document = self.document([5], np.full(100, 2.0))  # frame 5 is in the warm-up
        assert document["traffic"]["reduction_factor"] is None
        assert document["traffic"]["data_reduction"] == 1.0
        assert document["threshold"]["adaptation_ratio"] == 1.0
        json.dumps(document, allow_nan=False)

    def test_first_phase_settles_at_zero(self):
        document = self.document([30, 60], np.repeat([0.0, 3.0], 50))
        assert document["threshold"]["settled_first_phase"] == 0.0
        assert document["threshold"]["adaptation_ratio"] is None
        assert document["traffic"]["reduction_factor"] == 100 * 4 * 16 / (2 * 64)
        json.dumps(document, allow_nan=False)
