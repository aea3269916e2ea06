"""Comparison detectors: trivial behaviors and the documented failure modes."""

import numpy as np
import pytest

from spectrig import io
from spectrig.baselines import (
    DecimationConfig,
    calibrate_fixed_thresholds,
    decimated_adaptive_detector,
    fixed_spectral_detector,
    frame_rms,
)
from spectrig.cli import main
from spectrig.envsim import EventSpec, PhaseSpec, Ramp, ScenarioConfig, generate
from spectrig.noisefloor import FixedFloor
from spectrig.pipeline import PipelineConfig, run_stream
from spectrig.spectral import BinSet, FftPlan, chunk_rows, magnitude

from oracles import naive_fixed_events


def three_phase_scenario(seed=21) -> ScenarioConfig:
    """Small replica-shaped scenario: quiet, ramp, loud."""
    return ScenarioConfig(
        seed=seed,
        frame_size=64,
        sample_rate_hz=500.0,
        bins=BinSet((3, 9, 14)),
        phases=(
            PhaseSpec("low", 300, broadband_level=10.0, event_count=6),
            PhaseSpec("ramp", 200, ramp=Ramp(10.0, 50.0), event_count=2),
            PhaseSpec("high", 200, broadband_level=50.0, event_count=4),
        ),
        events=EventSpec(target_bins=(3, 9, 14), amplitude_ratio=6.0),
        warmup_frames=20,
    )


def fixed_flags(mags, thresholds):
    """The fixed detector's per-frame event flags over a (frames, bins) magnitude array."""
    mags = np.asarray(mags, dtype=np.float64)
    config = PipelineConfig(frame_size=64, sample_rate_hz=500.0, bins=BinSet((3, 9, 14)[: mags.shape[1]]))
    return fixed_spectral_detector(config, thresholds).decide(mags).events


def features_of(samples, bins):
    plan = FftPlan(samples.shape[1])
    return np.vstack([magnitude(plan(row), bins) for row in samples])


class TestFixedThreshold:
    def test_all_below_threshold(self):
        mags = np.full((10, 3), 2.0)
        flags = fixed_flags(mags, [5.0] * 3)
        assert flags.sum() == 0

    def test_huge_threshold_never_fires(self):
        rng = np.random.default_rng(0)
        mags = rng.uniform(0, 100, size=(50, 3))
        flags = fixed_flags(mags, [1e12] * 3)
        assert flags.sum() == 0

    def test_fires_on_exceedance(self):
        mags = np.array([[1.0, 1.0], [1.0, 9.0]])
        flags = fixed_flags(mags, [5.0] * 2)
        assert flags.tolist() == [0, 1]

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            fixed_flags(np.zeros((4, 3)), [1.0] * 2)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            FixedFloor((3,), (0.0,))

    def test_calibrated_on_quiet_phase_false_alarms_when_noise_rises(self):
        scenario = three_phase_scenario()
        frames, truth = generate(scenario)
        mags = features_of(frames, scenario.bins)
        fixed = calibrate_fixed_thresholds(mags[:300])
        flags = fixed_flags(mags, fixed)
        event_frames = {t for iv in truth for t in range(iv.start_frame, iv.end_frame)}
        false_positives = [
            t
            for t in np.flatnonzero(flags)
            if t >= scenario.warmup_frames and t not in event_frames
        ]
        assert len(false_positives) > 0

        # the adaptive pipeline stays clean on the same stream
        pipeline_config = PipelineConfig(
            frame_size=scenario.frame_size,
            sample_rate_hz=scenario.sample_rate_hz,
            bins=scenario.bins,
            fast_window=3,
            slow_window=16,
            warmup_frames=scenario.warmup_frames,
        )
        results = run_stream(pipeline_config, frames)
        proposed_fp = [
            r.frame_index
            for r in results
            if r.event and r.frame_index not in event_frames
        ]
        assert proposed_fp == []


ORACLE_SIZE = 1024
ORACLE_CHUNK = chunk_rows(ORACLE_SIZE)  # the CLI reads frames.bin this many frames at a time


class TestFixedDetectorOracle:
    # At the chunk edge, calibration ends on a chunk boundary: no frame is held past it.
    @pytest.mark.parametrize(
        "calib_frames", [1, ORACLE_CHUNK, ORACLE_CHUNK + ORACLE_CHUNK // 2, 3 * ORACLE_CHUNK],
        ids=["one-frame", "chunk-edge", "mid-chunk", "all-frames"],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_detect_rows_match_the_oracle(self, tmp_path, seed, calib_frames):
        """`detect --detector fixed` over three chunks gives the oracle's events: frame,
        delta, bin and payload exactly, and the strength to rounding."""
        bins = (37, 101, 173)
        scenario = ScenarioConfig(
            seed=seed,
            frame_size=ORACLE_SIZE,
            sample_rate_hz=8000.0,
            bins=BinSet(bins),
            phases=(
                PhaseSpec("low", ORACLE_CHUNK, broadband_level=10.0, event_count=6),
                PhaseSpec("ramp", ORACLE_CHUNK, ramp=Ramp(10.0, 50.0), event_count=3),
                PhaseSpec("high", ORACLE_CHUNK, broadband_level=50.0, event_count=4),
            ),
            events=EventSpec(target_bins=bins, amplitude_ratio=6.0),
            warmup_frames=0,
        )
        frames, _ = generate(scenario)
        io.write_frames(tmp_path / "frames.bin", frames, scenario.sample_rate_hz)
        io.dump_json(
            tmp_path / "pipeline.json",
            {"frame_size": ORACLE_SIZE, "sample_rate_hz": scenario.sample_rate_hz, "bins": list(bins)},
        )
        assert main([
            "detect", "--frames", str(tmp_path / "frames.bin"), "--config", str(tmp_path / "pipeline.json"),
            "--detector", "fixed", "--calib-frames", str(calib_frames), "--out-dir", str(tmp_path / "out"),
        ]) == 0
        rows = io.read_events(tmp_path / "out" / "events.csv")
        expected = naive_fixed_events(frames, bins, calib_frames)
        assert expected
        assert [(r.frame, r.frame_delta, r.bin, r.payload) for r in rows] == [
            (frame, delta, bin_id, payload) for frame, delta, bin_id, _, payload in expected
        ]
        assert [r.strength for r in rows] == pytest.approx([e[3] for e in expected], rel=1e-12)


class TestDecimatedDetector:
    def quiet_frames_with_events(self, event_frames, total=200, n=64, boost=4.0):
        # one fixed background frame repeated -> constant RMS baseline
        rng = np.random.default_rng(17)
        base = rng.normal(size=n)
        streams = np.tile(base, (total, 1))
        for t in event_frames:
            streams[t] *= boost
        return streams

    def test_no_decimation_detects_all_large_events(self):
        events = [40, 90, 150]
        frames = self.quiet_frames_with_events(events)
        flags = decimated_adaptive_detector(frames, DecimationConfig(decimation_factor=1))
        assert [t for t in events if flags[t]] == events

    def test_off_grid_events_are_missed(self):
        # all events sit off the D=4 grid, so none can be inspected
        events = [41, 90, 151]
        frames = self.quiet_frames_with_events(events)
        flags = decimated_adaptive_detector(frames, DecimationConfig(decimation_factor=4))
        assert all(flags[t] == 0 for t in events)

    def test_zero_event_stream_stays_quiet(self):
        frames = self.quiet_frames_with_events([])
        flags = decimated_adaptive_detector(frames, DecimationConfig(decimation_factor=4))
        assert flags.sum() == 0

    def test_skipped_frames_report_zero(self):
        frames = self.quiet_frames_with_events([], total=20)
        flags = decimated_adaptive_detector(frames, DecimationConfig(decimation_factor=5))
        inspected = set(range(0, 20, 5))
        assert all(flags[t] == 0 for t in range(20) if t not in inspected)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DecimationConfig(decimation_factor=0)
        with pytest.raises(ValueError):
            DecimationConfig(alpha=1.5)

    def test_frame_rms(self):
        assert frame_rms(np.zeros(8)) == 0.0
        assert frame_rms(np.full(8, 3.0)) == pytest.approx(3.0)

    def test_frame_rms_of_a_block_is_per_row(self):
        block = np.random.default_rng(2).normal(size=(6, 128)) * 40.0
        assert frame_rms(block).tolist() == [frame_rms(row) for row in block]
