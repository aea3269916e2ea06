"""Round-trips for every on-disk format the tool emits."""

import struct
import tracemalloc

import numpy as np
import pytest

from spectrig import io
from spectrig.envsim import (
    EventInterval,
    EventSpec,
    GroundTruth,
    PhaseSpec,
    Ramp,
    ScenarioConfig,
    replica_scenario,
)
from spectrig.pipeline import PipelineConfig
from spectrig.spectral import BinSet
from spectrig.trigger import ThresholdConfig


def some_frames(count=5, n=16):
    rng = np.random.default_rng(3)
    return rng.normal(size=(count, n))


def raw_container(path, samples, rate=250.0):
    """A container written byte by byte, bypassing write_frames's checks."""
    samples = np.asarray(samples, dtype="<f8")
    count, size = samples.shape
    path.write_bytes(struct.pack("<4sHHfI", b"STFR", 1, size, rate, count) + samples.tobytes())


class TestFrameContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.bin"
        frames = some_frames()
        io.write_frames(path, frames, 250.0)
        loaded, rate = io.read_frames(path)
        assert len(loaded) == len(frames)
        for original, restored in zip(frames, loaded):
            assert np.array_equal(original, restored)
        assert rate == 250.0

    def test_header_layout(self, tmp_path):
        path = tmp_path / "frames.bin"
        io.write_frames(path, some_frames(count=3, n=16), 250.0)
        header = path.read_bytes()[:16]
        magic, version, size, rate, count = struct.unpack("<4sHHfI", header)
        assert magic == b"STFR"
        assert version == 1
        assert size == 16
        assert rate == 250.0
        assert count == 3
        assert path.stat().st_size == 16 + 3 * 16 * 8

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "frames.bin"
        io.write_frames(path, some_frames(), 250.0)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            io.read_frames(path)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "frames.bin"
        io.write_frames(path, some_frames(), 250.0)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="sample bytes"):
            io.read_frames(path)

    def test_rejects_empty_stream(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_frames(tmp_path / "frames.bin", [], 250.0)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "frames.bin"
        io.write_frames(path, some_frames(), 250.0)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="sample bytes"):
            io.read_frames(path)

    def test_zero_frame_container_is_an_empty_array(self, tmp_path):
        path = tmp_path / "frames.bin"
        raw_container(path, np.empty((0, 16)))
        samples, rate = io.read_frames(path)
        assert samples.shape == (0, 16) and rate == 250.0

    @pytest.mark.parametrize(
        "size, rate, match",
        [(12, 250.0, "power of two"), (4, 250.0, "power of two"), (16, 0.0, "sample rate")],
    )
    def test_rejects_what_a_frame_rejects(self, tmp_path, size, rate, match):
        path = tmp_path / "frames.bin"
        raw_container(path, np.zeros((2, size)), rate=rate)
        with pytest.raises(ValueError, match=match):
            io.read_frames(path)
        with pytest.raises(ValueError, match=match):
            io.write_frames(tmp_path / "out.bin", np.zeros((2, size)), rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_the_first_bad_frame(self, tmp_path, bad):
        samples = some_frames(count=6)
        samples[3, 5] = samples[4, 0] = bad
        path = tmp_path / "frames.bin"
        raw_container(path, samples)
        with pytest.raises(ValueError, match="frame 3: samples must all be finite"):
            io.read_frames(path)
        with pytest.raises(ValueError, match="frame 3: samples must all be finite"):
            io.write_frames(tmp_path / "out.bin", samples, 250.0)

    def test_read_holds_one_copy_of_the_samples(self, tmp_path):
        path = tmp_path / "frames.bin"
        io.write_frames(path, some_frames(count=1000, n=512), 250.0)
        tracemalloc.start()
        try:
            samples, _ = io.read_frames(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.dtype == np.float64 and samples.flags.c_contiguous
        assert peak <= 1.1 * samples.nbytes


class TestCsvLogs:
    def test_truth_round_trip(self, tmp_path):
        truth = GroundTruth(
            intervals=(EventInterval(10, 11, 3), EventInterval(40, 43, 9))
        )
        path = tmp_path / "truth.csv"
        io.write_truth(path, truth)
        assert io.read_truth(path) == truth

    def test_events_round_trip(self, tmp_path):
        rows = [
            io.EventRow(frame=67, frame_delta=67, bin=3, strength=4.251, payload=0x1234),
            io.EventRow(frame=90, frame_delta=23, bin=9, strength=6.0, payload=0xFFFF00),
        ]
        path = tmp_path / "events.csv"
        io.write_events(path, rows)
        assert io.read_events(path) == rows

    def test_series_round_trip(self, tmp_path):
        columns = {
            "frame": np.arange(4),
            "feature": np.array([1.5, 2.25, 3.125, 4.0]),
        }
        path = tmp_path / "series.csv"
        io.write_series(path, columns)
        loaded = io.read_series(path)
        assert np.array_equal(loaded["frame"], columns["frame"].astype(float))
        assert np.array_equal(loaded["feature"], columns["feature"])

    def test_series_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_series(
                tmp_path / "series.csv", {"a": np.arange(3), "b": np.arange(4)}
            )


class TestConfigs:
    def test_scenario_round_trip(self, tmp_path):
        scenario = ScenarioConfig(
            seed=7,
            frame_size=64,
            sample_rate_hz=500.0,
            bins=BinSet((3, 9)),
            phases=(
                PhaseSpec("quiet", 100, broadband_level=5.0, event_count=2),
                PhaseSpec("ramp", 50, ramp=Ramp(5.0, 25.0), event_count=1),
            ),
            events=EventSpec(target_bins=(3,), amplitude_ratio=4.0, duration_frames=2),
            warmup_frames=19,
            magnitude_jitter=0.05,
        )
        path = tmp_path / "scenario.json"
        io.save_scenario(path, scenario)
        assert io.load_scenario(path) == scenario

    def test_replica_scenario_round_trip(self, tmp_path):
        scenario = replica_scenario(seed=42)
        path = tmp_path / "scenario.json"
        io.save_scenario(path, scenario)
        assert io.load_scenario(path) == scenario

    def test_pipeline_config_round_trip(self, tmp_path):
        config = PipelineConfig(
            frame_size=64,
            sample_rate_hz=500.0,
            bins=BinSet((3, 9)),
            fast_window=5,
            slow_window=32,
            thresholds=ThresholdConfig((1.5, 1.75)),
            tracker="ema",
            ema_alpha=0.9,
            warmup_frames=40,
        )
        path = tmp_path / "pipeline.json"
        io.save_pipeline_config(path, config)
        assert io.load_pipeline_config(path) == config

    def test_pipeline_config_window_round_trip(self, tmp_path):
        config = PipelineConfig(
            frame_size=64, sample_rate_hz=500.0, bins=BinSet((3, 9)), window=np.hanning(64)
        )
        path = tmp_path / "pipeline.json"
        io.save_pipeline_config(path, config)
        loaded = io.load_pipeline_config(path)
        assert np.array_equal(loaded.window, config.window)
        assert loaded.bins == config.bins and loaded.warmup_frames == config.warmup_frames

    def test_rectangular_window_writes_no_key(self):
        config = PipelineConfig(frame_size=64, sample_rate_hz=500.0, bins=BinSet((3, 9)))
        assert "window" not in io.pipeline_config_to_dict(config)

    def test_pipeline_config_scalar_threshold(self, tmp_path):
        path = tmp_path / "pipeline.json"
        io.dump_json(
            path,
            {
                "frame_size": 64,
                "sample_rate_hz": 500.0,
                "bins": [3, 9],
                "threshold": 1.25,
            },
        )
        config = io.load_pipeline_config(path)
        assert config.thresholds.coefficients == (1.25, 1.25)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "scenario.json"
        io.dump_json(path, {"seed": 1})
        with pytest.raises(ValueError, match="missing field"):
            io.load_scenario(path)
