"""Round-trips for every on-disk format the tool emits."""

import contextlib
import copy
import json
import math
import struct
import sys
import tracemalloc
from dataclasses import fields, replace
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrig import io, spectral
from spectrig.cli import main
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


class TestChunkedContainer:
    """The writer appends chunks under a header checked up front; the reader reads row blocks."""

    def test_appended_chunks_equal_one_write(self, tmp_path):
        samples = some_frames(count=11)
        io.write_frames(tmp_path / "whole.bin", samples, 250.0)
        with io.FrameWriter(tmp_path / "chunked.bin", 16, 250.0, 11) as writer:
            for start, stop in ((0, 1), (1, 5), (5, 11)):
                io.write_frames(writer, samples[start:stop])
        assert (tmp_path / "chunked.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()

    @pytest.mark.parametrize("size, match", [(131072, "65535"), (12, "power of two")])
    def test_header_is_checked_before_the_file_opens(self, tmp_path, size, match):
        path = tmp_path / "frames.bin"
        with pytest.raises(ValueError, match=match):
            io.FrameWriter(path, size, 250.0, 2)
        with pytest.raises(ValueError, match="frames"):
            io.FrameWriter(path, 16, 250.0, 0)
        with pytest.raises(ValueError, match="sample rate"):
            io.FrameWriter(path, 16, 1e39, 2)  # above the f32 range
        assert not path.exists()

    def test_rate_must_survive_the_f32_field(self, tmp_path):
        path = tmp_path / "frames.bin"
        with pytest.raises(ValueError, match="44100.30078"):
            io.FrameWriter(path, 16, 44100.3, 2)
        assert not path.exists()
        io.write_frames(path, some_frames(count=2), 44100.5)
        assert io.read_frames(path)[1] == 44100.5

    def test_bad_chunk_names_its_frame_and_removes_the_file(self, tmp_path):
        path = tmp_path / "frames.bin"
        samples = some_frames(count=8)
        samples[6, 2] = np.nan
        with pytest.raises(ValueError, match="frame 6: samples must all be finite"):
            with io.FrameWriter(path, 16, 250.0, 8) as writer:
                io.write_frames(writer, samples[:4])
                io.write_frames(writer, samples[4:])
        assert not path.exists()

    @pytest.mark.parametrize("count", [3, 5])
    def test_stream_of_another_length_removes_the_file(self, tmp_path, count):
        path = tmp_path / "frames.bin"
        with pytest.raises(ValueError, match="frames"):
            with io.FrameWriter(path, 16, 250.0, 4) as writer:
                io.write_frames(writer, some_frames(count=count))
        assert not path.exists()

    def test_chunk_of_another_frame_size_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="expected"):
            with io.FrameWriter(tmp_path / "frames.bin", 16, 250.0, 4) as writer:
                io.write_frames(writer, some_frames(count=4, n=32))

    def test_blocks_of_any_size_equal_the_whole_read(self, tmp_path):
        path = tmp_path / "frames.bin"
        io.write_frames(path, some_frames(count=13), 250.0)
        whole, _ = io.read_frames(path)
        with io.FrameReader(path) as reader:
            assert (reader.frame_size, reader.sample_rate_hz, reader.frame_count) == (16, 250.0, 13)
            for rows in range(1, 15):
                with mock.patch.object(spectral, "CHUNK_SAMPLES", rows * 16):
                    blocks = list(reader.blocks())
                assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
                assert np.concatenate(blocks).tobytes() == whole.tobytes()
            assert np.array_equal(io.read_frames(reader, 4, 9)[0], whole[4:9])
        assert np.array_equal(io.read_frames(path, 2, 3)[0], whole[2:3])

    def test_block_error_names_the_frame_in_the_stream(self, tmp_path):
        samples = some_frames(count=12)
        samples[9, 1] = np.inf
        path = tmp_path / "frames.bin"
        raw_container(path, samples)
        with io.FrameReader(path) as reader:
            assert len(io.read_frames(reader, 0, 8)[0]) == 8
            with pytest.raises(ValueError, match="frame 9: samples must all be finite"):
                with mock.patch.object(spectral, "CHUNK_SAMPLES", 4 * 16):
                    list(reader.blocks())
            with pytest.raises(ValueError, match="outside"):
                io.read_frames(reader, 8, 13)

    def test_header_errors_close_the_file(self, tmp_path):
        path = tmp_path / "frames.bin"
        path.write_bytes(b"STFR")
        with pytest.raises(ValueError, match="truncated"):
            io.FrameReader(path)


_FUZZ_CONFIG = PipelineConfig(
    frame_size=16, sample_rate_hz=250.0, bins=BinSet((1, 3)), fast_window=2, slow_window=4
)
_FUZZ_SAMPLE = st.floats() | st.sampled_from([1e308, -1e308, sys.float_info.max])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge samples overflow the sums
@settings(max_examples=150, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(["truncate", "bytes", "sample"]))
def test_fuzzed_container_gives_events_or_an_error_line(tmp_path_factory, data, mutation):
    """A small valid container, truncated or with header or payload bytes overwritten: each
    detector exits 0, or 2 with an error: line, and no exception leaves main."""
    root = tmp_path_factory.mktemp("fuzz")
    io.save_pipeline_config(root / "pipeline.json", _FUZZ_CONFIG)
    io.write_frames(root / "frames.bin", some_frames(count=6, n=16), 250.0)
    blob = bytearray((root / "frames.bin").read_bytes())
    if mutation == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length") :]
    elif mutation == "bytes":  # anywhere, the header included; past the end it appends
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        new = data.draw(st.binary(min_size=1, max_size=8), label="bytes")
        blob[at : at + len(new)] = new
    else:
        at = len(blob) - 8 * data.draw(st.integers(1, 6 * 16), label="sample from the end")
        blob[at : at + 8] = struct.pack("<d", data.draw(_FUZZ_SAMPLE, label="sample"))
    (root / "frames.bin").write_bytes(blob)
    for detector in ("proposed", "fixed", "decimated"):
        stderr = StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(StringIO()):
            code = main([
                "detect", "--frames", str(root / "frames.bin"), "--detector", detector,
                "--config", str(root / "pipeline.json"), "--calib-frames", "3",
                "--out-dir", str(root / detector),
            ])
        assert code == 0 or (code == 2 and stderr.getvalue().startswith("error: ")), stderr.getvalue()


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

    def test_series_bytes_are_pinned(self, tmp_path):
        columns = {
            "frame": np.array([0, 1, 2, -3], dtype=np.int64),
            "value": np.array([0.1, -0.0, np.inf, -np.inf]),
            "small": np.array([1e-300, 2.5, np.nan, 1.0 / 3.0]),
            "flag": np.array([1, 0, 1, 0], dtype=np.int8),
            "half": np.array([0.1, 1.0, 2.0, 3.0], dtype=np.float32),
        }
        path = tmp_path / "series.csv"
        io.write_series(path, columns)
        assert path.read_bytes() == (
            b"frame,value,small,flag,half\r\n"
            b"0,0.1,1e-300,1,0.10000000149011612\r\n"
            b"1,-0.0,2.5,0,1.0\r\n"
            b"2,inf,nan,1,2.0\r\n"
            b"-3,-inf,0.3333333333333333,0,3.0\r\n"
        )

    def test_series_longer_than_one_slice(self, tmp_path):
        frames = np.arange(10_000, dtype=np.int64)
        values = np.linspace(-1.0, 1.0, 10_000)
        path = tmp_path / "series.csv"
        io.write_series(path, {"frame": frames, "value": values})
        lines = path.read_text().splitlines()
        assert lines[1:] == [f"{f},{v!r}" for f, v in zip(frames.tolist(), values.tolist())]

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

    @pytest.mark.parametrize("table", ["scenario", "phase", "ramp", "events", "pipeline"])
    def test_misspelt_key_names_the_file_and_key(self, tmp_path, table):
        """A key outside its table is an error, not a field left at its default."""
        scenario = io.scenario_to_dict(replica_scenario(42))
        pipeline = {"frame_size": 128, "sample_rate_hz": 1000.0, "bins": [3, 9], "slow_window": 16}
        document, right, key = {
            "scenario": (scenario, "warmup_frames", "warmup_frame"),
            "phase": (scenario["phases"][0], "events", "event"),
            "ramp": (scenario["phases"][1]["ramp"], "end", "stop"),
            "events": (scenario["events"], "min_gap_frames", "min_gap"),
            "pipeline": (pipeline, "slow_window", "slow_windw"),
        }[table]
        document[key] = document.pop(right)
        path = tmp_path / f"{table}.json"
        io.dump_json(path, pipeline if table == "pipeline" else scenario)
        load = io.load_pipeline_config if table == "pipeline" else io.load_scenario
        with pytest.raises(ValueError, match=f"^{path}: .*unknown field '{key}'$"):
            load(path)


    @pytest.mark.parametrize("kind", ["scenario", "pipeline"])
    @pytest.mark.parametrize(
        "field, value, match",
        [("frame_size", 131072, "65535"), ("sample_rate_hz", 1000.1, "1000.1 Hz is not exact as the container's f32")],
        ids=["frame-size", "rate"],
    )
    def test_both_decoders_reject_what_the_container_cannot_hold(self, tmp_path, kind, field, value, match):
        """A frame size above the header's u16 or a rate its f32 changes is an error naming
        the file, in both config decoders, as it is in pack_header."""
        if kind == "scenario":
            document = io.scenario_to_dict(replace(replica_scenario(42), **{field: value}))
        else:
            document = {"frame_size": 128, "sample_rate_hz": 1000.0, "bins": [3, 9], field: value}
        path = tmp_path / f"{kind}.json"
        io.dump_json(path, document)
        load = io.load_pipeline_config if kind == "pipeline" else io.load_scenario
        with pytest.raises(ValueError, match=f"^{path}: .*{match}"):
            load(path)
        with pytest.raises(ValueError, match=match):
            io.pack_header(document["frame_size"], document["sample_rate_hz"], 1)

    def test_threshold_beside_its_coefficients_is_an_error(self, tmp_path):
        path = tmp_path / "pipeline.json"
        io.dump_json(path, {
            "frame_size": 64, "sample_rate_hz": 500.0, "bins": [3, 9],
            "threshold": 1.9, "threshold_coefficients": [1.2, 1.2],
        })
        with pytest.raises(ValueError, match=f"^{path}: .*'threshold' and 'threshold_coefficients'"):
            io.load_pipeline_config(path)

    def test_level_on_a_ramped_phase_is_an_error(self, tmp_path):
        document = io.scenario_to_dict(replica_scenario(42))
        document["phases"][1]["level"] = 40.0  # the transition phase, 40 -> 200
        path = tmp_path / "scenario.json"
        io.dump_json(path, document)
        with pytest.raises(ValueError, match=f"^{path}: .*'ramp' and 'level'"):
            io.load_scenario(path)


_LEVELS = st.floats(0.0, 1e6)


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """Valid scenarios: flat and ramped phases, any field away from its default."""
    frame_size = draw(st.sampled_from([8, 64, 1024]))
    bins = sorted(draw(st.sets(st.integers(1, frame_size // 2 - 1), min_size=1, max_size=4)))
    phase = st.one_of(
        st.builds(PhaseSpec, st.text(max_size=6), st.integers(1, 10**6), _LEVELS,
                  event_count=st.integers(0, 50)),
        st.builds(PhaseSpec, st.text(max_size=6), st.integers(1, 10**6),
                  ramp=st.builds(Ramp, _LEVELS, _LEVELS), event_count=st.integers(0, 50)),
    )
    return ScenarioConfig(
        seed=draw(st.integers(0, 10**30)),
        frame_size=frame_size,
        sample_rate_hz=draw(st.floats(2.0**-10, 1e9, width=32)),
        bins=BinSet(tuple(bins)),
        phases=tuple(draw(st.lists(phase, min_size=1, max_size=3))),
        events=EventSpec(
            target_bins=tuple(draw(st.lists(st.sampled_from(bins), min_size=1, max_size=3))),
            amplitude_ratio=draw(st.floats(1.0, 1e3, exclude_min=True)),
            duration_frames=draw(st.integers(1, 100)),
            min_gap_frames=draw(st.integers(0, 100)),
        ),
        warmup_frames=draw(st.integers(0, 10**5)),
        magnitude_jitter=draw(st.floats(0.0, 1.0, exclude_max=True)),
    )


@st.composite
def pipeline_configs(draw) -> PipelineConfig:
    """Valid pipeline configs, with and without a window and a warm-up."""
    frame_size = draw(st.sampled_from([8, 64, 1024]))
    bins = sorted(draw(st.sets(st.integers(0, min(frame_size // 2, 255)), min_size=1, max_size=4)))
    window = st.lists(st.floats(-1e6, 1e6), min_size=frame_size, max_size=frame_size).map(np.array)
    return PipelineConfig(
        frame_size=frame_size,
        sample_rate_hz=draw(st.floats(2.0**-10, 1e9, width=32)),
        bins=BinSet(tuple(bins)),
        fast_window=draw(st.integers(1, 500)),
        slow_window=draw(st.integers(1, 500)),
        thresholds=ThresholdConfig(
            tuple(draw(st.lists(st.floats(1.0, 2.0), min_size=len(bins), max_size=len(bins))))
        ),
        tracker=draw(st.sampled_from(["median", "ema"])),
        ema_alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        warmup_frames=draw(st.none() | st.integers(0, 10**5)),
        window=draw(st.none() | window),
    )


class TestConfigProperties:
    @settings(max_examples=80, deadline=None)
    @given(scenario=scenarios())
    def test_scenario_survives_save_then_load(self, tmp_path_factory, scenario):
        path = tmp_path_factory.mktemp("scenario") / "scenario.json"
        io.save_scenario(path, scenario)
        assert io.load_scenario(path) == scenario

    @settings(max_examples=80, deadline=None)
    @given(config=pipeline_configs())
    def test_pipeline_config_survives_save_then_load(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("pipeline") / "pipeline.json"
        io.save_pipeline_config(path, config)
        loaded = io.load_pipeline_config(path)
        for field in fields(PipelineConfig):
            ours, theirs = getattr(loaded, field.name), getattr(config, field.name)
            if field.name == "window" and theirs is not None:
                assert np.array_equal(ours, theirs)
            else:
                assert ours == theirs, field.name


def _paths(document, prefix=()):
    """The path of every value inside a JSON document: object keys and list indices."""
    items = document.items() if isinstance(document, dict) else enumerate(document)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, prefix + (key,))


_DOCUMENTS = {
    "scenario": (io.scenario_from_dict, io.scenario_to_dict(replica_scenario(42))),
    "pipeline": (
        io.pipeline_config_from_dict,
        io.pipeline_config_to_dict(
            PipelineConfig(frame_size=8, sample_rate_hz=500.0, bins=BinSet((1, 3)), window=np.hanning(8))
        ),
    ),
    "legacy-threshold": (
        io.pipeline_config_from_dict,
        {"frame_size": 8, "sample_rate_hz": 500.0, "bins": [1, 3], "threshold": 1.25},
    ),
}
_DELETE = object()
_JSON_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -(10**400), math.inf, -math.inf, math.nan, True, False, None, _DELETE]),
    st.floats(),
    st.text(max_size=8),
    st.lists(st.integers() | st.floats() | st.text(max_size=3), max_size=4),
    st.dictionaries(st.text(max_size=8), st.integers() | st.floats(), max_size=3),
)


@pytest.mark.filterwarnings("ignore:threshold coefficient above 2")
@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_DOCUMENTS)))
def test_any_replaced_json_value_loads_or_is_a_value_error(data, kind):
    """One value of a valid config, at any depth, replaced by any JSON value or deleted:
    loading gives a config or a ValueError, never another exception."""
    decode, document = _DOCUMENTS[kind]
    document = copy.deepcopy(document)
    path = data.draw(st.sampled_from(sorted(_paths(document), key=repr)))
    value = data.draw(_JSON_VALUES)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        decode(json.loads(json.dumps(document)))
    except ValueError:
        pass
