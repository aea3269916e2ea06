"""The CLI moves frames in fixed-size chunks: same outputs for any block size, flat heap, early errors."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrig import io, spectral
from spectrig.cli import main

N = 32
DETECTORS = {
    "proposed_median": ["--detector", "proposed", "--tracker", "median"],
    "proposed_ema": ["--detector", "proposed", "--tracker", "ema"],
    "fixed": ["--detector", "fixed"],
    "decimated": ["--detector", "decimated"],
}


def stream_with_events(count: int, seed: int) -> np.ndarray:
    """Noise that steps up half-way, with a loud bin-3 tone on every seventh frame."""
    rng = np.random.default_rng(seed)
    level = np.where(np.arange(count) < count // 2, 1.0, 4.0)[:, None]
    samples = level * rng.normal(size=(count, N))
    tone = 12.0 * np.cos(2 * np.pi * 3 * np.arange(N) / N)
    samples[3::7] += tone
    return samples


def detect_all(work, samples, warmup: int, calib: int, decimation: int) -> dict:
    """Every detector's output files, by detector and file name."""
    work.mkdir(parents=True)
    frames, config = work / "frames.bin", work / "pipeline.json"
    io.write_frames(frames, samples, 1000.0)
    io.dump_json(config, {
        "frame_size": N, "sample_rate_hz": 1000.0, "bins": [3, 9], "fast_window": 2,
        "slow_window": 5, "threshold": 1.5, "ema_alpha": 0.8, "warmup_frames": warmup,
    })
    outputs = {}
    for name, args in DETECTORS.items():
        out = work / name
        assert main([
            "detect", "--frames", str(frames), "--config", str(config), *args,
            "--calib-frames", str(calib), "--decimation", str(decimation), "--out-dir", str(out),
        ]) == 0
        outputs.update({(name, p.name): p.read_bytes() for p in out.iterdir()})
    return outputs


def detect_in_blocks(work, rows: int, *args) -> dict:
    with mock.patch.object(spectral, "CHUNK_SAMPLES", rows * N):
        return detect_all(work, *args)


class TestAnyReadBlockSize:
    """Block edges anywhere, inside the warm-up or across a decimation stride, change no byte."""

    def test_every_block_size_of_one_stream(self, tmp_path):
        samples = stream_with_events(30, seed=1)
        whole = detect_all(tmp_path / "whole", samples, 9, 7, 3)
        assert any(b"0x" in v for (name, f), v in whole.items() if f == "events.csv")
        for rows in range(1, 31):
            assert detect_in_blocks(tmp_path / f"rows{rows}", rows, samples, 9, 7, 3) == whole

    @given(
        count=st.integers(1, 80),
        seed=st.integers(0, 2**16),
        warmup=st.integers(0, 15),
        decimation=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_streams(self, tmp_path_factory, count, seed, warmup, decimation, data):
        rows = data.draw(st.integers(1, count), label="rows")
        calib = data.draw(st.integers(1, count), label="calib")
        work = tmp_path_factory.mktemp("blocks")
        samples = stream_with_events(count, seed)
        whole = detect_all(work / "whole", samples, warmup, calib, decimation)
        assert detect_in_blocks(work / "blocked", rows, samples, warmup, calib, decimation) == whole


WIDE = 2048  # 128 frames per chunk


def wide_scenario(path, frames: int) -> None:
    bins = [37, 101, 173, 241]
    io.dump_json(path, {
        "seed": 5, "frame_size": WIDE, "sample_rate_hz": 16000.0, "bins": bins,
        "warmup_frames": 67, "magnitude_jitter": 0.1,
        "phases": [{"name": "only", "frames": frames, "events": frames // 100, "level": 40.0}],
        "events": {"target_bins": bins, "amplitude_ratio": 6.0, "min_gap_frames": 2},
    })


def wide_pipeline(path) -> None:
    io.dump_json(path, {"frame_size": WIDE, "sample_rate_hz": 16000.0,
                        "bins": [37, 101, 173, 241], "warmup_frames": 67})


def heap_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_runs(tmp_path_factory):
    """Generated streams of 600 and 2,400 frames, after a warm-up run; their heap peaks."""
    work = tmp_path_factory.mktemp("wide")
    wide_pipeline(work / "pipeline.json")
    peaks = {}
    for frames in (600, 600, 2400):  # the first run warms up
        wide_scenario(work / f"scenario{frames}.json", frames)
        argv = ["generate", "--config", str(work / f"scenario{frames}.json"),
                "--out-dir", str(work / f"gen{frames}")]
        peaks[frames] = heap_peak(argv)
    return work, peaks


DETECT_ARGS = {
    **DETECTORS,
    "fixed": ["--detector", "fixed", "--calib-frames", "500"],
    "decimated_1": ["--detector", "decimated", "--decimation", "1"],
    "decimated_2": ["--detector", "decimated", "--decimation", "2"],
}


@pytest.fixture(scope="module")
def dense_streams(tmp_path_factory):
    """Noise containers of 1,024 and 4,096 frames of 512 samples, and a 200-bin pipeline."""
    work = tmp_path_factory.mktemp("dense")
    io.dump_json(work / "pipeline.json", {
        "frame_size": 512, "sample_rate_hz": 16000.0, "bins": list(range(20, 220)),
    })
    rng = np.random.default_rng(11)
    for frames in (1024, 4096):
        with io.FrameWriter(work / f"frames{frames}.bin", 512, 16000.0, frames) as writer:
            for _ in range(frames // 512):
                io.write_frames(writer, rng.normal(size=(512, 512)))
    return work


class TestBoundedHeap:
    """Quadrupling the frame count leaves the heap peak within 10 %: no (T, N) array is held."""

    def test_generate(self, wide_runs):
        _, peaks = wide_runs
        assert peaks[2400] <= 1.1 * peaks[600]
        assert peaks[2400] < 2400 * WIDE * 8 / 4  # a quarter of the sample bytes

    def test_generate_holds_a_chunk_and_its_spectrum(self, wide_runs):
        """A chunk's noise draws land in its own output rows and its spectrum is the stream's,
        made once: one 2 MB chunk of samples and one of spectra, not 2 MB of draws besides."""
        _, peaks = wide_runs
        assert max(peaks.values()) < 2.5 * spectral.CHUNK_SAMPLES * 8

    @pytest.mark.parametrize("detector", DETECT_ARGS)
    def test_detect(self, wide_runs, detector):
        work, _ = wide_runs

        def detect(frames):
            return heap_peak([
                "detect", "--frames", str(work / f"gen{frames}" / "frames.bin"),
                "--config", str(work / "pipeline.json"), *DETECT_ARGS[detector],
                "--out-dir", str(work / f"{detector}{frames}"),
            ])

        detect(600)  # warm-up: plans and caches of this frame size
        small, large = detect(600), detect(2400)
        assert large <= 1.1 * small
        assert large < 2400 * WIDE * 8 / 4


    @pytest.mark.parametrize("detector", DETECT_ARGS)
    def test_detect_holds_one_chunk(self, wide_runs, detector):
        """Each chunk is released before the next one is read: one 2 MB chunk plus block
        temporaries, not two chunks."""
        work, _ = wide_runs
        argv = [
            "detect", "--frames", str(work / "gen600" / "frames.bin"),
            "--config", str(work / "pipeline.json"), *DETECT_ARGS[detector],
            "--out-dir", str(work / f"{detector}_one_chunk"),
        ]
        heap_peak(argv)  # warm-up: plans and caches of this frame size
        assert heap_peak(argv) < 1.5 * spectral.CHUNK_SAMPLES * 8

    def test_windowed_detect_holds_one_chunk(self, wide_runs):
        """A window's copy of the samples is made a block at a time, like the transform's
        arrays, not for a whole span."""
        work, _ = wide_runs
        config = work / "windowed.json"
        io.dump_json(config, {**io.load_json(work / "pipeline.json"), "window": [0.5] * WIDE})
        argv = [
            "detect", "--frames", str(work / "gen600" / "frames.bin"), "--config", str(config),
            "--out-dir", str(work / "windowed"),
        ]
        heap_peak(argv)  # warm-up: plans and caches of this frame size
        assert heap_peak(argv) < 1.5 * spectral.CHUNK_SAMPLES * 8

    def test_fixed_detect_on_many_bins(self, dense_streams):
        """Past its calibration stretch the fixed detector keeps each chunk's firing frames,
        bins and strengths, not the stream's (frames, bins) magnitudes: on 200 bins of noise,
        where most frames fire, four times the frames leave the heap peak within 10 %."""
        def detect(frames):
            return heap_peak([
                "detect", "--frames", str(dense_streams / f"frames{frames}.bin"),
                "--config", str(dense_streams / "pipeline.json"), *DETECT_ARGS["fixed"],
                "--out-dir", str(dense_streams / f"fixed{frames}"),
            ])

        detect(1024)  # warm-up: plans and caches of this frame size
        small, large = detect(1024), detect(4096)
        assert len(io.read_events(dense_streams / "fixed4096" / "events.csv")) > 4096 // 2
        assert large <= 1.1 * small

    def test_fixed_detect_holds_no_more_than_proposed(self, dense_streams):
        """The fixed detector holds magnitudes only until its calibration stretch has
        arrived, then streams the rest through the core as the proposed detector does: on
        200 bins, its heap peak is at most the proposed detector's on the same container."""
        def detect(detector):
            return heap_peak([
                "detect", "--frames", str(dense_streams / "frames4096.bin"),
                "--config", str(dense_streams / "pipeline.json"), *DETECT_ARGS[detector],
                "--out-dir", str(dense_streams / f"{detector}_peak"),
            ])

        for detector in ("fixed", "proposed_median"):  # warm-up: plans and caches of both
            detect(detector)
        assert detect("fixed") <= detect("proposed_median")


class TestBadFrameMidStream:
    @pytest.mark.parametrize("detector", DETECTORS)
    def test_error_line_and_no_out_dir(self, tmp_path, capsys, detector):
        frames = tmp_path / "frames.bin"
        io.write_frames(frames, np.random.default_rng(2).normal(size=(3 * 128, WIDE)), 16000.0)
        with open(frames, "r+b") as fh:  # frame 200, in the middle chunk of three
            fh.seek(16 + (200 * WIDE + 17) * 8)
            fh.write(np.float64(np.nan).tobytes())
        wide_pipeline(tmp_path / "pipeline.json")
        out = tmp_path / "out"
        assert main([
            "detect", "--frames", str(frames), "--config", str(tmp_path / "pipeline.json"),
            *DETECTORS[detector], "--calib-frames", "100", "--out-dir", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: frame 200: samples must all be finite")
        assert not out.exists()
