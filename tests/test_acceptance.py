"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion; an assertion failure in a test is that criterion's FAIL.
"""

import json
import time

import numpy as np
import pytest

from spectrig.baselines import (
    calibrate_fixed_thresholds,
    decimated_adaptive_detector,
    fixed_spectral_detector,
)
from spectrig.cli import main, replica_pipeline_config
from spectrig.envsim import EventSpec, PhaseSpec, ScenarioConfig, generate, replica_scenario
from spectrig.evaluation import payload_comparison, score
from spectrig.noisefloor import MedianWindows, NoiseFloorState
from spectrig.pipeline import PipelineConfig, latency_budget, run_stream
from spectrig.spectral import BinSet, FftPlan, magnitude

from oracles import cascade_reference, naive_dft_many

SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)


def _verdict(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS - {text}")


@pytest.fixture(scope="module")
def replica_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-replica")
    started = time.monotonic()
    code = main(["replica", "--seed", "42", "--out-dir", str(out)])
    elapsed = time.monotonic() - started
    assert code == 0
    with open(out / "metrics.json") as fh:
        metrics = json.load(fh)
    return out, metrics, elapsed


def test_criterion_1_fft_oracle_equivalence():
    started = time.monotonic()
    worst_dft = 0.0
    worst_parseval = 0.0
    for n in SIZES:
        rng = np.random.default_rng(n)
        plan = FftPlan(n)
        frames = rng.normal(size=(100, n))
        oracle = naive_dft_many(frames)
        for i in range(100):
            spectrum = plan(frames[i])
            scale = np.max(np.abs(oracle[i]))
            worst_dft = max(worst_dft, np.max(np.abs(spectrum - oracle[i])) / scale)
            time_energy = np.sum(frames[i] ** 2)
            freq_energy = np.sum(np.abs(spectrum) ** 2) / n
            worst_parseval = max(
                worst_parseval, abs(time_energy - freq_energy) / time_energy
            )
    elapsed = time.monotonic() - started
    assert worst_dft < 1e-9
    assert worst_parseval < 1e-6
    assert elapsed < 10.0
    _verdict(
        1,
        f"fft vs naive DFT rel err {worst_dft:.2e} (<1e-9), "
        f"Parseval {worst_parseval:.2e} (<1e-6), {elapsed:.1f}s (<10s)",
    )


@pytest.mark.parametrize("fast,slow", [(2, 64), (3, 64), (5, 128)])
def test_criterion_2_cascade_oracle_equivalence(fast, slow):
    rng = np.random.default_rng(fast * 1000 + slow)
    stream = rng.uniform(0.0, 100.0, size=1000).tolist()
    state = NoiseFloorState([0], fast_window=fast, slow_window=slow)
    streaming = [float(state.update_all([v])[0]) for v in stream]
    assert streaming == cascade_reference(stream, fast, slow)
    _verdict(2, f"streaming cascade == recompute oracle, 1000 frames, ({fast},{slow})")


def test_criterion_3_breakdown_property():
    # stage 1, window 3: one corrupted frame leaves the output unchanged
    clean = MedianWindows(3)
    corrupted = MedianWindows(3)
    stream = [20.0] * 60
    hit = 30
    for t, v in enumerate(stream):
        clean.push([[v]])
        corrupted.push([[1e12 if t == hit else v]])
        assert corrupted.medians()[0] == clean.medians()[0] == 20.0

    # stage 2, window 64: 31 consecutive corrupted inputs leave the output unchanged
    stage2 = MedianWindows(64)
    for _ in range(64):
        stage2.push([[20.0]])
    for _ in range(31):
        stage2.push([[1e12]])
        assert stage2.medians()[0] == 20.0
    _verdict(3, "1 corrupted frame (window 3) and 31 consecutive (window 64) absorbed exactly")


def test_criterion_4_replica_experiment(replica_run):
    out, metrics, elapsed = replica_run
    fp = metrics["confusion"]["fp"]
    sensitivity = metrics["derived"]["sensitivity"]
    ratio = metrics["threshold"]["adaptation_ratio"]
    assert fp == 0
    assert sensitivity >= 0.95
    assert 3.0 <= ratio <= 8.0
    assert elapsed < 30.0
    _verdict(
        4,
        f"replica: FP={fp} (==0), sensitivity={sensitivity:.3f} (>=0.95), "
        f"threshold ratio={ratio:.2f} (in [3,8]), {elapsed:.1f}s (<30s)",
    )


def test_criterion_5_traffic_metrics(replica_run):
    _, metrics, _ = replica_run
    transmitted = metrics["events_transmitted"]
    reduction = metrics["traffic"]["data_reduction"]
    assert reduction == 1 - transmitted / 6784
    assert abs(reduction - 0.980) <= 0.005

    table = payload_comparison(
        frame_size=128,
        bits_per_sample=16,
        decimation_factor=4,
        monitored_bins=16,
        bits_per_feature=16,
    )
    assert table["raw_streaming"] == 2048
    assert table["decimated_streaming"] == 512
    assert table["feature_transmission"] == 256
    assert table["trigger_only"] == 64
    _verdict(
        5,
        f"reduction {reduction:.4f} == 1 - {transmitted}/6784 (98.0% +-0.5%), "
        "payload table 2048/512/256/64 exact",
    )


def test_criterion_6_latency_model():
    expectations = [(10_000.0, 0.0128), (1_000.0, 0.128), (100.0, 1.28)]
    for rate, acquire in expectations:
        config = PipelineConfig(
            frame_size=128, sample_rate_hz=rate, bins=BinSet((3,))
        )
        assert latency_budget(config, 0.0, 0.0, 0.0) == acquire
    # on-target processing time is an input, not something reproduced here
    config = PipelineConfig(frame_size=128, sample_rate_hz=10_000.0, bins=BinSet((3,)))
    assert latency_budget(config, 0.0022, 0.0, 0.0) == pytest.approx(0.015, abs=1e-12)
    _verdict(6, "acquire times 12.8ms / 128ms / 1.28s exact at N=128")


def test_criterion_7_baseline_ordering(replica_run):
    out, metrics, _ = replica_run
    assert metrics["confusion"]["fp"] == 0  # proposed detector

    # (a) fixed threshold calibrated on the quiet phase false-alarms later
    scenario = replica_scenario(seed=42)
    samples, truth = generate(scenario)
    plan = FftPlan(scenario.frame_size)
    mags = np.vstack(
        [magnitude(plan(row), scenario.bins) for row in samples]
    )
    fixed = calibrate_fixed_thresholds(mags[: scenario.phases[0].frame_count])
    flags = fixed_spectral_detector(replica_pipeline_config(scenario), fixed).decide(mags).events
    fixed_cm = score(
        np.flatnonzero(flags), truth, scenario.total_frames, scenario.warmup_frames
    )
    assert fixed_cm.fp > 0

    # (b) one-frame events off a D=4 grid escape the decimated detector
    off_grid = ScenarioConfig(
        seed=11,
        frame_size=64,
        sample_rate_hz=500.0,
        bins=BinSet((3, 9, 14)),
        phases=(PhaseSpec("only", 600, broadband_level=10.0, event_count=12),),
        events=EventSpec(target_bins=(3, 9, 14), amplitude_ratio=6.0, duration_frames=1),
        warmup_frames=20,
    )
    frames_b, truth_b = generate(off_grid)
    off_grid_events = [iv for iv in truth_b if iv.start_frame % 4 != 0]
    assert off_grid_events, "scenario must place events off the decimation grid"

    proposed_results = run_stream(
        PipelineConfig(
            frame_size=64,
            sample_rate_hz=500.0,
            bins=off_grid.bins,
            fast_window=3,
            slow_window=16,
            warmup_frames=off_grid.warmup_frames,
        ),
        frames_b,
    )
    proposed_cm = score(
        [r.frame_index for r in proposed_results if r.event],
        truth_b,
        off_grid.total_frames,
        off_grid.warmup_frames,
    )
    decimated_flags = decimated_adaptive_detector(frames_b, 4)
    decimated_cm = score(
        np.flatnonzero(decimated_flags),
        truth_b,
        off_grid.total_frames,
        off_grid.warmup_frames,
    )
    assert decimated_cm.fn > proposed_cm.fn
    _verdict(
        7,
        f"fixed FP={fixed_cm.fp} (>0) vs proposed FP=0; decimated FN={decimated_cm.fn} "
        f"> proposed FN={proposed_cm.fn} with {len(off_grid_events)} off-grid events",
    )


def test_criterion_8_payload_golden_vectors():
    from spectrig.trigger import TriggerEvent, decode_event, encode_event

    rng = np.random.default_rng(8)
    for _ in range(1000):
        event = TriggerEvent(
            frame_delta=int(rng.integers(0, 2**32)),
            bin_id=int(rng.integers(0, 256)),
            strength=float(rng.uniform(0.0, 255.9)),
        )
        decoded = decode_event(encode_event(event))
        assert decoded.frame_delta == event.frame_delta
        assert decoded.bin_id == event.bin_id
        assert abs(decoded.strength - event.strength) <= 1.0 / 256

    goldens = [
        (TriggerEvent(0, 0, 0.0), 0x0000000000000000),
        (TriggerEvent(1, 2, 1.5), 0x0001800200000001),
        (TriggerEvent(0xDEADBEEF, 0xAB, 2.5), 0x000280ABDEADBEEF),
    ]
    for event, expected in goldens:
        assert encode_event(event) == expected
    assert encode_event(TriggerEvent(0, 0, 1000.0)) == 0xFFFF << 40
    _verdict(8, "1000 round-trips exact, three golden payloads bit-exact")


def test_criterion_9_determinism(tmp_path):
    first = tmp_path / "run-a"
    second = tmp_path / "run-b"
    assert main(["replica", "--seed", "42", "--out-dir", str(first)]) == 0
    assert main(["replica", "--seed", "42", "--out-dir", str(second)]) == 0
    compared = []
    for name in (
        "report.json",
        "metrics.json",
        "events.csv",
        "series.csv",
        "truth.csv",
        "frames.bin",
        "scenario.json",
        "pipeline.json",
    ):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
        compared.append(name)
    _verdict(9, f"two seed-42 runs byte-identical across {len(compared)} artifacts")
