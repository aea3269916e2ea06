"""The benchmark's workloads: scenario inputs and the CLI command sequence of one job.

Every input a job reads is made here from the benchmark seed and written as
plain JSON, so the program receives only generated inputs. Nothing in this
module imports the program; build_pipeline is handed the imported package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

FAST_WINDOW = 3
SLOW_WINDOW = 64
WARMUP = FAST_WINDOW + SLOW_WINDOW
COEFFICIENT = 1.5
EMA_ALPHA = 0.95
CALIB_FRAMES = 500
DECIMATION = 4
AMPLITUDE_RATIO = 6.0
LOW_LEVEL = 40.0
HIGH_LEVEL = 200.0

REPLICA_BINS = (3, 9, 14, 21, 27, 36, 44, 52)


@dataclass(frozen=True)
class Workload:
    name: str
    frame_size: int
    sample_rate_hz: float
    bins: tuple[int, ...]
    # (name, frames, events) per phase: quiet, 40 -> 200 ramp, loud.
    phases: tuple[tuple[str, int, int], ...]
    # Each entry is one detect command followed by one eval:
    # (label, detector, tracker or None).
    detects: tuple[tuple[str, str, str | None], ...]
    uses_replica_command: bool = False

    @property
    def total_frames(self) -> int:
        return sum(frames for _, frames, _ in self.phases)

    @property
    def event_count(self) -> int:
        return sum(events for _, _, events in self.phases)

    @property
    def commands_per_job(self) -> int:
        return 1 if self.uses_replica_command else 1 + 2 * len(self.detects)


def _three_phase(quiet: int, ramp: int, loud: int, events: tuple[int, int, int]):
    return (
        ("low_noise", quiet, events[0]),
        ("transition", ramp, events[1]),
        ("high_noise", loud, events[2]),
    )


WORKLOADS = {
    # The paper's own experiment, run through `spectrig replica`.
    "replica": Workload(
        name="replica",
        frame_size=128,
        sample_rate_hz=1000.0,
        bins=REPLICA_BINS,
        phases=_three_phase(2800, 2000, 1984, (98, 11, 30)),
        detects=(("proposed", "proposed", "median"),),
        uses_replica_command=True,
    ),
    # Long frames, few bins: transform, generator and frame I/O dominate.
    # Bins stay <= 255 because the payload's bin field has 8 bits.
    "wide_frames": Workload(
        name="wide_frames",
        frame_size=2048,
        sample_rate_hz=16000.0,
        bins=(37, 101, 173, 241),
        phases=_three_phase(1652, 1180, 1168, (58, 6, 18)),
        detects=(
            ("proposed", "proposed", None),
            ("fixed", "fixed", None),
            ("decimated", "decimated", None),
        ),
    ),
    # Many bins on mid-size frames: the noise floor and decisions dominate.
    "dense_bins": Workload(
        name="dense_bins",
        frame_size=512,
        sample_rate_hz=8000.0,
        bins=tuple(range(56, 256)),
        phases=_three_phase(826, 590, 584, (29, 3, 9)),
        detects=(
            ("median", "proposed", "median"),
            ("ema", "proposed", "ema"),
        ),
    ),
}


def scenario_document(workload: Workload, seed: int) -> dict:
    """The scenario JSON `spectrig generate --config` reads."""
    phases = []
    for name, frames, events in workload.phases:
        entry = {"name": name, "frames": frames, "events": events}
        if name == "transition":
            entry["ramp"] = {"start": LOW_LEVEL, "end": HIGH_LEVEL}
        else:
            entry["level"] = LOW_LEVEL if name == "low_noise" else HIGH_LEVEL
        phases.append(entry)
    return {
        "seed": seed,
        "frame_size": workload.frame_size,
        "sample_rate_hz": workload.sample_rate_hz,
        "bins": list(workload.bins),
        "warmup_frames": WARMUP,
        "magnitude_jitter": 0.1,
        "phases": phases,
        "events": {
            "target_bins": list(workload.bins),
            "amplitude_ratio": AMPLITUDE_RATIO,
            "duration_frames": 1,
            "min_gap_frames": 2,
        },
    }


def pipeline_document(workload: Workload) -> dict:
    """The pipeline JSON `spectrig detect --config` reads."""
    return {
        "frame_size": workload.frame_size,
        "sample_rate_hz": workload.sample_rate_hz,
        "bins": list(workload.bins),
        "fast_window": FAST_WINDOW,
        "slow_window": SLOW_WINDOW,
        "threshold": COEFFICIENT,
        "tracker": "median",
        "ema_alpha": EMA_ALPHA,
        "warmup_frames": WARMUP,
    }


def build_pipeline(spectrig, workload: Workload):
    """A fresh detector with the workload's settings, built through the program's API."""
    config = spectrig.PipelineConfig(
        frame_size=workload.frame_size,
        sample_rate_hz=workload.sample_rate_hz,
        bins=spectrig.BinSet(workload.bins),
        fast_window=FAST_WINDOW,
        slow_window=SLOW_WINDOW,
        warmup_frames=WARMUP,
    )
    return spectrig.Pipeline(config)


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True)
    for filename, document in (
        ("scenario.json", scenario_document(workload, seed)),
        ("pipeline.json", pipeline_document(workload)),
    ):
        (directory / filename).write_text(json.dumps(document, indent=2) + "\n")


def job_commands(workload: Workload, seed: int, inputs: Path, out: Path) -> list[list[str]]:
    """Argument lists of one job; each becomes one `spectrig.cli.main` call."""
    if workload.uses_replica_command:
        return [["replica", "--seed", str(seed), "--out-dir", str(out)]]
    gen = out / "gen"
    commands = [
        ["generate", "--config", str(inputs / "scenario.json"), "--out-dir", str(gen)]
    ]
    for label, detector, tracker in workload.detects:
        det = out / f"detect_{label}"
        detect = [
            "detect",
            "--frames", str(gen / "frames.bin"),
            "--config", str(inputs / "pipeline.json"),
            "--detector", detector,
            "--calib-frames", str(CALIB_FRAMES),
            "--decimation", str(DECIMATION),
            "--out-dir", str(det),
        ]
        if tracker is not None:
            detect += ["--tracker", tracker]
        evaluate = [
            "eval",
            "--events", str(det / "events.csv"),
            "--truth", str(gen / "truth.csv"),
            "--scenario", str(gen / "scenario.json"),
            "--out-dir", str(out / f"eval_{label}"),
        ]
        if detector == "proposed":
            evaluate += ["--series", str(det / "series.csv")]
        commands += [detect, evaluate]
    return commands


def artifact_layout(workload: Workload, out: Path) -> dict:
    """Where one job left its files: frames/truth, and per detect its outputs."""
    if workload.uses_replica_command:
        label = workload.detects[0][0]
        return {
            "frames": out / "frames.bin",
            "truth": out / "truth.csv",
            "detects": {label: {"events": out / "events.csv", "series": out / "series.csv",
                                "metrics": out / "metrics.json"}},
        }
    detects = {}
    for label, detector, _ in workload.detects:
        detects[label] = {
            "events": out / f"detect_{label}" / "events.csv",
            "metrics": out / f"eval_{label}" / "metrics.json",
        }
        if detector == "proposed":
            detects[label]["series"] = out / f"detect_{label}" / "series.csv"
    return {"frames": out / "gen" / "frames.bin", "truth": out / "gen" / "truth.csv",
            "detects": detects}
