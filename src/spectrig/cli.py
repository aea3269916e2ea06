"""Command-line front end: generate scenarios, run detectors, score results."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

from . import io
from .baselines import (
    calibrate_fixed_thresholds,
    decimated_adaptive_detector,
    fixed_spectral_detector,
    frame_rms,
)
from .envsim import GENERATOR_ID, ScenarioConfig, SyntheticStream, replica_scenario
from .evaluation import PHASE_COLUMNS, build_metrics, payload_comparison
from .pipeline import BlockResult, Pipeline, PipelineConfig
from .trigger import TriggerEvent, encode_event


def replica_pipeline_config(scenario: ScenarioConfig, tracker: str = "median") -> PipelineConfig:
    """Detector settings used for the one-shot replica run: the default median windows."""
    return PipelineConfig(
        frame_size=scenario.frame_size,
        sample_rate_hz=scenario.sample_rate_hz,
        bins=scenario.bins,
        tracker=tracker,
        warmup_frames=scenario.warmup_frames,
    )


def _run_proposed(chunks, config: PipelineConfig, frame_count: int):
    """Run one pipeline over ``frame_count`` frames in (rows, N) sample chunks; return (event
    rows, series columns). The series shows, per frame, the bin with the largest margin; each
    block writes its frames into stream-length columns, so no (frames, bins) array is kept."""
    pipeline = Pipeline(config)
    rms, feature, margin = np.empty((3, frame_count))
    event, rows = np.zeros(frame_count, np.int64), []
    for chunk in chunks:
        first = pipeline.frames_processed  # the chunk's first frame in the stream
        for block in pipeline.process_blocks(chunk):
            at, t = block.frame_indices, np.arange(len(block))
            pos = np.argmax(block.margins, axis=1)
            feature[at], margin[at] = block.magnitudes[t, pos], block.margins[t, pos]
            event[at] = block.events
            rows += _event_rows(block)
        rms[first : pipeline.frames_processed] = frame_rms(chunk)
        del chunk  # released before the next chunk is made
    series = {"frame": np.arange(frame_count, dtype=np.int64), "rms": rms, "feature": feature}
    series.update(threshold=feature - margin, margin=margin, event=event)
    return rows, series


def _event_row(frame: int, event: TriggerEvent) -> io.EventRow:
    return io.EventRow(frame, event.frame_delta, event.bin_id, event.strength, encode_event(event))


def _event_rows(block: BlockResult) -> list[io.EventRow]:
    """The rows of a block's fired frames."""
    return [_event_row(int(i), r) for i, r in zip(block.frame_indices, block.records) if r]


def _run_fixed(chunks, config: PipelineConfig, calib_frames: int, frame_count: int):
    """Calibrate on the stream's first ``calib_frames`` magnitude rows, taken from the detection
    core so that every row is checked, and decide the blocks held that far one by one; then
    stream every later chunk through the detector's process_blocks, which holds no magnitudes
    past a span."""
    if calib_frames < 1 or calib_frames > frame_count:
        raise ValueError("--calib-frames must be within the frame stream")
    chunks, pipeline, held = iter(chunks), Pipeline(config), []
    for chunk in chunks:  # breaks once calibrated: the later chunks stay in the iterator
        held += (block.magnitudes for block in pipeline.process_blocks(chunk))
        del chunk  # released before the next chunk is read
        if sum(map(len, held)) >= calib_frames:
            break
    try:
        thresholds = calibrate_fixed_thresholds(np.concatenate(held)[:calib_frames])
        detector = fixed_spectral_detector(config, thresholds)
    except ValueError as exc:
        raise ValueError(f"--calib-frames {calib_frames}: calibrated {exc}") from exc
    rows = []
    for mags in held:
        rows += _event_rows(detector.decide(mags))
    del held, mags, pipeline  # the calibration core too: one core at a time from here
    for chunk in chunks:
        for block in detector.process_blocks(chunk):
            rows += _event_rows(block)
        del chunk  # released before the next chunk is read
    return rows


def _run_decimated(chunks, decimation_factor: int):
    fired = np.flatnonzero(decimated_adaptive_detector(chunks, decimation_factor)).tolist()
    # Time-domain detector: no spectral bin to report, so bin and strength are 0.
    return [_event_row(t, TriggerEvent(t - last, 0, 0.0)) for t, last in zip(fired, [0] + fired)]


def _score_into(out_dir, event_frames, truth, **layout) -> dict:
    """Score events against truth (``layout`` as build_metrics takes it) and write
    metrics.json, confusion.csv and per_phase.csv; out_dir is made once the metrics are built."""
    metrics = build_metrics(event_frames, truth, **layout)
    out_dir = io.ensure_dir(out_dir)
    io.dump_json(out_dir / "metrics.json", metrics)
    io.write_table(out_dir / "confusion.csv", ("tp", "fp", "fn", "tn"), [metrics["confusion"]])
    if "per_phase" in metrics:
        io.write_table(out_dir / "per_phase.csv", PHASE_COLUMNS, metrics["per_phase"])
    return metrics


def _scenario_layout(scenario: ScenarioConfig) -> dict:
    """build_metrics' frame and phase layout of a scenario."""
    return {
        "total_frames": scenario.total_frames,
        "warmup_frames": scenario.warmup_frames,
        "phase_bounds": scenario.phase_bounds(),
        "monitored_bins": len(scenario.bins),
    }


def _print_metrics(metrics: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        cm = metrics["confusion"]
        print("metric,value")
        for key in ("tp", "fp", "fn", "tn"):
            print(f"{key},{cm[key]}")
        for key, value in sorted(metrics["derived"].items()):
            print(f"{key},{value}")


def _appended(writer: io.FrameWriter, chunks):
    """Each chunk in turn, once it is appended to the container being written."""
    for chunk in chunks:
        io.write_frames(writer, chunk)
        yield chunk
        del chunk  # released before the next chunk is made


def _generate_into(out_dir, scenario: ScenarioConfig, consume=functools.partial(deque, maxlen=0)):
    """Generate ``scenario`` into out_dir: frames.bin, truth.csv and scenario.json.

    Each chunk goes to ``consume`` (an iterator of chunks in, any result out)
    once it is appended to frames.bin; the default keeps none, so each chunk is released
    before the next one is made. Returns (truth, consume's result). The header is checked and
    the events are placed before out_dir is made, and if the stream fails the out_dir made
    here is removed.
    """
    io.pack_header(scenario.frame_size, scenario.sample_rate_hz, scenario.total_frames)
    stream = SyntheticStream(scenario)
    made = not Path(out_dir).exists()
    out_dir = io.ensure_dir(out_dir)
    try:
        with io.FrameWriter(
            out_dir / "frames.bin", scenario.frame_size, scenario.sample_rate_hz, scenario.total_frames
        ) as writer:
            result = consume(_appended(writer, stream.chunks()))
    except BaseException:
        if made:  # the writer removed frames.bin, so the out-dir is empty again
            out_dir.rmdir()
        raise
    io.write_truth(out_dir / "truth.csv", stream.truth)
    io.save_scenario(out_dir / "scenario.json", scenario)
    return stream.truth, result


def _write_detection(out_dir, config: PipelineConfig, rows, series=None) -> Path:
    """Write events.csv, series.csv (when given) and pipeline.json into out_dir."""
    out_dir = io.ensure_dir(out_dir)
    if series is not None:
        io.write_series(out_dir / "series.csv", series)
    io.write_events(out_dir / "events.csv", rows)
    io.save_pipeline_config(out_dir / "pipeline.json", config)
    return out_dir


def cmd_generate(args) -> int:
    scenario = io.load_scenario(args.config)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    truth, _ = _generate_into(args.out_dir, scenario)
    print(f"generated {scenario.total_frames} frames, {len(truth)} events -> {Path(args.out_dir)}")
    return 0


def _resolve_pipeline_config(args, frame_size: int, sample_rate_hz: float) -> PipelineConfig:
    if args.config is not None:
        config = io.load_pipeline_config(args.config)
    else:
        scenario = dataclasses.replace(replica_scenario(), sample_rate_hz=sample_rate_hz)
        if frame_size != scenario.frame_size:
            raise ValueError("frame size differs from the built-in defaults; pass --config")
        config = replica_pipeline_config(scenario)
    if args.tracker is not None:
        config = dataclasses.replace(config, tracker=args.tracker)
    return config


def cmd_detect(args) -> int:
    """Stream the container block by block through the detector; write only once all frames passed."""
    series = None
    with io.FrameReader(args.frames) as frames:
        config = _resolve_pipeline_config(args, frames.frame_size, frames.sample_rate_hz)
        if args.detector == "proposed":
            rows, series = _run_proposed(frames.chunks(), config, frames.frame_count)
        elif args.detector == "fixed":
            rows = _run_fixed(frames.chunks(), config, args.calib_frames, frames.frame_count)
        else:  # decimated, the parser's one other choice
            rows = _run_decimated(frames.chunks(), args.decimation)
    out_dir = _write_detection(args.out_dir, config, rows, series)
    print(f"detector={args.detector} events={len(rows)} -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    if args.series is not None and args.scenario is None:
        raise ValueError("--series needs --scenario: threshold statistics are taken per phase")
    events = io.read_events(args.events)
    truth = io.read_truth(args.truth)
    if args.scenario is not None:
        layout = _scenario_layout(io.load_scenario(args.scenario))
    elif args.total_frames is None:
        raise ValueError("pass --scenario or --total-frames")
    else:
        layout = {"total_frames": args.total_frames, "warmup_frames": args.warmup_frames}
    if args.series is not None:
        series = io.read_series(args.series)
        if "threshold" not in series:
            raise ValueError(f"{args.series}: no threshold column")
        layout["threshold_series"] = series["threshold"]
    metrics = _score_into(args.out_dir, [row.frame for row in events], truth, **layout)
    _print_metrics(metrics, args.format)
    return 0


def cmd_replica(args) -> int:
    """generate, detect (proposed) and eval into one out-dir, in one pass, plus report.json."""
    started = time.monotonic()
    scenario = replica_scenario(seed=args.seed)
    config = replica_pipeline_config(scenario, tracker=args.tracker)
    # One pass: each chunk goes to the detector once it is appended to frames.bin.
    truth, (rows, series) = _generate_into(
        args.out_dir, scenario, lambda chunks: _run_proposed(chunks, config, scenario.total_frames)
    )
    out_dir = _write_detection(args.out_dir, config, rows, series)
    layout = {**_scenario_layout(scenario), "threshold_series": series["threshold"]}
    metrics = _score_into(out_dir, [row.frame for row in rows], truth, **layout)
    report = {
        "config": {
            "scenario": io.scenario_to_dict(scenario),
            "pipeline": io.pipeline_config_to_dict(config),
            "detector": "proposed",
            "generator": GENERATOR_ID,
        },
        "metrics": metrics,
        "payload_comparison_bits": payload_comparison(),
        "files": {
            "frames": "frames.bin",
            "truth": "truth.csv",
            "events": "events.csv",
            "series": "series.csv",
            "metrics": "metrics.json",
        },
    }
    io.dump_json(out_dir / "report.json", report)

    _print_metrics(metrics, args.format)
    # Wall-clock time is reported here only; files stay byte-reproducible.
    elapsed = time.monotonic() - started
    print(f"replica seed={args.seed} runtime_seconds={elapsed:.3f} -> {out_dir}")
    return 0


@functools.cache  # built on the first main call, not at import; later calls reuse it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrig",
        description="Spectral event triggering with temporal noise-floor adaptation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="scenario config -> frames + ground truth")
    p_gen.add_argument("--config", required=True, help="scenario JSON file")
    p_gen.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_det = sub.add_parser("detect", help="frames + detector choice -> events")
    p_det.add_argument("--frames", required=True, help="frames.bin container")
    p_det.add_argument("--config", default=None, help="pipeline JSON file")
    p_det.add_argument("--detector", choices=("proposed", "fixed", "decimated"), default="proposed")
    p_det.add_argument("--tracker", choices=("median", "ema"), default=None)
    p_det.add_argument(
        "--calib-frames",
        type=int,
        default=500,
        help="fixed detector: leading frames used for mean+3*sigma calibration",
    )
    p_det.add_argument("--decimation", type=int, default=4, help="decimated detector: frame stride")
    p_det.add_argument("--out-dir", required=True)
    p_det.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="events + truth -> metrics")
    p_eval.add_argument("--events", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--scenario", default=None, help="scenario JSON for frame/phase layout")
    p_eval.add_argument("--series", default=None, help="series.csv for threshold statistics")
    p_eval.add_argument("--total-frames", type=int, default=None)
    p_eval.add_argument("--warmup-frames", type=int, default=0)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out-dir", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_rep = sub.add_parser("replica", help="one-shot three-phase experiment: generate + detect + eval")
    p_rep.add_argument("--seed", type=int, default=42)
    p_rep.add_argument("--tracker", choices=("median", "ema"), default="median")
    p_rep.add_argument("--format", choices=("json", "csv"), default="json")
    p_rep.add_argument("--out-dir", required=True)
    p_rep.set_defaults(func=cmd_replica)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite value is named by a check or is an inf by design
            return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
