"""spectrig benchmark: one workload per process, end-to-end or traced per layer.

Usage (from the repository root):
  python3 perfbench/run.py --workload replica --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Prints every metric by name and unit, then, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer self times from the traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
# numpy asks the kernel for 2 MB pages for large arrays; whether it gets them
# depends on the shared machine's memory state, and each page granted counts
# whole in the resident set (8-10 MB of them after one replica job). Read at
# numpy import, here and in the set-up probes.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 24


class Runner:
    """One benchmark run of one workload: inputs, jobs, streaming, checks."""

    def __init__(self, workload: workloads.Workload, seed: int, run_dir: Path):
        from spectrig import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.inputs = run_dir / "inputs"
        workloads.write_inputs(workload, seed, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.jobs = 0
        self.errors: list[str] = []

    def fresh_dir(self) -> Path:
        """A directory no earlier job wrote to; made before any timing starts."""
        self.jobs += 1
        out = self.run_dir / f"job{self.jobs:03d}"
        out.mkdir()
        return out

    def job(self, out: Path) -> float:
        """Run the workload's command sequence through `spectrig.cli.main`; seconds taken.

        A command that fails leaves no artifacts to check, so the run stops
        there with a failed check, after counting the failure.
        """
        commands = workloads.job_commands(self.workload, self.seed, self.inputs, out)
        gc.collect()  # earlier rounds' garbage is not collected inside the timed region
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes = [self.cli.main(argv) for argv in commands]
        elapsed = time.perf_counter() - start
        self.attempted += len(codes)
        self.failed += sum(code != 0 for code in codes)
        if any(codes):
            self.errors.append(err.getvalue().strip())
            raise checks.CheckFailed(f"job {self.jobs}: commands exited with codes {codes}")
        return elapsed

    def digest(self, out: Path) -> str:
        """Hash of a job's text artifacts, to confirm every repeat wrote the same bytes."""
        layout = workloads.artifact_layout(self.workload, out)
        h = hashlib.sha256()
        paths = [layout["truth"]] + [p for d in layout["detects"].values() for p in sorted(d.values())]
        for path in paths:
            h.update(path.read_bytes())
        return h.hexdigest()


class Streamer:
    """Feeds the workload's frames, one `Pipeline.process_frame` call each.

    Each pass over the stream starts a fresh Pipeline. A call to step()
    streams the next 1/CHUNKS of the stream, so that latency samples are
    spread over the whole measured window.
    """

    CHUNKS = 4

    def __init__(self, runner: Runner, frames_path: Path):
        import spectrig

        self.spectrig = spectrig
        self.runner = runner
        self.frames_path = frames_path
        self.total = runner.workload.total_frames
        self.chunk = -(-self.total // self.CHUNKS)
        self.position = 0
        self.passes = 0
        self.latencies: list[int] = []
        self.first_pass_events: list[int] = []

    def step(self) -> None:
        if self.position == 0:
            self.pipeline = workloads.build_pipeline(self.spectrig, self.runner.workload)
        count = min(self.chunk, self.total - self.position)
        samples = checks.read_samples(self.frames_path, self.position, count)
        rate = self.runner.workload.sample_rate_hz
        frames = [
            self.spectrig.Frame(samples=row, frame_index=self.position + i, sample_rate_hz=rate)
            for i, row in enumerate(samples)
        ]
        clock = time.perf_counter_ns
        runner, latencies, pipeline = self.runner, self.latencies, self.pipeline
        gc.collect()
        for frame in frames:
            runner.attempted += 1
            start = clock()
            try:
                result = pipeline.process_frame(frame)
            except (ValueError, KeyError) as exc:
                runner.failed += 1
                runner.errors.append(f"frame {frame.frame_index}: {exc}")
                continue
            latencies.append(clock() - start)
            if result.event and self.passes == 0:
                self.first_pass_events.append(result.frame_index)
        self.position += count
        if self.position == self.total:
            self.position = 0
            self.passes += 1

    def finish_pass(self) -> None:
        while self.position or not self.passes:
            self.step()


def setup_seconds(workload: str) -> float:
    """Seconds from a fresh interpreter to a ready detector, in one probe process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics.

    After an untimed warm-up job, each round times one job in a fresh
    directory, streams a share of the warm-up job's frames and times set-up
    in fresh interpreters, so all three sample the whole measured window.
    Set-up is probed in SETUP_PROBES fresh interpreters at even steps of the
    window, whatever the job length, and setup_s is the fastest of them: a
    slow spell of the shared machine can only lengthen a probe.
    A job's directory is removed, untimed, once the next job has run: its
    files are dropped before the kernel writes them back, so no job pays for
    an earlier job's disk traffic.
    """
    wl = runner.workload
    setup_seconds(wl.name)  # untimed: leaves the imports in the file cache
    first = runner.fresh_dir()
    runner.job(first)  # warm-up, untimed
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = runner.digest(first)
    streamer = Streamer(runner, workloads.artifact_layout(wl, first)["frames"])
    job_s, setups, previous = [], [], None
    started = time.perf_counter()
    while not job_s or time.perf_counter() - started < seconds:
        out = runner.fresh_dir()
        job_s.append(runner.job(out))
        if runner.digest(out) != reference:
            raise AssertionError(f"job {runner.jobs} wrote different artifacts than the warm-up job")
        if previous is not None:
            shutil.rmtree(previous)
        previous = out
        streamer.step()
        due = min(SETUP_PROBES, int(SETUP_PROBES * (time.perf_counter() - started) / seconds))
        while len(setups) < due:
            setups.append(setup_seconds(wl.name))
    streamer.finish_pass()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(wl.name))
    layout = workloads.artifact_layout(wl, out)
    summary = checks.check_job(wl, layout)
    batch = [int(r["frame"]) for r in checks.read_rows(layout["detects"][wl.detects[0][0]]["events"])]
    if streamer.first_pass_events != batch:
        raise AssertionError("streamed Pipeline.process_frame events differ from the batch detect events")
    job_median = statistics.median(job_s)
    latencies = sorted(streamer.latencies)
    p50 = statistics.median(latencies) / 1000.0
    p99 = latencies[int(0.99 * (len(latencies) - 1))] / 1000.0
    metrics = {
        "setup_s": (min(setups), "s"),
        "job_fps": (wl.total_frames / job_median, "frames/s"),
        "frame_p50_us": (p50, "us"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = {
        "job_s": job_median,
        "jobs_timed": len(job_s),
        "job_s_each": [round(t, 4) for t in job_s],
        "frame_p99_us": p99,
        "frames_streamed": len(latencies),
        "setup_probes_s": [round(t, 4) for t in setups],
        "checks": summary,
    }
    return metrics, info


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Traced run: per-layer self time, alternating traced and untraced jobs.

    The wrapper cost is calibrated after every traced job and the cheapest
    calibration is used: one taken in a slow spell of the machine would
    subtract more than the wrappers cost.
    """
    import numpy as np

    wl = runner.workload
    costs = [tracing.calibrate()]
    tracer = tracing.Tracer()
    first = runner.fresh_dir()
    runner.job(first)  # warm-up, untimed
    reference = runner.digest(first)
    plain_s, traced_s, per_rep = [], [], []
    previous = first
    started = time.perf_counter()
    while not traced_s or time.perf_counter() - started < seconds:
        plain = runner.fresh_dir()
        plain_s.append(runner.job(plain))
        shutil.rmtree(plain)
        out = runner.fresh_dir()
        tracer.install()
        try:
            traced_s.append(runner.job(out))
        finally:
            tracer.uninstall()
        if runner.digest(out) != reference:
            raise AssertionError(f"traced job {runner.jobs} wrote different artifacts than the warm-up job")
        shutil.rmtree(previous)
        previous = out
        spans = tracer.spans()
        per_rep.append(tracing.layer_totals(tracer, spans))
        costs.append(tracing.calibrate())
    cost = (min(inside for inside, _ in costs), min(outside for _, outside in costs))
    self_ns = [{metric: tracing.self_ns(totals, cost) for metric, totals in rep.items()} for rep in per_rep]
    sums = [sum(rep.values()) / 1e9 for rep in self_ns]
    summary = checks.check_job(wl, workloads.artifact_layout(wl, out))
    metrics = {}
    for metric in tracing.LAYERS:
        if metric in tracer.absent:
            continue
        if metric in tracing.PER_EVENT:
            values = [ns[metric] / 1000.0 / max(totals[metric][1], 1) for ns, totals in zip(self_ns, per_rep)]
            metrics[metric] = (statistics.median(values), "us/event")
        else:
            values = [ns[metric] / 1000.0 / wl.total_frames for ns in self_ns]
            metrics[metric] = (statistics.median(values), "us/frame")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{wl.name}-seed{runner.seed}.npz"
    np.savez_compressed(trace_path, names=np.array(tracer.names), **spans)
    plain, traced = statistics.median(plain_s), statistics.median(traced_s)
    info = {
        "untraced_job_s": plain,
        "traced_job_s": traced,
        "tracing_overhead_s": traced - plain,
        "layer_sum_s": statistics.median(sums),
        "layer_sum_vs_untraced": statistics.median(sums) / plain - 1.0,
        "wrapper_cost_ns": {"inside": cost[0], "outside": cost[1]},
        "spans_per_job": int(spans["name_id"].size),
        "jobs_timed": len(traced_s),
        "absent": tracer.absent,
        "missing_targets": tracer.missing,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "checks": summary,
    }
    return metrics, info


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import spectrig

    if Path(spectrig.__file__).resolve().parent != (SRC / "spectrig").resolve():
        print(f"error: imported spectrig from {spectrig.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir()
    correct = True
    try:
        runner = Runner(workload, args.seed, run_dir)
        try:
            if args.trace:
                metrics, info = measure_traced(runner, args.seconds)
            else:
                metrics, info = measure(runner, args.seconds)
        except AssertionError as exc:  # includes checks.CheckFailed
            print(f"check failed: {exc}", file=sys.stderr)
            correct, metrics, info = False, {}, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for error in runner.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"frames={workload.total_frames} commands/job={workload.commands_per_job}")
    for key, value in info.items():
        print(f"  {key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result line.

    A workload that ends without a result line makes the combined result
    incorrect; the workloads after it still run.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectrig" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'spectrig'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
