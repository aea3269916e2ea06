"""Spans around the calls into each module's public functions, and per-layer self time.

The tracer replaces each wrapped function or method, for as long as it is
installed, by a wrapper that records one span: name, start, end and parent.
Nothing under the program's source tree is edited; references that other
program modules imported by name (``from .envsim import generate``) are
replaced as well. Spans are kept in flat arrays in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# Layer metric -> the public functions whose self time it sums, as
# (module, attribute path). cli.self_us is the self time of each
# `spectrig.cli.main` call: the job time no other layer covers.
LAYERS = {
    "envsim.generate_us": [("spectrig.envsim", "generate")],
    "io.write_frames_us": [("spectrig.io", "write_frames")],
    "io.read_frames_us": [("spectrig.io", "read_frames")],
    "io.write_series_us": [("spectrig.io", "write_series")],
    "io.write_events_us": [("spectrig.io", "write_events")],
    "spectral.transform_us": [("spectrig.spectral", "FftPlan.__call__")],
    "spectral.magnitude_us": [("spectrig.spectral", "magnitude")],
    "noisefloor.median_us": [("spectrig.noisefloor", "NoiseFloorState.update_all")],
    "noisefloor.ema_us": [("spectrig.noisefloor", "EmaTracker.update_all")],
    "trigger.decide_us": [
        ("spectrig.trigger", "decide_bin"),
        ("spectrig.trigger", "decide_event"),
        ("spectrig.trigger", "first_firing_bin"),
    ],
    "trigger.encode_us_per_event": [("spectrig.trigger", "encode_event")],
    "pipeline.self_us": [("spectrig.pipeline", "Pipeline.process_frame")],
    "baselines.fixed_us": [
        ("spectrig.baselines", "calibrate_fixed_thresholds"),
        ("spectrig.baselines", "fixed_spectral_detector"),
    ],
    "baselines.decimated_us": [("spectrig.baselines", "decimated_adaptive_detector")],
    "evaluation.score_us": [
        ("spectrig.evaluation", name)
        for name in (
            "score", "derive_metrics", "per_phase_scores", "traffic_stats",
            "threshold_adaptation", "payload_comparison",
        )
    ],
    "cli.self_us": [("spectrig.cli", "main")],
}
PER_EVENT = {"trigger.encode_us_per_event"}


class Tracer:
    """Installs span-recording wrappers; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.metric_of_name: dict[str, str] = {}
        self.absent: list[str] = []
        self.missing: list[str] = []
        self._patches = []  # (owner, attribute, original)
        self.clear()

    def clear(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]

    def _wrap(self, name_id: int, fn):
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; missing ones make their layer absent."""
        self.clear()
        programs = [m for n, m in sys.modules.items() if n == "spectrig" or n.startswith("spectrig.")]
        for metric, targets in LAYERS.items():
            found = 0
            for module_name, path in targets:
                try:
                    owner = importlib.import_module(module_name)
                    *outer, attribute = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, attribute)
                except (ImportError, AttributeError):
                    if f"{module_name}.{path}" not in self.missing:
                        self.missing.append(f"{module_name}.{path}")
                    continue
                found += 1
                name = f"{module_name}.{path}"
                self.metric_of_name[name] = metric
                if name not in self.names:
                    self.names.append(name)
                wrapper = self._wrap(self.names.index(name), original)
                if outer:
                    self._patch(owner, attribute, original, wrapper)
                else:
                    for module in programs:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, original, wrapper)
            if found == 0 and metric not in self.absent:
                self.absent.append(metric)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def spans(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
        }


def calibrate(repeats: int = 20000) -> tuple[float, float]:
    """Wrapper cost in ns per span: (inside the span, outside it in the parent).

    Times a no-op function bare and wrapped. The recorded span of the no-op
    minus its bare call time is the cost the span itself carries; the rest of
    the wrapped call time lands in the caller's self time. The no-op takes
    three positional arguments, like `trigger.decide_bin`, the most frequent
    span, because packing them into the wrapper's *args costs time too.
    """
    tracer = Tracer()

    def noop(a, b, c):
        return None

    clock = time.perf_counter_ns
    best_bare = best_wrapped = float("inf")
    best_inside = float("inf")
    for _ in range(5):
        tracer.clear()
        wrapped = tracer._wrap(0, noop)
        start = clock()
        for _ in range(repeats):
            noop(1.0, 2.0, 3.0)
        best_bare = min(best_bare, (clock() - start) / repeats)
        start = clock()
        for _ in range(repeats):
            wrapped(1.0, 2.0, 3.0)
        best_wrapped = min(best_wrapped, (clock() - start) / repeats)
        spans = tracer.spans()
        best_inside = min(best_inside, float(np.mean(spans["end_ns"] - spans["start_ns"])))
    inside = max(best_inside - best_bare, 0.0)
    outside = max(best_wrapped - best_inside, 0.0)
    return inside, outside


def layer_totals(tracer: Tracer, spans: dict) -> dict[str, np.ndarray]:
    """Per layer metric: [self time in ns with wrapper cost left in, spans, direct children].

    A span's self time is its duration minus the durations of its direct
    children (the run is single-threaded, so children never overlap). The
    counts let self_ns remove the wrapper cost once it is calibrated.
    """
    duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    child_count = np.bincount(parent[has_parent], minlength=duration.size)
    names = len(tracer.names)
    raw = np.bincount(spans["name_id"], weights=duration - child_time, minlength=names)
    count = np.bincount(spans["name_id"], minlength=names)
    children = np.bincount(spans["name_id"], weights=child_count, minlength=names)
    result = {metric: np.zeros(3) for metric in LAYERS if metric not in tracer.absent}
    for name_id, name in enumerate(tracer.names):
        result[tracer.metric_of_name[name]] += (raw[name_id], count[name_id], children[name_id])
    return result


def self_ns(totals: np.ndarray, cost: tuple[float, float]) -> float:
    """A layer's self time in ns: each span's own wrapper cost and the cost
    its children's wrappers left in it are subtracted."""
    raw, count, children = totals
    inside, outside = cost
    return float(raw - inside * count - outside * children)
