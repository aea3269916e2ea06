"""The full three-phase experiment at desk scale.

Generates the 6,784-frame scenario (quiet / ramp-up / loud, 139 one-frame
events), runs the adaptive detector, and prints the confusion matrix,
derived rates, per-phase breakdown, and traffic tallies.
"""

import numpy as np

from spectrig import generate, replica_scenario, run_stream
from spectrig.cli import replica_pipeline_config
from spectrig.evaluation import build_metrics

scenario = replica_scenario(seed=42)
print(f"scenario: {scenario.total_frames} frames, seed {scenario.seed}")
for name, start, end in scenario.phase_bounds():
    print(f"  {name:<12} frames [{start:5d}, {end:5d})")

samples, truth = generate(scenario)
print(f"ground truth: {len(truth)} events")

config = replica_pipeline_config(scenario)
results = run_stream(config, samples)
fired = [r.frame_index for r in results if r.event]

# threshold trace: coefficient * floor at the bin closest to firing
threshold = np.array(
    [r.magnitudes[np.argmax(r.margins)] - np.max(r.margins) for r in results]
)
metrics = build_metrics(
    fired,
    truth,
    scenario.total_frames,
    scenario.warmup_frames,
    phase_bounds=scenario.phase_bounds(),
    threshold_series=threshold,
    monitored_bins=len(scenario.bins),
)

cm = metrics["confusion"]
print("\nconfusion matrix")
print(f"  TP {cm['tp']}   FP {cm['fp']}   FN {cm['fn']}   TN {cm['tn']}")

d = metrics["derived"]
print("derived rates")
for key in ("sensitivity", "specificity", "precision", "accuracy", "false_alarm_rate"):
    print(f"  {key:<17} {d[key]:.4f}")

print("\nphase          frames   events  detected  missed  FP   threshold range")
for p in metrics["per_phase"]:
    span = p["end_frame"] - p["start_frame"]
    print(
        f"{p['name']:<12} {span:8d} {p['true_events']:8d} {p['detected_events']:9d}"
        f" {p['missed_events']:7d} {p['false_positives']:3d}"
        f"   {p['threshold_min']:6.1f} - {p['threshold_max']:6.1f}"
    )

th = metrics["threshold"]
print(
    f"\nthreshold settled {th['settled_first_phase']:.1f} -> {th['settled_last_phase']:.1f}"
    f"  (adaptation ratio {th['adaptation_ratio']:.2f}x)"
)

tr = metrics["traffic"]
print("\ntraffic")
print(f"  events transmitted   {metrics['events_transmitted']}")
print(f"  data reduction       {100 * tr['data_reduction']:.1f}%")
print(f"  feature streaming    {tr['feature_stream_bits']:,} bits")
print(f"  trigger-only         {tr['trigger_stream_bits']:,} bits")
