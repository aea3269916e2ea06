"""Decision margins of the replica, across seeds and trackers.

At the replica's operating point TP=139, FP=0 holds for every seed and both trackers,
so its counts cannot tell a sound change from one that erodes the detector's margin.
Here each frame's ratio, the largest over its bins of magnitude / (coefficient *
estimate), is read from process_blocks for seeds 0-2, and two figures are bounded: the
lowest ratio at a detected event, and the highest at a frame after the warm-up that
did not fire. A frame fires where its ratio exceeds 1, so both figures measure the
distance from the threshold.
"""

import numpy as np
import pytest

from spectrig.cli import replica_pipeline_config
from spectrig.envsim import generate, replica_scenario
from spectrig.pipeline import Pipeline

# tracker: (the lowest event ratio's floor, the highest non-event ratio's ceiling). Measured
# over seeds 0-2 on numpy's default path and its baseline loops: median 3.267-3.296 and
# 0.791-0.794, EMA 2.411-2.502 and 0.761-0.768. Each bound leaves 5 % of the nearest figure.
BOUNDS = {"median": (3.10, 0.83), "ema": (2.29, 0.81)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tracker", ["median", "ema"])
def test_events_and_quiet_frames_keep_their_margins(tracker, seed):
    scenario = replica_scenario(seed)
    config = replica_pipeline_config(scenario, tracker=tracker)
    samples, _ = generate(scenario)
    blocks = list(Pipeline(config).process_blocks(samples))
    warmup = config.warmup_frames
    mags = np.concatenate([b.magnitudes for b in blocks])[warmup:]
    estimates = np.concatenate([b.estimates for b in blocks])[warmup:]
    fired = np.concatenate([b.events for b in blocks])[warmup:].astype(bool)
    ratios = (mags / (config.thresholds.as_array() * estimates)).max(axis=1)
    event_floor, quiet_ceiling = BOUNDS[tracker]
    assert fired.sum() == 139
    assert ratios[fired].min() > event_floor
    assert ratios[~fired].max() < quiet_ceiling
