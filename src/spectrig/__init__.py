"""Spectral event triggering with temporal noise-floor adaptation.

Library layout:
  spectral    frame/bin types and the radix-2 transform
  noisefloor  dual-stage cascaded median tracker (and an EMA variant)
  trigger     multiplicative threshold decisions and the 64-bit payload
  pipeline    block-wise detector, latency and memory accounting
  envsim      deterministic three-phase scenario generator + ground truth
  baselines   fixed-threshold and decimated comparison detectors
  evaluation  confusion scoring, traffic and payload metrics, the metrics document
  io          file formats (frame container, CSV logs, JSON configs)
  cli         generate / detect / eval / replica subcommands
"""

import types

from .baselines import (
    calibrate_fixed_thresholds,
    decimated_adaptive_detector,
    fixed_spectral_detector,
)
from .envsim import (
    EventInterval,
    EventSpec,
    GroundTruth,
    PhaseSpec,
    Ramp,
    ScenarioConfig,
    SyntheticStream,
    generate,
    replica_scenario,
)
from .evaluation import (
    ConfusionMatrix,
    amplification,
    derive_metrics,
    payload_comparison,
    per_phase_scores,
    score,
    threshold_adaptation,
    traffic_stats,
)
from .noisefloor import EmaTracker, NoiseFloorState
from .pipeline import (
    FrameResult,
    Pipeline,
    PipelineConfig,
    latency_budget,
    run_stream,
    state_entry_count,
    state_memory_bytes,
)
from .spectral import BinSet, FftPlan, Frame, RealPlan, magnitude
from .trigger import (
    PAYLOAD_BITS,
    ThresholdConfig,
    TriggerEvent,
    decode_event,
    encode_event,
    first_firing_bin,
    payload_from_bytes,
    payload_to_bytes,
)

__version__ = "0.1.0"

# The public names imported above; modules (the submodules and `types`) are left out.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
