"""Spectral feature extraction: from raw samples to monitored-bin magnitudes.

Builds one frame containing a tone buried in noise, runs the radix-2
transform, and shows how the feature vector isolates the tone's bin.
"""

import numpy as np

from spectrig import BinSet, FftPlan, Frame, magnitude

rng = np.random.default_rng(0)

# A 128-sample frame at 1 kHz: bin k covers k * 1000/128 Hz.
N = 128
RATE = 1000.0
TONE_BIN = 21  # ~164 Hz
t = np.arange(N)
samples = 0.4 * rng.normal(size=N) + 2.0 * np.sin(2 * np.pi * TONE_BIN * t / N)
frame = Frame(samples=samples, frame_index=0, sample_rate_hz=RATE)

spectrum = FftPlan(N)(frame.samples)
print(f"frame of {frame.size} samples at {RATE:.0f} Hz")
print(f"tone injected at bin {TONE_BIN} ({TONE_BIN * RATE / N:.1f} Hz)")

# Monitor a handful of bins; only these ever reach the trigger logic.
bins = BinSet((3, 9, 14, 21, 27, 36, 44, 52))
mags = magnitude(spectrum, bins)

print("\nbin   freq_hz   magnitude")
for k, f_hz, mag in zip(bins, bins.frequencies_hz(N, RATE), mags):
    marker = "  <-- tone" if k == TONE_BIN else ""
    print(f"{k:3d}   {f_hz:7.1f}   {mag:9.2f}{marker}")

# The tone dominates: a sinusoid of amplitude A lands at magnitude A*N/2.
expected = 2.0 * N / 2
print(f"\nexpected tone magnitude A*N/2 = {expected:.1f}")
print(f"measured at bin {TONE_BIN}      = {mags[3]:.1f}")
