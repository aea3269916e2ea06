"""Noise-floor tracking: spike rejection and drift following, side by side.

Feeds the same magnitude stream to the dual-stage median cascade and the
EMA tracker: a steady floor, a huge single-frame spike, then a sustained
level shift. The cascade ignores the spike entirely and settles on the new
level within one window span; the EMA smears the spike into the baseline.
"""

from spectrig import EmaTracker, NoiseFloorState

FAST, SLOW = 3, 16
BIN = 0

stream = [10.0] * 60
stream[30] = 10_000.0          # single-frame artifact
stream += [25.0] * 40          # sustained level shift

cascade = NoiseFloorState([BIN], fast_window=FAST, slow_window=SLOW)
ema = EmaTracker([BIN], alpha=0.95)

print(f"median cascade: fast window {FAST}, slow window {SLOW}")
print("frame   input      cascade    ema")
for t, value in enumerate(stream):
    c = float(cascade.update_all([value])[0])
    e = float(ema.update_all([value])[0])
    if t in (0, 15, 29, 30, 31, 35, 59, 60, 65, 70, 79, 99):
        print(f"{t:5d}   {value:8.1f}   {c:8.2f}   {e:8.2f}")

print("\nat the spike (frame 30): the cascade never moves off 10.0,")
print("while the EMA absorbs part of the artifact and must decay back.")
print("after the shift to 25.0: the cascade reaches the new level exactly")
print(f"within fast+slow = {FAST + SLOW} frames; the EMA approaches it only")
print("asymptotically.")
