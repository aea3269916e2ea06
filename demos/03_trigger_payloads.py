"""Trigger decisions and the 64-bit event payload, bit by bit.

Walks the multiplicative threshold test over a few magnitude/floor pairs,
then packs a trigger into its wire payload and unpacks it again.
"""

import numpy as np

from spectrig import TriggerEvent, decode_event, encode_event, payload_to_bytes
from spectrig.trigger import bins_over, frames_fired

COEFFICIENT = 1.5

print(f"multiplicative test: fire iff magnitude > {COEFFICIENT} * floor\n")
# Five bins of one frame: magnitudes and floor estimates.
mags = np.array([16.0, 15.0, 14.9, 3.2, 0.0])
floors = np.array([10.0, 10.0, 10.0, 2.0, 0.0])
decisions = bins_over(mags, COEFFICIENT * floors)
print("magnitude   floor   threshold   decision")
for mag, floor, d in zip(mags, floors, decisions):
    print(f"{mag:9.1f}   {floor:5.1f}   {COEFFICIENT * floor:9.2f}   {d}")

print(f"\nsystem event (OR over bins): {frames_fired(decisions)}")

# Wire format: 32-bit frame delta | 8-bit bin | 16-bit Q8.8 strength | 8 reserved
event = TriggerEvent(frame_delta=217, bin_id=21, strength=16.0 / 10.0)
payload = encode_event(event)
print(f"\nevent: {event}")
print(f"payload: 0x{payload:016x}  ({payload_to_bytes(payload).hex()} little-endian)")
print(f"  frame_delta field: {payload & 0xFFFFFFFF}")
print(f"  bin field:         {(payload >> 32) & 0xFF}")
print(f"  strength field:    0x{(payload >> 40) & 0xFFFF:04x} (Q8.8 -> {((payload >> 40) & 0xFFFF) / 256})")

restored = decode_event(payload)
print(f"decoded: {restored}")
print(f"\nstrength survives to within 1/256 = {1 / 256:.4f}")
print("one event costs 64 bits; streaming a 16-bin feature vector at 16-bit")
print("resolution costs 256 bits per frame, every frame.")
