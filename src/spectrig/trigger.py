"""Multiplicative threshold decisions and the compact event payload format."""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

PAYLOAD_BITS = 64
STRENGTH_SCALE = 256  # Q8.8 fixed point
MAX_FRAME_DELTA = 2**32 - 1
MAX_BIN_ID = 255
_STRENGTH_FIELD_MAX = 0xFFFF

_DELTA_SHIFT = 0
_BIN_SHIFT = 32
_STRENGTH_SHIFT = 40
_RESERVED_SHIFT = 56


@dataclass(frozen=True)
class ThresholdConfig:
    """Per-bin multiplicative threshold coefficients."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("at least one threshold coefficient is required")
        if any(not math.isfinite(c) or c < 1.0 for c in coeffs):
            raise ValueError("threshold coefficients must be finite and >= 1")
        if any(c > 2.0 for c in coeffs):
            warnings.warn(
                "threshold coefficient above 2 — outside the usual [1, 2] range",
                stacklevel=2,
            )
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def uniform(cls, coefficient: float, count: int) -> "ThresholdConfig":
        return cls(coefficients=(coefficient,) * count)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class TriggerEvent:
    """One emitted trigger: delta timestamp, firing bin, magnitude ratio."""

    frame_delta: int
    bin_id: int
    strength: float


def bins_over(magnitude, floor):
    """The per-bin rule, unchecked, on a floor already computed as coefficient * estimate:
    int8 1 where the magnitude strictly exceeds it."""
    return (magnitude > floor).view(np.int8)


def frames_fired(decisions):
    """The system rule, unchecked: int64 1 where any per-bin decision of a row fired."""
    return decisions.any(axis=-1).astype(np.int64)


def decide_bin(magnitude, estimate, coefficient):
    """Per-bin decision: 1 iff magnitude strictly exceeds coefficient * estimate.

    Arrays broadcast (a (T, M) block against M coefficients) to int8 decisions."""
    m, e, c = (np.asarray(v, dtype=np.float64) for v in (magnitude, estimate, coefficient))
    if not (np.isfinite(m).all() and np.isfinite(e).all() and np.isfinite(c).all()):
        raise ValueError("decision inputs must be finite")
    fired = bins_over(m, c * e)
    return int(fired) if fired.ndim == 0 else fired


def decide_event(decisions):
    """System-level decision: 1 iff any per-bin decision fired (per row of a block)."""
    decisions = np.asarray(decisions)
    if decisions.ndim == 0 or decisions.shape[-1] == 0:
        raise ValueError("decision vector must not be empty")
    fired = frames_fired(decisions)
    return int(fired) if fired.ndim == 0 else fired


def first_firing_bin(decisions) -> int | None:
    """Position of the lowest-index firing decision, or None."""
    fired = np.flatnonzero(decisions)
    return int(fired[0]) if fired.size else None


def encode_event(event: TriggerEvent) -> int:
    """Pack an event into the 64-bit wire payload.

    Layout (bit offsets within the little-endian 64-bit word):
      [0, 32)   frame_delta, unsigned
      [32, 40)  bin_id, unsigned
      [40, 56)  strength, unsigned Q8.8, saturating at 0xFFFF
      [56, 64)  reserved, zero
    """
    if not 0 <= event.frame_delta <= MAX_FRAME_DELTA:
        raise ValueError(f"frame_delta {event.frame_delta} out of range")
    if not 0 <= event.bin_id <= MAX_BIN_ID:
        raise ValueError(f"bin_id {event.bin_id} out of range")
    if event.strength < 0:
        raise ValueError("strength must be >= 0")
    # Compared before the multiply, which overflows to inf near the float maximum; NaN saturates.
    if event.strength <= _STRENGTH_FIELD_MAX / STRENGTH_SCALE:
        raw = int(round(event.strength * STRENGTH_SCALE))
    else:
        raw = _STRENGTH_FIELD_MAX
    return (
        (event.frame_delta << _DELTA_SHIFT)
        | (event.bin_id << _BIN_SHIFT)
        | (raw << _STRENGTH_SHIFT)
    )


def decode_event(payload: int) -> TriggerEvent:
    """Unpack a 64-bit payload produced by encode_event."""
    if not 0 <= payload < 2**PAYLOAD_BITS:
        raise ValueError("payload must fit in 64 bits")
    if (payload >> _RESERVED_SHIFT) & 0xFF:
        raise ValueError("reserved payload bits are set")
    frame_delta = (payload >> _DELTA_SHIFT) & 0xFFFFFFFF
    bin_id = (payload >> _BIN_SHIFT) & 0xFF
    raw = (payload >> _STRENGTH_SHIFT) & 0xFFFF
    return TriggerEvent(
        frame_delta=frame_delta, bin_id=bin_id, strength=raw / STRENGTH_SCALE
    )


def payload_to_bytes(payload: int) -> bytes:
    return struct.pack("<Q", payload)


def payload_from_bytes(data: bytes) -> int:
    if len(data) != 8:
        raise ValueError("payload must be exactly 8 bytes")
    return struct.unpack("<Q", data)[0]
