"""Decision rule semantics and bit-exact payload golden vectors."""

import itertools
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectrig.trigger import (
    MAX_BIN_ID,
    MAX_FRAME_DELTA,
    PAYLOAD_BITS,
    ThresholdConfig,
    TriggerEvent,
    decide_bin,
    decide_event,
    decode_event,
    encode_event,
    first_firing_bin,
    payload_from_bytes,
    payload_to_bytes,
)


class TestDecideBin:
    def test_fires_above_threshold(self):
        assert decide_bin(16.0, 10.0, 1.5) == 1

    def test_strict_inequality_at_boundary(self):
        assert decide_bin(15.0, 10.0, 1.5) == 0

    def test_zero_floor_zero_magnitude(self):
        assert decide_bin(0.0, 0.0, 1.5) == 0
        assert decide_bin(0.0, 0.0, 1.0) == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decide_bin(float("nan"), 1.0, 1.5)
        with pytest.raises(ValueError):
            decide_bin(1.0, float("inf"), 1.5)

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, magnitude, estimate, coefficient, scale):
        base = decide_bin(magnitude, estimate, coefficient)
        scaled = decide_bin(magnitude * scale, estimate * scale, coefficient)
        # Strict scale invariance holds when rounding does not graze the boundary.
        if abs(magnitude - coefficient * estimate) > 1e-9 * (1 + magnitude):
            assert base == scaled

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_monotone_in_magnitude(self, estimate, low, high):
        low, high = min(low, high), max(low, high)
        assert decide_bin(low, estimate, 1.5) <= decide_bin(high, estimate, 1.5)


class TestBlockDecisions:
    def test_block_decisions_match_scalar_calls(self):
        rng = np.random.default_rng(8)
        mags = rng.uniform(0.0, 30.0, size=(50, 6))
        estimates = rng.uniform(0.0, 20.0, size=(50, 6))
        coefficients = np.array([1.0, 1.25, 1.5, 1.5, 1.75, 2.0])
        mags[7, 2] = 1.5 * estimates[7, 2]  # exactly on the threshold: not strictly above
        decisions = decide_bin(mags, estimates, coefficients)
        assert decisions.shape == (50, 6)
        expected = [
            [decide_bin(m, e, c) for m, e, c in zip(mags[t], estimates[t], coefficients)]
            for t in range(50)
        ]
        assert decisions.tolist() == expected
        assert decisions[7, 2] == 0
        assert decide_event(decisions).tolist() == [decide_event(row) for row in expected]

    def test_block_rejects_non_finite(self):
        estimates = np.ones((3, 2))
        estimates[1, 0] = np.inf
        with pytest.raises(ValueError):
            decide_bin(np.ones((3, 2)), estimates, np.ones(2))

    def test_empty_block_has_no_events(self):
        assert decide_event(np.zeros((0, 4), dtype=np.int8)).shape == (0,)


class TestDecideEvent:
    def test_trivial_vectors(self):
        assert decide_event([0, 0, 0]) == 0
        assert decide_event([0, 1, 0]) == 1
        assert decide_event([1, 1, 1]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decide_event([])

    @pytest.mark.parametrize("width", range(1, 9))
    def test_exhaustive_or_equivalence(self, width):
        for pattern in itertools.product((0, 1), repeat=width):
            assert decide_event(pattern) == (1 if any(pattern) else 0)
            expected_first = next((i for i, d in enumerate(pattern) if d), None)
            assert first_firing_bin(pattern) == expected_first


class TestThresholdConfig:
    def test_default_range_ok(self):
        config = ThresholdConfig.uniform(1.5, 4)
        assert config.as_array().tolist() == [1.5] * 4

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            ThresholdConfig((0.9,))

    def test_warns_above_two(self):
        with pytest.warns(UserWarning):
            ThresholdConfig((2.5,))


class TestPayload:
    def test_golden_all_zero(self):
        assert encode_event(TriggerEvent(0, 0, 0.0)) == 0x0000000000000000

    def test_golden_hand_assembled(self):
        # delta=1 in [0,32), bin=2 in [32,40), strength 1.5 -> Q8.8 0x0180 in [40,56)
        payload = encode_event(TriggerEvent(frame_delta=1, bin_id=2, strength=1.5))
        assert payload == 0x0001_8002_0000_0001

    def test_golden_saturation(self):
        payload = encode_event(TriggerEvent(frame_delta=0, bin_id=0, strength=1000.0))
        assert (payload >> 40) & 0xFFFF == 0xFFFF
        assert payload == 0xFFFF << 40

    def test_golden_wide_fields(self):
        payload = encode_event(
            TriggerEvent(frame_delta=0xDEADBEEF, bin_id=0xAB, strength=2.5)
        )
        assert payload == 0x0002_80AB_DEAD_BEEF

    def test_decode_golden(self):
        event = decode_event(0x0001_8002_0000_0001)
        assert event == TriggerEvent(frame_delta=1, bin_id=2, strength=1.5)

    def test_infinite_strength_saturates(self):
        payload = encode_event(TriggerEvent(0, 0, math.inf))
        assert decode_event(payload).strength == 0xFFFF / 256

    @pytest.mark.parametrize("strength", [1e306, sys.float_info.max])
    def test_huge_finite_strength_saturates(self, strength):
        """Strength * 256 overflows to inf here; the field saturates all the same."""
        assert encode_event(TriggerEvent(0, 0, strength)) == 0xFFFF << 40

    @given(
        st.integers(min_value=0, max_value=MAX_FRAME_DELTA),
        st.integers(min_value=0, max_value=MAX_BIN_ID),
        st.floats(min_value=0.0, max_value=255.9),
    )
    def test_round_trip(self, delta, bin_id, strength):
        decoded = decode_event(encode_event(TriggerEvent(delta, bin_id, strength)))
        assert decoded.frame_delta == delta
        assert decoded.bin_id == bin_id
        assert abs(decoded.strength - strength) <= 1.0 / 256

    def test_payload_fits_64_bits(self):
        payload = encode_event(
            TriggerEvent(MAX_FRAME_DELTA, MAX_BIN_ID, 300.0)
        )
        assert 0 <= payload < 2**PAYLOAD_BITS
        assert len(payload_to_bytes(payload)) == 8

    def test_bytes_round_trip_little_endian(self):
        payload = encode_event(TriggerEvent(1, 2, 1.5))
        raw = payload_to_bytes(payload)
        assert raw == struct.pack("<Q", 0x0001_8002_0000_0001)
        assert payload_from_bytes(raw) == payload

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_event(TriggerEvent(2**32, 0, 1.0))
        with pytest.raises(ValueError):
            encode_event(TriggerEvent(0, 256, 1.0))
        with pytest.raises(ValueError):
            encode_event(TriggerEvent(-1, 0, 1.0))
        with pytest.raises(ValueError):
            encode_event(TriggerEvent(0, 0, -0.5))

    def test_decode_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            decode_event(2**64)
        with pytest.raises(ValueError):
            decode_event(1 << 56)  # reserved byte set
        with pytest.raises(ValueError):
            payload_from_bytes(b"\x00" * 7)
