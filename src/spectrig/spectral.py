"""Frame-domain types and the spectral transform feeding the trigger chain."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_frame_format(size: int, sample_rate_hz: float) -> None:
    """Frames hold a power of two (>= 8) samples, for the radix-2 transform, at a rate > 0."""
    if size < 8 or not is_power_of_two(size):
        raise ValueError(f"frame size must be a power of two >= 8, got {size}")
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValueError(f"sample rate must be finite and positive, got {sample_rate_hz}")


BLOCK_SAMPLES = 8192  # the most values per array in the detection core; block rows = this // N
# Samples per chunk of a frame stream as it is generated, written and read: 2 MB of
# float64. A multiple of BLOCK_SAMPLES, so detector blocks never straddle a chunk.
CHUNK_SAMPLES = 1 << 18


def chunk_rows(frame_size: int) -> int:
    """Frames per chunk of a stream of ``frame_size``-sample frames (>= 1)."""
    return max(1, CHUNK_SAMPLES // frame_size)


def as_int(value, what: str = "an integer") -> int:
    """``value`` as an int, if it is an integer of any size or an integral float; any other
    value, a bool included, is a ValueError. Config fields and bin indices follow this rule."""
    integral = isinstance(value, Integral) or isinstance(value, Real) and float(value).is_integer()
    if integral and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected {what}, got {value!r:.40}")


def bin_indices(values) -> tuple[int, ...]:
    """Bin indices as ints; a fractional or non-finite value is rejected, not truncated."""
    return tuple(as_int(v, "integers for bin indices") for v in values)


@dataclass(frozen=True, eq=False)
class Frame:
    """One acquisition window of real-valued sensor samples.

    The sample count must be a power of two (>= 8) so the radix-2
    transform applies directly.
    """

    samples: np.ndarray
    frame_index: int
    sample_rate_hz: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("frame samples must be one-dimensional")
        check_frame_format(samples.size, self.sample_rate_hz)
        if not np.all(np.isfinite(samples)):
            raise ValueError("frame samples must all be finite")
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        object.__setattr__(self, "samples", samples)

    @property
    def size(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class BinSet:
    """Ordered, distinct frequency bin indices monitored by the trigger."""

    bins: tuple[int, ...]

    def __post_init__(self) -> None:
        bins = bin_indices(self.bins)
        if not bins:
            raise ValueError("at least one monitored bin is required")
        if bins[0] < 0:
            raise ValueError("bin indices must be non-negative")
        if any(b <= a for a, b in zip(bins, bins[1:])):
            raise ValueError("bin indices must be strictly increasing")
        object.__setattr__(self, "bins", bins)

    def __len__(self) -> int:
        return len(self.bins)

    def __iter__(self):
        return iter(self.bins)

    def __contains__(self, k) -> bool:
        return k in self.bins

    def validate_for(self, frame_size: int) -> None:
        """Check every index fits the one-sided spectrum of ``frame_size``."""
        if self.bins[-1] > frame_size // 2:
            raise ValueError(
                f"bin {self.bins[-1]} out of range for frame size {frame_size}"
            )

    def frequencies_hz(self, frame_size: int, sample_rate_hz: float) -> np.ndarray:
        """Center frequency of each monitored bin: k * f / frame_size."""
        return np.asarray(self.bins, dtype=np.float64) * sample_rate_hz / frame_size


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.intp)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _pruned_outputs(size: int, bins: tuple[int, ...]) -> list[int]:
    """The last stage's outputs: ``bins`` in order, then spares so that every pruned
    stage multiplies at least 3 values per row.

    numpy picks its complex multiply loop from the inner length it sees once
    unit axes are dropped: with one value per row, a single row gets the scalar
    loop and a block of rows a SIMD (FMA) loop, whose products differ in the
    last bit. With 3 or more, every row takes the loop the full transform takes.
    A spare k + N/2 shares every earlier stage's outputs with k; a spare
    k + N/4 adds one output to stage N/2 only.
    """
    outputs = list(bins)
    for spare in (size // 2, size // 4, 3 * size // 4):
        if len(outputs) >= 3 and len({k % (size // 2) for k in outputs}) >= 2:
            break
        if (outputs[0] + spare) % size not in outputs:
            outputs.append((outputs[0] + spare) % size)
    return outputs


class FftPlan:
    """Iterative radix-2 decimation-in-time transform for one frame size.

    Bit-reversal indices and per-stage twiddle factors are computed once at
    construction, so repeated calls do no trigonometry. The transform is the
    plain unscaled forward DFT: X[k] = sum_n x[n] * exp(-2j*pi*k*n/N).

    With ``bins``, the plan is output-pruned (Markel 1971; Sorensen and Burrus
    1993) and returns X only at those bins, in their order. Stage m needs, in
    every group, the outputs S_m = {b mod m}. Stages that need more than half
    of their outputs (the first ones need all) run as in the full transform;
    each later stage gathers its even and odd inputs at precomputed flat
    indices, multiplies the odd ones by a precomputed +-twiddle vector and
    adds. Twiddles and operations are the full transform's, so every value
    kept carries the same bits.
    """

    def __init__(self, size: int, bins=None):
        if size < 2 or not is_power_of_two(size):
            raise ValueError(f"transform size must be a power of two >= 2, got {size}")
        self.size = size
        self.bins = None if bins is None else bin_indices(bins)
        if bins is not None and (not self.bins or min(self.bins) < 0 or max(self.bins) >= size):
            raise ValueError(f"bins must be 1 or more indices in [0, {size}), got {self.bins}")
        self._reorder = _bit_reverse_indices(size)
        self._twiddles = []  # full stages
        self._pruned = []  # per pruned stage: (even then odd input indices, +-twiddles)
        outputs = None if self.bins is None else _pruned_outputs(size, self.bins)
        held = None  # per group, the outputs the previous pruned stage kept
        m = 2
        while m <= size:
            half, groups = m // 2, size // m
            w = np.exp(-2j * np.pi * np.arange(half) / m)
            needed = None if outputs is None else (
                outputs if m == size else sorted({k % m for k in outputs})
            )
            # Gathering more than a row would cost more than the butterflies it saves.
            # groups * len(needed) never grows with m, so the full stages come first.
            if needed is None or (m < size and 2 * groups * len(needed) > size):
                self._twiddles.append(w)
            else:
                kept = range(half) if held is None else held  # the previous stage's, per group
                at = {j: i for i, j in enumerate(kept)}
                even = (2 * len(kept) * np.arange(groups))[:, None] + [at[j % half] for j in needed]
                twiddles = [w[j % half] if j % m < half else -w[j % half] for j in needed]
                index = np.concatenate([even.ravel(), even.ravel() + len(kept)])
                if held is None and not self._twiddles:  # the first gather reverses the bits
                    index = self._reorder[index]
                self._pruned.append((index, np.tile(twiddles, groups)))
                held = needed
            m *= 2

    def __call__(self, samples) -> np.ndarray:
        """Spectrum of one frame, shape (N,), or of each row of a (T, N) block,
        bit-identical per row: no butterfly group straddles two rows. A plan
        with bins returns shape (M,) or (T, M). Only the output may hold more
        than BLOCK_SAMPLES values (or one row's): the early stages run on groups
        of BLOCK_SAMPLES // N rows, and the pruned stages from the first whose
        gathered pairs for all rows fit BLOCK_SAMPLES once on all rows."""
        x = np.asarray(samples)
        if x.ndim not in (1, 2) or x.shape[-1] != self.size:
            raise ValueError(f"expected {self.size} samples per frame, got shape {x.shape}")
        shape, rows = x.shape, x.reshape(-1, self.size)
        group, pruned = max(1, BLOCK_SAMPLES // self.size), self._pruned
        if len(rows) <= group:  # one group, as in every one-frame call: all stages at once
            x = self._butterflies(self._first(rows), pruned)
        else:
            # Stage 0 reads N values a row, more than the bound holds for more rows than a
            # group; each later stage reads no more values than it gathers.
            per_row = BLOCK_SAMPLES // len(rows)
            fits = (s for s in range(1, len(pruned)) if pruned[s][0].size <= per_row)
            tail = next(fits, len(pruned))
            heads = (self._first(rows[a : a + group]) for a in range(0, len(rows), group))
            x = np.concatenate([self._butterflies(head, pruned[:tail]) for head in heads])
            x = self._butterflies(x, pruned[tail:])
        if self.bins is None:
            return x.reshape(shape)
        return x[:, : len(self.bins)].reshape(shape[:-1] + (len(self.bins),))

    def _first(self, rows: np.ndarray) -> np.ndarray:
        """The rows, checked, through the full stages; with none, the real samples, which the
        first gather takes at bit-reversed indices and numpy multiplies and adds as x + 0j."""
        if not np.isfinite(rows).all():
            raise ValueError("samples must all be finite")
        if not self._twiddles:
            return rows
        x = np.take(rows, self._reorder, axis=1).astype(np.complex128)
        for w in self._twiddles:
            half = w.size
            x = x.reshape(-1, 2 * half)
            upper = x[:, :half].copy()
            lower = x[:, half:] * w
            x[:, :half] = upper + lower
            x[:, half:] = upper - lower
        return x.reshape(-1, self.size)

    def _butterflies(self, x: np.ndarray, stages) -> np.ndarray:
        """Pruned ``stages`` on the rows of ``x``: each gathers its pairs, then even + odd * w."""
        for index, w in stages:
            pairs = x.take(index, axis=1)
            x = pairs[:, : w.size] + pairs[:, w.size :] * w
        return x


@lru_cache(maxsize=32)
def _plan_for(size: int) -> FftPlan:
    return FftPlan(size)


def fft(frame: Frame) -> np.ndarray:
    """Complex spectrum of one frame (length N, unscaled)."""
    return _plan_for(frame.size)(frame.samples)


def magnitude(spectrum, bins: BinSet) -> np.ndarray:
    """sqrt(Re^2 + Im^2) at the monitored bins only: shape (M,), or (T, M) for a block
    of spectra; a non-finite value at a monitored bin is rejected."""
    spec = np.asarray(spectrum, dtype=np.complex128)
    bins.validate_for(spec.shape[-1])
    mags = np.abs(spec[..., np.asarray(bins.bins, dtype=np.intp)])
    if not np.isfinite(mags).all():
        raise ValueError("magnitudes must be finite")
    return mags
