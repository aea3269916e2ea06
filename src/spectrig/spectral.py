"""Frame-domain types and the spectral transform feeding the trigger chain."""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _pruned_outputs(size: int, bins: tuple[int, ...]) -> list[int]:
    """The last stage's outputs: ``bins`` once each, in order, then spares so that
    every pruned stage multiplies at least 3 values per row.

    numpy picks its complex multiply loop from the inner length it sees once
    unit axes are dropped: with one value per row, a single row gets the scalar
    loop and a block of rows a SIMD (FMA) loop, whose products differ in the
    last bit. With 3 or more, every row takes the loop the full transform takes.
    A spare k + N/2 shares every earlier stage's outputs with k; a spare
    k + N/4 adds one output to stage N/2 only.
    """
    outputs = list(dict.fromkeys(bins))
    for spare in (size // 2, size // 4, 3 * size // 4):
        if len(outputs) >= 3 and len({k % (size // 2) for k in outputs}) >= 2:
            break
        if (outputs[0] + spare) % size not in outputs:
            outputs.append((outputs[0] + spare) % size)
    return outputs


class FftPlan:
    """Iterative radix-2 decimation-in-time transform for one frame size.

    Per-stage twiddle factors and gather indices are computed once at
    construction, so repeated calls do no trigonometry. The transform is the
    plain unscaled forward DFT: X[k] = sum_n x[n] * exp(-2j*pi*k*n/N).

    With ``bins``, the plan is output-pruned (Markel 1971; Sorensen and Burrus
    1993) and returns X only at those bins, in their order. Stage m needs the
    outputs S_m = {b mod m} of every residue. Stages that need more than half
    of their outputs (the first ones need all) run as in the full transform.
    Each later stage runs in the same self-sorting order, with rows innermost:
    its values form an (outputs x residues, rows) array, so it gathers its even
    and odd inputs as whole runs of residues x rows values, then multiplies
    and adds over one contiguous vector, against its +-twiddles tiled to match.
    The first pruned stage reads the samples or the full stages' output in
    place, so no stage reverses bits. Twiddles and operations are the full
    transform's, so every value kept carries the same bits. Each distinct
    output is computed once; a repeated bin is copied at the end.
    """

    def __init__(self, size: int, bins=None):
        if size < 2 or not is_power_of_two(size):
            raise ValueError(f"transform size must be a power of two >= 2, got {size}")
        self.size = size
        self.bins = None if bins is None else bin_indices(bins)
        if bins is not None and (not self.bins or min(self.bins) < 0 or max(self.bins) >= size):
            raise ValueError(f"bins must be 1 or more indices in [0, {size}), got {self.bins}")
        self._twiddles = []  # full stages
        self._pruned = []  # per pruned stage: (even then odd run indices, +-twiddles per run)
        outputs = None if self.bins is None else _pruned_outputs(size, self.bins)
        if outputs is not None:  # the last stage's output row of each bin
            row = {k: i for i, k in enumerate(outputs)}
            self._order = np.array([row[b] for b in self.bins])
        held = None  # the outputs the previous pruned stage kept
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
                self._twiddles.append(w[:, None])
            else:
                kept = range(half) if held is None else held  # the previous stage's outputs
                position = {j: i for i, j in enumerate(kept)}
                at = np.array([position[j % half] for j in needed])
                twiddles = [w[j % half] if j % m < half else -w[j % half] for j in needed]
                if held is None and 4 * groups <= half:  # full stages stored positions innermost:
                    residues = np.arange(2 * groups).reshape(2, 1, groups)  # (i, r) at r * half + i
                    index, run = (residues * half + at[:, None]).ravel(), 1
                else:  # (i, r) at i * 2 * groups + r: runs 2i and 2i + 1 hold its even and odd halves
                    index, run = np.concatenate([2 * at, 2 * at + 1]), groups
                tiled = np.repeat(twiddles, groups).reshape(len(index) // 2, run)
                if np.array_equal(index, np.arange(size // run if held is None else 2 * len(held))):
                    index = None  # the gather would copy its input whole
                self._pruned.append((index, tiled))
                held = needed
            m *= 2

    def __call__(self, samples) -> np.ndarray:
        """Spectrum of one frame, shape (N,), or of each row of a (T, N) block,
        bit-identical per row: no butterfly group straddles two rows. A plan
        with bins returns shape (M,) or (T, M). Only the output may hold more
        than BLOCK_SAMPLES values (or one row's): the early stages run on groups
        of BLOCK_SAMPLES // N rows, and the pruned stages from the first whose
        gathered pairs for all rows fit BLOCK_SAMPLES once on all rows. A call
        tiles each stage's twiddles once per row count it runs the stage on and
        drops them on return, so the plan keeps nothing that grows with rows."""
        x = np.asarray(samples)
        if x.ndim not in (1, 2) or x.shape[-1] != self.size:
            raise ValueError(f"expected {self.size} samples per frame, got shape {x.shape}")
        shape, rows = x.shape, x.reshape(-1, self.size)
        group, pruned, tiles = max(1, BLOCK_SAMPLES // self.size), self._pruned, {}
        if len(rows) <= group:  # one group, as in every one-frame call: all stages at once
            x = self._butterflies(self._first(rows), 0, len(pruned), tiles)
        else:
            # Stage 0 reads N values a row, more than the bound holds for more rows than a
            # group; each later stage reads no more values than it gathers.
            per_row = BLOCK_SAMPLES // len(rows)
            fits = (s for s in range(1, len(pruned)) if 2 * pruned[s][1].size <= per_row)
            tail = next(fits, len(pruned))
            heads = (self._first(rows[a : a + group]) for a in range(0, len(rows), group))
            x = [self._butterflies(head, 0, tail, tiles) for head in heads]
            x = self._butterflies(np.concatenate(x, axis=1 if pruned else 0), tail, len(pruned), tiles)
        if self.bins is None:
            return x.reshape(shape)
        return x.take(self._order, axis=0).T.reshape(shape[:-1] + (len(self.bins),))

    def _first(self, rows: np.ndarray) -> np.ndarray:
        """The rows, checked, through the full stages; with none, the samples, which the first
        pruned stage reads in their order and numpy multiplies and adds as x + 0j if real.

        The full stages are self-sorting (Stockham): after stage m, x[:, k, r] is value k of
        the m-point DFT of samples r, r + N/m, ...; stage m takes residues r and r + N/m as
        its upper and lower halves, with the in-place transform's values, twiddles and
        operations, so every value keeps its bits. A stage's output is stored residues
        innermost while they outnumber its half, then positions innermost."""
        # Complex rows are checked as their float64 parts: half the cost of complex isfinite.
        as_parts = rows.dtype == np.complex128 and rows.strides[-1] == 16
        if not np.isfinite(rows.view(np.float64) if as_parts else rows).all():
            raise ValueError("samples must all be finite")
        if not self._twiddles:
            return rows
        x = np.asarray(rows, np.complex128)[:, None, :]
        for w in self._twiddles:
            half, groups = len(w), self.size // (2 * len(w))
            upper, lower = x[:, :, :groups], x[:, :, groups:]
            if half > 1:  # stage 2's twiddle is 1: x * (1 + 0j) is x, but for a zero's sign
                lower = lower * w
            if groups > half:
                x = store = np.empty((len(rows), 2 * half, groups), np.complex128)
            else:
                store = np.empty((len(rows), groups, 2 * half), np.complex128)
                x = store.transpose(0, 2, 1)
            np.add(upper, lower, x[:, :half])
            np.subtract(upper, lower, x[:, half:])
        return store.reshape(-1, self.size)

    def _butterflies(self, x: np.ndarray, first: int, stop: int, tiles: dict) -> np.ndarray:
        """Pruned stages first ... stop - 1: on _first's (rows, N) output if first is 0, else
        on stage first - 1's (values, rows) output. Each stage gathers its even then its odd
        runs and computes even + odd * w, each over one contiguous vector. The indices are in
        range by construction; mode="wrap" skips numpy's bounds check."""
        if first == stop:
            return x
        if first == 0:  # rows innermost from here: the first gather copies (N, rows) runs
            x = x.T
        rows = x.shape[1]
        for s in range(first, stop):
            index, w = self._pruned[s]
            x = x.reshape(-1, w.shape[1] * rows)
            pairs = x if index is None else x.take(index, axis=0, mode="wrap")
            tile = w if rows == 1 else tiles.get((s, rows))
            if tile is None:
                tile = tiles[s, rows] = np.repeat(w, rows, axis=1)
            x = pairs[: len(w)] + pairs[len(w) :] * tile
        return x.reshape(-1, rows)


class RealPlan:
    """X at ``bins`` (each in [0, N/2]) of real frames, through one N/2-point FftPlan.

    Samples 2n and 2n + 1 are read, without a copy, as the real and imaginary
    parts of z[n]; FftPlan(N/2) gives Z at a = k mod N/2 and b = -k mod N/2, and
    one split stage (Sorensen, Jones, Heideman and Burrus 1987) gives
    X[k] = ½(Z[a] + conj Z[b]) − ½i·W^k·(Z[a] − conj Z[b]), W = exp(−2πi/N), as
    Z[a]·½(1 − iW^k) + conj Z[b]·½(1 + iW^k), whose products are no larger than
    |Z|. Bins are padded to 3 so that each multiply sees 3 values a row (see
    _pruned_outputs)."""

    def __init__(self, size: int, bins):
        self.size, self.bins, half = size, bin_indices(bins), size // 2
        if size < 4 or not is_power_of_two(size):
            raise ValueError(f"transform size must be a power of two >= 4, got {size}")
        if not self.bins or not 0 <= min(self.bins) <= max(self.bins) <= half:
            raise ValueError(f"bins must be 1 or more indices in [0, {half}], got {self.bins}")
        padded = self.bins + self.bins[:1] * (3 - len(self.bins))
        self._count = len(padded)
        self._plan = FftPlan(half, [k % half for k in padded] + [-k % half for k in padded])
        w = np.exp(-2j * np.pi * np.asarray(padded) / size)
        self._split = 0.5 * (1 - 1j * w), 0.5 * (1 + 1j * w)

    def __call__(self, samples) -> np.ndarray:
        """Shape (M,) for one frame, (T, M) for a (T, N) block, each row's bits its own."""
        x = np.ascontiguousarray(samples, dtype=np.float64)  # copies only rows that are not
        if x.ndim not in (1, 2) or x.shape[-1] != self.size:
            raise ValueError(f"expected {self.size} samples per frame, got shape {x.shape}")
        z = self._plan(x.view(np.complex128))
        upper, lower = self._split
        spectrum = z[..., : self._count] * upper + np.conj(z[..., self._count :]) * lower
        return spectrum[..., : len(self.bins)]


def magnitude(spectrum, bins: BinSet) -> np.ndarray:
    """sqrt(Re^2 + Im^2) at the monitored bins only: shape (M,), or (T, M) for a block
    of spectra; a non-finite value at a monitored bin is rejected."""
    spec = np.asarray(spectrum, dtype=np.complex128)
    bins.validate_for(spec.shape[-1])
    mags = np.abs(spec[..., np.asarray(bins.bins, dtype=np.intp)])
    if not np.isfinite(mags).all():
        raise ValueError("magnitudes must be finite")
    return mags
