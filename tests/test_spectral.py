"""Transform correctness against the direct-summation oracle, plus frame types."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrig import spectral
from spectrig.spectral import BinSet, FftPlan, Frame, RealPlan, magnitude

from oracles import naive_dft, packed_real_reference, radix2_reference

SIZES = [8, 16, 32, 64, 128, 256, 512, 1024]


def rel_error(actual, expected) -> float:
    expected = np.asarray(expected)
    scale = np.max(np.abs(expected))
    if scale == 0:
        return float(np.max(np.abs(actual)))
    return float(np.max(np.abs(np.asarray(actual) - expected)) / scale)


def make_frame(samples, index=0, rate=1000.0) -> Frame:
    return Frame(samples=np.asarray(samples, dtype=float), frame_index=index, sample_rate_hz=rate)


class TestFrame:
    def test_accepts_power_of_two(self):
        frame = make_frame(np.zeros(16))
        assert frame.size == 16

    @pytest.mark.parametrize("n", [4, 7, 12, 100])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            make_frame(np.zeros(n))

    def test_rejects_non_finite(self):
        samples = np.zeros(8)
        samples[3] = np.nan
        with pytest.raises(ValueError):
            make_frame(samples)
        samples[3] = np.inf
        with pytest.raises(ValueError):
            make_frame(samples)

    def test_rejects_negative_index_and_rate(self):
        with pytest.raises(ValueError):
            make_frame(np.zeros(8), index=-1)
        with pytest.raises(ValueError):
            make_frame(np.zeros(8), rate=0.0)


class TestBinSet:
    def test_valid(self):
        bins = BinSet((1, 5, 9))
        assert len(bins) == 3
        assert list(bins) == [1, 5, 9]
        assert 5 in bins

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BinSet(())

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            BinSet((5, 1))
        with pytest.raises(ValueError):
            BinSet((1, 1, 5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BinSet((-1, 3))

    def test_validate_for_range(self):
        BinSet((0, 32)).validate_for(64)
        with pytest.raises(ValueError):
            BinSet((0, 33)).validate_for(64)

    def test_frequencies(self):
        freqs = BinSet((1, 4)).frequencies_hz(128, 1000.0)
        assert freqs == pytest.approx([1000.0 / 128, 4 * 1000.0 / 128])


class TestFft:
    def test_dc_case(self):
        c = 3.25
        frame = make_frame(np.full(32, c))
        spectrum = FftPlan(32)(frame.samples)
        expected = np.zeros(32, dtype=complex)
        expected[0] = 32 * c
        assert rel_error(spectrum, expected) < 1e-9

    def test_impulse_case(self):
        samples = np.zeros(64)
        samples[0] = 1.0
        spectrum = FftPlan(64)(make_frame(samples).samples)
        assert rel_error(spectrum, np.ones(64, dtype=complex)) < 1e-9

    def test_matches_naive_dft_n64(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.normal(size=64)
            assert rel_error(FftPlan(64)(make_frame(x).samples), naive_dft(x)) < 1e-9

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_naive_dft_each_size(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            x = rng.normal(size=n)
            assert rel_error(FftPlan(n)(make_frame(x).samples), naive_dft(x)) < 1e-9

    @pytest.mark.parametrize("n", SIZES)
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=n)
        spectrum = FftPlan(n)(make_frame(x).samples)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(11)
        plan = FftPlan(128)
        x = rng.normal(size=128)
        y = rng.normal(size=128)
        a, b = 2.5, -0.75
        combined = plan(a * x + b * y)
        separate = a * plan(x) + b * plan(y)
        assert rel_error(combined, separate) < 1e-9

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=256)
        spectrum = FftPlan(256)(make_frame(x).samples)
        mirrored = np.conj(spectrum[(-np.arange(256)) % 256])
        assert rel_error(spectrum, mirrored) < 1e-9

    def test_plan_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            FftPlan(12)
        with pytest.raises(ValueError):
            FftPlan(0)

    def test_plan_rejects_wrong_length_and_non_finite(self):
        plan = FftPlan(16)
        with pytest.raises(ValueError):
            plan(np.zeros(8))
        bad = np.zeros(16)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            plan(bad)

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("strided", [False, True])
    def test_plan_rejects_non_finite_complex_parts(self, part, strided):
        """Complex rows are checked as their float64 parts, contiguous or not."""
        block = np.zeros((4, 32), np.complex128)
        rows = block[:, ::2] if strided else block[:, :16]
        getattr(rows, part)[2, 5] = np.inf
        for plan in (FftPlan(16), FftPlan(16, (1, 5))):
            with pytest.raises(ValueError, match="samples must all be finite"):
                plan(rows)
        getattr(rows, part)[2, 5] = 1.0
        assert np.allclose(FftPlan(16)(rows), np.fft.fft(rows, axis=1))

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=64)
        frame = make_frame(x)
        first = FftPlan(64)(frame.samples)
        second = FftPlan(64)(frame.samples)
        assert np.array_equal(first, second)


class TestBlocks:
    @pytest.mark.parametrize("n", [8, 128, 2048])
    def test_block_rows_bit_identical_to_single_frames(self, n):
        rng = np.random.default_rng(n)
        block = rng.normal(size=(5, n)) * 100.0
        plan = FftPlan(n)
        spectra = plan(block)
        assert spectra.shape == (5, n)
        for row, spectrum in zip(block, spectra):
            assert spectrum.tobytes() == plan(row).tobytes()

    def test_block_magnitudes_per_row(self):
        rng = np.random.default_rng(23)
        spectra = rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32))
        bins = BinSet((1, 5, 16))
        mags = magnitude(spectra, bins)
        assert mags.shape == (4, 3)
        for row, spectrum in zip(mags, spectra):
            assert np.array_equal(row, magnitude(spectrum, bins))

    def test_block_shape_checked(self):
        plan = FftPlan(16)
        with pytest.raises(ValueError):
            plan(np.zeros((3, 8)))
        with pytest.raises(ValueError):
            plan(np.zeros((2, 3, 16)))
        bad = np.zeros((3, 16))
        bad[2, 5] = np.inf
        with pytest.raises(ValueError):
            plan(bad)


def signed_zero_samples(seed, rows, n) -> np.ndarray:
    """Gaussian samples (scale 100) of which about a quarter are +0.0 and a quarter -0.0."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(rows, n)) * 100.0
    zeros = rng.integers(0, 4, size=samples.shape)
    samples[zeros == 0] = 0.0
    samples[zeros == 1] = -0.0
    return samples


def bits(values) -> list:
    """Every float's bit pattern, so that signed zeros count."""
    return np.ascontiguousarray(values).view(np.uint64).tolist()


@st.composite
def pruned_cases(draw):
    """A frame size 8...2048, 1 to min(N/2 + 1, 256) sorted bins in 0...N/2, and 1-8 rows."""
    n = 2 ** draw(st.integers(3, 11), label="log2 N")
    count = draw(st.integers(1, min(n // 2 + 1, 256)), label="bin count")
    bins = draw(st.lists(st.integers(0, n // 2), min_size=count, max_size=count, unique=True))
    rows = draw(st.integers(1, 8), label="rows")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    samples = np.random.default_rng(seed).normal(size=(rows, n)) * 100.0
    return n, tuple(sorted(bins)), samples


class TestPrunedPlan:
    """A plan with bins computes only what those bins need, with the full plan's bits."""

    @given(pruned_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_alone_full_plan_and_rfft(self, case):
        n, bins, samples = case
        plan = FftPlan(n, bins)
        out = plan(samples)
        assert out.shape == (len(samples), len(bins))
        for row, values in zip(samples, out):
            assert plan(row).tobytes() == values.tobytes()
        assert np.array_equal(np.abs(out), np.abs(FftPlan(n)(samples)[:, bins]))
        assert rel_error(np.abs(out), np.abs(np.fft.rfft(samples))[:, bins]) < 1e-12

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_block_bound_equals_rows_alone(self, data):
        """With BLOCK_SAMPLES patched to any bound, the early stages run in groups of
        bound // N rows and the rest once over all rows: each row still carries the
        bits of its own one-row call, with full stages or none, and with the all-row
        stages starting at any pruned stage."""
        n = 2 ** data.draw(st.integers(3, 11), label="log2 N")
        full = data.draw(st.booleans(), label="full stages")
        # Both parities make stage 2 need both outputs, so it runs in full; odd bins alone
        # (and their spares) prune every stage.
        odd = st.integers(0, n // 4 - 1).map(lambda k: 2 * k + 1)
        bins = data.draw(st.lists(odd, min_size=1, max_size=4, unique=True), label="odd bins")
        if full:
            bins += data.draw(st.lists(st.integers(0, n // 2), max_size=60), label="more bins")
            bins.append(2 * data.draw(st.integers(0, n // 4), label="an even bin"))
        plan = FftPlan(n, sorted(set(bins)))
        assert bool(plan._twiddles) == full
        rows = data.draw(st.integers(1, 40), label="rows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        samples = np.random.default_rng(seed).normal(size=(rows, n)) * 100.0
        # A bound anywhere in [8, 2**13], or the one whose all-row stages start at stage s.
        starts = [rows * 2 * twiddles.size for _, twiddles in plan._pruned[1:]]
        bound = data.draw(st.integers(8, 2**13) | st.sampled_from(starts or [8]), label="bound")
        with mock.patch.object(spectral, "BLOCK_SAMPLES", bound):
            out = plan(samples)
        assert out.tobytes() == plan(samples).tobytes()
        for row, values in zip(samples, out):
            assert plan(row).tobytes() == values.tobytes()

    @pytest.mark.parametrize("bound", [2**10, 2**13])
    def test_kept_memory_does_not_grow_with_rows(self, bound):
        """A call tiles each stage's twiddles over the rows it runs the stage on and drops
        them on return: after calls with every row count from 1 to 64, with one row or
        eight per group, the plan holds no more than after a one-row call. Kept tiles
        would show: the first stage's alone, over 8 rows, is 512 x 8 complex values
        (64 KB); numpy's cache of small freed buffers stays well below that."""
        plan = RealPlan(2048, (37, 101, 173, 241))
        samples = np.random.default_rng(bound).normal(size=(64, 2048)) * 100.0
        with mock.patch.object(spectral, "BLOCK_SAMPLES", bound):
            plan(samples)
            tracemalloc.start()
            try:
                plan(samples[:1])
                kept = tracemalloc.get_traced_memory()[0]
                for rows in range(1, 65):
                    plan(samples[:rows])
                grown = tracemalloc.get_traced_memory()[0] - kept
            finally:
                tracemalloc.stop()
        assert grown < 16 * 1024

    def test_each_distinct_output_computed_once(self):
        """A repeated bin is copied from its one output at the end: the dense_bins-shaped
        half-size plan asks for a + b, 400 outputs of which 255 are distinct, and its last
        stage gathers each distinct one's pair once."""
        plan = RealPlan(512, range(56, 256))._plan
        assert len(plan.bins) == 400 and 2 * plan._pruned[-1][1].size == 2 * 255

    @pytest.mark.parametrize("bins", [(0,), (5,), (64,), (0, 64), (7, 9), (3, 35)])
    def test_one_or_two_bins_one_row_against_four(self, bins):
        """One value per row in a stage's multiply would take another numpy loop
        for one row than for a block; the plan keeps at least three."""
        samples = np.random.default_rng(sum(bins)).normal(size=(4, 128)) * 100.0
        plan = FftPlan(128, bins)
        block = plan(samples)
        for row, values in zip(samples, block):
            assert plan(row).tobytes() == values.tobytes()
            assert plan(row[None]).tobytes() == values.tobytes()
        assert np.array_equal(np.abs(block), np.abs(FftPlan(128)(samples)[:, list(bins)]))

    @pytest.mark.parametrize("n", [8, 64, 512, 2048])
    def test_full_plan_bytes_unchanged(self, n):
        samples = np.random.default_rng(n + 3).normal(size=(3, n)) * 100.0
        assert FftPlan(n)(samples).tobytes() == radix2_reference(samples).tobytes()
        assert FftPlan(n)(samples[0]).tobytes() == radix2_reference(samples[0]).tobytes()

    @pytest.mark.parametrize("n", [2**k for k in range(1, 13)])
    def test_self_sorting_stages_bit_equal_to_reference(self, n):
        """The self-sorting stages give every value the bits of the in-place transform on
        bit-reversed input, signed zeros included, for a block of any row count and one row."""
        plan = FftPlan(n)
        for rows in (1, 2, 3, 17):
            samples = signed_zero_samples(n * 7 + rows, rows, n)
            assert bits(plan(samples)) == bits(radix2_reference(samples)), rows
        assert bits(plan(samples[0])) == bits(radix2_reference(samples[0]))

    @pytest.mark.parametrize("full", range(1, 9))
    def test_full_stages_then_pruned(self, full):
        """2**full consecutive bins keep stages 2 ... 2**full full; the first gather reads
        their layout: the plan carries the full plan's bits at its bins, and each row its
        own one-row call's. At N = 512, stage 32 has as many groups as its half, so the
        last full stage falls on each side of the layout switch."""
        bins = tuple(range(3, 3 + 2**full))
        plan = FftPlan(512, bins)
        assert len(plan._twiddles) == full and plan._pruned
        samples = signed_zero_samples(full, 5, 512)
        out = plan(samples)
        assert bits(out) == bits(FftPlan(512)(samples)[:, list(bins)])
        for row, values in zip(samples, out):
            assert bits(plan(row)) == bits(values)

    @pytest.mark.parametrize("n, bins", [(64, (9, 2, 31)), (8, (7, 6, 5, 4, 3)), (16, (3, 3, 12))])
    def test_any_bins_in_their_order(self, n, bins):
        """Bins in [0, N) in any order, repeats too; more than N/2 of them still prune the last stage."""
        samples = np.random.default_rng(1).normal(size=(2, n))
        out = FftPlan(n, bins)(samples)
        assert np.array_equal(np.abs(out), np.abs(FftPlan(n)(samples)[:, list(bins)]))

    def test_prunes_only_the_late_stages(self):
        assert len(FftPlan(2048, (37, 101, 173, 241))._twiddles) == 0  # all odd: stage 2 halves
        assert len(FftPlan(512, tuple(range(56, 256)))._twiddles) == 8
        assert len(FftPlan(64)._pruned) == 0

    @pytest.mark.parametrize("bins", [(), (-1,), (64,), (2.5,)])
    def test_rejects_bad_bins(self, bins):
        with pytest.raises(ValueError):
            FftPlan(64, bins)


@st.composite
def real_cases(draw):
    """A frame size 8...2048, 1-8 rows of samples (some of them signed zeros) and sorted
    bins in 0...N/2: one or two of them, or any, with 0 and N/2 or mirrored pairs k and
    N/2 - k drawn in."""
    n = 2 ** draw(st.integers(3, 11), label="log2 N")
    few = draw(st.booleans(), label="one or two bins")
    bins = set(draw(st.lists(st.integers(0, n // 2), min_size=1, max_size=2 if few else 200)))
    if not few:
        if draw(st.booleans(), label="0 and N/2"):
            bins |= {0, n // 2}
        for k in draw(st.lists(st.integers(0, n // 4), max_size=4), label="mirrored"):
            bins |= {k, n // 2 - k}
    rows = draw(st.integers(1, 8), label="rows")
    samples = signed_zero_samples(draw(st.integers(0, 2**32 - 1), label="seed"), rows, n)
    return n, tuple(sorted(bins)), samples


class TestRealPlan:
    """Real frames packed into an N/2-point plan, and split at the bins."""

    @given(real_cases(), st.integers(8, 2**13))
    @settings(max_examples=200, deadline=None)
    def test_rows_alone_any_bound_reference_and_rfft(self, case, bound):
        """Each row carries its one-row call's bits under any BLOCK_SAMPLES, |X| carries the
        pack-and-split reference's bits, and X lies within 1e-12 of rfft's."""
        n, bins, samples = case
        plan = RealPlan(n, bins)
        out = plan(samples)
        assert out.shape == (len(samples), len(bins))
        with mock.patch.object(spectral, "BLOCK_SAMPLES", bound):
            assert bits(plan(samples)) == bits(out)
        for row, values in zip(samples, out):
            assert bits(plan(row)) == bits(values)
            assert bits(plan(row[None])[0]) == bits(values)
        assert bits(np.abs(out)) == bits(np.abs(packed_real_reference(samples)[:, bins]))
        assert rel_error(out, np.fft.rfft(samples)[:, bins]) < 1e-12

    @pytest.mark.parametrize("n", [8, 128, 512, 2048])
    @pytest.mark.parametrize("which", ["0", "N/2", "k", "0, N/2", "k, N/2 - k", "k, k + 1"])
    def test_one_or_two_bins_one_row_against_a_block(self, n, which):
        """One value per row in the split's multiplies would take another numpy loop for
        one row than for a block; the plan pads its bins to three."""
        k = n // 8 + 1
        bins = {"0": (0,), "N/2": (n // 2,), "k": (k,), "0, N/2": (0, n // 2),
                "k, N/2 - k": (k, n // 2 - k), "k, k + 1": (k, k + 1)}[which]
        plan = RealPlan(n, bins)
        for seed in range(4):
            samples = np.random.default_rng(seed).normal(size=(6, n)) * 100.0
            block = plan(samples)
            for row, values in zip(samples, block):
                assert bits(plan(row)) == bits(values)
                assert bits(plan(row[None])) == bits(values[None])
            assert bits(np.abs(block)) == bits(np.abs(packed_real_reference(samples)[:, bins]))

    def test_any_layout_of_the_samples(self):
        """Rows that are not contiguous, strided or in Fortran order, give their copy's bits."""
        samples = np.random.default_rng(2).normal(size=(5, 128))
        plan = RealPlan(64, (1, 7, 32))
        expected = plan(np.ascontiguousarray(samples[:, ::2]))
        assert bits(plan(samples[:, ::2])) == bits(expected)
        assert bits(plan(np.asfortranarray(samples[:, ::2]))) == bits(expected)

    def test_a_sample_near_the_float_maximum_does_not_overflow(self):
        samples = np.zeros((2, 32))
        samples[:, 7] = 1e308
        assert np.allclose(np.abs(RealPlan(32, (0, 3, 16))(samples)), 1e308, rtol=1e-15)

    @pytest.mark.parametrize("size, bins", [(64, ()), (64, (-1,)), (64, (33,)), (48, (3,)), (2, (0,))])
    def test_rejects_bad_plans(self, size, bins):
        with pytest.raises(ValueError):
            RealPlan(size, bins)

    @pytest.mark.parametrize("shape", [(3, 32), (32,), (2, 2, 64), (3, 65)])
    def test_rejects_bad_shapes_and_non_finite_samples(self, shape):
        plan = RealPlan(64, (3,))
        with pytest.raises(ValueError, match="expected 64 samples per frame"):
            plan(np.zeros(shape))
        bad = np.zeros((3, 64))
        bad[1, 5] = np.inf
        with pytest.raises(ValueError, match="samples must all be finite"):
            plan(bad)


class TestMagnitude:
    def test_three_four_five(self):
        spectrum = np.zeros(16, dtype=complex)
        spectrum[2] = 3 + 4j
        mags = magnitude(spectrum, BinSet((2,)))
        assert mags[0] == pytest.approx(5.0)

    def test_zero_spectrum(self):
        mags = magnitude(np.zeros(16, dtype=complex), BinSet((0, 3, 8)))
        assert np.all(mags == 0.0)

    def test_matches_modulus_oracle(self):
        rng = np.random.default_rng(19)
        spectrum = rng.normal(size=32) + 1j * rng.normal(size=32)
        bins = BinSet((1, 5, 9))
        mags = magnitude(spectrum, bins)
        expected = [abs(spectrum[k]) for k in (1, 5, 9)]
        assert mags == pytest.approx(expected, rel=1e-12)

    def test_bin_out_of_range(self):
        with pytest.raises(ValueError):
            magnitude(np.zeros(16, dtype=complex), BinSet((9,)))

    def test_features_reject_negative_or_non_finite(self):
        """Magnitudes are never negative, and a non-finite spectrum value is rejected."""
        assert np.all(magnitude(np.full(16, -2.0 - 3.0j), BinSet((1, 2))) >= 0.0)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            spectrum = np.ones(16, dtype=complex)
            spectrum[2] = bad
            with pytest.raises(ValueError):
                magnitude(spectrum, BinSet((1, 2)))
            with pytest.raises(ValueError):
                magnitude(np.vstack([np.ones(16), spectrum]), BinSet((2,)))
