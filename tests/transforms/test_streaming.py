"""Tests for the data streaming transformation (Section III)."""

import numpy as np
import pytest

from repro.minic.parser import parse
from repro.minic.printer import to_source
from repro.runtime.executor import Machine, run_program
from repro.transforms.streaming import (
    StreamingOptions,
    apply_streaming,
)

BLACKSCHOLES_LIKE = """
void main() {
#pragma offload target(mic:0) in(sptprice : length(n)) in(strike : length(n)) in(n) out(prices : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        prices[i] = sqrt(sptprice[i]) * 0.5 + strike[i];
    }
}
"""

INOUT_LOOP = """
void main() {
#pragma offload target(mic:0) inout(A : length(n)) in(n)
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        A[i] = A[i] * 2.0 + 1.0;
    }
}
"""

OFFSET_LOOP = """
void main() {
#pragma offload target(mic:0) in(A : length(n + 2)) in(n) out(B : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] + A[i + 2];
    }
}
"""

RESIDENT_MIX = """
void main() {
#pragma offload target(mic:0) in(A : length(n)) in(table : length(4)) in(n) out(B : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] * table[0] + table[3];
    }
}
"""

REDUCTION_LOOP = """
void main() {
    float sum = 0.0;
#pragma offload target(mic:0) in(A : length(n)) in(n) inout(sum)
#pragma omp parallel for reduction(+:sum)
    for (int i = 0; i < n; i++) {
        sum += A[i];
    }
    total = sum;
}
"""

IRREGULAR_LOOP = """
void main() {
#pragma offload target(mic:0) in(A : length(n)) in(B : length(n)) in(n) out(C : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        C[i] = A[B[i]];
    }
}
"""


def run_both(source, arrays_factory, scalars, options=None, scale=1.0):
    """Run original and streamed versions; return (orig, streamed) results."""
    original = run_program(
        source, arrays=arrays_factory(), scalars=dict(scalars),
        machine=Machine(scale=scale),
    )
    prog = parse(source)
    report = apply_streaming(prog, options or StreamingOptions(num_blocks=8))
    assert report.applied, report.reason
    streamed = run_program(
        prog, arrays=arrays_factory(), scalars=dict(scalars),
        machine=Machine(scale=scale),
    )
    return original, streamed


def n_arrays(n):
    def factory():
        rng = np.random.default_rng(42)
        return {
            "sptprice": rng.random(n).astype(np.float32) + 1.0,
            "strike": rng.random(n).astype(np.float32),
            "prices": np.zeros(n, dtype=np.float32),
        }

    return factory


class TestCorrectness:
    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_blackscholes_output_identical(self, double_buffer):
        n = 233  # deliberately not divisible by the block count
        options = StreamingOptions(num_blocks=8, double_buffer=double_buffer)
        orig, streamed = run_both(
            BLACKSCHOLES_LIKE, n_arrays(n), {"n": n}, options
        )
        assert np.array_equal(orig.array("prices"), streamed.array("prices"))

    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_inout_identical(self, double_buffer):
        n = 100

        def factory():
            return {"A": np.arange(n, dtype=np.float32)}

        options = StreamingOptions(num_blocks=4, double_buffer=double_buffer)
        orig, streamed = run_both(INOUT_LOOP, factory, {"n": n}, options)
        assert np.array_equal(orig.array("A"), streamed.array("A"))

    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_offset_accesses_identical(self, double_buffer):
        n = 64

        def factory():
            return {
                "A": np.arange(n + 2, dtype=np.float32),
                "B": np.zeros(n, dtype=np.float32),
            }

        options = StreamingOptions(num_blocks=4, double_buffer=double_buffer)
        orig, streamed = run_both(OFFSET_LOOP, factory, {"n": n}, options)
        assert np.array_equal(orig.array("B"), streamed.array("B"))

    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_resident_array_identical(self, double_buffer):
        n = 64

        def factory():
            return {
                "A": np.arange(n, dtype=np.float32),
                "table": np.array([2.0, 0.0, 0.0, 5.0], dtype=np.float32),
                "B": np.zeros(n, dtype=np.float32),
            }

        options = StreamingOptions(num_blocks=4, double_buffer=double_buffer)
        orig, streamed = run_both(RESIDENT_MIX, factory, {"n": n}, options)
        assert np.array_equal(orig.array("B"), streamed.array("B"))

    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_reduction_identical(self, double_buffer):
        n = 96

        def factory():
            return {"A": np.ones(n, dtype=np.float32)}

        options = StreamingOptions(num_blocks=4, double_buffer=double_buffer)
        orig, streamed = run_both(REDUCTION_LOOP, factory, {"n": n}, options)
        assert orig.scalar("total") == streamed.scalar("total") == n

    def test_single_iteration_block_edge(self):
        """More blocks than iterations: trailing blocks must be empty."""
        n = 3
        options = StreamingOptions(num_blocks=8)
        orig, streamed = run_both(BLACKSCHOLES_LIKE, n_arrays(n), {"n": n}, options)
        assert np.array_equal(orig.array("prices"), streamed.array("prices"))


class TestLegality:
    def test_irregular_loop_rejected(self):
        prog = parse(IRREGULAR_LOOP)
        report = apply_streaming(prog)
        assert not report.applied
        assert "irregular" in report.reason

    def test_non_offloaded_loop_rejected(self):
        prog = parse(
            "void main() {\n#pragma omp parallel for\n"
            "for (int i = 0; i < n; i++) { B[i] = A[i]; } }"
        )
        report = apply_streaming(prog)
        assert not report.applied

    def test_nonzero_start_rejected(self):
        prog = parse(
            "void main() {\n"
            "#pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))\n"
            "#pragma omp parallel for\n"
            "for (int i = 1; i < n; i++) { B[i] = A[i]; } }"
        )
        report = apply_streaming(prog)
        assert not report.applied

    def test_negative_offset_array_falls_back_to_resident(self):
        src = """
        void main() {
        #pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))
        #pragma omp parallel for
            for (int i = 0; i < n; i++) {
                B[i] = i > 0 ? A[i - 1] : A[i];
            }
        }
        """
        prog = parse(src)
        # B still streams (unit writes); A is resident.  The transform
        # applies and results stay correct.
        report = apply_streaming(prog, StreamingOptions(num_blocks=4))
        assert report.applied
        n = 32
        arrays = {
            "A": np.arange(n, dtype=np.float32),
            "B": np.zeros(n, dtype=np.float32),
        }
        result = run_program(prog, arrays=arrays, scalars={"n": n})
        expected = run_program(src, arrays={
            "A": np.arange(n, dtype=np.float32),
            "B": np.zeros(n, dtype=np.float32),
        }, scalars={"n": n})
        assert np.array_equal(result.array("B"), expected.array("B"))

    def test_symbolic_coefficient_needs_bindings(self):
        src = """
        void main() {
        #pragma offload target(mic:0) in(A : length(n * d)) in(n) in(d) out(B : length(n))
        #pragma omp parallel for
            for (int i = 0; i < n; i++) {
                B[i] = A[i * d];
            }
        }
        """
        unbound = apply_streaming(parse(src))
        assert not unbound.applied
        prog = parse(src)
        bound = apply_streaming(
            prog, StreamingOptions(num_blocks=4, bindings={"d": 3})
        )
        assert bound.applied
        n, d = 20, 3
        arrays = {
            "A": np.arange(n * d, dtype=np.float32),
            "B": np.zeros(n, dtype=np.float32),
        }
        result = run_program(prog, arrays=arrays, scalars={"n": n, "d": d})
        assert np.array_equal(result.array("B"), np.arange(n) * d)


class TestTimingAndMemory:
    SCALE = 5000.0

    def test_streaming_reduces_time(self):
        """Figure 12: overlap hides transfer time."""
        n = 1 << 14
        orig, streamed = run_both(
            BLACKSCHOLES_LIKE,
            n_arrays(n),
            {"n": n},
            StreamingOptions(num_blocks=16),
            scale=self.SCALE,
        )
        assert streamed.stats.total_time < orig.stats.total_time

    def test_double_buffer_cuts_memory(self):
        """Figure 13: streamed arrays occupy two blocks, not full size."""
        n = 1 << 14
        plain = run_program(
            BLACKSCHOLES_LIKE, arrays=n_arrays(n)(), scalars={"n": n},
            machine=Machine(scale=self.SCALE),
        ).stats
        prog = parse(BLACKSCHOLES_LIKE)
        apply_streaming(prog, StreamingOptions(num_blocks=16, double_buffer=True))
        stream = run_program(prog, arrays=n_arrays(n)(), scalars={"n": n},
                             machine=Machine(scale=self.SCALE)).stats
        reduction = 1 - stream.device_peak_bytes / plain.device_peak_bytes
        assert reduction > 0.6

    def test_thread_reuse_single_launch(self):
        n = 1 << 12
        prog = parse(BLACKSCHOLES_LIKE)
        apply_streaming(prog, StreamingOptions(num_blocks=8, thread_reuse=True))
        machine = Machine()
        result = run_program(prog, arrays=n_arrays(n)(), scalars={"n": n},
                             machine=machine)
        assert result.stats.kernel_launches == 1
        assert result.stats.kernel_signals == 7

    def test_no_thread_reuse_many_launches(self):
        n = 1 << 12
        prog = parse(BLACKSCHOLES_LIKE)
        apply_streaming(prog, StreamingOptions(num_blocks=8, thread_reuse=False))
        result = run_program(prog, arrays=n_arrays(n)(), scalars={"n": n},
                             machine=Machine())
        assert result.stats.kernel_launches == 8

    def test_more_blocks_less_memory(self):
        n = 1 << 14

        def peak(nb):
            prog = parse(BLACKSCHOLES_LIKE)
            apply_streaming(prog, StreamingOptions(num_blocks=nb))
            return run_program(prog, arrays=n_arrays(n)(), scalars={"n": n},
                               machine=Machine()).stats.device_peak_bytes

        assert peak(32) < peak(4)


class TestGeneratedSource:
    def test_printed_output_reparses(self):
        prog = parse(BLACKSCHOLES_LIKE)
        apply_streaming(prog, StreamingOptions(num_blocks=8))
        printed = to_source(prog)
        assert parse(printed) == prog

    def test_figure5_shape_markers(self):
        """The generated source carries the Figure 5(c) structure."""
        prog = parse(BLACKSCHOLES_LIKE)
        apply_streaming(prog, StreamingOptions(num_blocks=8, double_buffer=True))
        printed = to_source(prog)
        assert "sptprice__s1" in printed and "sptprice__s2" in printed
        assert "prices__b" in printed
        assert "offload_transfer" in printed
        assert "signal(0)" in printed
        assert "wait(__k)" in printed
        assert "free_if(1)" in printed

    def test_full_buffer_variant_has_no_renames(self):
        prog = parse(BLACKSCHOLES_LIKE)
        apply_streaming(prog, StreamingOptions(num_blocks=8, double_buffer=False))
        printed = to_source(prog)
        assert "__s1" not in printed
        assert "sptprice[i" in printed or "sptprice[__start" in printed
