"""Interpreter tests for LEO offload semantics on the simulated machine."""

import numpy as np
import pytest

from repro.errors import DeviceOutOfMemory, MissingTransferError
from repro.hardware.spec import CpuSpec, MachineSpec, MicSpec, PcieSpec
from repro.runtime.executor import Machine, run_program

OFFLOAD_SRC = """
void main() {
#pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] * 2.0;
    }
}
"""


def make_arrays(n=256):
    return {
        "A": np.arange(n, dtype=np.float32),
        "B": np.zeros(n, dtype=np.float32),
    }


class TestOffloadCorrectness:
    def test_results_copied_back(self):
        result = run_program(OFFLOAD_SRC, arrays=make_arrays(), scalars={"n": 256})
        assert np.array_equal(result.array("B"), np.arange(256) * 2.0)

    def test_missing_in_clause_raises(self):
        src = OFFLOAD_SRC.replace("in(A : length(n)) ", "")
        with pytest.raises(MissingTransferError):
            run_program(src, arrays=make_arrays(), scalars={"n": 256})

    def test_missing_scalar_clause_raises(self):
        src = OFFLOAD_SRC.replace("in(n) ", "")
        with pytest.raises(MissingTransferError):
            run_program(src, arrays=make_arrays(), scalars={"n": 256})

    def test_inout_clause(self):
        src = """
        void main() {
        #pragma offload target(mic:0) inout(A : length(n)) in(n)
        #pragma omp parallel for
            for (int i = 0; i < n; i++) { A[i] = A[i] + 1.0; }
        }
        """
        result = run_program(
            src, arrays={"A": np.zeros(64, dtype=np.float32)}, scalars={"n": 64}
        )
        assert np.all(result.array("A") == 1.0)

    def test_scalar_reduction_out(self):
        src = """
        void main() {
            float sum = 0.0;
        #pragma offload target(mic:0) in(A : length(n)) in(n) inout(sum)
        #pragma omp parallel for reduction(+:sum)
            for (int i = 0; i < n; i++) { sum += A[i]; }
            total = sum;
        }
        """
        result = run_program(
            src, arrays={"A": np.ones(100, dtype=np.float32)}, scalars={"n": 100}
        )
        assert result.scalar("total") == 100.0

    def test_section_transfer(self):
        src = """
        void main() {
        #pragma offload target(mic:0) in(A[10:20] : into(A1)) in(n) out(B[0:20] : length(20))
        #pragma omp parallel for
            for (int i = 0; i < 20; i++) { B[i] = A1[i]; }
        }
        """
        arrays = {
            "A": np.arange(100, dtype=np.float32),
            "B": np.zeros(100, dtype=np.float32),
        }
        result = run_program(src, arrays=arrays, scalars={"n": 20})
        assert np.array_equal(result.array("B")[:20], np.arange(10, 30))

    def test_offload_block_serial_device_code(self):
        src = """
        void main() {
        #pragma offload target(mic:0) in(A : length(4)) out(A : length(4))
            {
                A[0] = A[1] + A[2];
            }
        }
        """
        result = run_program(
            src, arrays={"A": np.array([0, 2, 3, 4], dtype=np.float32)}
        )
        assert result.array("A")[0] == 5.0

    def test_device_cannot_see_untransferred_host_update(self):
        """Device reads the copy made at transfer time, not live host data."""
        src = """
        void main() {
        #pragma offload target(mic:0) in(A : length(4)) out(B : length(4))
        #pragma omp parallel for
            for (int i = 0; i < 4; i++) { B[i] = A[i]; }
        }
        """
        a = np.ones(4, dtype=np.float32)
        result = run_program(
            src, arrays={"A": a, "B": np.zeros(4, dtype=np.float32)}
        )
        assert np.all(result.array("B") == 1.0)


class TestOffloadTiming:
    def test_offload_pays_transfer_and_launch(self):
        machine = Machine()
        result = run_program(OFFLOAD_SRC, arrays=make_arrays(), scalars={"n": 256},
                             machine=machine)
        stats = result.stats
        assert stats.kernel_launches == 1
        assert stats.bytes_to_device >= 256 * 4
        assert stats.bytes_from_device >= 256 * 4
        assert stats.total_time >= machine.spec.mic.kernel_launch_overhead

    def test_transfer_scales_with_scale(self):
        small = run_program(
            OFFLOAD_SRC, arrays=make_arrays(), scalars={"n": 256},
            machine=Machine(scale=1.0),
        ).stats
        big = run_program(
            OFFLOAD_SRC, arrays=make_arrays(), scalars={"n": 256},
            machine=Machine(scale=1000.0),
        ).stats
        assert big.bytes_to_device == pytest.approx(1000 * small.bytes_to_device)

    def test_unopt_offload_frees_buffers(self):
        machine = Machine()
        run_program(OFFLOAD_SRC, arrays=make_arrays(), scalars={"n": 256},
                    machine=machine)
        memory = machine.fleet.devices[0].memory
        assert memory.in_use == 0
        assert memory.peak >= 2 * 256 * 4

    def test_device_oom(self):
        # 1M floats at scale 4096 = 16 GB > the 7.5 GB usable capacity.
        machine = Machine(scale=4096.0)
        n = 1 << 20
        with pytest.raises(DeviceOutOfMemory):
            run_program(
                OFFLOAD_SRC,
                arrays={
                    "A": np.zeros(n, dtype=np.float32),
                    "B": np.zeros(n, dtype=np.float32),
                },
                scalars={"n": n},
                machine=machine,
            )

    def test_two_offloads_two_launches(self):
        src = """
        void main() {
        #pragma offload target(mic:0) in(A : length(8)) out(A : length(8))
        #pragma omp parallel for
            for (int i = 0; i < 8; i++) { A[i] = A[i] + 1.0; }
        #pragma offload target(mic:0) in(A : length(8)) out(A : length(8))
        #pragma omp parallel for
            for (int i = 0; i < 8; i++) { A[i] = A[i] + 1.0; }
        }
        """
        machine = Machine()
        result = run_program(
            src, arrays={"A": np.zeros(8, dtype=np.float32)}, machine=machine
        )
        assert result.stats.kernel_launches == 2
        assert np.all(result.array("A") == 2.0)

    def test_persistent_offload_single_launch(self):
        src = """
        void main() {
            for (int k = 0; k < 5; k++) {
        #pragma offload target(mic:0) in(A : length(8) alloc_if(k == 0) free_if(k == 4)) out(A : length(8) alloc_if(0) free_if(0)) persistent(1)
        #pragma omp parallel for
                for (int i = 0; i < 8; i++) { A[i] = A[i] + 1.0; }
            }
        }
        """
        machine = Machine()
        result = run_program(
            src, arrays={"A": np.zeros(8, dtype=np.float32)}, machine=machine
        )
        assert result.stats.kernel_launches == 1
        assert result.stats.kernel_signals == 4
        assert np.all(result.array("A") == 5.0)


class TestAsyncTransfers:
    STREAMED = """
    void main() {
    #pragma offload_transfer target(mic:0) nocopy(A1 : length(b) alloc_if(1) free_if(0)) nocopy(A2 : length(b) alloc_if(1) free_if(0)) nocopy(B1 : length(b) alloc_if(1) free_if(0))
    #pragma offload_transfer target(mic:0) in(A[0:b] : into(A1) alloc_if(0) free_if(0)) signal(0)
        for (int k = 0; k < nb; k++) {
            if (k + 1 < nb) {
                if ((k + 1) % 2 == 0) {
    #pragma offload_transfer target(mic:0) in(A[(k+1)*b:b] : into(A1) alloc_if(0) free_if(0)) signal(k + 1)
                    ;
                } else {
    #pragma offload_transfer target(mic:0) in(A[(k+1)*b:b] : into(A2) alloc_if(0) free_if(0)) signal(k + 1)
                    ;
                }
            }
            if (k % 2 == 0) {
    #pragma offload target(mic:0) nocopy(A1) nocopy(B1) in(b) wait(k) out(B1[0:b] : into(B[k*b:b]) alloc_if(0) free_if(0)) persistent(1)
    #pragma omp parallel for
                for (int i = 0; i < b; i++) { B1[i] = A1[i] * 2.0; }
            } else {
    #pragma offload target(mic:0) nocopy(A2) nocopy(B1) in(b) wait(k) out(B1[0:b] : into(B[k*b:b]) alloc_if(0) free_if(0)) persistent(1)
    #pragma omp parallel for
                for (int i = 0; i < b; i++) { B1[i] = A2[i] * 2.0; }
            }
        }
    #pragma offload_transfer target(mic:0) nocopy(A1 : alloc_if(0) free_if(1)) nocopy(A2 : alloc_if(0) free_if(1)) nocopy(B1 : alloc_if(0) free_if(1))
    }
    """

    def test_hand_streamed_loop_correct(self):
        n, nb = 64, 4
        arrays = {
            "A": np.arange(n, dtype=np.float32),
            "B": np.zeros(n, dtype=np.float32),
        }
        result = run_program(
            self.STREAMED, arrays=arrays, scalars={"b": n // nb, "nb": nb}
        )
        assert np.array_equal(result.array("B"), np.arange(n) * 2.0)

    def test_hand_streamed_overlaps(self):
        """Streaming must beat the same loop without overlap when transfer
        and compute are comparable."""
        n, nb = 1 << 14, 8
        arrays = {
            "A": np.arange(n, dtype=np.float32),
            "B": np.zeros(n, dtype=np.float32),
        }
        scale = 2000.0
        streamed = run_program(
            self.STREAMED,
            arrays=dict(arrays),
            scalars={"b": n // nb, "nb": nb},
            machine=Machine(scale=scale),
        ).stats
        plain = run_program(
            """
            void main() {
            #pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))
            #pragma omp parallel for
                for (int i = 0; i < n; i++) { B[i] = A[i] * 2.0; }
            }
            """,
            arrays=dict(arrays),
            scalars={"n": n},
            machine=Machine(scale=scale),
        ).stats
        assert streamed.total_time < plain.total_time

    def test_double_buffer_memory_is_bounded(self):
        n, nb = 1 << 12, 8
        stats = run_program(
            self.STREAMED,
            arrays={
                "A": np.arange(n, dtype=np.float32),
                "B": np.zeros(n, dtype=np.float32),
            },
            scalars={"b": n // nb, "nb": nb},
            machine=Machine(),
        ).stats
        # Three block buffers instead of two full arrays.
        assert stats.device_peak_bytes == 3 * (n // nb) * 4

    def test_offload_wait_statement(self):
        src = """
        void main() {
        #pragma offload_transfer target(mic:0) in(A[0:8] : into(A1) alloc_if(1) free_if(0)) signal(7)
            x = 1;
        #pragma offload_wait target(mic:0) wait(7)
        #pragma offload target(mic:0) nocopy(A1) out(B : length(8))
        #pragma omp parallel for
            for (int i = 0; i < 8; i++) { B[i] = A1[i]; }
        }
        """
        arrays = {
            "A": np.arange(8, dtype=np.float32),
            "B": np.zeros(8, dtype=np.float32),
        }
        result = run_program(src, arrays=arrays)
        assert np.array_equal(result.array("B"), np.arange(8))
