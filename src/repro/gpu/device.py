"""GPU device model (Titan V class).

The functional simulator (:mod:`repro.gpu.striped`) executes the paper's
striped-tile dataflow exactly; this module turns its counted work into
projected wall time.

Two execution regimes, as in the paper's two use cases:

* **intra-sequence** (long genomes): a thread-block sweeps stripe
  anti-diagonals; threads idle during the head/tail phases of each stripe,
  so cost is per *lane-step* (``diag_steps × block_threads``), making the
  stripe-utilisation penalty emerge from the simulated dataflow;
* **inter-sequence** (read batches): one alignment per thread, full
  utilisation, cost per cell.

Calibration anchors (documented in EXPERIMENTS.md): Titan V ≈ 189 GCUPS
scores-only/linear on long genomes (Table II: 0.757 GCUPS/W × 250 W) and
≈ 241 GCUPS on 150 bp read batches (Fig. 5b); the affine factor 1.086
reproduces Table II's 0.757/0.696 ratio.  Relative numbers — AnySeq vs.
the NVBio-like baseline, linear vs. affine — come from counted work and
structural differences, not per-library constants.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceModel", "TITAN_V", "PerfCounters"]


@dataclass
class PerfCounters:
    """Work counted while simulating kernel execution."""

    cells: int = 0
    diag_steps: int = 0  # anti-diagonal steps executed (summed over blocks)
    stripes: int = 0
    kernel_launches: int = 0
    global_reads: int = 0  # coalesced transactions
    global_writes: int = 0
    shared_reads: int = 0
    shared_writes: int = 0
    block_waves: int = 0  # SM occupancy waves across all launches

    def merge(self, other: "PerfCounters"):
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))


@dataclass(frozen=True)
class DeviceModel:
    """Throughput model of one CUDA device."""

    name: str
    sms: int  # streaming multiprocessors
    block_threads: int  # threads per block == stripe height
    clock_hz: float
    cycles_per_lane_step: float  # intra-sequence: cost of one diagonal step lane
    cycles_per_cell_thread: float  # inter-sequence: cost per cell, thread-parallel
    affine_factor: float  # extra E/F traffic slowdown
    global_tx_cycles: float  # cycles per global-memory transaction
    launch_overhead_s: float  # host-side kernel launch latency
    watts: float

    def block_seconds(self, diag_steps: int, affine: bool) -> float:
        """Time for one block to execute ``diag_steps`` stripe steps."""
        factor = self.affine_factor if affine else 1.0
        return (
            diag_steps * self.block_threads * self.cycles_per_lane_step * factor
        ) / (self.block_threads * self.clock_hz)

    def batch_seconds(self, cells: int, affine: bool) -> float:
        """Time for an inter-sequence batch of ``cells`` total DP cells."""
        factor = self.affine_factor if affine else 1.0
        return (
            cells * self.cycles_per_cell_thread * factor
            / (self.sms * self.block_threads * self.clock_hz)
        )

    def memory_seconds(self, transactions: int) -> float:
        return transactions * self.global_tx_cycles / (self.sms * self.clock_hz)


#: Titan V calibration (80 SMs, 64-thread blocks, ~1.455 GHz).
#: cycles_per_lane_step: 80·64·1.455e9 / (189e9/0.67 stripe utilisation at
#: 128-wide tiles) ≈ 26.4.  cycles_per_cell_thread: 80·64·1.455e9/241e9 ≈ 30.9.
TITAN_V = DeviceModel(
    name="Titan V",
    sms=80,
    block_threads=64,
    clock_hz=1.455e9,
    cycles_per_lane_step=26.4,
    cycles_per_cell_thread=30.9,
    affine_factor=1.086,
    global_tx_cycles=8.0,
    launch_overhead_s=5e-6,
    watts=250.0,
)
