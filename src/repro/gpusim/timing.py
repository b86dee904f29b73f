"""Cost model for simulated GPU execution.

Times are derived from the device description:

* transfer:  ``latency + bytes / pcie_bandwidth``  (synchronous; the
  paper's GPUs could not overlap copy and compute); a device-to-device
  copy costs :meth:`~repro.gpusim.DeviceGroup.peer_time` instead
* kernel:    ``launch_overhead + max(compute-bound, memory-bound)`` where
  compute-bound is ``flops / (peak_flops * efficiency)`` and memory-bound
  is ``bytes_accessed / internal_bandwidth`` — a roofline model.

Absolute numbers are *calibrated*, not measured: the reproduction claims
shape (ratios, crossovers, feasibility boundaries), exactly the quantities
that depend only on transfer volumes and footprints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import FLOAT_BYTES, GpuDevice, HostSystem


@dataclass(frozen=True)
class CostModel:
    """Analytic timing for one (device, host) pair."""

    device: GpuDevice
    host: HostSystem | None = None

    # -- transfers ----------------------------------------------------------
    def transfer_time(self, nbytes: int) -> float:
        """Host<->device copy time (either direction) in seconds."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.device.pcie_latency + nbytes / self.device.pcie_bandwidth

    def transfer_time_floats(self, nfloats: int) -> float:
        return self.transfer_time(nfloats * FLOAT_BYTES)

    # -- kernels --------------------------------------------------------------
    def kernel_time(self, flops: float, bytes_accessed: float) -> float:
        """Roofline kernel duration plus launch overhead."""
        if flops < 0 or bytes_accessed < 0:
            raise ValueError("flops/bytes must be non-negative")
        compute = flops / (self.device.peak_flops * self.device.compute_efficiency)
        memory = bytes_accessed / self.device.internal_bandwidth
        return self.device.launch_overhead + max(compute, memory)

    # -- host-side staging -----------------------------------------------------
    def host_copy_time(self, nbytes: int, working_set_bytes: int = 0) -> float:
        """Host-side copy (split/concat staging), with paging penalty.

        When the host working set exceeds physical RAM the OS pages, and
        the paper observes erratic, much slower behaviour (Table 2, large
        CNN on the 8800 GTX).  We model that as a multiplicative penalty.
        """
        if self.host is None:
            return 0.0
        t = nbytes / self.host.memory_bandwidth
        if working_set_bytes > self.host.memory_bytes:
            t *= self.host.paging_penalty
        return t

    def thrashing(self, working_set_bytes: int) -> bool:
        """True when the host working set no longer fits in RAM."""
        return self.host is not None and working_set_bytes > self.host.memory_bytes


class SharedBus:
    """Serialization point for N devices sharing one PCIe link.

    A transfer requested at time ``ready`` begins no earlier than the
    bus is free; ``acquire`` returns the actual (begin, end) window and
    advances the bus.  The synchronous step loops of
    :mod:`repro.runtime.executor` put every host<->device copy of a
    ``shared_bus`` :class:`~repro.gpusim.DeviceGroup` through one bus;
    with one device it degenerates to the unshared link (a device's own
    copies never overlap, so begin == ready).
    """

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.total_busy = 0.0

    def acquire(self, ready: float, duration: float) -> tuple[float, float]:
        begin = max(ready, self.busy_until)
        end = begin + duration
        self.busy_until = end
        self.total_busy += duration
        return begin, end
