"""Flow-level network stack.

Models the *CPU cost* of network service, which is what the closed-loop
throughput experiments need: every request/response pair costs TCP/IP
processing (scaled by the kernel's tuning factor), a device traversal
(which is where the platforms differ — bridge+veth, netfront/netback,
gVisor's Go netstack, nested virtio), and per-byte copy/NIC time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.faults import sites as fault_sites
from repro.faults.retry import RetryPolicy
from repro.guest.config import KernelConfig
from repro.perf.costs import CostModel


class NetstackTimeout(OSError):
    """Every retransmission of a segment was lost; the connection reset."""


class NetDevice(enum.Enum):
    """How packets get in and out of the serving kernel."""

    #: veth + bridge on the host kernel (Docker).
    BRIDGE = "bridge"
    #: Xen split driver (Xen-Containers, X-Containers).
    NETFRONT = "netfront"
    #: gVisor's user-space Go netstack.
    GVISOR = "gvisor"
    #: virtio-net inside a nested VM (Clear Containers).
    NESTED_VIRTIO = "nested-virtio"
    #: Direct NIC access (the bare-metal LibOS comparisons, Fig 6).
    DIRECT = "direct"
    #: Same-kernel loopback — no device traversal at all (the
    #: Dedicated&Merged configuration of Fig 6c).
    LOOPBACK = "loopback"


@dataclass
class NetStats:
    requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    connections: int = 0
    retransmits: int = 0
    duplicates: int = 0
    reorders: int = 0


#: Device → (CostModel attribute, multiplier).  Module-level so
#: :meth:`NetStack.device_cost_ns` does not rebuild a dict per call —
#: that rebuild was ~24% of the functional HTTP request path.
_DEVICE_BASE: dict[NetDevice, tuple[str | None, float]] = {
    NetDevice.BRIDGE: ("bridge_hop_ns", 1.0),
    NetDevice.NETFRONT: ("netfront_ns", 1.0),
    NetDevice.GVISOR: ("gvisor_netstack_ns", 1.0),
    NetDevice.NESTED_VIRTIO: ("nested_virtio_ns", 1.0),
    NetDevice.DIRECT: ("bridge_hop_ns", 0.5),
    NetDevice.LOOPBACK: (None, 0.0),
}


@dataclass
class NetStack:
    """Per-kernel network stack cost model."""

    costs: CostModel = field(default_factory=CostModel)
    config: KernelConfig = field(default_factory=KernelConfig)
    device: NetDevice = NetDevice.BRIDGE
    #: Extra multiplier from virtualization layers below the device
    #: (Xen-Blanket in clouds, for instance).
    io_overhead_factor: float = 1.0
    stats: NetStats = field(default_factory=NetStats)
    #: Optional :class:`repro.faults.plan.FaultEngine`; ``None`` keeps the
    #: per-request hook a single attribute test.
    faults: object | None = None
    #: Retransmission budget: how many times one exchange's segments may
    #: be lost before the connection resets.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Memoized ``(device, io_overhead_factor, cost)`` — recomputed only
    #: when either key changes, never per request.
    _device_cache: tuple = field(
        default=(None, None, 0.0), repr=False, compare=False
    )
    #: Memoized ``(config, stack_base, wire_per_byte)`` — the per-request
    #: scalar factors, recomputed only when :attr:`config` is swapped
    #: (``CostModel`` is frozen, ``KernelConfig`` tuning is set at boot).
    _scalar_cache: tuple = field(
        default=(None, 0.0, 0.0), repr=False, compare=False
    )

    def _scalars(self) -> tuple[float, float]:
        config, stack_base, wire_per_byte = self._scalar_cache
        if config is self.config:
            return stack_base, wire_per_byte
        stack_base = self.costs.host_netstack_ns * self.config.netstack_factor()
        wire_per_byte = self.costs.net_per_byte_ns + self.costs.copy_per_byte_ns
        self._scalar_cache = (self.config, stack_base, wire_per_byte)
        return stack_base, wire_per_byte

    def device_cost_ns(self) -> float:
        device, factor, value = self._device_cache
        if device is self.device and factor == self.io_overhead_factor:
            return value
        attr, mult = _DEVICE_BASE[self.device]
        base = getattr(self.costs, attr) * mult if attr is not None else 0.0
        value = base * self.io_overhead_factor
        self._device_cache = (self.device, self.io_overhead_factor, value)
        return value

    def request_response_cost_ns(
        self, bytes_in: int, bytes_out: int, intensity: float = 1.0
    ) -> float:
        """CPU cost of serving one request/response pair.

        ``intensity`` scales the per-request TCP/IP work: key-value stores
        with tiny pipelined segments do less stack work per operation than
        a full HTTP exchange.
        """
        if bytes_in < 0 or bytes_out < 0:
            raise ValueError("negative payload size")
        if intensity <= 0:
            raise ValueError(f"intensity must be positive: {intensity}")
        stack_base, wire_per_byte = self._scalars()
        stack = stack_base * intensity
        if self.device is NetDevice.LOOPBACK:
            stack *= 0.45  # no checksums, no qdisc, no NIC interaction
        wire = (bytes_in + bytes_out) * wire_per_byte
        cost = stack + self.device_cost_ns() + wire
        if self.faults is not None:
            cost += self._packet_faults_cost_ns(
                cost, nbytes=bytes_in + bytes_out
            )
        self.stats.requests += 1
        self.stats.bytes_in += bytes_in
        self.stats.bytes_out += bytes_out
        return cost

    def _packet_faults_cost_ns(self, exchange_ns: float, nbytes: int) -> float:
        """Injected loss/duplication/reordering for one exchange.

        A drop costs a retransmission timeout plus a full resend — and the
        resend is itself subject to loss, bounded by :attr:`retry`; budget
        exhaustion resets the connection (:class:`NetstackTimeout`).
        Duplicates and reorders only add spurious processing work.
        """
        extra = 0.0
        losses = 0
        while True:
            fault = self.faults.fire(fault_sites.NET_PACKET, bytes=nbytes)
            if fault is None:
                if losses:
                    self.faults.record_recovered(
                        fault_sites.NET_PACKET, retransmits=losses
                    )
                return extra
            if fault.kind == "drop":
                losses += 1
                self.stats.retransmits += 1
                if losses >= self.retry.max_attempts:
                    self.faults.record_fatal(
                        fault_sites.NET_PACKET, retransmits=losses
                    )
                    raise NetstackTimeout(
                        f"segment lost {losses} times; connection reset"
                    )
                self.faults.record_retry(fault_sites.NET_PACKET)
                # RTO wait plus the full resend of the segment train.
                extra += self.retry.backoff_ns(losses) + exchange_ns
                continue
            if fault.kind == "duplicate":
                self.stats.duplicates += 1
                self.faults.record_recovered(
                    fault_sites.NET_PACKET, kind="duplicate"
                )
                # The dup is recognized by sequence number and dropped.
                extra += exchange_ns * 0.1
            elif fault.kind == "reorder":
                self.stats.reorders += 1
                self.faults.record_recovered(
                    fault_sites.NET_PACKET, kind="reorder"
                )
                # Out-of-order queueing until the gap fills.
                extra += exchange_ns * 0.25
            if losses:
                self.faults.record_recovered(
                    fault_sites.NET_PACKET, retransmits=losses
                )
            return extra

    def connection_setup_cost_ns(self) -> float:
        self.stats.connections += 1
        return self.costs.tcp_handshake_ns + self.device_cost_ns()

    def bulk_transfer_cost_ns(self, nbytes: int, mtu: int = 1448) -> float:
        """CPU cost of a bulk stream (iperf): per-segment device+stack
        costs amortized by segmentation offload plus per-byte time."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        segments = max(1, nbytes // (mtu * 16))  # GSO batches ~16 MSS
        per_segment = (
            self.costs.host_netstack_ns * 0.25
            * self.config.netstack_factor()
            + self.device_cost_ns() * 0.5
        )
        wire = nbytes * (
            self.costs.net_per_byte_ns + self.costs.copy_per_byte_ns
        )
        self.stats.bytes_out += nbytes
        return segments * per_segment + wire
