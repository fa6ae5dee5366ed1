"""Calibrated cost model.

Every nanosecond constant used anywhere in the simulator lives here.  The
paper's testbed (EC2 ``c4.2xlarge``, GCE custom instances, Dell R720s) is not
available, so absolute values are *synthetic but physically plausible*; each
constant is annotated with the mechanism it models and, where applicable, the
paper ratio it anchors.  Calibration tests (``tests/experiments``) assert the
paper's qualitative shapes, never absolute numbers.

The constants are grouped by mechanism:

* **kernel crossings** — native syscall traps, Meltdown/KPTI page-table
  switches, Xen PV syscall bounces, gVisor ptrace stops, function-call
  syscalls (the paper's headline mechanism);
* **context switches** — process switches, vCPU switches, TLB flushes,
  hypercalls for page-table updates;
* **process lifecycle** — fork / exec costs and their page-table components;
* **memory & I/O** — copies, VFS ops, pipe ops;
* **networking** — host stack, iptables DNAT, Xen split drivers, gVisor
  netstack, nested virtio;
* **spawning** — container/VM instantiation (§4.5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineSpec:
    """A physical or virtual machine hosting the experiments."""

    name: str
    cores: int
    threads: int
    memory_gb: float
    ghz: float = 2.9
    #: multiplicative jitter applied by the cloud model (1.0 = the
    #: calibration reference machine).
    speed_factor: float = 1.0

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.ghz


@dataclass(frozen=True)
class CostModel:
    """All simulated costs, in nanoseconds unless stated otherwise."""

    # ------------------------------------------------------------------
    # Kernel crossings
    # ------------------------------------------------------------------
    #: ``syscall`` into a shared host Linux kernel with the usual mitigation
    #: set but WITHOUT the Meltdown/KPTI patch (Docker-unpatched).
    native_syscall_ns: float = 80.0
    #: Extra cost per syscall under KPTI (CR3 switch in and out plus the TLB
    #: refills it causes).  Anchors the patched-vs-unpatched Docker gap in
    #: Fig 4.
    kpti_syscall_extra_ns: float = 420.0
    #: x86-64 Xen PV syscall: trap into Xen, virtual-exception forward into
    #: the guest kernel in a *separate address space* — page-table switch and
    #: full TLB flush on entry and exit (§4.1).  Anchors Xen-Container being
    #: far below Docker in Fig 4.
    xen_pv_syscall_ns: float = 1500.0
    #: Extra cost of the Xen Meltdown (XPTI) patch per forwarded syscall.
    xpti_syscall_extra_ns: float = 600.0
    #: gVisor ptrace interception: two ptrace stops plus Sentry dispatch per
    #: syscall.  Anchors gVisor at 7–9 % of Docker in Fig 4.
    gvisor_syscall_ns: float = 4700.0
    #: Extra per-syscall cost for gVisor on a KPTI-patched host (the ptrace
    #: hops are themselves kernel crossings).
    gvisor_kpti_extra_ns: float = 900.0
    #: Syscall inside a Clear Container guest: stripped-down, unpatched guest
    #: kernel with "most security features disabled" (§5.4).  Anchors Clear
    #: Containers ≈16× Docker-patched and X/Clear ≈ 1.6 in Fig 4.
    clear_guest_syscall_ns: float = 30.0
    #: The paper's headline mechanism: a syscall converted by ABOM into a
    #: function call through the vsyscall entry table (§4.4).  Anchors the
    #: up-to-27× claim in Fig 4.
    xc_func_call_syscall_ns: float = 18.5
    #: An *unconverted* X-Container syscall: traps to the X-Kernel which
    #: immediately transfers to the X-LibOS in the SAME address space — no
    #: page-table switch, no TLB flush (§4.2).
    xc_forwarded_syscall_ns: float = 260.0
    #: Graphene LibOS syscall: library call plus PAL indirection and the
    #: host-kernel exits the PAL still performs.  Anchors X ≈ 2× Graphene
    #: with one NGINX worker (Fig 6a).
    graphene_syscall_ns: float = 900.0
    #: Graphene IPC round-trip used to coordinate the shared POSIX state
    #: between processes (§5.5 / §6.2).  Anchors Graphene losing ≥50 % with
    #: 4 NGINX workers in Fig 6b.
    graphene_ipc_ns: float = 12000.0
    #: Unikernel (Rumprun) syscall: direct function call into the rump
    #: kernel.
    unikernel_syscall_ns: float = 12.0

    # ------------------------------------------------------------------
    # Context switches, TLB, hypercalls
    # ------------------------------------------------------------------
    #: Linux process context switch (register state + CR3 + scheduler).
    ctx_switch_process_ns: float = 1500.0
    #: Extra process-switch cost on a KPTI-patched kernel (shadow page
    #: tables touch more state).
    ctx_switch_kpti_extra_ns: float = 250.0
    #: A validated hypercall into Xen / the X-Kernel (trap + validation).
    hypercall_ns: float = 550.0
    #: Page-table update batch submitted via hypercall (mmu_update).  Process
    #: switches and fork inside an X-Container pay this; anchors X-Container
    #: losing Process Creation and Context Switching in Fig 5 (§5.4).
    pt_update_hypercall_ns: float = 800.0
    #: vCPU context switch in the hypervisor credit scheduler (full flush).
    vcpu_switch_ns: float = 3000.0
    #: Full TLB flush (non-global entries).
    tlb_flush_ns: float = 300.0
    #: TLB refill cost after a kernel-range flush — avoided by X-LibOS's
    #: global-bit mapping on intra-container switches (§4.3).
    tlb_kernel_refill_ns: float = 350.0
    #: Nested hardware virtualization: a VM exit handled by L1+L0 (Clear
    #: Containers on GCE).  Anchors Clear Containers' macro penalty (Fig 3).
    nested_vmexit_ns: float = 9000.0
    #: Cache/TLB pollution per runnable task on a flat runqueue: with 4N
    #: processes on one shared kernel, every switch lands on a colder
    #: cache.  This linear term is what makes Docker's throughput decay
    #: faster than hierarchical scheduling in Fig 8 (§5.6).
    cache_pollution_per_task_ns: float = 18.0
    #: Round-trip wall latency between two containers/VMs on one host
    #: (event-channel wakeup + scheduling + two stack traversals).  A
    #: synchronous PHP→MySQL query blocks on this (Fig 6c).
    inter_vm_rtt_ns: float = 280000.0
    #: Same-kernel loopback round trip (the Dedicated&Merged case).
    loopback_rtt_ns: float = 25000.0

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    #: Base cost of ``fork`` excluding page-table copying.
    fork_base_ns: float = 45000.0
    #: Copying / COW-marking one page-table page during ``fork``.
    fork_per_pt_page_ns: float = 420.0
    #: Base cost of ``execve`` (binary load, mapping setup).
    exec_base_ns: float = 220000.0
    #: Page-table pages touched by a typical UnixBench child.
    default_pt_pages: int = 48

    # ------------------------------------------------------------------
    # Memory & I/O
    # ------------------------------------------------------------------
    #: Per-byte memcpy cost (~30 GB/s).
    copy_per_byte_ns: float = 0.033
    #: VFS operation (path lookup, dentry/inode work) beyond the crossing.
    vfs_op_ns: float = 300.0
    #: Per-operation pipe buffer management beyond the crossing and copy.
    pipe_op_ns: float = 120.0

    # ------------------------------------------------------------------
    # Networking (per request unless stated)
    # ------------------------------------------------------------------
    #: Host kernel TCP/IP work for one request/response pair.
    host_netstack_ns: float = 3800.0
    #: iptables DNAT port-forwarding cost per request (both platforms use it
    #: to expose servers, §5.3).
    iptables_dnat_ns: float = 700.0
    #: Linux bridge / veth hop per request.
    bridge_hop_ns: float = 500.0
    #: Xen split-driver (netfront/netback) cost per request: grant mapping,
    #: event channel, copy through the ring (amortized by ring batching).
    #: Paid by Xen-Containers and X-Containers.
    netfront_ns: float = 1200.0
    #: Fixed cost of servicing one split-driver ring *batch*: the single
    #: event-channel kick, the one shared pending-flag check, and the ring
    #: push/reap bookkeeping.  Calibration invariant (asserted by
    #: ``tests/xen/test_batching.py``): ``ring_batch_fixed_ns +
    #: ring_per_desc_ns == netfront_ns`` so a batch of one descriptor
    #: costs exactly the legacy per-request price and the Fig 3/8/9
    #: shapes are unchanged.
    ring_batch_fixed_ns: float = 900.0
    #: Marginal cost per ring descriptor within a batch (grant-reference
    #: bookkeeping plus one descriptor read/write on the shared ring).
    ring_per_desc_ns: float = 300.0
    #: gVisor's user-space Go netstack per request.
    gvisor_netstack_ns: float = 9000.0
    #: Clear Containers' virtio-net inside a nested VM per request.
    nested_virtio_ns: float = 5200.0
    #: Per-byte wire/NIC cost (~10 Gbit/s).
    net_per_byte_ns: float = 0.08
    #: TCP connection establishment (3-way handshake CPU cost).
    tcp_handshake_ns: float = 6000.0

    # ------------------------------------------------------------------
    # Kernel-dedication efficiency (§3.2): a LibOS dedicated to one
    # application can disable SMP locking, tune the scheduler, etc.  These
    # multipliers scale the *kernel work* component of a workload.
    # ------------------------------------------------------------------
    #: Shared general-purpose host kernel (reference).
    shared_kernel_efficiency: float = 1.0
    #: X-LibOS tuned for a single concern (no cross-application locking,
    #: tailored config).  Anchors the macro wins in Fig 3 together with the
    #: syscall conversion.
    xlibos_efficiency: float = 0.62
    #: Unmodified guest Linux in a Xen-Container (no tuning, PV overheads
    #: inside the guest too).
    xen_guest_efficiency: float = 1.08
    #: Clear Containers' minimal guest kernel.
    clear_guest_efficiency: float = 0.88
    #: gVisor Sentry re-implementation of kernel services in Go.
    gvisor_efficiency: float = 2.6
    #: Rumprun (NetBSD-derived) kernel: competitive for static serving but
    #: slower than Linux for database-style work (§5.5).
    rumprun_efficiency: float = 1.25
    #: Graphene's shared POSIX library implementation.
    graphene_efficiency: float = 1.5

    # ------------------------------------------------------------------
    # Spawning (§4.5), in milliseconds
    # ------------------------------------------------------------------
    #: X-LibOS boot with the special bootloader straight into one process.
    xlibos_boot_ms: float = 180.0
    #: Overhead of Xen's stock ``xl`` toolstack per domain creation.
    xl_toolstack_ms: float = 2820.0
    #: LightVM-style streamlined toolstack (§4.5 cites 4 ms).
    lightvm_toolstack_ms: float = 4.0
    #: Docker container start (runc, namespaces, overlay mounts).
    docker_spawn_ms: float = 650.0
    #: Full Ubuntu guest boot inside a Xen VM.
    vm_boot_ms: float = 28000.0

    # ------------------------------------------------------------------
    # Interpreter accounting
    # ------------------------------------------------------------------
    #: Charged per retired instruction by the ``repro.arch`` CPU interpreter
    #: (≈2 IPC at 2.9 GHz — only relative magnitudes matter).
    instruction_ns: float = 0.17
    #: ABOM patch application (pattern check + cmpxchg writes); paid once
    #: per patched site (§4.4: "only needs to be performed once").
    abom_patch_ns: float = 2200.0
    #: #UD fixup in the X-Kernel for a jump into a patched call's tail.
    ud_fixup_ns: float = 1800.0

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every time cost multiplied by ``factor``.

        Used by the cloud model to express that e.g. GCE's cores differ
        slightly from EC2's.  Counts (``default_pt_pages``) and efficiency
        multipliers are left untouched.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        unscaled = {
            "default_pt_pages",
            "shared_kernel_efficiency",
            "xlibos_efficiency",
            "xen_guest_efficiency",
            "clear_guest_efficiency",
            "gvisor_efficiency",
            "rumprun_efficiency",
            "graphene_efficiency",
        }
        updates = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
            if name not in unscaled
        }
        return replace(self, **updates)


#: The reference cost model used when an experiment does not ask for a
#: cloud-specific variant.
DEFAULT_COSTS = CostModel()


# Machines from §5.1 of the paper.
EC2_C4_2XLARGE = MachineSpec(
    name="ec2-c4.2xlarge", cores=4, threads=8, memory_gb=15.0, ghz=2.9,
    speed_factor=1.0,
)
GCE_CUSTOM = MachineSpec(
    name="gce-custom-4c8t", cores=4, threads=8, memory_gb=16.0, ghz=2.6,
    speed_factor=0.94,
)
DELL_R720 = MachineSpec(
    name="dell-r720", cores=16, threads=32, memory_gb=96.0, ghz=2.9,
    speed_factor=1.05,
)
