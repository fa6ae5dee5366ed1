"""Trusted computing base and attack-surface accounting (§3.4).

    "X-Containers, in contrast, rely on a small X-Kernel that is
     specifically dedicated to providing isolation.  The X-Kernel has a
     small TCB and a small number of hypervisor calls that lead to a
     smaller number of vulnerabilities in practice."

This module quantifies the claim for every platform: what code a tenant
must trust for *inter-container isolation*, and how many interfaces the
tenant can drive against that code.  Component sizes are public
order-of-magnitude figures for the paper's era (Linux 4.x, Xen 4.x,
gVisor 2018); what matters — and what the tests assert — are the ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xen.hypercalls import LINUX_SYSCALL_SURFACE, XEN_HYPERCALL_SURFACE

#: Order-of-magnitude component sizes (thousands of lines of code).
COMPONENT_KLOC = {
    "linux-kernel": 17000,
    "xen-core": 300,
    "x-kernel-delta": 15,  # the paper's modifications are small
    "gvisor-sentry": 200,
    "kvm": 60,
    "qemu-lite": 250,
    "graphene-libos": 35,
    "rumprun": 100,
}

#: Syscall subset gVisor's host filter still exposes to the Sentry.
GVISOR_HOST_SURFACE = 70
#: KVM's ioctl/VM-exit interface.
KVM_SURFACE = 50


@dataclass(frozen=True)
class IsolationProfile:
    """What a tenant must trust to stay isolated from its neighbours."""

    platform: str
    #: Components on the isolation boundary (inside the TCB).
    tcb_components: tuple[str, ...]
    #: Number of distinct interfaces a tenant can invoke against the TCB.
    attack_surface: int
    notes: str = ""

    @property
    def tcb_kloc(self) -> int:
        return sum(COMPONENT_KLOC[c] for c in self.tcb_components)


#: §3 / Figure 1: who stands between two mutually-untrusting containers.
PROFILES: dict[str, IsolationProfile] = {
    "docker": IsolationProfile(
        "docker",
        ("linux-kernel",),
        LINUX_SYSCALL_SURFACE,
        "containers share the full monolithic host kernel",
    ),
    "gvisor": IsolationProfile(
        "gvisor",
        ("gvisor-sentry", "linux-kernel"),
        GVISOR_HOST_SURFACE,
        "the Sentry fronts the tenant but itself runs on the host "
        "kernel behind a seccomp filter",
    ),
    "clear-container": IsolationProfile(
        "clear-container",
        ("kvm", "qemu-lite", "linux-kernel"),
        KVM_SURFACE,
        "VM isolation, but KVM and the device model live in the host "
        "kernel/userspace",
    ),
    "xen-container": IsolationProfile(
        "xen-container",
        ("xen-core",),
        XEN_HYPERCALL_SURFACE,
        "stock Xen isolates the guests; Domain-0 runs no applications "
        "(§4.1)",
    ),
    "x-container": IsolationProfile(
        "x-container",
        ("xen-core", "x-kernel-delta"),
        XEN_HYPERCALL_SURFACE,
        "the X-Kernel: Xen plus the paper's small modifications; the "
        "X-LibOS is NOT in the isolation TCB — compromising it only "
        "compromises its own container (§3.4)",
    ),
    "graphene": IsolationProfile(
        "graphene",
        ("graphene-libos", "linux-kernel"),
        LINUX_SYSCALL_SURFACE,
        "§6.2: 'the underlying host kernel of Graphene is a full-fledged "
        "Linux kernel, which does not reduce the TCB and attack surface'",
    ),
    "unikernel": IsolationProfile(
        "unikernel",
        ("xen-core",),
        XEN_HYPERCALL_SURFACE,
        "unikernels on Xen share X-Containers' isolation story, minus "
        "compatibility",
    ),
}


def profile(platform: str) -> IsolationProfile:
    prof = PROFILES.get(platform.lower())
    if prof is None:
        raise KeyError(
            f"no isolation profile for {platform!r}; known: "
            f"{', '.join(sorted(PROFILES))}"
        )
    return prof


@dataclass
class TcbComparison:
    platform: str
    tcb_kloc: int
    attack_surface: int
    tcb_vs_docker: float
    surface_vs_docker: float


def compare_to_docker() -> list[TcbComparison]:
    """The §3.4 table: everyone's isolation TCB relative to Docker's."""
    docker = PROFILES["docker"]
    rows = []
    for name, prof in sorted(PROFILES.items()):
        rows.append(
            TcbComparison(
                platform=name,
                tcb_kloc=prof.tcb_kloc,
                attack_surface=prof.attack_surface,
                tcb_vs_docker=prof.tcb_kloc / docker.tcb_kloc,
                surface_vs_docker=(
                    prof.attack_surface / docker.attack_surface
                ),
            )
        )
    return rows
