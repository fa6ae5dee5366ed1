"""Loadable kernel modules (§5.7).

    "The X-Containers platform enables applications that require customized
     kernel modules to run in containers ... In Docker environments, such
     modules require root privilege and expose the host network to the
     container directly, raising security concerns."
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Modules the substrate knows how to model.
KNOWN_MODULES = {
    "ip_vs": "IP Virtual Server (kernel-level load balancing)",
    "ip_vs_rr": "IPVS round-robin scheduler",
    "rdma_rxe": "Soft-RoCE software RDMA",
    "siw": "Soft-iWARP software RDMA",
    "nf_nat": "netfilter NAT engine",
}


class ModuleLoadError(PermissionError):
    pass


@dataclass
class ModuleRegistry:
    """Tracks which modules a kernel instance has loaded."""

    #: False inside a Docker container: no root on the host kernel.
    allowed: bool = True
    loaded: set[str] = field(default_factory=set)

    def load(self, name: str) -> None:
        if name not in KNOWN_MODULES:
            raise KeyError(f"unknown module {name!r}")
        if not self.allowed:
            raise ModuleLoadError(
                f"loading {name!r} requires root privilege on the host "
                "kernel, which containers do not have"
            )
        self.loaded.add(name)

    def is_loaded(self, name: str) -> bool:
        return name in self.loaded

    def require(self, name: str) -> None:
        if not self.is_loaded(name):
            raise ModuleLoadError(f"module {name!r} is not loaded")
