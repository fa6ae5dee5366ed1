"""The three testbeds of §5.1 and §5.5.

* **EC2** — c4.2xlarge on a dedicated host; no nested hardware
  virtualization, so Clear Containers cannot run there;
* **GCE** — custom 4-core/8-thread instances with nested virtualization
  enabled (needed for Clear Containers, at the documented cost [15]);
* **LOCAL_CLUSTER** — the Dell R720s used for the LibOS comparisons
  (Fig 6), scalability (Fig 8) and load balancing (Fig 9).

A :class:`CloudSite` contributes a cost-model scale factor (CPU generation
and virtualization tax differ per cloud) and availability constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.costs import (
    DELL_R720,
    EC2_C4_2XLARGE,
    GCE_CUSTOM,
    CostModel,
    MachineSpec,
)


@dataclass(frozen=True)
class CloudSite:
    name: str
    machine: MachineSpec
    #: Whether nested hardware virtualization is available (Clear
    #: Containers' prerequisite).
    nested_hw_virt: bool
    #: Scale applied to all time costs on this site.
    cost_scale: float = 1.0
    #: Extra multiplier on I/O costs from the cloud's own virtualization
    #: (the Xen-Blanket / virtio layer underneath our platforms).
    io_scale: float = 1.0

    def costs(self, base: CostModel | None = None) -> CostModel:
        model = base or CostModel()
        if self.cost_scale != 1.0:
            model = model.scaled(self.cost_scale)
        return model

    def supports(self, platform) -> bool:
        """Whether ``platform`` can run on this site at all."""
        return self.nested_hw_virt or not platform.needs_nested_hw_virt


EC2 = CloudSite(
    name="amazon",
    machine=EC2_C4_2XLARGE,
    nested_hw_virt=False,
    cost_scale=1.0,
    io_scale=1.18,  # Xen-Blanket ring traversal in EC2 (§4)
)

GCE = CloudSite(
    name="google",
    machine=GCE_CUSTOM,
    nested_hw_virt=True,
    cost_scale=1.07,  # slightly slower cores in the custom instance type
    io_scale=1.12,
)

LOCAL_CLUSTER = CloudSite(
    name="local",
    machine=DELL_R720,
    nested_hw_virt=True,
    cost_scale=0.95,
    io_scale=1.0,
)
