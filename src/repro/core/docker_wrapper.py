"""Docker wrapper and bootloader (§4.5).

    "To bootstrap an X-Container, the Docker Wrapper loads an X-LibOS with
     a Docker image and a special bootloader.  The bootloader spawns the
     processes of the container directly without running any unnecessary
     services."

The wrapper models the spawn path and its costs: an X-LibOS boots in about
180 ms, but Xen's stock ``xl`` toolstack inflates total instantiation to
about 3 s; the LightVM-style toolstack cuts that to ~4 ms (both §4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices, SyscallServices
from repro.perf.clock import SimClock
from repro.perf.costs import CostModel


@dataclass
class DockerImage:
    """A container image: name, entrypoint, and process layout."""

    name: str
    entrypoint: str = "/bin/app"
    #: Processes the bootloader spawns (NGINX workers etc.).
    processes: int = 1
    env: dict[str, str] = field(default_factory=dict)


@dataclass
class SpawnTiming:
    """Breakdown of one container instantiation, in milliseconds."""

    toolstack_ms: float
    boot_ms: float
    bootloader_ms: float

    @property
    def total_ms(self) -> float:
        return self.toolstack_ms + self.boot_ms + self.bootloader_ms


class DockerWrapper:
    """Bootstraps Docker images as X-Containers."""

    def __init__(
        self,
        costs: CostModel | None = None,
        clock: SimClock | None = None,
        fast_toolstack: bool = False,
    ) -> None:
        self.costs = costs or CostModel()
        self.clock = clock if clock is not None else SimClock()
        #: LightVM's streamlined toolstack "can be also applied to
        #: X-Containers" (§4.5) — off by default, matching the prototype.
        self.fast_toolstack = fast_toolstack
        self.spawned: list[tuple[DockerImage, SpawnTiming]] = []

    def spawn(
        self,
        image: DockerImage,
        services: SyscallServices | None = None,
        vcpus: int = 1,
        memory_mb: int = 128,
        abom_enabled: bool = True,
    ) -> tuple[XContainer, SpawnTiming]:
        """Create an X-Container from ``image`` and charge spawn time."""
        toolstack_ms = (
            self.costs.lightvm_toolstack_ms
            if self.fast_toolstack
            else self.costs.xl_toolstack_ms
        )
        # The special bootloader execs the container processes directly —
        # no init, no getty, no services; ~2 ms per extra process spawned.
        bootloader_ms = 2.0 * image.processes
        timing = SpawnTiming(
            toolstack_ms=toolstack_ms,
            boot_ms=self.costs.xlibos_boot_ms,
            bootloader_ms=bootloader_ms,
        )
        self.clock.advance(timing.total_ms * 1e6)
        container = XContainer(
            services if services is not None else CountingServices(),
            self.costs,
            self.clock,
            abom_enabled=abom_enabled,
            name=f"xc-{image.name}-{len(self.spawned)}",
            vcpus=vcpus,
            memory_mb=memory_mb,
        )
        self.spawned.append((image, timing))
        return container, timing

    def ordinary_vm_spawn_ms(self) -> float:
        """What booting the same image as a full VM would cost (§4.5)."""
        return self.costs.xl_toolstack_ms + self.costs.vm_boot_ms
