"""Guest Linux kernel substrate.

A functional model of the Linux services the experiments exercise:
processes and fork/exec, a CFS-style runqueue, a RAM filesystem, pipes,
sockets with a flow-level TCP model, and loadable modules including
IPVS (§5.7).  The §5.3 DNAT port forwarding is a per-request platform
cost (``Platform.net_request_extra_ns``), not a rule table.

The same :class:`~repro.guest.kernel.GuestKernel` backs three roles:

* the shared host kernel under Docker/gVisor;
* the per-VM guest kernel of Xen-Containers and Clear Containers;
* the X-LibOS's service backend (with a hypercall MMU and a
  single-concern-tuned :class:`~repro.guest.config.KernelConfig`).
"""

from repro.guest.config import KernelConfig
from repro.guest.kernel import GuestKernel
from repro.guest.process import AddressSpace, Process, ProcessState
from repro.guest.sched import RunQueue
from repro.guest.vfs import RamFS
from repro.guest.pipe import Pipe
from repro.guest.modules import ModuleRegistry, ModuleLoadError
from repro.guest.netstack import NetStack, NetDevice
from repro.guest.ipvs import IPVS, IpvsMode
from repro.guest.socket import SocketLayer, VirtualNetwork
from repro.guest.minidb import MiniDB

__all__ = [
    "KernelConfig",
    "GuestKernel",
    "AddressSpace",
    "Process",
    "ProcessState",
    "RunQueue",
    "RamFS",
    "Pipe",
    "ModuleRegistry",
    "ModuleLoadError",
    "NetStack",
    "NetDevice",
    "IPVS",
    "IpvsMode",
    "SocketLayer",
    "VirtualNetwork",
    "MiniDB",
]
