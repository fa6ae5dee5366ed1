"""Guest Linux kernel substrate.

A functional model of the Linux services the experiments exercise:
processes and fork/exec, a CFS-style runqueue, a RAM filesystem, pipes,
signals, sockets with a flow-level TCP model, netfilter DNAT (the port
forwarding of §5.3), and loadable modules including IPVS (§5.7).

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
from repro.guest.netfilter import Netfilter
from repro.guest.ipvs import IPVS, IpvsMode
from repro.guest.signals import Disposition, SignalSubsystem
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
    "Netfilter",
    "IPVS",
    "IpvsMode",
    "Disposition",
    "SignalSubsystem",
    "SocketLayer",
    "VirtualNetwork",
    "MiniDB",
]
