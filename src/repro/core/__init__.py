"""The paper's primary contribution: the X-Containers platform.

* :mod:`repro.core.vsyscall` — the vsyscall page holding the system-call
  entry table that patched binaries call through (§4.4);
* :mod:`repro.core.abom` — the Automatic Binary Optimization Module: the
  online ``syscall``→``call`` rewriter (§4.4, Fig 2);
* :mod:`repro.core.offline` — the offline patching tool: rewrites the
  symbol-listed sites ABOM cannot recognize (the MySQL/libpthread case
  of Table 1);
* :mod:`repro.core.xkernel` — the X-Kernel: Xen modified to forward
  syscalls without address-space isolation, host ABOM, and fix #UD traps
  from jumps into patched call tails (§4.2);
* :mod:`repro.core.xlibos` — the X-LibOS: the guest Linux turned LibOS,
  with lightweight syscall dispatch and user-mode iret/sysret (§4.2–4.4);
* :mod:`repro.core.xcontainer` — the X-Container runtime object, with
  checkpoint/restore in the :mod:`repro.xen.migration` format;
* :mod:`repro.core.docker_wrapper` — Docker-image bootstrap (§4.5);
* :mod:`repro.core.engine` — the hybrid fleet engine: parked domains
  fast-forward between ``post_work`` wake kicks;
* :mod:`repro.core.tcb` — the §3.4 isolation TCB / attack-surface table.
"""

from repro.core.vsyscall import VsyscallPage, VSYSCALL_BASE
from repro.core.abom import ABOM, AbomStats
from repro.core.offline import OfflinePatcher
from repro.core.xkernel import XKernel
from repro.core.xlibos import XLibOS, CountingServices
from repro.core.xcontainer import XContainer
from repro.core.docker_wrapper import DockerWrapper, DockerImage
from repro.core import tcb

__all__ = [
    "VsyscallPage",
    "VSYSCALL_BASE",
    "ABOM",
    "AbomStats",
    "OfflinePatcher",
    "XKernel",
    "XLibOS",
    "CountingServices",
    "XContainer",
    "DockerWrapper",
    "DockerImage",
    "tcb",
]
