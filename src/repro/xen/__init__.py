"""Xen paravirtualization substrate (§4.1).

The pieces of the Xen PV architecture that the paper builds on and that the
baselines (Xen-Container / LightVM, Xen PV & HVM instances in Fig 8) need:

* :mod:`repro.xen.hypervisor` — domains, the stock PV syscall bounce
  (page-table switch + TLB flush both ways on x86-64), XPTI patch state;
* :mod:`repro.xen.hypercalls` — the hypercall table with per-call costs;
* :mod:`repro.xen.events` — event channels (virtualized interrupts);
* :mod:`repro.xen.grant_table` — shared-memory grants for split drivers;
* :mod:`repro.xen.drivers` — the netfront/netback split driver model;
* :mod:`repro.xen.scheduler` — the credit vCPU scheduler (Fig 8);
* :mod:`repro.xen.toolstack` — ``xl`` domain lifecycle timing (§4.5).
"""

from repro.xen.hypervisor import Domain, DomainKind, XenHypervisor
from repro.xen.events import EventChannelTable
from repro.xen.grant_table import GrantTable
from repro.xen.drivers import (
    BackendDeadError,
    NotificationLost,
    RingStats,
    SplitNetDriver,
)
from repro.xen.scheduler import CreditScheduler, VCpu
from repro.xen.toolstack import Toolstack
from repro.xen.migration import (
    Checkpoint,
    LiveMigration,
    MigrationReport,
    checkpoint_memory,
    restore_memory,
)
from repro.xen.blkdev import BlockStats, BlockStore, SplitBlockDriver
from repro.xen.remus import RemusReplicator

__all__ = [
    "Domain",
    "DomainKind",
    "XenHypervisor",
    "EventChannelTable",
    "GrantTable",
    "SplitNetDriver",
    "RingStats",
    "BackendDeadError",
    "NotificationLost",
    "CreditScheduler",
    "VCpu",
    "Toolstack",
    "Checkpoint",
    "LiveMigration",
    "MigrationReport",
    "checkpoint_memory",
    "restore_memory",
    "BlockStats",
    "BlockStore",
    "SplitBlockDriver",
    "RemusReplicator",
]
