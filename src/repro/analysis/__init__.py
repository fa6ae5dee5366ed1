"""Static binary analysis for the §4.4 safety argument.

ABOM's patch safety is inherently a *static* claim — no branch target
may land inside a patched window except the ``0x60 0xff`` tail the #UD
fixup catches, and both intermediate states of the two-phase 9-byte
rewrite must stay semantically equivalent.  The rest of the repository
exercises those properties dynamically; this package proves (or
refutes) them from the bytes alone:

* :mod:`repro.analysis.cfg` — recursive-descent disassembly and CFG
  recovery (basic blocks, edges, landing targets);
* :mod:`repro.analysis.sites` — static ``syscall`` discovery and
  :class:`~repro.arch.binary.SitePattern` classification, the site list
  the safety checks and the differential consume;
* :mod:`repro.analysis.safety` — the §4.4 window and phase-equivalence
  checks, emitting structured :class:`~repro.analysis.safety.Finding`
  records;
* :mod:`repro.analysis.differential` — static predictions diffed
  against online ABOM's actual decisions and final bytes;
* :mod:`repro.analysis.report` — the assembled per-binary report the
  ``repro analyze`` CLI and CI gate consume;
* :mod:`repro.analysis.examples` — example binaries for the CLI/CI.
"""

from repro.analysis.cfg import (
    CFG,
    BasicBlock,
    Edge,
    EdgeKind,
    recover_binary_cfg,
    recover_cfg,
)
from repro.analysis.differential import (
    DifferentialResult,
    SiteOutcome,
    run_differential,
)
from repro.analysis.report import AnalysisReport, analyze
from repro.analysis.safety import Finding, Severity, verify_sites
from repro.analysis.sites import (
    DiscoveredSite,
    discover_sites,
)

__all__ = [
    "CFG",
    "BasicBlock",
    "Edge",
    "EdgeKind",
    "recover_cfg",
    "recover_binary_cfg",
    "DiscoveredSite",
    "discover_sites",
    "Finding",
    "Severity",
    "verify_sites",
    "DifferentialResult",
    "SiteOutcome",
    "run_differential",
    "AnalysisReport",
    "analyze",
]
