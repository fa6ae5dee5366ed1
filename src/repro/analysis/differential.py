"""Differential checking: static predictions vs. online ABOM.

The static analyzer *predicts* what ABOM will do to each site; ABOM
*does* it, one trap at a time, inside the interpreter.  This module runs
the same binary both ways and diffs the outcomes:

* **decision diff** — for every site that actually trapped, the static
  prediction (patchable / not, and the pattern) must match ABOM's
  recorded decision: *static says patchable ⟺ ABOM patched it*;
* **byte diff** — pre-patching the binary offline (splicing the
  predicted replacement bytes into a copy of the text at rest) must
  converge to exactly the bytes ABOM left behind online.

Any mismatch is a bug in one of the two implementations — or a genuine
discrepancy of the AnICA kind, where the abstract (static) model and the
concrete (executed) behaviour of the same bytes disagree.  CI treats
mismatches as failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sites import DiscoveredSite
from repro.arch.binary import Binary
from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices
from repro.obs import TraceRecorder


@dataclass(frozen=True)
class SiteOutcome:
    """Static prediction vs. ABOM decision for one syscall site."""

    addr: int
    pattern: str
    executed: bool
    predicted_patch: bool
    abom_patched: bool

    @property
    def match(self) -> bool:
        """Decisions agree (sites that never trapped are vacuously ok)."""
        return (not self.executed) or (
            self.predicted_patch == self.abom_patched
        )


@dataclass(frozen=True)
class ByteMismatch:
    addr: int
    expected: bytes
    actual: bytes


@dataclass
class DifferentialResult:
    """Outcome of one static-vs-ABOM differential run."""

    outcomes: list[SiteOutcome] = field(default_factory=list)
    byte_mismatches: list[ByteMismatch] = field(default_factory=list)
    #: Syscall addresses ABOM patched that static discovery never found.
    unpredicted_patches: list[int] = field(default_factory=list)
    traps: int = 0
    #: Trap addresses seen by exactly one of the tracecache=True /
    #: tracecache=False runs (the superblock compiler must not change
    #: which sites trap).
    tracecache_trap_mismatches: list[int] = field(default_factory=list)
    #: Final-text divergence between the two runs (ABOM must converge to
    #: the same patched bytes whether or not traces were compiled).
    tracecache_byte_mismatches: list[ByteMismatch] = field(
        default_factory=list
    )

    @property
    def decision_mismatches(self) -> list[SiteOutcome]:
        return [o for o in self.outcomes if not o.match]

    @property
    def unexercised(self) -> list[SiteOutcome]:
        return [o for o in self.outcomes if not o.executed]

    @property
    def ok(self) -> bool:
        return (
            not self.decision_mismatches
            and not self.byte_mismatches
            and not self.unpredicted_patches
            and not self.tracecache_trap_mismatches
            and not self.tracecache_byte_mismatches
        )


def run_differential(
    binary: Binary,
    sites: list[DiscoveredSite],
    max_instructions: int = 50_000_000,
) -> DifferentialResult:
    """Execute ``binary`` under online ABOM and diff against ``sites``.

    ``sites`` is the static discovery (:func:`repro.analysis.analyze`
    computes it).  The binary must run to completion on
    :class:`CountingServices` (every example and test program does;
    arbitrary programs need their own harness).
    """
    xc = XContainer(CountingServices())
    tracer = TraceRecorder(xc.clock, capacity=65536)
    xc.attach_tracer(tracer)
    xc.run(binary, max_instructions=max_instructions)

    # Which sites actually trapped?  The X-Kernel traces every forwarded
    # syscall *before* ABOM patches it, so the first execution of every
    # site is always visible here.
    trapped = {
        event.detail["rip"]
        for event in tracer.events("syscall", "forwarded")
    }
    patched = set(xc.abom_stats.patched_sites)

    result = DifferentialResult(traps=len(trapped))
    for site in sites:
        result.outcomes.append(
            SiteOutcome(
                addr=site.syscall_addr,
                pattern=site.pattern.value,
                executed=site.syscall_addr in trapped,
                predicted_patch=site.abom_patchable,
                abom_patched=site.syscall_addr in patched,
            )
        )
    discovered_addrs = {site.syscall_addr for site in sites}
    result.unpredicted_patches = sorted(patched - discovered_addrs)

    # Offline pre-patching convergence: splice the predicted bytes for
    # every *exercised* patchable site into a copy of the text at rest;
    # the result must be byte-identical to what ABOM produced online.
    expected = bytearray(binary.code)
    for site in sites:
        if not (site.abom_patchable and site.syscall_addr in trapped):
            continue
        assert site.window is not None and site.predicted_bytes is not None
        start, length = site.window
        offset = start - binary.base
        expected[offset : offset + length] = site.predicted_bytes
    actual = xc.memory.read(binary.base, len(binary.code))
    if bytes(expected) != actual:
        result.byte_mismatches = _diff_regions(
            binary.base, bytes(expected), actual
        )

    # Trace-cache cross-check: the first run compiled hot superblocks
    # (tracecache=True is the XContainer default); replaying with the
    # compiler off must trap at exactly the same static sites and leave
    # byte-identical patched text — compiled traces may skip *decoding*
    # but must never hide or invent a syscall trap.
    xc_cold = XContainer(CountingServices(), tracecache=False)
    tracer_cold = TraceRecorder(xc_cold.clock, capacity=65536)
    xc_cold.attach_tracer(tracer_cold)
    xc_cold.run(binary, max_instructions=max_instructions)
    trapped_cold = {
        event.detail["rip"]
        for event in tracer_cold.events("syscall", "forwarded")
    }
    result.tracecache_trap_mismatches = sorted(trapped ^ trapped_cold)
    actual_cold = xc_cold.memory.read(binary.base, len(binary.code))
    if actual_cold != actual:
        result.tracecache_byte_mismatches = _diff_regions(
            binary.base, actual, actual_cold
        )
    return result


def _diff_regions(
    base: int, expected: bytes, actual: bytes
) -> list[ByteMismatch]:
    """Contiguous regions where the two text images differ."""
    out: list[ByteMismatch] = []
    i = 0
    n = len(expected)
    while i < n:
        if expected[i] == actual[i]:
            i += 1
            continue
        j = i
        while j < n and expected[j] != actual[j]:
            j += 1
        out.append(ByteMismatch(base + i, expected[i:j], actual[i:j]))
        i = j
    return out
