"""Substrate → registry bindings (the naming authority).

One function per substrate, each registering *bound* instruments that
read the substrate's existing stats struct lazily at collection time —
the hot paths keep their plain attribute increments, so wiring telemetry
cannot change simulated bytes or costs.  Everything here is duck-typed:
this module imports no substrate code.  Whoever builds a substrate
calls its ``wire_*`` function directly:
:meth:`~repro.core.xcontainer.XContainer.telemetry` wires the vCPUs,
X-Kernel, ABOM, X-LibOS, attached split drivers and fault engine;
``FuzzWorld`` and :mod:`repro.obs.demo` wire the Xen substrates they
build.

The metric names below are the single source of truth for the
``layer_component_unit`` convention documented in ``docs/telemetry.md``.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import Registry

# -- split-driver ring fields (stats field -> metric name) -------------------

NET_RING_FIELDS: dict[str, str] = {
    "requests": "xen_ring_requests_total",
    "responses": "xen_ring_responses_total",
    "bytes_moved": "xen_ring_bytes_moved_total",
    "kicks": "xen_ring_kicks_total",
    "ring_full_stalls": "xen_ring_full_stalls_total",
    "backend_deaths": "xen_ring_backend_deaths_total",
    "backend_restarts": "xen_ring_backend_restarts_total",
    "batches": "xen_ring_batches_total",
    "avg_batch_size": "xen_ring_avg_batch_size",
    "kicks_saved": "xen_ring_kicks_saved_total",
}

BLK_RING_FIELDS: dict[str, str] = {
    "reads": "xen_ring_reads_total",
    "writes": "xen_ring_writes_total",
    "bytes_moved": "xen_ring_bytes_moved_total",
    "backend_deaths": "xen_ring_backend_deaths_total",
    "backend_restarts": "xen_ring_backend_restarts_total",
    "ring_stalls": "xen_ring_full_stalls_total",
    "batches": "xen_ring_batches_total",
    "avg_batch_size": "xen_ring_avg_batch_size",
    "kicks_saved": "xen_ring_kicks_saved_total",
}


# -- arch -------------------------------------------------------------------


def wire_cpu(registry: Registry, cpu: Any, index: int) -> None:
    """Decode-cache counters of one vCPU (``cpu`` label = its index)."""
    stats = cpu.icache_stats
    registry.bind(
        "arch_icache_hits_total",
        lambda: stats.hits,
        help="instructions executed from cached decoded blocks",
        cpu=index,
    )
    registry.bind(
        "arch_icache_misses_total",
        lambda: stats.misses,
        help="basic-block decode cache fills",
        cpu=index,
    )
    registry.bind(
        "arch_icache_invalidations_total",
        lambda: stats.invalidations,
        help="cached blocks dropped by stores to their text pages",
        cpu=index,
    )
    tstats = cpu.trace_stats
    registry.bind(
        "arch_trace_compiles_total",
        lambda: tstats.compiles,
        help="hot block chains compiled into superblock traces",
        cpu=index,
    )
    registry.bind(
        "arch_trace_aborts_total",
        lambda: tstats.aborts,
        help="chains rejected by the trace recorder",
        cpu=index,
    )
    registry.bind(
        "arch_trace_executions_total",
        lambda: tstats.executions,
        help="entries into compiled trace code",
        cpu=index,
    )
    registry.bind(
        "arch_trace_instructions_total",
        lambda: tstats.instructions,
        help="instructions retired inside compiled traces",
        cpu=index,
    )
    registry.bind(
        "arch_trace_guard_exits_total",
        lambda: tstats.guard_exits,
        help="trace bail-outs through branch/value/liveness guards",
        cpu=index,
    )
    registry.bind(
        "arch_trace_invalidations_total",
        lambda: tstats.invalidations,
        help="traces evicted by stores or stale page generations",
        cpu=index,
    )
    registry.bind(
        "arch_trace_code_bytes",
        lambda: tstats.code_bytes,
        help="generated trace source bytes currently installed",
        kind="gauge",
        cpu=index,
    )


# -- core -------------------------------------------------------------------


def wire_xkernel(registry: Registry, xkernel: Any) -> None:
    stats = xkernel.stats
    registry.bind(
        "core_xkernel_syscalls_trapped_total",
        lambda: stats.syscalls_trapped,
        help="syscall instructions that trapped into the X-Kernel",
    )
    registry.bind(
        "core_xkernel_ud_traps_total",
        lambda: stats.ud_traps,
        help="#UD traps (jumps into patched call tails, section 4.4)",
    )
    registry.bind(
        "core_xkernel_pt_updates_total",
        lambda: stats.pt_updates,
        help="validated page-table update entries",
    )
    registry.bind_family(
        "core_hypercalls_total",
        "name",
        lambda: stats.hypercalls,
        help="validated hypercalls by name",
    )


def wire_abom(registry: Registry, abom: Any) -> None:
    stats = abom.stats
    registry.bind_family(
        "core_abom_patches_total",
        "phase",
        lambda: {
            "7byte": stats.patches_7byte,
            "9byte": stats.patches_9byte,
            "go": stats.patches_go,
        },
        help="syscall sites patched online, by pattern phase (section 4.4)",
    )
    registry.bind(
        "core_abom_patch_failures_total",
        lambda: stats.patch_failures,
        help="patch attempts abandoned (lost cmpxchg or bad window)",
    )
    registry.bind(
        "core_abom_unrecognized_sites_total",
        lambda: stats.unrecognized_sites,
        help="trapped sites matching no ABOM pattern",
    )
    registry.bind(
        "core_abom_ud_fixups_total",
        lambda: stats.ud_fixups,
        help="jumps into a patched tail fixed up by RIP rewind",
    )
    registry.bind(
        "core_abom_cmpxchg_contentions_total",
        lambda: stats.cmpxchg_contentions,
        help="cmpxchg patch losses to a racing vCPU",
    )


def wire_libos(registry: Registry, libos: Any) -> None:
    stats = libos.stats
    registry.bind_family(
        "core_libos_syscalls_total",
        "path",
        lambda: {
            "lightweight": stats.lightweight_syscalls,
            "forwarded": stats.forwarded_syscalls,
        },
        help="syscalls served by the X-LibOS, by entry path",
    )
    registry.bind(
        "core_libos_return_address_skips_total",
        lambda: stats.return_address_skips,
        help="dead syscall/jmp bytes skipped at the return address",
    )


# -- xen --------------------------------------------------------------------


def wire_ring_driver(registry: Registry, name: str, driver: Any) -> None:
    """Either split-driver flavour; fields resolved via the ring tables."""
    stats = driver.stats
    fields = (
        BLK_RING_FIELDS if hasattr(stats, "reads") else NET_RING_FIELDS
    )
    for field, metric in fields.items():
        kind = "gauge" if metric == "xen_ring_avg_batch_size" else "counter"
        registry.bind(
            metric,
            # bind the field name, not the loop variable
            (lambda s=stats, f=field: getattr(s, f)),
            help="split-driver ring counters (see docs/io_batching.md)",
            kind=kind,
            driver=name,
        )


def wire_hypercall_table(registry: Registry, table: Any) -> None:
    """Per-name counts of a stock-Xen :class:`HypercallTable`."""
    registry.bind_family(
        "xen_hypercalls_total",
        "name",
        lambda: dict(sorted(table.counts.items())),
        help="stock-Xen hypercalls dispatched, by name",
    )


def wire_events(registry: Registry, events: Any) -> None:
    registry.bind(
        "xen_evtchn_hypercall_deliveries_total",
        lambda: events.hypercall_deliveries,
        help="event batches delivered via the stock PV hypercall path",
    )
    registry.bind(
        "xen_evtchn_direct_deliveries_total",
        lambda: events.direct_deliveries,
        help="events delivered by the X-LibOS direct jump (section 4.2)",
    )
    registry.bind(
        "xen_evtchn_notifications_coalesced_total",
        lambda: events.notifications_coalesced,
        help="notifications absorbed into an open batch scope",
    )
    registry.bind(
        "xen_evtchn_flushes_total",
        lambda: events.flushes,
        help="batch-scope flushes (one shared pending check each)",
    )
    registry.bind(
        "xen_evtchn_notifications_dropped_total",
        lambda: events.notifications_dropped,
        help="injected notification drops",
    )
    registry.bind(
        "xen_evtchn_notifications_delayed_total",
        lambda: events.notifications_delayed,
        help="injected notification delays",
    )


def wire_grants(registry: Registry, grants: Any) -> None:
    registry.bind(
        "xen_grant_copies_total",
        lambda: grants.copies,
        help="logical GNTTABOP_copy operations",
    )
    registry.bind(
        "xen_grant_batched_copies_total",
        lambda: grants.batched_copies,
        help="vectorized copy hypercalls (one per batch)",
    )
    registry.bind(
        "xen_grant_copy_hypercalls_saved_total",
        lambda: grants.copy_hypercalls_saved,
        help="per-copy hypercalls elided by batching",
    )
    registry.bind(
        "xen_grant_map_failures_total",
        lambda: grants.map_failures,
        help="transient grant map failures",
    )
    registry.bind(
        "xen_grant_copy_failures_total",
        lambda: grants.copy_failures,
        help="transient grant copy failures",
    )
    registry.bind(
        "xen_grant_active",
        lambda: grants.active_grants,
        help="grants currently issued",
        kind="gauge",
    )


def wire_exec_engine(registry: Registry, engine: Any) -> None:
    """``sched_*`` metrics of the discrete-event fleet engine.

    Every bound value is engine-invariant (byte-identical between the
    hybrid and the stepped oracle modes); the engine's host-side
    ``polls`` counter is intentionally NOT exported, because it is the
    one number the two modes legitimately disagree on.
    """
    stats = engine.stats
    registry.bind(
        "sched_fastforward_ns_total",
        lambda: stats.fastforward_ns,
        help="simulated idle ns skipped by fast-forwarding parked "
             "domains to their wake events",
    )
    registry.bind(
        "sched_wake_events_total",
        lambda: stats.wake_events,
        help="wake kicks delivered to parked domains",
    )
    registry.bind(
        "sched_wake_posts_total",
        lambda: stats.posts,
        help="work posts published to domain mailbox rings",
    )
    registry.bind(
        "sched_wake_drops_total",
        lambda: stats.drops,
        help="wake kicks lost to injected SCHED_WAKE drops",
    )
    registry.bind(
        "sched_wake_redeliveries_total",
        lambda: stats.redeliveries,
        help="watchdog re-kicks scheduled after dropped wakes",
    )
    registry.bind(
        "sched_wake_spurious_total",
        lambda: stats.spurious_wakes,
        help="kicks that found an empty mailbox (coalesced wakes)",
    )
    registry.bind(
        "sched_instructions_total",
        lambda: stats.instructions,
        help="guest instructions retired across wake bursts",
    )
    registry.bind(
        "sched_domains_parked",
        lambda: engine.n_parked,
        help="domains currently parked in the idle loop",
        kind="gauge",
    )
    registry.bind(
        "sched_domains",
        lambda: engine.n_domains,
        help="domains the engine owns (dead ones included)",
        kind="gauge",
    )


# -- guest / net ------------------------------------------------------------


def wire_netstack(registry: Registry, netstack: Any) -> None:
    stats = netstack.stats
    registry.bind(
        "net_stack_requests_total",
        lambda: stats.requests,
        help="request/response pairs priced by the flow-level stack",
    )
    registry.bind(
        "net_stack_bytes_in_total", lambda: stats.bytes_in,
        help="payload bytes into the stack",
    )
    registry.bind(
        "net_stack_bytes_out_total", lambda: stats.bytes_out,
        help="payload bytes out of the stack",
    )
    registry.bind(
        "net_stack_connections_total", lambda: stats.connections,
        help="TCP connection setups",
    )
    registry.bind(
        "net_stack_retransmits_total", lambda: stats.retransmits,
        help="segments retransmitted after injected loss",
    )
    registry.bind(
        "net_stack_duplicates_total", lambda: stats.duplicates,
        help="injected duplicate segments recognized and dropped",
    )
    registry.bind(
        "net_stack_reorders_total", lambda: stats.reorders,
        help="injected out-of-order segments re-queued",
    )


def wire_ipvs(registry: Registry, ipvs: Any) -> None:
    """``serve_ipvs_*`` counters over an IPVS director's ``IpvsStats``."""
    stats = ipvs.stats
    for field in (
        "scheduled", "conns_opened", "conns_closed", "conns_failed",
        "servers_added", "servers_removed", "backend_deaths",
    ):
        registry.bind(
            f"serve_ipvs_{field}_total",
            (lambda f=field: getattr(stats, f)),
        )


def wire_http_server(registry: Registry, server: Any) -> None:
    stats = server.stats
    registry.bind(
        "net_http_requests_total",
        lambda: stats.requests,
        help="HTTP requests served by the functional static server",
    )
    registry.bind(
        "net_http_errors_total",
        lambda: stats.errors,
        help="HTTP 4xx responses",
    )
    registry.bind(
        "net_http_bytes_served_total",
        lambda: stats.bytes_served,
        help="response body bytes served",
    )


# -- faults -----------------------------------------------------------------

_FAULT_LIFECYCLE = (
    ("occurrences", "faults_occurrences_total",
     "occurrences of injectable operations, by site"),
    ("injected", "faults_injected_total", "faults injected, by site"),
    ("retried", "faults_retried_total", "retry attempts, by site"),
    ("recovered", "faults_recovered_total", "recoveries, by site"),
    ("fatal", "faults_fatal_total", "unrecovered failures, by site"),
)


def wire_faults(registry: Registry, engine: Any) -> None:
    for field, metric, help_text in _FAULT_LIFECYCLE:
        registry.bind_family(
            metric,
            "site",
            (lambda f=field, e=engine: {
                site: getattr(counters, f)
                for site, counters in sorted(e.counters.items())
            }),
            help=help_text,
        )
