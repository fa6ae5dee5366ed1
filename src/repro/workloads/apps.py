"""The Table 1 application corpus.

For each of the twelve applications the paper evaluates ABOM against, we
model the application's *dynamic syscall-site mix*: how many invocations
per unit of work flow through each wrapper shape (glibc ``mov %eax``,
``mov %rax``, the Go runtime stack pattern, libpthread cancellable
wrappers, bare syscalls).  The mixes are chosen from the paper's findings —
glibc/Go wrappers are patchable, libpthread cancellable wrappers are not,
MySQL's two libpthread sites dominate its unpatched share — so that the
*measured* reduction (ABOM really runs over the synthetic binary) lands on
the Table 1 values.

A trace binary executes one "round" of the mix (1000 syscall invocations
spread over the app's sites) and halts; the experiment runs a warm-up
round (during which ABOM patches every recognizable site) and then a
measured round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.assembler import Assembler
from repro.arch.binary import Binary
from repro.arch.registers import Reg
from repro.core.offline import OfflinePatcher
from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices


@dataclass(frozen=True)
class SiteSpec:
    """One syscall site and its per-round invocation count."""

    style: str  # assembler syscall_site style
    nr: int
    count: int
    symbol: str


@dataclass
class AppSpec:
    """One Table 1 row."""

    name: str
    description: str
    language: str
    benchmark: str
    sites: list[SiteSpec]
    #: Symbols of sites the offline tool patches (MySQL's two libpthread
    #: locations, §5.2).
    offline_symbols: tuple[str, ...] = ()
    #: The paper's reported reduction (fraction), for documentation and
    #: for the experiment report's "paper" column.
    paper_reduction: float = 1.0
    paper_manual_reduction: float | None = None


def build_trace_binary(app: AppSpec, base: int = 0x400000) -> Binary:
    """One round of the app's syscall mix as machine code."""
    asm = Assembler(base=base)
    for index, site in enumerate(app.sites):
        loop = f"site{index}"
        asm.mov_imm32(Reg.RBX, site.count)
        asm.label(loop)
        if site.style == "go_stack":
            asm.mov_imm64_low(Reg.RCX, site.nr)
            asm.store_rsp64(8, Reg.RCX)
        elif site.style == "bare":
            asm.mov_imm32(Reg.RAX, site.nr)
            asm.nop(1)
        asm.syscall_site(site.nr, style=site.style, symbol=site.symbol)
        asm.dec(Reg.RBX)
        asm.jne(loop)
    asm.hlt()
    return asm.build(app.name)


@dataclass
class ReductionResult:
    app: str
    abom_reduction: float
    offline_reduction: float | None
    paper_reduction: float
    paper_manual_reduction: float | None
    sites_patched: int


def measure_reduction(
    app: AppSpec, with_offline: bool | None = None
) -> ReductionResult:
    """Run the app's trace with ABOM and report the syscall reduction.

    One warm-up round lets ABOM patch every site it recognizes (the paper's
    steady-state counter ignores cold-start); the reduction is measured
    over a second round.  When the app has offline-patchable sites, a
    second container additionally applies the offline tool first.
    """
    binary = build_trace_binary(app)

    def run_measured(offline: bool) -> tuple[float, int]:
        xc = XContainer(CountingServices(), abom_enabled=True)
        xc.load(binary)
        if offline:
            sites = [
                binary.site_for_symbol(symbol)
                for symbol in app.offline_symbols
            ]
            OfflinePatcher(xc.memory).patch_sites(binary, sites)
        xc.run_loaded(binary.entry)  # warm-up round: ABOM patches
        before_light = xc.libos.stats.lightweight_syscalls
        before_total = xc.libos.stats.total_syscalls
        xc.run_loaded(binary.entry)  # measured round
        light = xc.libos.stats.lightweight_syscalls - before_light
        total = xc.libos.stats.total_syscalls - before_total
        return light / total, len(xc.abom_stats.patched_sites)

    abom_reduction, patched = run_measured(offline=False)
    offline_reduction = None
    if with_offline or (with_offline is None and app.offline_symbols):
        offline_reduction, _ = run_measured(offline=True)
    return ReductionResult(
        app=app.name,
        abom_reduction=abom_reduction,
        offline_reduction=offline_reduction,
        paper_reduction=app.paper_reduction,
        paper_manual_reduction=app.paper_manual_reduction,
        sites_patched=patched,
    )


def _glibc_mix(counts_and_nrs, prefix: str) -> list[SiteSpec]:
    specs = []
    for index, (style, nr, count) in enumerate(counts_and_nrs):
        specs.append(SiteSpec(style, nr, count, f"{prefix}_{index}"))
    return specs


#: The twelve Table 1 applications.  Counts are per round of 1000
#: invocations; the unpatchable share matches the paper's reduction.
TABLE1_APPS: list[AppSpec] = [
    AppSpec(
        "memcached", "Memory caching system", "C/C++", "memtier_benchmark",
        _glibc_mix(
            [("mov_eax", 232, 300), ("mov_eax", 45, 280),
             ("mov_eax", 47, 270), ("mov_rax", 1, 150)],
            "memcached",
        ),
        paper_reduction=1.00,
    ),
    AppSpec(
        "redis", "In-memory database", "C/C++", "redis-benchmark",
        _glibc_mix(
            [("mov_eax", 232, 350), ("mov_eax", 0, 330),
             ("mov_rax", 1, 320)],
            "redis",
        ),
        paper_reduction=1.00,
    ),
    AppSpec(
        "etcd", "Key-value store", "Go", "etcd-benchmark",
        _glibc_mix(
            [("go_stack", 0, 340), ("go_stack", 1, 330),
             ("go_stack", 281, 330)],
            "etcd",
        ),
        paper_reduction=1.00,
    ),
    AppSpec(
        "mongodb", "NoSQL Database", "C/C++", "YCSB",
        _glibc_mix(
            [("mov_eax", 0, 300), ("mov_eax", 1, 300),
             ("mov_rax", 17, 200), ("mov_eax", 232, 200)],
            "mongodb",
        ),
        paper_reduction=1.00,
    ),
    AppSpec(
        "influxdb", "Time series database", "Go", "influxdb-comparisons",
        _glibc_mix(
            [("go_stack", 0, 400), ("go_stack", 1, 350),
             ("go_stack", 202, 250)],
            "influxdb",
        ),
        paper_reduction=1.00,
    ),
    AppSpec(
        "postgres", "Database", "C/C++", "pgbench",
        _glibc_mix(
            [("mov_eax", 0, 400), ("mov_eax", 1, 350),
             ("mov_rax", 17, 248), ("bare", 14, 2)],
            "postgres",
        ),
        paper_reduction=0.998,
    ),
    AppSpec(
        "fluentd", "Data collector", "Ruby", "fluentd-benchmark",
        _glibc_mix(
            [("mov_eax", 1, 500), ("mov_eax", 0, 300),
             ("mov_rax", 232, 194), ("bare", 14, 6)],
            "fluentd",
        ),
        paper_reduction=0.994,
    ),
    AppSpec(
        "elasticsearch", "Search engine", "JAVA",
        "elasticsearch-stress-test",
        _glibc_mix(
            [("mov_eax", 202, 400), ("mov_eax", 0, 300),
             ("mov_rax", 1, 288), ("bare", 14, 12)],
            "elasticsearch",
        ),
        paper_reduction=0.988,
    ),
    AppSpec(
        "rabbitmq", "Message broker", "Erlang", "rabbitmq-perf-test",
        _glibc_mix(
            [("mov_eax", 0, 400), ("mov_eax", 1, 300),
             ("mov_rax", 232, 286), ("bare", 14, 14)],
            "rabbitmq",
        ),
        paper_reduction=0.986,
    ),
    AppSpec(
        "kernel-compile", "Code Compilation", "Various tools",
        "Linux kernel with tiny config",
        _glibc_mix(
            [("mov_eax", 0, 350), ("mov_eax", 1, 300),
             ("mov_rax", 9, 200), ("mov_eax", 3, 103),
             ("bare", 59, 47)],
            "kcc",
        ),
        paper_reduction=0.953,
    ),
    AppSpec(
        "nginx", "Webserver", "C/C++", "Apache ab",
        _glibc_mix(
            [("mov_eax", 232, 300), ("mov_eax", 0, 250),
             ("mov_eax", 1, 223), ("mov_rax", 40, 150),
             ("bare", 13, 77)],
            "nginx",
        ),
        paper_reduction=0.923,
    ),
    AppSpec(
        "mysql", "Database", "C/C++", "sysbench",
        # 44.6 % of invocations flow through plain glibc wrappers; 47.6 %
        # through the two libpthread cancellable wrappers ABOM cannot see
        # (§5.2); the rest are bare sites.
        _glibc_mix(
            [("mov_eax", 232, 246), ("mov_eax", 16, 200)],
            "mysql_glibc",
        )
        + [
            SiteSpec("cancellable", 0, 238, "pthread_read"),
            SiteSpec("cancellable", 1, 238, "pthread_write"),
        ]
        + _glibc_mix([("bare", 14, 78)], "mysql_bare"),
        offline_symbols=("pthread_read", "pthread_write"),
        paper_reduction=0.446,
        paper_manual_reduction=0.922,
    ),
]

APP_BY_NAME = {app.name: app for app in TABLE1_APPS}
