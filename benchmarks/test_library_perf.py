"""Library performance benchmarks (real wall time, multiple rounds).

Unlike the figure benchmarks — which regenerate *simulated* results once —
these measure the library's own speed: interpreter throughput with and
without the basic-block decode cache, ABOM patch rate, syscall dispatch,
and the functional HTTP stack.  Useful for catching performance
regressions in the reproduction itself.  Each benchmark records its
ops/sec (and cache hit rate where applicable) into
``BENCH_interpreter.json`` via the ``record_rate`` fixture.
"""

from repro.arch import Assembler, CPU, PagedMemory, Reg
from repro.arch.memory import PageFlags
from repro.core import CountingServices, XContainer
from repro.core.abom import ABOM
from repro.core.engine import ExecutionEngine
from repro.guest.kernel import GuestKernel
from repro.guest.socket import VirtualNetwork
from repro.platforms import DockerPlatform, XContainerPlatform
from repro.workloads.http import HttpClient, StaticHttpServer
from repro.workloads.unixbench import build_syscall_bench


def _counting_binary():
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 2000)
    asm.label("loop")
    asm.inc(Reg.RAX)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build()


def _loaded_memory(binary):
    memory = PagedMemory()
    binary.load(memory)
    memory.map_region(0x7F0000, 0x1000, PageFlags.USER | PageFlags.WRITABLE)
    return memory


def test_interpreter_instruction_rate(benchmark, record_rate):
    """Plain instruction dispatch, no syscalls (decode cache on)."""
    binary = _counting_binary()
    memory = _loaded_memory(binary)
    last = {}

    def run():
        cpu = CPU(memory)
        cpu.regs.rip = binary.entry
        cpu.regs.rsp = 0x7F0F00
        cpu.run()
        last["cpu"] = cpu
        return cpu.instructions_retired

    retired = benchmark(run)
    icache = last["cpu"].icache_stats.as_dict()
    trace = last["cpu"].trace_stats.as_dict()
    # Exact: three block decodes, then one trace runs the loop from its
    # 50th entry to the exit guard (5,847 of 6,002 instructions).
    assert retired == 6002
    assert (icache["hits"], icache["misses"], icache["invalidations"]) == (
        152, 3, 0
    )
    assert trace == {
        "compiles": 1,
        "aborts": 0,
        "executions": 1,
        "instructions": 5847,
        "guard_exits": 1,
        "invalidations": 0,
        "code_bytes": 776,
    }
    record_rate(benchmark, retired, icache=icache, trace=trace)


def test_interpreter_instruction_rate_notrace(benchmark, record_rate):
    """Ablation: decode cache on, trace cache off — isolates the win
    from superblock compilation over per-instruction dispatch."""
    binary = _counting_binary()
    memory = _loaded_memory(binary)
    last = {}

    def run():
        cpu = CPU(memory, tracecache=False)
        cpu.regs.rip = binary.entry
        cpu.regs.rsp = 0x7F0F00
        cpu.run()
        last["cpu"] = cpu
        return cpu.instructions_retired

    retired = benchmark(run)
    icache = last["cpu"].icache_stats.as_dict()
    # Exact: three block decodes, every other instruction an icache hit.
    assert retired == 6002
    assert (icache["hits"], icache["misses"], icache["invalidations"]) == (
        5999, 3, 0
    )
    record_rate(benchmark, retired, icache=icache, trace=None)


def test_interpreter_instruction_rate_uncached(benchmark, record_rate):
    """Same program with ``icache=False``: the before/after control."""
    binary = _counting_binary()
    memory = _loaded_memory(binary)

    def run():
        cpu = CPU(memory, icache=False)
        cpu.regs.rip = binary.entry
        cpu.regs.rsp = 0x7F0F00
        cpu.run()
        return cpu.instructions_retired

    retired = benchmark(run)
    assert retired > 6000
    record_rate(benchmark, retired, icache=None)


def test_abom_patch_rate(benchmark, record_rate):
    """Patching throughput over fresh sites each round."""
    def run():
        memory = PagedMemory()
        memory.map_region(
            0x400000, 0x10000, PageFlags.USER | PageFlags.EXECUTABLE
        )
        memory.wp_enabled = False
        for index in range(100):
            addr = 0x400000 + index * 16
            memory.write(
                addr, b"\xb8" + (index % 200).to_bytes(4, "little")
                + b"\x0f\x05"
            )
        memory.wp_enabled = True
        abom = ABOM(memory)
        for index in range(100):
            assert abom.try_patch(0x400000 + index * 16 + 5)
        return abom.stats.total_patches

    patches = benchmark(run)
    assert patches == 100
    record_rate(benchmark, patches)


def test_syscall_dispatch_rate(benchmark, record_rate):
    """Full converted-syscall round trips through the LibOS stub."""
    asm = Assembler()
    asm.mov_imm32(Reg.RBX, 500)
    asm.label("loop")
    asm.syscall_site(39)
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    binary = asm.build()
    last = {}

    def run():
        xc = XContainer(CountingServices())
        xc.run(binary)
        last["xc"] = xc
        return xc.libos.stats.total_syscalls

    total = benchmark(run)
    assert total == 500
    tel = last["xc"].telemetry()
    # Counters are integers: int() the registry reads (collection
    # returns floats) so the JSON never reports "hits": 1499.0.
    trace = {
        "compiles": int(tel.value("arch_trace_compiles_total")),
        "executions": int(tel.value("arch_trace_executions_total")),
        "instructions": int(tel.value("arch_trace_instructions_total")),
        "guard_exits": int(tel.value("arch_trace_guard_exits_total")),
        "invalidations": int(tel.value("arch_trace_invalidations_total")),
    }
    # Exact: the first iteration traps and ABOM patches the site, then
    # one trace runs the converted loop to its exit (1,798 of 2,002).
    # Two rotations of the loop turn hot; only the one entered is built.
    assert trace == {
        "compiles": 1,
        "executions": 1,
        "instructions": 1798,
        "guard_exits": 1,
        "invalidations": 0,
    }
    record_rate(
        benchmark,
        total,
        icache={
            "hits": int(tel.value("arch_icache_hits_total")),
            "misses": int(tel.value("arch_icache_misses_total")),
            "invalidations": int(tel.value("arch_icache_invalidations_total")),
        },
        trace=trace,
    )


def test_trapped_syscall_rate(benchmark, record_rate, monkeypatch):
    """Trapped syscalls: Docker's ``run_binary`` of the Fig 4 loop (1,000
    iterations, 5,000 syscalls), each one delivered to the platform's
    trap handler from inside the compiled trace."""
    binary = build_syscall_bench(1000)
    platform = DockerPlatform()
    cpus = []

    def make_cpu(*args, **kwargs):
        cpus.append(CPU(*args, **kwargs))
        return cpus[-1]

    monkeypatch.setattr("repro.platforms.base.CPU", make_cpu)

    def run():
        return platform.run_binary(binary).syscalls

    total = benchmark(run)
    assert total == 5000
    cpu = cpus[-1]
    trace = cpu.trace_stats.as_dict()
    del trace["code_bytes"]
    # Exact: after 50 warm-up iterations, the six rotations of the loop
    # are recorded, and the one entered first is built and runs to the
    # loop's exit, syscalls included (11,398 of 12,002).
    assert cpu.instructions_retired == 12002
    assert trace == {
        "compiles": 1,
        "aborts": 0,
        "executions": 1,
        "instructions": 11398,
        "guard_exits": 1,
        "invalidations": 0,
    }
    record_rate(benchmark, total, trace=trace)


def test_converted_syscall_rate(benchmark, record_rate, monkeypatch):
    """Converted syscalls: the X-Container ``run_binary`` of the Fig 4
    loop (1,000 iterations, 5,000 syscalls) over a real ``GuestKernel``.
    Each of the five sites traps once and ABOM patches it; every later
    syscall is a LibOS stub call made from inside the compiled trace."""
    binary = build_syscall_bench(1000)
    platform = XContainerPlatform()
    containers = []

    def make_container(*args, **kwargs):
        containers.append(XContainer(*args, **kwargs))
        return containers[-1]

    monkeypatch.setattr(
        "repro.platforms.x_container.XContainer", make_container
    )

    def run():
        return platform.run_binary(binary).syscalls

    total = benchmark(run)
    assert total == 5000
    xc = containers[-1]
    libos, abom = xc.libos.stats, xc.xkernel.abom.stats
    trace = xc.cpu.trace_stats.as_dict()
    del trace["code_bytes"]
    # Exact: 4 sites get the 7-byte patch and umask the 9-byte one,
    # whose dead tail the LibOS skips on every later return (999).
    assert xc.cpu.instructions_retired == 12002
    assert (libos.lightweight_syscalls, libos.forwarded_syscalls) == (4995, 5)
    assert libos.return_address_skips == 999
    assert (abom.patches_7byte, abom.patches_9byte, abom.total_patches) == (
        4, 1, 5
    )
    # The six rotations of the loop are recorded; the one entered first
    # is built and runs to the loop's exit (11,398 of 12,002).
    assert trace == {
        "compiles": 1,
        "aborts": 0,
        "executions": 1,
        "instructions": 11398,
        "guard_exits": 1,
        "invalidations": 0,
    }
    record_rate(benchmark, total, trace=trace)


def test_fleet_burst_rate(benchmark, record_rate):
    """Fleet-worker wake bursts: one ``ExecutionEngine`` domain, warmed
    past the trace threshold, then 200 bursts of 8 work units a round.
    A unit is the worker's 24-iteration spin loop inside its unit loop,
    and the trace cache compiles the spin loop as a nested loop."""
    engine = ExecutionEngine()
    dom = engine.spawn()
    stats = dom.cpu.trace_stats
    bursts, units = 200, 8
    last = {}

    def run():
        before = stats.as_dict()
        retired = dom.cpu.instructions_retired
        for _ in range(bursts):
            engine.post_work(dom.domid, units, engine.now_ns)
            engine.run_until(engine.now_ns + engine.tick_ns)
        after = stats.as_dict()
        last["trace"] = {k: after[k] - before[k] for k in after}
        last["retired"] = dom.cpu.instructions_retired - retired
        return bursts * units

    run()  # warm-up: every trace compiled
    done = benchmark(run)
    trace = last["trace"]
    del trace["code_bytes"]
    # Exact, per round: each burst is two trace entries (the wake path
    # runs the first unit, the unit-loop trace the other seven) and one
    # guard exit (the unit loop's end); only the two mailbox stores, the
    # jmp and the hlt are interpreted (83,800 of 84,600 instructions).
    assert done == 1600
    assert last["retired"] == 84600
    assert trace == {
        "compiles": 0,
        "aborts": 0,
        "executions": 400,
        "instructions": 83800,
        "guard_exits": 200,
        "invalidations": 0,
    }
    record_rate(benchmark, done, trace=trace)


def test_functional_http_request_rate(benchmark, record_rate):
    """Whole-stack request: connect, parse, serve from RamFS, respond."""
    network = VirtualNetwork()
    server = StaticHttpServer(GuestKernel(), network)
    server.publish("/page", b"x" * 2048)
    client = HttpClient(GuestKernel(), network, server.handle_one)

    def run():
        status, body = client.get(("10.0.0.1", 80), "/page")
        assert status == 200
        return len(body)

    size = benchmark(run)
    assert size == 2048
    record_rate(benchmark, 1, response_bytes=size)


def test_e2e_http_throughput(benchmark, record_rate):
    """End-to-end throughput: 100 keep-alive requests per round through
    the full functional stack (client socket → virtual network → server
    parse → RamFS-backed response cache → client parse)."""
    network = VirtualNetwork()
    server = StaticHttpServer(GuestKernel(), network)
    server.publish("/page", b"x" * 2048)
    client = HttpClient(GuestKernel(), network, server.handle_one)
    rounds = 100

    def run():
        ok = 0
        for _ in range(rounds):
            status, _body = client.get(("10.0.0.1", 80), "/page")
            ok += status == 200
        return ok

    ok = benchmark(run)
    assert ok == rounds
    record_rate(
        benchmark,
        rounds,
        connections=network.connections,
    )


def test_ring_batch_ablation(benchmark, record_rate):
    """Batched ring push/reap throughput, plus a batch-size ablation.

    The timed benchmark drives 32-descriptor trains; the ablation sweep
    measures host-Python wall time per descriptor at several batch sizes
    and lands in ``BENCH_interpreter.json`` so the batching win (and its
    knee) is tracked run over run.
    """
    import time

    from repro.xen.drivers import SplitNetDriver
    from repro.xen.events import EventChannelTable
    from repro.xen.hypervisor import DomainKind, XenHypervisor

    def make_driver():
        xen = XenHypervisor()
        guest = xen.create_domain("guest")
        backend = xen.create_domain("backend", DomainKind.DRIVER)
        events = EventChannelTable(xen.costs, xen.clock)
        return SplitNetDriver(
            guest, backend, xen.grants, events, xen.costs, xen.clock
        )

    driver = make_driver()
    batch = [1500] * 32

    def run():
        driver.transmit_batch(batch)
        return len(batch)

    pushed = benchmark(run)
    assert pushed == 32

    ablation = {}
    for size in (1, 2, 4, 8, 16, 32, 64):
        sweep_driver = make_driver()
        train = [1500] * size
        descs = 0
        start = time.perf_counter()
        while descs < 4096:
            sweep_driver.transmit_batch(train)
            descs += size
        elapsed = time.perf_counter() - start
        ablation[str(size)] = round(elapsed / descs * 1e9)  # ns/descriptor
    record_rate(
        benchmark,
        32,
        ablation_ns_per_desc=ablation,
        kicks_saved=driver.stats.kicks_saved,
        avg_batch_size=driver.stats.avg_batch_size,
    )
