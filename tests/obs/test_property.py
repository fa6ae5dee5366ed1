"""Property: telemetry is observation-only.

Wiring the registry, taking snapshots, exporting — none of it may change
simulated results.  Hypothesis generates random programs and descriptor
trains; each runs twice (telemetry on, with exports taken mid-flight, vs
telemetry never built) and every simulated number must match exactly.

Property: ``Registry.value`` reads only the matching instruments, yet
returns exactly the float that summing the ``collect()`` samples gives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.assembler import Assembler
from repro.arch.registers import Reg
from repro.core.xcontainer import XContainer
from repro.core.xlibos import CountingServices
from repro.obs import prometheus_text, render_table, wire
from repro.obs.registry import Registry

OPS = st.lists(
    st.sampled_from(("inc", "dec", "sys_eax", "sys_rax")),
    min_size=1,
    max_size=10,
)


def build_program(ops, iters):
    asm = Assembler(base=0x400000)
    asm.mov_imm32(Reg.RBX, iters)
    asm.mov_imm32(Reg.RCX, 0)
    asm.label("loop")
    for index, op in enumerate(ops):
        if op == "inc":
            asm.inc(Reg.RCX)
        elif op == "dec":
            asm.dec(Reg.RCX)
        elif op == "sys_eax":
            asm.syscall_site(39, style="mov_eax", symbol=f"s{index}")
        else:
            asm.syscall_site(15, style="mov_rax", symbol=f"s{index}")
    asm.dec(Reg.RBX)
    asm.jne("loop")
    asm.hlt()
    return asm.build("prop")


class TestTelemetryNeutrality:
    @settings(max_examples=20, deadline=None)
    @given(ops=OPS, iters=st.integers(min_value=1, max_value=4))
    def test_random_programs_unchanged_by_telemetry(self, ops, iters):
        binary = build_program(ops, iters)

        def run(telemetry_on):
            xc = XContainer(CountingServices())
            if telemetry_on:
                tel = xc.telemetry()  # wire everything up front
            result = xc.run(binary)
            if telemetry_on:
                # Exports mid-workload must be pure reads too.
                tel.snapshot()
                prometheus_text(tel)
                render_table(tel)
            return (
                result.instructions,
                result.elapsed_ns,
                result.exit_rax,
                xc.clock.now_ns,
                xc.libos.stats.lightweight_syscalls,
                xc.libos.stats.forwarded_syscalls,
                xc.abom_stats.total_patches,
            )

        assert run(True) == run(False)

    @settings(max_examples=20, deadline=None)
    @given(
        trains=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=9000),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_net_rings_unchanged_by_telemetry(self, trains):
        from repro.xen.drivers import SplitNetDriver
        from repro.xen.events import EventChannelTable
        from repro.xen.hypervisor import DomainKind, XenHypervisor

        def run(wired):
            xen = XenHypervisor()
            guest = xen.create_domain("guest")
            backend = xen.create_domain("backend", DomainKind.DRIVER)
            events = EventChannelTable(xen.costs, xen.clock)
            driver = SplitNetDriver(
                guest, backend, xen.grants, events, xen.costs, xen.clock
            )
            registry = None
            if wired:
                registry = Registry()
                wire.wire_ring_driver(registry, "eth0", driver)
                wire.wire_events(registry, events)
                wire.wire_grants(registry, xen.grants)
            costs = [driver.transmit_batch(train) for train in trains]
            if wired:
                registry.snapshot()
            return costs, xen.clock.now_ns, driver.stats.as_dict()

        assert run(True) == run(False)


NAMES = ("a_total", "b_total")
SCOPE_KEYS = ("cpu", "domain")
#: Mixed magnitudes, so a different summation order changes the float.
VALUES = st.one_of(
    st.sampled_from((0.1, 0.5, 1.0, 3.0, 2.0**53, 1e16)),
    st.floats(min_value=0, max_value=1e18),
)
LABELS = st.dictionaries(
    st.sampled_from(SCOPE_KEYS), st.sampled_from(("0", "1", "x")), max_size=2
)
INSTRUMENTS = st.lists(
    st.tuples(
        st.sampled_from(("counter", "gauge", "histogram", "bound")),
        st.sampled_from(NAMES),
        LABELS,
        st.lists(VALUES, min_size=1, max_size=3),
    ),
    max_size=8,
)
FAMILIES = st.lists(
    st.tuples(
        st.sampled_from(NAMES),
        LABELS,
        st.dictionaries(st.sampled_from(("r", "w", "0")), VALUES, max_size=3),
    ),
    max_size=3,
)


def collected_sum(registry, name, **labels):
    """``Registry.value`` as a sum over ``collect()`` (the reference)."""
    want = {(key, str(value)) for key, value in labels.items()}
    total = 0.0
    found = False
    for sample in registry.collect():
        if sample.name != name or not want <= set(sample.labels):
            continue
        found = True
        if sample.kind == "histogram":
            total += sample.value.sum
        else:
            total += sample.value
    if not found:
        raise KeyError(name)
    return total


class TestValueMatchesCollect:
    @settings(max_examples=100, deadline=None)
    @given(
        instruments=INSTRUMENTS,
        families=FAMILIES,
        name=st.sampled_from(NAMES),
        query=st.dictionaries(
            st.sampled_from(SCOPE_KEYS + ("op",)),
            st.sampled_from(("0", "1", "x", "r", "w")),
            max_size=2,
        ),
    )
    def test_value_is_the_collected_sum(
        self, instruments, families, name, query
    ):
        registry = Registry()
        for kind, metric, labels, values in instruments:
            try:
                if kind == "counter":
                    counter = registry.counter(metric, **labels)
                    for value in values:
                        counter.inc(value)
                elif kind == "gauge":
                    registry.gauge(metric, **labels).set(values[-1])
                elif kind == "histogram":
                    hist = registry.histogram(metric, **labels)
                    for value in values:
                        hist.observe(value)
                else:
                    registry.bind(metric, lambda v=values[0]: v, **labels)
            except ValueError:
                continue  # same (name, labels) already of another kind
        for metric, labels, samples in families:
            registry.bind_family(
                metric, "op", lambda s=samples: s, **labels
            )
        try:
            expected = collected_sum(registry, name, **query)
        except KeyError:
            with pytest.raises(KeyError):
                registry.value(name, **query)
        else:
            assert registry.value(name, **query) == expected
