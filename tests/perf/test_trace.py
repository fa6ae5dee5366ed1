"""Instant events on the trace recorder, and the emitters that
``XContainer.attach_tracer`` points at it."""

import pytest

from repro.arch import Assembler, Reg
from repro.core import CountingServices, XContainer
from repro.obs import TraceRecorder
from repro.perf.clock import SimClock


class TestTracer:
    def test_emit_records_timestamp(self):
        clock = SimClock()
        tracer = TraceRecorder(clock)
        clock.advance(100.0)
        tracer.emit("cat", "event", x=1)
        (event,) = tracer.events()
        assert event.ts_ns == 100.0
        assert event.detail == {"x": 1}

    def test_filtering(self):
        tracer = TraceRecorder(SimClock())
        tracer.emit("a", "one")
        tracer.emit("b", "two")
        tracer.emit("a", "two")
        assert len(tracer.events("a")) == 2
        assert len(tracer.events(name="two")) == 2
        assert len(tracer.events(category="a", name="two")) == 1

    def test_ring_buffer_drops_oldest_and_warns_once(self):
        tracer = TraceRecorder(SimClock(), capacity=2)
        tracer.emit("c", "e0")
        tracer.emit("c", "e1")
        with pytest.warns(RuntimeWarning, match="ring overflowed"):
            tracer.emit("c", "e2")
        # Further overflow is counted but does not warn again.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracer.emit("c", "e3")
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3"]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(SimClock(), capacity=0)

class TestContainerTracing:
    def test_syscall_lifecycle_visible(self):
        xc = XContainer(CountingServices())
        tracer = TraceRecorder(xc.clock)
        xc.attach_tracer(tracer)
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 5)
        asm.label("loop")
        asm.syscall_site(39)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        assert len(tracer.events("syscall", "forwarded")) == 1
        assert len(tracer.events("syscall", "lightweight")) == 4
        assert len(tracer.events("abom", "patch")) == 1
        # The patch event records the site address.
        (patch,) = tracer.events("abom", "patch")
        assert patch.detail["site"] > 0x400000

    def test_fault_lifecycle_visible_through_attach_tracer(self):
        """Chaos runs are capturable: ``xc.attach_tracer`` wires the
        fault engine's injected/retried/recovered events in too."""
        from repro.faults import sites
        from repro.faults.plan import FaultPlan, FaultSpec, Nth

        engine = FaultPlan(
            (FaultSpec(sites.ABOM_CMPXCHG, "contend", Nth(1)),), 0
        ).compile()
        xc = XContainer(CountingServices(), faults=engine)
        tracer = TraceRecorder(xc.clock)
        xc.attach_tracer(tracer)
        asm = Assembler()
        asm.mov_imm32(Reg.RBX, 3)
        asm.label("loop")
        asm.syscall_site(39)
        asm.dec(Reg.RBX)
        asm.jne("loop")
        asm.hlt()
        xc.run(asm.build())
        assert len(tracer.events("fault", "injected")) == 1
        assert len(tracer.events("fault", "retried")) == 1
        assert len(tracer.events("fault", "recovered")) == 1
        (injected,) = tracer.events("fault", "injected")
        assert injected.detail["site"] == sites.ABOM_CMPXCHG

    def test_telemetry_recorder_holds_spans_and_events(self):
        """One recorder: pointing the emitters at the telemetry recorder
        puts their instant events next to its spans."""
        xc = XContainer(CountingServices())
        tel = xc.telemetry()
        xc.attach_tracer(tel.spans)
        asm = Assembler()
        asm.syscall_site(39)
        asm.hlt()
        with tel.span("run"):
            xc.run(asm.build())
        assert len(tel.spans.events("syscall", "forwarded")) == 1
        assert [s.name for s in tel.spans.spans()] == ["run"]
        assert tel.snapshot()["spans"]["finished"] == 1

    def test_unrecognized_sites_traced(self):
        xc = XContainer(CountingServices())
        tracer = TraceRecorder(xc.clock)
        xc.attach_tracer(tracer)
        asm = Assembler()
        asm.syscall_site(39, style="cancellable")
        asm.hlt()
        xc.run(asm.build())
        assert len(tracer.events("abom", "unrecognized")) == 1
