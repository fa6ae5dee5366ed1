"""Outside-in per-layer tracing of one benchmark run.

The tracer wraps the public entry points of each ``repro`` layer from the
benchmark's side; nothing under ``src/`` changes.  Every wrapped call
records a span (name, start, end, parent) in flat in-memory arrays, and
the spans are aggregated once, after the run:

* a layer's self time is its spans' time minus the time of their child
  spans, so the layer self times plus ``unattributed.self_s`` (time in no
  wrapped call) add up to the traced wall time;
* a layer's entry count is the number of its spans whose parent belongs
  to another layer (a layer calling itself is one entry);
* counters come from the public objects the wrappers receive
  (``cpu.icache_stats``, ``cpu.trace_stats``, ``abom.stats``,
  ``engine.stats``, ``ipvs.stats``, ``FaultEngine.counters``).

Wrappers must be installed before any ``repro`` object is built, because
some callers bind a method once: the vsyscall stubs bind
``XLibOS.lightweight_entry`` when a container boots.  Each name is
patched where its caller looks it up: ``repro.serve.sharding`` imports
``run_shard_interval`` by name, so it is patched there as well.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import Counter, defaultdict

#: (module, attribute, layer) for every wrapped public call.
SPANS = (
    ("repro.arch.cpu", "CPU.run", "arch.cpu"),
    ("repro.core.xcontainer", "XContainer.__init__", "core.xcontainer"),
    ("repro.core.xlibos", "XLibOS.lightweight_entry", "core.xlibos"),
    ("repro.core.xlibos", "XLibOS.forwarded_entry", "core.xlibos"),
    ("repro.core.xkernel", "XKernel.handle_trap", "core.xkernel"),
    ("repro.core.abom", "ABOM.try_patch", "core.abom"),
    ("repro.core.engine", "ExecutionEngine.run_until", "core.engine"),
    ("repro.core.engine", "ExecutionEngine.run_to_quiescence", "core.engine"),
    ("repro.guest.kernel", "GuestKernel.invoke", "guest.kernel"),
    ("repro.guest.ipvs", "IPVS.schedule", "guest.ipvs"),
    ("repro.guest.ipvs", "IPVS.open_connection", "guest.ipvs"),
    ("repro.guest.ipvs", "IPVS.close_connection", "guest.ipvs"),
    ("repro.guest.ipvs", "IPVS.add_server", "guest.ipvs"),
    ("repro.guest.ipvs", "IPVS.remove_server", "guest.ipvs"),
    ("repro.guest.ipvs", "IPVS.kill_server", "guest.ipvs"),
    ("repro.guest.netstack", "NetStack.request_response_cost_ns",
     "guest.netstack"),
    ("repro.guest.netstack", "NetStack.connection_setup_cost_ns",
     "guest.netstack"),
    ("repro.guest.netstack", "NetStack.bulk_transfer_cost_ns",
     "guest.netstack"),
    ("repro.serve.traffic", "run_shard_interval", "serve.traffic"),
    ("repro.serve.sharding", "run_shard_interval", "serve.traffic"),
    ("repro.serve.engine", "ServeEngine.run", "serve.engine"),
    ("repro.serve.autoscaler", "Autoscaler.decide", "serve.autoscaler"),
    ("repro.serve.domains", "ServeDomainFleet.post_busy", "serve.domains"),
    ("repro.xen.drivers", "SplitNetDriver.transmit", "xen.drivers"),
    ("repro.xen.drivers", "SplitNetDriver.transmit_batch", "xen.drivers"),
    ("repro.xen.blkdev", "SplitBlockDriver.read", "xen.blkdev"),
    ("repro.xen.blkdev", "SplitBlockDriver.read_many", "xen.blkdev"),
    ("repro.xen.blkdev", "SplitBlockDriver.write", "xen.blkdev"),
    ("repro.xen.blkdev", "SplitBlockDriver.write_many", "xen.blkdev"),
    ("repro.xen.events", "EventChannelTable.send", "xen.events"),
    ("repro.xen.grant_table", "GrantTable.map_grant", "xen.grant_table"),
    ("repro.xen.grant_table", "GrantTable.copy_grant", "xen.grant_table"),
    ("repro.xen.grant_table", "GrantTable.copy_grant_batch",
     "xen.grant_table"),
    ("repro.xen.grant_table", "GrantTable.unmap_grant", "xen.grant_table"),
    ("repro.xen.migration", "LiveMigration.run", "xen.migration"),
    ("repro.xen.remus", "RemusReplicator.run_epoch", "xen.remus"),
    ("repro.xen.toolstack", "Toolstack.create", "xen.toolstack"),
    ("repro.faults.plan", "FaultEngine.fire", "faults.plan"),
    ("repro.obs.registry", "Histogram.merge_counts", "obs.registry"),
    ("repro.obs.registry", "Histogram.quantile", "obs.registry"),
    ("repro.experiments.runner", "run_experiment", "experiments"),
)
#: ``Platform.run_binary`` is wrapped on every subclass that defines it.
PLATFORM_LAYER = "platforms.run_binary"
#: Calls only counted, never timed: the clock is advanced per interpreted
#: instruction, and a span there would cost more than the call.
COUNTED = (
    ("repro.perf.clock", "SimClock.advance"),
    ("repro.perf.clock", "SimClock.advance_to"),
)

#: Layer -> name of its entry-count metric.
ENTRY_METRIC = {
    "core.xcontainer": "boots",
    "core.xkernel": "traps",
    "core.abom": "attempts",
    PLATFORM_LAYER: "calls",
    "guest.kernel": "syscalls",
    "guest.ipvs": "calls",
    "guest.netstack": "calls",
    "serve.traffic": "shard_intervals",
    "xen.drivers": "calls",
    "xen.blkdev": "calls",
    "xen.events": "sends",
    "xen.grant_table": "calls",
    "faults.plan": "fires",
}
LAYERS = tuple(sorted({layer for _, _, layer in SPANS} | {PLATFORM_LAYER}))
#: ``core.xcontainer`` self time is the boot time of a domain.
SELF_METRIC = {"core.xcontainer": "core.xcontainer.boot_s"}
#: The self-time metrics, which with ``unattributed.self_s`` partition the
#: traced wall time.
SELF_TIME_METRICS = tuple(
    SELF_METRIC.get(layer, f"{layer}.self_s") for layer in LAYERS
)
#: Experiments timed on their own; every other id is ``other``.
EXPERIMENT_GROUPS = ("fig4", "table1", "fig5", "other")

CPU_COUNTERS = (
    "instructions", "icache_hits", "icache_misses", "trace_instructions",
    "compiles", "guard_exits", "invalidations",
)
ENGINE_COUNTERS = ("wake_events", "spurious_wakes", "polls")
FAULT_COUNTERS = ("injected", "retried", "recovered", "fatal")


def _cpu_counts(cpu) -> tuple[int, ...]:
    icache, trace = cpu.icache_stats, cpu.trace_stats
    return (
        cpu.instructions_retired, icache.hits, icache.misses,
        trace.instructions, trace.compiles, trace.guard_exits,
        trace.invalidations,
    )


def _engine_counts(engine) -> tuple[int, ...]:
    stats = engine.stats
    return stats.wake_events, stats.spurious_wakes, stats.polls


def _abom_counts(abom) -> tuple[int, ...]:
    return (abom.stats.total_patches,)


class DeltaProbe:
    """Adds the change in an object's counters across its outermost call.

    A nested call on the same object (``run_to_quiescence`` calling
    ``run_until``) is inside the outer call's window and adds nothing.
    """

    def __init__(self, keys, read) -> None:
        self.read = read
        self.keys = keys
        self.totals = dict.fromkeys(keys, 0)
        self._active: set[int] = set()

    def enter(self, args, span):
        obj = args[0]
        if id(obj) in self._active:
            return None
        self._active.add(id(obj))
        return obj, self.read(obj)

    def exit(self, token) -> None:
        if token is None:
            return
        obj, before = token
        self._active.discard(id(obj))
        for key, old, new in zip(self.keys, before, self.read(obj)):
            self.totals[key] += new - old


class ObjectProbe:
    """Keeps each distinct object the wrapped calls receive."""

    def __init__(self) -> None:
        self.objects: dict[int, object] = {}

    def enter(self, args, span):
        self.objects.setdefault(id(args[0]), args[0])

    def exit(self, token) -> None:
        pass


class LabelProbe:
    """Labels each ``run_experiment`` span with its experiment group."""

    def __init__(self) -> None:
        self.labels: dict[int, str] = {}

    def enter(self, args, span):
        eid = args[0]
        self.labels[span] = eid if eid in EXPERIMENT_GROUPS else "other"

    def exit(self, token) -> None:
        pass


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``Class.method`` or ``function`` in a module."""
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _platform_classes():
    from repro.platforms import registry  # noqa: F401  (imports every platform)
    from repro.platforms.base import Platform

    seen, todo = [], [Platform]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "run_binary" in cls.__dict__]


def targets():
    """(owner, attribute, path, layer) for every name the tracer replaces;
    ``layer`` is None for the names only counted."""
    for module, path, layer in SPANS:
        yield (*_resolve(module, path), path, layer)
    for cls in _platform_classes():
        yield cls, "run_binary", f"{cls.__name__}.run_binary", PLATFORM_LAYER
    for module, path in COUNTED:
        yield (*_resolve(module, path), path, None)


class Tracer:
    """Span recorder over the wrapped layer entry points."""

    def __init__(self) -> None:
        #: name id -> wrapped path and its layer.
        self._paths: list[str] = []
        self._layers: list[str] = []
        #: One entry per span: name id, parent span (-1: none), times.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.clock_calls = [0]
        self.cpu = DeltaProbe(CPU_COUNTERS, _cpu_counts)
        self.engine = DeltaProbe(ENGINE_COUNTERS, _engine_counts)
        self.abom = DeltaProbe(("patches",), _abom_counts)
        self.ipvs = ObjectProbe()
        self.faults = ObjectProbe()
        self.experiments = LabelProbe()
        self._probes = {
            "CPU.run": self.cpu,
            "ABOM.try_patch": self.abom,
            "ExecutionEngine.run_until": self.engine,
            "ExecutionEngine.run_to_quiescence": self.engine,
            "FaultEngine.fire": self.faults,
            "run_experiment": self.experiments,
        }

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, path, layer in targets():
            if layer is None:
                self._patch(owner, attr, self._counted)
                continue
            probe = self._probes.get(path)
            if probe is None and path.startswith("IPVS."):
                probe = self.ipvs
            name_id = len(self._paths)
            self._paths.append(path)
            self._layers.append(layer)
            self._patch(
                owner, attr,
                functools.partial(self._span, name_id=name_id, probe=probe),
            )

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{owner.__name__}.{attr} is not a plain function")
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def remove(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers --------------------------------------------------------
    def _span(self, fn, name_id: int, probe):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        if probe is None:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                index = len(names)
                names.append(name_id)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()

            return span
        enter, leave = probe.enter, probe.exit

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            token = enter(args, index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                leave(token)

        return probed

    def _counted(self, fn):
        cell = self.clock_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- aggregation ------------------------------------------------------
    def layer_times(self, wall_s: float):
        """(self time per layer, unattributed time, entries per layer,
        calls per wrapped name, inclusive time per experiment group)."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        layers = [self._layers[name] for name in names]
        count = len(names)
        child = [0.0] * count
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        self_s: dict[str, float] = defaultdict(float)
        entries: Counter = Counter()
        calls: Counter = Counter()
        groups: dict[str, float] = defaultdict(float)
        covered = 0.0
        labels = self.experiments.labels
        for i in range(count):
            duration = ends[i] - starts[i]
            layer = layers[i]
            self_s[layer] += duration - child[i]
            calls[self._paths[names[i]]] += 1
            parent = parents[i]
            if parent < 0:
                covered += duration
            if parent < 0 or layers[parent] != layer:
                entries[layer] += 1
            if i in labels:
                groups[labels[i]] += duration
        return self_s, wall_s - covered, entries, calls, groups

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric of the traced run, by name."""
        self_s, unattributed, entries, calls, groups = self.layer_times(wall_s)
        out: dict[str, float] = {
            metric: self_s[layer]
            for layer, metric in zip(LAYERS, SELF_TIME_METRICS)
        }
        for layer, metric in ENTRY_METRIC.items():
            out[f"{layer}.{metric}"] = entries[layer]
        cpu = self.cpu.totals
        out["arch.cpu.instructions"] = cpu["instructions"]
        out["arch.icache.hit_ratio"] = _ratio(
            cpu["icache_hits"], cpu["icache_hits"] + cpu["icache_misses"]
        )
        out["arch.trace.instr_ratio"] = _ratio(
            cpu["trace_instructions"], cpu["instructions"]
        )
        for key in ("compiles", "guard_exits", "invalidations"):
            out[f"arch.trace.{key}"] = cpu[key]
        lightweight = calls["XLibOS.lightweight_entry"]
        forwarded = calls["XLibOS.forwarded_entry"]
        out["core.xlibos.lightweight"] = lightweight
        out["core.xlibos.forwarded"] = forwarded
        out["core.xlibos.lightweight_ratio"] = _ratio(
            lightweight, lightweight + forwarded
        )
        patches = self.abom.totals["patches"]
        out["core.abom.patches"] = patches
        out["core.abom.patch_ratio"] = _ratio(patches, entries["core.abom"])
        for key in ENGINE_COUNTERS:
            out[f"core.engine.{key}"] = self.engine.totals[key]
        out["guest.ipvs.conns_failed"] = sum(
            ipvs.stats.conns_failed for ipvs in self.ipvs.objects.values()
        )
        fault_totals = dict.fromkeys(FAULT_COUNTERS, 0)
        for engine in self.faults.objects.values():
            for counters in engine.counters.values():
                for key in FAULT_COUNTERS:
                    fault_totals[key] += getattr(counters, key)
        for key in FAULT_COUNTERS:
            out[f"faults.{key}"] = fault_totals[key]
        out["perf.clock.advances"] = self.clock_calls[0]
        for group in EXPERIMENT_GROUPS:
            out[f"experiments.{group}.wall_s"] = groups[group]
        out["unattributed.self_s"] = unattributed
        out["trace.wall_s"] = wall_s
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

