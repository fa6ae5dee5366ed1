"""The label-aware metrics registry — one API behind every counter.

§3.1 of the paper argues X-Containers keep "existing software
development, profiling, debugging, and deploying tools" usable.  This
module is the reproduction's own observability substrate: every
per-subsystem counter (interpreter decode cache, ABOM patch phases,
hypercalls, event-channel kicks, grant batches, ring occupancy, HTTP
latency, fault lifecycle) reports through one :class:`Registry` instead
of a private ad-hoc struct, so a single query answers "where did the
nanoseconds go" across layers.

Three instrument kinds, Prometheus-shaped:

* :class:`Counter` — monotonically increasing count (``_total`` suffix);
* :class:`Gauge` — a value that can go anywhere;
* :class:`Histogram` — observations bucketed into fixed log-scale
  nanosecond buckets (:data:`DEFAULT_NS_BUCKETS`), with sum and count.

Two binding styles:

* **direct** — hot paths call ``counter.inc()`` / ``hist.observe(ns)``;
* **bound** — existing substrate structs stay the hot-path store
  (attribute increments, zero new cost on the simulated data path) and
  the registry *reads* them lazily at collection time via
  :meth:`Registry.bind` / :meth:`Registry.bind_family`.  This is how
  telemetry keeps simulation results byte-identical: nothing on the hot
  path changes, the registry is a view.

Scoping: :meth:`Registry.child` returns a view that stamps extra labels
(``domain="xc0"``, ``component="http"``) on every instrument it creates,
while sharing the root's store — so one snapshot covers every layer.

Spans: a registry whose :attr:`Registry.spans` holds a
:class:`~repro.obs.tracing.TraceRecorder` (``XContainer.telemetry()``
sets one on the container's clock) opens label-scoped spans through
:meth:`Registry.span` and adds the span aggregate to
:meth:`Registry.snapshot`.

Naming convention (see ``docs/telemetry.md``): ``layer_component_unit``,
e.g. ``arch_icache_hits_total``, ``xen_grant_copies_total``,
``net_http_request_latency_ns``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.obs.tracing import TraceRecorder

#: Fixed log-scale nanosecond buckets: 16 ns · 4^k for k in [0, 13]
#: (16 ns … ~17 min), the span between one interpreted instruction and
#: the longest chaos scenario.  Fixed so exporter output is stable and
#: histograms from different runs are mergeable.
DEFAULT_NS_BUCKETS: tuple[float, ...] = tuple(
    16.0 * 4.0**k for k in range(14)
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")

LabelItems = tuple[tuple[str, str], ...]


def _canon_labels(labels: Mapping[str, object]) -> LabelItems:
    """Validated, sorted, stringified label items (the identity key)."""
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"bad label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


class Instrument:
    """Base: identity is ``(name, labels)``; subclasses hold the value."""

    kind = "untyped"

    __slots__ = ("name", "labels", "help")

    def __init__(self, name: str, labels: LabelItems, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def key(self) -> tuple[str, LabelItems]:
        return (self.name, self.labels)

    def value(self) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{type(self).__name__}({self.name}{{{labels}}})"


class Counter(Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelItems, help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        self._value += amount

    def value(self) -> float:
        return self._value


class Gauge(Instrument):
    """A value that can be set anywhere (ring occupancy, active grants)."""

    kind = "gauge"

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelItems, help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def value(self) -> float:
        return self._value


class Histogram(Instrument):
    """Observations in fixed log-scale buckets, plus sum and count.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``
    (cumulative counts are computed at export time); the implicit
    ``+Inf`` bucket is ``count``.
    """

    kind = "histogram"

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_NS_BUCKETS,
    ) -> None:
        super().__init__(name, labels, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be sorted and non-empty: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bucket i covers (buckets[i-1], buckets[i]]; values beyond the
        # last edge land only in the implicit +Inf bucket (count).
        self.sum += value
        self.count += 1
        index = bisect_left(self.buckets, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1

    def value(self) -> float:
        return self.sum

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket edge (Prometheus ``le`` shape)."""
        out = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        The standard Prometheus ``histogram_quantile`` scheme: find the
        bucket holding the target rank and interpolate between its
        edges.  Observations beyond the last edge (the implicit ``+Inf``
        bucket) clamp to the last finite edge, so the estimate never
        invents values the buckets cannot resolve.
        """
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        lower = 0.0
        for edge, bucket_count in zip(self.buckets, self.bucket_counts):
            if bucket_count and cum + bucket_count >= rank:
                fraction = (rank - cum) / bucket_count
                return lower + fraction * (edge - lower)
            cum += bucket_count
            lower = edge
        return self.buckets[-1]

    def merge_counts(
        self,
        bucket_counts: Iterable[int],
        sum_: float,
        count: int,
    ) -> None:
        """Fold pre-bucketed observations in (sharded producers).

        ``bucket_counts`` must align with this histogram's edges; the
        serve engine's worker shards bucket locally and merge here in
        shard order, so the result is byte-identical to observing every
        value centrally.
        """
        counts = list(bucket_counts)
        if len(counts) != len(self.bucket_counts):
            raise ValueError(
                f"bucket mismatch: got {len(counts)} counts for "
                f"{len(self.bucket_counts)} buckets"
            )
        for i, bucket_count in enumerate(counts):
            self.bucket_counts[i] += bucket_count
        self.sum += sum_
        self.count += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _Bound(Instrument):
    """A lazy instrument: value read from a callback at collection time.

    The substrate keeps its struct (``stats.requests += 1`` stays the
    hot path); the registry materializes the number only when asked.
    """

    __slots__ = ("_fn", "kind")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        fn: Callable[[], float],
        help: str = "",
        kind: str = "counter",
    ) -> None:
        super().__init__(name, labels, help)
        if kind not in ("counter", "gauge"):
            raise ValueError(f"bound instruments are counter|gauge: {kind}")
        self._fn = fn
        self.kind = kind

    def value(self) -> float:
        return float(self._fn())


class _BoundFamily:
    """A callback producing one sample per dynamic label value.

    ``fn()`` returns ``{label_value: number}``; each entry becomes a
    sample ``name{**labels, label=label_value}``.  Used for naturally
    dict-shaped substrate counters (hypercalls by name, fault lifecycle
    by site) whose key set grows during the run.
    """

    __slots__ = ("name", "labels", "label", "help", "kind", "_fn")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        label: str,
        fn: Callable[[], Mapping[str, float]],
        help: str = "",
        kind: str = "counter",
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if not _LABEL_RE.match(label):
            raise ValueError(f"bad label name {label!r}")
        self.name = name
        self.labels = labels
        self.label = label
        self.help = help
        self.kind = kind
        self._fn = fn

    def samples(self) -> Iterator[tuple[LabelItems, float]]:
        for value_key, number in self._fn().items():
            labels = _canon_labels(
                dict(self.labels) | {self.label: str(value_key)}
            )
            yield labels, float(number)


class Sample:
    """One collected data point (flattened view over every instrument)."""

    __slots__ = ("name", "labels", "kind", "value", "help")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        kind: str,
        value: Any,
        help: str = "",
    ) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind
        self.value = value
        self.help = help

    @property
    def key(self) -> tuple[str, LabelItems]:
        return (self.name, self.labels)


class Registry:
    """Instrument store with label scoping via child views.

    The root owns the store; :meth:`child` returns a view whose
    instruments carry extra scope labels but live in the same store, so
    :meth:`snapshot` at any node sees the whole tree.  Instrument
    lookups are get-or-create on ``(name, labels)`` — asking twice
    returns the same object (and conflicting kinds raise).
    """

    def __init__(self, **labels: object) -> None:
        self._scope = _canon_labels(labels)
        self._instruments: dict[tuple[str, LabelItems], Instrument] = {}
        self._families: list[_BoundFamily] = []
        #: Shared trace recorder; ``None`` means no spans (see :meth:`span`).
        self.spans: TraceRecorder | None = None

    # -- scoping -------------------------------------------------------
    def child(self, **labels: object) -> "Registry":
        scope = dict(self._scope) | {k: str(v) for k, v in labels.items()}
        view = Registry.__new__(Registry)
        view._scope = _canon_labels(scope)
        view._instruments = self._instruments
        view._families = self._families
        view.spans = self.spans
        return view

    @property
    def scope(self) -> LabelItems:
        return self._scope

    def _labels(self, labels: Mapping[str, object]) -> LabelItems:
        merged = dict(self._scope)
        merged.update({k: str(v) for k, v in labels.items()})
        return _canon_labels(merged)

    # -- instrument creation (get-or-create) ---------------------------
    def _get_or_create(
        self,
        cls: type,
        name: str,
        labels: Mapping[str, object],
        help: str,
        **kwargs: Any,
    ) -> Any:
        key = (name, self._labels(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls) or kwargs.get(
                "kind", existing.kind
            ) != existing.kind:
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{existing.kind}"
                )
            return existing
        instrument = cls(name, key[1], help=help, **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_NS_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, help, buckets=buckets
        )

    def bind(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        kind: str = "counter",
        **labels: object,
    ) -> None:
        """Register a lazily-read instrument backed by ``fn()``.

        Re-binding the same ``(name, labels)`` replaces the callback —
        substrates that reconnect (driver restart) stay wired.
        """
        key = (name, self._labels(labels))
        existing = self._instruments.get(key)
        if existing is not None and not isinstance(existing, _Bound):
            raise ValueError(
                f"instrument {name!r} already registered as {existing.kind}"
            )
        self._instruments[key] = _Bound(
            name, key[1], fn, help=help, kind=kind
        )

    def bind_family(
        self,
        name: str,
        label: str,
        fn: Callable[[], Mapping[str, float]],
        help: str = "",
        kind: str = "counter",
        **labels: object,
    ) -> None:
        """Register a dict-valued callback as one sample per key."""
        scope = self._labels(labels)
        for family in self._families:
            if family.name == name and family.labels == scope:
                family._fn = fn  # rebind (same identity)
                return
        self._families.append(
            _BoundFamily(name, scope, label, fn, help=help, kind=kind)
        )

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **labels: object) -> Any:
        """Open a span scoped with this registry's labels.

        ``registry.span("netfront.tx", domain="xc0")`` — requires a
        :class:`~repro.obs.tracing.TraceRecorder` in :attr:`spans`.
        """
        if self.spans is None:
            raise RuntimeError(
                "no span recorder attached (set registry.spans to a "
                "repro.obs.TraceRecorder to enable tracing)"
            )
        merged = dict(self._scope)
        merged.update({k: str(v) for k, v in labels.items()})
        return self.spans.span(name, **merged)

    # -- collection ----------------------------------------------------
    def collect(self) -> list[Sample]:
        """Every sample, deterministically ordered by (name, labels).

        Bound instruments and families are materialized here; histograms
        produce one Sample carrying the instrument itself as ``value``
        (exporters expand buckets).
        """
        out: list[Sample] = []
        for (name, labels), inst in self._instruments.items():
            if isinstance(inst, Histogram):
                out.append(Sample(name, labels, inst.kind, inst, inst.help))
            else:
                out.append(
                    Sample(name, labels, inst.kind, inst.value(), inst.help)
                )
        for family in self._families:
            for labels, value in family.samples():
                out.append(
                    Sample(family.name, labels, family.kind, value,
                           family.help)
                )
        out.sort(key=lambda s: (s.name, s.labels))
        return out

    def value(self, name: str, **labels: object) -> float:
        """Sum of all samples of ``name`` whose labels include ``labels``.

        The cross-layer query primitive: ``value("arch_icache_hits_total")``
        sums over every vCPU; adding ``cpu=0`` narrows to one.  Only the
        matching instruments and families are read, and they are summed in
        :meth:`collect`'s ``(name, labels)`` order, so the float result is
        the same as summing the collected samples.
        """
        want = set(_canon_labels(labels))
        matched: list[tuple[LabelItems, float]] = []
        for (inst_name, inst_labels), inst in self._instruments.items():
            if inst_name == name and want.issubset(inst_labels):
                matched.append((inst_labels, inst.value()))
        for family in self._families:
            if family.name != name:
                continue
            for family_labels, number in family.samples():
                if want.issubset(family_labels):
                    matched.append((family_labels, number))
        if not matched:
            raise KeyError(f"no samples for metric {name!r}")
        matched.sort(key=lambda item: item[0])
        # A left-to-right loop, not ``sum()``: from Python 3.12 ``sum()``
        # compensates float rounding, which can change the last bits.
        total = 0.0
        for _, number in matched:
            total += number
        return total

    def snapshot(self) -> dict:
        """One deterministic nested structure over every instrument.

        Shape::

            {"counters": {"name{k=v}": value, ...},
             "gauges":   {...},
             "histograms": {"name{k=v}": {"count": n, "sum": s,
                                          "mean": m,
                                          "buckets": {"16": c, ...}}},
             "spans": {"finished": n, "dropped": d,
                       "by_name": {"name": {"count": n,
                                            "total_ns": t}}}}

        ``spans`` is present only when :attr:`spans` holds a recorder.
        Keys are rendered ``name{label=value,...}`` strings sorted
        lexicographically, so two runs with the same history produce
        byte-identical JSON.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for sample in self.collect():
            key = render_sample_key(sample.name, sample.labels)
            if sample.kind == "histogram":
                hist: Histogram = sample.value
                histograms[key] = {
                    "count": hist.count,
                    "sum": _num(hist.sum),
                    "mean": _num(hist.mean),
                    "buckets": {
                        format_value(edge): count
                        for edge, count in zip(
                            hist.buckets, hist.cumulative()
                        )
                    },
                }
            elif sample.kind == "gauge":
                gauges[key] = _num(sample.value)
            else:
                counters[key] = _num(sample.value)
        snap: dict[str, Any] = {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        if self.spans is not None:
            spans = self.spans.spans()
            by_name: dict[str, dict[str, float]] = {}
            for span in spans:
                agg = by_name.setdefault(
                    span.name, {"count": 0, "total_ns": 0.0}
                )
                agg["count"] += 1
                agg["total_ns"] += span.duration_ns
            snap["spans"] = {
                "finished": len(spans),
                "dropped": self.spans.dropped,
                "by_name": dict(sorted(by_name.items())),
            }
        return snap


def _num(value: float) -> float | int:
    """Integral floats become ints (stable, readable JSON)."""
    return int(value) if float(value).is_integer() else float(value)


def render_sample_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def format_value(value: float) -> str:
    """Stable numeric rendering: integers without a decimal point."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
