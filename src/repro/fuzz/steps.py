"""Serializable fuzzer steps.

Every rule the stateful fuzzer (:mod:`repro.fuzz.machine`) executes
records itself as a :class:`Step` — a pure-data value (op name plus a
sorted tuple of JSON-scalar arguments) that round-trips through JSON and
re-executes byte-identically on a :class:`~repro.fuzz.world.FuzzWorld`
with the same world seed.  A shrunk failing sequence is therefore a
minimal, seed-stable repro: ``repro chaos --replay steps.json`` re-runs
it, and :meth:`repro.faults.chaos.Scenario.from_steps` promotes it into
the scenario catalog.

The op catalog (:data:`OPS`) is the contract between the machine (which
generates steps), the world (which executes them), and the on-disk
regression catalog (``tests/faults/regressions/``).  Args are restricted
to ``int``/``str``/``bool`` so serialization is exact — no floats, no
containers — and :func:`dumps` is canonical (sorted keys, fixed indent)
so byte-identity is well-defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

#: On-disk format version of :func:`dumps`.
FORMAT_VERSION = 1

ArgValue = int | str | bool

#: Op name -> exact set of required argument names.  Every op takes all
#: of its args (no optionals): keeps serialized steps shape-stable.
OPS: dict[str, tuple[str, ...]] = {
    # Domain lifecycle (xen.toolstack / xen.hypervisor)
    "spawn": ("memory_mb", "lightvm"),
    "destroy": ("index",),
    # Live migration (xen.migration)
    "migrate": ("index", "dirty_rate", "downtime_ms"),
    # Remus replication (xen.remus)
    "remus_epoch": ("dirty_pages", "packets"),
    "remus_failover": (),
    # ABOM online patch of a running guest (core.abom)
    "abom_patch": ("rounds",),
    # Split-driver I/O (xen.drivers / xen.blkdev / xen.events)
    "net_burst": ("count", "size", "batched"),
    "blk_burst": ("start", "count", "batched", "pattern"),
    # Fault plan churn (repro.faults)
    "inject_fault": ("name", "mode", "n", "limit"),
    "clear_faults": ("name",),
    # Discrete-event fleet (core.engine; dual hybrid/stepped engines)
    "fleet_spawn": ("count",),
    "fleet_post": ("index", "units"),
    "fleet_tick": ("ticks",),
    "fleet_drain": (),
}


@dataclass(frozen=True)
class Step:
    """One serializable fuzzer action: op name + sorted scalar args."""

    op: str
    args: tuple[tuple[str, ArgValue], ...] = ()

    def __post_init__(self) -> None:
        if self.op not in OPS:
            known = ", ".join(sorted(OPS))
            raise ValueError(f"unknown step op {self.op!r} (known: {known})")
        object.__setattr__(self, "args", tuple(sorted(self.args)))
        names = tuple(name for name, _ in self.args)
        expected = tuple(sorted(OPS[self.op]))
        if names != expected:
            raise ValueError(
                f"step {self.op!r} needs args {expected}, got {names}"
            )
        for name, value in self.args:
            # bool is an int subclass; accept it explicitly first.
            if not isinstance(value, (bool, int, str)):
                raise ValueError(
                    f"step arg {name}={value!r} is not a JSON scalar "
                    "(int/str/bool)"
                )

    def describe(self) -> str:
        """Single-line rendering used in world traces."""
        inner = " ".join(f"{k}={v}" for k, v in self.args)
        return f"{self.op}({inner})" if inner else f"{self.op}()"


def step(op: str, **args: ArgValue) -> Step:
    """Build a validated :class:`Step` from keyword args."""
    return Step(op, tuple(args.items()))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def to_jsonable(
    steps: Iterable[Step], world_seed: int | str = 0
) -> dict[str, Any]:
    """The serialized form: a versioned envelope around the step list."""
    return {
        "version": FORMAT_VERSION,
        "world_seed": world_seed,
        "steps": [
            {"op": one.op, "args": dict(one.args)} for one in steps
        ],
    }


def from_jsonable(
    payload: Mapping[str, Any]
) -> tuple[int | str, tuple[Step, ...]]:
    """Inverse of :func:`to_jsonable`; validates every step."""
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported steps format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    world_seed = payload.get("world_seed", 0)
    if not isinstance(world_seed, (int, str)) or isinstance(world_seed, bool):
        raise ValueError(f"world_seed must be int or str: {world_seed!r}")
    raw = payload.get("steps")
    if not isinstance(raw, list):
        raise ValueError("steps must be a list")
    steps: list[Step] = []
    for entry in raw:
        if not isinstance(entry, Mapping):
            raise ValueError(f"step entry must be an object: {entry!r}")
        args = entry.get("args", {})
        if not isinstance(args, Mapping):
            raise ValueError(f"step args must be an object: {args!r}")
        steps.append(Step(entry["op"], tuple(args.items())))
    return world_seed, tuple(steps)


def dumps(steps: Iterable[Step], world_seed: int | str = 0) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline.

    Canonical means byte-identity of two serializations is equivalent to
    equality of the (world_seed, steps) pair — what the regression
    catalog's replay gate asserts.
    """
    return json.dumps(
        to_jsonable(steps, world_seed), indent=2, sort_keys=True
    ) + "\n"


def loads(text: str) -> tuple[int | str, tuple[Step, ...]]:
    """Parse :func:`dumps` output back into (world_seed, steps)."""
    return from_jsonable(json.loads(text))
