"""Grant tables — Xen's shared-memory mechanism for split drivers (§4.1).

    "data is transferred using shared memory (asynchronous buffer
     descriptor rings)"

A domain *grants* access to one of its pages; the peer domain *maps* the
grant.  The split network/block drivers move payloads through granted ring
pages.  Costs: granting is cheap bookkeeping, mapping is a hypercall.

Batching: real ``GNTTABOP_copy`` takes an *array* of copy operations per
hypercall; :meth:`GrantTable.copy_grant_batch` mirrors that — one
visibility validation and one hypercall charge per batch, per-byte
accounting summed vectorized, while the injected-fault hook still fires
once per logical copy so chaos plans see every element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.faults import sites as fault_sites
from repro.xen.hypercalls import HypercallTable


@dataclass
class GrantRef:
    ref: int
    owner_domid: int
    page_addr: int
    mapped_by: int | None = None


class GrantError(Exception):
    pass


class GrantMapError(GrantError):
    """Transient map failure (resource pressure or injected); retriable."""


class GrantCopyError(GrantError):
    """Transient copy failure (resource pressure or injected); retriable."""


class GrantTable:
    """Grant bookkeeping for one hypervisor instance."""

    def __init__(
        self, hypercalls: HypercallTable, faults=None, sanitizer=None
    ) -> None:
        self.hypercalls = hypercalls
        #: Optional :class:`repro.faults.plan.FaultEngine`.
        self.faults = faults
        #: Optional :class:`repro.sanitize.suite.SanitizerSuite`; feeds
        #: the grant-lifecycle mirror.  ``None`` keeps every hook a
        #: single attribute test.
        self.sanitizer = sanitizer
        self._grants: dict[int, GrantRef] = {}
        self._next_ref = 1
        self.map_failures = 0
        self.copy_failures = 0
        self.copies = 0
        #: Batched ``GNTTABOP_copy`` invocations (one hypercall each).
        self.batched_copies = 0
        #: Per-copy hypercalls saved by batching.
        self.copy_hypercalls_saved = 0

    def grant_access(self, owner_domid: int, page_addr: int) -> int:
        ref = self._next_ref
        self._next_ref += 1
        self._grants[ref] = GrantRef(ref, owner_domid, page_addr)
        if self.sanitizer is not None:
            self.sanitizer.on_grant(ref, owner_domid, page_addr)
        return ref

    def map_grant(self, ref: int, mapper_domid: int) -> GrantRef:
        if self.sanitizer is not None:
            # Before the existence check: mapping a retired ref raises
            # "no such grant", but the mirror knows it was ended.
            self.sanitizer.on_map_attempt(ref)
        grant = self._grants.get(ref)
        if grant is None:
            raise GrantError(f"no such grant ref {ref}")
        if grant.owner_domid == mapper_domid:
            raise GrantError("domain cannot map its own grant")
        if grant.mapped_by is not None:
            raise GrantError(f"grant {ref} already mapped")
        if self.faults is not None:
            fault = self.faults.fire(
                fault_sites.GRANT_MAP, ref=ref, mapper=mapper_domid
            )
            if fault is not None and fault.kind == "fail":
                self.map_failures += 1
                raise GrantMapError(
                    f"transient failure mapping grant {ref} "
                    f"for domain {mapper_domid}"
                )
        self.hypercalls.call("grant_table_op")
        grant.mapped_by = mapper_domid
        if self.sanitizer is not None:
            self.sanitizer.on_map(ref, mapper_domid)
        return grant

    def copy_grant(self, ref: int, requester_domid: int, nbytes: int) -> int:
        """``GNTTABOP_copy``: hypervisor-mediated copy through a grant.

        Returns the bytes copied; the grant must exist and be visible to
        the requester (its owner, or the domain it is mapped by).
        """
        if nbytes < 0:
            raise ValueError(f"negative copy size: {nbytes}")
        if self.sanitizer is not None:
            self.sanitizer.on_copy(ref)
        grant = self._grants.get(ref)
        if grant is None:
            raise GrantError(f"no such grant ref {ref}")
        if requester_domid not in (grant.owner_domid, grant.mapped_by):
            raise GrantError(
                f"grant {ref} not visible to domain {requester_domid}"
            )
        if self.faults is not None:
            fault = self.faults.fire(
                fault_sites.GRANT_COPY, ref=ref, bytes=nbytes
            )
            if fault is not None and fault.kind == "fail":
                self.copy_failures += 1
                raise GrantCopyError(
                    f"transient failure copying {nbytes} B via grant {ref}"
                )
        self.hypercalls.call("grant_table_op")
        self.copies += 1
        return nbytes

    def copy_grant_batch(
        self, ref: int, requester_domid: int, sizes: Iterable[int]
    ) -> int:
        """Vectorized ``GNTTABOP_copy``: one hypercall for many copies.

        Validates grant existence and visibility ONCE for the whole batch,
        charges a single ``grant_table_op`` hypercall, and accounts the
        per-byte cost as one vectorized sum.  The :data:`GRANT_COPY` fault
        hook still fires once per logical copy — an injected ``fail`` on
        any element fails the whole batch (nothing is partially copied;
        the caller's retry resubmits everything), exactly like a failed
        multi-op hypercall.  Returns the total bytes copied.
        """
        ops = list(sizes)
        for nbytes in ops:
            if nbytes < 0:
                raise ValueError(f"negative copy size: {nbytes}")
        if self.sanitizer is not None and ops:
            self.sanitizer.on_copy(ref)
        grant = self._grants.get(ref)
        if grant is None:
            raise GrantError(f"no such grant ref {ref}")
        if requester_domid not in (grant.owner_domid, grant.mapped_by):
            raise GrantError(
                f"grant {ref} not visible to domain {requester_domid}"
            )
        if not ops:
            return 0
        if self.faults is not None:
            for nbytes in ops:
                fault = self.faults.fire(
                    fault_sites.GRANT_COPY, ref=ref, bytes=nbytes
                )
                if fault is not None and fault.kind == "fail":
                    self.copy_failures += 1
                    raise GrantCopyError(
                        f"transient failure copying {nbytes} B via grant "
                        f"{ref} (batch of {len(ops)})"
                    )
        self.hypercalls.call("grant_table_op")
        self.copies += len(ops)
        self.batched_copies += 1
        self.copy_hypercalls_saved += len(ops) - 1
        return sum(ops)

    def unmap_grant(self, ref: int, mapper_domid: int) -> None:
        grant = self._grants.get(ref)
        if grant is None or grant.mapped_by != mapper_domid:
            if self.sanitizer is not None:
                self.sanitizer.on_unmap_attempt(ref, mapper_domid)
            if grant is None:
                raise GrantError(f"no such grant ref {ref}")
            raise GrantError(f"grant {ref} not mapped by domain {mapper_domid}")
        self.hypercalls.call("grant_table_op")
        grant.mapped_by = None
        if self.sanitizer is not None:
            self.sanitizer.on_unmap(ref, mapper_domid)

    def end_access(self, ref: int) -> None:
        grant = self._grants.get(ref)
        if self.sanitizer is not None:
            owner = -1 if grant is None else grant.owner_domid
            self.sanitizer.on_end(ref, owner)
        if grant is None:
            return
        if grant.mapped_by is not None:
            raise GrantError(f"grant {ref} still mapped")
        del self._grants[ref]

    @property
    def active_grants(self) -> int:
        return len(self._grants)
