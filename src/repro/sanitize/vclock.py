"""Vector clocks for the happens-before race detector.

Clocks are plain ``dict[str, int]`` maps from actor name to that actor's
logical time.  The module keeps them as free functions over dicts (no
wrapper class) so the detector's hot path stays allocation-light, and
every operation is deterministic: joins iterate the *other* clock's
items, order-independent because ``max`` is commutative, and rendering
sorts keys.

Discipline (standard release/acquire vector clocks):

* each actor owns one component; an access is stamped with the actor's
  current **epoch** (its own component);
* ``release`` publishes a copy of the actor's clock into a channel and
  then ticks the actor, so later accesses are not ordered before the
  release;
* ``acquire`` joins the channel's clock into the actor's, so later
  accesses are ordered after everything the releaser had seen.

An access ``(actor=p, epoch=c)`` happens-before the current state of
actor ``q`` iff ``c <= clock_q[p]`` — the single-comparison FastTrack
check the detector uses per recorded access.
"""

from __future__ import annotations

VClock = dict[str, int]


def vc_fresh(actor: str) -> VClock:
    """A new actor's clock: its own component starts at 1."""
    return {actor: 1}


def vc_join(into: VClock, other: VClock) -> None:
    """``into := into ⊔ other`` (componentwise max), in place."""
    for actor, time in other.items():
        if time > into.get(actor, 0):
            into[actor] = time
