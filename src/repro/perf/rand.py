"""Deterministic randomness helpers.

All stochastic behaviour in the simulator (request inter-arrival jitter,
run-to-run noise used to produce error bars) flows through a
:class:`DeterministicRng` seeded from the experiment id, so every experiment
is exactly reproducible.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRng(random.Random):
    """A :class:`random.Random` seeded from an int or a string (hashed
    with SHA-256), with named child streams and a clamped noise factor."""

    def __init__(self, seed: int | str) -> None:
        if isinstance(seed, str):
            digest = hashlib.sha256(seed.encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "big")
        #: The int this stream was seeded with (children derive from it).
        self.root_seed = seed
        super().__init__(seed)

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream named ``label``."""
        return DeterministicRng(f"{self.root_seed}:{label}")

    def gauss_factor(self, rel_std: float) -> float:
        """A multiplicative noise factor centred on 1.0, clamped positive."""
        return max(0.05, self.gauss(1.0, rel_std))
