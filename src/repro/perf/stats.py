"""Statistics helpers for experiment results.

The paper reports "the average and standard deviation of five runs" (§5.1);
:class:`RunStats` collects exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Summary:
    """Mean / std / extrema of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float


def summarize(values: list[float]) -> Summary:
    if not values:
        raise ValueError("cannot summarize no values")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=min(values),
        maximum=max(values),
    )


@dataclass
class RunStats:
    """Accumulates observations across repeated runs of one experiment."""

    label: str = ""
    samples: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return summarize(self.samples).mean
