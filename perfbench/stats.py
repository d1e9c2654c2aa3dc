"""Summary statistics and failure accounting shared by the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, always with the
sample count, so a tail figure never rests on a handful of requests.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10

#: percentiles the benchmark may report, highest first
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    of *n* samples beyond it, or ``None`` when even the median lacks
    them."""
    for q in CANDIDATE_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0..100] of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tally:
    """Attempted/failed bookkeeping for one load generator.

    A request fails when it gets a non-2xx response, when the transport
    breaks under it, or when its connection could not be opened at all.
    Each is counted against the number attempted.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def status(self, code: int) -> bool:
        """Count one answered request; True when it succeeded."""
        self.attempted += 1
        if 200 <= code < 300:
            return True
        self._fail(f"status {code}")
        return False

    def transport_error(self, exc: BaseException) -> None:
        """Count one request lost to a broken connection."""
        self.attempted += 1
        self._fail(f"transport {type(exc).__name__}")

    def refused(self, exc: BaseException) -> None:
        """Count one connection that could not be opened."""
        self.attempted += 1
        self._fail(f"connect {type(exc).__name__}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": dict(self.reasons),
        }

