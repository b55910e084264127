"""Small statistics helpers shared by the shardbench harness.

Timings are reported as medians and nearest-rank percentiles; a
percentile is only quoted when the sample has at least ten values
beyond it (choosing-metrics, section 1).  ``canonical`` renders a state
value independently of ``PYTHONHASHSEED`` so two runs of one seed can be
compared by fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable, Sequence

#: the percentiles the report may quote, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: a percentile needs this many samples beyond it to be quoted.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """Nearest rank of the ``p``-th percentile among ``n`` samples, in
    integer arithmetic (tenths of a percent): 90% of 100 is rank 90, not
    the 91 that ``ceil(0.9 * 100)`` rounds up to in floating point."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def highest_supported_percentile(n: int) -> float:
    """The highest entry of :data:`PERCENTILES` that still has at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it."""
    supported = [p for p in PERCENTILES if n - _rank(n, p) >= MIN_BEYOND]
    if not supported:
        raise ValueError(
            f"{n} samples support no percentile "
            f"(need {MIN_BEYOND} beyond the median)"
        )
    return supported[-1]


def canonical(value: object) -> str:
    """A hash-order-independent rendering of a state value: sets and
    dict items are sorted, dataclasses walk their fields, everything
    else reprs (frozenset iteration order tracks ``PYTHONHASHSEED``)."""
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    return repr(value)


def fingerprint(values: Iterable[object]) -> str:
    """A short digest over the canonical renderings of ``values``."""
    digest = hashlib.sha256()
    for value in values:
        digest.update(canonical(value).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]
