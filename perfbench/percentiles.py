"""Sample summaries with an honest support rule, and strict-JSON output.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it: a p99 over 200 calls is the second-largest sample, not a tail
estimate.  Every summary carries its sample count so a reader can judge it.
"""

from __future__ import annotations

import json
import math
import re

MIN_BEYOND = 10

# Metric and workload names: the charset BENCHMARK.json allows.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(samples, q: float) -> tuple[float | None, int, int]:
    """The nearest-rank ``q``-quantile of ``samples`` with its support.

    Returns ``(value, n, beyond)``: ``beyond`` counts the samples ranked
    past the quantile.  ``value`` is ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    n = len(samples)
    if n == 0:
        return None, 0, 0
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None, n, beyond
    return sorted(samples)[rank - 1], n, beyond


def valid_name(name: str) -> bool:
    """Whether ``name`` fits the BENCHMARK.json name charset and length."""
    return NAME_RE.fullmatch(name) is not None


def dumps_strict(payload) -> str:
    """One-line JSON that refuses NaN and infinities instead of writing them."""
    return json.dumps(payload, allow_nan=False, sort_keys=True)
