"""Page-size arithmetic for the Jenga compatibility layer.

Jenga's first-level ("large") page size must be *compatible* with every
per-layer-type small page size: a large page is carved into an integral
number of small pages of one type, so the large page size must be a common
multiple of all small page sizes.  Jenga uses the least common multiple
(Section 4.1): no internal fragmentation inside a large page from size
mismatch, and no kernel changes.  Section 4.4's alternatives are baselines
in :mod:`repro.baselines`, not page sizes computed here: GCD is the LCM
layout plus an attention-kernel penalty, and MAX pads every group's page to
the largest one, whose LCM is then that page.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["lcm_of", "lcm_blowup", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value.

    The one percentile definition shared by metrics aggregation and the
    benchmarks.  The naive ``int(q * n)`` index is biased a full rank high
    (``p99`` of 100 samples returns the *maximum* instead of the 99th
    value, and ``p50`` of an even-length list returns the upper median);
    nearest-rank ``ceil(q * n) - 1`` is the standard unbiased choice.
    Returns 0.0 for an empty sequence; ``q`` must lie in ``[0, 1]``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    n = len(values)
    if n == 0:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(n - 1, math.ceil(q * n) - 1))]


def lcm_of(sizes: Iterable[int]) -> int:
    """Return the least common multiple of ``sizes``.

    Raises :class:`ValueError` for an empty iterable or non-positive sizes,
    because a page size of zero bytes is never meaningful.
    """
    result = 0
    seen = False
    for size in sizes:
        if size <= 0:
            raise ValueError(f"page sizes must be positive, got {size}")
        result = size if not seen else math.lcm(result, size)
        seen = True
    if not seen:
        raise ValueError("cannot take the LCM of zero page sizes")
    return result


def lcm_blowup(sizes: Sequence[int]) -> int:
    """Ratio of the LCM page to the smallest small page.

    The paper reports that across all models in vLLM v0.6.4 the worst case
    is Jamba, where the LCM is 84x the smallest page.  Benchmarks use this to
    sanity-check model-zoo page geometry.
    """
    return lcm_of(sizes) // min(sizes)
