"""Seeded synthetic token/length generators and the cluster report workload.

All workloads are derived from seeded RNGs so every experiment is exactly
reproducible.  Token *content* only matters for prefix-cache hashing, so
token ids are drawn uniformly; shared prefixes (the same article, the same
image) reuse the same draw.
"""

from __future__ import annotations

import random
from typing import List

from ..engine.request import Request

__all__ = [
    "token_block",
    "lognormal_lengths",
    "uniform_lengths",
    "clamp",
    "fanout_requests",
]


def token_block(seed: int, tag: str, index: int, length: int) -> List[int]:
    """A deterministic block of token ids.

    The same ``(seed, tag, index, length)`` always yields the same tokens,
    which is how workloads express shared prefixes (two requests quoting
    article 3 call ``token_block(seed, "article", 3, n)`` and get identical
    ids, so their blocks hash equal in the prefix cache).
    """
    rng = random.Random(f"{seed}:{tag}:{index}")
    return [rng.randrange(1, 2**31) for _ in range(length)]


def lognormal_lengths(
    rng: random.Random, n: int, mean: float, sigma: float, lo: int, hi: int
) -> List[int]:
    """``n`` lengths, lognormal-shaped with the given arithmetic mean.

    Real request-length distributions (ShareGPT, MMLU-pro) are heavy
    tailed; a clipped lognormal reproduces that shape.  ``mean`` is the
    target arithmetic mean before clipping.
    """
    import math

    if mean <= 0:
        raise ValueError("mean must be positive")
    mu = math.log(mean) - sigma * sigma / 2.0
    return [clamp(int(rng.lognormvariate(mu, sigma)), lo, hi) for _ in range(n)]


def uniform_lengths(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def fanout_requests(
    fanout: int,
    num_families: int = 6,
    prefix_tokens: int = 512,
    suffix_tokens: int = 32,
    output_tokens: int = 16,
    rate: float = 8.0,
    seed: int = 0,
) -> List[Request]:
    """Forked-prefix routing workload: ``num_families`` shared prefixes
    fork into ``fanout`` requests each, interleaved family-by-family with
    Poisson arrivals.

    The canonical cluster workload of ``repro.cli cluster-report``.
    ``num_families`` should not divide the replica count evenly, otherwise
    round_robin pins families to replicas by accident and the cache_aware
    comparison degenerates.
    """
    from .trace import poisson_arrivals

    requests = []
    for j in range(fanout):
        for family in range(num_families):
            prefix = token_block(seed, f"family{family}", 0, prefix_tokens)
            suffix = token_block(
                seed + 1, f"fam{family}-sfx{j}", j, suffix_tokens
            )
            requests.append(
                Request.text(f"j{j:03d}-f{family}", prefix + suffix,
                             output_tokens)
            )
    poisson_arrivals(requests, rate=rate, seed=seed)
    return requests
