"""Arrival processes and the Section 7.3 fragmentation traces."""

from __future__ import annotations

import random
from typing import List, Sequence

from ..engine.request import Request
from .synthetic import clamp, token_block

__all__ = [
    "poisson_arrivals",
    "ministral_static_trace",
    "ministral_dynamic_trace",
]


def poisson_arrivals(
    requests: Sequence[Request], rate: float, seed: int = 0
) -> List[Request]:
    """Assign Poisson arrival times (``rate`` requests/second).

    Mutates each request's ``arrival_time`` in place *and* returns the
    requests as a new list, so callers can write either
    ``poisson_arrivals(reqs, rate)`` or ``reqs = poisson_arrivals(...)``.

    Figure 14 sweeps this rate for the Llama Vision model.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    rng = random.Random(f"{seed}:" + str("poisson"))
    t = 0.0
    for request in requests:
        t += rng.expovariate(rate)
        request.arrival_time = t
    return list(requests)


def ministral_static_trace(
    num_requests: int = 24,
    seed: int = 0,
    mean_prompt: int = 65536,
    mean_output: int = 96,
) -> List[Request]:
    """Figure 16a/c: request lengths stationary over the whole trace."""
    rng = random.Random(f"{seed}:" + str("ministral-static"))
    requests = []
    for i in range(num_requests):
        p = clamp(int(rng.gauss(mean_prompt, mean_prompt * 0.15)), 8192, 131072)
        o = clamp(int(rng.gauss(mean_output, 24)), 16, 256)
        requests.append(
            Request.text(
                f"static-{i}", token_block(seed, "static", i, p), max_output_tokens=o
            )
        )
    return requests


def ministral_dynamic_trace(
    num_requests: int = 36,
    seed: int = 0,
    start_prompt: int = 16384,
    end_prompt: int = 114688,
    mean_output: int = 96,
) -> List[Request]:
    """Figure 16b/d: the mean request length ramps over the trace.

    Short early requests keep most KV inside the sliding window
    (self-attention's share of allocated memory is high); late long
    requests shift capacity toward the window layers -- the 27.8%-54.5%
    dynamic reallocation range the paper reports is this effect.
    """
    rng = random.Random(f"{seed}:" + str("ministral-dynamic"))
    requests = []
    for i in range(num_requests):
        frac = i / max(1, num_requests - 1)
        mean_p = start_prompt + (end_prompt - start_prompt) * frac
        p = clamp(int(rng.gauss(mean_p, mean_p * 0.1)), 4096, 131072)
        o = clamp(int(rng.gauss(mean_output, 24)), 16, 256)
        requests.append(
            Request.text(
                f"dynamic-{i}", token_block(seed, "dynamic", i, p), max_output_tokens=o
            )
        )
    return requests
