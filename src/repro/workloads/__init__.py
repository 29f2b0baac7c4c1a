"""Seeded synthetic workloads matching the paper's dataset statistics."""

from .datasets import (
    arxiv_qa,
    arxiv_qa_long,
    arxiv_qa_multiturn,
    long_document_qa,
    mmlu_pro,
    mmmu_pro,
    sharegpt,
)
from .synthetic import (
    clamp,
    fanout_requests,
    lognormal_lengths,
    token_block,
    uniform_lengths,
)
from .trace import (
    ministral_dynamic_trace,
    ministral_static_trace,
    poisson_arrivals,
)

__all__ = [
    "arxiv_qa",
    "arxiv_qa_long",
    "arxiv_qa_multiturn",
    "clamp",
    "fanout_requests",
    "lognormal_lengths",
    "long_document_qa",
    "ministral_dynamic_trace",
    "ministral_static_trace",
    "mmlu_pro",
    "mmmu_pro",
    "poisson_arrivals",
    "sharegpt",
    "token_block",
    "uniform_lengths",
]
