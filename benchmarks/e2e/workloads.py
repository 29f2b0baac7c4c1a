"""Inputs of the four benchmark workloads, made from ``--seed`` alone.

The length distributions are those of ``repro.workloads.datasets``
(ShareGPT, arXiv-QA multi-turn, MMMU-pro, forked-prefix fan-out), written
out again here so that a change to the library's generators cannot move
the benchmark's inputs: nothing is imported from ``repro.workloads`` or
``repro.bench``.  Only the public ``Request.text`` / ``Request.multimodal``
constructors are used.

Every seed serves a *perturbation of one sample*, not a fresh sample.
The sample -- which lengths there are (quantile ``(i + 0.5) / n`` of the
distribution for request ``i`` of ``n``), their order, how conversations
interleave, the arrival gaps -- is drawn once per workload from a
generator seeded with the workload's name.  The seed then draws every
token id and moves every length and every arrival gap by up to
``JITTER``.  Under memory pressure the engine is sensitive to order: at
the seed commit a fresh shuffle of ``text_pressure`` moves its median
TTFT by 16% and its throughput by 4-9% between seeds, where a 1%
perturbation moves them by 1-3%.  A benchmark that has to resolve a 10%
change in a dozen seconds per run cannot afford the first.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Sequence, Tuple

from repro.engine.request import Request, generated_token

__all__ = ["WORKLOADS", "Inputs", "RequestSpec", "Workload", "make_inputs"]

GIB = 1 << 30

#: A seed moves each length and each arrival gap by at most this share.
JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    """Fixed shape of one workload (sizes are the seed-commit tuning)."""

    name: str
    model: str
    gpu: str
    quantized: bool = False
    #: KV pool: this share of ``kv_budget(model, gpu)``, unless
    #: ``kv_bytes`` fixes the pool size outright.
    kv_share: float = 1.0
    kv_bytes: int = 0
    prefix_caching: bool = True
    max_num_seqs: int = 256
    #: 0 = one ``LLMEngine``; N = ``ServingCluster`` of N replicas.
    replicas: int = 0
    #: Open-loop arrival rates r1 < r2 < r3 (req/s); empty = offline batch.
    rates: Tuple[float, ...] = ()
    #: Latency limits (simulated seconds); unused by offline workloads.
    ttft_limit_s: float = 0.0
    tpot_limit_s: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("text_pressure", "gemma2-9b", "L4", kv_share=0.5),
        Workload("prefix_multiturn", "gemma2-9b", "H100", kv_bytes=30 * GIB, max_num_seqs=2),
        Workload(
            "vision_open_loop", "llama3.2-vision-11b", "L4", quantized=True,
            prefix_caching=False, rates=(0.2, 0.25, 0.4), ttft_limit_s=10.0, tpot_limit_s=0.75,
        ),
        Workload(
            "cluster_fanout", "gemma2-9b", "L4", kv_share=0.33, replicas=4,
            rates=(8.0, 20.0, 32.0), ttft_limit_s=0.5, tpot_limit_s=0.1,
        ),
    )
}


@dataclass(frozen=True)
class RequestSpec:
    """One request before it is handed to the engine (immutable)."""

    request_id: str
    #: ``(tag, token ids)`` in prompt order; tag is ``"text"`` or ``"image"``.
    segments: Tuple[Tuple[str, Tuple[int, ...]], ...]
    output_tokens: int

    @property
    def prompt_len(self) -> int:
        return sum(len(ids) for _, ids in self.segments)

    def build(self, arrival: float) -> Request:
        """A fresh engine ``Request`` (the engine mutates what it serves)."""
        if len(self.segments) == 1 and self.segments[0][0] == "text":
            return Request.text(
                self.request_id, self.segments[0][1], self.output_tokens, arrival
            )
        return Request.multimodal(
            self.request_id, self.segments, self.output_tokens, arrival
        )


@dataclass(frozen=True)
class Inputs:
    """Everything a run of one workload is fed."""

    specs: Tuple[RequestSpec, ...]
    #: One arrival schedule per rate of the workload (a single all-zero
    #: schedule for an offline batch).  Schedules share their unit
    #: exponential gaps, so a higher rate is the same traffic compressed.
    arrivals: Tuple[Tuple[float, ...], ...]
    digest: str

    def requests(self, rate_index: int = 0) -> List[Request]:
        return [
            spec.build(at)
            for spec, at in zip(self.specs, self.arrivals[rate_index])
        ]


def make_inputs(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Seeded inputs of ``workload``; ``scale`` shrinks counts (self-test)."""
    sample = random.Random(workload.name)
    rng = random.Random(f"{workload.name}:{seed}")
    specs = tuple(_GENERATORS[workload.name](sample, rng, scale))
    if workload.rates:
        n = len(specs)
        gaps = [-math.log(1.0 - (i + 0.5) / n) for i in range(n)]
        sample.shuffle(gaps)
        gaps = [gap * (1.0 + rng.uniform(-JITTER, JITTER)) for gap in gaps]
        arrivals = tuple(_cumulative(gaps, rate) for rate in workload.rates)
    else:
        arrivals = (tuple(0.0 for _ in specs),)
    return Inputs(specs, arrivals, _digest(specs, arrivals))


# ----------------------------------------------------------------------
# Generators: (sample generator, seed generator, scale) -> request specs
# ----------------------------------------------------------------------


def _text_pressure(sample: random.Random, rng: random.Random, scale: float) -> List[RequestSpec]:
    """ShareGPT-shaped unshared prompts; 4096 cap keeps every one servable."""
    n = _count(240, scale)
    prompts = _lognormal_strata(sample, n, 1085.04, 1.0, 16, 4096)
    outputs = _lognormal_strata(sample, n, 200, 0.8, 8, 2048)
    return [
        RequestSpec(
            f"sgpt-{i:03d}", (("text", _tokens(rng, _near(rng, p, 16, 4096))),), _near(rng, o, 8, 2048)
        )
        for i, (p, o) in enumerate(zip(prompts, outputs))
    ]


def _prefix_multiturn(sample: random.Random, rng: random.Random, scale: float) -> List[RequestSpec]:
    """Multi-turn QA: turn t's prompt is the article plus all earlier
    (question, answer) pairs, conversations interleaved like independent
    users (turn order kept inside a conversation)."""
    articles = _count(16, scale)
    turns, article_tokens, question_tokens, answer_tokens = 5, 16000, 64, 128
    if scale < 1.0:
        article_tokens = max(512, int(article_tokens * scale))
    conversations: List[List[RequestSpec]] = []
    for a in range(articles):
        history = _tokens(rng, _near(rng, article_tokens, 512, 2 * article_tokens))
        conversation = []
        for t in range(turns):
            rid = f"mt-a{a:02d}-t{t}"
            prompt = history + _tokens(rng, question_tokens)
            conversation.append(RequestSpec(rid, (("text", prompt),), answer_tokens))
            # The engine's generated tokens are a function of the request
            # id, so the next turn can quote this turn's answer exactly.
            history = prompt + tuple(
                generated_token(rid, i) for i in range(answer_tokens)
            )
        conversations.append(conversation)
    order: List[RequestSpec] = []
    cursors = [0] * articles
    for _ in range(articles * turns):
        a = sample.choice([x for x in range(articles) if cursors[x] < turns])
        order.append(conversations[a][cursors[a]])
        cursors[a] += 1
    return order


def _vision_open_loop(sample: random.Random, rng: random.Random, scale: float) -> List[RequestSpec]:
    """MMMU-pro-shaped: image-dominated prompts, question after the images."""
    n = _count(220, scale)
    per_image = 1601  # llama3.2-vision tokens per image
    image_tokens = _normal_strata(sample, n, 6193, 6193 * 0.2, per_image, 6193 * 3)
    text_tokens = _normal_strata(sample, n, 43, 15, 8, 512)
    outputs = _normal_strata(sample, n, 128, 20, 8, 512)
    specs = []
    for i in range(n):
        images = max(1, round(image_tokens[i] / per_image))
        segments = [("image", _tokens(rng, per_image)) for _ in range(images)]
        segments.append(("text", _tokens(rng, _near(rng, text_tokens[i], 8, 512))))
        specs.append(
            RequestSpec(f"mmmu-{i:03d}", tuple(segments), _near(rng, outputs[i], 8, 512))
        )
    return specs


def _cluster_fanout(sample: random.Random, rng: random.Random, scale: float) -> List[RequestSpec]:
    """11 shared 512-token prefixes, each forked into 100-200 requests with
    a 32-token unique suffix; requests of all families shuffled together."""
    families = 11
    sizes = [_count(100 + round(100 * f / (families - 1)), scale) for f in range(families)]
    specs = []
    for family, size in enumerate(sizes):
        prefix = _tokens(rng, 512)
        for j in range(size):
            specs.append(
                RequestSpec(f"f{family:02d}-j{j:03d}", (("text", prefix + _tokens(rng, 32)),), 16)
            )
    sample.shuffle(specs)
    return specs


_GENERATORS: Dict[str, Callable[[random.Random, random.Random, float], List[RequestSpec]]] = {
    "text_pressure": _text_pressure,
    "prefix_multiturn": _prefix_multiturn,
    "vision_open_loop": _vision_open_loop,
    "cluster_fanout": _cluster_fanout,
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

_NORMAL = NormalDist()


def _count(full: int, scale: float) -> int:
    return max(2, round(full * scale))


def _tokens(rng: random.Random, length: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(1, 2**31) for _ in range(length))


def _clamp(value: float, lo: int, hi: int) -> int:
    return max(lo, min(hi, int(value)))


def _near(rng: random.Random, length: int, lo: int, hi: int) -> int:
    """``length`` moved by this seed's jitter (lengths under 50 stay)."""
    return _clamp(round(length * (1.0 + rng.uniform(-JITTER, JITTER))), lo, hi)


def _strata(sample: random.Random, n: int) -> List[float]:
    """Standard-normal quantiles (i + 0.5) / n, in the sample's order."""
    quantiles = [_NORMAL.inv_cdf((i + 0.5) / n) for i in range(n)]
    sample.shuffle(quantiles)
    return quantiles


def _lognormal_strata(
    sample: random.Random, n: int, mean: float, sigma: float, lo: int, hi: int
) -> List[int]:
    """Clipped lognormal with arithmetic mean ``mean`` before clipping."""
    mu = math.log(mean) - sigma * sigma / 2.0
    return [_clamp(math.exp(mu + sigma * z), lo, hi) for z in _strata(sample, n)]


def _normal_strata(
    sample: random.Random, n: int, mean: float, sd: float, lo: int, hi: int
) -> List[int]:
    return [_clamp(mean + sd * z, lo, hi) for z in _strata(sample, n)]


def _cumulative(gaps: Sequence[float], rate: float) -> Tuple[float, ...]:
    out, t = [], 0.0
    for gap in gaps:
        t += gap / rate
        out.append(t)
    return tuple(out)


def _digest(specs: Sequence[RequestSpec], arrivals: Sequence[Sequence[float]]) -> str:
    """sha256 over ids, segment tags and lengths (so image spans), output
    lengths and every arrival schedule.  Token ids stay out: a multi-turn
    prompt quotes ``generated_token``, which hashes a string and so differs
    between interpreter processes without changing what is served."""
    h = hashlib.sha256()
    for spec in specs:
        shape = [(tag, len(ids)) for tag, ids in spec.segments]
        h.update(repr((spec.request_id, shape, spec.output_tokens)).encode())
    for schedule in arrivals:
        h.update(repr(schedule).encode())
    return h.hexdigest()
