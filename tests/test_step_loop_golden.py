"""Golden digests of whole engine runs, one per step-loop path.

``LLMEngine.step`` is the only step loop; ``SpecDecodeEngine`` overrides
how a decode is planned, priced and committed.  These tests digest every
simulated output of a run -- each :class:`StepRecord` field except the
wall-clock ``phases``, every :class:`RequestMetrics` and the failed ids --
and compare it with the value recorded on e51e0ab, the commit on which
``SpecDecodeEngine`` still carried its own copy of ``step``:

* the speculative-decoding engine over every spec manager, one
  homogeneous and one heterogeneous draft/target pair, a pool that
  preempts and one that does not, chunked prefill on and off;
* ``LLMEngine`` on step paths the benchmark ledger never runs: a vision
  model whose encoder outputs are cached (``allocate_vision`` /
  ``consume_vision``) or re-encoded per chunk, prefill without chunking,
  and a shared-pool ``MultiModelEngine``.

Every run keeps ``record_memory`` on, so the per-step memory snapshot is
part of the digest.
"""

import dataclasses
import hashlib

import pytest

from repro.baselines import make_manager
from repro.engine import LLMEngine, Request, SchedulerConfig, SpecDecodeEngine, make_spec_manager
from repro.engine.multi_model import MultiModelEngine
from repro.models import GIB, get_model
from repro.platforms import H100
from repro.workloads import mmmu_pro, token_block

MIB = 2**20


def requests(tag, n, arrival_gap=0.0):
    """Mixed prompt and output lengths, every prompt under the budget.

    Every fifth request wants one token, so it finishes in the step that
    prefills it, next to decodes finishing: ``finished`` then records the
    commit order.
    """
    return [
        Request.text(
            f"{tag}{i}",
            token_block(0, tag, i, 150 + (i * 173) % 800),
            1 if i % 5 == 2 else 16 + (i * 29) % 64,
            arrival_time=i * arrival_gap,
        )
        for i in range(n)
    ]


def digest(engines):
    """Hash of everything a run simulated, wall-clock phases excluded."""
    parts = []
    for engine in engines:
        parts.append([
            dataclasses.replace(record, phases=None) for record in engine.steps
        ])
        parts.append(engine.finished)
        parts.append([request.request_id for request in engine.failed])
        parts.append(engine.collector.preemptions)
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


CONFIG = SchedulerConfig(max_num_batched_tokens=1024, record_memory=True)
PAIRS = {"llama": ("llama3.2-1b", "llama3-8b"), "gemma": ("gemma2-2b", "gemma2-9b")}
#: Pool bytes per pair: one that preempts, one that never does.
POOLS = {
    ("llama", "preempts"): 400 * MIB, ("llama", "roomy"): 4 * GIB,
    ("gemma", "preempts"): 1 * GIB, ("gemma", "roomy"): 12 * GIB,
}


def spec_run(system, pair, pool, chunked):
    draft, target = (get_model(name) for name in PAIRS[pair])
    manager = make_spec_manager(system, draft, target, POOLS[pair, pool])
    engine = SpecDecodeEngine(
        draft, target, H100, manager,
        config=CONFIG.with_(enable_chunked_prefill=chunked),
        num_speculative_tokens=4, acceptance_rate=0.7, seed=3,
    )
    engine.add_requests(requests("s", 24, arrival_gap=0.01))
    # Outgrows either "preempts" pool on its own: a permanent failure
    # mid-decode, after the speculative extension.
    engine.add_request(Request.text("long", token_block(0, "long", 0, 1000), 2500, 0.05))
    engine.run(max_steps=5000)
    assert not engine.waiting and not engine.running
    return engine


#: Recorded at e51e0ab with ``digest([spec_run(*key)])``.
SPEC_GOLDEN = {
    ("jenga", "llama", "preempts", True): "2340c69c3122f57b",
    ("jenga", "llama", "preempts", False): "129a6a9d787ce654",
    ("jenga", "llama", "roomy", True): "f8858a586041714c",
    ("jenga", "llama", "roomy", False): "b022f2f8e1b686ab",
    ("jenga", "gemma", "preempts", True): "9e781885fc771ebc",
    ("jenga", "gemma", "preempts", False): "11d7278e3564701b",
    ("jenga", "gemma", "roomy", True): "52c9d13f8b95a323",
    ("jenga", "gemma", "roomy", False): "5fcbabd71a196e3e",
    ("vllm-max", "llama", "preempts", True): "bb84cde24e02e4bd",
    ("vllm-max", "llama", "preempts", False): "ac4fd0207f0a3271",
    ("vllm-max", "llama", "roomy", True): "74b8a8ec59dc61a3",
    ("vllm-max", "llama", "roomy", False): "21a1dd27b77e7a5e",
    ("vllm-max", "gemma", "preempts", True): "39cd6bcb64f00404",
    ("vllm-max", "gemma", "preempts", False): "5e8e69e7f440f9f8",
    ("vllm-max", "gemma", "roomy", True): "7ba8d115a231a936",
    ("vllm-max", "gemma", "roomy", False): "46983539a145231a",
    ("vllm-manual", "llama", "preempts", True): "c51954045b3b2b31",
    ("vllm-manual", "llama", "preempts", False): "f29520636aac381e",
    ("vllm-manual", "llama", "roomy", True): "5d0feabb6142e863",
    ("vllm-manual", "llama", "roomy", False): "348bd472253eed2c",
    ("vllm-manual", "gemma", "preempts", True): "500157ff39d1e61c",
    ("vllm-manual", "gemma", "preempts", False): "e1d03154ed81e3cc",
    ("vllm-manual", "gemma", "roomy", True): "388f32ba1b8a401a",
    ("vllm-manual", "gemma", "roomy", False): "611ccb5c96fb72f0",
}


@pytest.mark.parametrize("system,pair,pool,chunked", sorted(SPEC_GOLDEN))
def test_spec_decode_digest(system, pair, pool, chunked):
    key = (system, pair, pool, chunked)
    assert digest([spec_run(*key)]) == SPEC_GOLDEN[key]


def test_spec_pools_preempt_and_fail_or_do_neither():
    assert len(SPEC_GOLDEN) == 24
    tight = spec_run("jenga", "gemma", "preempts", True)
    roomy = spec_run("jenga", "gemma", "roomy", True)
    assert tight.collector.preemptions > 0 and [r.request_id for r in tight.failed] == ["long"]
    assert roomy.collector.preemptions == 0 and not roomy.failed


def vision_run(system):
    """paligemma2 caches encoder outputs: with Jenga's embedding cache the
    encoder runs once, with vLLM's none it reruns on every prefill chunk."""
    model = get_model("paligemma2-10b")
    manager = make_manager(system, model, 1 * GIB)
    assert manager.has_vision_cache == (system == "jenga")
    engine = LLMEngine(model, H100, manager, config=CONFIG.with_(max_num_batched_tokens=2048))
    engine.add_requests(mmmu_pro(6, model, seed=1, mean_image_tokens=2048, mean_output=24))
    engine.run(max_steps=5000)
    return [engine]


def unchunked_run():
    model = get_model("gemma2-9b")
    manager = make_manager("jenga", model, 400 * MIB)
    engine = LLMEngine(model, H100, manager, config=CONFIG.with_(enable_chunked_prefill=False))
    engine.add_requests(requests("u", 20, arrival_gap=0.005))
    engine.run(max_steps=5000)
    return [engine]


def shared_multi_model_run():
    multi = MultiModelEngine(
        {"big": get_model("llama3-8b"), "small": get_model("llama3.2-1b")},
        H100, 256 * MIB, shared=True, config=CONFIG,
    )
    multi.add_requests("big", requests("b", 10, arrival_gap=0.01))
    multi.add_requests("small", requests("m", 10, arrival_gap=0.007))
    multi.run(max_steps=10000)
    return list(multi.engines.values())


LLM_RUNS = {
    "vision_cache": lambda: vision_run("jenga"),
    "vision_reencode": lambda: vision_run("vllm"),
    "unchunked": unchunked_run,
    "multi_model_shared": shared_multi_model_run,
}

#: Recorded at e51e0ab with ``digest(LLM_RUNS[name]())``.
LLM_GOLDEN = {
    "vision_cache": "04b54a3efd71a72e",
    "vision_reencode": "5c1c9d6208e14b77",
    "unchunked": "61121e90c3261794",
    "multi_model_shared": "59f7f33be39370b3",
}


@pytest.mark.parametrize("name", sorted(LLM_GOLDEN))
def test_llm_engine_digest(name):
    assert digest(LLM_RUNS[name]()) == LLM_GOLDEN[name]

