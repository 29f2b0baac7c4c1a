"""Golden digests of whole engine runs, one per step-loop path.

``LLMEngine.step`` is the only step loop; ``SpecDecodeEngine`` overrides
how a decode is planned, priced and committed.  These tests digest every
simulated output of a run -- each :class:`StepRecord`'s simulated fields,
by name, every :class:`RequestMetrics` and the failed ids -- and compare
it with the value recorded on e51e0ab, the commit on which
``SpecDecodeEngine`` still carried its own copy of ``step`` (re-recorded
since under the by-name hash, below):

* the speculative-decoding engine over every spec manager, one
  homogeneous and one heterogeneous draft/target pair, a pool that
  preempts and one that does not, chunked prefill on and off;
* ``LLMEngine`` on step paths the benchmark ledger never runs: a vision
  model whose encoder outputs are cached (``allocate_vision`` /
  ``consume_vision``) or re-encoded per chunk, and prefill without
  chunking;
* a hybrid Mamba/attention model under prefix caching and eviction, where
  one large page holds one Mamba page or 84 attention pages.

Every run keeps ``record_memory`` on, so the per-step memory snapshot is
part of the digest.
"""

import hashlib

import pytest

from repro.baselines import make_manager
from repro.engine import LLMEngine, Request, SchedulerConfig, SpecDecodeEngine, make_spec_manager
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


#: The simulated fields of a :class:`StepRecord`, hashed by name.
STEP_FIELDS = (
    "index", "start_time", "duration", "decode_batch", "prefill_tokens",
    "num_running", "num_waiting", "num_preemptions", "memory",
)


def digest(engines):
    """Hash of everything a run simulated."""
    parts = []
    for engine in engines:
        parts.append([
            [(name, getattr(record, name)) for name in STEP_FIELDS]
            for record in engine.steps
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


#: Recorded at e51e0ab with ``digest([spec_run(*key)])``.  The four
#: ``("jenga", *, "preempts", *)`` values were re-recorded when a refused
#: allocation stopped mutating the pool: before, each refused call carved
#: and handed back large pages and re-keyed other requests' free pages into
#: its own step-1 bucket, which moved later page choices (gemma: 487 -> 401
#: and 464 -> 435 steps; llama: +4 / +5 steps).  The previous code gives the
#: same values when every refused allocation is undone by restoring a copy
#: of the allocator taken before it.  The two ``("jenga", "gemma",
#: "preempts", *)`` values were re-recorded again for exact admission: the
#: joint large-page sum ``can_admit`` used to take said yes to 10 (unchunked)
#: and 25 (chunked) probes that ``groups_that_fit`` refuses, and no probe
#: the other way; admitting fewer requests at once moves the runs from 401
#: to 589 and 435 to 473 steps, and from 71 to 50 and 83 to 70 preemptions.
#: All 24 (and the 5 ``LLM_GOLDEN`` values) were re-recorded on 1899ad0
#: when the digest began hashing ``STEP_FIELDS`` by name in place of each
#: record's ``repr``, so a field that is not simulated cannot reach it;
#: 1899ad0 passed the previous values.
SPEC_GOLDEN = {
    ("jenga", "llama", "preempts", True): "50c0b44dd9521b8e",
    ("jenga", "llama", "preempts", False): "fb2aea88ee65a6ee",
    ("jenga", "llama", "roomy", True): "12fad543992ea7b6",
    ("jenga", "llama", "roomy", False): "37a8bf2d8b835e32",
    ("jenga", "gemma", "preempts", True): "c2d7e514a2c36357",
    ("jenga", "gemma", "preempts", False): "e925fa7fd998f157",
    ("jenga", "gemma", "roomy", True): "41bea6a3e35c937d",
    ("jenga", "gemma", "roomy", False): "484463d64663aacc",
    ("vllm-max", "llama", "preempts", True): "ec4d88e5ea647eda",
    ("vllm-max", "llama", "preempts", False): "edbce5cdc7e0fd3e",
    ("vllm-max", "llama", "roomy", True): "7e5778f01b45f0ea",
    ("vllm-max", "llama", "roomy", False): "4ff89232e2e0a1d1",
    ("vllm-max", "gemma", "preempts", True): "6b583ee176fd6f53",
    ("vllm-max", "gemma", "preempts", False): "5da92331476f5d64",
    ("vllm-max", "gemma", "roomy", True): "219808e6cdd2e3b1",
    ("vllm-max", "gemma", "roomy", False): "937529f58da40da2",
    ("vllm-manual", "llama", "preempts", True): "8b4a817a6d809645",
    ("vllm-manual", "llama", "preempts", False): "604c60a41f4b246f",
    ("vllm-manual", "llama", "roomy", True): "0289c0643184a396",
    ("vllm-manual", "llama", "roomy", False): "650cbda01220d1e1",
    ("vllm-manual", "gemma", "preempts", True): "7b9a49f552ed081b",
    ("vllm-manual", "gemma", "preempts", False): "9827e0a0b7f6de67",
    ("vllm-manual", "gemma", "roomy", True): "eb001205650d55b6",
    ("vllm-manual", "gemma", "roomy", False): "aa2bf168f9d9af89",
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


def jamba_prefix_run():
    """jamba-52b with prefix caching over 40 large pages: one 21 MiB Mamba
    state or checkpoint per large page, 84 attention pages in another, so
    both groups evict under pressure.  36 requests in four shared-prefix
    families (1 100 - 2 000-token prefixes).  The watermark is four pages:
    the default eight Mamba pages are eight large pages, and with them some
    long prompts fail admission with nothing running."""
    model = get_model("jamba-52b")
    manager = make_manager("jenga", model, 40 * 21 * MIB)
    engine = LLMEngine(model, H100, manager, config=CONFIG.with_(watermark_pages=4))
    prefixes = [token_block(0, "jp", family, 1100 + 300 * family) for family in range(4)]
    engine.add_requests([
        Request.text(
            f"j{i}",
            prefixes[i % 4] + token_block(0, "js", i, 16 + (i * 37) % 64),
            16 + (i * 13) % 64,
            arrival_time=i * 0.05,
        )
        for i in range(36)
    ])
    engine.run(max_steps=5000)
    return [engine]


LLM_RUNS = {
    "vision_cache": lambda: vision_run("jenga"),
    "vision_reencode": lambda: vision_run("vllm"),
    "unchunked": unchunked_run,
    "jamba_prefix": jamba_prefix_run,
}

#: Recorded at e51e0ab with ``digest(LLM_RUNS[name]())``.  Re-recorded,
#: with the cause and the cross-check given for ``SPEC_GOLDEN``:
#: ``unchunked`` and ``vision_cache`` keep every step, preemption and
#: clock value, and only their memory snapshots move (refused calls
#: no longer evict 114 / 288 cached pages).
#: ``jamba_prefix`` was recorded later, on 6498d9f.  All five were
#: re-recorded with ``SPEC_GOLDEN`` for the by-name hash.
LLM_GOLDEN = {
    "vision_cache": "ac017dfb05fd42de",
    "vision_reencode": "856fcc8f9b189306",
    "unchunked": "e7fce4c6f084b69c",
    "jamba_prefix": "8cce08282b2cc4a5",
}


@pytest.mark.parametrize("name", sorted(LLM_GOLDEN))
def test_llm_engine_digest(name):
    assert digest(LLM_RUNS[name]()) == LLM_GOLDEN[name]


def test_jamba_prefix_evicts_in_both_groups_and_hits():
    """The run the golden pins exercises what it is there for: Mamba
    checkpoints and attention pages both evicted, and prefix hits."""
    (engine,) = jamba_prefix_run()
    groups = engine.manager.allocator.groups
    assert groups["mamba"].num_evictions > 0
    assert groups["self_attn"].num_evictions > 0
    assert engine.manager.hit_tokens > 0
    assert not engine.failed

