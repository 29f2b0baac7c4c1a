"""Skipping the manager on quiet decodes changes nothing a run simulates.

The shipped :class:`LLMEngine` runs in lockstep beside a test-side engine
that asks the manager on every decode: after each of its commits it sets
the request's horizon back to 0, so every decode calls
``needs_allocation`` and ``commit``.  Four models bound the horizon in
four ways: gemma2-9b slides a window, jamba-52b checkpoints Mamba state,
llama3.2-vision-11b has a cross-attention group that decode never grows,
and paligemma2-10b caches vision embeddings.  Each runs in a pool small
enough to preempt, with shared prompt heads so that prefix hits, evictions
and re-admissions all happen.  After every step both engines must hold the
same step record and the same eviction metadata on every page, and at the
end the same finished requests and the same pool.
"""

import pytest

from repro.core.kv_manager import JengaKVCacheManager
from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.models import get_model
from repro.platforms import H100
from repro.workloads import token_block

from .test_allocator_runs import snapshot
from .test_step_loop_golden import STEP_FIELDS

MIB = 2**20

#: Pool per model: each preempts, and every request still finishes.
POOLS = {
    "gemma2-9b": 1000 * MIB,
    "jamba-52b": 600 * MIB,
    "llama3.2-vision-11b": 300 * MIB,
    "paligemma2-10b": 1000 * MIB,
}


class AskingEngine(LLMEngine):
    """Asks the manager on every decode: no request keeps a horizon."""

    def _finalize(self, request, n, end):
        super()._finalize(request, n, end)
        request.horizon = 0

    _finalize_decode = _finalize


def requests(model, n=16):
    """Two shared heads long enough to checkpoint Mamba state twice, tails
    and outputs of mixed lengths, arrivals spread over the first steps."""
    out = []
    for i in range(n):
        head = token_block(0, "quiet-head", i % 2, 1100 + 40 * (i % 3))
        tail = token_block(0, "quiet-tail", i, 200 + (i * 137) % 900)
        if model.vision is None:
            segments = [("text", head + tail)]
        else:
            image = token_block(0, "quiet-image", i % 2, 601)
            segments = [("text", head[:100]), ("image", image), ("text", tail)]
        out.append(
            Request.multimodal(f"q{i}", segments, 20 + (i * 53) % 200, arrival_time=0.02 * i)
        )
    return out


def build(engine_class, model):
    manager = JengaKVCacheManager(model.kv_groups(), POOLS[model.name])
    engine = engine_class(
        model, H100, manager,
        config=SchedulerConfig(max_num_batched_tokens=1024, record_memory=True),
    )
    engine.add_requests(requests(model))
    return engine


def eviction_metadata(engine):
    return {
        group_id: (list(group.last_access), list(group.prefix_length))
        for group_id, group in engine.manager.allocator.groups.items()
    }


@pytest.mark.parametrize("model_name", list(POOLS))
def test_quiet_decodes_leave_the_run_unchanged(model_name):
    model = get_model(model_name)
    shipped, asking = build(LLMEngine, model), build(AskingEngine, model)
    while shipped.waiting or shipped.running:
        record, reference = shipped.step(), asking.step()
        assert record is not None and reference is not None
        assert [getattr(record, f) for f in STEP_FIELDS] == [
            getattr(reference, f) for f in STEP_FIELDS
        ], record.index
        assert eviction_metadata(shipped) == eviction_metadata(asking), record.index
    assert not asking.waiting and not asking.running
    assert shipped.finished == asking.finished
    assert len(shipped.finished) == len(requests(model)) and not shipped.failed
    assert shipped.collector.preemptions == asking.collector.preemptions > 0
    assert shipped.manager.hit_tokens == asking.manager.hit_tokens > 0
    assert snapshot(shipped.manager.allocator) == snapshot(asking.manager.allocator)
