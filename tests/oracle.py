"""The admission verdict from a real allocation.

``JengaKVCacheManager.can_admit`` asks the allocator's exact check
(``TwoLevelAllocator.groups_that_fit``) whether a prompt's admission
demand would come out of the five steps.  :func:`admission_oracle`
answers the same question by doing it: on a deep copy of the pool whose
check always says yes (as ``tests/test_allocator_runs.py``'s
``unchecked`` does with ``copy.deepcopy``), it allocates each group's demand in order, and the
answer is whether the five-step loop ran out of pages.
"""

import pickle


def admission_demand(mgr, seq, watermark_pages=0, chunk_tokens=8192):
    """``[(group_id, n), ...]`` in ``mgr.policies`` order: the pages the
    whole prompt keeps resident or, if more, the policy's prefill peak,
    less the pages ``seq`` already holds, plus ``watermark_pages``."""
    bindings = mgr._bindings.get(seq.request_id)
    demand = []
    for group_id, policy in mgr.policies.items():
        stream_len = seq.stream_length(policy.spec.accepted_tags)
        resident = len(policy.active_page_indices(stream_len))
        peak = policy.peak_pages(stream_len, chunk_tokens)
        held = len(bindings[group_id].held) if bindings is not None else 0
        demand.append((group_id, max(resident - held, peak - held, 0) + watermark_pages))
    return demand


def pool_copy(alloc):
    """A deep copy of ``alloc`` that reports to nobody.  A pickle round
    trip copies what ``copy.deepcopy`` does, several times faster."""
    observer, alloc.observer = alloc.observer, None
    try:
        return pickle.loads(pickle.dumps(alloc, pickle.HIGHEST_PROTOCOL))
    finally:
        alloc.observer = observer


def admission_oracle(mgr, seq, watermark_pages=0, chunk_tokens=8192):
    """Whether allocating ``seq``'s admission demand, group by group, on a
    copy of ``mgr``'s pool succeeds."""
    trial = pool_copy(mgr.allocator)
    trial.groups_that_fit = lambda demand, request_id: len(demand)
    for group_id, n in admission_demand(mgr, seq, watermark_pages, chunk_tokens):
        try:
            trial.allocate_pages(group_id, seq.request_id, n)
        except AssertionError:  # step 5 found no page: the run does not fit
            return False
    return True
