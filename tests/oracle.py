"""Reference answers the fast paths are checked against.

The admission verdict from a real allocation:
``JengaKVCacheManager.can_admit`` asks the allocator's exact check
(``TwoLevelAllocator.groups_that_fit``) whether a prompt's admission
demand would come out of the five steps.  :func:`admission_oracle`
answers the same question by doing it: on a deep copy of the pool whose
check always says yes (as ``tests/test_allocator_runs.py``'s
``unchecked`` does with ``copy.deepcopy``), it allocates each group's demand in order, and the
answer is whether the five-step loop ran out of pages.

The model-wide prefix hit by the paper's rule (Section 5.2):
:func:`reference_hit` probes every block of every group, lists each
group's valid prefixes with ``get_possible_prefix`` and intersects them
with :func:`longest_common_prefix`.  The manager's lookup asks each
policy's ``largest_prefix_at_most`` instead and must agree.

A sequence's stream views token by token: :class:`PerTokenSequence`
keeps one tag per token and a prefix count per accepted-tag set.
``SequenceSpec`` answers the same questions from its image spans alone
and must agree.
"""

import bisect
import itertools
import pickle

from repro.core.prefix_cache import chain_hashes
from repro.core.sequence import TEXT


class PerTokenSequence:
    """The stream views of ``SequenceSpec.multimodal(..., segments)``,
    computed from a per-token tag list."""

    def __init__(self, segments):
        self.token_ids, self.tags = [], []
        for tag, ids in segments:
            self.token_ids += ids
            self.tags += [tag] * len(ids)

    def append(self, token_id):
        self.token_ids.append(token_id)
        self.tags.append(TEXT)

    def truncate(self, num_tokens):
        del self.token_ids[num_tokens:]
        del self.tags[num_tokens:]

    def _counts(self, accepted):
        """``counts[i]``: accepted tokens among the first ``i``."""
        return list(itertools.accumulate((tag in accepted for tag in self.tags), initial=0))

    def covered_by(self, accepted):
        return set(self.tags) <= accepted

    def stream_tokens(self, accepted):
        return [t for t, tag in zip(self.token_ids, self.tags) if tag in accepted]

    def stream_length(self, accepted, global_prefix=None):
        n = len(self.tags) if global_prefix is None else min(global_prefix, len(self.tags))
        return self._counts(accepted)[n]

    def global_prefix_for_stream(self, accepted, stream_len):
        counts = self._counts(accepted)
        if stream_len > counts[-1]:
            raise ValueError("stream_len beyond stream")
        return bisect.bisect_left(counts, stream_len)


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
    """A deep copy of ``alloc``.  A pickle round trip copies what
    ``copy.deepcopy`` does, several times faster."""
    return pickle.loads(pickle.dumps(alloc, pickle.HIGHEST_PROTOCOL))


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


def longest_common_prefix(seq, valid_stream_prefixes, accepted_tags, max_global=None):
    """Longest global prefix every group can serve from cache.

    Args:
        seq: The request's token sequence.
        valid_stream_prefixes: For each group id, the stream-prefix lengths
            that group's ``get_possible_prefix`` declared valid (0 is
            implicitly valid everywhere).
        accepted_tags: Each group's accepted token tags, to map stream
            lengths to global positions.
        max_global: Cap on the returned prefix.  Serving engines cap at
            ``len(seq) - 1`` so at least one token is always computed.

    A global prefix ``P`` is valid for group ``g`` iff the number of
    ``g``-stream tokens within the first ``P`` global tokens is one of
    ``g``'s valid stream prefixes.  The answer is the largest ``P`` valid
    for all groups.  Candidates are the maximal global positions realising
    each valid stream length.
    """
    cap = len(seq) if max_global is None else min(max_global, len(seq))
    if cap <= 0:
        return 0
    valid_sets = {g: set(prefixes) | {0} for g, prefixes in valid_stream_prefixes.items()}
    candidates = {cap}
    for group_id, prefixes in valid_sets.items():
        tags = accepted_tags[group_id]
        stream_total = seq.stream_length(tags)
        for v in prefixes:
            if v > stream_total:
                continue
            # The largest global P whose g-stream count is exactly v is just
            # before the (v+1)-th g-token, or the end of the sequence.
            if v == stream_total:
                upper = len(seq)
            else:
                upper = seq.global_prefix_for_stream(tags, v + 1) - 1
            candidates.add(min(upper, cap))
    for p in sorted(candidates, reverse=True):
        if p <= 0:
            break
        if all(
            seq.stream_length(accepted_tags[g], p) in valid
            for g, valid in valid_sets.items()
        ):
            return p
    return 0


def reference_hit(mgr, seq):
    """The hit ``mgr.begin_request(seq)`` must return, from every block's
    probe: ``get_possible_prefix`` per group, then
    :func:`longest_common_prefix` under the ``len(seq) - 1`` cap."""
    valid, tags = {}, {}
    for group_id, policy in mgr.policies.items():
        if policy.encoder_filled:
            continue
        tags[group_id] = policy.spec.accepted_tags
        stream = seq.stream_tokens(tags[group_id])
        hashes = chain_hashes(stream, policy.cacheable_boundaries(len(stream)))
        index = mgr.allocator.groups[group_id].cache_index
        valid[group_id] = policy.get_possible_prefix([h in index for h in hashes])
    return longest_common_prefix(seq, valid, tags, max_global=len(seq) - 1)
