"""Token sequences as the allocator sees them.

Heterogeneous models do not store cache for every token in every layer
(paper Section 3): a Llama 3.2 Vision request with ``T`` text and ``I``
image tokens needs self-attention KV for the text tokens only and
cross-attention KV for the image tokens only.  We therefore model a request
as one *global* token sequence in which every token carries a *tag*
(``"text"`` or ``"image"``), and each layer-type group consumes the
subsequence of tokens whose tags it accepts -- its *stream*.

:class:`SequenceSpec` is the only request-shaped object the core allocator
layer knows about; the serving engine's richer ``Request`` wraps one.

Performance note: the engine calls :meth:`SequenceSpec.stream_length` for
every group of every running request on every step, and requests reach
hundreds of thousands of tokens in the paper's long-context experiments,
so the per-tag prefix-count caches are maintained *incrementally* across
:meth:`append`/:meth:`extend` instead of being rebuilt.  The same applies
to content hashing: :meth:`SequenceSpec.hash_chain` memoizes the chained
block hashes per ``(accepted tags, boundary schedule)`` stream, so a
prefix lookup or decode-time extension hashes only tokens it has never
hashed before instead of the whole stream.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

__all__ = ["TokenTag", "SequenceSpec", "TEXT", "IMAGE", "HASH_SEED"]

TokenTag = str
TEXT: TokenTag = "text"
IMAGE: TokenTag = "image"

#: Seed state for chained content hashing (see ``prefix_cache.chain_hashes``).
HASH_SEED = 0x9E3779B97F4A7C15

#: Memo key: the accepted-tag stream plus the policy's boundary schedule
#: (e.g. ``("uniform", 16)`` or ``("exponential", 512)``).  Policies with
#: identical keys share one chain, so a model whose attention groups all
#: use the same page size hashes each stream once per request lifetime.
ChainKey = Tuple[FrozenSet[TokenTag], Tuple[str, int]]


class _HashChain:
    """Append-only chained hashes over one stream's cacheable boundaries.

    ``hashes[i]`` covers stream tokens ``[0, bounds[i])`` and chains
    ``hashes[i-1]``; ``state`` is the fold state after the last boundary.
    Valid only while the underlying sequence grows append-only -- the
    owning :class:`SequenceSpec` drops chains on :meth:`~SequenceSpec.truncate`.
    """

    __slots__ = ("hashes", "bounds", "state")

    def __init__(self) -> None:
        self.hashes: List[int] = []
        self.bounds: List[int] = []
        self.state: int = HASH_SEED


@dataclass
class SequenceSpec:
    """A request's token content, viewed per layer-type group.

    Attributes:
        request_id: Stable identifier used for request-aware allocation.
        token_ids: Global token ids in order (prompt followed by any
            generated tokens).  Ids only matter for prefix-cache hashing, so
            synthetic workloads may use any integers; equal prefixes hash
            equal.
        tags: Per-token tag, parallel to ``token_ids``.
        image_spans: ``(start, end)`` global index ranges of each image's
            tokens, in order.  Vision policies evict whole images at a time,
            so they need the boundaries.
    """

    request_id: str
    token_ids: List[int] = field(default_factory=list)
    tags: List[TokenTag] = field(default_factory=list)
    image_spans: List[Tuple[int, int]] = field(default_factory=list)

    # Incrementally-maintained caches (see module docstring).
    _prefix_counts: Dict[TokenTag, List[int]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _tag_set: Set[TokenTag] = field(default_factory=set, repr=False, compare=False)
    _hash_chains: Dict[ChainKey, _HashChain] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.token_ids) != len(self.tags):
            raise ValueError(
                f"token_ids ({len(self.token_ids)}) and tags ({len(self.tags)}) "
                "must be parallel"
            )
        self._tag_set = set(self.tags)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def text_only(cls, request_id: str, token_ids: Sequence[int]) -> "SequenceSpec":
        """A plain text request (the common case for text models)."""
        ids = list(token_ids)
        return cls(request_id=request_id, token_ids=ids, tags=[TEXT] * len(ids))

    @classmethod
    def multimodal(
        cls,
        request_id: str,
        segments: Sequence[Tuple[TokenTag, Sequence[int]]],
    ) -> "SequenceSpec":
        """Build a sequence from ``(tag, token_ids)`` segments in order.

        Every ``IMAGE`` segment is recorded as one image span.
        """
        token_ids: List[int] = []
        tags: List[TokenTag] = []
        spans: List[Tuple[int, int]] = []
        for tag, ids in segments:
            start = len(token_ids)
            token_ids.extend(ids)
            tags.extend([tag] * len(ids))
            if tag == IMAGE:
                spans.append((start, len(token_ids)))
        return cls(request_id=request_id, token_ids=token_ids, tags=tags, image_spans=spans)

    # ------------------------------------------------------------------
    # Mutation (decode appends)
    # ------------------------------------------------------------------

    def append(self, token_id: int, tag: TokenTag = TEXT) -> None:
        """Append one generated token (decode steps generate text tokens)."""
        self.token_ids.append(token_id)
        self.tags.append(tag)
        self._tag_set.add(tag)
        for cached_tag, counts in self._prefix_counts.items():
            counts.append(counts[-1] + (1 if tag == cached_tag else 0))

    def extend(self, token_ids: Sequence[int], tag: TokenTag = TEXT) -> None:
        for token_id in token_ids:
            self.append(token_id, tag)

    def truncate(self, num_tokens: int) -> None:
        """Drop tokens beyond ``num_tokens`` (used on preemption rollback)."""
        del self.token_ids[num_tokens:]
        del self.tags[num_tokens:]
        self.image_spans = [
            (s, min(e, num_tokens)) for s, e in self.image_spans if s < num_tokens
        ]
        self._prefix_counts.clear()
        self._hash_chains.clear()
        self._tag_set = set(self.tags)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.token_ids)

    @property
    def num_tokens(self) -> int:
        return len(self.token_ids)

    def count_tag(self, tag: TokenTag) -> int:
        if tag not in self._tag_set:
            return 0
        return self._counts_for(tag)[len(self.token_ids)]

    def stream_tokens(self, accepted: FrozenSet[TokenTag]) -> List[int]:
        """Token ids of the subsequence with tags in ``accepted``."""
        if self._accepts_all(accepted):
            return list(self.token_ids)
        return [t for t, tag in zip(self.token_ids, self.tags) if tag in accepted]

    def stream_length(
        self, accepted: FrozenSet[TokenTag], global_prefix: Optional[int] = None
    ) -> int:
        """Length of the stream within the first ``global_prefix`` tokens.

        ``global_prefix=None`` means the full sequence.
        """
        n = (
            len(self.token_ids)
            if global_prefix is None
            else min(global_prefix, len(self.token_ids))
        )
        if self._accepts_all(accepted):
            return n
        total = 0
        for tag in accepted:
            if tag in self._tag_set:
                total += self._counts_for(tag)[n]
        return total

    def global_prefix_for_stream(
        self, accepted: FrozenSet[TokenTag], stream_len: int
    ) -> int:
        """Smallest global prefix containing ``stream_len`` stream tokens.

        Returns the global index just after the ``stream_len``-th accepted
        token.  ``stream_len == 0`` maps to 0; a ``stream_len`` beyond the
        stream raises :class:`ValueError`.
        """
        if stream_len == 0:
            return 0
        if self._accepts_all(accepted):
            if stream_len > len(self.token_ids):
                raise ValueError("stream_len beyond sequence")
            return stream_len
        counts = self._combined_counts(accepted)
        if stream_len > counts[-1]:
            raise ValueError("stream_len beyond stream")
        return bisect.bisect_left(counts, stream_len)

    def hash_chain(
        self,
        accepted: FrozenSet[TokenTag],
        schedule: Tuple[str, int],
        stream: Sequence[int],
        boundaries: Sequence[int],
    ) -> List[int]:
        """Chained content hashes at ``boundaries``, memoized incrementally.

        Equivalent to ``chain_hashes(stream, boundaries)`` but amortized:
        the chain for ``(accepted, schedule)`` persists across calls, so
        only boundaries past the previously hashed frontier fold new
        tokens.  Callers pass the stream they derived ``boundaries`` from
        (``stream_tokens(accepted)`` or a cached copy); ``schedule`` is the
        policy's :meth:`~repro.core.layer_policy.LayerTypePolicy.boundary_schedule`,
        whose append-only guarantee makes the memo sound -- a shorter
        stream's boundaries are always a prefix of a longer one's.

        The returned list is shared with the memo when it covers the whole
        chain; treat it as read-only.
        """
        n = len(boundaries)
        chain = self._hash_chains.get((accepted, schedule))
        if chain is None:
            chain = _HashChain()
            self._hash_chains[(accepted, schedule)] = chain
        count = len(chain.hashes)
        # Spot-check the append-only contract on the last shared boundary;
        # a drifted schedule falls back to a from-scratch rebuild.
        probe = min(n, count)
        if probe and chain.bounds[probe - 1] != boundaries[probe - 1]:
            chain = _HashChain()
            self._hash_chains[(accepted, schedule)] = chain
            count = 0
        if n > count:
            state = chain.state
            pos = chain.bounds[-1] if chain.bounds else 0
            for boundary in boundaries[count:]:
                if boundary <= pos:
                    raise ValueError(
                        f"boundaries must be increasing, got {list(boundaries)}"
                    )
                if boundary > len(stream):
                    raise ValueError(
                        f"boundary {boundary} beyond stream of {len(stream)} tokens"
                    )
                state = hash((state, tuple(stream[pos:boundary])))
                chain.hashes.append(state)
                chain.bounds.append(boundary)
                pos = boundary
            chain.state = state
        return chain.hashes if n == len(chain.hashes) else chain.hashes[:n]

    def image_span_of(self, global_index: int) -> Optional[int]:
        """Index of the image whose span contains ``global_index``."""
        for i, (s, e) in enumerate(self.image_spans):
            if s <= global_index < e:
                return i
        return None

    # ------------------------------------------------------------------
    # Internal caches
    # ------------------------------------------------------------------

    def _accepts_all(self, accepted: FrozenSet[TokenTag]) -> bool:
        return self._tag_set <= accepted

    def _counts_for(self, tag: TokenTag) -> List[int]:
        counts = self._prefix_counts.get(tag)
        if counts is None:
            counts = list(itertools.accumulate([t == tag for t in self.tags], initial=0))
            self._prefix_counts[tag] = counts
        return counts

    def _combined_counts(self, accepted: FrozenSet[TokenTag]) -> List[int]:
        per_tag = [self._counts_for(tag) for tag in accepted if tag in self._tag_set]
        if not per_tag:
            return [0] * (len(self.token_ids) + 1)
        if len(per_tag) == 1:
            return per_tag[0]
        return [sum(c[i] for c in per_tag) for i in range(len(self.token_ids) + 1)]
