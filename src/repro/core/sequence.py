"""Token sequences as the allocator sees them.

Heterogeneous models do not store cache for every token in every layer
(paper Section 3): a Llama 3.2 Vision request with ``T`` text and ``I``
image tokens needs self-attention KV for the text tokens only and
cross-attention KV for the image tokens only.  We therefore model a request
as one *global* token sequence plus the ``(start, end)`` span of each
image in it.  A token inside a span is tagged ``"image"``, every other
token ``"text"``, and each layer-type group consumes the subsequence of
tokens whose tags it accepts -- its *stream*.

:class:`SequenceSpec` is the only request-shaped object the core allocator
layer knows about; the serving engine's richer ``Request`` wraps one.

Performance note: the engine calls :meth:`SequenceSpec.stream_length` for
every group of every running request on every step, and requests reach
hundreds of thousands of tokens in the paper's long-context experiments.
A group that accepts both tags answers in O(1); any other walks the image
spans, of which a request has a handful, never its tokens.  Decode appends
text only, so an append touches no span.  Content hashing is
incremental: :meth:`SequenceSpec.hash_chain` memoizes the chained block
hashes per ``(accepted tags, boundary schedule)`` stream, so a prefix
lookup or decode-time extension hashes only tokens it has never hashed
before instead of the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = ["TokenTag", "SequenceSpec", "TEXT", "IMAGE", "HASH_SEED"]

TokenTag = str
TEXT: TokenTag = "text"
IMAGE: TokenTag = "image"

#: Seed state for chained content hashing (see ``prefix_cache.chain_hashes``).
HASH_SEED = 0x9E3779B97F4A7C15

#: Memo key: the accepted-tag stream plus the policy's boundary schedule
#: (e.g. ``("uniform", 16)`` or ``("fixed", 512)``).  Policies with
#: identical keys share one chain, so a model whose attention groups all
#: use the same page size hashes each stream once per request lifetime.
#: The router hashes under a policy's key too, so a routed prompt's chain
#: is already built when the replica looks it up.
ChainKey = Tuple[FrozenSet[TokenTag], Tuple[str, int]]

_IMAGE_ONLY: FrozenSet[TokenTag] = frozenset({IMAGE})


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
        image_spans: ``(start, end)`` global index ranges of each image's
            tokens, in order, non-empty and disjoint.  They are the only
            record of token kind: every token outside a span is text.
            Vision policies evict whole images at a time, so they need the
            boundaries.
    """

    request_id: str
    token_ids: List[int] = field(default_factory=list)
    image_spans: List[Tuple[int, int]] = field(default_factory=list)

    # Incrementally-maintained hash chains (see module docstring).
    _hash_chains: Dict[ChainKey, _HashChain] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        pos = 0
        for start, end in self.image_spans:
            if not pos <= start < end <= len(self.token_ids):
                raise ValueError(
                    "image spans must be non-empty, in order, disjoint and within "
                    f"the {len(self.token_ids)} tokens, got {self.image_spans}"
                )
            pos = end

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def text_only(cls, request_id: str, token_ids: Sequence[int]) -> "SequenceSpec":
        """A plain text request (the common case for text models)."""
        return cls(request_id=request_id, token_ids=list(token_ids))

    @classmethod
    def multimodal(
        cls,
        request_id: str,
        segments: Sequence[Tuple[TokenTag, Sequence[int]]],
    ) -> "SequenceSpec":
        """Build a sequence from ``(tag, token_ids)`` segments in order.

        Every ``IMAGE`` segment is recorded as one image span, so an empty
        one raises :class:`ValueError`, as does a tag other than ``TEXT``
        and ``IMAGE``.
        """
        token_ids: List[int] = []
        spans: List[Tuple[int, int]] = []
        for tag, ids in segments:
            start = len(token_ids)
            token_ids.extend(ids)
            if tag == IMAGE:
                spans.append((start, len(token_ids)))
            elif tag != TEXT:
                raise ValueError(f"unknown segment tag {tag!r}")
        return cls(request_id=request_id, token_ids=token_ids, image_spans=spans)

    # ------------------------------------------------------------------
    # Mutation (decode appends)
    # ------------------------------------------------------------------

    def append(self, token_id: int) -> None:
        """Append one generated text token (decode steps generate text)."""
        self.token_ids.append(token_id)

    def extend(self, token_ids: Sequence[int]) -> None:
        self.token_ids.extend(token_ids)

    def truncate(self, num_tokens: int) -> None:
        """Drop tokens beyond ``num_tokens`` (used on preemption rollback)."""
        del self.token_ids[num_tokens:]
        self.image_spans = [
            (s, min(e, num_tokens)) for s, e in self.image_spans if s < num_tokens
        ]
        self._hash_chains.clear()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.token_ids)

    @property
    def num_tokens(self) -> int:
        return len(self.token_ids)

    def covered_by(self, accepted: FrozenSet[TokenTag]) -> bool:
        """Whether ``accepted`` covers every tag present: the stream is then
        ``token_ids`` itself, which a reader may use without a copy."""
        if IMAGE not in accepted and self.image_spans:
            return False
        return TEXT in accepted or self.stream_length(_IMAGE_ONLY) == len(self.token_ids)

    def stream_tokens(self, accepted: FrozenSet[TokenTag]) -> List[int]:
        """Token ids of the subsequence with tags in ``accepted``."""
        if self.covered_by(accepted):
            return list(self.token_ids)
        ids = self.token_ids
        stream: List[int] = []
        if IMAGE in accepted:
            for start, end in self.image_spans:
                stream += ids[start:end]
        elif TEXT in accepted:
            pos = 0
            for start, end in self.image_spans:
                stream += ids[pos:start]
                pos = end
            stream += ids[pos:]
        return stream

    def stream_length(
        self, accepted: FrozenSet[TokenTag], global_prefix: Optional[int] = None
    ) -> int:
        """Length of the stream within the first ``global_prefix`` tokens.

        ``global_prefix=None`` means the full sequence.
        """
        n = len(self.token_ids)
        if global_prefix is not None and global_prefix < n:
            n = global_prefix
        text = TEXT in accepted
        if text and IMAGE in accepted:
            return n
        images = 0
        for start, end in self.image_spans:
            if start >= n:
                break
            images += (end if end < n else n) - start
        if text:
            return n - images
        return images if IMAGE in accepted else 0

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
        text = TEXT in accepted
        image = IMAGE in accepted
        if text and image:
            if stream_len > len(self.token_ids):
                raise ValueError("stream_len beyond sequence")
            return stream_len
        # Walk the alternating text and image runs, spending ``left`` on
        # the accepted ones until it lands inside a run.
        left = stream_len
        pos = 0
        for start, end in self.image_spans:
            if text:
                if left <= start - pos:
                    return pos + left
                left -= start - pos
            elif image:
                if left <= end - start:
                    return start + left
                left -= end - start
            pos = end
        if text and left <= len(self.token_ids) - pos:
            return pos + left
        raise ValueError("stream_len beyond stream")

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
