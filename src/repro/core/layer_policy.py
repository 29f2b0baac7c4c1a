"""Per-layer-type groups and their customized caching policies.

Jenga groups a model's layers by type (all full-attention layers form one
group, all sliding-window layers with the same window another, the Mamba
layers a third, ...).  Each group gets:

* its own *small page* geometry (``tokens_per_page`` tokens of that group's
  stream, times the group's per-token bytes), and
* a *policy* object implementing the paper's ``LayerSupportsPrefixCache``
  interface (Figure 9a) -- ``update_last_access`` / ``set_prefix_length``
  for customized eviction and ``get_possible_prefix`` for customized cache
  hits -- plus the allocation-side hooks Jenga needs (which pages a growing
  stream writes, which a running request must keep resident, and which a
  prefix hit must hold).  The KV manager and admission control never ask
  what *kind* a group is; every layer-type decision is one of these hooks.

The concrete policies mirror Section 5.3:

* :class:`FullAttentionPolicy` -- every prefix token stays resident; a hit
  needs an unbroken run of cached leading blocks.
* :class:`SlidingWindowPolicy` -- only the trailing window stays resident;
  out-of-window pages are released immediately (this is the §7.3 "vLLM
  wastes 38.2%, Jenga 0.04%" effect); a prefix hits iff the blocks covering
  its trailing window are cached.
* :class:`MambaPolicy` -- one fixed-size state page per request, with a
  state checkpoint cached every ``checkpoint_interval`` tokens; a prefix
  hits iff its length is a checkpointed multiple.
* :class:`CrossAttentionPolicy` -- full-attention semantics over the image
  stream (encoder KV for image tokens).
* :class:`VisionEmbeddingPolicy` -- embeddings for image tokens, freed as
  chunked prefill consumes them, evicted whole-image-at-a-time via a
  randomized per-image prefix length.
* :class:`DroppedTokenPolicy` -- PyramidKV-style layers that retain at most
  a fixed budget of tokens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .pages import SmallPage
from .sequence import IMAGE, TEXT, SequenceSpec, TokenTag

__all__ = [
    "GroupSpec",
    "LayerTypePolicy",
    "FullAttentionPolicy",
    "SlidingWindowPolicy",
    "MambaPolicy",
    "CrossAttentionPolicy",
    "VisionEmbeddingPolicy",
    "DroppedTokenPolicy",
    "make_policy",
    "FULL_ATTENTION",
    "SLIDING_WINDOW",
    "MAMBA",
    "CROSS_ATTENTION",
    "VISION_EMBEDDING",
    "DROPPED_TOKEN",
]

FULL_ATTENTION = "full_attention"
SLIDING_WINDOW = "sliding_window"
MAMBA = "mamba"
CROSS_ATTENTION = "cross_attention"
VISION_EMBEDDING = "vision_embedding"
DROPPED_TOKEN = "dropped_token"

_DEFAULT_TAGS = {
    FULL_ATTENTION: frozenset({TEXT, IMAGE}),
    SLIDING_WINDOW: frozenset({TEXT, IMAGE}),
    MAMBA: frozenset({TEXT, IMAGE}),
    CROSS_ATTENTION: frozenset({IMAGE}),
    VISION_EMBEDDING: frozenset({IMAGE}),
    DROPPED_TOKEN: frozenset({TEXT, IMAGE}),
}


@dataclass(frozen=True)
class GroupSpec:
    """Static description of one layer-type group.

    Attributes:
        group_id: Unique name, e.g. ``"self_attn"`` or ``"sliding_window:4096"``.
        kind: One of the policy kind constants above.
        num_layers: Number of model layers in the group.
        per_token_bytes: KV-cache bytes one stream token occupies across all
            the group's layers (for attention-like kinds).
        tokens_per_page: Stream tokens per small page.
        accepted_tags: Token tags this group stores cache for.
        window: Sliding-window size in tokens (``sliding_window`` only).
        state_bytes: Full recurrent-state size in bytes (``mamba`` only); a
            Mamba small page holds exactly one state.
        checkpoint_interval: Token spacing of cached Mamba state snapshots.
        budget: Maximum retained tokens (``dropped_token`` only).
    """

    group_id: str
    kind: str
    num_layers: int
    per_token_bytes: int
    tokens_per_page: int = 16
    accepted_tags: FrozenSet[TokenTag] = frozenset({TEXT, IMAGE})
    window: Optional[int] = None
    state_bytes: Optional[int] = None
    checkpoint_interval: int = 512
    checkpoint_schedule: str = "fixed"
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == MAMBA:
            if not self.state_bytes or self.state_bytes <= 0:
                raise ValueError(f"mamba group {self.group_id!r} needs state_bytes")
        elif self.per_token_bytes <= 0:
            raise ValueError(f"group {self.group_id!r} needs positive per_token_bytes")
        if self.tokens_per_page <= 0:
            raise ValueError("tokens_per_page must be positive")
        if self.kind == SLIDING_WINDOW and (self.window is None or self.window <= 0):
            raise ValueError(f"sliding-window group {self.group_id!r} needs a window")
        if self.kind == DROPPED_TOKEN and (self.budget is None or self.budget <= 0):
            raise ValueError(f"dropped-token group {self.group_id!r} needs a budget")
        if self.checkpoint_schedule not in ("fixed", "exponential"):
            raise ValueError(
                f"unknown checkpoint schedule {self.checkpoint_schedule!r}"
            )

    @property
    def page_bytes(self) -> int:
        """Small page size in bytes (the unit the LCM is taken over)."""
        if self.kind == MAMBA:
            assert self.state_bytes is not None  # validated in __post_init__
            return self.state_bytes
        return self.per_token_bytes * self.tokens_per_page

    def bytes_for_tokens(self, num_tokens: int) -> int:
        """Bytes of *useful* cache for ``num_tokens`` resident stream tokens."""
        if self.kind == MAMBA:
            assert self.state_bytes is not None  # validated in __post_init__
            return self.state_bytes
        return self.per_token_bytes * num_tokens


class LayerTypePolicy:
    """Base class: paper Figure 9a interface plus allocation hooks.

    Subclasses customize which prefix tokens a layer type actually needs
    (prefix-subset dependency).  The two-level allocator calls these hooks;
    nothing here touches page state machinery directly except the two
    eviction-metadata setters.
    """

    #: True when :meth:`get_possible_prefix` only ever returns an unbroken
    #: leading run of boundaries (full/cross attention).  The lookup path
    #: exploits this: probing such a group stops at its first miss, and
    #: the run length caps how deep any later group needs to probe.
    leading_run_only: bool = False

    #: True when the pages hold vision-encoder outputs rather than KV: the
    #: encoder fills the whole image stream at admission
    #: (``allocate_vision``), prefill frees pages as it consumes them
    #: (``consume_vision``), and the group never constrains or serves a
    #: prefix hit -- the encoder refills whatever the uncached remainder
    #: needs (Section 6.2).
    encoder_filled: bool = False

    #: True when cacheable blocks are self-contained state snapshots
    #: (Mamba) rather than token blocks: pages carry no per-token fill, and
    #: a snapshot goes straight to evictable cache the moment its hash is
    #: registered -- stamped at creation, with only the newest one's stamp
    #: refreshed per step (Section 5.3).
    snapshot_blocks: bool = False

    def __init__(self, spec: GroupSpec) -> None:
        self.spec = spec

    # -- geometry ------------------------------------------------------

    def num_pages_for(self, stream_len: int) -> int:
        """Total page-table slots for a stream of ``stream_len`` tokens."""
        tpp = self.spec.tokens_per_page
        return (stream_len + tpp - 1) // tpp

    def active_page_indices(self, stream_len: int) -> Set[int]:
        """Pages a running request must keep resident (``USED``).

        Indices not in this set may be released mid-request -- the page
        either turns ``EVICTABLE`` (prefix caching on) or frees outright.
        """
        return set(range(self.release_frontier(stream_len), self.num_pages_for(stream_len)))

    def resident_tokens(self, stream_len: int) -> int:
        """Stream tokens the group genuinely needs resident (waste metric)."""
        return stream_len

    def pages_to_write(
        self, old_stream: int, new_stream: int, held: Collection[int] = ()
    ) -> List[int]:
        """Page-table slots written when the stream grows old -> new.

        ``held`` is the set of slots the request already references.  The
        default writes the blocks overlapping ``[old, new)``.
        """
        if new_stream <= old_stream:
            return []
        tpp = self.spec.tokens_per_page
        return list(range(old_stream // tpp, (new_stream + tpp - 1) // tpp))

    def write_free_tokens(self, stream_len: int) -> int:
        """Tokens the stream can grow past ``stream_len`` before
        :meth:`pages_to_write` names a slot it does not name already (the
        rest of the current page; 0 is always a safe answer)."""
        return -stream_len % self.spec.tokens_per_page

    def release_frontier(self, stream_len: int, consumed: int = 0) -> int:
        """First page-table slot a request at ``stream_len`` still needs.

        Every held slot below it is dead and released at commit;
        ``consumed`` is the stream-token count prefill has consumed (only
        encoder-filled groups look at it).  The default keeps everything.
        """
        return 0

    def peak_pages(self, stream_total: int, chunk_tokens: int) -> int:
        """Admission bound on pages held *transiently* during prefill.

        Only matters where it exceeds the steady-state resident set
        (:meth:`active_page_indices`); the default of 0 says it never does.
        """
        return 0

    # -- prefix caching: hashing geometry -------------------------------

    def cacheable_boundaries(self, stream_len: int) -> Sequence[int]:
        """Stream-token counts at which a cacheable block completes.

        Block ``b`` of the group corresponds to the prefix ending at
        ``cacheable_boundaries(stream_len)[b]`` tokens; its content hash is
        the chain hash at that boundary.  The default returns a lazy
        ``range``: the lookup path calls this once per group per probe, so
        materializing hundreds of boundary ints would dominate the
        steady-state cost.
        """
        tpp = self.spec.tokens_per_page
        return range(tpp, stream_len + 1, tpp)

    def page_index_of_block(self, block_idx: int) -> int:
        """Page-table slot storing cacheable block ``block_idx``."""
        return block_idx

    def boundary_schedule(self) -> Tuple[str, int]:
        """Memo key identifying this policy's boundary placement.

        Two policies with equal schedules produce identical
        :meth:`cacheable_boundaries` for every stream length, so their
        streams can share one incrementally-extended hash chain
        (:meth:`~repro.core.sequence.SequenceSpec.hash_chain`).  The
        contract every schedule must honour is *append-only*:
        ``cacheable_boundaries(m)`` is a prefix of
        ``cacheable_boundaries(n)`` whenever ``m <= n``, so growing a
        stream never moves or removes an already-hashed boundary.
        """
        return ("uniform", self.spec.tokens_per_page)

    def hit_blocks_to_hold(self, cached_stream: int) -> List[int]:
        """Blocks of a ``cached_stream``-token hit the request must reference.

        Blocks outside the layer's active subset (e.g. out-of-window) stay
        evictable -- the request never touches them again.
        """
        active = self.active_page_indices(cached_stream)
        return [
            block_idx
            for block_idx in range(len(self.cacheable_boundaries(cached_stream)))
            if self.page_index_of_block(block_idx) in active
        ]

    # -- paper interface: customized cache hit ---------------------------

    def get_possible_prefix(self, is_hit: Sequence[bool]) -> List[int]:
        """Valid cached stream-prefix lengths, given per-block hit flags.

        ``is_hit[b]`` says whether cacheable block ``b`` is present in this
        group's cache.  Returns prefix lengths in stream tokens; the empty
        prefix (0) is always implicitly valid and not included.  The
        default is full-prefix dependency: the unbroken leading run.
        """
        tpp = self.spec.tokens_per_page
        prefixes: List[int] = []
        for b, hit in enumerate(is_hit):
            if not hit:
                break
            prefixes.append((b + 1) * tpp)
        return prefixes

    # -- paper interface: customized eviction metadata --------------------

    def update_last_access(
        self, pages: Sequence[Optional[SmallPage]], stream_len: int, now: float
    ) -> None:
        """Stamp ``now`` on the pages the current step actually attends to.

        ``pages`` is the request's page table for this group (entries may be
        ``None`` where pages were already released).  The default touches
        every resident page -- full-prefix dependency.
        """
        for page in pages:
            if page is not None:
                page.last_access = now

    def prefix_length_of(self, idx: int, seq: SequenceSpec) -> float:
        """The aligned fine-grained eviction tiebreak of slot ``idx`` (§5.1).

        The default is the stream-token count of the prefix the block
        completes, so the deepest suffix block is evicted first and the
        values align across groups sharing a stream.
        """
        return float((idx + 1) * self.spec.tokens_per_page)

    def set_prefix_length(
        self, pages: Sequence[Optional[SmallPage]], seq: SequenceSpec
    ) -> None:
        """The paper's bulk form: :meth:`prefix_length_of` over a page table."""
        for i, page in enumerate(pages):
            if page is not None:
                page.prefix_length = self.prefix_length_of(i, seq)


class FullAttentionPolicy(LayerTypePolicy):
    """Standard self-attention: full-prefix dependency (PagedAttention rules)."""

    leading_run_only = True


class CrossAttentionPolicy(FullAttentionPolicy):
    """Encoder KV for image tokens: full dependency over the image stream."""


class SlidingWindowPolicy(LayerTypePolicy):
    """Sliding-window attention (Figure 9b).

    A new token attends only to the trailing ``window`` tokens, so (a) pages
    wholly outside the window are released while the request runs, (b) only
    in-window pages get fresh last-access stamps, and (c) a prefix of ``p``
    tokens hits iff the blocks covering ``[p - window, p)`` are all cached.
    """

    @property
    def window(self) -> int:
        """The (validated non-None) window size in stream tokens."""
        assert self.spec.window is not None  # validated in GroupSpec.__post_init__
        return self.spec.window

    def resident_tokens(self, stream_len: int) -> int:
        return min(stream_len, self.window)

    def release_frontier(self, stream_len: int, consumed: int = 0) -> int:
        # The next token attends to stream tokens [stream_len - window,
        # stream_len); every page overlapping that span stays.
        return max(0, stream_len - self.window) // self.spec.tokens_per_page

    def peak_pages(self, stream_total: int, chunk_tokens: int) -> int:
        # A prefill chunk's blocks are all written before the out-of-window
        # ones release at commit, so the group transiently holds up to
        # window + chunk tokens (capped by the stream itself).
        peak_tokens = min(stream_total, self.window + chunk_tokens)
        return -(-peak_tokens // self.spec.tokens_per_page)

    def get_possible_prefix(self, is_hit: Sequence[bool]) -> List[int]:
        tpp = self.spec.tokens_per_page
        window = self.window
        prefixes: List[int] = []
        # Single pass: ``run_start`` is the first block of the unbroken hit
        # run ending at ``b``, so "[lo_block, b] all hit" is just a compare.
        run_start = 0
        for b, hit in enumerate(is_hit):
            if not hit:
                run_start = b + 1
                continue
            p = (b + 1) * tpp
            lo_block = max(0, p - window) // tpp
            if run_start <= lo_block:
                prefixes.append(p)
        return prefixes

    def update_last_access(
        self, pages: Sequence[Optional[SmallPage]], stream_len: int, now: float
    ) -> None:
        for idx in self.active_page_indices(stream_len):
            if idx >= len(pages):
                continue
            page = pages[idx]
            if page is not None:
                page.last_access = now


class DroppedTokenPolicy(SlidingWindowPolicy):
    """PyramidKV-style token dropping: keep at most ``budget`` tokens.

    Memory-wise this is a sliding window of size ``budget`` (the dropped set
    is chosen by importance rather than recency in the real model, but the
    allocator only sees *how many* tokens stay resident).  Prefix hits are
    disabled: the retained set is data-dependent, so a cached block cannot
    be safely reused by a different continuation.
    """

    def __init__(self, spec: GroupSpec) -> None:
        if spec.window is None:
            spec = replace(spec, window=spec.budget)
        super().__init__(spec)

    def cacheable_boundaries(self, stream_len: int) -> List[int]:
        return []

    def get_possible_prefix(self, is_hit: Sequence[bool]) -> List[int]:
        return []


class MambaPolicy(LayerTypePolicy):
    """State-space layers: one state page per request plus sparse checkpoints.

    Page-table layout: slot 0 is the working state (always resident while
    the request runs); slot ``b + 1`` holds the checkpoint taken at
    ``boundary_of_block(b)`` tokens -- fixed spacing by default, or a
    Marconi-style exponential schedule (``checkpoint_schedule``).
    Checkpoints exist only when prefix caching is enabled (the manager
    controls that by how far it grows the table).
    """

    snapshot_blocks = True

    def __init__(self, spec: GroupSpec, enable_checkpoints: bool = True) -> None:
        super().__init__(spec)
        self.enable_checkpoints = enable_checkpoints

    def num_pages_for(self, stream_len: int) -> int:
        if stream_len == 0:
            return 0
        if not self.enable_checkpoints:
            return 1
        return 1 + len(self.cacheable_boundaries(stream_len))

    def active_page_indices(self, stream_len: int) -> Set[int]:
        return {0} if stream_len > 0 else set()

    def resident_tokens(self, stream_len: int) -> int:
        # State size is fixed; report one "token" worth (the page) as useful.
        return min(stream_len, 1)

    def pages_to_write(
        self, old_stream: int, new_stream: int, held: Collection[int] = ()
    ) -> List[int]:
        if new_stream <= old_stream:
            return []
        # The working state (slot 0) whenever the request does not hold one
        # -- first growth, or after a cache hit, which copies a checkpoint
        # into a fresh state -- plus one checkpoint per boundary crossed.
        indices = [] if 0 in held else [0]
        for block_idx, boundary in enumerate(self.cacheable_boundaries(new_stream)):
            if boundary > old_stream:
                indices.append(self.page_index_of_block(block_idx))
        return indices

    def write_free_tokens(self, stream_len: int) -> int:
        return 0  # the next token may cross a checkpoint boundary

    def cacheable_boundaries(self, stream_len: int) -> List[int]:
        """Stream positions where the recurrent state is snapshotted.

        ``fixed``: every ``checkpoint_interval`` tokens (the paper's
        default -- "only caches the state of every 512 tokens").
        ``exponential``: at interval, 2x interval, 4x interval, ... -- a
        Marconi-style admission schedule that caps checkpoint memory at
        O(log n) states for long contexts while keeping hit points at the
        depths where reuse saves the most recompute.  Both schedules only
        *append* boundaries as the stream grows, which the page-table
        layout requires.
        """
        if not self.enable_checkpoints:
            return []
        interval = self.spec.checkpoint_interval
        if self.spec.checkpoint_schedule == "exponential":
            boundaries: List[int] = []
            position = interval
            while position <= stream_len:
                boundaries.append(position)
                position *= 2
            return boundaries
        return list(range(interval, stream_len + 1, interval))

    def page_index_of_block(self, block_idx: int) -> int:
        return block_idx + 1

    def hit_blocks_to_hold(self, cached_stream: int) -> List[int]:
        # A hit copies the checkpoint into a fresh working state, so no
        # reference is taken.
        return []

    def boundary_schedule(self) -> Tuple[str, int]:
        return (self.spec.checkpoint_schedule, self.spec.checkpoint_interval)

    def boundary_of_block(self, block_idx: int) -> int:
        """Snapshot depth (stream tokens) of checkpoint ``block_idx``."""
        interval = self.spec.checkpoint_interval
        if self.spec.checkpoint_schedule == "exponential":
            return interval * (2 ** block_idx)
        return (block_idx + 1) * interval

    def get_possible_prefix(self, is_hit: Sequence[bool]) -> List[int]:
        # A checkpoint grants a hit at exactly its snapshot depth,
        # independent of other checkpoints (the state is self-contained).
        return [self.boundary_of_block(b) for b, hit in enumerate(is_hit) if hit]

    def update_last_access(
        self, pages: Sequence[Optional[SmallPage]], stream_len: int, now: float
    ) -> None:
        # Only the working state and the most recent checkpoint are "hot"
        # (Section 5.3: "only the last cached token's access time is
        # updated"); older checkpoints keep stale stamps and evict first.
        if pages and pages[0] is not None:
            pages[0].last_access = now
        for page in reversed(pages[1:]):
            if page is not None:
                page.last_access = now
                break

    def prefix_length_of(self, idx: int, seq: SequenceSpec) -> float:
        # Working state sorts as the deepest suffix; checkpoints align
        # with the token counts they snapshot.
        return float(self.boundary_of_block(idx - 1)) if idx > 0 else float(10**12)


class VisionEmbeddingPolicy(LayerTypePolicy):
    """Vision-encoder output embeddings for image tokens (Section 5.3, 6.2).

    Evicting one token of an image forces re-running the whole encoder, so
    eviction must be all-or-nothing per image: every page of an image gets
    the same *randomized* prefix length, and the image drawing the highest
    value is evicted first, across all its pages at once.

    Residency is driven by chunked prefill: once the LLM has consumed an
    image token's embedding the page can be freed.  The manager keeps the
    consumed-token watermark per request and passes it to
    :meth:`release_frontier`.
    """

    encoder_filled = True

    def __init__(self, spec: GroupSpec, seed: int = 0) -> None:
        super().__init__(spec)
        self._rng = random.Random(seed)
        self._image_draws: Dict[Tuple[str, int], float] = {}

    def release_frontier(self, stream_len: int, consumed: int = 0) -> int:
        return consumed // self.spec.tokens_per_page

    def prefix_length_of(self, idx: int, seq: SequenceSpec) -> float:
        token = idx * self.spec.tokens_per_page
        image_idx = self._image_of(token, self._image_spans_in_stream(seq))
        key = (seq.request_id, image_idx)
        if key not in self._image_draws:
            self._image_draws[key] = self._rng.random() * 1e9
        return self._image_draws[key]

    @staticmethod
    def _image_of(stream_token: int, spans: List[Tuple[int, int]]) -> int:
        for i, (s, e) in enumerate(spans):
            if s <= stream_token < e:
                return i
        return -1

    def _image_spans_in_stream(self, seq: SequenceSpec) -> List[Tuple[int, int]]:
        """Image spans converted from global to stream coordinates."""
        spans: List[Tuple[int, int]] = []
        for s, e in seq.image_spans:
            spans.append(
                (
                    seq.stream_length(self.spec.accepted_tags, s),
                    seq.stream_length(self.spec.accepted_tags, e),
                )
            )
        return spans


def make_policy(spec: GroupSpec, enable_prefix_caching: bool = True, seed: int = 0) -> LayerTypePolicy:
    """Instantiate the policy matching ``spec.kind``."""
    if spec.kind == FULL_ATTENTION:
        return FullAttentionPolicy(spec)
    if spec.kind == SLIDING_WINDOW:
        return SlidingWindowPolicy(spec)
    if spec.kind == MAMBA:
        return MambaPolicy(spec, enable_checkpoints=enable_prefix_caching)
    if spec.kind == CROSS_ATTENTION:
        return CrossAttentionPolicy(spec)
    if spec.kind == VISION_EMBEDDING:
        return VisionEmbeddingPolicy(spec, seed=seed)
    if spec.kind == DROPPED_TOKEN:
        return DroppedTokenPolicy(spec)
    raise ValueError(f"unknown layer-type kind: {spec.kind!r}")


def default_tags_for(kind: str) -> FrozenSet[TokenTag]:
    """Conventional accepted tags for a layer kind."""
    return _DEFAULT_TAGS.get(kind, frozenset({TEXT, IMAGE}))
