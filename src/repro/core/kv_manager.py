"""``JengaKVCacheManager`` -- the public face of the Jenga allocator.

The serving engine interacts with KV-cache memory exclusively through the
:class:`~repro.core.protocols.KVCacheManager` protocol; this class is its
reference implementation (baseline managers in :mod:`repro.baselines`
subclass it).  A manager instance wraps:

* one :class:`~repro.core.two_level.TwoLevelAllocator` over the KV region,
* one :class:`~repro.core.layer_policy.LayerTypePolicy` per layer-type
  group, and
* per-request *bindings* (page tables plus held references) for every
  group.

The manager never asks what *kind* a group is: which slots a growing
stream writes, where the release frontier sits, which hit blocks are held,
what a page's eviction tiebreak is, and the transient prefill peak are all
:class:`~repro.core.layer_policy.LayerTypePolicy` hooks (the paper's
Figure 9a interface plus the allocation-side ones), so a new layer type is
a new policy class and no edit here.

Lifecycle of a request ``r``:

1. ``begin_request(seq)`` -- look up the prefix cache (Section 5.2) and
   acquire references on every hit page each group still needs
   (``hit_blocks_to_hold``); returns the number of *global* tokens served
   from cache.  The scheduler then probes ``can_admit(seq)``: the
   prompt's per-group admission demand, put to the allocator as the same
   exact check ``allocate_up_to`` makes (``groups_that_fit``).
   Vision-language requests then ``allocate_vision(seq)`` once:
   encoder-filled groups get pages for the whole image stream.
2. repeatedly ``allocate_up_to(seq, n)`` -- grow page tables so the first
   ``n`` global tokens have backing pages (``pages_to_write``): one
   capacity check over every group, then one batched allocator call per
   group, so a refused call allocates nothing (``needs_allocation`` is the
   same write-set computation without the allocation); then the engine
   "computes" the tokens and calls ``commit(seq, n, now)`` -- fill
   counts, block-hash registration, and release of pages behind the
   policy's ``release_frontier`` (out-of-window pages; Mamba checkpoints
   leave at registration, consumed vision embeddings through
   ``consume_vision``).  Commit returns the request's *horizon*, up to
   which the engine skips both calls (the groups' ``horizon`` folded).
3. ``release(seq)`` -- request finished or was preempted; all held
   references drop, and completed blocks stay resident as evictable cached
   prefixes.

Eviction metadata (the paper's ``update_last_access`` and
``set_prefix_length``, Figure 9a) is applied *at release time*: a page's
last-access stamp only matters once the page turns evictable, and for every
policy the stamp the paper's per-step protocol would leave on the page
equals the timestamp of the step at which the page left the layer's active
subset -- which is exactly when this manager releases it.  Release
stamps come from the request's last commit time: the last commit made
here, or the later time of a commit the engine skipped below the horizon,
which it hands to ``release``.  Mamba checkpoints are the one exception
(older checkpoints must keep stale stamps, Section 5.3) and are stamped at
creation instead, with only the most recent checkpoint refreshed each
step.  ``tests/test_kv_manager.py`` cross-checks this optimized protocol
against the literal per-step one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .events import Observer
from .layer_policy import GroupSpec, LayerTypePolicy, make_policy
from .pages import EVICTABLE
from .sequence import TEXT, SequenceSpec
from .two_level import AllocatorStats, GroupAllocator, TwoLevelAllocator

__all__ = ["JengaKVCacheManager", "GroupBinding", "ideal_resident_bytes"]

# Last-access bias applied to pages a window layer has slid past.  Section
# 5.1: "tokens outside the window should be prioritized for eviction over
# the most recent tokens" -- the bias puts them in a strictly lower
# eviction class than any in-window or full-attention page while keeping
# LRU order among themselves, so they fill otherwise-idle memory (still
# hittable) but are always the first evicted under pressure.
_OUT_OF_WINDOW_BIAS = 1e15


@dataclass
class GroupBinding:
    """Per-(request, group) allocation state."""

    page_table: List[Optional[int]] = field(default_factory=list)
    held: Set[int] = field(default_factory=set)
    stream_len: int = 0  # stream tokens with pages allocated
    filled_upto: int = 0  # stream tokens whose fill counts are recorded
    release_ptr: int = 0  # all held indices below this were released
    consumed: int = 0  # stream tokens prefill has consumed (consume_vision)
    last_time: float = 0.0  # timestamp of the latest commit
    # Chain state lives on the sequence (SequenceSpec.hash_chain); the
    # binding only tracks how many blocks it registered with the index.
    hashed_blocks: int = 0  # cacheable blocks already registered
    # Newest released snapshot as (page id, carve): once its large page
    # returns to the pool the id names the next carve's page.
    last_checkpoint_page: Optional[Tuple[int, int]] = None


class JengaKVCacheManager:
    """Two-level, policy-customized KV-cache manager (the paper's system).

    Args:
        group_specs: Layer-type groups of the model being served (obtained
            from :meth:`repro.models.config.ModelSpec.kv_groups`).
        total_bytes: Size of the KV-cache region.
        enable_prefix_caching: Retain finished requests' blocks for reuse.
        seed: Seed for randomized per-image eviction draws.
    """

    name = "jenga"

    def __init__(
        self,
        group_specs: Dict[str, GroupSpec],
        total_bytes: int,
        enable_prefix_caching: bool = True,
        seed: int = 0,
        request_aware: bool = True,
    ) -> None:
        self.observer: Optional[Observer] = None
        self.specs = dict(group_specs)
        self.policies = {
            g: make_policy(s, enable_prefix_caching=enable_prefix_caching, seed=seed)
            for g, s in self.specs.items()
        }
        self.allocator = TwoLevelAllocator(
            total_bytes,
            self.specs,
            self.policies,
            enable_prefix_caching=enable_prefix_caching,
            request_aware=request_aware,
        )
        self.enable_prefix_caching = enable_prefix_caching
        # Groups the vision encoder fills (allocate_vision/consume_vision).
        self._encoder_groups = {
            g: p for g, p in self.policies.items() if p.encoder_filled
        }
        # Static probe order for the prefix-lookup path: leading-run groups
        # (full/cross attention) first, encoder-filled groups excluded.
        # Computed once here; consulted on every lookup.
        relevant = [g for g in self.specs if g not in self._encoder_groups]
        self._lookup_order: List[str] = [
            g for g in relevant if self.policies[g].leading_run_only
        ] + [g for g in relevant if not self.policies[g].leading_run_only]
        self._bindings: Dict[str, Dict[str, GroupBinding]] = {}
        self._stream_cache: Dict[Tuple[str, str], List[int]] = {}
        # Token-level prefix-cache accounting (Figure 17's metric).
        self.lookup_tokens = 0
        self.hit_tokens = 0

    def bind_observer(self, observer: Optional[Observer]) -> None:
        """Report this manager's lookups to ``observer``."""
        self.observer = observer

    def _require(self, request_id: str) -> Dict[str, GroupBinding]:
        bindings = self._bindings.get(request_id)
        if bindings is None:
            raise KeyError(f"request {request_id!r} not registered (begin_request?)")
        return bindings

    # ------------------------------------------------------------------
    # Prefix-cache lookup and hit acquisition (Section 5.2)
    # ------------------------------------------------------------------

    def begin_request(self, seq: SequenceSpec) -> int:
        """Register ``seq`` and acquire its prefix-cache hit.

        Returns the number of leading *global* tokens whose cache is already
        resident (0 when prefix caching is disabled or nothing matches).
        The engine must still compute at least one token, so the hit is
        capped at ``len(seq) - 1``.  The hash-chain lookup and page
        acquisition are reported to the observer as a ``prefix_lookup``
        phase (nested under the engine's ``admission`` phase).
        """
        if seq.request_id in self._bindings:
            raise ValueError(f"request {seq.request_id!r} already active")
        bindings = {g: GroupBinding() for g in self.specs}
        self._bindings[seq.request_id] = bindings
        if not self.enable_prefix_caching:
            return 0
        obs = self.observer
        if obs is not None:
            obs.phase_began("prefix_lookup", seq.request_id)
        hit = self._lookup_and_acquire(seq, bindings)
        # The one place a lookup is counted and reported.
        self.lookup_tokens += len(seq)
        self.hit_tokens += hit
        if obs is not None:
            obs.phase_ended()
            obs.prefix_hit(seq.request_id, hit, len(seq))
        return hit

    def _lookup_and_acquire(
        self, seq: SequenceSpec, bindings: Dict[str, GroupBinding]
    ) -> int:
        """Prefix-cache lookup plus cached-page acquisition (the hit path).

        The hit is the largest global prefix every group accepts.  A global
        *cap* starts at ``len(seq) - 1`` and only falls: each group answers
        the largest valid stream prefix ``v`` within the stream count ``s``
        of the cap (``largest_prefix_at_most``), and ``v < s`` lowers the
        cap to the last global position whose stream count is ``v``.  No
        valid prefix lies above the cap, and once every group in turn
        accepts it unchanged, the cap itself is valid everywhere: it is the
        hit.  Groups are asked in ``_lookup_order`` (leading-run groups
        first), and a group hashes its stream only up to the cap at its
        first turn, so a cap of 0 stops the lookup before later groups hash
        or probe at all.  Encoder-filled groups never constrain the hit
        (embeddings are inputs to prefill, refilled by the encoder when the
        uncached remainder contains image tokens).
        """
        specs = self.specs
        ordered = self._lookup_order
        groups = self.allocator.groups
        all_hashes: Dict[str, List[int]] = {}
        cap = len(seq) - 1
        turn = settled = 0
        while settled < len(ordered) and cap > 0:
            group_id = ordered[turn % len(ordered)]
            turn += 1
            policy = self.policies[group_id]
            tags = specs[group_id].accepted_tags
            cap_stream = seq.stream_length(tags, cap)
            hashes = all_hashes.get(group_id)
            if hashes is None:
                # Memoized on the sequence (and shared with the router's
                # chain): only never-hashed tokens fold.
                hashes = all_hashes[group_id] = seq.hash_chain(
                    tags,
                    policy.boundary_schedule(),
                    self._stream_of(seq, group_id),
                    policy.cacheable_boundaries(cap_stream),
                )
            valid = policy.largest_prefix_at_most(
                cap_stream, hashes, groups[group_id].cache_index.probe
            )
            if valid < cap_stream:
                # The group now accepts the lowered cap: its count is ``valid``.
                cap = seq.global_prefix_for_stream(tags, valid + 1) - 1
                settled = 1
            else:
                settled += 1
        if cap <= 0:
            return 0

        for group_id, policy in self.policies.items():
            if policy.encoder_filled:
                continue  # embeddings are re-encoded, not acquired
            binding = bindings[group_id]
            cached_stream = seq.stream_length(specs[group_id].accepted_tags, cap)
            binding.stream_len = cached_stream
            binding.filled_upto = cached_stream
            binding.page_table = [None] * policy.num_pages_for(cached_stream)
            blocks = policy.hit_blocks_to_hold(cached_stream)
            if blocks:
                page_ids = self.allocator.acquire_cached_run(
                    group_id, all_hashes[group_id][blocks.start:blocks.stop], seq.request_id
                )
                # Every wanted block was probed resident above, and nothing
                # allocates (so nothing evicts) between probe and acquire.
                assert len(page_ids) == len(blocks)
                first = policy.page_index_of_block(blocks.start)
                end = first + len(blocks)
                binding.page_table[first:end] = page_ids
                binding.held.update(range(first, end))
            # Only blocks at or below the hit matter here, so the boundary
            # list stops at ``cached_stream``.
            binding.hashed_blocks = len(policy.cacheable_boundaries(cached_stream))
            # Pages below the active frontier were never held.
            binding.release_ptr = policy.release_frontier(cached_stream)
        return cap

    def _stream_of(self, seq: SequenceSpec, group_id: str) -> Sequence[int]:
        """Group's stream token ids, to read only.

        A group that accepts every tag of ``seq`` reads ``seq.token_ids``
        itself (``hash_chain`` only slices it).  Other streams are cached
        per (request, group); the cache is length-validated, so decode
        appends refresh it lazily.
        """
        tags = self.specs[group_id].accepted_tags
        if seq.covered_by(tags):
            return seq.token_ids
        key = (seq.request_id, group_id)
        cached = self._stream_cache.get(key)
        if cached is None or len(cached) != seq.stream_length(tags):
            cached = self._stream_cache[key] = seq.stream_tokens(tags)
        return cached

    # ------------------------------------------------------------------
    # Growth: the request-granular face of the five-step allocator
    # ------------------------------------------------------------------

    def allocate_up_to(self, seq: SequenceSpec, target_global: int) -> bool:
        """Ensure pages back the first ``target_global`` tokens of ``seq``.

        Runs the five-step algorithm for every missing page once the
        allocator has confirmed they all fit; otherwise allocates nothing
        and returns ``False``, and the scheduler preempts a request and
        retries.
        """
        return self._grow(seq, self.policies, target_global)

    def allocate_vision(self, seq: SequenceSpec) -> bool:
        """Allocate vision-embedding pages for *all* of ``seq``'s images.

        The vision encoder runs once at admission and produces embeddings
        for every image token (Section 6.2), so encoder-filled groups are
        allocated to the full image stream up front, independently of how
        far LLM prefill has progressed.  Returns ``False`` (allocating
        nothing) if memory does not suffice.
        """
        if not self._grow(seq, self._encoder_groups, None):
            return False
        # The encoder fills the embeddings immediately.
        bindings = self._bindings[seq.request_id]
        for group_id in self._encoder_groups:
            binding = bindings[group_id]
            if binding.stream_len > binding.filled_upto:
                self._update_fill(
                    self.allocator.groups[group_id], binding, binding.stream_len
                )
        return True

    def _grow(
        self,
        seq: SequenceSpec,
        policies: Dict[str, LayerTypePolicy],
        target_global: Optional[int],
    ) -> bool:
        """Grow ``policies``' page tables to ``target_global``, or refuse.

        Check, then commit: every group's missing slots are planned first,
        the allocator is asked once (:meth:`TwoLevelAllocator.groups_that_fit`)
        and, when all fit, each group's slots are allocated as one run --
        no allocation can fail and nothing is ever rolled back.

        A refusal allocates nothing, but still leaves ``stream_len``
        advanced on the groups planned before the first one that does not
        fit: the retry then skips them, so those blocks may stay unbacked
        (``tests/test_kv_manager.py::test_needs_allocation_false_implies_write_set_backed``,
        a strict xfail).  ``sim_digest`` pins that trajectory, and
        changing it moves TTFT and preemptions, so the fix is its own
        change.
        """
        request_id = seq.request_id
        bindings = self._require(request_id)
        plan: List[Tuple[str, GroupBinding, int, List[int]]] = []
        for group_id, policy in policies.items():
            binding = bindings[group_id]
            target_stream = seq.stream_length(policy.spec.accepted_tags, target_global)
            if target_stream <= binding.stream_len:
                continue
            missing = self._missing_slots(policy, binding, target_stream)
            table = binding.page_table
            num_pages = policy.num_pages_for(target_stream)
            if num_pages > len(table):
                table.extend([None] * (num_pages - len(table)))
            plan.append((group_id, binding, target_stream, missing))
        demand = [(group_id, len(missing)) for group_id, _, _, missing in plan if missing]
        fits = self.allocator.groups_that_fit(demand, request_id)
        if fits < len(demand):
            refused = demand[fits][0]
            for group_id, binding, target_stream, _ in plan:
                if group_id == refused:
                    return False
                binding.stream_len = target_stream
        for group_id, binding, target_stream, missing in plan:
            if missing:
                # One run for the whole write set: one report, one pass
                # through the five steps.
                page_ids = self.allocator.allocate_pages(group_id, request_id, len(missing))
                assert page_ids is not None
                table = binding.page_table
                for idx, page_id in zip(missing, page_ids):
                    table[idx] = page_id
                binding.held.update(missing)
            binding.stream_len = target_stream
        return True

    @staticmethod
    def _missing_slots(
        policy: LayerTypePolicy, binding: GroupBinding, target_stream: int
    ) -> List[int]:
        """Write-set slots of growth to ``target_stream`` with no page yet."""
        held = binding.held
        table = binding.page_table
        size = len(table)
        return [
            idx
            for idx in policy.pages_to_write(binding.stream_len, target_stream, held)
            if idx not in held or idx >= size or table[idx] is None
        ]

    def needs_allocation(self, seq: SequenceSpec, target_global: int) -> bool:
        """Whether :meth:`allocate_up_to` would actually allocate anything.

        Pure page-table inspection, stopping at the first missing slot.
        ``False`` lets the engine skip the allocate call.  Note
        ``binding.stream_len`` is deliberately *not* advanced here, so
        fill/hash bookkeeping catches up on the next real allocation.  The
        engine asks only above the request's horizon (:meth:`commit`).
        """
        bindings = self._bindings.get(seq.request_id)
        if bindings is None:
            return True
        for group_id, policy in self.policies.items():
            binding = bindings[group_id]
            target_stream = seq.stream_length(policy.spec.accepted_tags, target_global)
            if target_stream > binding.stream_len and self._missing_slots(
                policy, binding, target_stream
            ):
                return True
        return False

    def consume_vision(self, seq: SequenceSpec, upto_global: int) -> None:
        """Free vision-embedding pages whose tokens prefill has consumed.

        Implements the allocate-on-demand flow of Section 6.2: once the LLM
        has prefilled past an image token, its embedding page is released
        -- freed outright, not cached.
        """
        bindings = self._require(seq.request_id)
        for group_id, policy in self._encoder_groups.items():
            binding = bindings[group_id]
            binding.consumed = seq.stream_length(policy.spec.accepted_tags, upto_global)
            self._release_behind_frontier(
                self.allocator.groups[group_id], policy, binding,
                binding.stream_len, binding.last_time, seq, cacheable=False,
            )

    # ------------------------------------------------------------------
    # Commit / release
    # ------------------------------------------------------------------

    def commit(
        self,
        seq: SequenceSpec,
        computed_global: int,
        now: float,
        phase: str = "decode",
    ) -> float:
        """Record that the first ``computed_global`` tokens are computed.

        Per group: fill-count updates, block-hash registration for newly
        completed blocks, and release of pages past the layer's active
        frontier (out-of-window / checkpointed / consumed).  Work done is
        proportional to tokens computed since the last commit, not to the
        sequence length.  (An encoder-filled group's frontier moves with
        ``consumed``, and :meth:`consume_vision` releases behind it itself.)

        Returns the request's *horizon* in global tokens: a decode to a
        length at or below it needs no page and would commit nothing but
        the release stamp, so the engine skips both calls and hands that
        time to :meth:`release`.  It is 0 while prompt is left and while a
        Mamba checkpoint's stamp must move every step (Section 5.3).

        ``phase`` customizes the eviction class of pages sliding out of a
        window layer's active set (Section 5.1's sliding-window rule):

        * ``"prefill"`` -- deep out-of-window prompt KV; cached but stamped
          ``now`` minus a large bias, so it fills otherwise-idle memory yet
          evicts before any useful page under pressure;
        * ``"decode"`` -- blocks just behind the window, i.e. the trailing
          window of the *prompt*, exactly what a future same-prefix request
          hits on; cached with normal (hot) stamps.
        """
        bindings = self._require(seq.request_id)
        slide_out_stamp = now - _OUT_OF_WINDOW_BIAS if phase == "prefill" else now
        horizon = math.inf if computed_global >= len(seq.token_ids) else 0
        for group_id, binding in bindings.items():
            binding.last_time = now
            policy = self.policies[group_id]
            group = self.allocator.groups[group_id]
            tags = policy.spec.accepted_tags
            computed = seq.stream_length(tags, computed_global)
            # Commit never looks past ``binding.stream_len``.
            stream_len = min(computed, binding.stream_len)

            if not policy.snapshot_blocks and stream_len > binding.filled_upto:
                self._update_fill(group, binding, stream_len)

            if self.enable_prefix_caching:
                self._register_hashes(seq, group, policy, binding, stream_len, now)

            self._release_behind_frontier(
                group, policy, binding, stream_len, slide_out_stamp, seq, cacheable=True
            )
            if binding.last_checkpoint_page is not None:
                self._refresh_last_checkpoint(group, binding.last_checkpoint_page, now)
                horizon = 0
            elif horizon:
                horizon = min(horizon, self._horizon(
                    policy, binding, TEXT in tags, computed_global, computed
                ))
        return horizon

    def _horizon(
        self, policy: LayerTypePolicy, binding: GroupBinding, grows: bool,
        computed_global: int, computed: int,
    ) -> float:
        """One group's horizon after a commit through all ``computed_global``
        tokens (``computed`` of its stream).  Decode appends text: a stream
        taking text (``grows``) gains a token per decode, others none."""
        if not grows:
            return math.inf if computed <= binding.stream_len else computed_global
        if computed < binding.stream_len:
            return computed_global  # pages ahead of the commit: the next one fills
        quiet = policy.horizon(binding.stream_len)
        if quiet > binding.stream_len and self._missing_slots(policy, binding, quiet):
            quiet = binding.stream_len
        return computed_global + quiet - computed

    def release(
        self, seq: SequenceSpec, cacheable: bool = True, quiet_time: float = 0.0
    ) -> None:
        """Drop every reference ``seq`` holds (finish or preemption).

        With prefix caching enabled and ``cacheable=True``, completed blocks
        remain resident as evictable cache; otherwise pages free outright.
        Pages are stamped with the later of the last commit made here and
        ``quiet_time``, the last one the engine skipped below the horizon.
        """
        bindings = self._bindings.pop(seq.request_id, None)
        if bindings is None:
            return
        for group_id, binding in bindings.items():
            self._release_slots(
                self.allocator.groups[group_id], self.policies[group_id], binding,
                # Per-request, not per-pool: the slots one request holds.
                sorted(binding.held),
                max(binding.last_time, quiet_time), seq, cacheable,
            )
            self._stream_cache.pop((seq.request_id, group_id), None)

    def _release_slots(
        self,
        group: GroupAllocator,
        policy: LayerTypePolicy,
        binding: GroupBinding,
        slots: Iterable[int],
        stamp: float,
        seq: SequenceSpec,
        cacheable: bool,
    ) -> None:
        """Drop the held references among ``slots``, stamping each page's
        eviction metadata (``last_access = stamp`` and the policy's prefix
        length) first and releasing them as one run -- the one place a page
        leaves a request's hold.

        A release that cannot cache stamps nothing: a page it frees is
        cleared, and a page another request still holds is stamped again
        by the release that drops its last reference."""
        held = binding.held
        table = binding.page_table
        last_access = group.last_access
        prefix_length = group.prefix_length
        stamped = cacheable and self.allocator.enable_prefix_caching
        page_ids: List[int] = []
        for idx in slots:
            if idx not in held:
                continue
            held.discard(idx)
            page_id = table[idx]
            if page_id is None:
                continue
            if stamped:
                last_access[page_id] = stamp
                prefix_length[page_id] = policy.prefix_length_of(idx, seq)
            page_ids.append(page_id)
        if page_ids:
            self.allocator.release_pages(group.spec.group_id, page_ids, cacheable)

    def _release_behind_frontier(
        self,
        group: GroupAllocator,
        policy: LayerTypePolicy,
        binding: GroupBinding,
        stream_len: int,
        stamp: float,
        seq: SequenceSpec,
        cacheable: bool,
    ) -> None:
        """Release pages behind the layer's active frontier.

        Out-of-window slide-outs stay cached but carry the caller's biased
        ``stamp``: they can still serve hits while memory is plentiful, yet
        evict before any useful page under pressure (the customized
        sliding-window eviction rule of Sections 5.1/7.3).  Consumed vision
        embeddings pass ``cacheable=False`` and free outright.
        """
        frontier = policy.release_frontier(stream_len, binding.consumed)
        if frontier > binding.release_ptr:
            self._release_slots(
                group, policy, binding, range(binding.release_ptr, frontier),
                stamp, seq, cacheable,
            )
            binding.release_ptr = frontier

    def _update_fill(self, group: GroupAllocator, binding: GroupBinding, stream_len: int) -> None:
        tpp = group.spec.tokens_per_page
        num_tokens = group.num_tokens
        first = binding.filled_upto // tpp
        last = (stream_len + tpp - 1) // tpp
        fill = 0
        for idx in range(first, last):
            page_id = binding.page_table[idx]
            if idx in binding.held and page_id is not None:
                new_tokens = max(0, min(tpp, stream_len - idx * tpp))
                fill += new_tokens - num_tokens[page_id]
                num_tokens[page_id] = new_tokens
        group.note_fill(fill)
        binding.filled_upto = stream_len

    def _register_hashes(
        self,
        seq: SequenceSpec,
        group: GroupAllocator,
        policy: LayerTypePolicy,
        binding: GroupBinding,
        stream_len: int,
        now: float,
    ) -> None:
        boundaries = policy.cacheable_boundaries(stream_len)
        if len(boundaries) <= binding.hashed_blocks:
            return
        group_id = group.spec.group_id
        # Decode-time extension rides the same memoized chain the lookup
        # built: already-registered blocks cost a list index, new blocks
        # fold only their own tokens.
        hashes = seq.hash_chain(
            policy.spec.accepted_tags,
            policy.boundary_schedule(),
            self._stream_of(seq, group_id),
            boundaries,
        )
        for block_idx in range(binding.hashed_blocks, len(boundaries)):
            idx = policy.page_index_of_block(block_idx)
            page_id = binding.page_table[idx] if idx in binding.held else None
            if page_id is not None and group.block_hash[page_id] is None:
                self.allocator.register_block_hash(group_id, page_id, hashes[block_idx])
                if policy.snapshot_blocks:
                    # Checkpoints go straight to evictable cache: stamp
                    # creation time and release the working reference.
                    self._release_slots(group, policy, binding, (idx,), now, seq, True)
                    carve = group.carve[page_id // group.small_per_large]
                    binding.last_checkpoint_page = (page_id, carve)
        binding.hashed_blocks = len(boundaries)

    def _refresh_last_checkpoint(
        self, group: GroupAllocator, checkpoint: Tuple[int, int], now: float
    ) -> None:
        """Keep only the newest Mamba checkpoint's stamp fresh (§5.3), while
        the carve that held it lasts (its id may already name another
        carve's page)."""
        page_id, carve = checkpoint
        large_id = page_id // group.small_per_large
        if group.carve[large_id] != carve or group.state[page_id] is not EVICTABLE:
            return
        group.last_access[page_id] = now
        self.allocator.touch_evictable(group.spec.group_id, page_id)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def can_admit(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        """Admission control: does the whole prompt's footprint fit now?

        vLLM gates admission on the full prompt's block count; doing the
        same avoids admit-preempt thrash.  Each group's demand is its
        steady-state *resident* set (``active_page_indices``) -- so a
        window model's long prompt does not demand pages it frees during
        prefill -- or, if larger, the policy's transient prefill peak
        (``peak_pages``: a chunk's blocks are all written before the
        out-of-window ones release at commit).  Pages the request already
        holds (prefix hits acquired at ``begin_request``) need no new
        allocation, so they come off both; ``watermark_pages`` goes on top.

        The verdict is the question :meth:`_grow` asks: whether those runs,
        allocated in ``self.policies`` order, all come out of the five
        steps (:meth:`TwoLevelAllocator.groups_that_fit`, exact and
        read-only).
        """
        bindings = self._bindings.get(seq.request_id)
        demand: List[Tuple[str, int]] = []
        for group_id, policy in self.policies.items():
            stream_len = seq.stream_length(policy.spec.accepted_tags)
            resident = len(policy.active_page_indices(stream_len))
            peak = policy.peak_pages(stream_len, chunk_tokens)
            held = len(bindings[group_id].held) if bindings is not None else 0
            demand.append((group_id, max(resident - held, peak - held, 0) + watermark_pages))
        return self.allocator.groups_that_fit(demand, seq.request_id) == len(demand)

    def admission_version(self) -> int:
        """Monotone pool-state version for admission-verdict reuse.

        Equal versions across probes guarantee the pool inputs of
        :meth:`can_admit` are unchanged, so the engine may skip re-probing
        a blocked head-of-queue request entirely.
        """
        return self.allocator.version

    # ------------------------------------------------------------------
    # Engine-facing properties and accounting
    # ------------------------------------------------------------------

    def stats(self) -> AllocatorStats:
        return self.allocator.stats()

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from cache."""
        return self.hit_tokens / self.lookup_tokens if self.lookup_tokens else 0.0

    @property
    def has_vision_cache(self) -> bool:
        """Whether this manager caches vision-encoder outputs (Section 6.2)."""
        return bool(self._encoder_groups)

    @property
    def kernel_slowdown(self) -> float:
        """Attention-kernel penalty of the page layout (§4.4): none, since
        LCM pages keep each small page contiguous."""
        return 1.0


def ideal_resident_bytes(
    group_specs: Dict[str, GroupSpec], seq: SequenceSpec, computed_global: int
) -> int:
    """Bytes an ideal, layer-aware allocator would keep for ``seq``.

    Usable against *any* manager: the fragmentation benchmarks evaluate
    baselines' used memory against the model's true per-layer-type needs
    (Section 3.2's ideal of ``T * 32 * E + I * 8 * E``), not against the
    baselines' own inflated group structure.
    """
    total = 0
    for spec in group_specs.values():
        stream_len = seq.stream_length(spec.accepted_tags, computed_global)
        if not stream_len:
            continue
        resident = make_policy(spec).resident_tokens(stream_len)
        total += spec.bytes_for_tokens(resident)
    return total
