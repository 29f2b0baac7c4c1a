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
   from cache.  Vision-language requests then ``allocate_vision(seq)``
   once: encoder-filled groups get pages for the whole image stream.
2. repeatedly ``allocate_up_to(seq, n)`` -- grow page tables so the first
   ``n`` global tokens have backing pages (``pages_to_write``), one
   all-or-nothing batched allocator call per group, rolled back if any
   group fails (``needs_allocation`` is the same write-set computation
   without the allocation); then the engine "computes" the tokens and
   calls ``commit(seq, n, now)`` -- fill counts, block-hash registration,
   and release of pages behind the policy's ``release_frontier``
   (out-of-window pages; Mamba checkpoints leave at registration, consumed
   vision embeddings through ``consume_vision``).
3. ``release(seq)`` -- request finished or was preempted; all held
   references drop, and completed blocks stay resident as evictable cached
   prefixes.

Eviction metadata (the paper's ``update_last_access`` and
``set_prefix_length``, Figure 9a) is applied *at release time*: a page's
last-access stamp only matters once the page turns evictable, and for every
policy the stamp the paper's per-step protocol would leave on the page
equals the timestamp of the step at which the page left the layer's active
subset -- which is exactly when this manager releases it.  Mamba
checkpoints are the one exception (older checkpoints must keep stale
stamps, Section 5.3) and are stamped at creation instead, with only the
most recent checkpoint refreshed each step.  ``tests/test_kv_manager.py``
cross-checks this optimized protocol against the literal per-step one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .admission import AdmissionCache
from .events import EventBus, EventFanout, PageEvictedToHost, PrefixHit
from .layer_policy import GroupSpec, LayerTypePolicy, make_policy
from .offload import HostMemoryPool, OffloadConfig
from .pages import SmallPage
from .prefix_cache import longest_common_prefix
from .protocols import KVCacheManagerBase
from .sequence import SequenceSpec
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
    backed_upto: int = 0  # global tokens needs_allocation last found backed
    filled_upto: int = 0  # stream tokens whose fill counts are recorded
    release_ptr: int = 0  # all held indices below this were released
    consumed: int = 0  # stream tokens prefill has consumed (consume_vision)
    last_time: float = 0.0  # timestamp of the latest commit
    # Chain state lives on the sequence (SequenceSpec.hash_chain); the
    # binding only tracks how many blocks it registered with the index.
    hashed_blocks: int = 0  # cacheable blocks already registered
    last_checkpoint_page: Optional[int] = None  # newest released snapshot


class JengaKVCacheManager(KVCacheManagerBase):
    """Two-level, policy-customized KV-cache manager (the paper's system).

    Args:
        group_specs: Layer-type groups of the model being served (obtained
            from :meth:`repro.models.config.ModelSpec.kv_groups`).
        total_bytes: Size of the KV-cache region.
        enable_prefix_caching: Retain finished requests' blocks for reuse.
        strategy: Compatible-page-size strategy (``"lcm"``/``"gcd"``/
            ``"max"``) -- non-LCM values exist for the Section 4.4 ablation.
        seed: Seed for randomized per-image eviction draws.
        events: Event bus allocation/eviction records publish to; a private
            bus is created when omitted (the engine rebinds managers onto
            its own via :meth:`bind_events`).
        shared_allocator: Multi-model serving (Section 6.1): several
            managers, one page pool.  The pool's events fan out to every
            sharing manager's own bus (see
            :class:`~repro.core.events.EventFanout`).
    """

    name = "jenga"

    def __init__(
        self,
        group_specs: Dict[str, GroupSpec],
        total_bytes: int,
        enable_prefix_caching: bool = True,
        strategy: str = "lcm",
        seed: int = 0,
        request_aware: bool = True,
        offload: Optional[OffloadConfig] = None,
        shared_allocator: Optional[TwoLevelAllocator] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        super().__init__(events)
        self.specs = dict(group_specs)
        if shared_allocator is not None:
            # The shared allocator was built over the union of all models'
            # groups; this manager drives only its own subset.
            missing = set(self.specs) - set(shared_allocator.groups)
            if missing:
                raise ValueError(f"shared allocator lacks groups: {missing}")
            self.policies = {
                g: shared_allocator.groups[g].policy for g in self.specs
            }
            self.allocator = shared_allocator
            # One pool, many views: the allocator's bus is a fan-out over
            # every bound view's own bus, so pool events reach every
            # sibling's observers while each manager keeps its private
            # per-engine bus.  A pre-existing plain bus on the allocator
            # stays attached as a fan-out member, preserving its feed.
            sink = shared_allocator.events
            if not isinstance(sink, EventFanout):
                sink = EventFanout() if sink is None else EventFanout(sink)
                shared_allocator.events = sink
            sink.attach(self.events)
        else:
            self.policies = {
                g: make_policy(s, enable_prefix_caching=enable_prefix_caching, seed=seed)
                for g, s in self.specs.items()
            }
            self.allocator = TwoLevelAllocator(
                total_bytes,
                self.specs,
                self.policies,
                strategy=strategy,
                enable_prefix_caching=enable_prefix_caching,
                request_aware=request_aware,
                events=self.events,
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
        # Optional host-memory offload tier (Section 8 extension): evicted
        # cached blocks spill to host RAM and can be onloaded over PCIe
        # instead of recomputed.
        self.host_pool: Optional[HostMemoryPool] = None
        self._pending_onload_bytes: Dict[str, int] = {}
        if offload is not None and enable_prefix_caching:
            self.host_pool = HostMemoryPool(offload)
            self.allocator.eviction_listener = self._on_gpu_eviction
        # Per-request demand memo behind can_admit (see repro.core.admission).
        self._admission = AdmissionCache()

    def bind_events(self, events: EventBus) -> None:
        """Adopt ``events`` for this manager view.

        On a shared allocator the pool bus is an
        :class:`~repro.core.events.EventFanout`; this view's old bus is
        swapped for ``events`` inside it, leaving every sibling's feed
        intact.  A privately-owned allocator simply follows the manager
        onto the new bus.
        """
        sink = self.allocator.events
        if isinstance(sink, EventFanout):
            sink.replace(self.events, events)
        else:
            self.allocator.events = events
        self.events = events

    def foreign_used_bytes(self) -> int:
        """USED bytes co-tenant views hold in a shared allocator.

        A privately-owned allocator carries exactly this manager's groups,
        so the answer is 0 without scanning.  On a shared pool the engine
        uses this to tell "my pool is idle and the request still does not
        fit" (permanent failure) from "a co-tenant is holding the memory
        right now" (block and retry): only USED pages count, because
        evictable and free memory is reclaimable through the normal
        allocation steps and so never justifies waiting.
        """
        groups = self.allocator.groups
        if len(groups) == len(self.specs):
            return 0
        total = 0
        for group_id, group in groups.items():
            if group_id not in self.specs:
                total += group.n_used * group.spec.page_bytes
        return total

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
        capped at ``len(seq) - 1``.  With an enabled tracer bound, the
        hash-chain lookup and page acquisition are wrapped in a
        ``prefix_lookup`` span (nested under the engine's ``schedule``
        phase).
        """
        if seq.request_id in self._bindings:
            raise ValueError(f"request {seq.request_id!r} already active")
        bindings = {g: GroupBinding() for g in self.specs}
        self._bindings[seq.request_id] = bindings
        if not self.enable_prefix_caching:
            return 0
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "prefix_lookup", cat="kv", args={"request": seq.request_id}
            ):
                hit = self._lookup_and_acquire(seq, bindings)
        else:
            hit = self._lookup_and_acquire(seq, bindings)
        # The one place a lookup is counted and published.
        self.lookup_tokens += len(seq)
        self.hit_tokens += hit
        if self.events.has_subscribers(PrefixHit):
            self.events.emit(PrefixHit(seq.request_id, hit, len(seq)))
        return hit

    def _lookup_and_acquire(
        self, seq: SequenceSpec, bindings: Dict[str, GroupBinding]
    ) -> int:
        """Hash-chain lookup plus cached-page acquisition (the hit path).

        Probing is bounded by a running *cap* on the model-wide hit.
        Encoder-filled groups never constrain the hit (embeddings are
        inputs to prefill, refilled by the encoder when the uncached
        remainder contains image tokens).  Leading-run groups
        (full/cross attention) go first: their probe stops at the first
        miss, and the resulting run caps how deep every later group needs
        to hash and probe at all -- a total miss costs one dict probe per
        leading-run group and zero for the rest, so the steady-state
        lookup is O(hit-prefix blocks), not O(stream blocks).
        """
        specs = self.specs
        ordered = self._lookup_order
        all_hashes: Dict[str, List[int]] = {}
        valid: Dict[str, List[int]] = {}
        host_pool = self.host_pool
        cap_global = len(seq) - 1
        for group_id in ordered:
            if cap_global <= 0:
                # An earlier group already ruled out any non-empty hit.
                valid[group_id] = []
                continue
            policy = self.policies[group_id]
            group_tags = specs[group_id].accepted_tags
            stream = self._stream_of(seq, group_id)
            stream_total = len(stream)
            cap_stream = seq.stream_length(group_tags, cap_global)
            boundaries = policy.cacheable_boundaries(min(stream_total, cap_stream))
            # Memoized on the sequence: only never-hashed tokens fold, so a
            # re-probe of a blocked or preempted request is pure dict work.
            hashes = seq.hash_chain(
                group_tags, policy.boundary_schedule(), stream, boundaries
            )
            index = self.allocator.groups[group_id].cache_index
            if policy.leading_run_only:
                is_hit: List[bool] = []
                for h in hashes:
                    hit = index.probe(h) is not None or (
                        host_pool is not None and host_pool.probe(h) is not None
                    )
                    is_hit.append(hit)
                    if not hit:
                        break
            elif host_pool is not None:
                is_hit = [
                    index.probe(h) is not None or host_pool.probe(h) is not None
                    for h in hashes
                ]
            else:
                is_hit = [index.probe(h) is not None for h in hashes]
            all_hashes[group_id] = hashes
            prefixes = policy.get_possible_prefix(is_hit)
            valid[group_id] = prefixes
            # Any model-wide hit must keep this group's stream count within
            # its largest valid prefix; shrink the cap accordingly.
            v_max = max(prefixes) if prefixes else 0
            if v_max >= stream_total:
                upper = len(seq)
            else:
                upper = seq.global_prefix_for_stream(group_tags, v_max + 1) - 1
            if upper < cap_global:
                cap_global = upper

        if cap_global <= 0:
            hit_global = 0
        else:
            tags = {g: specs[g].accepted_tags for g in ordered}
            hit_global = longest_common_prefix(
                seq, valid, tags, max_global=cap_global
            )
        if hit_global <= 0:
            return 0

        acquired: List[Tuple[str, List[SmallPage]]] = []
        for group_id, policy in self.policies.items():
            if policy.encoder_filled:
                continue  # embeddings are re-encoded, not acquired
            binding = bindings[group_id]
            cached_stream = seq.stream_length(specs[group_id].accepted_tags, hit_global)
            binding.stream_len = cached_stream
            binding.filled_upto = cached_stream
            binding.page_table = [None] * policy.num_pages_for(cached_stream)
            # Only blocks at or below the hit matter here, so the boundary
            # list stops at ``cached_stream``.
            boundaries = policy.cacheable_boundaries(cached_stream)
            blocks = policy.hit_blocks_to_hold(cached_stream)
            wanted = [all_hashes[group_id][block_idx] for block_idx in blocks]
            # One run for the whole hit; it comes back short at the first
            # block a racing eviction took, which the host tier may still
            # hold (the run then resumes behind the onloaded page).
            pages = self.allocator.acquire_cached_run(group_id, wanted, seq.request_id)
            while len(pages) < len(wanted) and host_pool is not None:
                at = len(pages)
                onloaded = self._materialize_from_host(
                    group_id, wanted[at], seq, boundaries, blocks[at]
                )
                if onloaded is None:
                    break
                pages.append(onloaded)
                pages += self.allocator.acquire_cached_run(
                    group_id, wanted[at + 1:], seq.request_id
                )
            acquired.append((group_id, pages))
            if len(pages) < len(wanted):
                break
            for block_idx, page in zip(blocks, pages):
                idx = policy.page_index_of_block(block_idx)
                binding.page_table[idx] = page.page_id
                binding.held.add(idx)
            binding.hashed_blocks = len(boundaries)
            # Pages below the active frontier were never held.
            binding.release_ptr = policy.release_frontier(cached_stream)
        else:
            return hit_global
        # Racing eviction invalidated the hit; fall back to no hit.
        for group_id, pages in acquired:
            self.allocator.release_pages(
                group_id, [page.page_id for page in pages], cacheable=True
            )
        for group_id in self.specs:
            bindings[group_id] = GroupBinding()
        return 0

    def _stream_of(self, seq: SequenceSpec, group_id: str) -> List[int]:
        """Group's stream token ids, cached per (request, group).

        The cache is length-validated, so decode appends refresh it lazily.
        """
        spec = self.specs[group_id]
        key = (seq.request_id, group_id)
        cached = self._stream_cache.get(key)
        expect = seq.stream_length(spec.accepted_tags)
        if cached is not None and len(cached) == expect:
            return cached
        if (
            cached is not None
            and len(cached) < expect
            and spec.accepted_tags >= seq._tag_set
        ):
            cached.extend(seq.token_ids[len(cached):])
            return cached
        stream = seq.stream_tokens(spec.accepted_tags)
        self._stream_cache[key] = stream
        return stream

    # ------------------------------------------------------------------
    # Growth: the request-granular face of the five-step allocator
    # ------------------------------------------------------------------

    def allocate_up_to(self, seq: SequenceSpec, target_global: int) -> bool:
        """Ensure pages back the first ``target_global`` tokens of ``seq``.

        Runs the five-step algorithm for every missing page.  On failure the
        pages newly allocated by *this call* are rolled back and ``False``
        is returned; the scheduler then preempts a request and retries.
        """
        return self._grow(seq, self.policies, target_global)

    def allocate_vision(self, seq: SequenceSpec) -> bool:
        """Allocate vision-embedding pages for *all* of ``seq``'s images.

        The vision encoder runs once at admission and produces embeddings
        for every image token (Section 6.2), so encoder-filled groups are
        allocated to the full image stream up front, independently of how
        far LLM prefill has progressed.  Returns ``False`` (with rollback)
        if memory does not suffice.
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
        """Grow ``policies``' page tables to ``target_global`` or roll back.

        A failed call releases the pages it allocated but leaves
        ``stream_len`` advanced on the groups that grew before the failing
        one, as every version of this manager has (the retry then skips
        them); ``sim_digest`` pins that trajectory, so changing it is its
        own PR (ROADMAP, reference-model item).
        """
        request_id = seq.request_id
        bindings = self._require(request_id)
        grown: List[Tuple[str, GroupBinding, List[int], List[SmallPage]]] = []
        for group_id, policy in policies.items():
            binding = bindings[group_id]
            target_stream = seq.stream_length(policy.spec.accepted_tags, target_global)
            if target_stream <= binding.stream_len:
                continue
            missing = list(self._missing_slots(policy, binding, target_stream))
            table = binding.page_table
            num_pages = policy.num_pages_for(target_stream)
            if num_pages > len(table):
                table.extend([None] * (num_pages - len(table)))
            if missing:
                # One run for the whole write set: one event, one pass
                # through the five steps.
                pages = self.allocator.allocate_pages(group_id, request_id, len(missing))
                if pages is None:
                    # Roll back the groups that grew before this one, a
                    # run each.
                    for gid, earlier, slots, got in grown:
                        earlier.held.difference_update(slots)
                        for idx in slots:
                            earlier.page_table[idx] = None
                        self.allocator.release_pages(
                            gid, [page.page_id for page in got], cacheable=False
                        )
                    return False
                for idx, page in zip(missing, pages):
                    table[idx] = page.page_id
                binding.held.update(missing)
                grown.append((group_id, binding, missing, pages))
            binding.stream_len = target_stream
        return True

    @staticmethod
    def _missing_slots(
        policy: LayerTypePolicy, binding: GroupBinding, target_stream: int
    ) -> Iterator[int]:
        """Write-set slots of growth to ``target_stream`` with no page yet."""
        held = binding.held
        table = binding.page_table
        for idx in policy.pages_to_write(binding.stream_len, target_stream, held):
            if idx not in held or idx >= len(table) or table[idx] is None:
                yield idx

    def needs_allocation(self, seq: SequenceSpec, target_global: int) -> bool:
        """Whether :meth:`allocate_up_to` would actually allocate anything.

        Pure page-table inspection, stopping at the first missing slot.
        ``False`` lets the engine skip the allocate call outright on decode
        steps that stay inside the current block -- note
        ``binding.stream_len`` is deliberately *not* advanced here, so
        fill/hash bookkeeping catches up on the next real allocation (at
        most one page's worth of lag per group).

        A walk that finds every slot backed is remembered as
        ``binding.backed_upto``: a global token adds at most one stream
        token, so until the stream can leave the page the walk ended in,
        the group answers from one compare.  A slot leaving the request's
        hold (:meth:`_release_slots`) forgets it; a ``_grow`` rollback
        need not, it drops only slots that were missing, which no
        remembered walk covers.
        """
        bindings = self._bindings.get(seq.request_id)
        if bindings is None:
            return True
        for group_id, policy in self.policies.items():
            binding = bindings[group_id]
            if target_global <= binding.backed_upto:
                continue
            target_stream = seq.stream_length(policy.spec.accepted_tags, target_global)
            if target_stream > binding.stream_len:
                for _ in self._missing_slots(policy, binding, target_stream):
                    return True
                slack = policy.write_free_tokens(target_stream)
            else:
                slack = binding.stream_len - target_stream
            binding.backed_upto = min(target_global, len(seq)) + slack
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
    ) -> None:
        """Record that the first ``computed_global`` tokens are computed.

        Per group: fill-count updates, block-hash registration for newly
        completed blocks, and release of pages past the layer's active
        frontier (out-of-window / checkpointed / consumed).  Work done is
        proportional to tokens computed since the last commit, not to the
        sequence length.

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
        for group_id, policy in self.policies.items():
            binding = bindings[group_id]
            group = self.allocator.groups[group_id]
            stream_len = seq.stream_length(policy.spec.accepted_tags, computed_global)
            stream_len = min(stream_len, binding.stream_len)
            binding.last_time = now

            if not policy.snapshot_blocks and stream_len > binding.filled_upto:
                self._update_fill(group, binding, stream_len)

            if self.enable_prefix_caching:
                self._register_hashes(seq, group, policy, binding, stream_len, now)

            self._release_behind_frontier(
                group, policy, binding, stream_len, slide_out_stamp, seq, cacheable=True
            )
            if binding.last_checkpoint_page is not None:
                self._refresh_last_checkpoint(group, binding.last_checkpoint_page, now)

    def release(self, seq: SequenceSpec, cacheable: bool = True) -> None:
        """Drop every reference ``seq`` holds (finish or preemption).

        With prefix caching enabled and ``cacheable=True``, completed blocks
        remain resident as evictable cache; otherwise pages free outright.
        """
        bindings = self._bindings.pop(seq.request_id, None)
        if bindings is None:
            return
        for group_id, binding in bindings.items():
            self._release_slots(
                self.allocator.groups[group_id], self.policies[group_id], binding,
                # Per-request, not per-pool: the slots one request holds.
                sorted(binding.held),  # jengalint: disable=hot-path-scan
                binding.last_time, seq, cacheable,
            )
            self._stream_cache.pop((seq.request_id, group_id), None)
        self._pending_onload_bytes.pop(seq.request_id, None)

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
        leaves a request's hold."""
        binding.backed_upto = 0
        held = binding.held
        table = binding.page_table
        pages = group.pages
        page_ids: List[int] = []
        for idx in slots:
            if idx not in held:
                continue
            held.discard(idx)
            page_id = table[idx]
            if page_id is None:
                continue
            page = pages.get(page_id)
            if page is not None:
                page.last_access = stamp
                page.prefix_length = policy.prefix_length_of(idx, seq)
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
        first = binding.filled_upto // tpp
        last = (stream_len + tpp - 1) // tpp
        for idx in range(first, last):
            page_id = binding.page_table[idx]
            if idx in binding.held and page_id is not None:
                page = group.pages.get(page_id)
                if page is not None:
                    new_tokens = max(0, min(tpp, stream_len - idx * tpp))
                    group.note_fill(new_tokens - page.num_tokens)
                    page.num_tokens = new_tokens
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
            if page_id is not None:
                page = group.pages.get(page_id)
                if page is not None and page.block_hash is None:
                    self.allocator.register_block_hash(group_id, page, hashes[block_idx])
                    if policy.snapshot_blocks:
                        # Checkpoints go straight to evictable cache: stamp
                        # creation time and release the working reference.
                        self._release_slots(group, policy, binding, (idx,), now, seq, True)
                        binding.last_checkpoint_page = page_id
        binding.hashed_blocks = len(boundaries)

    def _refresh_last_checkpoint(
        self, group: GroupAllocator, page_id: int, now: float
    ) -> None:
        """Keep only the newest Mamba checkpoint's stamp fresh (§5.3)."""
        page = group.pages.get(page_id)
        if page is None or not page.is_evictable:
            return
        page.last_access = now
        self.allocator.touch_evictable(group.spec.group_id, page)

    # ------------------------------------------------------------------
    # Host-memory offload tier (Section 8 extension)
    # ------------------------------------------------------------------

    def _on_gpu_eviction(self, group_id: str, block_hash: int, page_bytes: int) -> None:
        """Spill an evicted cached block to the host pool."""
        assert self.host_pool is not None
        self.host_pool.offload(block_hash, group_id, page_bytes)
        if self.events.has_subscribers(PageEvictedToHost):
            self.events.emit(PageEvictedToHost(group_id, block_hash, page_bytes))

    def _materialize_from_host(
        self,
        group_id: str,
        block_hash: int,
        seq: SequenceSpec,
        boundaries: Sequence[int],
        block_idx: int,
    ) -> Optional[SmallPage]:
        """Onload a host-resident block into a freshly allocated GPU page.

        The transfer cost accrues against the request and is drained by
        the engine via :meth:`take_onload_bytes`.
        """
        assert self.host_pool is not None
        size = self.host_pool.onload(block_hash)
        if size is None:
            return None
        page = self.allocator.allocate_page(group_id, seq.request_id)
        if page is None:
            return None
        prev = boundaries[block_idx - 1] if block_idx > 0 else 0
        tokens = boundaries[block_idx] - prev
        group = self.allocator.groups[group_id]
        group.note_fill(tokens - page.num_tokens)
        page.num_tokens = tokens
        self.allocator.register_block_hash(group_id, page, block_hash)
        self._pending_onload_bytes[seq.request_id] = (
            self._pending_onload_bytes.get(seq.request_id, 0) + size
        )
        return page

    def take_onload_bytes(self, request_id: str) -> int:
        """Drain the PCIe transfer debt accrued by host-pool hits."""
        return self._pending_onload_bytes.pop(request_id, 0)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def resident_pages_needed(self, seq: SequenceSpec, target_global: int) -> Dict[str, int]:
        """Pages each group must keep *resident* once ``target_global`` tokens
        are computed -- the steady-state footprint, not the transient
        write set.  Sliding-window groups only count their window's pages
        even though prefill writes (and promptly releases) every block.
        """
        bindings = self._bindings.get(seq.request_id)
        needed: Dict[str, int] = {}
        for group_id, spec in self.specs.items():
            policy = self.policies[group_id]
            stream_len = seq.stream_length(spec.accepted_tags, target_global)
            n = len(policy.active_page_indices(stream_len))
            if bindings is not None:
                # Pages already held (prefix-cache hits acquired at
                # begin_request) need no new allocation.
                n -= len(bindings[group_id].held)
            needed[group_id] = max(0, n)
        return needed

    def can_admit(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        """Admission control: will the whole prompt's footprint ever fit?

        The same bound :meth:`can_admit_uncached` recomputes from scratch,
        evaluated from the allocator's live O(1) counters and the
        per-request demand memo (:class:`~repro.core.admission.AdmissionCache`);
        only the held-page subtraction and peak-residency correction are
        evaluated per probe (held references and ``chunk_tokens`` change
        between probes).  ``tests/test_admission_cache.py`` property-tests
        the two paths against each other under randomized churn.
        """
        allocator = self.allocator
        groups = allocator.groups
        entry = self._admission.demand(seq, self.specs, self.policies)
        bindings = self._bindings.get(seq.request_id)
        large_needed = 0
        for group_id, gross in entry.gross.items():
            # Pages already held (prefix-cache hits acquired at
            # begin_request) need no new allocation.  They are part of the
            # policy's transient prefill peak too -- without subtracting
            # them there a probe taken while the prefix hit is pinned
            # counts those pages as demand *and* (via ownership) against
            # the quota headroom, and a request mostly served from its
            # group's own cache gets refused.
            held = len(bindings[group_id].held) if bindings is not None else 0
            peak = self.policies[group_id].peak_pages(
                entry.stream_total[group_id], chunk_tokens
            )
            n = max(0, gross - held, peak - held)
            group = groups[group_id]
            spl = group.small_per_large
            # Small pages inside the group's own fully-evictable large
            # pages are claimable through the large evictor below;
            # counting them locally too would offset other groups' deficits.
            own_fe = allocator.fully_evictable_large_pages(group_id)
            local = group.num_free + len(group.evictor) - own_fe * spl
            deficit = n + watermark_pages - local
            if deficit > 0:
                need = -(-deficit // spl)
                quota = group.quota
                if quota is not None and need - own_fe > max(
                    0, quota - allocator.large_pages_owned(group_id)
                ):
                    # Large pages beyond the group's own fully-evictable
                    # ones (reclaimed in place, quota-neutral) must be
                    # carved, and the soft quota blocks the carve
                    # regardless of shared availability.
                    return False
                large_needed += need
        return large_needed <= allocator.lcm.num_free + len(allocator.large_evictor)

    def admission_version(self) -> int:
        """Monotone pool-state version for admission-verdict reuse.

        Equal versions across probes guarantee the pool inputs of
        :meth:`can_admit` are unchanged, so the engine may skip re-probing
        a blocked head-of-queue request entirely.  On a shared pool every
        view reads the same allocator, so a co-tenant's mutation moves it
        for all of them.
        """
        return self.allocator.version

    def can_admit_uncached(
        self, seq: SequenceSpec, watermark_pages: int = 0, chunk_tokens: int = 8192
    ) -> bool:
        """Uncached admission check -- the ``stats_slow()``-style cross-check.

        vLLM gates admission on the full prompt's block count; doing the
        same avoids admit-preempt thrash.  Each group's need is its
        steady-state *resident* set -- so a window model's long prompt does
        not demand pages it frees during prefill (Jenga's L4 Ministral
        advantage) -- plus the transient write set of one prefill chunk
        (a chunk's blocks must all be materialized before the out-of-window
        ones release at commit).  Groups compete for the shared large-page
        pool, so the check is joint in large-page units.
        """
        large_needed = 0
        bindings = self._bindings.get(seq.request_id)
        resident = self.resident_pages_needed(seq, len(seq))
        for group_id, n in resident.items():
            spec = self.specs[group_id]
            # Peak residency (see LayerTypePolicy.peak_pages).  Pages
            # already held by this request (pinned prefix hits) are part of
            # that peak and need no new allocation -- matching the
            # subtraction resident_pages_needed applied to ``n``.
            peak = self.policies[group_id].peak_pages(
                seq.stream_length(spec.accepted_tags), chunk_tokens
            )
            held = len(bindings[group_id].held) if bindings is not None else 0
            n = max(n, peak - held)
            group = self.allocator.groups[group_id]
            # The group's small pages inside its *own* fully-evictable
            # large pages are already claimable through ``available``
            # (the large evictor); counting them in ``local`` too would
            # double-count them against other groups' deficits.
            own_fe = self.allocator.fully_evictable_large_pages(group_id)
            overlap = own_fe * group.small_per_large
            local = group.num_free + len(group.evictor) - overlap
            deficit = n + watermark_pages - local
            if deficit > 0:
                need = -(-deficit // group.small_per_large)
                quota = group.quota
                if quota is not None:
                    # Beyond the group's own fully-evictable large pages
                    # (reclaimable in place, quota-neutral), every large
                    # page must be carved under the soft-quota headroom.
                    headroom = max(
                        0, quota - self.allocator.large_pages_owned(group_id)
                    )
                    if need - own_fe > headroom:
                        return False
                large_needed += need
        available = self.allocator.lcm.num_free + len(self.allocator.large_evictor)
        return large_needed <= available

    # ------------------------------------------------------------------
    # Engine-facing properties and accounting
    # ------------------------------------------------------------------

    def stats(self) -> AllocatorStats:
        return self.allocator.stats()

    def owned_groups(self) -> frozenset:
        """This view's groups -- the shared allocator covers the union of
        all co-tenant models' groups, but this manager drives (and should
        be charged for) only its own subset."""
        return frozenset(self.specs)

    def cache_hit_rates(self) -> Dict[str, float]:
        return {g: self.allocator.groups[g].cache_index.hit_rate for g in self.specs}

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
        """Attention-kernel penalty of the page-layout strategy (§4.4)."""
        return 2.0 if self.allocator.lcm.strategy == "gcd" else 1.0


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
