"""The two-level (LCM + customized) allocator with coordinated eviction.

This module implements the mechanism half of Jenga:

* :class:`GroupAllocator` -- one per layer-type group; carves large pages
  into that group's small pages, keeps per-request free pools
  (request-aware allocation, Section 4.3), a per-group LRU evictor, and the
  group's cached-block index.
* :class:`TwoLevelAllocator` -- owns the :class:`LCMAllocator`, all group
  allocators, and the *prefix-subset evictor* state: per-large-page
  empty/used/evictable counts, and the LRU of fully-evictable large pages
  whose timestamp is the latest last-access of its small pages.

The five-step allocation algorithm (Section 5.4):

1. allocate a request-associated empty small page of the needed type;
2. else carve a fresh large page from the LCM allocator and associate all
   its small pages with the request;
3. else evict the least-recently-used fully-evictable *large* page --
   possibly owned by a different layer type -- and carve it;
4. else allocate any empty small page of the needed type regardless of its
   request association;
5. else evict the least-recently-used evictable *small* page of the needed
   type and reuse it in place.

If all five steps fail the pool is genuinely full of used pages and the
caller (the KV manager / scheduler) must preempt a request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .events import (
    EventBus,
    LargePageCarved,
    PageEvicted,
    PageReleased,
    PagesAllocated,
    QuotaResized,
)
from .evictor import LRUEvictor
from .free_pool import FreePool
from .layer_policy import GroupSpec, LayerTypePolicy
from .lcm_allocator import LCMAllocator
from .pages import PageState, PhysicalExtent, SmallPage
from .prefix_cache import CachedBlockIndex

__all__ = ["GroupAllocator", "TwoLevelAllocator", "AllocatorStats"]


@dataclass
class AllocatorStats:
    """Point-in-time memory accounting (consumed by Figure 16's benchmark).

    All byte figures refer to the KV-cache region only.
    """

    total_bytes: int
    free_bytes: int
    used_bytes_by_group: Dict[str, int]
    evictable_bytes_by_group: Dict[str, int]
    internal_frag_bytes: int
    partial_fill_bytes: int
    slack_bytes: int

    @property
    def used_bytes(self) -> int:
        return sum(self.used_bytes_by_group.values())

    @property
    def evictable_bytes(self) -> int:
        return sum(self.evictable_bytes_by_group.values())

    @property
    def waste_bytes(self) -> int:
        """Allocated bytes storing nothing useful right now."""
        return self.internal_frag_bytes + self.partial_fill_bytes + self.slack_bytes


class GroupAllocator:
    """Small-page allocator customized for one layer-type group."""

    def __init__(self, spec: GroupSpec, policy: LayerTypePolicy, small_per_large: int) -> None:
        self.spec = spec
        self.policy = policy
        self.small_per_large = small_per_large
        self.pages: Dict[int, SmallPage] = {}
        self._next_page_id = 0
        # EMPTY pages carved into this group, indexed by request
        # association and by owning large page (O(1) push/pop/purge).
        self.free_pool = FreePool()
        self.evictor: LRUEvictor[int] = LRUEvictor()
        self.cache_index = CachedBlockIndex()
        # Pages evicted cumulatively (for benchmark introspection).
        self.num_evictions = 0
        # Running state counters so stats() is O(groups), not O(pages).
        self.n_used = 0
        self.n_evictable = 0
        self.n_empty_carved = 0
        # Sum of num_tokens over USED pages (for partial-fill accounting);
        # maintained by the KV manager through note_fill().
        self.used_filled_tokens = 0
        # Soft cap on large pages this group may *own* (None = unlimited).
        # Enforced at carve time (steps 2/3); ownership may exceed the
        # quota after a deflation until releases catch up.  Set through
        # TwoLevelAllocator.set_quota, which also runs the deflation
        # reclaim and publishes the QuotaResized record.
        self.quota: Optional[int] = None

    def note_fill(self, delta_tokens: int) -> None:
        """Record a change in filled token slots of USED pages."""
        self.used_filled_tokens += delta_tokens

    def note_eviction(self) -> None:
        """Record one small-page eviction (benchmark introspection)."""
        self.num_evictions += 1

    def bump_state(self, old: PageState, new: PageState) -> None:
        """Maintain the per-state running counters for one page transition.

        The counters (``n_used``/``n_evictable``/``n_empty_carved``) back
        the O(groups) :meth:`TwoLevelAllocator.stats` path, so every state
        transition must pass through here; they are owned by this class and
        mutated nowhere else (the ``guarded-counter`` lint rule enforces
        that).
        """
        for state, delta in ((old, -1), (new, +1)):
            if state is PageState.EMPTY:
                self.n_empty_carved += delta
            elif state is PageState.USED:
                self.n_used += delta
            else:
                self.n_evictable += delta

    # -- free-pool bookkeeping -----------------------------------------

    @property
    def num_free(self) -> int:
        """EMPTY pages currently pooled (the pool holds no stale ids)."""
        return len(self.free_pool)

    @property
    def free_buckets(self) -> int:
        """Per-request buckets in the free pool (bounded by ``num_free``)."""
        return self.free_pool.num_buckets

    def push_free(self, page: SmallPage) -> None:
        self.free_pool.push(page.page_id, page.request_id, page.large_page_id)

    def pop_free(self, request_id: Optional[str]) -> Optional[SmallPage]:
        """Pop an empty page associated with ``request_id`` (step 1)."""
        page_id = self.free_pool.pop(request_id)
        return None if page_id is None else self.pages[page_id]

    def pop_free_batch(self, request_id: Optional[str], n: int) -> List[SmallPage]:
        """Pop up to ``n`` request-associated empty pages in one call.

        The batched step-1 fast path of
        :meth:`TwoLevelAllocator.allocate_pages`: a long prefill drains its
        own free bucket here without re-entering the five-step dispatch per
        page.
        """
        popped: List[SmallPage] = []
        while len(popped) < n:
            page_id = self.free_pool.pop(request_id)
            if page_id is None:
                break
            popped.append(self.pages[page_id])
        return popped

    def pop_free_any(self) -> Optional[SmallPage]:
        """Pop any empty page regardless of association (step 4)."""
        page_id = self.free_pool.pop_any()
        return None if page_id is None else self.pages[page_id]

    def new_page(self, large_page_id: int, slot: int, request_id: Optional[str]) -> SmallPage:
        page = SmallPage(
            page_id=self._next_page_id,
            group_id=self.spec.group_id,
            large_page_id=large_page_id,
            slot=slot,
            request_id=request_id,
        )
        self._next_page_id += 1
        self.pages[page.page_id] = page
        self.n_empty_carved += 1
        return page

    def destroy_page(self, page: SmallPage) -> None:
        """Forget a page whose large page returns to the LCM pool."""
        if self.pages.pop(page.page_id, None) is not None:
            self.n_empty_carved -= 1


class TwoLevelAllocator:
    """LCM allocator + group allocators + prefix-subset evictor."""

    def __init__(
        self,
        total_bytes: int,
        specs: Dict[str, GroupSpec],
        policies: Dict[str, LayerTypePolicy],
        strategy: str = "lcm",
        enable_prefix_caching: bool = True,
        request_aware: bool = True,
        events: Optional[EventBus] = None,
    ) -> None:
        if set(specs) != set(policies):
            raise ValueError("specs and policies must cover the same groups")
        self.enable_prefix_caching = enable_prefix_caching
        # Section 4.3 ablation: with request_aware=False, allocation takes
        # any empty small page first (the naive interleaving of Figure 8a)
        # instead of preferring the request's own large pages.
        self.request_aware = request_aware
        self.lcm = LCMAllocator(
            total_bytes, {g: s.page_bytes for g, s in specs.items()}, strategy=strategy
        )
        self.groups: Dict[str, GroupAllocator] = {
            g: GroupAllocator(specs[g], policies[g], self.lcm.small_pages_per_large(g))
            for g in specs
        }
        # Per-large-page state counts: [empty, used, evictable].
        self._large_counts: Dict[int, List[int]] = {}
        self.large_evictor: LRUEvictor[int] = LRUEvictor()
        # Members of large_evictor per owning group, maintained alongside
        # every add/remove so capacity probes never scan the evictor.
        self._num_fully_evictable: Dict[str, int] = {g: 0 for g in specs}
        # Large pages currently owned (carved) per group; the O(1) counter
        # the soft-quota carve gate and admission headroom read.  Moves
        # only in _carve_and_take / _return_large_page.
        self._num_large_owned: Dict[str, int] = {g: 0 for g in specs}
        self.num_large_evictions = 0
        # Monotone pool-state version: moves whenever a small page changes
        # state (_bump), a large page goes back to the LCM pool
        # (_return_large_page -- the bulk-eviction path resets its pages
        # without _bump) or a quota changes (set_quota).  A carve needs no
        # site of its own: the page it hands out is activated through
        # _bump.  Equal versions mean num_free, the evictors' sizes, the
        # fully-evictable and owned counts, lcm.num_free and every quota
        # are unchanged, so an admission verdict taken at one holds at the
        # other.
        self.version = 0
        # Optional hook fired when a *cached* (hashed) page is reclaimed:
        # (group_id, block_hash, page_bytes).  The KV manager uses it to
        # spill evicted blocks to a host-memory offload tier (Section 8).
        self.eviction_listener: Optional[Callable[[str, int, int], None]] = None
        # Event bus receiving PagesAllocated/LargePageCarved/PageEvicted/
        # PageReleased records; None keeps emission free for direct
        # constructions (property tests, micro-benchmarks).
        self.events = events

    # ------------------------------------------------------------------
    # The five-step allocation algorithm
    # ------------------------------------------------------------------

    def allocate_page(self, group_id: str, request_id: str) -> Optional[SmallPage]:
        """Allocate one small page: ``allocate_pages(..., 1)`` unwrapped.

        Returns ``None`` when every step fails (all memory pinned by running
        requests); the caller must preempt.
        """
        pages = self.allocate_pages(group_id, request_id, 1)
        return pages[0] if pages else None

    def allocate_pages(
        self, group_id: str, request_id: str, n: int
    ) -> Optional[List[SmallPage]]:
        """Allocate ``n`` small pages of ``group_id`` in one batched call.

        All-or-nothing: on success returns the ``n`` activated pages (in
        allocation order) and publishes exactly one
        :class:`~repro.core.events.PagesAllocated` record for the whole
        batch; when any page cannot be found the pages taken so far are
        released back and ``None`` is returned.
        ``n <= 0`` is a no-op returning an empty list.

        Request-associated empty pages (step 1) are drained via one
        :meth:`GroupAllocator.pop_free_batch` call before the per-page
        five-step dispatch takes over for the remainder.
        """
        group = self.groups[group_id]
        taken: List[SmallPage] = []
        steps: List[int] = []
        if n > 0 and self.request_aware:
            for page in group.pop_free_batch(request_id, n):
                taken.append(self._activate(group, page, request_id))
                steps.append(1)
        while len(taken) < n:
            result = self._allocate_one(group, request_id)
            if result is None:
                for page in reversed(taken):
                    self.release_page(group_id, page.page_id, cacheable=False)
                return None
            taken.append(result[0])
            steps.append(result[1])
        if taken and self.events is not None and self.events.has_subscribers(
            PagesAllocated
        ):
            self.events.emit(PagesAllocated(
                group_id,
                request_id,
                tuple(page.page_id for page in taken),
                tuple(steps),
            ))
        return taken

    def _allocate_one(
        self, group: GroupAllocator, request_id: str
    ) -> Optional[Tuple[SmallPage, int]]:
        """Run the five-step algorithm once; returns (page, step).

        Emission of the allocation record is left to the caller so the
        batched path can publish one event per call instead of per page
        (eviction and carve records still fire here -- they are pool
        mutations in their own right).
        """
        if not self.request_aware:
            # Ablation mode (§4.3): naive first-fit over any empty small
            # page, tagged step=0 so event analytics never conflate it
            # with a genuine step-4 fallback.  When it misses, the pool
            # holds no empty page at all, so step 1 is skipped (it could
            # only re-probe the pool this just proved empty).
            page = group.pop_free_any()
            if page is not None:
                return self._activate(group, page, request_id), 0
        else:
            # Step 1: request-associated empty small page.
            page = group.pop_free(request_id)
            if page is not None:
                return self._activate(group, page, request_id), 1

        # Steps 2/3 grow the group's large-page ownership, so both sit
        # behind the soft-quota gate.  A group at quota still reaches its
        # own memory through steps 1/4/5 (empty and evictable small pages,
        # including those inside its own fully-evictable large pages).
        under_quota = (
            group.quota is None
            or self._num_large_owned[group.spec.group_id] < group.quota
        )

        # Step 2: carve a fresh large page.
        if under_quota and self.lcm.has_free():
            page = self._carve_and_take(group, request_id)
            return self._activate(group, page, request_id), 2

        # Step 3: evict a fully-evictable large page (any group's).
        if under_quota and len(self.large_evictor):
            victim_id, last_access, prefix_length = self.large_evictor.evict_with_key()
            victim_group = self.lcm.page(victim_id).owner_group
            assert victim_group is not None
            self._num_fully_evictable[victim_group] -= 1
            self._evict_large_page(victim_id)
            self.num_large_evictions += 1
            if self.events is not None and self.events.has_subscribers(PageEvicted):
                self.events.emit(PageEvicted(
                    victim_group, victim_id, "large", last_access, prefix_length
                ))
            page = self._carve_and_take(group, request_id)
            return self._activate(group, page, request_id), 3

        # Step 4: any empty small page of this group.
        page = group.pop_free_any()
        if page is not None:
            return self._activate(group, page, request_id), 4

        # Step 5: evict an evictable small page of this group.
        if len(group.evictor):
            victim_id, last_access, prefix_length = group.evictor.evict_with_key()
            victim = group.pages[victim_id]
            self._reclaim_evictable(group, victim)
            group.note_eviction()
            if self.events is not None and self.events.has_subscribers(PageEvicted):
                self.events.emit(PageEvicted(
                    group.spec.group_id, victim_id, "small", last_access,
                    prefix_length
                ))
            return self._activate(group, victim, request_id), 5

        return None

    def _carve_and_take(self, group: GroupAllocator, request_id: str) -> SmallPage:
        large = self.lcm.allocate(group.spec.group_id)
        if self.events is not None and self.events.has_subscribers(LargePageCarved):
            self.events.emit(LargePageCarved(
                group.spec.group_id, large.page_id, group.small_per_large
            ))
        self._large_counts[large.page_id] = [group.small_per_large, 0, 0]
        self._num_large_owned[group.spec.group_id] += 1
        first: Optional[SmallPage] = None
        for slot in range(group.small_per_large):
            page = group.new_page(large.page_id, slot, request_id)
            large.small_page_ids.append(page.page_id)
            if slot == 0:
                first = page
            else:
                group.push_free(page)
        assert first is not None
        return first

    def _activate(self, group: GroupAllocator, page: SmallPage, request_id: str) -> SmallPage:
        """Transition an EMPTY page to USED for ``request_id``."""
        assert page.is_empty, f"activating non-empty page {page.page_id}"
        self._bump(page, PageState.EMPTY, PageState.USED)
        page.state = PageState.USED
        page.request_id = request_id
        page.ref_count = 1
        page.block_hash = None
        page.num_tokens = 0
        page.prefix_length = 0.0
        return page

    # ------------------------------------------------------------------
    # Release / prefix-cache transitions
    # ------------------------------------------------------------------

    def release_page(self, group_id: str, page_id: int, cacheable: bool = True) -> None:
        """Drop one reference; the last reference frees or caches the page."""
        group = self.groups[group_id]
        page = group.pages[page_id]
        if not page.is_used or page.ref_count <= 0:
            raise ValueError(
                f"releasing page {page_id} of group {group_id} in state {page.state}"
            )
        page.ref_count -= 1
        if page.ref_count > 0:
            return
        cached = cacheable and self.enable_prefix_caching and page.block_hash is not None
        if cached:
            group.note_fill(-page.num_tokens)
            self._bump(page, PageState.USED, PageState.EVICTABLE)
            page.state = PageState.EVICTABLE
            group.evictor.add(page.page_id, page.last_access, page.prefix_length)
        else:
            self._free_page(group, page)
        if self.events is not None and self.events.has_subscribers(PageReleased):
            self.events.emit(PageReleased(group_id, page_id, cached))

    def acquire_cached(
        self, group_id: str, block_hash: int, request_id: str
    ) -> Optional[SmallPage]:
        """Take a reference on the cached block ``block_hash`` (cache hit)."""
        group = self.groups[group_id]
        page_id = group.cache_index.lookup(block_hash)
        if page_id is None:
            return None
        page = group.pages.get(page_id)
        if page is None or page.block_hash != block_hash:
            # Stale index entry (page was reclaimed); treat as miss.
            group.cache_index.remove(block_hash, page_id)
            return None
        if page.is_evictable:
            group.evictor.remove(page.page_id)
            self._bump(page, PageState.EVICTABLE, PageState.USED)
            page.state = PageState.USED
            group.note_fill(page.num_tokens)
        page.ref_count += 1
        page.request_id = request_id
        return page

    def register_block_hash(self, group_id: str, page: SmallPage, block_hash: int) -> None:
        """Publish a completed block into the group's cache index."""
        if not self.enable_prefix_caching:
            return
        group = self.groups[group_id]
        page.block_hash = block_hash
        displaced = group.cache_index.insert(block_hash, page.page_id)
        if displaced is not None:
            old = group.pages.get(displaced)
            if old is not None and old.block_hash == block_hash:
                old.block_hash = None
                if old.is_evictable:
                    old_page_id = old.page_id
                    group.evictor.discard(old_page_id)
                    self._free_page(group, old)
                    # The displaced copy freed outright without passing
                    # through release_page: observers still see a release.
                    if self.events is not None and self.events.has_subscribers(PageReleased):
                        self.events.emit(PageReleased(group_id, old_page_id, False))

    def touch_evictable(self, group_id: str, page: SmallPage) -> None:
        """Re-key an evictable page after its eviction metadata changed."""
        group = self.groups[group_id]
        if page.is_evictable and page.page_id in group.evictor:
            group.evictor.add(page.page_id, page.last_access, page.prefix_length)
            large_id = page.large_page_id
            if large_id is None or large_id not in self.large_evictor:
                return
            # Incremental re-key of the fully-evictable large page: its
            # priority is the component-wise max over its small pages.  If
            # the touched page now dominates the recorded max, it *is* the
            # new max; only when it does not (it may have been the holder
            # and shrunk) do we fall back to the full scan.
            cur = self.large_evictor.priority_of(large_id)
            key = (page.last_access, page.prefix_length)
            if key[0] >= cur[0] and key[1] >= cur[1]:
                if key != cur:
                    self._large_evictor_add(large_id, *key)
            else:
                self._large_evictor_add(large_id, *self._large_key_scan(large_id))

    # ------------------------------------------------------------------
    # Internal state machinery
    # ------------------------------------------------------------------

    def _free_page(self, group: GroupAllocator, page: SmallPage) -> None:
        """EVICTABLE/USED(ref 0) -> EMPTY, returning empty large pages."""
        if page.block_hash is not None:
            group.cache_index.remove(page.block_hash, page.page_id)
        old_state = page.state
        if old_state is PageState.USED:
            group.note_fill(-page.num_tokens)
        request_id = page.request_id
        page.reset()
        page.request_id = request_id  # keep the association for step 1
        self._bump(page, old_state, PageState.EMPTY)
        large_id = page.large_page_id
        if large_id is not None:
            counts = self._large_counts.get(large_id)
            if counts is not None and counts[0] == self._total_slots(large_id):
                self._return_large_page(large_id)
                return
        group.push_free(page)

    def _reclaim_evictable(self, group: GroupAllocator, page: SmallPage) -> None:
        """Strip cached content from an evicted page, leaving it EMPTY."""
        assert page.is_evictable
        if page.block_hash is not None:
            if self.eviction_listener is not None:
                self.eviction_listener(
                    group.spec.group_id, page.block_hash, group.spec.page_bytes
                )
            group.cache_index.remove(page.block_hash, page.page_id)
        request_id = page.request_id
        page.reset()
        page.request_id = request_id
        self._bump(page, PageState.EVICTABLE, PageState.EMPTY)
        # Not pushed to the free pool: the caller activates it immediately.

    def _evict_large_page(self, large_id: int) -> None:
        """Evict every (evictable) small page of ``large_id`` and free it."""
        large = self.lcm.page(large_id)
        assert large.owner_group is not None
        group = self.groups[large.owner_group]
        for small_id in list(large.small_page_ids):
            page = group.pages.get(small_id)
            if page is None:
                continue
            if page.is_used:
                raise RuntimeError(
                    f"large page {large_id} evicted while small page {small_id} is USED"
                )
            if page.is_evictable:
                group.evictor.discard(page.page_id)
                if page.block_hash is not None:
                    if self.eviction_listener is not None:
                        self.eviction_listener(
                            group.spec.group_id, page.block_hash,
                            group.spec.page_bytes,
                        )
                    group.cache_index.remove(page.block_hash, page.page_id)
                group.note_eviction()
                group.bump_state(PageState.EVICTABLE, PageState.EMPTY)
            page.reset()
        self._return_large_page(large_id, already_reset=True)

    def _return_large_page(self, large_id: int, already_reset: bool = False) -> None:
        large = self.lcm.page(large_id)
        assert large.owner_group is not None
        group = self.groups[large.owner_group]
        for small_id in large.small_page_ids:
            page = group.pages.get(small_id)
            if page is None:
                continue
            if not already_reset and not page.is_empty:
                raise RuntimeError(
                    f"returning large page {large_id} with non-empty small page {small_id}"
                )
            group.destroy_page(page)
        # Drop this large page's (and only this large page's) pooled empty
        # pages -- O(members) through the per-large membership index, not
        # O(all free pages of the group).
        group.free_pool.purge_large(large_id)
        del self._large_counts[large_id]
        self._num_large_owned[large.owner_group] -= 1
        self.version += 1
        self._large_evictor_discard(large_id)
        self.lcm.free(large_id)

    def _total_slots(self, large_id: int) -> int:
        owner = self.lcm.owner_of(large_id)
        return self.groups[owner].small_per_large if owner else 0

    _STATE_IDX = {PageState.EMPTY: 0, PageState.USED: 1, PageState.EVICTABLE: 2}

    def _bump(self, page: SmallPage, old: PageState, new: PageState) -> None:
        """Maintain per-large-page and per-group state counters."""
        self.version += 1
        self.groups[page.group_id].bump_state(old, new)
        if page.large_page_id is None:
            return
        counts = self._large_counts.get(page.large_page_id)
        if counts is None:
            return
        counts[self._STATE_IDX[old]] -= 1
        counts[self._STATE_IDX[new]] += 1
        # Incremental large-evictor maintenance.  A large page is in the
        # evictor iff every small page is EVICTABLE, so only transitions
        # touching the EVICTABLE state can change membership:
        #   * leaving EVICTABLE breaks full evictability -> O(1) discard;
        #   * entering EVICTABLE inserts (with the O(small_per_large) key
        #     scan) only when this was the *last* page to turn, which
        #     needed small_per_large prior transitions -- amortized O(1).
        # EMPTY<->USED transitions imply the large page was not and is not
        # fully evictable, and cost nothing here.
        large_id = page.large_page_id
        if old is PageState.EVICTABLE:
            self._large_evictor_discard(large_id)
        elif new is PageState.EVICTABLE and counts[2] == self._total_slots(large_id):
            self._large_evictor_add(large_id, *self._large_key_scan(large_id))

    def _large_key_scan(self, large_id: int) -> Tuple[float, float]:
        """Eviction key of a fully-evictable large page: the component-wise
        max of ``(last_access, prefix_length)`` over its small pages."""
        large = self.lcm.page(large_id)
        assert large.owner_group is not None
        group = self.groups[large.owner_group]
        last = -1.0
        prefix = 0.0
        for small_id in large.small_page_ids:
            page = group.pages.get(small_id)
            if page is None:
                continue
            if page.last_access > last:
                last = page.last_access
            if page.prefix_length > prefix:
                prefix = page.prefix_length
        return last, prefix

    def _large_evictor_add(self, large_id: int, last_access: float, prefix: float) -> None:
        if large_id not in self.large_evictor:
            owner = self.lcm.page(large_id).owner_group
            assert owner is not None
            self._num_fully_evictable[owner] += 1
        self.large_evictor.add(large_id, last_access, prefix)

    def _large_evictor_discard(self, large_id: int) -> None:
        if self.large_evictor.discard(large_id):
            owner = self.lcm.page(large_id).owner_group
            assert owner is not None
            self._num_fully_evictable[owner] -= 1

    # ------------------------------------------------------------------
    # Capacity probes and accounting
    # ------------------------------------------------------------------

    def fully_evictable_large_pages(self, group_id: str) -> int:
        """Large-evictor members owned by ``group_id`` (O(1) counter)."""
        return self._num_fully_evictable[group_id]

    def large_pages_owned(self, group_id: str) -> int:
        """Large pages currently carved for ``group_id`` (O(1) counter)."""
        return self._num_large_owned[group_id]

    def quota_of(self, group_id: str) -> Optional[int]:
        """``group_id``'s soft large-page quota (``None`` = unlimited)."""
        return self.groups[group_id].quota

    def set_quota(self, group_id: str, quota: Optional[int]) -> int:
        """Set ``group_id``'s soft large-page quota; returns pages reclaimed.

        The elastic-repartitioning actuator (ROADMAP; eLLM in PAPERS.md).
        Inflating (or clearing, ``quota=None``) only moves the carve gate.
        Deflating below current ownership additionally reclaims the
        group's reclaimable large pages -- fully-evictable ones first in
        LRU order, then any owned large page holding no USED small page
        (coldest first) -- until ownership meets the new quota or nothing
        reclaimable remains.  Large pages pinned by USED small pages are
        never touched: the quota is *soft*, ownership may exceed it until
        releases catch up, and no new carves happen until it does.

        Moves :attr:`version` and publishes exactly one guarded
        :class:`QuotaResized` record per quota *change* (plus one
        :class:`PageEvicted` per reclaimed large page); setting the same
        quota again is a silent no-op.
        """
        if quota is not None and quota < 0:
            raise ValueError(f"negative quota {quota} for group {group_id}")
        group = self.groups[group_id]
        old = group.quota
        if old == quota:
            return 0
        group.quota = quota
        self.version += 1
        reclaimed = 0
        if quota is not None and self._num_large_owned[group_id] > quota:
            reclaimed = self._deflate_slow(group_id, quota)
        if self.events is not None and self.events.has_subscribers(QuotaResized):
            self.events.emit(QuotaResized(
                group_id, old, quota, self._num_large_owned[group_id], reclaimed
            ))
        return reclaimed

    def _deflate_slow(self, group_id: str, quota: int) -> int:
        """Reclaim ``group_id``'s large pages down toward ``quota``.

        Control-plane path (runs once per resize, not per allocation):
        scans the group's owned large pages -- documented O(owned), hence
        the ``slow`` audit suffix.  Two passes, both coldest-first on the
        (last_access, prefix_length) eviction key: fully-evictable large
        pages, then partially-empty ones with no USED small page.
        """
        group = self.groups[group_id]
        excess = self._num_large_owned[group_id] - quota
        reclaimed = 0
        for fully_evictable_only in (True, False):
            if reclaimed >= excess:
                break
            victims: List[Tuple[float, float, int]] = []
            for large in self.lcm.pages_owned_by(group_id):
                large_id = large.page_id
                if large_id in self.large_evictor:
                    if not fully_evictable_only:
                        continue  # pass 1 already took what it wanted
                    last, prefix = self.large_evictor.priority_of(large_id)
                elif fully_evictable_only:
                    continue
                else:
                    counts = self._large_counts.get(large_id)
                    if counts is None or counts[1] != 0:
                        continue  # pinned by a USED small page
                    last, prefix = self._large_key_scan(large_id)
                victims.append((last, prefix, large_id))
            victims.sort()
            for last, prefix, victim_id in victims:
                if reclaimed >= excess:
                    break
                self._evict_large_page(victim_id)
                self.num_large_evictions += 1
                reclaimed += 1
                if self.events is not None and self.events.has_subscribers(PageEvicted):
                    self.events.emit(PageEvicted(
                        group_id, victim_id, "large", last, prefix
                    ))
        return reclaimed

    def reclaimable_pages(self, group_id: str) -> int:
        """Upper bound on small pages of ``group_id`` obtainable right now.

        Counts the group's empty pages, empty large pages, fully-evictable
        large pages (all reusable by any group), and the group's own
        evictable pages.  Small pages sitting inside the group's *own*
        fully-evictable large pages appear both in ``len(group.evictor)``
        and in the large-evictor term, so that overlap is subtracted --
        without it the bound double-counts and admission can overshoot
        into admit-preempt thrash.  Used by the scheduler for admission
        control; the bound is optimistic only across *multiple* groups
        competing for the same large pages, which admission handles by
        re-checking per step.
        """
        group = self.groups[group_id]
        spl = group.small_per_large
        return (
            group.num_free
            + (self.lcm.num_free + len(self.large_evictor)) * spl
            + len(group.evictor)
            - self._num_fully_evictable[group_id] * spl
        )

    def stats(self) -> AllocatorStats:
        """O(#groups) point-in-time accounting from running counters."""
        used: Dict[str, int] = {}
        evictable: Dict[str, int] = {}
        frag = 0
        partial = 0
        for group_id, group in self.groups.items():
            page_bytes = group.spec.page_bytes
            used[group_id] = group.n_used * page_bytes
            evictable[group_id] = group.n_evictable * page_bytes
            frag += group.n_empty_carved * page_bytes
            if not group.policy.snapshot_blocks:
                filled = group.used_filled_tokens * group.spec.per_token_bytes
                partial += max(0, used[group_id] - filled)
        free_bytes = self.lcm.num_free * self.lcm.large_page_bytes
        return AllocatorStats(
            total_bytes=self.lcm.total_bytes,
            free_bytes=free_bytes,
            used_bytes_by_group=used,
            evictable_bytes_by_group=evictable,
            internal_frag_bytes=frag,
            partial_fill_bytes=partial,
            slack_bytes=self.lcm.slack_bytes,
        )

    def stats_slow(self) -> AllocatorStats:
        """Page-scan accounting; cross-validates :meth:`stats` in tests."""
        used: Dict[str, int] = {}
        evictable: Dict[str, int] = {}
        frag = 0
        partial = 0
        for group_id, group in self.groups.items():
            page_bytes = group.spec.page_bytes
            u = e = 0
            for page in group.pages.values():
                if page.is_used:
                    u += page_bytes
                    if not group.policy.snapshot_blocks:
                        filled = page.num_tokens * group.spec.per_token_bytes
                        partial += max(0, page_bytes - filled)
                elif page.is_evictable:
                    e += page_bytes
                else:
                    frag += page_bytes
            used[group_id] = u
            evictable[group_id] = e
        free_bytes = self.lcm.num_free * self.lcm.large_page_bytes
        return AllocatorStats(
            total_bytes=self.lcm.total_bytes,
            free_bytes=free_bytes,
            used_bytes_by_group=used,
            evictable_bytes_by_group=evictable,
            internal_frag_bytes=frag,
            partial_fill_bytes=partial,
            slack_bytes=self.lcm.slack_bytes,
        )

    def extent_of(self, group_id: str, page: SmallPage) -> PhysicalExtent:
        """Physical placement of a small page (page-layer partition, §4.2)."""
        assert page.large_page_id is not None
        base = self.lcm.extent_of(page.large_page_id)
        size = self.groups[group_id].spec.page_bytes
        return PhysicalExtent(base.start + page.slot * size, size)

    def check_no_physical_overlap(self) -> None:
        """Memory-safety check: no two live small pages share bytes.

        Section 4.2's page-layer partition promises every small page a
        contiguous, exclusive byte range inside its large page; kernels
        address memory through ``(start_ptr, page_size, page_id)`` with no
        further checks, so an overlap here would be silent corruption on
        real hardware.  O(pages log pages); used by the property tests.
        """
        extents: List[Tuple[int, int, str, int]] = []
        for group_id, group in self.groups.items():
            for page in group.pages.values():
                extent = self.extent_of(group_id, page)
                assert extent.end <= self.lcm.total_bytes, (
                    f"page {group_id}/{page.page_id} extends past the region"
                )
                extents.append((extent.start, extent.end, group_id, page.page_id))
        extents.sort()
        for (s1, e1, g1, p1), (s2, e2, g2, p2) in zip(extents, extents[1:]):
            assert e1 <= s2, (
                f"pages {g1}/{p1} [{s1},{e1}) and {g2}/{p2} [{s2},{e2}) overlap"
            )

    def check_invariants(self) -> None:
        """Assert internal consistency; used by property-based tests."""
        for group_id, group in self.groups.items():
            group.free_pool.check_consistent()
            n_empty = 0
            for page in group.pages.values():
                assert page.large_page_id is not None
                large = self.lcm.page(page.large_page_id)
                assert large.owner_group == group_id, (
                    f"page {page.page_id} of {group_id} sits in large page "
                    f"{large.page_id} owned by {large.owner_group}"
                )
                if page.is_evictable:
                    assert page.page_id in group.evictor
                    assert page.page_id not in group.free_pool
                if page.is_used:
                    assert page.ref_count > 0
                    assert page.page_id not in group.free_pool
                if page.is_empty:
                    n_empty += 1
                    assert page.page_id in group.free_pool, (
                        f"EMPTY page {group_id}/{page.page_id} missing from the free pool"
                    )
            # The pool holds exactly the EMPTY pages (no stale ids), so
            # num_free needs no separate running counter.
            assert group.num_free == n_empty, (group_id, group.num_free, n_empty)
        fully_by_group = {g: 0 for g in self.groups}
        owned_by_group = {g: 0 for g in self.groups}
        for large_id, counts in self._large_counts.items():
            total = self._total_slots(large_id)
            assert sum(counts) == total, (large_id, counts, total)
            large = self.lcm.page(large_id)
            assert large.owner_group is not None
            owned_by_group[large.owner_group] += 1
            group = self.groups[large.owner_group]
            actual = [0, 0, 0]
            for sid in large.small_page_ids:
                page = group.pages.get(sid)
                if page is None:
                    continue
                actual[{PageState.EMPTY: 0, PageState.USED: 1, PageState.EVICTABLE: 2}[page.state]] += 1
            assert actual == counts, (large_id, actual, counts)
            if counts[2] == total and total > 0:
                fully_by_group[large.owner_group] += 1
                assert large_id in self.large_evictor, (
                    f"fully-evictable large page {large_id} missing from the evictor"
                )
                assert self.large_evictor.priority_of(large_id) == self._large_key_scan(large_id)
            else:
                assert large_id not in self.large_evictor, (
                    f"large page {large_id} in the evictor but not fully evictable"
                )
        assert fully_by_group == self._num_fully_evictable, (
            fully_by_group, self._num_fully_evictable
        )
        assert owned_by_group == self._num_large_owned, (
            owned_by_group, self._num_large_owned
        )
