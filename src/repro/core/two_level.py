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

Pages move in runs.  Every page transition has one implementation, a run
form -- :meth:`TwoLevelAllocator.allocate_pages` (the five steps over a
whole write set), :meth:`~TwoLevelAllocator.release_pages` and
:meth:`~TwoLevelAllocator.acquire_cached_run` -- doing per page only what
differs per page (its fields, its evictor entry, its large page's counts)
and once per run the rest: the lookups, the ``version`` move, one
``bump_state(old, new, n)`` and ``note_fill``, the subscriber probe.  A run
is its pages taken one at a time, in order (same page, same step, same
victim); ``allocate_page``, ``release_page`` and ``acquire_cached`` are
delegates to the run of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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
from .pages import EMPTY, EVICTABLE, USED, LargePage, PageState, PhysicalExtent, SmallPage
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

    def note_eviction(self, n: int = 1) -> None:
        """Record ``n`` small-page evictions (benchmark introspection)."""
        self.num_evictions += n

    def bump_state(self, old: PageState, new: PageState, n: int = 1) -> None:
        """Maintain the per-state running counters for ``n`` pages going
        from ``old`` to ``new`` (one call per run, not per page).

        The counters (``n_used``/``n_evictable``/``n_empty_carved``) back
        the O(groups) :meth:`TwoLevelAllocator.stats` path, so every state
        transition must pass through here; they are owned by this class and
        mutated nowhere else (the ``guarded-counter`` lint rule enforces
        that).
        """
        for state, delta in ((old, -n), (new, n)):
            if state is EMPTY:
                self.n_empty_carved += delta
            elif state is USED:
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

    def new_pages(self, large: LargePage, request_id: Optional[str]) -> List[SmallPage]:
        """Carve ``large`` into ``small_per_large`` EMPTY pages, in slot
        order, associated with ``request_id``."""
        first = self._next_page_id
        group_id = self.spec.group_id
        large_id = large.page_id
        ids = large.small_page_ids = list(range(first, first + self.small_per_large))
        carved = [
            SmallPage(page_id, group_id, large_id, page_id - first, EMPTY, request_id)
            for page_id in ids
        ]
        self.pages.update(zip(ids, carved))
        self._next_page_id = first + len(ids)
        self.n_empty_carved += len(ids)
        return carved

    def destroy_pages(self, page_ids: List[int], evicted: int) -> List[SmallPage]:
        """Forget the pages of a large page returning to the LCM pool:
        ``evicted`` of them were still EVICTABLE, the rest EMPTY."""
        pop = self.pages.pop
        gone = [pop(page_id) for page_id in page_ids]
        self.num_evictions += evicted
        self.n_evictable -= evicted
        self.n_empty_carved -= len(gone) - evicted
        return gone


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
        # Per-large-page state counts: [empty, used, evictable], indexed
        # by PageState.
        self._large_counts: Dict[int, List[int]] = {}
        self.large_evictor: LRUEvictor[int] = LRUEvictor()
        # Members of large_evictor per owning group, maintained alongside
        # every add/remove so capacity probes never scan the evictor.
        self._num_fully_evictable: Dict[str, int] = {g: 0 for g in specs}
        # Large pages currently owned (carved) per group; the O(1) counter
        # the soft-quota carve gate and admission headroom read.  Moves
        # only in _carve / _return_large_page.
        self._num_large_owned: Dict[str, int] = {g: 0 for g in specs}
        self.num_large_evictions = 0
        # Monotone pool-state version: moves once per run that changes a
        # small page's state, whenever a large page goes back to the LCM
        # pool and whenever a quota changes (DESIGN.md lists the sites).
        # Equal versions mean num_free, the evictors' sizes, the
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
        """One small page, ``allocate_pages(..., 1)`` unwrapped: ``None`` when
        every step fails and the caller must preempt."""
        pages = self.allocate_pages(group_id, request_id, 1)
        return pages[0] if pages else None

    def allocate_pages(
        self, group_id: str, request_id: str, n: int
    ) -> Optional[List[SmallPage]]:
        """Allocate ``n`` small pages of ``group_id`` as one run.

        Each page comes from the first of the five steps that has one, so
        a run takes the pages, in the order, ``n`` runs of one would.
        All-or-nothing: on success returns the ``n`` USED pages (in
        allocation order) and publishes exactly one
        :class:`~repro.core.events.PagesAllocated` record; when a page
        cannot be found the pages taken so far are released back as one
        run (the evictions made for them stay made) and ``None`` is
        returned.  ``n <= 0`` is a no-op returning an empty list.

        Eviction and carve records still fire as they happen -- they are
        pool mutations in their own right.
        """
        group = self.groups[group_id]
        pages = group.pages
        pool = group.free_pool
        evictor = group.evictor
        lcm = self.lcm
        large_evictor = self.large_evictor
        events = self.events
        aware = self.request_aware
        taken: List[SmallPage] = []
        steps: List[int] = []
        reclaimed = 0
        while len(taken) < n:
            # Step 1: request-associated empty small page.  In ablation
            # mode (§4.3) naive first-fit over any empty page instead,
            # tagged step 0 so event analytics never conflate it with a
            # genuine step-4 fallback.
            page_id = pool.pop(request_id) if aware else pool.pop_any()
            if page_id is not None:
                taken.append(pages[page_id])
                steps.append(1 if aware else 0)
                continue
            # Steps 2/3 grow the group's large-page ownership, so both sit
            # behind the soft-quota gate.  A group at quota still reaches
            # its own memory through steps 1/4/5 (empty and evictable
            # small pages, including those inside its own fully-evictable
            # large pages).
            carve_step = 0
            if group.quota is None or self._num_large_owned[group_id] < group.quota:
                # Step 2: carve a fresh large page.  Step 3: first evict
                # the least-recently-used fully-evictable large page (any
                # group's) to have one.
                carve_step = 2 if lcm.has_free() else 3 if len(large_evictor) else 0
            if carve_step:
                if carve_step == 3:
                    victim_id, last_access, prefix = large_evictor.evict_with_key()
                    victim_group = lcm.owner_of(victim_id)
                    assert victim_group is not None
                    self._num_fully_evictable[victim_group] -= 1
                    self._evict_large_page(victim_id, victim_group, last_access, prefix)
                # Slot 0 is taken now; the rest wait in the request's
                # bucket, where step 1 finds them next.
                carved = self._carve(group, request_id)
                taken.append(carved[0])
                steps.append(carve_step)
                for page in carved[1:]:
                    group.push_free(page)
                continue
            # Step 4: any empty small page of this group.
            page_id = pool.pop_any()
            if page_id is not None:
                taken.append(pages[page_id])
                steps.append(4)
                continue
            # Step 5: evict an evictable small page of this group and
            # reuse it in place.
            if not len(evictor):
                break
            victim_id, last_access, prefix = evictor.evict_with_key()
            page = pages[victim_id]
            self._uncache(group, page)
            large_id = page.large_page_id
            assert large_id is not None
            counts = self._large_counts[large_id]
            if counts[2] == group.small_per_large:
                self._large_evictor_discard(large_id, group_id)
            counts[2] -= 1
            counts[0] += 1
            page.reset()
            reclaimed += 1
            if events is not None and events.has_subscribers(PageEvicted):
                events.emit(PageEvicted(group_id, victim_id, "small", last_access, prefix))
            taken.append(page)
            steps.append(5)
        if taken:
            # EMPTY -> USED for the whole run at once.
            self.version += 1
            if reclaimed:
                group.note_eviction(reclaimed)
                group.bump_state(EVICTABLE, EMPTY, reclaimed)
            group.bump_state(EMPTY, USED, len(taken))
            large_counts = self._large_counts
            for page in taken:
                page.state = USED
                page.request_id = request_id
                page.ref_count = 1
                assert page.large_page_id is not None
                counts = large_counts[page.large_page_id]
                counts[0] -= 1
                counts[1] += 1
        if len(taken) < n:
            self.release_pages(group_id, [page.page_id for page in reversed(taken)], False)
            return None
        if taken and events is not None and events.has_subscribers(PagesAllocated):
            events.emit(PagesAllocated(
                group_id, request_id, tuple(page.page_id for page in taken), tuple(steps)
            ))
        return taken

    def _carve(self, group: GroupAllocator, request_id: str) -> List[SmallPage]:
        """Carve a free large page into ``group``'s small pages: all EMPTY,
        associated with ``request_id``, not yet pooled."""
        group_id = group.spec.group_id
        large = self.lcm.allocate(group_id)
        if self.events is not None and self.events.has_subscribers(LargePageCarved):
            self.events.emit(LargePageCarved(
                group_id, large.page_id, group.small_per_large
            ))
        carved = group.new_pages(large, request_id)
        self._large_counts[large.page_id] = [len(carved), 0, 0]
        self._num_large_owned[group_id] += 1
        return carved

    # ------------------------------------------------------------------
    # Release / prefix-cache transitions
    # ------------------------------------------------------------------

    def release_page(self, group_id: str, page_id: int, cacheable: bool = True) -> None:
        """Drop one reference: ``release_pages`` of a run of one."""
        self.release_pages(group_id, (page_id,), cacheable)

    def release_pages(
        self, group_id: str, page_ids: Iterable[int], cacheable: bool = True
    ) -> None:
        """Drop one reference on each of ``page_ids``, in order; a page's
        last reference caches it (hashed, ``cacheable``, prefix caching
        on) or frees it.

        Publishes one :class:`~repro.core.events.PageReleased` per page
        that dropped its last reference, in run order.  A page that is not
        USED raises ``ValueError``; the pages before it stay released.
        """
        group = self.groups[group_id]
        pages = group.pages
        evictor = group.evictor
        large_counts = self._large_counts
        spl = group.small_per_large
        cache = cacheable and self.enable_prefix_caching
        released: List[Tuple[int, bool]] = []  # (page id, cached)
        fill = n_cached = 0
        try:
            for page_id in page_ids:
                page = pages[page_id]
                if page.state is not USED or page.ref_count <= 0:
                    raise ValueError(
                        f"releasing page {page_id} of group {group_id} "
                        f"in state {page.state.name}"
                    )
                page.ref_count -= 1
                if page.ref_count:
                    continue
                fill += page.num_tokens
                cached = cache and page.block_hash is not None
                released.append((page_id, cached))
                if not cached:
                    self._empty_page(group, page)
                    continue
                n_cached += 1
                page.state = EVICTABLE
                evictor.add(page_id, page.last_access, page.prefix_length)
                large_id = page.large_page_id
                assert large_id is not None
                counts = large_counts[large_id]
                counts[1] -= 1
                counts[2] += 1
                if counts[2] == spl:
                    # The last page to turn makes the large page fully
                    # evictable: one key scan per large page.
                    self._num_fully_evictable[group_id] += 1
                    self.large_evictor.add(large_id, *self._large_key_scan(large_id))
        finally:
            if released:
                self.version += 1
                group.note_fill(-fill)
                group.bump_state(USED, EVICTABLE, n_cached)
                group.bump_state(USED, EMPTY, len(released) - n_cached)
                if self.events is not None and self.events.has_subscribers(PageReleased):
                    for page_id, cached in released:
                        self.events.emit(PageReleased(group_id, page_id, cached))

    def acquire_cached(
        self, group_id: str, block_hash: int, request_id: str
    ) -> Optional[SmallPage]:
        """Take a reference on one cached block: a run of one, unwrapped."""
        pages = self.acquire_cached_run(group_id, (block_hash,), request_id)
        return pages[0] if pages else None

    def acquire_cached_run(
        self, group_id: str, block_hashes: Iterable[int], request_id: str
    ) -> List[SmallPage]:
        """Take a reference on the cached block of each hash, in order
        (cache hits), stopping at the first miss or stale index entry.

        Returns the pages acquired so far -- as many as there are hashes
        when the whole run hit; the caller decides what a short run means.
        """
        group = self.groups[group_id]
        pages = group.pages
        index = group.cache_index
        evictor = group.evictor
        large_counts = self._large_counts
        spl = group.small_per_large
        acquired: List[SmallPage] = []
        revived = fill = 0
        for block_hash in block_hashes:
            page_id = index.lookup(block_hash)
            if page_id is None:
                break
            page = pages.get(page_id)
            if page is None or page.block_hash != block_hash:
                # Stale index entry (page was reclaimed); treat as miss.
                index.remove(block_hash, page_id)
                break
            if page.state is EVICTABLE:
                evictor.remove(page_id)
                page.state = USED
                revived += 1
                fill += page.num_tokens
                large_id = page.large_page_id
                assert large_id is not None
                counts = large_counts[large_id]
                if counts[2] == spl:
                    self._large_evictor_discard(large_id, group_id)
                counts[2] -= 1
                counts[1] += 1
            page.ref_count += 1
            page.request_id = request_id
            acquired.append(page)
        if revived:
            self.version += 1
            group.note_fill(fill)
            group.bump_state(EVICTABLE, USED, revived)
        return acquired

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
                    # The displaced copy frees outright without passing
                    # through release_pages: observers still see a release.
                    group.evictor.discard(displaced)
                    assert old.large_page_id is not None
                    self._large_evictor_discard(old.large_page_id, group_id)
                    self.version += 1
                    group.bump_state(EVICTABLE, EMPTY)
                    self._empty_page(group, old)
                    if self.events is not None and self.events.has_subscribers(PageReleased):
                        self.events.emit(PageReleased(group_id, displaced, False))

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
                    self.large_evictor.add(large_id, *key)
            else:
                self.large_evictor.add(large_id, *self._large_key_scan(large_id))

    # ------------------------------------------------------------------
    # Internal state machinery
    # ------------------------------------------------------------------

    def _uncache(self, group: GroupAllocator, page: SmallPage) -> None:
        """An evictable page is being reclaimed: tell the eviction
        listener about its cached block and drop the block from the index."""
        if page.block_hash is not None:
            if self.eviction_listener is not None:
                self.eviction_listener(
                    group.spec.group_id, page.block_hash, group.spec.page_bytes
                )
            group.cache_index.remove(page.block_hash, page.page_id)

    def _empty_page(self, group: GroupAllocator, page: SmallPage) -> None:
        """USED (ref 0) / EVICTABLE -> EMPTY: unindex, reset, then pool the
        page or return its now-empty large page.  Group counters, evictor
        membership and the version move are the caller's, once per run."""
        if page.block_hash is not None:
            group.cache_index.remove(page.block_hash, page.page_id)
        large_id = page.large_page_id
        assert large_id is not None
        counts = self._large_counts[large_id]
        counts[page.state] -= 1
        counts[0] += 1
        request_id = page.request_id
        page.reset()
        page.request_id = request_id  # keep the association for step 1
        if counts[0] == group.small_per_large:
            self._return_large_page(large_id)
        else:
            group.push_free(page)

    def _evict_large_page(
        self, large_id: int, owner: str, last_access: float, prefix: float
    ) -> None:
        """Return ``owner``'s large page as an eviction: counted and
        published with the priority it held (step 3, quota deflation)."""
        self._return_large_page(large_id)
        self.num_large_evictions += 1
        if self.events is not None and self.events.has_subscribers(PageEvicted):
            self.events.emit(PageEvicted(owner, large_id, "large", last_access, prefix))

    def _return_large_page(self, large_id: int) -> None:
        """Give ``large_id`` back to the LCM pool, evicting in the same walk
        whatever cached small pages it still holds.

        No small page may be USED, and the caller has already taken the
        large page out of ``large_evictor``.
        """
        large = self.lcm.page(large_id)
        owner = large.owner_group
        assert owner is not None
        group = self.groups[owner]
        counts = self._large_counts[large_id]
        if counts[1]:
            raise RuntimeError(
                f"large page {large_id} returned while {counts[1]} small pages are USED"
            )
        del self._large_counts[large_id]
        for page in group.destroy_pages(large.small_page_ids, counts[2]):
            if page.state is EVICTABLE:
                group.evictor.discard(page.page_id)
                self._uncache(group, page)
                page.reset()
        # Drop this large page's (and only this large page's) pooled empty
        # pages -- O(members) through the per-large membership index, not
        # O(all free pages of the group).
        group.free_pool.purge_large(large_id)
        self._num_large_owned[owner] -= 1
        self.version += 1
        self.lcm.free(large_id)

    def _large_key_scan(self, large_id: int) -> Tuple[float, float]:
        """Eviction key of a fully-evictable large page: the component-wise
        max of ``(last_access, prefix_length)`` over its small pages."""
        large = self.lcm.page(large_id)
        assert large.owner_group is not None
        pages = self.groups[large.owner_group].pages
        last = -1.0
        prefix = 0.0
        for small_id in large.small_page_ids:
            page = pages[small_id]
            if page.last_access > last:
                last = page.last_access
            if page.prefix_length > prefix:
                prefix = page.prefix_length
        return last, prefix

    def _large_evictor_discard(self, large_id: int, owner: str) -> None:
        """``owner``'s large page stops being fully evictable (if it was)."""
        if self.large_evictor.discard(large_id):
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
                self._large_evictor_discard(victim_id, group_id)
                self._evict_large_page(victim_id, group_id, last, prefix)
                reclaimed += 1
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
        return self._stats_of(used, evictable, frag, partial)

    def _stats_of(
        self, used: Dict[str, int], evictable: Dict[str, int], frag: int, partial: int
    ) -> AllocatorStats:
        return AllocatorStats(
            total_bytes=self.lcm.total_bytes,
            free_bytes=self.lcm.num_free * self.lcm.large_page_bytes,
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
        return self._stats_of(used, evictable, frag, partial)

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
            large = self.lcm.page(large_id)
            assert large.owner_group is not None
            owned_by_group[large.owner_group] += 1
            group = self.groups[large.owner_group]
            total = group.small_per_large
            assert sum(counts) == total, (large_id, counts, total)
            actual = [0, 0, 0]
            for sid in large.small_page_ids:
                actual[group.pages[sid].state] += 1
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
