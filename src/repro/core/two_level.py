"""The two-level (LCM + customized) allocator with coordinated eviction.

This module implements the mechanism half of Jenga:

* :class:`GroupAllocator` -- one per layer-type group; carves large pages
  into that group's small pages, keeps per-request free pools
  (request-aware allocation, Section 4.3), a per-group LRU evictor, and the
  group's cached-block index.  A small page is a slot: its fields are
  entries of the group's flat lists, indexed by page id and built once for
  the whole pool, so a carve or a return makes and drops no object.
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

Each step serves a run of pages: it gives pages until the allocation is
whole or it has none left, and no later step hands an earlier one a page
back (step 1's bucket is refilled only by the spare slots of a carve the
allocation ends in; steps 4 and 5 pool nothing and free no large page).
So an allocation takes step 1, then steps 2/3 (``ceil(rest / spl)``
carves, fresh large pages first), then step 4, then step 5, each once.
Step 3 runs only while the LCM pool is empty, so it recycles its victim
in place: the victim's group uncarves it and the allocating group carves
it, without a trip through the LCM pool's free list.

If all five steps fail the pool is genuinely full of used pages and the
caller (the KV manager / scheduler) must preempt a request.  Allocation
is check, then commit: :meth:`TwoLevelAllocator.groups_that_fit` counts,
without touching a page, how much of a request's demand the five steps
would serve, and a run it refuses mutates nothing.

Pages move in runs.  Every page transition has one implementation, a run
form -- :meth:`TwoLevelAllocator.allocate_pages` (the five steps over a
whole write set), :meth:`~TwoLevelAllocator.release_pages` and
:meth:`~TwoLevelAllocator.acquire_cached_run` -- doing per page only what
differs per page (its fields, its evictor entry, its large page's counts)
and once per run the rest: the lookups, the ``version`` move, one
``bump_state(old, new, n)`` and ``note_fill``.  A run is its pages taken
one at a time, in order (same page, same step, same victim), and takes or
returns page ids; ``allocate_page``, ``release_page`` and
``acquire_cached`` are delegates to the run of one.

The pool reports nothing.  What the five steps did is kept as plain
totals (:attr:`TwoLevelAllocator.step_pages` and the victim and release
counts beside it), which :class:`~repro.obs.registry.BusTelemetry` reads
once per engine step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .evictor import LRUEvictor
from .free_pool import FreePool
from .layer_policy import GroupSpec, LayerTypePolicy
from .lcm_allocator import LCMAllocator
from .pages import EMPTY, EVICTABLE, USED, PageState, PhysicalExtent
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
    """Small-page allocator customized for one layer-type group.

    A small page is a slot (see :meth:`slots`), and its fields are entries
    of flat lists indexed by page id, one entry per slot of every large
    page in the pool, built once.  ``state`` is ``None`` while the group
    does not own the slot's large page.  A slot that is neither USED nor
    EVICTABLE has ``ref_count`` 0, no ``block_hash``, ``num_tokens`` 0 and
    the unstamped eviction key ``(-1.0, 0.0)``; an EMPTY one keeps its
    ``request_id`` for step 1.
    """

    def __init__(
        self, spec: GroupSpec, policy: LayerTypePolicy, small_per_large: int, num_large: int
    ) -> None:
        self.spec = spec
        self.policy = policy
        self.small_per_large = small_per_large
        size = num_large * small_per_large
        self.state: List[Optional[PageState]] = [None] * size
        # Request-aware association (Section 4.3): the request the page was
        # last carved or allocated for; step 1 re-uses it for that request
        # first, so a finishing request frees whole large pages.
        self.request_id: List[Optional[str]] = [None] * size
        # Running requests referencing the page (shared prefixes exceed 1).
        self.ref_count = [0] * size
        # Eviction key (Section 5.1), stamped by the KV manager: the latest
        # access, then the aligned tiebreak -- among equal stamps the
        # largest prefix length evicts first.
        self.last_access = [-1.0] * size
        self.prefix_length = [0.0] * size
        # Content hash of the completed, prefix-cacheable block the page
        # holds; None otherwise.
        self.block_hash: List[Optional[int]] = [None] * size
        # Token slots filled (at most tokens_per_page).
        self.num_tokens = [0] * size
        # Times each large page was carved into this group.  Ids are reused
        # after a re-carve, so (page id, carve) names one carve's page.
        self.carve = [0] * num_large
        # EMPTY pages carved into this group, indexed by request
        # association (O(1) push/pop/discard).
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
        mutated nowhere else (``tests/test_invariants.py`` enforces
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

    def slots(self, large_id: int) -> range:
        """Ids of the small pages large page ``large_id`` holds, in slot
        order, while this group owns it."""
        first = large_id * self.small_per_large
        return range(first, first + self.small_per_large)

    def new_pages(self, large_id: int, request_id: Optional[str]) -> range:
        """Carve large page ``large_id`` into ``small_per_large`` EMPTY
        pages, in slot order, associated with ``request_id``."""
        n = self.small_per_large
        first = large_id * n
        self.state[first:first + n] = [EMPTY] * n
        self.request_id[first:first + n] = [request_id] * n
        self.carve[large_id] += 1
        self.n_empty_carved += n
        return range(first, first + n)

    def destroy_pages(self, large_id: int) -> None:
        """Uncarve large page ``large_id``, none of whose pages is USED:
        evict and clear (see :meth:`clear`) the EVICTABLE ones, unpool the
        EMPTY ones."""
        n = self.small_per_large
        first = large_id * n
        state = self.state
        hashes = self.block_hash
        evicted = 0
        for page_id in range(first, first + n):
            if state[page_id] is EVICTABLE:
                evicted += 1
                self.evictor.discard(page_id)
                block_hash = hashes[page_id]
                if block_hash is not None:
                    self.cache_index.remove(block_hash, page_id)
                    hashes[page_id] = None
                self.num_tokens[page_id] = 0
                self.last_access[page_id] = -1.0
                self.prefix_length[page_id] = 0.0
            else:
                # Pooled unless it is the page whose emptying returns it.
                self.free_pool.discard(page_id)
            state[page_id] = None
        self.num_evictions += evicted
        self.n_evictable -= evicted
        self.n_empty_carved -= n - evicted

    def clear(self, page_id: int) -> None:
        """A page is emptying: drop its block from the cache index and
        reset its hash, fill count and eviction key."""
        block_hash = self.block_hash[page_id]
        if block_hash is not None:
            self.cache_index.remove(block_hash, page_id)
            self.block_hash[page_id] = None
        self.num_tokens[page_id] = 0
        self.last_access[page_id] = -1.0
        self.prefix_length[page_id] = 0.0


class TwoLevelAllocator:
    """LCM allocator + group allocators + prefix-subset evictor."""

    def __init__(
        self,
        total_bytes: int,
        specs: Dict[str, GroupSpec],
        policies: Dict[str, LayerTypePolicy],
        enable_prefix_caching: bool = True,
        request_aware: bool = True,
    ) -> None:
        if set(specs) != set(policies):
            raise ValueError("specs and policies must cover the same groups")
        self.enable_prefix_caching = enable_prefix_caching
        # Section 4.3 ablation: with request_aware=False, allocation takes
        # any empty small page first (the naive interleaving of Figure 8a)
        # instead of preferring the request's own large pages.
        self.request_aware = request_aware
        self.lcm = LCMAllocator(total_bytes, {g: s.page_bytes for g, s in specs.items()})
        self.groups: Dict[str, GroupAllocator] = {
            g: GroupAllocator(
                specs[g], policies[g], self.lcm.small_pages_per_large(g), self.lcm.num_pages
            )
            for g in specs
        }
        # Per-large-page state counts: [empty, used, evictable], indexed
        # by PageState.
        self._large_counts: Dict[int, List[int]] = {}
        self.large_evictor: LRUEvictor[int] = LRUEvictor()
        # Members of large_evictor per owning group, maintained alongside
        # every add/remove so capacity probes never scan the evictor.
        self._num_fully_evictable: Dict[str, int] = {g: 0 for g in specs}
        self.num_large_evictions = 0
        # Monotone pool-state version: moves once per run that changes a
        # small page's state and whenever a large page goes back to the LCM
        # pool (DESIGN.md lists the sites).  Equal versions mean the free
        # pools, the evictors' contents, the fully-evictable counts and
        # lcm.num_free are unchanged -- a re-key only reorders an evictor,
        # which no capacity count reads -- so an admission verdict taken at
        # one holds at the other.
        self.version = 0
        # What the five steps did, as totals (read by the telemetry; the
        # pool reports nothing): pages each §5.4 step served (index 0 is
        # the ablation's first fit), step-3/5 victims per owning group,
        # victims that held a non-zero prefix length (§5.1's aligned
        # tiebreak), and last references dropped into the cache or freed.
        self.step_pages = [0] * 6
        self.victims: Dict[str, int] = dict.fromkeys(specs, 0)
        self.aligned_victims = 0
        self.cached_releases = 0
        self.freed_releases = 0

    # ------------------------------------------------------------------
    # The five-step allocation algorithm
    # ------------------------------------------------------------------

    def allocate_page(self, group_id: str, request_id: str) -> Optional[int]:
        """One small page, ``allocate_pages(..., 1)`` unwrapped: ``None`` when
        every step fails and the caller must preempt.

        Nothing in the package calls it; it stays because tests drive the
        allocator page by page and the benchmark harness
        (``benchmarks/e2e``) proxies it as ``core.two_level.allocate_page``.
        """
        pages = self.allocate_pages(group_id, request_id, 1)
        return pages[0] if pages else None

    def allocate_pages(
        self, group_id: str, request_id: str, n: int
    ) -> Optional[List[int]]:
        """Allocate ``n`` small pages of ``group_id`` as one run.

        Each page comes from the first of the five steps that has one, so
        a run takes the pages, in the order, ``n`` runs of one would.
        Check, then commit: a run :meth:`groups_that_fit` refuses returns
        ``None`` and mutates nothing (no carve, eviction or count);
        otherwise returns the ids of the ``n`` USED pages (in allocation
        order) and adds each page to the :attr:`step_pages` of the step
        that served it.  ``n <= 0`` is a no-op returning an empty list.
        """
        if not self.groups_that_fit(((group_id, n),), request_id):
            return None
        if n <= 0:
            return []
        group = self.groups[group_id]
        spl = group.small_per_large
        state = group.state
        pool = group.free_pool
        large_counts = self._large_counts
        step_pages = self.step_pages
        aware = self.request_aware
        # Each step serves pages until the run is whole or the step has
        # none left, and no later step gives an earlier one a page back
        # (see the module docstring), so the steps run once each, in order.
        # Step 1: the request's empty small pages.  In ablation mode
        # (§4.3) it is naive first-fit over any empty page instead,
        # counted as step 0 so it never reads as a genuine step-4 fallback.
        first_fit = 1 if aware else 0
        taken: List[int] = []
        for _ in range(min(n, self._step_one_pages(group, request_id))):
            page_id = pool.pop(request_id) if aware else pool.pop_any()
            assert page_id is not None
            taken.append(page_id)
        step_pages[first_fit] += len(taken)
        carves = -(-(n - len(taken)) // spl)
        if carves:
            # Step 2: carve fresh large pages.  Step 3: then evict the
            # least-recently-used fully-evictable large pages (any
            # group's) and carve each one in place.
            lcm = self.lcm
            fresh = min(carves, lcm.num_free)
            large_ids = lcm.take(group_id, fresh) if fresh else []
            if carves > fresh:
                large_ids += self._evict_large_pages(group_id, carves - fresh)
            step_pages[2] += fresh
            step_pages[3] += len(large_ids) - fresh
            for large_id in large_ids:
                carved = group.new_pages(large_id, request_id)
                large_counts[large_id] = [spl, 0, 0]
                taken.append(carved[0])
                if spl > 1:
                    # The other slots would go to the request's bucket
                    # (step 1 just emptied it; in the ablation, the whole
                    # pool) and step 1 would pop them last slot first: the
                    # run takes the ones it still needs straight, in that
                    # order, and pools the others -- only in its last carve.
                    more = min(n - len(taken), spl - 1)
                    split = spl - more
                    taken.extend(reversed(carved[split:]))
                    step_pages[first_fit] += more
                    for page_id in carved[1:split]:
                        pool.push(page_id, request_id)
        # Step 4: any empty small page of this group.
        rest = n - len(taken)
        fallback = min(rest, len(pool)) if rest else 0
        for _ in range(fallback):
            page_id = pool.pop_any()
            assert page_id is not None
            taken.append(page_id)
        step_pages[4] += fallback
        # Step 5: evict evictable small pages of this group and reuse each
        # in place (the check promised enough).
        reclaimed = rest - fallback
        if reclaimed:
            evictor = group.evictor
            assert len(evictor) >= reclaimed, f"groups_that_fit admitted {n} pages of {group_id}"
            for _ in range(reclaimed):
                victim_id, _, prefix = evictor.evict_with_key()
                group.clear(victim_id)
                state[victim_id] = EMPTY
                large_id = victim_id // spl
                counts = large_counts[large_id]
                if counts[2] == spl:
                    self._large_evictor_discard(large_id, group_id)
                counts[2] -= 1
                counts[0] += 1
                if prefix:
                    self.aligned_victims += 1
                taken.append(victim_id)
            step_pages[5] += reclaimed
            self.victims[group_id] += reclaimed
            group.note_eviction(reclaimed)
            group.bump_state(EVICTABLE, EMPTY, reclaimed)
        # EMPTY -> USED for the whole run at once.
        self.version += 1
        group.bump_state(EMPTY, USED, n)
        owner = group.request_id
        refs = group.ref_count
        for page_id in taken:
            state[page_id] = USED
            owner[page_id] = request_id
            refs[page_id] = 1
            counts = large_counts[page_id // spl]
            counts[0] -= 1
            counts[1] += 1
        return taken

    def _evict_large_pages(self, group_id: str, k: int) -> List[int]:
        """Step 3's victims: evict the ``k`` least-recently-used
        fully-evictable large pages (fewer if there are fewer) and hand
        each one, uncarved, straight to ``group_id``.

        Step 3 runs only when the LCM pool is empty, so a victim returned
        to it would be the very page the next carve takes: it skips the
        round trip and stays owned.  ``version`` moves once per victim.
        """
        large_evictor = self.large_evictor
        owner = self.lcm.owner
        groups = self.groups
        fully = self._num_fully_evictable
        victims = self.victims
        recycled: List[int] = []
        for _ in range(min(k, len(large_evictor))):
            victim_id, _, prefix = large_evictor.evict_with_key()
            victim_group = owner[victim_id]
            assert victim_group is not None
            fully[victim_group] -= 1
            victims[victim_group] += 1
            if prefix:
                self.aligned_victims += 1
            groups[victim_group].destroy_pages(victim_id)
            owner[victim_id] = group_id
            recycled.append(victim_id)
        self.num_large_evictions += len(recycled)
        self.version += len(recycled)
        return recycled

    def groups_that_fit(
        self, demand: Sequence[Tuple[str, int]], request_id: str
    ) -> int:
        """How many leading entries of ``demand`` would allocate, in order.

        ``demand`` lists ``(group_id, n)`` pairs over distinct groups; the
        answer is the length of the longest prefix whose
        ``allocate_pages(group_id, request_id, n)`` calls, made one after
        another, all succeed.  Exact and read-only -- the check half of
        check-then-commit and the admission verdict
        (:meth:`~repro.core.kv_manager.JengaKVCacheManager.can_admit`),
        counted in O(#groups) from O(1) counters:

        * a group first takes its step-1 bucket (all of ``num_free`` in
          the ``request_aware=False`` ablation), then ``ceil(rest / spl)``
          carves from the shared ``lcm.num_free + len(large_evictor)``
          (steps 2/3), then the rest of its free and evictable pages
          (steps 4/5); its capacity is ``num_free + len(evictor)`` plus
          ``spl`` per *foreign* large page it may carve -- the shared
          count less its own fully-evictable pages (evicting one to carve
          it again is net zero);
        * a group drains the shared count before later groups see it, and
          which victim a carve takes does not change a later group's
          capacity.

        No count reads the evictors' order, so re-keying an evictable page
        (:meth:`touch_evictable`) cannot change the answer.
        """
        groups = self.groups
        shared = self.lcm.num_free + len(self.large_evictor)
        for fitted, (group_id, n) in enumerate(demand):
            group = groups[group_id]
            spl = group.small_per_large
            foreign = shared - self._num_fully_evictable[group_id]
            if n > group.num_free + len(group.evictor) + foreign * spl:
                return fitted
            rest = n - self._step_one_pages(group, request_id)
            if rest > 0:
                shared -= min(shared, -(-rest // spl))
        return len(demand)

    def _step_one_pages(self, group: GroupAllocator, request_id: str) -> int:
        """Pages step 1 hands out before any carve: the request's bucket,
        or every free page in the ``request_aware=False`` ablation."""
        if self.request_aware:
            return group.free_pool.bucket_size(request_id)
        return group.num_free

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

        Each page that dropped its last reference counts once in
        :attr:`cached_releases` or :attr:`freed_releases`.  A page that is
        not USED raises ``ValueError``; the pages before it stay released.
        """
        group = self.groups[group_id]
        state = group.state
        refs = group.ref_count
        hashes = group.block_hash
        num_tokens = group.num_tokens
        last_access = group.last_access
        prefix_length = group.prefix_length
        large_counts = self._large_counts
        spl = group.small_per_large
        cache = cacheable and self.enable_prefix_caching
        small_run: List[Tuple[int, float, float]] = []
        large_run: List[Tuple[int, float, float]] = []
        fill = freed = 0
        try:
            for page_id in page_ids:
                refs_left = refs[page_id] - 1
                if state[page_id] is not USED or refs_left < 0:
                    raise ValueError(
                        f"releasing page {page_id} of group {group_id} "
                        f"in state {getattr(state[page_id], 'name', None)}"
                    )
                refs[page_id] = refs_left
                if refs_left:
                    continue
                fill += num_tokens[page_id]
                if not (cache and hashes[page_id] is not None):
                    freed += 1
                    self._empty_page(group, page_id, USED)
                    continue
                state[page_id] = EVICTABLE
                entry = (page_id, last_access[page_id], prefix_length[page_id])
                small_run.append(entry)
                large_id = page_id // spl
                counts = large_counts[large_id]
                counts[1] -= 1
                counts[2] += 1
                if counts[2] == spl:
                    # The last page to turn makes the large page fully
                    # evictable: one key scan per large page, and a
                    # one-slot page's key is the one just stamped.
                    self._num_fully_evictable[group_id] += 1
                    large_run.append(
                        entry if spl == 1 else (large_id, *self._large_key_scan(group, large_id))
                    )
        finally:
            if small_run or freed:
                group.evictor.add_run(small_run)
                self.large_evictor.add_run(large_run)
                self.version += 1
                group.note_fill(-fill)
                group.bump_state(USED, EVICTABLE, len(small_run))
                group.bump_state(USED, EMPTY, freed)
                self.cached_releases += len(small_run)
                self.freed_releases += freed

    def acquire_cached(
        self, group_id: str, block_hash: int, request_id: str
    ) -> Optional[int]:
        """Take a reference on one cached block: a run of one, unwrapped."""
        pages = self.acquire_cached_run(group_id, (block_hash,), request_id)
        return pages[0] if pages else None

    def acquire_cached_run(
        self, group_id: str, block_hashes: Iterable[int], request_id: str
    ) -> List[int]:
        """Take a reference on the cached block of each hash, in order
        (cache hits), stopping at the first miss or stale index entry.

        Returns the ids of the pages acquired so far -- as many as there
        are hashes when the whole run hit; the caller decides what a short
        run means.
        """
        group = self.groups[group_id]
        state = group.state
        refs = group.ref_count
        owner = group.request_id
        index = group.cache_index
        evictor = group.evictor
        large_counts = self._large_counts
        spl = group.small_per_large
        acquired: List[int] = []
        revived = fill = 0
        for block_hash in block_hashes:
            page_id = index.lookup(block_hash)
            if page_id is None:
                break
            if group.block_hash[page_id] != block_hash:
                # Stale index entry (page was reclaimed); treat as miss.
                index.remove(block_hash, page_id)
                break
            if state[page_id] is EVICTABLE:
                evictor.remove(page_id)
                state[page_id] = USED
                revived += 1
                fill += group.num_tokens[page_id]
                large_id = page_id // spl
                counts = large_counts[large_id]
                if counts[2] == spl:
                    self._large_evictor_discard(large_id, group_id)
                counts[2] -= 1
                counts[1] += 1
            refs[page_id] += 1
            owner[page_id] = request_id
            acquired.append(page_id)
        if revived:
            self.version += 1
            group.note_fill(fill)
            group.bump_state(EVICTABLE, USED, revived)
        return acquired

    def register_block_hash(self, group_id: str, page_id: int, block_hash: int) -> None:
        """Publish page ``page_id``'s completed block into the group's
        cache index."""
        if not self.enable_prefix_caching:
            return
        group = self.groups[group_id]
        hashes = group.block_hash
        hashes[page_id] = block_hash
        displaced = group.cache_index.insert(block_hash, page_id)
        if displaced is not None and hashes[displaced] == block_hash:
            hashes[displaced] = None
            if group.state[displaced] is EVICTABLE:
                # The displaced copy frees outright without passing
                # through release_pages; it still counts as a release.
                group.evictor.discard(displaced)
                self._large_evictor_discard(displaced // group.small_per_large, group_id)
                self.version += 1
                group.bump_state(EVICTABLE, EMPTY)
                self._empty_page(group, displaced, EVICTABLE)
                self.freed_releases += 1

    def touch_evictable(self, group_id: str, page_id: int) -> None:
        """Re-key an evictable page after its eviction metadata changed.

        Leaves :attr:`version` alone: a re-key reorders the evictors but
        changes no count :meth:`groups_that_fit` reads.
        """
        group = self.groups[group_id]
        if group.state[page_id] is EVICTABLE and page_id in group.evictor:
            key = (group.last_access[page_id], group.prefix_length[page_id])
            group.evictor.add(page_id, *key)
            large_id = page_id // group.small_per_large
            if large_id not in self.large_evictor:
                return
            # Incremental re-key of the fully-evictable large page: its
            # priority is the component-wise max over its small pages.  If
            # the touched page now dominates the recorded max, it *is* the
            # new max; only when it does not (it may have been the holder
            # and shrunk) do we fall back to the full scan.
            cur = self.large_evictor.priority_of(large_id)
            if key[0] >= cur[0] and key[1] >= cur[1]:
                if key != cur:
                    self.large_evictor.add(large_id, *key)
            else:
                self.large_evictor.add(large_id, *self._large_key_scan(group, large_id))

    # ------------------------------------------------------------------
    # Internal state machinery
    # ------------------------------------------------------------------

    def _empty_page(self, group: GroupAllocator, page_id: int, old: PageState) -> None:
        """``old`` (USED at ref 0, or EVICTABLE) -> EMPTY: clear, then pool
        the page under the request it keeps for step 1, or return its
        now-empty large page.  Group counters, evictor membership and the
        version move are the caller's, once per run."""
        group.clear(page_id)
        large_id = page_id // group.small_per_large
        counts = self._large_counts[large_id]
        counts[old] -= 1
        counts[0] += 1
        group.state[page_id] = EMPTY
        if counts[0] == group.small_per_large:
            self._return_large_page(large_id)
        else:
            group.free_pool.push(page_id, group.request_id[page_id])

    def _return_large_page(self, large_id: int) -> None:
        """Give ``large_id``, whose last small page just emptied, back to
        the LCM pool.

        The caller has already taken the large page out of
        ``large_evictor``.  (A step-3 victim, still holding cached pages,
        never comes here: :meth:`_evict_large_pages` recycles it.)
        """
        owner = self.lcm.owner[large_id]
        assert owner is not None
        counts = self._large_counts[large_id]
        if counts[1]:
            raise RuntimeError(
                f"large page {large_id} returned while {counts[1]} small pages are USED"
            )
        del self._large_counts[large_id]
        self.groups[owner].destroy_pages(large_id)
        self.version += 1
        self.lcm.free(large_id)

    def _large_key_scan(self, group: GroupAllocator, large_id: int) -> Tuple[float, float]:
        """Eviction key of ``group``'s fully-evictable large page: the
        component-wise max of ``(last_access, prefix_length)`` over its
        small pages, floor-free (slide-outs stamped ``now - 1e15`` keep their
        LRU order)."""
        n = group.small_per_large
        first = large_id * n
        if n == 1:  # most groups: the key is the one page's
            return group.last_access[first], group.prefix_length[first]
        return max(group.last_access[first:first + n]), max(group.prefix_length[first:first + n])

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
            for page_id, state in enumerate(group.state):
                if state is USED:
                    u += page_bytes
                    if not group.policy.snapshot_blocks:
                        filled = group.num_tokens[page_id] * group.spec.per_token_bytes
                        partial += max(0, page_bytes - filled)
                elif state is EVICTABLE:
                    e += page_bytes
                elif state is EMPTY:
                    frag += page_bytes
            used[group_id] = u
            evictable[group_id] = e
        return self._stats_of(used, evictable, frag, partial)

    def extent_of(self, group_id: str, page_id: int) -> PhysicalExtent:
        """Physical placement of a small page (page-layer partition, §4.2)."""
        group = self.groups[group_id]
        large_id, slot = divmod(page_id, group.small_per_large)
        size = group.spec.page_bytes
        return PhysicalExtent(self.lcm.extent_of(large_id).start + slot * size, size)

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
            for page_id, state in enumerate(group.state):
                if state is None:
                    continue
                extent = self.extent_of(group_id, page_id)
                assert extent.end <= self.lcm.total_bytes, (
                    f"page {group_id}/{page_id} extends past the region"
                )
                extents.append((extent.start, extent.end, group_id, page_id))
        extents.sort()
        for (s1, e1, g1, p1), (s2, e2, g2, p2) in zip(extents, extents[1:]):
            assert e1 <= s2, (
                f"pages {g1}/{p1} [{s1},{e1}) and {g2}/{p2} [{s2},{e2}) overlap"
            )

    def check_invariants(self) -> None:
        """Assert internal consistency; used by property-based tests."""
        owners = [self.lcm.owner_of(large_id) for large_id in range(self.lcm.num_pages)]
        for group_id, group in self.groups.items():
            group.free_pool.check_consistent()
            n_empty = 0
            for page_id, state in enumerate(group.state):
                large_id = page_id // group.small_per_large
                owner = owners[large_id]
                # A slot is carved exactly while its large page is owned.
                assert (state is not None) == (owner == group_id), (
                    f"page {group_id}/{page_id} is {state} in large page "
                    f"{large_id} owned by {owner}"
                )
                if state is USED or state is EVICTABLE:
                    assert page_id not in group.free_pool
                    if state is USED:
                        assert group.ref_count[page_id] > 0
                    else:
                        assert page_id in group.evictor
                    continue
                # Neither USED nor EVICTABLE: cleared (see GroupAllocator).
                fields = (group.ref_count[page_id], group.block_hash[page_id],
                          group.num_tokens[page_id], group.last_access[page_id],
                          group.prefix_length[page_id])
                assert fields == (0, None, 0, -1.0, 0.0), (group_id, page_id, fields)
                if state is EMPTY:
                    n_empty += 1
                    assert page_id in group.free_pool, (
                        f"EMPTY page {group_id}/{page_id} missing from the free pool"
                    )
            # The pool holds exactly the EMPTY pages (no stale ids), so
            # num_free needs no separate running counter.
            assert group.num_free == n_empty, (group_id, group.num_free, n_empty)
        fully_by_group = {g: 0 for g in self.groups}
        for large_id, counts in self._large_counts.items():
            owner = owners[large_id]
            assert owner is not None
            group = self.groups[owner]
            total = group.small_per_large
            assert sum(counts) == total, (large_id, counts, total)
            actual = [0, 0, 0]
            for sid in group.slots(large_id):
                state = group.state[sid]
                assert state is not None, (owner, sid)
                actual[state] += 1
            assert actual == counts, (large_id, actual, counts)
            if counts[2] == total and total > 0:
                fully_by_group[owner] += 1
                assert large_id in self.large_evictor, (
                    f"fully-evictable large page {large_id} missing from the evictor"
                )
                assert self.large_evictor.priority_of(large_id) == self._large_key_scan(
                    group, large_id
                )
            else:
                assert large_id not in self.large_evictor, (
                    f"large page {large_id} in the evictor but not fully evictable"
                )
        assert fully_by_group == self._num_fully_evictable, (
            fully_by_group, self._num_fully_evictable
        )
