"""Indexed free pool of EMPTY small pages for one group allocator.

The original pool was a plain ``Dict[request_id, List[page_id]]`` with two
quadratic failure modes on the allocation hot path:

* returning a large page to the LCM pool scanned *every* free entry of the
  group to purge the dead ids (O(free pages) per large-page return);
* draining a request's bucket never deleted the empty list, so the dict
  grew without bound under request churn.

:class:`FreePool` replaces it with three exactly-synchronized indexes so
every operation -- push, pop by request, pop any, purge a large page's
members -- is O(1) (purge is O(members of that large page), which is the
size of the result, not of the pool).  Entries are removed eagerly the
moment a page leaves the EMPTY state, so the pool never holds stale ids
and its size is exactly the group's free-page count.

Pop order matches the previous list-based pool: LIFO within a request
bucket (dict insertion order), and :meth:`pop_any` serves the
oldest-created bucket first.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

__all__ = ["FreePool"]

_BucketKey = Optional[str]  # request association (None = unassociated)


class FreePool:
    """O(1)-indexed pool of EMPTY small-page ids.

    Indexes:

    * ``_by_request`` -- per-request buckets (``dict`` used as an ordered
      set) backing step 1 / step 4 of the five-step algorithm;
    * ``_by_large`` -- per-large-page membership sets, so returning a
      large page to the LCM pool purges exactly its own members;
    * ``_entry`` -- flat map ``page_id -> (request key, large page id)``
      making every removal O(1).

    Exhausted buckets and membership sets are deleted eagerly, so the
    number of buckets never exceeds the number of pooled pages.
    """

    def __init__(self) -> None:
        self._by_request: Dict[_BucketKey, Dict[int, None]] = {}
        self._by_large: Dict[Optional[int], Set[int]] = {}
        self._entry: Dict[int, Tuple[_BucketKey, Optional[int]]] = {}

    def __len__(self) -> int:
        return len(self._entry)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._entry

    def __iter__(self) -> Iterator[int]:
        return iter(self._entry)

    @property
    def num_buckets(self) -> int:
        """Number of per-request buckets (bounded by ``len(self)``)."""
        return len(self._by_request)

    def bucket_size(self, request_id: _BucketKey) -> int:
        """Pages pooled under ``request_id`` (what step 1 can pop)."""
        bucket = self._by_request.get(request_id)
        return len(bucket) if bucket else 0

    # -- mutation ------------------------------------------------------

    def push(self, page_id: int, request_id: _BucketKey, large_page_id: Optional[int]) -> None:
        """Add a freshly-emptied page under its request association."""
        if page_id in self._entry:
            raise ValueError(f"page {page_id} is already in the free pool")
        self._entry[page_id] = (request_id, large_page_id)
        self._by_request.setdefault(request_id, {})[page_id] = None
        self._by_large.setdefault(large_page_id, set()).add(page_id)

    def pop(self, request_id: _BucketKey) -> Optional[int]:
        """Pop the most recently pushed page of ``request_id`` (step 1)."""
        bucket = self._by_request.get(request_id)
        if not bucket:
            return None
        page_id, _ = bucket.popitem()
        self._unindex(page_id, request_id, bucket)
        return page_id

    def pop_any(self) -> Optional[int]:
        """Pop a page regardless of request association (step 4)."""
        if not self._by_request:
            return None
        request_id = next(iter(self._by_request))
        bucket = self._by_request[request_id]
        page_id, _ = bucket.popitem()
        self._unindex(page_id, request_id, bucket)
        return page_id

    def discard(self, page_id: int) -> bool:
        """Remove one page by id; returns whether it was pooled."""
        entry = self._entry.get(page_id)
        if entry is None:
            return False
        request_id, _ = entry
        bucket = self._by_request[request_id]
        del bucket[page_id]
        self._unindex(page_id, request_id, bucket)
        return True

    def purge_large(self, large_page_id: Optional[int]) -> int:
        """Drop every pooled page carved from ``large_page_id``.

        Called when the large page returns to the LCM pool; cost is
        proportional to the number of *its* pooled pages only.  Returns
        how many entries were dropped.
        """
        members = self._by_large.pop(large_page_id, None)
        if not members:
            return 0
        for page_id in members:
            request_id, _ = self._entry.pop(page_id)
            bucket = self._by_request[request_id]
            del bucket[page_id]
            if not bucket:
                del self._by_request[request_id]
        return len(members)

    def _unindex(self, page_id: int, request_id: _BucketKey, bucket: Dict[int, None]) -> None:
        """Finish a single-page removal whose bucket entry is already gone."""
        if not bucket:
            del self._by_request[request_id]
        _, large_id = self._entry.pop(page_id)
        members = self._by_large[large_id]
        members.discard(page_id)
        if not members:
            del self._by_large[large_id]

    # -- validation ----------------------------------------------------

    def check_consistent(self) -> None:
        """Assert the three indexes agree; used by ``check_invariants``."""
        n_bucketed = sum(len(b) for b in self._by_request.values())
        n_membered = sum(len(s) for s in self._by_large.values())
        assert n_bucketed == len(self._entry) == n_membered, (
            n_bucketed, len(self._entry), n_membered
        )
        for page_id, (request_id, large_id) in self._entry.items():
            assert page_id in self._by_request[request_id]
            assert page_id in self._by_large[large_id]
        assert all(self._by_request.values()), "empty bucket leaked"
        assert all(self._by_large.values()), "empty membership set leaked"
