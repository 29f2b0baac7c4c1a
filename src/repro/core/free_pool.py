"""Indexed free pool of EMPTY small pages for one group allocator.

:class:`FreePool` keeps two exactly-synchronized indexes, so push, pop by
request, pop any and discard by id are all O(1).  Entries are removed
eagerly the moment a page leaves the EMPTY state, so the pool never holds
stale ids and its size is exactly the group's free-page count.  Uncarving
a large page discards its EMPTY slot ids one by one
(``GroupAllocator.destroy_pages``).

Pop order is LIFO within a request bucket (dict insertion order), and
:meth:`pop_any` serves the oldest-created bucket first.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

__all__ = ["FreePool"]

_BucketKey = Optional[str]  # request association (None = unassociated)


class FreePool:
    """O(1)-indexed pool of EMPTY small-page ids.

    Indexes:

    * ``_by_request`` -- per-request buckets (``dict`` used as an ordered
      set) backing step 1 / step 4 of the five-step algorithm;
    * ``_entry`` -- flat map ``page_id -> request key`` making every
      removal O(1).

    Exhausted buckets are deleted eagerly, so the number of buckets never
    exceeds the number of pooled pages.
    """

    def __init__(self) -> None:
        self._by_request: Dict[_BucketKey, Dict[int, None]] = {}
        self._entry: Dict[int, _BucketKey] = {}

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

    def push(self, page_id: int, request_id: _BucketKey) -> None:
        """Add a freshly-emptied page under its request association."""
        if page_id in self._entry:
            raise ValueError(f"page {page_id} is already in the free pool")
        self._entry[page_id] = request_id
        self._by_request.setdefault(request_id, {})[page_id] = None

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
        if page_id not in self._entry:
            return False
        request_id = self._entry[page_id]
        bucket = self._by_request[request_id]
        del bucket[page_id]
        self._unindex(page_id, request_id, bucket)
        return True

    def _unindex(self, page_id: int, request_id: _BucketKey, bucket: Dict[int, None]) -> None:
        """Finish a single-page removal whose bucket entry is already gone."""
        if not bucket:
            del self._by_request[request_id]
        del self._entry[page_id]

    # -- validation ----------------------------------------------------

    def check_consistent(self) -> None:
        """Assert the two indexes agree; used by ``check_invariants``."""
        n_bucketed = sum(len(b) for b in self._by_request.values())
        assert n_bucketed == len(self._entry), (n_bucketed, len(self._entry))
        for page_id, request_id in self._entry.items():
            assert page_id in self._by_request[request_id]
        assert all(self._by_request.values()), "empty bucket leaked"
