"""Prefix-cache bookkeeping: content hashing and the per-group block index.

Prefix caching identifies reusable KV by *content*: each cacheable block's
hash chains the hash of its predecessor with the token ids it covers, so a
block hash uniquely identifies an entire prefix (the scheme vLLM uses).
Every layer-type group keeps its own ``hash -> page`` index because groups
store different streams at different granularities.

The model-wide hit (Section 5.2) is the longest *global* prefix that every
group can serve from cache.  Each policy answers the largest valid
*stream* prefix under a cap (``largest_prefix_at_most``, probing this
index); the manager lifts the answers to global token counts (a group only
constrains the tokens it stores) and lowers a global cap until every group
accepts it (``JengaKVCacheManager._lookup_and_acquire``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .sequence import HASH_SEED

__all__ = [
    "chain_hashes",
    "CachedBlockIndex",
]

# Seed lives on the sequence layer, which owns the memoized incremental
# chains (SequenceSpec.hash_chain); chain_hashes is the from-scratch
# reference fold over the same state machine.
_HASH_SEED = HASH_SEED


def chain_hashes(token_ids: Sequence[int], boundaries: Sequence[int]) -> List[int]:
    """Chained content hashes of the prefixes ending at ``boundaries``.

    ``boundaries`` must be increasing positive token counts not exceeding
    ``len(token_ids)``.  The hash at boundary ``b`` covers tokens
    ``[0, b)`` -- equal prefixes always produce equal hashes, and the
    chaining makes a block hash identify its whole ancestry, never just the
    block's own tokens.
    """
    hashes: List[int] = []
    state = _HASH_SEED
    pos = 0
    for boundary in boundaries:
        if boundary <= pos:
            raise ValueError(f"boundaries must be increasing, got {list(boundaries)}")
        if boundary > len(token_ids):
            raise ValueError(
                f"boundary {boundary} beyond stream of {len(token_ids)} tokens"
            )
        state = hash((state, tuple(token_ids[pos:boundary])))
        hashes.append(state)
        pos = boundary
    return hashes


class CachedBlockIndex:
    """Per-group map from block hash to the evictable page holding it."""

    def __init__(self) -> None:
        self._by_hash: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._by_hash)

    def __contains__(self, block_hash: int) -> bool:
        return block_hash in self._by_hash

    def insert(self, block_hash: int, page_id: int) -> Optional[int]:
        """Register a cached block; returns a displaced duplicate page id.

        Two requests with identical prefixes can both deposit the same
        block; the newer page wins and the caller frees the older one.
        """
        old = self._by_hash.get(block_hash)
        if old == page_id:
            return None
        self._by_hash[block_hash] = page_id
        return old

    def lookup(self, block_hash: int) -> Optional[int]:
        """Acquire-time read, counted in :attr:`hits` / :attr:`misses`."""
        page_id = self._by_hash.get(block_hash)
        if page_id is None:
            self.misses += 1
        else:
            self.hits += 1
        return page_id

    @property
    def probe(self) -> Callable[[int], Optional[int]]:
        """The lookup path's uncounted read: ``probe(block_hash)`` is the
        page id cached under the hash, or ``None``.  A bound ``dict.get``,
        so each probe costs no Python call."""
        return self._by_hash.get

    def remove(self, block_hash: int, page_id: Optional[int] = None) -> None:
        """Drop a cached block (its page was evicted or reused).

        ``page_id`` guards against removing a newer mapping that replaced
        the caller's page.
        """
        current = self._by_hash.get(block_hash)
        if current is None:
            return
        if page_id is not None and current != page_id:
            return
        del self._by_hash[block_hash]
