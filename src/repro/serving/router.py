"""Request router over N replicas under one of three balancing policies.

The policies (the rtp-llm ``flexlb`` ladder), named in
:data:`ROUTING_POLICIES`:

* ``round_robin`` -- position-blind rotation, the baseline;
* ``least_loaded`` -- minimum queue depth, ties broken toward the most
  reclaimable pool bytes (free + evictable from the manager's
  ``stats()``, the live pressure signal eLLM routes on);
* ``cache_aware`` -- the router keeps a :class:`ReplicaShadow` of every
  replica's prefix index, keyed by the same
  :meth:`~repro.core.sequence.SequenceSpec.hash_chain` block hashes the
  managers register, and sends each request to the replica with the
  longest expected prefix hit (queue depth and pool pressure break ties).

The router runs once per request on the serving hot path, so it follows
the hot-module rules: block hashes come from the memoized per-sequence
``hash_chain`` (never the from-scratch ``chain_hashes``), once per route,
under the memo key a uniform group policy of the same page size uses
(``LayerTypePolicy.boundary_schedule``) -- so the replica's lookup reads
the chain the router built instead of hashing the prompt again.  Shadow
membership is dict-indexed, and the routing decision is reported only to
the chosen replica engine's observer, when it has one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.layer_policy import TOKENS_PER_PAGE
from ..core.sequence import IMAGE, TEXT, SequenceSpec
from ..engine.request import Request
from .replica import Replica

__all__ = [
    "ROUTER_TAGS",
    "ROUTING_POLICIES",
    "ReplicaShadow",
    "Router",
]

#: Tag filter for router-side block hashing.  The router does not know
#: which layer-type groups a replica's model has, so it shadows the full
#: multimodal stream.  With the schedule ``("uniform", TOKENS_PER_PAGE)``
#: its memo key is that of any group accepting both tags at the managers'
#: page size: same stream, same boundaries, so the same chain.
ROUTER_TAGS = frozenset({TEXT, IMAGE})


class ReplicaShadow:
    """Router-side LRU shadow of one replica's prefix-cache index.

    Tracks the block hashes of prompts previously routed to the replica,
    bounded to ``capacity`` blocks with LRU displacement -- mirroring (not
    mirroring exactly: the replica evicts under its own pressure, the
    shadow under routing traffic) what the replica is likely to have
    cached.  ``match_len`` is the expected-hit probe: the number of
    leading blocks present, refreshing recency on each block it touches.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("shadow capacity must be positive")
        self.capacity = capacity
        self._blocks: "OrderedDict[int, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_hash: int) -> bool:
        return block_hash in self._blocks

    def match_len(self, hashes: Sequence[int]) -> int:
        """Leading blocks of ``hashes`` present in the shadow."""
        blocks = self._blocks
        n = 0
        for block_hash in hashes:
            if block_hash not in blocks:
                break
            blocks.move_to_end(block_hash)
            n += 1
        return n

    def record(self, hashes: Sequence[int]) -> None:
        """Mark ``hashes`` as (about to be) resident on the replica."""
        blocks = self._blocks
        for block_hash in hashes:
            if block_hash in blocks:
                blocks.move_to_end(block_hash)
            else:
                blocks[block_hash] = None
        capacity = self.capacity
        while len(blocks) > capacity:
            blocks.popitem(last=False)


#: ``policy(router, request, hashes)`` -> replica index, where ``hashes``
#: is the request's :meth:`Router.block_hashes`.
RoutingPolicy = Callable[["Router", Request, Sequence[int]], int]


def _round_robin(router: "Router", request: Request, hashes: Sequence[int]) -> int:
    idx = router.rr_next % len(router.replicas)
    router.rr_next += 1
    return idx


def _least_loaded(router: "Router", request: Request, hashes: Sequence[int]) -> int:
    best_idx = 0
    best_key: Optional[Tuple[int, int, int]] = None
    for idx, replica in enumerate(router.replicas):
        load = replica.load()
        key = (load.queue_depth, -load.available_bytes, idx)
        if best_key is None or key < best_key:
            best_key, best_idx = key, idx
    return best_idx


def _cache_aware(router: "Router", request: Request, hashes: Sequence[int]) -> int:
    best_idx = 0
    best_key: Optional[Tuple[int, int, int, int]] = None
    for idx, replica in enumerate(router.replicas):
        hit_blocks = router.shadows[idx].match_len(hashes)
        load = replica.load()
        key = (-hit_blocks, load.queue_depth, -load.available_bytes, idx)
        if best_key is None or key < best_key:
            best_key, best_idx = key, idx
    return best_idx


#: Policy name -> policy callable.
ROUTING_POLICIES: Dict[str, RoutingPolicy] = {
    "round_robin": _round_robin,
    "least_loaded": _least_loaded,
    "cache_aware": _cache_aware,
}


class Router:
    """Route requests onto replicas under a named policy.

    The router maintains one prefix shadow per replica regardless of
    policy, so the ``expected_hit_tokens`` telemetry (and a mid-run policy
    comparison) stays meaningful even for position-blind policies.
    """

    def __init__(self, replicas: Sequence[Replica], policy: str = "cache_aware") -> None:
        if not replicas:
            raise ValueError("router needs at least one replica")
        if policy not in ROUTING_POLICIES:
            raise KeyError(
                f"unknown routing policy {policy!r}; "
                f"choose from {', '.join(ROUTING_POLICIES)}"
            )
        self.replicas: List[Replica] = list(replicas)
        self.policy_name = policy
        self.policy: RoutingPolicy = ROUTING_POLICIES[policy]
        self.shadows: List[ReplicaShadow] = [ReplicaShadow() for _ in self.replicas]
        # round_robin rotation cursor (harmless state for other policies).
        self.rr_next = 0
        # Per-replica routing tallies (index-aligned with ``replicas``).
        self.routed_counts: List[int] = [0] * len(self.replicas)
        self.expected_hit_counts: List[int] = [0] * len(self.replicas)

    # ------------------------------------------------------------------

    @property
    def expected_hit_tokens(self) -> int:
        """Shadow-predicted prefix-hit tokens summed over all replicas."""
        return sum(self.expected_hit_counts)

    def block_hashes(self, request: Request) -> List[int]:
        """Block-boundary hash chain of the request's current prompt.

        Uses the sequence's own memoized incremental chain under the key
        ``(ROUTER_TAGS, ("uniform", TOKENS_PER_PAGE))``, which a replica
        group of that page size shares; repeat probes of the same request
        cost only the new tail blocks.
        """
        seq: SequenceSpec = request.seq
        stream = (
            seq.token_ids
            if seq.covered_by(ROUTER_TAGS)
            else seq.stream_tokens(ROUTER_TAGS)
        )
        return seq.hash_chain(
            ROUTER_TAGS,
            ("uniform", TOKENS_PER_PAGE),
            stream,
            range(TOKENS_PER_PAGE, len(stream) + 1, TOKENS_PER_PAGE),
        )

    def route(self, request: Request) -> int:
        """Pick a replica for ``request`` and hand it over.

        Returns the chosen replica index; also updates that replica's
        shadow (the routed prompt is about to become resident there) and
        reports ``request_routed`` to the replica engine's observer.
        """
        hashes = self.block_hashes(request)
        idx = self.policy(self, request, hashes)
        shadow = self.shadows[idx]
        expected_hit = shadow.match_len(hashes) * TOKENS_PER_PAGE
        shadow.record(hashes)

        self.routed_counts[idx] += 1
        self.expected_hit_counts[idx] += expected_hit
        replica = self.replicas[idx]
        obs = replica.engine.observer
        if obs is not None:
            obs.request_routed(
                request.request_id, replica.replica_id, self.policy_name, expected_hit
            )
        replica.submit(request)
        return idx
