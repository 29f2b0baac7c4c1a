"""Multi-replica serving tier: N engines behind a routing policy.

The paper evaluates one engine on one GPU; this package scales the
deterministic simulator out to a cluster (ROADMAP's top open item, the
rtp-llm ``flexlb`` pattern):

* :class:`~repro.serving.replica.Replica` -- one engine + manager, with
  an optional per-replica telemetry observer (routing decisions are
  reported to the chosen replica's engine observer);
* :class:`~repro.serving.router.Router` -- the three policies named in
  ``ROUTING_POLICIES``: ``round_robin``, ``least_loaded`` (free-pool
  pressure from ``stats()``), and ``cache_aware`` (a router-side shadow
  of each replica's prefix index keyed by ``SequenceSpec.hash_chain``
  block hashes, scored by expected hit length);
* :class:`~repro.serving.cluster.ServingCluster` -- drives the replicas
  from ``poisson_arrivals``/trace workloads on the simulated clock.
"""

from .cluster import ClusterSummary, ServingCluster
from .replica import Replica, ReplicaLoad
from .router import ROUTING_POLICIES, ReplicaShadow, Router

__all__ = [
    "ClusterSummary",
    "ROUTING_POLICIES",
    "Replica",
    "ReplicaLoad",
    "ReplicaShadow",
    "Router",
    "ServingCluster",
]
