"""Tests for the multi-replica serving tier (router, replicas, cluster)."""

import pytest

from repro.engine.request import Request
from repro.engine.scheduler import SchedulerConfig
from repro.models import GIB, get_model
from repro.platforms import H100
from repro.serving import (
    ROUTING_POLICIES,
    Replica,
    ReplicaShadow,
    Router,
    ServingCluster,
    register_policy,
)
from repro.workloads import poisson_arrivals, token_block

from .recording import RecordingObserver, RequestRouted

MODEL = get_model("llama3.2-1b")
KV = GIB // 4


def make_replicas(n, kv=KV):
    return [
        Replica(f"replica-{i}", MODEL, H100, kv, config=SchedulerConfig())
        for i in range(n)
    ]


def forked_requests(num_families, fanout, prefix_tokens=256, suffix_tokens=32,
                    output=8, rate=8.0, seed=3):
    """``num_families`` shared prefixes, ``fanout`` forks each, interleaved
    family-by-family so consecutive arrivals alternate families."""
    requests = []
    for j in range(fanout):
        for f in range(num_families):
            prefix = token_block(0, f"family{f}", 0, prefix_tokens)
            suffix = token_block(1, f"fam{f}-sfx{j}", j, suffix_tokens)
            requests.append(
                Request.text(f"j{j:02d}-f{f}", prefix + suffix, output)
            )
    poisson_arrivals(requests, rate=rate, seed=seed)
    return requests


class TestReplicaShadow:
    def test_match_counts_leading_blocks_only(self):
        shadow = ReplicaShadow()
        shadow.record([1, 2, 3])
        assert shadow.match_len([1, 2, 3, 4]) == 3
        assert shadow.match_len([9, 1, 2]) == 0
        assert shadow.match_len([1, 9, 3]) == 1

    def test_lru_capacity_bound(self):
        shadow = ReplicaShadow(capacity=3)
        shadow.record([1, 2, 3])
        shadow.record([4])  # displaces 1 (least recently touched)
        assert len(shadow) == 3
        assert 1 not in shadow
        assert shadow.match_len([2, 3]) == 2

    def test_match_refreshes_recency(self):
        shadow = ReplicaShadow(capacity=3)
        shadow.record([1, 2, 3])
        shadow.match_len([1])      # touch 1: now 2 is the LRU victim
        shadow.record([4])
        assert 2 not in shadow
        assert 1 in shadow

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ReplicaShadow(capacity=0)


class TestRouterPolicies:
    def test_cache_aware_routes_fanout_to_warm_replica(self):
        # One forked-prefix family: after the first (tie-broken) pick,
        # every fork must land on the replica whose shadow is warm.
        replicas = make_replicas(3)
        router = Router(replicas, policy="cache_aware")
        for request in forked_requests(num_families=1, fanout=9):
            router.route(request)
        assert sorted(router.routed_counts) == [0, 0, 9]
        assert router.expected_hit_tokens > 0

    def test_round_robin_provably_splits_a_family(self):
        # The same workload under round_robin sprays the family across
        # every replica -- each fork after the first *would* have hit.
        replicas = make_replicas(3)
        router = Router(replicas, policy="round_robin")
        for request in forked_requests(num_families=1, fanout=9):
            router.route(request)
        assert router.routed_counts == [3, 3, 3]

    def test_cache_aware_beats_round_robin_on_expected_hits(self):
        requests = forked_requests(num_families=2, fanout=8)
        results = {}
        for policy in ("cache_aware", "round_robin"):
            router = Router(make_replicas(3), policy=policy)
            for request in forked_requests(num_families=2, fanout=8):
                router.route(request)
            results[policy] = router.expected_hit_tokens
        assert results["cache_aware"] > results["round_robin"]
        assert len(requests) == 16

    def test_least_loaded_drains_hot_cold_imbalance(self):
        replicas = make_replicas(2)
        # Pre-load replica 0 with direct submissions (bypassing the router).
        for i in range(6):
            replicas[0].submit(
                Request.text(f"hot-{i}", token_block(0, "hot", i, 128), 8)
            )
        router = Router(replicas, policy="least_loaded")
        for i in range(4):
            router.route(
                Request.text(f"new-{i}", token_block(0, "new", i, 128), 8)
            )
        # The cold replica takes the bulk until queue depths level out.
        assert router.routed_counts[1] > router.routed_counts[0]
        assert replicas[1].load().queue_depth >= replicas[0].load().queue_depth - 6

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            Router(make_replicas(1), policy="coin_flip")

    def test_duplicate_policy_registration_rejected(self):
        with pytest.raises(ValueError):
            register_policy("round_robin")(lambda router, request: 0)
        assert "round_robin" in ROUTING_POLICIES

    def test_route_emits_guarded_event_on_replica_bus(self):
        replicas = make_replicas(2)
        recorder = replicas[1].engine.observer = RecordingObserver()
        router = Router(replicas, policy="round_robin")
        router.route(Request.text("r0", token_block(0, "x", 0, 64), 4))
        router.route(Request.text("r1", token_block(0, "x", 1, 64), 4))
        seen = recorder.recent(RequestRouted)
        assert [e.request_id for e in seen] == ["r1"]
        assert seen[0].replica_id == "replica-1"
        assert seen[0].policy == "round_robin"


class TestServingCluster:
    def test_cluster_completes_and_balances(self):
        cluster = ServingCluster.build(
            MODEL, H100, KV, 2, policy="round_robin", config=SchedulerConfig()
        )
        requests = forked_requests(num_families=3, fanout=4)
        cluster.submit(requests)
        summary = cluster.run()
        cluster.close()
        assert summary.finished == len(requests)
        assert summary.failed == 0
        assert summary.routed_counts == (6, 6)
        assert summary.sim_duration > 0
        assert summary.tokens_per_sec_per_replica > 0

    def test_cache_aware_beats_round_robin_end_to_end(self):
        # num_families chosen NOT to divide the replica count, so
        # round_robin cannot accidentally pin families to replicas.
        rates = {}
        for policy in ("round_robin", "cache_aware"):
            cluster = ServingCluster.build(
                MODEL, H100, KV, 2, policy=policy, config=SchedulerConfig()
            )
            cluster.submit(forked_requests(num_families=3, fanout=16))
            summary = cluster.run()
            cluster.close()
            assert summary.finished == 48
            rates[policy] = summary.prefix_hit_rate
        assert rates["cache_aware"] > rates["round_robin"]

    def test_deterministic_across_runs(self):
        def once():
            cluster = ServingCluster.build(
                MODEL, H100, KV, 2, policy="cache_aware",
                config=SchedulerConfig(),
            )
            cluster.submit(forked_requests(num_families=2, fanout=6))
            summary = cluster.run()
            cluster.close()
            return (summary.finished, summary.routed_counts,
                    summary.prefix_hit_tokens, summary.sim_duration)

        assert once() == once()

    def test_per_replica_buses_stay_private(self):
        cluster = ServingCluster.build(
            MODEL, H100, KV, 2, policy="round_robin", config=SchedulerConfig()
        )
        recorders = []
        for replica in cluster.replicas:
            recorders.append(RecordingObserver())
            replica.engine.observer = recorders[-1]
        cluster.submit(forked_requests(num_families=2, fanout=2))
        cluster.run()
        cluster.close()
        assert [r.counts["RequestRouted"] for r in recorders] == [2, 2]

    def test_mismatched_router_rejected(self):
        replicas = make_replicas(2)
        router = Router(make_replicas(2), policy="round_robin")
        with pytest.raises(ValueError):
            ServingCluster(replicas, router)


class TestRouterTallies:
    def test_router_keeps_per_replica_tallies(self):
        # The router's index-aligned lists are the one per-replica routing
        # tally; an observer on each replica's engine must see exactly what
        # they hold.
        replicas = make_replicas(2)
        router = Router(replicas, policy="cache_aware")
        recorders = []
        for replica in replicas:
            recorders.append(RecordingObserver())
            replica.engine.observer = recorders[-1]
        requests = forked_requests(num_families=2, fanout=3)
        for request in requests:
            router.route(request)
        seen = [r.recent(RequestRouted) for r in recorders]
        assert sum(router.routed_counts) == len(requests)
        assert [len(events) for events in seen] == router.routed_counts
        assert [
            sum(ev.expected_hit_tokens for ev in events) for events in seen
        ] == router.expected_hit_counts
        assert sum(router.expected_hit_counts) == router.expected_hit_tokens > 0

    def test_unobserved_replica_builds_no_routing_event(self):
        # A replica with no telemetry attached has no observer, so the
        # router reports the decision to nobody -- the tally lives on the
        # router alone.
        replicas = make_replicas(2)
        router = Router(replicas, policy="round_robin")
        for replica in replicas:
            assert replica.telemetry is None and replica.engine.observer is None
        router.route(forked_requests(num_families=1, fanout=1)[0])
        assert router.routed_counts == [1, 0]
