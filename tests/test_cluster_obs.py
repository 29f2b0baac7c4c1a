"""Cluster-scope observability: merged traces, ClusterReport, CLI."""

import json

from repro.cli import main
from repro.core.events import AdmissionBlocked, PageEvicted, RequestRouted
from repro.core.math_utils import percentile
from repro.engine.request import Request
from repro.engine.scheduler import profile_config
from repro.models import GIB, get_model
from repro.obs import (
    ClusterReport,
    cluster_chrome_trace,
    cluster_markdown,
    cluster_reports_payload,
    render_cluster_reports,
    slo_percentiles,
    validate_chrome_trace,
    write_cluster_trace,
)
from repro.obs.cluster import CLUSTER_PID, replica_pids
from repro.platforms import H100
from repro.serving import ServingCluster
from repro.workloads import poisson_arrivals, token_block

MODEL = get_model("llama3.2-1b")
KV = GIB // 4


def forked_requests(num_families=3, fanout=4, prefix_tokens=256,
                    suffix_tokens=32, output=8, rate=8.0, seed=3):
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


def traced_cluster(num_replicas=2, policy="cache_aware", **build_kwargs):
    cluster = ServingCluster.build(
        MODEL, H100, KV, num_replicas, policy=policy,
        config=profile_config("vllm", record_memory=True),
        tracing=True, telemetry=True, pressure=True, **build_kwargs,
    )
    cluster.submit(forked_requests())
    cluster.run()
    return cluster


class TestMergedTrace:
    def test_trace_validates_with_one_lane_pair_per_replica(self):
        cluster = traced_cluster(num_replicas=3)
        payload = cluster_chrome_trace(cluster)
        assert validate_chrome_trace(payload) == len(payload["traceEvents"])
        pids = {e["pid"] for e in payload["traceEvents"]}
        expected = {CLUSTER_PID}
        for i in range(3):
            expected.update(replica_pids(i))
        assert pids == expected
        metas = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"] if e["ph"] == "M"
        }
        assert metas[CLUSTER_PID] == "cluster router (simulated clock)"
        assert metas[1] == "replica-0 (wall clock)"
        assert metas[2] == "replica-0 (simulated clock)"
        cluster.close()

    def test_router_lane_carries_every_dispatch(self):
        cluster = traced_cluster()
        payload = cluster_chrome_trace(cluster)
        routes = [
            e for e in payload["traceEvents"]
            if e["pid"] == CLUSTER_PID and e["ph"] == "i"
        ]
        assert len(routes) == cluster.num_dispatched == 12
        replica_ids = {r.replica_id for r in cluster.replicas}
        for event in routes:
            assert event["args"]["replica"] in replica_ids
            assert event["args"]["policy"] == "cache_aware"
        # Route instants are stamped on the simulated arrival clock.
        times = [e["ts"] for e in routes]
        assert times == sorted(times)
        cluster.close()

    def test_replica_lanes_separate_wall_and_sim_clocks(self):
        cluster = traced_cluster()
        payload = cluster_chrome_trace(cluster)
        wall_pid, sim_pid = replica_pids(0)
        wall = [e for e in payload["traceEvents"]
                if e["pid"] == wall_pid and e["ph"] != "M"]
        sim = [e for e in payload["traceEvents"]
               if e["pid"] == sim_pid and e["ph"] != "M"]
        assert wall and all(e["ph"] in ("X", "i", "C") for e in wall)
        # Sim lane is counters only: mem/* plus the pressure timelines.
        assert sim and all(e["ph"] == "C" for e in sim)
        names = {e["name"] for e in sim}
        assert any(name.startswith("mem/") for name in names)
        assert any(name.startswith("pressure/") for name in names)
        cluster.close()

    def test_untraced_cluster_has_empty_route_log(self):
        cluster = ServingCluster.build(MODEL, H100, KV, 2)
        cluster.submit(forked_requests())
        cluster.run()
        assert cluster.route_log == []
        # A merged trace is still valid: meta lanes only, no spans.
        payload = cluster_chrome_trace(cluster)
        validate_chrome_trace(payload)
        assert all(e["ph"] == "M" for e in payload["traceEvents"])
        cluster.close()

    def test_write_cluster_trace_round_trips(self, tmp_path):
        cluster = traced_cluster()
        path = tmp_path / "cluster.json"
        payload = write_cluster_trace(str(path), cluster)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == len(payload["traceEvents"])
        cluster.close()


class TestClusterReport:
    def test_slo_percentiles_match_direct_computation(self):
        cluster = traced_cluster()
        report = ClusterReport.from_cluster(cluster)
        summary = cluster.summary()
        requests = [
            r for m in summary.per_replica.values() for r in m.requests
        ]
        assert report.slo["requests"] == len(requests) == 12
        assert report.slo["ttft_p50_s"] == percentile(
            [r.ttft for r in requests], 0.5
        )
        assert report.slo["e2e_p99_s"] == percentile(
            [r.e2el for r in requests], 0.99
        )
        tbt = [r.tpot for r in requests if r.output_len > 1]
        assert report.slo["tbt_p99_s"] == percentile(tbt, 0.99)
        cluster.close()

    def test_per_replica_counters_sum_to_cluster_aggregates(self):
        # Property: the report's aggregated counters must equal the sum of
        # the independent per-replica registries, and the per-replica
        # telemetry must agree with the cluster summary computed from
        # engine state -- two fully independent accounting paths.
        cluster = traced_cluster(num_replicas=3)
        report = ClusterReport.from_cluster(cluster)
        summary = cluster.summary()
        manual = {}
        for replica in cluster.replicas:
            for name, value in replica.registry.counters.items():
                manual[name] = manual.get(name, 0) + value
        assert report.counters == manual
        assert report.counters["requests/finished"] == summary.finished == 12
        assert report.counters["routing/requests"] == cluster.num_dispatched
        assert (report.counters["prefix/hit_tokens"]
                == summary.prefix_hit_tokens)
        assert (report.counters.get("preempt/victim", 0)
                + report.counters.get("preempt/self", 0)
                == summary.preemptions)
        routed = [
            report.counters.get(f"routing/replica/{r.replica_id}", 0)
            for r in cluster.replicas
        ]
        assert routed == list(summary.routed_counts)
        cluster.close()

    def test_rows_cover_every_replica(self):
        cluster = traced_cluster(num_replicas=3)
        report = ClusterReport.from_cluster(cluster)
        assert [row.replica_id for row in report.rows] == [
            "replica-0", "replica-1", "replica-2"
        ]
        assert sum(row.routed for row in report.rows) == 12
        assert sum(row.finished for row in report.rows) == 12
        for row in report.rows:
            assert 0.0 <= row.pressure_score <= 1.0
            assert set(row.gauges) == {
                name for name in row.gauges if name.startswith("pressure/")
            }
        cluster.close()

    def test_render_and_payload(self):
        cluster = traced_cluster()
        report = ClusterReport.from_cluster(cluster)
        text = render_cluster_reports([report])
        assert "hit rate by routing policy" in text
        assert "cache_aware" in text and "replica-1" in text
        assert "ttft_p50" in text
        md = cluster_markdown([report])
        assert md.count("| cache_aware |") == 2  # policy + slo tables
        payload = json.loads(json.dumps(cluster_reports_payload([report])))
        assert payload["policies"]["cache_aware"]["finished"] == 12
        assert "ttft_p99_s" in payload["policies"]["cache_aware"]["slo"]
        cluster.close()

    def test_slo_percentiles_empty(self):
        slo = slo_percentiles([])
        assert slo["requests"] == 0.0
        assert slo["ttft_p50_s"] == 0.0 and slo["e2e_p99_s"] == 0.0


class TestReplicaFold:
    """telemetry= / pressure= / resizing= select what the replica's one
    fold carries; each later keyword brings the earlier ones with it."""

    def build(self, **kwargs):
        return ServingCluster.build(MODEL, H100, KV, 1, **kwargs).replicas[0]

    def test_unobserved_replica_has_no_fold(self):
        replica = self.build()
        assert replica.telemetry is None and replica.registry is None
        assert not replica.events.has_subscribers(PageEvicted)

    def test_telemetry_alone_carries_no_views(self):
        replica = self.build(telemetry=True)
        assert replica.registry is replica.telemetry.registry
        assert replica.telemetry.pressure is None
        assert replica.telemetry.resizer is None

    def test_pressure_brings_the_fold(self):
        replica = self.build(pressure=True)
        assert replica.telemetry.pressure.registry is replica.registry
        assert replica.telemetry.resizer is None

    def test_resizing_brings_pressure_and_is_ticked_by_the_fold(self):
        cluster = ServingCluster.build(
            MODEL, H100, KV, 1, resizing="hysteresis", resize_interval=4,
            config=profile_config("vllm", record_memory=True),
        )
        replica = cluster.replicas[0]
        resizer = replica.telemetry.resizer
        assert resizer.monitor is replica.telemetry.pressure
        # The equal-split partition laid down at construction is counted.
        groups = len(replica.manager.allocator.groups)
        assert replica.registry.counters["resize/quota_resized"] == groups
        cluster.submit(forked_requests())
        cluster.run()
        steps = replica.registry.counters["engine/steps"]
        assert steps == len(replica.engine.steps) > 4
        assert resizer.num_decides == steps // 4
        assert "pressure/score" in replica.registry.gauges


class TestClusterTeardown:
    def test_close_detaches_monitors_idempotently(self):
        cluster = traced_cluster()
        replica = cluster.replicas[0]
        before = dict(replica.registry.counters)
        cluster.close()
        cluster.close()  # idempotent
        # A reused bus must not feed the dead registry anymore.
        replica.events.emit(
            RequestRouted("ghost", replica.replica_id, "cache_aware", 0)
        )
        replica.events.emit(PageEvicted("full", 1, "small"))
        assert replica.registry.counters == before
        # Nothing functional lives on the bus: with the observers gone no
        # page- or routing-level event has a subscriber left.
        assert not replica.events.has_subscribers(RequestRouted)
        assert not replica.events.has_subscribers(AdmissionBlocked)
        assert not replica.events.has_subscribers(PageEvicted)

    def test_registry_stays_readable_after_close(self):
        cluster = traced_cluster()
        cluster.close()
        report_text = render_cluster_reports(
            [ClusterReport.from_cluster(cluster)]
        )
        assert "cluster report" in report_text


class TestClusterReportCLI:
    ARGS = [
        "cluster-report", "--model", "llama3.2-1b", "--gpu", "h100",
        "--kv-gib", "0.25", "--replicas", "2", "--fanout", "2",
        "--families", "3", "--seed", "3",
    ]

    def test_text_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "hit rate by routing policy" in out
        assert "round_robin" in out and "cache_aware" in out
        assert "replica-0" in out and "replica-1" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["policies"]) == {
            "round_robin", "least_loaded", "cache_aware"
        }
        for report in payload["policies"].values():
            assert report["finished"] == 6
            assert "ttft_p99_s" in report["slo"]

    def test_trace_and_summary_files(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        summary = tmp_path / "summary.md"
        assert main(self.ARGS + [
            "--policies", "cache_aware",
            "--trace", str(trace), "--summary", str(summary),
        ]) == 0
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) > 0
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {CLUSTER_PID, 1, 2, 3, 4}
        md = summary.read_text()
        assert md.startswith("## Cluster report")
        assert "| cache_aware |" in md
