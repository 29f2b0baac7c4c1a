"""Tests for the command-line interface."""

import pytest

from repro.baselines import SYSTEMS
from repro.cli import main, make_parser
from repro.serving import ROUTING_POLICIES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["teleport"])


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "jamba-52b" in out
        assert "llama3-8b" in out

    def test_groups(self, capsys):
        assert main(["groups", "--model", "gemma2-9b"]) == 0
        out = capsys.readouterr().out
        assert "sliding_window:4096" in out
        assert "self_attn" in out

    def test_groups_fp8(self, capsys):
        assert main(["groups", "--model", "llama3-70b", "--fp8"]) == 0

    def test_throughput_small(self, capsys):
        assert main([
            "throughput", "--model", "llama3-8b", "--workload", "sharegpt",
            "--requests", "8", "--kv-gib", "2", "--systems", "vllm,jenga",
        ]) == 0
        out = capsys.readouterr().out
        assert "vllm" in out and "jenga" in out

    def test_throughput_counts_preemptions_of_failed_requests(self, capsys, monkeypatch):
        """In a 32 MiB pool (16 pages, 8 of them watermark), s0's decode
        growth preempts s1, whose recompute prompt then needs 9 pages and
        fails even with the pool empty.  The "preempt" column is the
        engine's tally, so s1's preemption counts although s1 never
        finished."""
        from repro.engine import Request
        from repro.workloads import token_block

        def two_requests(name, n, model, seed):
            return [Request.text(f"s{i}", token_block(0, "s", i, 100), 40) for i in range(2)]

        monkeypatch.setattr("repro.cli.build_workload", two_requests)
        assert main([
            "throughput", "--model", "llama3-8b", "--kv-gib", "0.03125",
            "--systems", "jenga",
        ]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[0] == "jenga" and row[-2:] == ["1", "1"]  # preempt, failed

    def test_latency_small(self, capsys):
        assert main([
            "latency", "--model", "llama3-8b", "--workload", "sharegpt",
            "--requests", "6", "--kv-gib", "2", "--rate", "2.0",
        ]) == 0
        assert "TTFT" in capsys.readouterr().out

    def test_specdecode_small(self, capsys):
        assert main([
            "specdecode", "--target", "llama3-8b", "--draft", "llama3.2-1b",
            "--requests", "6", "--kv-gib", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "vllm-manual" in out

    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        assert main([
            "trace", "--model", "llama3-8b", "--workload", "sharegpt",
            "--requests", "4", "--kv-gib", "2", "--output", str(out_path),
        ]) == 0
        assert "trace events" in capsys.readouterr().out
        with open(out_path) as f:
            payload = json.load(f)
        assert validate_chrome_trace(payload) > 0
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"step", "schedule", "allocate", "commit"} <= names
        # Simulated-clock memory counters ride on their own process.
        assert any(e["name"].startswith("mem/") for e in payload["traceEvents"])

    def test_report_text(self, capsys):
        assert main([
            "report", "--model", "llama3-8b", "--workload", "sharegpt",
            "--requests", "4", "--kv-gib", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "phase/schedule" in out
        assert "engine/steps" in out

    def test_report_json(self, capsys):
        import json

        assert main([
            "report", "--model", "llama3-8b", "--workload", "sharegpt",
            "--requests", "4", "--kv-gib", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["counters"]["engine/steps"] > 0
        assert payload["engine"]["requests_finished"] == 4

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["throughput", "--model", "llama3-8b", "--workload", "secret"])

    def test_unknown_system_lists_registered(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["throughput", "--model", "llama3-8b", "--systems",
                  "vllm,triton", "--requests", "1"])
        assert exc.value.code == 2
        message = capsys.readouterr().err
        assert "triton" in message
        assert all(name in message for name in SYSTEMS)

    def test_empty_systems_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["latency", "--model", "llama3-8b", "--systems", " , ",
                  "--requests", "1"])
        assert exc.value.code == 2
        assert "jenga" in capsys.readouterr().err


class TestUsageErrors:
    """Bad names and out-of-range numbers stop at parse time: exit 2, with
    the valid names or the rule on stderr, before any run starts."""

    ENGINE = ["--model", "llama3-8b", "--requests", "1", "--kv-gib", "1"]
    SPEC = ["--target", "llama3-8b", "--draft", "llama3.2-1b", "--requests", "1"]
    CLUSTER = ["--replicas", "1", "--fanout", "1", "--families", "1"]

    @pytest.mark.parametrize("argv, expected", [
        (["report", *ENGINE, "--system", "nope"], SYSTEMS),
        (["trace", *ENGINE, "--system", "nope"], SYSTEMS),
        (["cluster-report", *CLUSTER, "--policies", "nope"], ROUTING_POLICIES),
        (["cluster-report", *CLUSTER, "--policies", ""], ROUTING_POLICIES),
        (["cluster-report", *CLUSTER, "--replicas", "0"], ["positive integer"]),
        (["latency", *ENGINE, "--rate", "0"], ["positive number"]),
        (["cluster-report", *CLUSTER, "--rate", "0"], ["positive number"]),
        (["specdecode", *SPEC, "--acceptance", "1.5"], ["probability"]),
        (["throughput", *ENGINE, "--kv-gib", "-1"], ["positive number"]),
        (["specdecode", *SPEC, "--k", "-1"], ["positive integer"]),
        (["cluster-report", *CLUSTER, "--fanout", "0"], ["positive integer"]),
        (["cluster-report", *CLUSTER, "--families", "0"], ["positive integer"]),
    ], ids=[
        "report-system", "trace-system", "cluster-policies",
        "cluster-empty-policies", "cluster-replicas", "latency-rate",
        "cluster-rate", "specdecode-acceptance", "throughput-kv-gib",
        "specdecode-k", "cluster-fanout", "cluster-families",
    ])
    def test_usage_error(self, capsys, argv, expected):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in expected), err
