"""Self-test of the benchmark at a tiny scale: ``pytest benchmarks/e2e``.

Tier-1 collects only ``tests/``, so these do not run (or count) there.
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
from trace import Proxy, Recorder  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
TINY = 0.05


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_and_outputs_check(workload, trace):
    result, extras = run.measure(workload, seed=3, seconds=0.2, trace=trace, scale=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], extras["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(wanted) <= set(result["metrics"])
    for name in wanted:
        assert isinstance(result["metrics"][name], (int, float)), name
    if not trace:
        assert all(result["metrics"][name] > 0 for name in wanted)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_proxies_change_no_simulated_value_and_self_times_sum_to_root(workload):
    spec = WORKLOADS[workload]
    inputs = make_inputs(spec, seed=5, scale=TINY)
    plain = run.run_rates(spec, inputs)
    recorder = Recorder()
    traced = run.run_rates(spec, inputs, recorder=recorder)
    assert run.sim_differences(plain, traced) == 0
    assert run.digest([r.sim for r in plain]) == run.digest([r.sim for r in traced])
    spans = recorder.aggregate()
    assert spans["engine.step"]["calls"] == sum(r.sim["steps"] for r in traced)
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(
        recorder.root_seconds(), rel=1e-9
    )
    assert recorder.root_seconds() <= sum(r.wall_s for r in traced)


def test_proxy_forwards_reads_and_writes():
    class Target:
        def __init__(self):
            self.value = 1

        def work(self, request):
            return [request, self.value]

    target, recorder = Target(), Recorder()
    proxy = Proxy(target, recorder, "layer", {"work": 0})
    proxy.value = 7
    assert target.value == 7 and proxy.value == 7
    assert proxy.work("req-1") == ["req-1", 7]
    assert recorder.finished()[0][0] == "layer.work"
    assert recorder.finished()[0][4:] == ("req-1", 2)
    assert recorder.chrome_trace()["traceEvents"][0]["args"] == {"request": "req-1"}


def test_inputs_come_from_the_seed_alone():
    for spec in WORKLOADS.values():
        a, b = make_inputs(spec, 1, TINY), make_inputs(spec, 1, TINY)
        assert a.digest == b.digest and a.arrivals == b.arrivals
        assert [s.prompt_len for s in a.specs] == [s.prompt_len for s in b.specs]
        assert make_inputs(spec, 2, TINY).digest != a.digest
        assert len(a.arrivals) == max(1, len(spec.rates))
    for module in ("workloads.py", "harness.py", "trace.py", "run.py"):
        with open(os.path.join(HERE, module)) as f:
            source = f.read()
        assert not re.search(r"^\s*(from|import) repro\.(workloads|bench)", source, re.M)


def test_ledger_and_compare(tmp_path):
    ledger_path = str(tmp_path / "ledger.json")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "0", "--seconds", "0.2",
         "--scale", str(TINY), "--out", ledger_path],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout
    with open(ledger_path) as f:
        ledger = json.load(f)
    assert ledger["correct"] and list(ledger["workloads"]) == list(WORKLOADS)
    for entry in ledger["workloads"].values():
        assert len(entry["end_to_end"]) == len(SPEC["end_to_end"])
        assert len(entry["per_layer"]) == len(SPEC["per_layer"])
        assert entry["end_to_end_extras"]["input_digest"] == entry["per_layer_extras"]["input_digest"]
        assert entry["end_to_end_extras"]["sim_digest"] == entry["per_layer_extras"]["sim_digest"]

    # Same file twice: nothing can be worse.  Noise-free stand-in for repeats.
    for entry in ledger["workloads"].values():
        entry["end_to_end_extras"]["host_wall_s_repeats"] = [1.0, 1.0]
    assert compare.compare(ledger, ledger, SPEC) == []
    slower = copy.deepcopy(ledger)
    slower["workloads"]["text_pressure"]["end_to_end"]["host_wall_s"]["value"] *= 2
    slower["workloads"]["cluster_fanout"]["end_to_end"]["sim_tokens_per_s"]["value"] /= 2
    assert compare.compare(ledger, slower, SPEC) == [
        "text_pressure/host_wall_s", "cluster_fanout/sim_tokens_per_s"
    ]
