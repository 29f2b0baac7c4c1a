"""Golden telemetry counters of ``report --json`` and ``cluster-report``.

The ``alloc/``, ``evict/`` and ``release/`` counters say which §5.4 step
served each page and how each victim was chosen (§5.1); ``prefix/``,
``requests/``, ``pressure/`` and ``mem/`` say what the engine and the pool
did around them.  All of them count events or read the simulated clock,
so they are exact: a change to how the telemetry learns them (reports or
counters read from the pool) must leave every value, and the key set, as
it is.  The wall-clock ``phase/*`` histograms are left out.

Four engine runs: jamba's Mamba and attention pages (steps 1-5 and both
eviction levels), llama3.2-vision's 4:1 cross/self pages, gemma2's
sliding window (steps 2/3 only), and a run in which every request fails
before any step completes.  The cluster run pins the summed replica
counters and each replica's pressure gauges, which the pressure view
derives from the per-step eviction deltas.
"""

import hashlib
import json

import pytest

from repro.cli import main

#: Run name -> ``report`` arguments.
RUNS = {
    "jamba_multiturn": ["--model", "jamba-52b", "--fp8", "--workload", "multiturn",
                        "--requests", "24", "--kv-gib", "2"],
    "vision_mmmu": ["--model", "llama3.2-vision-11b", "--workload", "mmmu",
                    "--requests", "24", "--kv-gib", "2"],
    "gemma_sharegpt": ["--model", "gemma2-9b", "--workload", "sharegpt",
                       "--requests", "40", "--kv-gib", "1"],
    "gemma_all_fail": ["--model", "gemma2-9b", "--workload", "longdoc",
                       "--requests", "6", "--kv-gib", "0.05"],
}

#: Recorded on 26d8f13, where the allocator reported every page to the
#: telemetry (ROADMAP item 19).  Timelines are the sha256 of their JSON.
GOLDEN = {
    "jamba_multiturn": {
        "counters": {
            "alloc/large_carved": 716, "alloc/pages": 16814,
            "alloc/step/1": 14754, "alloc/step/2": 337, "alloc/step/3": 379,
            "alloc/step/4": 1297, "alloc/step/5": 47,
            "engine/steps": 412,
            "evict/group/mamba": 346, "evict/group/self_attn": 80,
            "evict/large": 379, "evict/priority/aligned": 426, "evict/small": 47,
            "preempt/self": 5, "preempt/victim": 49,
            "prefix/hit_tokens": 148480, "prefix/lookup_tokens": 2641088,
            "prefix/lookups": 160,
            "pressure/admission_blocked": 82,
            "release/cached": 7628, "release/freed": 10183,
            "requests/admitted": 78, "requests/finished": 24, "requests/queued": 78,
        },
        "gauges": {
            "mem/evictable": 973864960, "mem/free": 726663168, "mem/used": 0,
            "mem/waste": 446955520, "pressure/queue_depth": 10.0,
        },
        "timelines": {
            "mem/evictable": "a4519a159b2f6674", "mem/free": "477352d52f47bbc1",
            "mem/used": "2b8c3ce3b2f0fa87", "mem/waste": "4068b89d480eb04c",
        },
    },
    "vision_mmmu": {
        "counters": {
            "alloc/large_carved": 2641, "alloc/pages": 9744,
            "alloc/step/1": 7060, "alloc/step/2": 1065, "alloc/step/3": 1576,
            "alloc/step/4": 41, "alloc/step/5": 2,
            "engine/steps": 404,
            "evict/group/cross_attn": 1437, "evict/group/self_attn": 141,
            "evict/large": 1576, "evict/priority/aligned": 1578, "evict/small": 2,
            "preempt/self": 11, "preempt/victim": 78,
            "prefix/hit_tokens": 20288, "prefix/lookup_tokens": 1168210,
            "prefix/lookups": 187,
            "pressure/admission_blocked": 74,
            "release/cached": 10955, "release/freed": 94,
            "requests/admitted": 113, "requests/finished": 24, "requests/queued": 113,
        },
        "gauges": {
            "mem/evictable": 2136997888, "mem/free": 4194304, "mem/used": 0,
            "mem/waste": 6291456, "pressure/queue_depth": 1.0,
        },
        "timelines": {
            "mem/evictable": "59983061514b79d4", "mem/free": "c232de822e7d12ed",
            "mem/used": "f08b67f9535aa7e9", "mem/waste": "5d133b1a992087fc",
        },
    },
    "gemma_sharegpt": {
        "counters": {
            "alloc/large_carved": 5556, "alloc/pages": 5556,
            "alloc/step/2": 486, "alloc/step/3": 5070,
            "engine/steps": 3418,
            "evict/group/self_attn": 2641, "evict/group/sliding_window:4096": 2429,
            "evict/large": 5070, "evict/priority/aligned": 5070,
            "preempt/self": 17, "preempt/victim": 70,
            "prefix/hit_tokens": 6928, "prefix/lookup_tokens": 1045380,
            "prefix/lookups": 519,
            "pressure/admission_blocked": 392,
            "release/cached": 6324, "release/freed": 98,
            "requests/admitted": 125, "requests/failed": 2, "requests/finished": 38,
            "requests/queued": 127,
        },
        "gauges": {
            "mem/evictable": 1067974656, "mem/free": 5505024, "mem/used": 0,
            "mem/waste": 262144, "pressure/queue_depth": 1.0,
        },
        "timelines": {
            "mem/evictable": "40c7dd6415abddb9", "mem/free": "d5f0704754233f2c",
            "mem/used": "f1596af53d91fff5", "mem/waste": "b01993c381efb2d7",
        },
    },
    "gemma_all_fail": {
        "counters": {
            "prefix/hit_tokens": 0, "prefix/lookup_tokens": 489627, "prefix/lookups": 6,
            "requests/failed": 6, "requests/queued": 6,
        },
        "gauges": {},
        "timelines": {},
    },
}

#: ``cluster-report --fanout 16``: policy -> sha256 of its summed counters
#: and per-replica pressure gauges (recorded with ``GOLDEN``).
CLUSTER_GOLDEN = {
    "round_robin": "47d98e4e942f6dc5",
    "least_loaded": "a4a3994e5c736c4c",
    "cache_aware": "b2ca29dfb2edbafe",
}


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def _json_of(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_counters_match_golden(name, capsys):
    telemetry = _json_of(capsys, ["report", *RUNS[name], "--json"])["telemetry"]
    assert {
        "counters": telemetry["counters"],
        "gauges": telemetry["gauges"],
        "timelines": {key: _digest(series) for key, series in telemetry["timelines"].items()},
    } == GOLDEN[name]


def test_cluster_counters_and_pressure_gauges_match_golden(capsys):
    payload = _json_of(capsys, ["cluster-report", "--fanout", "16", "--json"])
    assert {
        policy: _digest({
            "counters": report["counters"],
            "gauges": [row["gauges"] for row in report["rows"]],
        })
        for policy, report in payload["policies"].items()
    } == CLUSTER_GOLDEN
