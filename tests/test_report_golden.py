"""Golden values of the cluster report CLI, one run per routing policy.

``cluster-report`` serves the forked-prefix fan-out workload on four
gemma2-9b replicas (a quarter of the L4 budget each) once per routing
policy.  Everything checked here runs on the simulated clock or counts
events, so it is exact: the values were recorded by the allocator
microbenchmark this test replaces, and a run that moves any of them
changed what the router or the scheduler did.
"""

import json

import pytest

from repro.cli import main

#: ``slo/fanout=F/<policy>/<axis>``: cluster SLO percentiles (simulated s).
#: ``pressure/fanout=F/<policy>/<count>``: admission blocks and preemptions.
GOLDEN = {
    "slo/fanout=4/round_robin/ttft_p50_s": 0.1550709532087553,
    "slo/fanout=4/round_robin/ttft_p99_s": 0.2382143809222328,
    "slo/fanout=4/round_robin/tbt_p99_s": 0.09577962896725449,
    "slo/fanout=4/round_robin/e2e_p99_s": 1.5917653877175726,
    "slo/fanout=4/least_loaded/ttft_p50_s": 0.17441471249175977,
    "slo/fanout=4/least_loaded/ttft_p99_s": 0.2382143809222328,
    "slo/fanout=4/least_loaded/tbt_p99_s": 0.09630707205392548,
    "slo/fanout=4/least_loaded/e2e_p99_s": 1.638987104061203,
    "slo/fanout=4/cache_aware/ttft_p50_s": 0.12593504240574793,
    "slo/fanout=4/cache_aware/ttft_p99_s": 0.19438102325232065,
    "slo/fanout=4/cache_aware/tbt_p99_s": 0.09122690266829174,
    "slo/fanout=4/cache_aware/e2e_p99_s": 1.5234744932331314,
    "slo/fanout=16/round_robin/ttft_p50_s": 0.1413125882527808,
    "slo/fanout=16/round_robin/ttft_p99_s": 0.2382143809222328,
    "slo/fanout=16/round_robin/tbt_p99_s": 0.09577962896725449,
    "slo/fanout=16/round_robin/e2e_p99_s": 1.5917653877175726,
    "slo/fanout=16/least_loaded/ttft_p50_s": 0.19122213401809418,
    "slo/fanout=16/least_loaded/ttft_p99_s": 1.7873610083209766,
    "slo/fanout=16/least_loaded/tbt_p99_s": 0.10568040780698133,
    "slo/fanout=16/least_loaded/e2e_p99_s": 3.107311322987645,
    "slo/fanout=16/cache_aware/ttft_p50_s": 0.1323852076823755,
    "slo/fanout=16/cache_aware/ttft_p99_s": 0.19438102325232065,
    "slo/fanout=16/cache_aware/tbt_p99_s": 0.09122690266829174,
    "slo/fanout=16/cache_aware/e2e_p99_s": 1.5282217182601663,
    "pressure/fanout=4/round_robin/admission_blocked": 0,
    "pressure/fanout=4/round_robin/preemptions": 0,
    "pressure/fanout=4/least_loaded/admission_blocked": 0,
    "pressure/fanout=4/least_loaded/preemptions": 0,
    "pressure/fanout=4/cache_aware/admission_blocked": 0,
    "pressure/fanout=4/cache_aware/preemptions": 0,
    "pressure/fanout=16/round_robin/admission_blocked": 0,
    "pressure/fanout=16/round_robin/preemptions": 0,
    "pressure/fanout=16/least_loaded/admission_blocked": 19,
    "pressure/fanout=16/least_loaded/preemptions": 2,
    "pressure/fanout=16/cache_aware/admission_blocked": 0,
    "pressure/fanout=16/cache_aware/preemptions": 0,
}


def _json_of(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def cluster_values(capsys, fanout):
    payload = _json_of(capsys, ["cluster-report", "--fanout", str(fanout), "--json"])
    values = {}
    for policy, report in payload["policies"].items():
        for axis in ("ttft_p50_s", "ttft_p99_s", "tbt_p99_s", "e2e_p99_s"):
            values[f"slo/fanout={fanout}/{policy}/{axis}"] = report["slo"][axis]
        for count in ("admission_blocked", "preemptions"):
            values[f"pressure/fanout={fanout}/{policy}/{count}"] = report["pressure"][count]
    return values


#: Golden-key fragment -> the CLI run that produces those keys.
RUNS = {
    "fanout=4/": lambda capsys: cluster_values(capsys, 4),
    "fanout=16/": lambda capsys: cluster_values(capsys, 16),
}


@pytest.mark.parametrize("fragment", sorted(RUNS))
def test_report_matches_golden(fragment, capsys):
    expected = {key: value for key, value in GOLDEN.items() if fragment in key}
    assert RUNS[fragment](capsys) == expected


def test_every_golden_value_is_checked_once():
    assert sorted(sum(fragment in key for fragment in RUNS) for key in GOLDEN) == [1] * 36
