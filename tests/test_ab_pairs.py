"""The alternating-pairs runner's verdict (``benchmarks/ab_pairs.py``)."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT = [2.149, 2.040, 2.354, 2.10, 2.20, 2.30, 2.05, 2.25, 2.12, 2.18]


class TestVerdict:
    def test_quartiles(self):
        assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_ten_wins_beyond_the_spread_is_a_gain(self):
        change = [p * 0.78 for p in PARENT]
        assert ab_pairs.verdict(PARENT, change) == "gain"
        assert ab_pairs.verdict(change, PARENT) == "loss"

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [p * 0.78 for p in PARENT]
        change[0] = PARENT[0] + 0.1
        assert ab_pairs.verdict(PARENT, change) == "gain"
        change[1] = PARENT[1] + 0.1
        assert ab_pairs.verdict(PARENT, change) == "no claim"

    def test_every_pair_won_inside_the_spread_is_no_claim(self):
        q1, median, q3 = ab_pairs.quartiles(PARENT)
        change = [p - 0.5 * (q3 - q1) / len(PARENT) for p in PARENT]
        assert all(c < p for p, c in zip(PARENT, change))
        assert ab_pairs.verdict(PARENT, change) == "no claim"

    def test_identical_runs_are_no_claim(self):
        assert ab_pairs.verdict(PARENT, PARENT) == "no claim"

    def test_fewer_than_ten_pairs_is_no_claim(self):
        assert ab_pairs.verdict(PARENT[:9], [p * 0.5 for p in PARENT[:9]]) == "no claim"
        assert ab_pairs.verdict([1.0], [0.5]) == "no claim"


def run(correct=True, failed=0, sim_digest="d"):
    return {"host_wall_s": 1.0, "sim_digest": sim_digest, "correct": correct, "failed": failed}


class TestProblems:
    def test_clean_runs_can_back_a_verdict(self):
        assert ab_pairs.problems([run(failed=2)] * 3, [run(failed=1)] * 3) == []

    def test_a_failed_check_on_either_side_voids_it(self):
        assert ab_pairs.problems([run(), run(correct=False)], [run(), run()]) == [
            "parent: a run reported CHECK FAILED"
        ]
        assert ab_pairs.problems([run()], [run(correct=False)]) == [
            "change: a run reported CHECK FAILED"
        ]

    def test_more_failed_requests_on_the_change_voids_it(self):
        assert ab_pairs.problems([run(failed=1)], [run(failed=2)]) == [
            "change: more failed requests than the parent"
        ]

    def test_different_simulations_void_it(self):
        assert ab_pairs.problems([run()], [run(sim_digest="e")]) == [
            "sim_digest differs between runs"
        ]
