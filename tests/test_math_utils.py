"""Tests for page-size arithmetic (the LCM compatibility layer)."""

import pytest

from repro.core.math_utils import lcm_blowup, lcm_of


class TestLcmOf:
    def test_paper_example(self):
        # Section 1: embeddings of 2KB and 3KB -> 6KB compatible page.
        assert lcm_of([2048, 3072]) == 6144

    def test_single_size(self):
        assert lcm_of([4096]) == 4096

    def test_identical_sizes(self):
        assert lcm_of([256, 256, 256]) == 256

    def test_coprime_sizes(self):
        assert lcm_of([7, 11]) == 77

    def test_one_divides_other(self):
        assert lcm_of([256, 1024]) == 1024

    def test_three_sizes(self):
        assert lcm_of([4, 6, 10]) == 60

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            lcm_of([])

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            lcm_of([0, 4])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            lcm_of([-4, 4])


class TestBlowup:
    def test_paper_jamba_bound(self):
        # The paper reports the worst LCM across vLLM models is 84x
        # (Jamba); check the arithmetic that statement relies on.
        attn_page = 16 * 16384  # 16 tokens x 16 KiB
        mamba_page = 1344 * 16384
        assert lcm_blowup([attn_page, mamba_page]) == 84

    def test_identical_is_one(self):
        assert lcm_blowup([512, 512]) == 1
