"""Section 4.4 ablation -- choice of the compatibility page size.

Serves Jamba (attention + Mamba, the most heterogeneous page geometry in
vLLM's zoo) with ShareGPT-length requests under the three designs:

* ``GCD``: fragmentation-free but kernel-inefficient (custom non-contiguous
  layouts; modelled as a 2x attention slowdown);
* ``MAX``: one page the size of the Mamba state; attention pages carry
  dead padding unless tokens-per-page is inflated to 1344;
* ``LCM`` (Jenga): fast kernels and negligible fragmentation via
  request-aware allocation.

Also reports the static geometry facts the paper quotes: LCM = 84x the
small page; MAX needs 1344 tokens per attention page.
"""

import pytest

from repro import get_model, kv_budget
from repro.core.math_utils import lcm_blowup
from repro.platforms import H100
from repro.reporting import Table
from repro.workloads import arxiv_qa_long, sharegpt

from common import save_result, serve

SYSTEMS = ("jenga", "max", "gcd")


def run_all():
    out = {}
    # Jamba + ShareGPT: the MAX design's fragmentation dominates.
    model = get_model("jamba-52b", quantized=True)
    kv = kv_budget(model, H100).kv_bytes
    reqs = sharegpt(192, seed=6)  # mean 1085 tokens, the paper's reference
    for system in SYSTEMS:
        _, m = serve(model, H100, system, reqs, kv_bytes=kv,
                     enable_prefix_caching=False)
        out[("jamba", system)] = m
    # Ministral + long context: attention dominates step time, so the GCD
    # design's kernel inefficiency shows.
    model = get_model("ministral-8b")
    kv = kv_budget(model, H100).kv_bytes
    reqs = arxiv_qa_long(16, seed=6)
    for system in SYSTEMS:
        _, m = serve(model, H100, system, reqs, kv_bytes=kv,
                     enable_prefix_caching=False)
        out[("ministral", system)] = m
    return out


def test_sec44_pagesize(benchmark):
    model = get_model("jamba-52b")
    groups = model.kv_groups(tokens_per_page=16)
    sizes = [g.page_bytes for g in groups.values()]
    blowup = lcm_blowup(sizes)
    # Tokens per attention page if MAX filled its page with tokens, not padding.
    coarse = max(sizes) // groups["self_attn"].per_token_bytes

    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        ["design", "tok/s", "avg decode batch", "note"],
        title="Section 4.4 ablation: compatibility page size on Jamba "
              f"(LCM is {blowup}x the small page; MAX would need {coarse} "
              "tokens per attention page -- both match the paper)",
    )
    notes = {
        "jenga": "LCM + request-aware (the paper's design)",
        "max": "uniform max page (internal fragmentation)",
        "gcd": "GCD page (2x attention-kernel slowdown)",
    }
    names = {"jenga": "LCM", "max": "MAX", "gcd": "GCD"}
    for model_key in ("jamba", "ministral"):
        for system in SYSTEMS:
            m = out[(model_key, system)]
            table.add(f"{model_key}/{names[system]}",
                      f"{m.token_throughput():.0f}",
                      f"{m.mean_decode_batch():.1f}",
                      notes[system])
    table.print()
    save_result("sec44_pagesize", table.render())

    assert blowup == 84  # the paper's worst-case LCM
    assert coarse == 1344  # the paper's MAX workaround figure
    # MAX fragments Jamba; GCD slows long-context attention.
    assert out[("jamba", "jenga")].token_throughput() > 1.2 * out[
        ("jamba", "max")].token_throughput()
    assert out[("ministral", "jenga")].token_throughput() > 1.05 * out[
        ("ministral", "gcd")].token_throughput()
