#!/usr/bin/env python
"""Quickstart: serve a heterogeneous model with Jenga vs the vLLM baseline.

Gemma-2 9B interleaves full-attention with 4096-token sliding-window
layers.  The homogeneous PagedAttention baseline must keep every token in
every layer; Jenga frees sliding-window KV outside the window, so more
requests fit and throughput rises.

Run:  python examples/quickstart.py
"""

from repro import H100, LLMEngine, get_model, kv_budget, make_manager
from repro.reporting import Table
from repro.workloads import arxiv_qa_long


def main() -> None:
    model = get_model("gemma2-9b")
    budget = kv_budget(model, H100)
    print(f"Serving {model.name} on {budget.gpu.name}:")
    print(f"  weights {budget.weight_bytes / 2**30:.1f} GiB, "
          f"KV cache {budget.kv_bytes / 2**30:.1f} GiB")
    print(f"  layer-type groups: {list(model.kv_groups())}")

    # Long-context QA: 24 requests averaging ~92k tokens.
    requests = arxiv_qa_long(24, seed=0)

    table = Table(
        ["system", "tokens/s", "avg decode batch", "preemptions", "steps"],
        title="\nvLLM v0.6.3 baseline vs Jenga (same engine, same scheduler)",
    )
    results = {}
    for system in ("vllm", "jenga"):
        manager = make_manager(
            system, model, budget.kv_bytes, enable_prefix_caching=False
        )
        engine = LLMEngine(model, H100, manager)
        engine.add_requests(arxiv_qa_long(24, seed=0))
        metrics = engine.run()
        results[system] = metrics
        table.add(
            system,
            f"{metrics.token_throughput():.0f}",
            f"{metrics.mean_decode_batch():.2f}",
            metrics.preemptions,
            len(metrics.steps),
        )
    table.print()
    speedup = results["jenga"].token_throughput() / results["vllm"].token_throughput()
    print(f"\nJenga speedup: {speedup:.2f}x "
          "(window KV freed outside the 4096-token window -> bigger batches)")


if __name__ == "__main__":
    main()
