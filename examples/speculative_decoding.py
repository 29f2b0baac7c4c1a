#!/usr/bin/env python
"""Speculative decoding: one memory pool for two models (Section 6.1).

A 1B draft proposes tokens; Llama-3 8B verifies.  Their per-token KV sizes
differ 4x, so the memory manager must serve two size profiles at once.
Compares the three schemes of Figure 19:

* vLLM-max     -- one uniform page sized for the target model;
* vLLM-manual  -- SmartSpec's static split between the two models;
* Jenga        -- one LCM pool, both models' groups share pages.

Run:  python examples/speculative_decoding.py
"""

from repro import SpecDecodeEngine, get_model, make_spec_manager
from repro.models import GIB
from repro.platforms import H100
from repro.reporting import Table
from repro.workloads import sharegpt


def main() -> None:
    draft = get_model("llama3.2-1b")
    target = get_model("llama3-8b")
    print(f"draft {draft.name}: {draft.kv_bytes_per_token_alllayers()} B/token KV")
    print(f"target {target.name}: {target.kv_bytes_per_token_alllayers()} B/token KV")

    kv = 2 * GIB  # deliberately tight so the memory scheme matters
    table = Table(
        ["scheme", "output tok/s", "avg decode batch", "preemptions"],
        title="\nSpeculative decoding (k=4, acceptance 0.7), ShareGPT workload",
    )
    for system in ("vllm-max", "vllm-manual", "jenga"):
        manager = make_spec_manager(system, draft, target, kv)
        engine = SpecDecodeEngine(
            draft, target, H100, manager,
            num_speculative_tokens=4, acceptance_rate=0.7, seed=0,
        )
        engine.add_requests(sharegpt(96, seed=2))
        metrics = engine.run()
        table.add(
            system,
            f"{metrics.output_throughput():.0f}",
            f"{metrics.mean_decode_batch():.1f}",
            metrics.preemptions,
        )
    table.print()
    print(
        "\nJenga allocates both models' pages from one LCM pool, matching\n"
        "the hand-tuned static split on homogeneous models and beating it\n"
        "on heterogeneous ones (Figure 19)."
    )


if __name__ == "__main__":
    main()
