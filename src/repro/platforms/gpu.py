"""GPU platform envelopes.

The evaluation (Section 7.1) runs on two platforms; we model each as a
memory capacity plus a compute/bandwidth roofline for the analytic cost
model.  Dense (non-sparsity) FLOPs figures are used.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.config import GIB, ModelSpec

__all__ = ["GPU", "H100", "L4", "KVBudget", "kv_budget", "OutOfMemoryError"]


class OutOfMemoryError(Exception):
    """The model does not fit on the platform (e.g. Jamba 52B on L4)."""


@dataclass(frozen=True)
class GPU:
    """A GPU's serving-relevant envelope.

    Attributes:
        name: Platform identifier.
        memory_bytes: Total HBM.
        flops: Dense FP16/BF16 FLOP/s.
        hbm_bandwidth: Bytes/s of HBM bandwidth.
        memory_utilization: Fraction of HBM the engine may use (vLLM's
            ``gpu_memory_utilization``, default 0.9).
        reserved_bytes: Engine overhead -- activations, CUDA graphs, NCCL
          buffers (the paper's "reserved" slice in Figure 16).
    """

    name: str
    memory_bytes: int
    flops: float
    hbm_bandwidth: float
    memory_utilization: float = 0.9
    reserved_bytes: int = 2 * GIB

    def usable_bytes(self) -> int:
        return int(self.memory_bytes * self.memory_utilization)


H100 = GPU(
    name="H100",
    memory_bytes=80 * GIB,
    flops=989e12,
    hbm_bandwidth=3.35e12,
    reserved_bytes=3 * GIB,
)

L4 = GPU(
    name="L4",
    memory_bytes=24 * GIB,
    flops=121e12,
    hbm_bandwidth=300e9,
    reserved_bytes=int(1.5 * GIB),
)


@dataclass(frozen=True)
class KVBudget:
    """Memory split of a (model, platform) deployment."""

    gpu: GPU
    weight_bytes: int
    reserved_bytes: int
    kv_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.gpu.memory_bytes


def kv_budget(model: ModelSpec, gpu: GPU, extra_models: tuple = ()) -> KVBudget:
    """KV-cache bytes left after weights and engine reservations.

    ``extra_models`` adds further weight footprints sharing the GPU
    (speculative decoding loads draft and target together).

    Raises :class:`OutOfMemoryError` when nothing is left -- the paper's
    Jamba-on-L4 "OOM" table entry.
    """
    weights = model.weight_bytes + sum(m.weight_bytes for m in extra_models)
    kv = gpu.usable_bytes() - weights - gpu.reserved_bytes
    if kv <= 0:
        raise OutOfMemoryError(
            f"{model.name} (+{len(extra_models)} extra) needs {weights / GIB:.1f} GiB "
            f"weights but {gpu.name} offers {gpu.usable_bytes() / GIB:.1f} GiB usable"
        )
    return KVBudget(gpu=gpu, weight_bytes=weights, reserved_bytes=gpu.reserved_bytes, kv_bytes=kv)
