"""GCD-page baseline (Section 4.4's first alternative).

Using the greatest common divisor of all page sizes as the compatible page
eliminates internal fragmentation entirely -- but a small page then spans
multiple non-contiguous GCD pages, so the efficient attention kernels that
require contiguous KV along specific tensor dimensions no longer apply.
MuxServe avoids this only by restricting itself to models with identical
per-head sizes.

Capacity-wise GCD behaves like a fragmentation-free allocator, which
Jenga's request-aware LCM allocation already approximates to within a
fraction of a percent; the *distinguishing* cost is kernel efficiency.  We
therefore model GCD as the LCM mechanics plus a kernel slowdown applied to
attention time in the cost model (:attr:`GCDPageManager.kernel_slowdown`).
The 2x penalty is conservative relative to the gap the paper
describes between custom-layout kernels and FlashAttention-class kernels.
"""

from __future__ import annotations

from ..core.kv_manager import JengaKVCacheManager

__all__ = ["GCDPageManager"]


class GCDPageManager(JengaKVCacheManager):
    """Fragmentation-free but kernel-inefficient compatibility layer."""

    name = "gcd"

    @property
    def kernel_slowdown(self) -> float:
        return 2.0
