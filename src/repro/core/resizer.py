"""Elastic pool repartitioning: the ``PoolResizer`` control loop.

The sensing half of the ROADMAP's elastic-repartitioning item shipped
with :class:`~repro.obs.pressure.PressureMonitor`: per-replica EWMA rates
for admission blocks, evictions, and preemptions, condensed into a
composite ``pressure/score`` gauge.  This module is the actuator.
:class:`PoolResizer` is ticked once per engine step (``on_step()``, by the
:class:`~repro.obs.registry.BusTelemetry` fold right after it refreshed
the monitor), and every ``interval`` steps folds the monitor's per-group
pressure components together with the allocator's live ownership counters
into a :class:`GroupPressure` observation per group, asks its
:class:`ResizePolicy` for desired quotas, and applies the changes through
:meth:`~repro.core.two_level.TwoLevelAllocator.set_quota` -- which
deflates over-quota groups (fully-evictable large pages first), moves the
allocator ``version`` admission is keyed on, and publishes one guarded
:class:`~repro.core.events.QuotaResized` record per move, so telemetry
counters and Chrome-trace timelines see every resize.

Three registered policies make elastic and fixed partitioning comparable
on the same workload (``benchmarks/bench_allocator.py``'s elastic sweep):

* ``static`` -- pin the construction-time partition and never move it
  (the fixed-quota baseline);
* ``proportional`` -- re-apportion the whole pool to demand weights
  (pinned large pages + an eviction-rate boost) every interval;
* ``hysteresis`` -- proportional targets behind a Schmitt-style gate:
  no move while the composite pressure score sits inside the dead-band
  around the set-point, per-group minimum dwell between moves, and a
  minimum per-move delta, so alternating traffic cannot thrash quotas.

The monitor is typed structurally (:class:`PressureSource`) so
``repro.core`` stays import-free of ``repro.obs``; anything exposing
``score`` and ``group_eviction_rates()`` can drive the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Tuple, Union

from .two_level import TwoLevelAllocator

__all__ = [
    "GroupPressure",
    "HysteresisPolicy",
    "PoolResizer",
    "PressureSource",
    "ProportionalPolicy",
    "RESIZE_POLICIES",
    "ResizePolicy",
    "make_resize_policy",
]


class PressureSource(Protocol):
    """Structural slice of ``PressureMonitor`` the control loop reads."""

    score: float

    def group_eviction_rates(self) -> Dict[str, float]:
        """Per-group EWMA eviction rates (events/step)."""
        ...


@dataclass(frozen=True)
class GroupPressure:
    """One group's observation for a resize decision.

    ``used_large`` is the group's pinned demand in large-page units
    (``ceil(n_used / small_per_large)``); ``eviction_rate`` is the
    monitor's EWMA evictions/step for the group -- the leading indicator
    that the group is churning inside a too-small quota.
    """

    group_id: str
    quota: Optional[int]
    owned: int
    used_large: int
    eviction_rate: float


class ResizePolicy:
    """Base policy and the registered ``static`` baseline.

    :meth:`decide` returns desired quotas for the groups it wants to
    *move*; an empty dict leaves the current partition alone.  ``static``
    never moves: it pins whatever partition the resizer laid down at
    construction, making it the fixed-quota baseline the elastic policies
    are benchmarked against.
    """

    name = "static"

    def __init__(self, min_quota: int = 1) -> None:
        self.min_quota = min_quota

    def decide(
        self,
        pressure: List[GroupPressure],
        total_large: int,
        score: float,
        step: int,
    ) -> Dict[str, int]:
        return {}


class ProportionalPolicy(ResizePolicy):
    """Re-apportion the pool to demand weights every interval.

    Weight of group ``g`` is ``used_large + eviction_boost * eviction_rate``:
    pinned pages anchor the share, the eviction rate pulls quota toward
    groups churning against their cap.  Shares are integerized by
    largest-remainder apportionment over the pool minus the per-group
    ``min_quota`` floors, so desired quotas always sum to ``total_large``.
    """

    name = "proportional"

    def __init__(self, min_quota: int = 1, eviction_boost: float = 4.0) -> None:
        super().__init__(min_quota)
        self.eviction_boost = eviction_boost

    def floor_quota(self, total_large: int, num_groups: int) -> int:
        """Per-group quota floor: an eighth of the equal split.

        The demand signal is *usage*: a group whose quota was squeezed to
        nothing while it idled can never readmit work, so its demand would
        stay invisible and the squeeze would be permanent (the starved
        tenant's requests fail on an empty engine).  Reserving a fraction
        of the equal split keeps every group big enough to restart, which
        is what bootstraps the feedback loop when its traffic returns.
        """
        return max(self.min_quota, total_large // (8 * num_groups))

    def decide(
        self,
        pressure: List[GroupPressure],
        total_large: int,
        score: float,
        step: int,
    ) -> Dict[str, int]:
        n = len(pressure)
        if n == 0:
            return {}
        floor = self.floor_quota(total_large, n)
        if total_large < n * floor:
            return {}
        weights = [
            float(gp.used_large) + self.eviction_boost * gp.eviction_rate
            for gp in pressure
        ]
        total_weight = sum(weights)
        if total_weight <= 0.0:
            return {}
        base = total_large - n * floor
        wholes: List[int] = []
        remainders: List[Tuple[float, int]] = []
        for index, weight in enumerate(weights):
            exact = base * weight / total_weight
            whole = int(exact)
            wholes.append(whole)
            # Sort key: largest fractional part first, earlier group on
            # ties (negated index under reverse sort) -- deterministic.
            remainders.append((exact - whole, -index))
        leftover = base - sum(wholes)
        remainders.sort(reverse=True)
        desired: Dict[str, int] = {}
        for rank, (_, neg_index) in enumerate(remainders):
            index = -neg_index
            quota = floor + wholes[index] + (1 if rank < leftover else 0)
            if pressure[index].quota != quota:
                desired[pressure[index].group_id] = quota
        return desired


class HysteresisPolicy(ProportionalPolicy):
    """Proportional targets behind anti-thrash gates.

    * **Dead-band**: no move while the composite pressure score is within
      ``set_point + dead_band`` -- an unsqueezed pool keeps its partition.
    * **Dwell**: a group's quota moves at most once per ``dwell_steps``
      simulated steps, so a square-wave traffic flip faster than the
      dwell cannot bounce quotas back and forth.
    * **Dead-band around the target**: moves smaller than ``min_delta``
      large pages are dropped as noise.
    """

    name = "hysteresis"

    def __init__(
        self,
        min_quota: int = 1,
        eviction_boost: float = 4.0,
        set_point: float = 0.0,
        dead_band: float = 0.05,
        dwell_steps: int = 64,
        min_delta: int = 1,
    ) -> None:
        super().__init__(min_quota, eviction_boost)
        self.set_point = set_point
        self.dead_band = dead_band
        self.dwell_steps = dwell_steps
        self.min_delta = min_delta
        self._last_move: Dict[str, int] = {}

    def decide(
        self,
        pressure: List[GroupPressure],
        total_large: int,
        score: float,
        step: int,
    ) -> Dict[str, int]:
        if score <= self.set_point + self.dead_band:
            return {}
        proposed = super().decide(pressure, total_large, score, step)
        if not proposed:
            return proposed
        current = {gp.group_id: gp.quota for gp in pressure}
        desired: Dict[str, int] = {}
        for group_id, quota in proposed.items():
            last = self._last_move.get(group_id)
            if last is not None and step - last < self.dwell_steps:
                continue
            have = current[group_id]
            if have is not None and abs(quota - have) < self.min_delta:
                continue
            desired[group_id] = quota
            self._last_move[group_id] = step
        return desired


#: Comparable-by-name policy registry (the elastic sweep's axis).
RESIZE_POLICIES: Dict[str, Callable[[], ResizePolicy]] = {
    "static": ResizePolicy,
    "proportional": ProportionalPolicy,
    "hysteresis": HysteresisPolicy,
}


def make_resize_policy(name: str) -> ResizePolicy:
    """Instantiate a registered policy with its default knobs."""
    try:
        factory = RESIZE_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown resize policy {name!r}; known: {list(RESIZE_POLICIES)}"
        ) from None
    return factory()


class PoolResizer:
    """Control loop that turns pressure telemetry into quota moves.

    Call :meth:`on_step` once per engine step; every ``interval`` calls
    it runs one :meth:`rebalance` pass.  With ``partition_on_start`` (the
    default) the construction-time quota layout is an equal split of the
    large-page pool over all groups -- the fixed baseline ``static``
    keeps and the elastic policies move away from.
    """

    def __init__(
        self,
        allocator: TwoLevelAllocator,
        monitor: PressureSource,
        policy: Union[str, ResizePolicy] = "hysteresis",
        interval: int = 32,
        partition_on_start: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"resize interval must be positive, got {interval}")
        self.allocator = allocator
        self.monitor = monitor
        self.policy = make_resize_policy(policy) if isinstance(policy, str) else policy
        self.interval = interval
        self._steps = 0
        # Control-loop effectiveness counters (benchmark introspection).
        self.num_decides = 0
        self.num_resizes = 0
        self.num_reclaimed = 0
        if partition_on_start:
            self._partition()

    # ------------------------------------------------------------------

    def _partition(self) -> None:
        """Pin every group to an equal share of the large-page pool."""
        allocator = self.allocator
        group_ids = sorted(allocator.groups)
        total = allocator.lcm.num_pages
        if not group_ids or total < len(group_ids):
            return
        share, leftover = divmod(total, len(group_ids))
        for index, group_id in enumerate(group_ids):
            allocator.set_quota(group_id, share + (1 if index < leftover else 0))

    def on_step(self) -> None:
        """One engine step completed; rebalance on every ``interval``-th."""
        self._steps += 1
        if self._steps % self.interval == 0:
            self.rebalance()

    def rebalance(self) -> int:
        """Run one observe/decide/apply pass; returns quotas moved.

        Control plane: O(#groups) per pass, never O(pages), and runs once
        per ``interval`` steps -- the per-step cost of an attached resizer
        is one counter bump.
        """
        allocator = self.allocator
        rates = self.monitor.group_eviction_rates()
        pressure: List[GroupPressure] = []
        for group_id in sorted(allocator.groups):
            group = allocator.groups[group_id]
            spl = group.small_per_large
            used_large = -(-group.n_used // spl) if spl > 0 else 0
            pressure.append(GroupPressure(
                group_id=group_id,
                quota=group.quota,
                owned=allocator.large_pages_owned(group_id),
                used_large=used_large,
                eviction_rate=rates.get(group_id, 0.0),
            ))
        self.num_decides += 1
        desired = self.policy.decide(
            pressure, allocator.lcm.num_pages, self.monitor.score, self._steps
        )
        moved = 0
        for group_id in sorted(desired):
            quota = desired[group_id]
            if allocator.quota_of(group_id) != quota:
                self.num_reclaimed += allocator.set_quota(group_id, quota)
                moved += 1
        self.num_resizes += moved
        return moved
