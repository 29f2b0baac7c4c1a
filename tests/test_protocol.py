"""Protocol conformance and registry tests for every KV-cache manager."""

import re
from pathlib import Path

import pytest

from repro.core.events import EventBus
from repro.core.protocols import KVCacheManager, KVCacheManagerBase
from repro.core.registry import (
    UnknownManagerError,
    available_managers,
    create_manager,
    register_manager,
    resolve_manager,
)
from repro.core.sequence import SequenceSpec
from repro.models import GIB, get_model

MODEL_SYSTEMS = available_managers("model")
SPEC_SYSTEMS = available_managers("spec")


def model_manager(system):
    return create_manager(system, "model", get_model("gemma2-9b"), GIB)


def spec_manager(system):
    return create_manager(
        system, "spec", get_model("llama3.2-1b"), get_model("llama3-8b"), GIB
    )


class TestRegistry:
    def test_expected_systems_registered(self):
        assert set(MODEL_SYSTEMS) >= {
            "jenga", "vllm", "sglang", "tgi", "max", "gcd", "vattention"
        }
        assert set(SPEC_SYSTEMS) == {"jenga", "vllm-max", "vllm-manual"}

    def test_available_managers_is_sorted(self):
        assert list(MODEL_SYSTEMS) == sorted(MODEL_SYSTEMS)

    def test_unknown_manager_error_lists_registered(self):
        with pytest.raises(UnknownManagerError) as exc:
            resolve_manager("triton", "model")
        message = str(exc.value)
        assert "triton" in message
        for name in MODEL_SYSTEMS:
            assert name in message
        # Still a KeyError for callers with pre-registry except clauses.
        assert isinstance(exc.value, KeyError)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            resolve_manager("jenga", "nonsense")
        with pytest.raises(ValueError):
            register_manager("x", kind="nonsense")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_manager("jenga", kind="model")(lambda: None)

    def test_resolve_returns_registered_factory(self):
        factory = resolve_manager("jenga", "model")
        manager = factory(get_model("gemma2-9b"), GIB)
        assert manager.name == "jenga"


class TestProtocolConformance:
    @pytest.mark.parametrize("system", MODEL_SYSTEMS)
    def test_model_managers_satisfy_protocol(self, system):
        manager = model_manager(system)
        assert isinstance(manager, KVCacheManager)
        assert isinstance(manager, KVCacheManagerBase)
        assert isinstance(manager.events, EventBus)
        assert isinstance(manager.name, str) and manager.name

    @pytest.mark.parametrize("system", SPEC_SYSTEMS)
    def test_spec_managers_satisfy_protocol(self, system):
        manager = spec_manager(system)
        assert isinstance(manager, KVCacheManager)
        assert isinstance(manager.events, EventBus)

    @pytest.mark.parametrize("system", MODEL_SYSTEMS)
    def test_protocol_surface_is_live(self, system):
        """Every protocol member works on a real request, not just exists."""
        manager = model_manager(system)
        seq = SequenceSpec.text_only("r1", list(range(64)))
        assert manager.begin_request(seq) == 0
        assert manager.can_admit(seq)
        assert manager.can_admit_uncached(seq)
        assert manager.needs_allocation(seq, len(seq))
        assert manager.allocate_up_to(seq, len(seq))
        assert not manager.needs_allocation(seq, len(seq))
        manager.commit(seq, len(seq), now=1.0, phase="prefill")
        assert manager.take_onload_bytes("r1") == 0
        stats = manager.stats()
        assert stats.used_bytes > 0
        assert manager.kernel_slowdown >= 1.0
        assert 0.0 <= manager.prefix_hit_rate <= 1.0
        assert isinstance(manager.has_vision_cache, bool)
        manager.release(seq, cacheable=True)

    @pytest.mark.parametrize("system", MODEL_SYSTEMS)
    def test_bind_events_rewires_the_bus(self, system):
        manager = model_manager(system)
        bus = EventBus()
        manager.bind_events(bus)
        assert manager.events is bus


class TestNoDuckTyping:
    def test_no_getattr_on_managers_in_source(self):
        """The protocol makes every manager attribute explicit; duck-typed
        ``getattr(manager, ...)`` probes must not creep back in."""
        src = Path(__file__).resolve().parents[1] / "src"
        pattern = re.compile(r"getattr\(.*manager")
        offenders = [
            f"{path}:{lineno}"
            for path in sorted(src.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert not offenders, f"duck-typed manager access: {offenders}"
