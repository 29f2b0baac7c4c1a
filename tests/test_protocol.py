"""Protocol conformance and system-table tests for every KV-cache manager."""

import inspect
import re
from pathlib import Path

import pytest

from repro.baselines import SYSTEMS, make_manager
from repro.core.protocols import KVCacheManager
from repro.core.registry import create_manager
from repro.core.sequence import SequenceSpec
from repro.engine.spec_decode import SPEC_SYSTEMS, make_spec_manager
from repro.models import GIB, get_model

from .oracle import admission_oracle
from .recording import RecordingObserver


def model_manager(system):
    return make_manager(system, get_model("gemma2-9b"), GIB)


def spec_manager(system):
    return make_spec_manager(system, get_model("llama3.2-1b"), get_model("llama3-8b"), GIB)


def _positional_arity(func):
    """(required, maximum or ``None`` for ``*args``) positional args, self excluded."""
    params = list(inspect.signature(func).parameters.values())[1:]
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    required = sum(p.default is p.empty for p in positional)
    varargs = any(p.kind is p.VAR_POSITIONAL for p in params)
    return required, None if varargs else len(positional)


def protocol_mismatches(cls):
    """Protocol methods ``cls`` resolves (through its real MRO) to a
    non-method, or to a method protocol call sites cannot call."""
    problems = []
    for name, member in vars(KVCacheManager).items():
        if name.startswith("_") or not inspect.isfunction(member):
            continue
        impl = inspect.getattr_static(cls, name, None)
        if not inspect.isfunction(impl):
            problems.append(f"{cls.__name__}.{name} is a {type(impl).__name__}")
            continue
        (p_min, p_max), (i_min, i_max) = _positional_arity(member), _positional_arity(impl)
        if i_min > p_min or (i_max is not None and i_max < p_max):
            problems.append(
                f"{cls.__name__}.{name} takes {i_min}..{i_max} positional args, "
                f"the protocol passes {p_min}..{p_max}"
            )
    return problems


class TestRegistry:
    def test_expected_systems_registered(self):
        assert list(SYSTEMS) == ["jenga", "vllm", "sglang", "tgi", "max", "gcd"]
        assert list(SPEC_SYSTEMS) == ["jenga", "vllm-max", "vllm-manual"]

    def test_unknown_manager_error_lists_registered(self):
        for make in (
            lambda: create_manager("triton", "model", get_model("gemma2-9b"), GIB),
            lambda: make_manager("triton", get_model("gemma2-9b"), GIB),
        ):
            with pytest.raises(KeyError) as exc:
                make()
            message = str(exc.value)
            assert "triton" in message
            for name in SYSTEMS:
                assert name in message

    def test_create_manager_routes_by_kind(self):
        assert create_manager("jenga", "model", get_model("gemma2-9b"), GIB).name == "jenga"
        manual = create_manager(
            "vllm-manual", "spec", get_model("llama3.2-1b"), get_model("llama3-8b"), GIB
        )
        assert manual.name == "vllm-manual"


class TestProtocolConformance:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_model_managers_satisfy_protocol(self, system):
        manager = model_manager(system)
        assert isinstance(manager, KVCacheManager)
        assert protocol_mismatches(type(manager)) == []
        assert manager.observer is None
        assert isinstance(manager.name, str) and manager.name

    @pytest.mark.parametrize("system", SPEC_SYSTEMS)
    def test_spec_managers_satisfy_protocol(self, system):
        manager = spec_manager(system)
        assert isinstance(manager, KVCacheManager)
        assert protocol_mismatches(type(manager)) == []
        assert manager.observer is None

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_protocol_surface_is_live(self, system):
        """Every protocol member works on a real request, not just exists."""
        manager = model_manager(system)
        seq = SequenceSpec.text_only("r1", list(range(64)))
        assert manager.begin_request(seq) == 0
        assert manager.can_admit(seq)
        assert admission_oracle(manager, seq)
        assert manager.needs_allocation(seq, len(seq))
        assert manager.allocate_up_to(seq, len(seq))
        assert not manager.needs_allocation(seq, len(seq))
        manager.commit(seq, len(seq), now=1.0, phase="prefill")
        assert isinstance(manager.admission_version(), int)
        stats = manager.stats()
        assert stats.used_bytes > 0
        assert manager.kernel_slowdown >= 1.0
        assert 0.0 <= manager.prefix_hit_rate <= 1.0
        assert isinstance(manager.has_vision_cache, bool)
        manager.release(seq, cacheable=True)

    @pytest.mark.parametrize(
        "build, system",
        [(model_manager, s) for s in SYSTEMS] + [(spec_manager, s) for s in SPEC_SYSTEMS],
    )
    def test_commit_returns_the_horizon(self, build, system):
        """``commit`` returns 0 while prompt is left; after the whole
        prompt, the last length whose decode needs no page, so the engine
        may skip every decode up to it."""
        manager = build(system)
        seq = SequenceSpec.text_only("r1", list(range(58)))
        assert manager.begin_request(seq) == 0
        assert manager.allocate_up_to(seq, 40)
        assert manager.commit(seq, 40, now=1.0, phase="prefill") == 0
        assert manager.allocate_up_to(seq, 58)
        horizon = manager.commit(seq, 58, now=2.0, phase="prefill")
        assert horizon == 64  # every manager here pages 16 tokens
        for length in range(59, 65):
            seq.append(length)
            assert not manager.needs_allocation(seq, length)
        seq.append(65)
        assert manager.needs_allocation(seq, 65)
        manager.release(seq, cacheable=True, quiet_time=3.0)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_bind_observer_rewires_the_observer(self, system):
        manager = model_manager(system)
        observer = RecordingObserver()
        manager.bind_observer(observer)
        assert manager.observer is observer
        manager.bind_observer(None)
        assert manager.observer is None

    def test_mismatched_method_is_flagged(self):
        base = type(model_manager("jenga"))

        class Mutant(base):
            def commit(self, seq, computed_global, now, phase, extra):
                pass

            @property
            def stats(self):
                return None

        assert protocol_mismatches(Mutant) == [
            "Mutant.commit takes 5..5 positional args, the protocol passes 3..4",
            "Mutant.stats is a property",
        ]


class TestNoDuckTyping:
    def test_no_getattr_on_managers_in_source(self):
        """The protocol makes every manager attribute explicit; duck-typed
        ``getattr`` / ``hasattr`` probes on a manager must not creep back in."""
        src = Path(__file__).resolve().parents[1] / "src"
        pattern = re.compile(r"\b(?:getattr|hasattr)\(\s*[\w.]*(?:manager|mgr)", re.I)
        for probe in ('getattr(self.manager, "name")', 'hasattr(kv_mgr, "needs_allocation")'):
            assert pattern.search(probe), probe
        offenders = [
            f"{path}:{lineno}"
            for path in sorted(src.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert not offenders, f"duck-typed manager access: {offenders}"
