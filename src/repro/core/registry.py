"""Named registry of KV-cache-manager factories.

Backends register a factory under a name once (at import time) and every
entry point -- ``cli.py --systems``, ``benchmarks/common.py``,
``baselines.make_manager``, ``spec_decode.make_spec_manager`` -- resolves
through here instead of hard-coding an if/elif chain.  Two independent
namespaces exist:

* ``kind="model"`` -- single-model managers (``jenga``, ``vllm``,
  ``sglang``, ``tgi``, ``max``, ``gcd``), registered by
  :mod:`repro.baselines`;
* ``kind="spec"`` -- speculative-decoding (draft+target) manager setups
  (``jenga``, ``vllm-max``, ``vllm-manual``), registered by
  :mod:`repro.engine.spec_decode`.

To add a backend::

    from repro.core.registry import register_manager

    @register_manager("mybackend")
    def _make(model, kv_bytes, **kwargs):
        return MyManager(...)

Unknown names raise :class:`UnknownManagerError`, a :class:`KeyError`
subclass whose message lists what *is* registered.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

__all__ = [
    "UnknownManagerError",
    "register_manager",
    "resolve_manager",
    "available_managers",
    "create_manager",
]

_Factory = Callable[..., Any]

_REGISTRY: Dict[str, Dict[str, _Factory]] = {"model": {}, "spec": {}}


class UnknownManagerError(KeyError):
    """Raised when a manager name is not in the registry."""

    def __init__(self, name: str, kind: str, registered: List[str]) -> None:
        self.name = name
        self.kind = kind
        self.registered = registered
        super().__init__(
            f"unknown {kind} manager {name!r}; registered: {', '.join(registered)}"
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


def _namespace(kind: str) -> Dict[str, _Factory]:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown registry kind {kind!r}") from None


def register_manager(name: str, kind: str = "model") -> Callable[[_Factory], _Factory]:
    """Decorator: register ``factory`` under ``name`` in namespace ``kind``."""
    namespace = _namespace(kind)

    def deco(factory: _Factory) -> _Factory:
        existing = namespace.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(f"{kind} manager {name!r} is already registered")
        namespace[name] = factory
        return factory

    return deco


def resolve_manager(name: str, kind: str = "model") -> _Factory:
    """Return the factory registered under ``name`` or raise
    :class:`UnknownManagerError`."""
    try:
        return _namespace(kind)[name]
    except KeyError:
        raise UnknownManagerError(name, kind, available_managers(kind)) from None


def available_managers(kind: str = "model") -> List[str]:
    """Sorted names registered in namespace ``kind``."""
    return sorted(_namespace(kind))


def create_manager(name: str, kind: str = "model", /, *args: Any, **kwargs: Any) -> Any:
    """Resolve ``name`` and call its factory with ``*args, **kwargs``."""
    return resolve_manager(name, kind)(*args, **kwargs)
