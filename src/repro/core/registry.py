"""``create_manager``: build a KV-cache manager by system name and kind.

The system tables are plain dicts beside their factories --
:data:`repro.baselines.SYSTEMS` (``kind="model"``) and
:data:`repro.engine.spec_decode.SPEC_SYSTEMS` (``kind="spec"``) -- read by
``make_manager`` and ``make_spec_manager``.  This function only routes to
those two; it stays because ``benchmarks/e2e/harness.py`` imports it.
"""

from __future__ import annotations

from typing import Any

from ..baselines import make_manager
from ..engine.spec_decode import make_spec_manager

__all__ = ["create_manager"]


def create_manager(name: str, kind: str = "model", /, *args: Any, **kwargs: Any) -> Any:
    """``make_manager(name, ...)`` for ``kind="model"``, ``make_spec_manager``
    for ``kind="spec"``; an unknown ``name`` raises a :class:`KeyError`
    that lists the valid ones."""
    make = {"model": make_manager, "spec": make_spec_manager}[kind]
    return make(name, *args, **kwargs)
