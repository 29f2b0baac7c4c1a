"""Drifted manifest: a vanished module, a ghost class, a hot class in an
unlisted module, and a span method the tracer no longer has."""

HOT_MODULES = frozenset({"repro/widgets/missing.py"})
HOT_CLASSES = frozenset({"WidgetPool", "GhostPool"})
SPAN_METHODS = frozenset({"no_such_method"})
