"""Near-miss manifest: every entry resolves (the widgets module is
retargeted to the listed path via the module= directive)."""

HOT_MODULES = frozenset({"repro/widgets/pool.py"})
HOT_CLASSES = frozenset({"WidgetPool"})
SPAN_METHODS = frozenset({"tick"})
