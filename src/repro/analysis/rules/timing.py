"""Rule ``timing-discipline``: instrumentation clocks go through ``repro.obs``.

The serving, streaming, cluster, runtime and profiling layers read the
clock through ``repro.obs.now()``, so every latency metric and every
:func:`repro.profiling.interleave` measurement shares one monotonic
clock.  A raw ``time.perf_counter()`` or ``time.time()`` call scattered
through those packages would bypass it — and ``time.time()`` is not even
monotonic, so durations built on it can go negative across NTP steps.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Set, Tuple

from ..base import Rule, call_name, register
from ..findings import Finding

_SCOPED_PACKAGES = ("serving", "streaming", "cluster", "runtime", "profiling")

# Clock attributes of the ``time`` module whose raw use is banned.
# ``time.sleep`` and formatting helpers are not clocks and stay allowed.
_BANNED_CLOCKS = {
    "time",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}


def _walk_calls(node: ast.AST, qual: str = "") -> Iterator[Tuple[ast.Call, str]]:
    """Yield every call with the qualname of its innermost enclosing scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            child_qual = f"{qual}.{child.name}" if qual else child.name
            yield from _walk_calls(child, child_qual)
        else:
            if isinstance(child, ast.Call):
                yield child, qual
            yield from _walk_calls(child, qual)


@register
class TimingDisciplineRule(Rule):
    ID = "timing-discipline"
    DESCRIPTION = (
        "raw time.* clock calls in instrumented packages; use "
        "repro.obs.now()"
    )

    def check(self, context) -> Iterable[Finding]:
        if not context.in_package(*_SCOPED_PACKAGES):
            return
        # Resolve how this module can reach the ``time`` clocks: module
        # aliases (``import time``, ``import time as t``) and from-imports
        # (``from time import perf_counter as pc``).
        module_aliases: Set[str] = set()
        clock_names: Dict[str, str] = {}
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        module_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    for alias in node.names:
                        if alias.name in _BANNED_CLOCKS:
                            clock_names[alias.asname or alias.name] = alias.name
        if not module_aliases and not clock_names:
            return
        for call, qual in _walk_calls(context.tree):
            name = call_name(call)
            root, dot, attribute = name.partition(".")
            if dot and root in module_aliases and attribute in _BANNED_CLOCKS:
                clock = attribute
            elif not dot and name in clock_names:
                clock = clock_names[name]
            else:
                continue
            yield self.finding(
                context,
                call,
                f"raw time.{clock}() call in an instrumented package; "
                "read the clock through repro.obs.now()",
                symbol=qual,
            )
