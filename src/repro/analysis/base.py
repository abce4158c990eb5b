"""Rule protocol and registry for the project linter.

A rule is a class with an ``ID``, a one-line ``DESCRIPTION``, and a
``check(context)`` method yielding :class:`~repro.analysis.findings.Finding`
objects for one parsed file.  Rules register themselves with the
:func:`register` decorator; the engine instantiates every registered rule
per run (rules may keep per-run state, e.g. cross-file caches).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Type

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import FileContext

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for analysis rules."""

    ID: str = ""
    DESCRIPTION: str = ""

    def check(self, context: "FileContext") -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Helpers shared by concrete rules.
    # ------------------------------------------------------------------ #
    def finding(
        self,
        context: "FileContext",
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            rule=self.ID,
            path=context.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.ID:
        raise ValueError(f"{rule_cls.__name__} must define a non-empty ID")
    if rule_cls.ID in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.ID!r}")
    _REGISTRY[rule_cls.ID] = rule_cls
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, sorted by id for deterministic output."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Optional[Type[Rule]]:
    return _REGISTRY.get(rule_id)


# ---------------------------------------------------------------------- #
# Shared AST utilities.
# ---------------------------------------------------------------------- #
def decorator_name(node: ast.expr) -> str:
    """The dotted name of a decorator expression (call or bare)."""
    target = node.func if isinstance(node, ast.Call) else node
    parts: List[str] = []
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return ".".join(reversed(parts))


def call_name(node: ast.Call) -> str:
    """The dotted name a call targets (``np.exp`` -> "np.exp")."""
    return decorator_name(node)


def string_args(node: ast.Call) -> List[str]:
    """The literal string positional arguments of a call."""
    out: List[str] = []
    for arg in node.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            out.append(arg.value)
    return out
