"""Rule ``except-hygiene``: no blind broad exception swallowing.

A ``try/except Exception: pass`` around cluster internals converts a
shard corruption into silent data loss.  Broad handlers are legitimate —
rollback paths, fan-out error channels — *when the error remains
observable*: re-raised, recorded on a stats/report object, or otherwise
acted on.  This rule flags handlers that catch everything
(bare ``except:``, ``Exception``, ``BaseException``) and then neither

* ``raise`` (re-raise or translate), nor
* call anything (record / log / roll back), nor
* read the bound exception variable.

Narrow handlers (``except OSError:`` etc.) are out of scope: catching a
specific expected failure and moving on is a decision, not an accident.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Rule, register
from ..findings import Finding

_BROAD = {"Exception", "BaseException"}


def _catches_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except:
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for entry in types:
        if isinstance(entry, ast.Name) and entry.id in _BROAD:
            return True
        if isinstance(entry, ast.Attribute) and entry.attr in _BROAD:
            return True
    return False


def _is_observable(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            return True
        if (
            handler.name
            and isinstance(node, ast.Name)
            and node.id == handler.name
            and isinstance(node.ctx, ast.Load)
        ):
            return True
    return False


@register
class ExceptHygieneRule(Rule):
    ID = "except-hygiene"
    DESCRIPTION = "broad except handlers must re-raise, record, or use the error"

    def check(self, context) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _catches_broad(node) and not _is_observable(node):
                caught = "bare except" if node.type is None else "broad except"
                yield self.finding(
                    context,
                    node,
                    f"{caught} swallows the error: re-raise, record it on a "
                    "stats/report object, or narrow the exception type",
                )
