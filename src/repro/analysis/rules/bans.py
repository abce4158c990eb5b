"""Rule ``pickle-ban``: serialization and hashing stay deterministic.

The snapshot/state layer is deliberately pickle-free (versioned JSON +
raw arrays): pickle couples snapshots to class layout, breaks cross-
version replay, and executes code on load.  Likewise, tenant routing must
hash through :func:`repro.cluster.ring.stable_hash` — raw ``hash()`` is
salted per process (``PYTHONHASHSEED``) and ``hashlib`` sprinkled ad hoc
invites layout drift between ring implementations.

Scope: ``repro/cluster/``, ``repro/streaming/``,
``repro/nn/serialization.py``, and the process-boundary transport
``repro/wire.py`` — where pickle would otherwise be the path of least
resistance (every byte a worker sends or receives must go through the
codec).  ``cluster/ring.py`` is the one
module allowed to touch ``hashlib`` — it *implements* ``stable_hash``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Rule, call_name, register
from ..findings import Finding

_BANNED_MODULES = {"pickle", "cPickle", "_pickle", "marshal", "dill", "shelve", "joblib"}
_HASH_EXEMPT_MODULE = "cluster.ring"


#: single modules (dotted, under ``repro/``) the ban covers beyond the
#: blanket packages: the weight codec and the process-boundary transport.
_SCOPED_MODULES = {"nn.serialization", "wire"}


def _in_scope(context) -> bool:
    return context.in_package("cluster", "streaming") or (
        context.module_name() in _SCOPED_MODULES
    )


@register
class PickleBanRule(Rule):
    ID = "pickle-ban"
    DESCRIPTION = (
        "no pickle/marshal in state-carrying packages; hash via stable_hash only"
    )

    def check(self, context) -> Iterable[Finding]:
        if not _in_scope(context):
            return
        hash_exempt = context.module_name() == _HASH_EXEMPT_MODULE
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield self.finding(
                            context,
                            node,
                            f"import of '{alias.name}' banned in state-carrying "
                            "packages; use the versioned codecs in "
                            "repro.nn.serialization / repro.cluster.snapshot",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES:
                    yield self.finding(
                        context,
                        node,
                        f"import from '{node.module}' banned in state-carrying "
                        "packages; use the versioned codecs in "
                        "repro.nn.serialization / repro.cluster.snapshot",
                    )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "allow_pickle"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        yield self.finding(
                            context,
                            node,
                            "allow_pickle=True defeats the pickle ban",
                        )
                if hash_exempt:
                    continue
                name = call_name(node)
                if name.startswith("hashlib."):
                    yield self.finding(
                        context,
                        node,
                        f"direct '{name}' call; route hashing through "
                        "repro.cluster.ring.stable_hash",
                    )
                elif name == "hash":
                    yield self.finding(
                        context,
                        node,
                        "builtin hash() is per-process salted; use "
                        "repro.cluster.ring.stable_hash",
                    )
