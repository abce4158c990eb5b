"""Persistence for streaming state: nested state dicts ↔ ``.npz`` archives.

``to_state`` on the streaming classes returns plain nested Python dicts —
the natural shape for in-process shard migration, but not directly
writable as an ``.npz`` (whose namespace is a flat string → array map, and
whose member names would collide with tenant keys containing ``/``).  This
module provides the lossless bridge:

* :func:`encode_state` / :func:`decode_state` — flatten any nested state
  (dicts, lists, arrays, scalars, ``datetime64`` timestamps, ``None``)
  into numbered array entries plus one JSON manifest describing the
  structure, and back.  Tenant keys live inside the JSON manifest, so any
  string key round-trips; nothing is pickled.  The codec itself lives in
  :mod:`repro.wire` (it doubles as the process-shard message transport)
  and is re-exported here, where the ``.npz`` archive format wraps it.
* :func:`write_snapshot` / :func:`read_snapshot` — the same, through a
  compressed archive on disk via :mod:`repro.nn.serialization`.  Writes
  are **crash-atomic**: the archive lands in a temp file in the target
  directory and is :func:`os.replace`'d into place, so a crash
  mid-checkpoint leaves either the previous snapshot or the new one —
  never a truncated ``.npz``.
* :func:`resolve_chain` — replay an incremental checkpoint chain (one
  full snapshot plus zero or more delta snapshots written by
  ``ShardedForecaster.save_incremental``) into the equivalent full state
  dict, validating chain identity and sequence linkage.  Full and delta
  links share one shard layout, ``{"normalization", "store": geometry,
  "store_stats", "tenants": {tenant: payload}}``, where a
  payload is what ``StreamingForecaster.export_tenant`` yields.  A full
  link has every payload; a delta maps each tenant clean since its
  parent link to ``None``, filled from the earlier links — so a resolved
  chain reproduces tenant placement, iteration order and contents
  exactly.  Archives written before this layout raise ``ValueError``.
* :func:`save_forecaster` / :func:`load_forecaster` — one-call
  persistence for a :class:`~repro.streaming.forecaster.StreamingForecaster`:
  a restored process keeps forecasting bit-identically to one that never
  restarted.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Sequence

import numpy as np

from ..nn.serialization import load_state, save_state
from ..serving.service import ForecastService
from ..streaming.forecaster import StreamingForecaster, state_tenants
from ..wire import decode_state, encode_state

__all__ = [
    "encode_state",
    "decode_state",
    "write_snapshot",
    "read_snapshot",
    "resolve_chain",
    "resolve_tenant_payloads",
    "compact_chain",
    "save_forecaster",
    "load_forecaster",
]

_MANIFEST_KEY = "__manifest__"

# The process umask, probed once at import (os.umask is the only portable
# read, and it is a process-wide mutation — doing the probe per write would
# race every other thread creating files mid-probe).
_UMASK = os.umask(0)
os.umask(_UMASK)


def _npz_path(path: str) -> str:
    """The archive file a snapshot path maps to (np.savez suffixes ``.npz``).

    The one suffix rule shared by the writer below and the cluster's
    duplicate-chain-link guard — they must agree on which file a path
    produces, or the guard stops protecting the file actually written.
    """
    return path if path.endswith(".npz") else path + ".npz"


def write_snapshot(state, path: str) -> None:
    """Serialise a nested state tree to a compressed ``.npz`` snapshot.

    Crash-atomic: the archive is written to a temp file *in the target
    directory* (same filesystem, so the final rename cannot fail with
    ``EXDEV``) and moved into place with :func:`os.replace`.  A crash or
    disk-full mid-write leaves the previous snapshot untouched instead of
    a truncated archive that ``read_snapshot`` would choke on.
    """
    manifest, arrays = encode_state(state)
    if _MANIFEST_KEY in arrays:  # pragma: no cover - numbered keys can't collide
        raise ValueError(f"array map may not use the reserved key {_MANIFEST_KEY!r}")
    payload = dict(arrays)
    payload[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    # Mirror np.savez's suffix behaviour up front so the tempfile already
    # carries the final ``.npz`` suffix (savez would append one otherwise,
    # and the rename below must target the exact written file).
    final = _npz_path(path)
    directory = os.path.dirname(os.path.abspath(final))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(final) + ".", suffix=".tmp.npz"
    )
    os.close(fd)
    # mkstemp creates 0600 files; the rename below would silently tighten
    # the published snapshot's permissions vs a plain open() (breaking e.g.
    # group-readable backup jobs), so restore the umask-derived mode.
    os.chmod(tmp_path, 0o666 & ~_UMASK)
    try:
        save_state(payload, tmp_path, compressed=True)
        os.replace(tmp_path, final)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def read_snapshot(path: str):
    """Load a snapshot written by :func:`write_snapshot`.

    ``np.savez`` appends ``.npz`` to extension-less paths on write, so the
    same courtesy applies on read — ``write_snapshot(x, p)`` followed by
    ``read_snapshot(p)`` round-trips for any ``p``.
    """
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    payload = load_state(path)
    if _MANIFEST_KEY not in payload:
        raise ValueError(f"{path!r} is not a snapshot archive (missing manifest)")
    manifest = json.loads(bytes(payload.pop(_MANIFEST_KEY)).decode("utf-8"))
    return decode_state(manifest, payload)


# ---------------------------------------------------------------------- #
# Incremental checkpoint chains.
# ---------------------------------------------------------------------- #
def resolve_chain(paths: Sequence[str]):
    """Replay ``[full, delta, delta, ...]`` snapshots into one full state.

    The first path must be a full cluster snapshot
    (``ShardedForecaster.save``); each subsequent path a delta
    (``save_incremental``) whose ``chain_id`` matches the base and whose
    ``parent_seq`` equals the sequence number of the state resolved so far
    — a delta applied out of order, twice, or against a foreign chain is a
    hard error, never a silently wrong cluster.

    Returns a state dict interchangeable with ``ShardedForecaster.to_state``
    output (feed it to ``from_state`` to revive the cluster).
    """
    paths = list(paths)
    if not paths:
        raise ValueError("checkpoint chain is empty")
    state = read_snapshot(paths[0])
    if state.get("kind", "full") != "full":
        raise ValueError(
            f"chain base {paths[0]!r} is a {state.get('kind')!r} snapshot; "
            "the first link must be a full save()"
        )
    for path in paths[1:]:
        delta = read_snapshot(path)
        if delta.get("kind") != "delta":
            raise ValueError(
                f"chain link {path!r} is not a delta snapshot "
                f"(kind={delta.get('kind')!r})"
            )
        if delta.get("chain_id") != state.get("chain_id"):
            raise ValueError(
                f"delta {path!r} belongs to chain {delta.get('chain_id')!r}, "
                f"not this chain {state.get('chain_id')!r}"
            )
        if int(delta.get("parent_seq", -1)) != int(state.get("seq", 0)):
            raise ValueError(
                f"delta {path!r} (parent_seq {delta.get('parent_seq')!r}) does "
                f"not follow checkpoint seq {state.get('seq')!r} — chain out of "
                "order or missing a link"
            )
        state = _apply_delta(state, delta)
    return state


def resolve_tenant_payloads(state: dict) -> Dict[str, dict]:
    """Merge a (resolved) cluster state's shard ``tenants`` maps into one.

    Returns ``tenant -> payload`` (the
    :meth:`~repro.streaming.forecaster.StreamingForecaster.export_tenant`
    layout) wherever the tenant lives: the lookup both the chain replay
    (clean tenants) and ``Coordinator.failover`` (checkpoint restore)
    read from.
    """
    return {
        tenant: payload
        for shard_state in state["shards"].values()
        for tenant, payload in state_tenants(shard_state).items()
    }


def compact_chain(paths: Sequence[str], output: str = None, remove: bool = True) -> str:
    """Fold ``[full, d1 … dn]`` into a fresh full snapshot and GC the links.

    Crash drills and long-running deployments grow chains one delta per
    checkpoint, and every restore/failover replays the whole chain —
    compaction bounds that replay cost.  The chain is resolved through
    :func:`resolve_chain` (so all identity/sequence validation applies),
    the resolved state is written as a single full snapshot, and the
    superseded links are deleted.

    ``output`` defaults to the chain base, which is overwritten in place
    (crash-atomically — :func:`write_snapshot` goes through a temp file,
    so a crash mid-compaction leaves the original chain intact and fully
    replayable).  The compacted snapshot keeps the chain's ``chain_id``
    and tip ``seq``, so a live cluster can keep appending deltas to it:
    ``save_incremental`` after ``compact`` chains onto the compacted base
    exactly as it would have onto the full original.

    Returns the output path (the new single-link chain).
    """
    paths = list(paths)
    state = resolve_chain(paths)
    if output is None:
        output = paths[0]
    write_snapshot(state, output)
    if remove:
        kept = os.path.abspath(_npz_path(output))
        for link in paths:
            file = os.path.abspath(_npz_path(link))
            if file != kept:
                os.remove(file)
    return output


def _apply_delta(state: dict, delta: dict) -> dict:
    """One chain step: fill each clean tenant's payload from the state so far.

    A delta is a full state whose clean tenants map to ``None``.  Each
    ``None`` is filled from the state resolved so far, wherever the tenant
    lived there (migrations move tenants between shards without touching
    their data).  Tenants absent from every shard's map were dropped, and
    each map keeps its recorded order, so ``forecast_all`` batch
    composition (and any later re-snapshot) matches the live cluster's.
    """
    lookup = resolve_tenant_payloads(state)
    shards: Dict[str, dict] = {}
    for shard_id, shard_state in delta["shards"].items():
        tenants = dict(state_tenants(shard_state))
        for tenant, payload in tenants.items():
            if payload is None:
                if tenant not in lookup:
                    raise ValueError(
                        f"chain corruption: shard {shard_id!r} lists clean tenant "
                        f"{tenant!r} but no earlier checkpoint holds its state"
                    )
                tenants[tenant] = lookup[tenant]
        shards[shard_id] = dict(shard_state, tenants=tenants)
    resolved = {key: value for key, value in delta.items() if key != "parent_seq"}
    resolved.update(kind="full", shards=shards)
    return resolved


# ---------------------------------------------------------------------- #
def save_forecaster(forecaster: StreamingForecaster, path: str) -> None:
    """Snapshot a streaming forecaster's full per-tenant state to disk."""
    write_snapshot(forecaster.to_state(), path)


def load_forecaster(service: ForecastService, path: str) -> StreamingForecaster:
    """Restore a :func:`save_forecaster` snapshot around a live service.

    The service (model replica) is supplied by the caller — weights have
    their own persistence path — and must match the geometry the snapshot
    was taken under; :class:`StreamingForecaster` validates on construction.
    """
    return StreamingForecaster.from_state(service, read_snapshot(path))


