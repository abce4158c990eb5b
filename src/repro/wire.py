"""Pickle-free binary message transport for process-backed workers.

The cluster's persistence layer already flattens arbitrary nested state
(dicts, lists, arrays, scalars, ``datetime64`` timestamps, ``None``) into
a JSON manifest plus a flat string → array map — with tenant keys living
inside the manifest so any string round-trips, and object dtypes rejected
because they would silently require pickling.  This module is that same
codec promoted to a wire format:

* :func:`encode_state` / :func:`decode_state` — the nested-tree codec
  itself (re-exported by :mod:`repro.cluster.snapshot`, which layers the
  ``.npz`` archive format on top for disk).
* :func:`pack_message` / :func:`unpack_message` — one message as a single
  ``bytes`` value: a magic tag, a JSON header carrying the manifest tree
  and per-array descriptors (dtype string, shape, byte length), then the
  raw C-contiguous array bytes concatenated.  ``dtype.str`` preserves
  endianness and datetime64 units, so a message decodes bit-identically
  on the other side of the pipe.
* :func:`send_message` / :func:`recv_message` — length-prefixed framing
  over a stream socket (8-byte big-endian prefix), with EOF surfaced as
  :class:`EndOfStream` so a dead peer is a typed event, not a hang.
* :func:`error_payload` / :func:`raise_remote` — the error channel: a
  worker-side exception crosses the wire as ``{"type", "message"}`` and
  is re-raised coordinator-side as the matching builtin where possible,
  so routing errors keep their thread-backend types (``KeyError`` for an
  unknown tenant, ``ValueError`` for a bad payload).
* :func:`spawn_worker` — launch ``python -m <module> <fd>`` over one end
  of a :func:`socket.socketpair`, with ``PYTHONPATH`` carrying this very
  package.  ``subprocess`` + an inherited fd avoids both multiprocessing's
  pickled bootstrap and fork-from-a-threaded-parent hazards, and the
  child is a real OS process a crash drill can ``kill -9``.

No pickle anywhere: the ``pickle-ban`` lint rule covers this module.
"""

from __future__ import annotations

import datetime
import json
import os
import re
import socket
import struct
import subprocess
import sys
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from .errors import DeadlineExceeded, EndOfStream, Overloaded, TransientWireError
from .testing import faults as _faults

__all__ = [
    "EndOfStream",
    "TransientWireError",
    "MAX_FRAME_BYTES",
    "claim_worker_fd",
    "decode_state",
    "encode_state",
    "error_payload",
    "pack_message",
    "raise_remote",
    "recv_message",
    "remote_error",
    "register_raiseable",
    "send_message",
    "spawn_worker",
]

#: formats understood by the codec; bumped on incompatible layout changes
_FORMAT_VERSION = 1

#: message magic: "repro wire, layout 1" — a frame that does not start with
#: this is a protocol error (e.g. a stray write on the worker's fd), caught
#: before any attempt to interpret lengths out of garbage.
_MAGIC = b"RPW1"

#: what ``dtype.str`` looks like for every dtype the codec accepts (no
#: object arrays, no comma-separated record strings)
_DTYPE = re.compile(r"[<>|=][biufcmMSUV]\d+(\[\w+\])?")

#: frame prefix: payload byte length, 8-byte big-endian
_FRAME = struct.Struct(">Q")

#: header prefix inside the payload: JSON header byte length
_HEADER = struct.Struct(">I")

#: sanity ceiling for a single frame (1 TiB).  Real messages are bounded by
#: tenant windows and snapshots; anything past this is stream corruption.
MAX_FRAME_BYTES = 1 << 40

_CHUNK = 1 << 20

#: item types a ``plain`` node holds as-is: JSON maps each of them back to
#: its own type, so a list of them needs no per-item node
_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))

#: node kind -> the type its ``v`` must have (``none`` has no ``v``)
_NODE_VALUES = {
    "plain": list, "bool": bool, "int": int, "float": float, "str": str, "datetime": str,
    "date": str, "dict": dict, "list": list, "array": str, "scalar": str,
}


# ---------------------------------------------------------------------- #
# Nested-tree codec (shared with the .npz snapshot format).
# ---------------------------------------------------------------------- #
def encode_state(state) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Flatten a nested state tree into (JSON manifest, flat array map).

    Arrays (and array-like scalars such as ``np.datetime64`` timestamps)
    are pulled out into numbered entries; structure, strings, numbers,
    booleans and ``None`` live in the manifest.  A list or tuple holding
    only those plain values is one ``plain`` node whose list JSON
    encodes whole, not one node per item.  Only npz-native dtypes
    are accepted — an object array would silently require pickling, so it
    raises instead.
    """
    arrays: Dict[str, np.ndarray] = {}
    tree = _encode(state, arrays)
    manifest = {"version": _FORMAT_VERSION, "tree": tree}
    return manifest, arrays


def decode_state(manifest: dict, arrays: Dict[str, np.ndarray]):
    """Invert :func:`encode_state`.  Total: a malformed manifest — a
    node of no or unknown kind, a value of the wrong type, an array
    entry the map lacks — raises ``ValueError``."""
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format version {version!r}")
    return _decode(manifest.get("tree"), arrays)


def _encode(value, arrays: Dict[str, np.ndarray]):
    if value is None:
        return {"t": "none"}
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    # Numpy scalars must be claimed before the plain-scalar branch:
    # ``np.float64`` *subclasses* ``float``, and routing it there would
    # stamp the node with a type name the decoder doesn't know.
    if isinstance(value, (np.generic, np.ndarray)):
        array = np.asarray(value)
        if array.dtype == object:
            raise TypeError(
                f"cannot snapshot object-dtype value {value!r} without pickling"
            )
        name = f"a{len(arrays)}"
        arrays[name] = array
        return {"t": "scalar" if isinstance(value, np.generic) else "array", "v": name}
    if isinstance(value, (int, float, str)):
        return {"t": type(value).__name__, "v": value}
    # Timestamp watermarks: ingest accepts any orderable timestamp, so the
    # codec must at least cover the stdlib datetime types alongside
    # np.datetime64 (handled below as a numpy scalar).
    if isinstance(value, datetime.datetime):
        return {"t": "datetime", "v": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"t": "date", "v": value.isoformat()}
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"state dict keys must be strings, got {key!r}")
        return {"t": "dict", "v": {k: _encode(v, arrays) for k, v in value.items()}}
    if isinstance(value, (list, tuple)):
        # Exact types only: np.float64 subclasses float, and must keep its
        # dtype through the scalar path.
        if set(map(type, value)) <= _PLAIN_TYPES:
            return {"t": "plain", "v": list(value)}
        return {"t": "list", "v": [_encode(item, arrays) for item in value]}
    raise TypeError(
        f"cannot snapshot value of type {type(value).__name__}: {value!r} "
        "(supported: dict/list/str/int/float/bool/None and numpy arrays/scalars)"
    )


def _decode(node, arrays: Dict[str, np.ndarray]):
    kind = node.get("t") if isinstance(node, dict) else None
    if kind == "none":
        return None
    expected = _NODE_VALUES.get(kind)
    if expected is None:
        raise ValueError(f"unknown snapshot node type {kind!r}")
    value = node.get("v")
    if not isinstance(value, expected):
        raise ValueError(
            f"{kind} snapshot node holds {type(value).__name__}, not a {expected.__name__}"
        )
    if kind == "dict":
        return {key: _decode(child, arrays) for key, child in value.items()}
    if kind == "list":
        return [_decode(child, arrays) for child in value]
    if kind in ("array", "scalar"):
        array = arrays.get(value)
        if array is None:
            raise ValueError(f"{kind} snapshot node names missing entry {value!r}")
        return array if kind == "array" else array[()]
    if kind == "datetime":
        return datetime.datetime.fromisoformat(value)
    if kind == "date":
        return datetime.date.fromisoformat(value)
    return value


# ---------------------------------------------------------------------- #
# Message packing: codec tree → one bytes value and back.
# ---------------------------------------------------------------------- #
def pack_message(message) -> bytes:
    """Serialise one codec-compatible value into a self-describing blob.

    Layout: ``magic | u32 header_len | header_json | array bytes...``.
    The header carries the manifest tree plus, per array, its entry name,
    ``dtype.str`` (endianness- and unit-preserving), shape and byte count;
    array bytes follow in descriptor order, each C-contiguous.
    """
    manifest, arrays = encode_state(message)
    descriptors: List[dict] = []
    blobs: List[bytes] = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        blob = contiguous.tobytes()
        descriptors.append(
            {
                "k": name,
                "d": contiguous.dtype.str,
                # The original shape, not the contiguous copy's:
                # ascontiguousarray promotes 0-d scalars to 1-d, and a
                # scalar must come back 0-d to decode as a scalar.
                "s": list(array.shape),
                "n": len(blob),
            }
        )
        blobs.append(blob)
    header = json.dumps({"manifest": manifest, "arrays": descriptors}).encode("utf-8")
    return b"".join([_MAGIC, _HEADER.pack(len(header)), header] + blobs)


def unpack_message(payload: bytes):
    """Invert :func:`pack_message`.

    Decoded arrays are copies (writable, independently owned) — a worker
    ingests the buffer straight into its ring store, so a view into the
    receive buffer would alias every later message.  Total: any payload
    that is not a well-formed message raises ``ValueError``.
    """
    view = memoryview(payload)
    if bytes(view[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a wire message (bad magic)")
    offset = len(_MAGIC) + _HEADER.size
    if len(view) < offset:
        raise ValueError("truncated wire message (header length missing)")
    (header_len,) = _HEADER.unpack_from(view, len(_MAGIC))
    header = json.loads(bytes(view[offset : offset + header_len]).decode("utf-8"))
    offset += header_len
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise ValueError("wire message header is not a manifest and array list")
    arrays: Dict[str, np.ndarray] = {}
    for descriptor in header["arrays"]:
        try:
            name, dtype, shape, nbytes = (descriptor[key] for key in "kdsn")
            if not (isinstance(dtype, str) and _DTYPE.fullmatch(dtype) and isinstance(shape, list)):
                raise TypeError(f"no {dtype!r} array of shape {shape!r} crosses the wire")
            dtype, nbytes = np.dtype(dtype), int(nbytes)
            blob = view[offset : offset + nbytes]
            if len(blob) != nbytes:
                raise ValueError("truncated wire message (array bytes missing)")
            offset += nbytes
            arrays[str(name)] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
        except (KeyError, TypeError, OverflowError) as error:
            raise ValueError(f"malformed array descriptor {descriptor!r}: {error}") from error
    if offset != len(view):
        raise ValueError("trailing bytes after wire message")
    return decode_state(header.get("manifest"), arrays)


# ---------------------------------------------------------------------- #
# Length-prefixed framing over a stream socket.
# ---------------------------------------------------------------------- #
def send_message(sock: socket.socket, message) -> None:
    """Send one framed message (blocking until fully written).

    Fault injection (:mod:`repro.testing.faults`, site ``"wire.send"``)
    acts *before* the write: a dropped frame is simply never sent, a
    transient error leaves the stream untouched — the disabled path is
    one attribute compare.
    """
    if _faults._STATE.schedule is not None:
        if _faults.check("wire.send") == "drop":
            return
    payload = pack_message(message)
    sock.sendall(_FRAME.pack(len(payload)) + payload)


def recv_message(sock: socket.socket, timeout: Optional[float] = None):
    """Receive one framed message.

    Raises :class:`EndOfStream` if the peer closed the stream (worker
    exit or crash — the kernel delivers EOF/ECONNRESET the moment the
    process dies, so death detection needs no timeout in the common
    case), and ``TimeoutError`` if ``timeout`` elapses mid-frame.
    Fault injection (site ``"wire.recv"``) acts before any byte is
    consumed, so an injected transient error never desynchronises the
    frame stream.
    """
    if _faults._STATE.schedule is not None:
        _faults.check("wire.recv")
    sock.settimeout(timeout)
    prefix = _recv_exact(sock, _FRAME.size)
    (length,) = _FRAME.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame length {length} exceeds sanity limit — corrupt stream")
    return unpack_message(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, _CHUNK))
        if not chunk:
            raise EndOfStream(
                f"peer closed the stream with {remaining} of {n} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------- #
# Error channel.
# ---------------------------------------------------------------------- #
#: exception types allowed to re-materialise coordinator-side, so remote
#: errors keep thread-backend semantics (``KeyError`` for unknown tenants,
#: ``ValueError`` for bad geometry, ``Overloaded``/``DeadlineExceeded``
#: for worker-side load shedding) without ever evaluating an arbitrary
#: type name off the wire.  Extensible via :func:`register_raiseable`.
_RAISEABLE: Dict[str, Type[BaseException]] = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "RuntimeError": RuntimeError,
    "IndexError": IndexError,
    "NotImplementedError": NotImplementedError,
    "ZeroDivisionError": ZeroDivisionError,
    "OverflowError": OverflowError,
    "TimeoutError": TimeoutError,
    "Overloaded": Overloaded,
    "DeadlineExceeded": DeadlineExceeded,
}


def register_raiseable(exc_type: Type[BaseException]) -> None:
    """Whitelist an exception type for :func:`raise_remote`.

    The type's ``__name__`` is the wire-level tag (what
    :func:`error_payload` emits), and it must be constructible from a
    single message string.  Registration is idempotent for the same
    type; re-registering a *different* type under an existing name
    raises — a silent swap would change what remote errors mean.
    """
    name = exc_type.__name__
    existing = _RAISEABLE.get(name)
    if existing is not None and existing is not exc_type:
        raise ValueError(
            f"raiseable name {name!r} already maps to {existing!r}; "
            "refusing to silently re-map it"
        )
    _RAISEABLE[name] = exc_type


def error_payload(error: BaseException) -> dict:
    """Describe an exception for the wire (type name + message only).

    A one-argument ``KeyError`` travels as its argument: its ``str()``
    is quoted, and re-raising that would quote the message twice.
    """
    args = error.args
    message = str(args[0]) if isinstance(error, KeyError) and len(args) == 1 else str(error)
    return {"type": type(error).__name__, "message": message}


def remote_error(payload: dict) -> BaseException:
    """Rebuild a worker-side error coordinator-side.

    Known builtins come back as themselves; anything else becomes a
    ``RuntimeError`` tagged with the original type name.
    """
    name = payload.get("type", "RuntimeError")
    message = payload.get("message", "")
    exc_type = _RAISEABLE.get(name)
    if exc_type is not None:
        return exc_type(message)
    return RuntimeError(f"worker raised {name}: {message}")


def raise_remote(payload: dict) -> None:
    """Re-raise a worker-side error coordinator-side (see :func:`remote_error`)."""
    raise remote_error(payload)


# ---------------------------------------------------------------------- #
# Worker spawning.
# ---------------------------------------------------------------------- #
_WORKER_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def spawn_worker(module: str, *args: str) -> Tuple[socket.socket, subprocess.Popen]:
    """Launch ``python -m module <fd> [args...]`` over one socketpair end.

    Returns the parent's socket and the child ``Popen``.  The child fd is
    passed by number via ``pass_fds`` (which both preserves the number and
    marks it inheritable), and ``PYTHONPATH`` is prefixed with this
    package's ``src`` root so the worker imports the same ``repro`` the
    coordinator is running — regardless of the caller's cwd.

    BLAS and OpenMP default to one thread per worker unless the caller's
    environment sets them: a cluster runs one worker per shard for its
    parallelism, and a BLAS thread pool inside each worker only
    oversubscribes the cores once a GEMM crosses the library's threading
    threshold.
    """
    parent, child = socket.socketpair()
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    for name in _WORKER_THREAD_VARS:
        env.setdefault(name, "1")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", module, str(child.fileno()), *args],
            pass_fds=(child.fileno(),),
            env=env,
        )
    except BaseException:
        parent.close()
        raise
    finally:
        child.close()
    return parent, process


def claim_worker_fd(fd: int) -> socket.socket:
    """Worker-side half of :func:`spawn_worker`: adopt the inherited fd."""
    return socket.socket(fileno=fd)
