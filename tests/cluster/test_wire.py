"""Tests for the pickle-free wire transport (:mod:`repro.wire`)."""

import datetime
import json
import math
import os
import socket
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import errors, wire
from repro.cluster import ServiceSpec
from repro.cluster.snapshot import read_snapshot, write_snapshot
from repro.config import ModelConfig


class TestMessageCodec:
    def test_nested_tree_round_trips(self):
        message = {
            "cmd": "ingest",
            "tenant": "meter-7",
            "values": np.arange(12, dtype=np.float32).reshape(6, 2),
            "timestamp": None,
            "nested": {"flags": [True, False], "rate": 0.5, "count": 3},
        }
        decoded = wire.unpack_message(wire.pack_message(message))
        assert decoded["cmd"] == "ingest"
        assert decoded["tenant"] == "meter-7"
        np.testing.assert_array_equal(decoded["values"], message["values"])
        assert decoded["values"].dtype == np.float32
        assert decoded["timestamp"] is None
        assert decoded["nested"] == {"flags": [True, False], "rate": 0.5, "count": 3}

    def test_numpy_scalars_round_trip_as_scalars(self):
        # np.float64 subclasses float and np.ascontiguousarray promotes
        # 0-d to 1-d — both historically mangled scalars; neither may.
        for value in (np.int64(10), np.float64(2.5), np.float32(1.5), np.bool_(True)):
            decoded = wire.unpack_message(wire.pack_message({"v": value}))["v"]
            assert decoded == value
            assert decoded.shape == ()
            assert decoded.dtype == value.dtype

    def test_datetime64_units_preserved(self):
        stamp = np.datetime64("2026-08-08T12:34:56")
        decoded = wire.unpack_message(wire.pack_message({"t": stamp}))["t"]
        assert decoded == stamp
        assert decoded.dtype == stamp.dtype  # unit lives in dtype.str

    def test_stdlib_datetimes_round_trip(self):
        message = {
            "dt": datetime.datetime(2026, 8, 8, 12, 0, 1),
            "d": datetime.date(2026, 8, 8),
        }
        assert wire.unpack_message(wire.pack_message(message)) == message

    def test_non_contiguous_arrays_round_trip(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[::2, 1::2]
        decoded = wire.unpack_message(wire.pack_message({"a": view}))["a"]
        np.testing.assert_array_equal(decoded, view)

    def test_decoded_arrays_are_writable_copies(self):
        payload = wire.pack_message({"a": np.zeros(4)})
        decoded = wire.unpack_message(payload)["a"]
        decoded[0] = 1.0  # a read-only frombuffer view would raise

    def test_object_dtype_rejected(self):
        with pytest.raises(TypeError, match="object-dtype"):
            wire.pack_message({"bad": np.array([object()])})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError, match="cannot snapshot"):
            wire.pack_message({"bad": {1, 2}})

    def test_bad_magic_rejected(self):
        payload = bytearray(wire.pack_message({"ok": True}))
        payload[:4] = b"XXXX"
        with pytest.raises(ValueError, match="bad magic"):
            wire.unpack_message(bytes(payload))

    def test_truncated_payload_rejected(self):
        payload = wire.pack_message({"a": np.arange(100)})
        with pytest.raises(ValueError):
            wire.unpack_message(payload[:-10])

    def test_trailing_garbage_rejected(self):
        payload = wire.pack_message({"ok": True})
        with pytest.raises(ValueError, match="trailing"):
            wire.unpack_message(payload + b"\x00")


# ---------------------------------------------------------------------- #
# Codec properties: every supported tree comes back with its exact types.
# ---------------------------------------------------------------------- #
def _parent_encode(value, arrays):
    """The per-item manifest layout the codec wrote before ``plain`` nodes:
    every list item is a node of its own.  Old frames and snapshots still
    carry it, so the decoder must keep reading it."""
    if value is None:
        return {"t": "none"}
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, (np.generic, np.ndarray)):
        name = f"a{len(arrays)}"
        arrays[name] = np.asarray(value)
        return {"t": "scalar" if isinstance(value, np.generic) else "array", "v": name}
    if isinstance(value, (int, float, str)):
        return {"t": type(value).__name__, "v": value}
    if isinstance(value, datetime.datetime):
        return {"t": "datetime", "v": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"t": "date", "v": value.isoformat()}
    if isinstance(value, dict):
        return {"t": "dict", "v": {k: _parent_encode(v, arrays) for k, v in value.items()}}
    return {"t": "list", "v": [_parent_encode(item, arrays) for item in value]}


def assert_same(sent, got):
    """``got`` is ``sent`` after a round trip: same types, same values
    (NaN as NaN, ``-0.0`` keeping its sign); a tuple comes back a list."""
    if isinstance(sent, (list, tuple)):
        assert type(got) is list and len(got) == len(sent)
        for left, right in zip(sent, got):
            assert_same(left, right)
    elif isinstance(sent, dict):
        assert type(got) is dict and list(got) == list(sent)
        for key in sent:
            assert_same(sent[key], got[key])
    elif isinstance(sent, (np.ndarray, np.generic)):
        assert type(got) is type(sent)
        assert got.dtype == sent.dtype and got.shape == sent.shape
        assert np.asarray(got).tobytes() == np.asarray(sent).tobytes()
    elif isinstance(sent, float):
        assert type(got) is float
        if math.isnan(sent):
            assert math.isnan(got)
        else:
            assert got == sent and math.copysign(1.0, got) == math.copysign(1.0, sent)
    else:
        assert type(got) is type(sent) and got == sent


_LONE_SURROGATES = st.sampled_from(["\ud800", "a\udfffb", "\udc00\ud83d"])
_TEXT = st.one_of(st.text(st.characters(codec=None, exclude_categories=())), _LONE_SURROGATES)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
)
_PLAIN = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=-(2**130), max_value=2**130),
    _FLOATS,
    st.booleans(),
    st.none(),
)
_NUMPY_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_, "M8[s]", "M8[ms]"]
)
_ARRAYS = _NUMPY_DTYPES.flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3))
)
_NUMPY_SCALARS = _ARRAYS.map(lambda array: array.reshape(-1)[:1]).filter(len).map(
    lambda array: array[0]
)
_DATETIMES = st.one_of(st.datetimes(), st.dates())
_MIXED = st.one_of(_PLAIN, _NUMPY_SCALARS, _ARRAYS, _DATETIMES)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.dictionaries(_TEXT, children, max_size=4),
        ),
        max_leaves=20,
    )


#: nested dicts and lists mixing plain lists (one ``plain`` node each) with
#: lists that hold numpy values or datetimes (one node per item)
_STATES = st.dictionaries(
    _TEXT,
    st.one_of(
        st.lists(_PLAIN, max_size=8),
        st.lists(_PLAIN, max_size=8).map(tuple),
        st.lists(_MIXED, max_size=6),
        _trees(_MIXED),
    ),
    max_size=5,
)


class TestCodecProperties:
    @settings(max_examples=150, deadline=None)
    @given(state=_STATES)
    def test_messages_round_trip_exactly(self, state):
        assert_same(state, wire.unpack_message(wire.pack_message(state)))

    @settings(max_examples=30, deadline=None)
    @given(state=_STATES)
    def test_snapshots_round_trip_exactly(self, state):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "state.npz")
            write_snapshot(state, path)
            assert_same(state, read_snapshot(path))

    @settings(max_examples=100, deadline=None)
    @given(state=_STATES)
    def test_per_item_layout_still_decodes(self, state):
        arrays = {}
        manifest = {"version": 1, "tree": _parent_encode(state, arrays)}
        assert_same(state, wire.decode_state(manifest, arrays))

    def test_plain_list_is_one_node(self):
        manifest, arrays = wire.encode_state(
            {"tenants": ["a", "b"], "mixed": (1, 2.5, True, None), "empty": []}
        )
        tree = manifest["tree"]["v"]
        assert tree["tenants"] == {"t": "plain", "v": ["a", "b"]}
        assert tree["mixed"] == {"t": "plain", "v": [1, 2.5, True, None]}
        assert tree["empty"] == {"t": "plain", "v": []}
        assert arrays == {}

    def test_numpy_items_keep_the_array_path(self):
        # np.float64 subclasses float, and np.bool_ compares equal to
        # bool: an exact type check must keep both out of a plain node.
        manifest, arrays = wire.encode_state([1.0, np.float64(2.0), np.bool_(True)])
        tree = manifest["tree"]
        assert tree["t"] == "list"
        assert [node["t"] for node in tree["v"]] == ["float", "scalar", "scalar"]
        assert len(arrays) == 2

    def test_hand_built_parent_manifest_decodes(self):
        manifest = {
            "version": 1,
            "tree": {
                "t": "dict",
                "v": {
                    "tenants": {"t": "list", "v": [{"t": "str", "v": "meter-1"}, {"t": "str", "v": "meter-2"}]},
                    "counts": {"t": "list", "v": [{"t": "int", "v": 1}, {"t": "float", "v": -0.0}]},
                    "flags": {"t": "list", "v": [{"t": "bool", "v": False}, {"t": "none"}]},
                    "stamps": {"t": "list", "v": [{"t": "scalar", "v": "a0"}, {"t": "date", "v": "2026-08-08"}]},
                },
            },
        }
        arrays = {"a0": np.array(np.datetime64("2026-08-08T12:00:00"))}
        expected = {
            "tenants": ["meter-1", "meter-2"],
            "counts": [1, -0.0],
            "flags": [False, None],
            "stamps": [np.datetime64("2026-08-08T12:00:00"), datetime.date(2026, 8, 8)],
        }
        decoded = wire.decode_state(manifest, arrays)
        assert_same(expected, decoded)
        # The same value re-encoded takes the plain layout and decodes equal.
        assert_same(expected, wire.unpack_message(wire.pack_message(decoded)))

    @pytest.mark.parametrize("items", [{"a": 1}, "ab", 3, None])
    def test_malformed_plain_node_raises_value_error(self, items):
        manifest = {"version": 1, "tree": {"t": "dict", "v": {"names": {"t": "plain", "v": items}}}}
        with pytest.raises(ValueError, match="plain"):
            wire.decode_state(manifest, {})

    def test_malformed_plain_node_in_a_frame_raises_value_error(self):
        header = b'{"manifest": {"version": 1, "tree": {"t": "plain", "v": {}}}, "arrays": []}'
        payload = b"RPW1" + len(header).to_bytes(4, "big") + header
        with pytest.raises(ValueError, match="plain"):
            wire.unpack_message(payload)


# ---------------------------------------------------------------------- #
# Decoding is total: whatever the bytes, a frame decodes or raises
# ValueError — never KeyError, TypeError or AttributeError.
# ---------------------------------------------------------------------- #
def _frame(header: dict, blobs: bytes = b"") -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return b"RPW1" + len(raw).to_bytes(4, "big") + raw + blobs


def _tree(node) -> dict:
    return {"version": 1, "tree": node}


#: the three frame shapes the process backend exchanges every tick
_SWEEP_REQUEST = {
    "cmd": "forecast_many", "seq": 7, "tenants": ["meter-1", "meter-2", "meter-3"],
    "fn": [np.ones((4, 2), dtype=np.float32), None, np.zeros((4, 2), dtype=np.float32)],
    "fc": None, "priority": "batch", "budget": 0.25, "flush": True,
    "rows": {
        "tenants": ["meter-1", "meter-3"], "counts": np.array([1, 2], dtype=np.int64),
        "values": np.arange(6, dtype=np.float32).reshape(3, 2),
        "timestamps": [np.datetime64("2026-08-08T12:00"), np.datetime64("2026-08-08T13:00")],
    },
}
_SWEEP_REPLY = {
    "flushed": 3, "seqs": [6, 7],
    "values": [np.zeros((1, 4, 2), dtype=np.float32), np.ones((3, 4, 2))],
    "errors": [(7, 1, {"type": "IndexError", "message": "index 99 is out of bounds"})],
    "acks": {"observed": np.array([17, 18]), "generation": np.array([0, 2])},
    "seq": 7,
}
_INGEST = {
    "cmd": "ping", "seq": 8,
    "rows": {
        "tenants": ["meter-2"], "counts": np.array([4], dtype=np.int64),
        "values": np.ones((4, 2), dtype=np.float32), "timestamps": None,
    },
}
_FRAMES = [wire.pack_message(frame) for frame in (_SWEEP_REQUEST, _SWEEP_REPLY, _INGEST)]


def decodes_or_value_error(payload: bytes) -> None:
    try:
        wire.unpack_message(payload)
    except ValueError:
        pass


class TestDecodingIsTotal:
    @pytest.mark.parametrize(
        "node",
        [
            {"v": 3},                                          # no kind
            {"t": "list", "v": 3},                             # list of an int
            {"t": "dict", "v": ["a"]},                         # dict of a list
            {"t": "dict", "v": {"a": {"t": "int"}}},           # int with no value
            {"t": "dict", "v": {"a": "meter-1"}},              # a bare value, not a node
            {"t": "array", "v": "a0"},                         # entry the frame lacks
            {"t": "scalar", "v": "a9"},
            {"t": "array", "v": 0},                            # entry name not a string
            {"t": "datetime", "v": 20260808},
            "none",
            None,
        ],
    )
    def test_malformed_node_raises_value_error(self, node):
        with pytest.raises(ValueError):
            wire.decode_state(_tree(node), {})
        with pytest.raises(ValueError):
            wire.unpack_message(_frame({"manifest": _tree(node), "arrays": []}))

    @pytest.mark.parametrize("manifest", [None, [], "tree", {"tree": {"t": "none"}}])
    def test_malformed_manifest_raises_value_error(self, manifest):
        with pytest.raises(ValueError):
            wire.decode_state(manifest, {})

    def test_manifests_that_raised_untyped_errors(self):
        # A node with no kind raised KeyError('t'), a list node holding an
        # int TypeError, and an array node naming an absent entry KeyError.
        cases = [
            ({"t": "dict", "v": {"x": {"v": 1}}}, {}),
            ({"t": "list", "v": 5}, {}),
            ({"t": "array", "v": "a1"}, {"a0": np.zeros(2)}),
        ]
        for node, arrays in cases:
            with pytest.raises(ValueError):
                wire.decode_state(_tree(node), arrays)

    @pytest.mark.parametrize(
        "header",
        [
            [],
            "manifest",
            {"manifest": _tree({"t": "none"})},                            # no array list
            {"manifest": _tree({"t": "none"}), "arrays": {}},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0"}]},   # missing keys
            {"manifest": _tree({"t": "none"}), "arrays": ["a0"]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "float", "s": [2], "n": 16}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "<f8,<f8", "s": [1], "n": 16}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "|O8", "s": [2], "n": 16}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "<f8", "s": ["2"], "n": 16}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "<f8", "s": 2, "n": 16}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "<f8", "s": [2], "n": "x"}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "<f8", "s": [2], "n": None}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "<f8", "s": [2], "n": float("inf")}]},
            {"manifest": _tree({"t": "none"}), "arrays": [{"k": "a0", "d": "<f8", "s": [3], "n": 16}]},
        ],
    )
    def test_malformed_header_raises_value_error(self, header):
        with pytest.raises(ValueError):
            wire.unpack_message(_frame(header, np.zeros(2).tobytes()))

    def test_short_payload_raises_value_error(self):
        with pytest.raises(ValueError, match="truncated"):
            wire.unpack_message(b"RPW1\x00\x00")

    def test_frames_round_trip(self):
        for frame, payload in zip((_SWEEP_REQUEST, _SWEEP_REPLY, _INGEST), _FRAMES):
            decoded = wire.unpack_message(payload)
            assert sorted(decoded) == sorted(frame)
            assert decoded["seq"] == frame["seq"]

    @settings(max_examples=400, deadline=None)
    @given(
        frame=st.sampled_from(_FRAMES),
        edits=st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
            min_size=1, max_size=4,
        ),
    )
    def test_mutated_frames_decode_or_raise_value_error(self, frame, edits):
        mutated = bytearray(frame)
        for where, byte in edits:
            mutated[int(where * len(mutated))] = byte
        decodes_or_value_error(bytes(mutated))

    @settings(max_examples=200, deadline=None)
    @given(frame=st.sampled_from(_FRAMES), data=st.data())
    def test_truncated_frames_raise_value_error(self, frame, data):
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(ValueError):
            wire.unpack_message(frame[:cut])


class TestWorkerDispatchIsClosed:
    """The worker's control plane is a table of ``LocalShard`` methods:
    a request naming any other shard attribute is refused typed, and the
    worker keeps serving."""

    @pytest.mark.parametrize(
        "command", ["start", "collect", "close", "forecaster", "lock", "__init__"]
    )
    def test_shard_attribute_outside_the_table_is_unknown(self, command):
        spec = ServiceSpec(
            config=ModelConfig(
                input_length=16, horizon=4, n_channels=2, patch_length=4,
                hidden_dim=16, n_heads=2, n_layers=1, dropout=0.0, seed=11,
            )
        )
        sock, process = wire.spawn_worker("repro.cluster.worker")
        try:
            wire.send_message(sock, {"cmd": "init", "spec": spec.to_state(), "warmup": False})
            assert wire.recv_message(sock, timeout=30.0)["ok"] is True
            wire.send_message(sock, {"cmd": command, "seq": 1, "op": "census"})
            reply = wire.recv_message(sock, timeout=30.0)
            assert reply["seq"] == 1 and set(reply) == {"error", "seq"}
            with pytest.raises(ValueError, match="unknown command"):
                wire.raise_remote(reply["error"])
            wire.send_message(sock, {"cmd": "census", "seq": 2})
            assert wire.recv_message(sock, timeout=30.0) == {"result": {}, "seq": 2}
        finally:
            sock.close()  # worker exits on EOF
            assert process.wait(timeout=10.0) == 0


class TestFraming:
    def test_send_and_receive_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {"cmd": "reply", "data": np.arange(5)}
            wire.send_message(left, message)
            decoded = wire.recv_message(right, timeout=5.0)
            np.testing.assert_array_equal(decoded["data"], np.arange(5))
        finally:
            left.close()
            right.close()

    def test_messages_keep_order(self):
        left, right = socket.socketpair()
        try:
            for index in range(5):
                wire.send_message(left, {"seq": index})
            assert [wire.recv_message(right, timeout=5.0)["seq"] for _ in range(5)] == list(range(5))
        finally:
            left.close()
            right.close()

    def test_large_frame_crosses_in_chunks(self):
        # Bigger than any socket buffer: exercises the sendall/_recv_exact
        # loops.  Sent from a thread because one process can't block on
        # both ends of a full pipe.
        big = np.arange(1_000_000, dtype=np.float64)
        left, right = socket.socketpair()
        try:
            sender = threading.Thread(target=wire.send_message, args=(left, {"big": big}))
            sender.start()
            decoded = wire.recv_message(right, timeout=30.0)
            sender.join()
            np.testing.assert_array_equal(decoded["big"], big)
        finally:
            left.close()
            right.close()

    def test_peer_close_raises_end_of_stream(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(wire.EndOfStream):
                wire.recv_message(right, timeout=5.0)
        finally:
            right.close()

    def test_end_of_stream_is_a_connection_error(self):
        # Handlers must be able to order EndOfStream before the broader
        # (ConnectionError, OSError) net without shadowing.
        assert issubclass(wire.EndOfStream, ConnectionError)
        # One class, homed with the other typed errors.
        assert wire.EndOfStream is errors.EndOfStream

    def test_timeout_mid_silence(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(TimeoutError):
                wire.recv_message(right, timeout=0.1)
        finally:
            left.close()
            right.close()

    def test_insane_frame_length_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((wire.MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
            with pytest.raises(ValueError, match="sanity"):
                wire.recv_message(right, timeout=5.0)
        finally:
            left.close()
            right.close()


class TestErrorChannel:
    def test_known_builtins_rematerialise(self):
        for error, expected in (
            (KeyError("tenant-x"), KeyError),
            (ValueError("bad geometry"), ValueError),
            (TypeError("nope"), TypeError),
            (RuntimeError("boom"), RuntimeError),
        ):
            with pytest.raises(expected):
                wire.raise_remote(wire.error_payload(error))

    def test_unknown_type_becomes_tagged_runtime_error(self):
        class Exotic(Exception):
            pass

        with pytest.raises(RuntimeError, match="Exotic"):
            wire.raise_remote(wire.error_payload(Exotic("private")))

    def test_type_names_never_evaluated(self):
        # A hostile payload names an arbitrary callable; it must come back
        # as a tagged RuntimeError, not an instantiation of that name.
        with pytest.raises(RuntimeError, match="os.system"):
            wire.raise_remote({"type": "os.system", "message": "echo pwned"})

    def test_payload_survives_the_wire(self):
        payload = wire.error_payload(KeyError("gone"))
        decoded = wire.unpack_message(wire.pack_message({"error": payload}))["error"]
        with pytest.raises(KeyError):
            wire.raise_remote(decoded)


class TestSpawn:
    def test_spawn_worker_round_trip_and_eof(self):
        sock, process = wire.spawn_worker("repro.cluster.worker")
        try:
            wire.send_message(sock, {"cmd": "ping"})
            reply = wire.recv_message(sock, timeout=30.0)
            assert reply["ok"] is True
            assert reply["pid"] == process.pid
        finally:
            sock.close()  # worker exits on EOF
            assert process.wait(timeout=10.0) == 0
