"""Checkpoint oracle: a resolved chain is the live cluster, link after link.

Hypothesis draws schedules of ``ingest``, ``drop``, re-create-after-drop,
``add_shard``, ``remove_shard``, ``save``, ``save_incremental`` and
``compact`` on the thread backend.  After every checkpoint two things
must hold for the state the live cluster had when the chain's tip was
written (for ``save`` / ``save_incremental`` that is the state right
now; ``compact`` writes no new state, so it must reproduce the tip):

* ``resolve_chain(cluster.checkpoint_chain())`` equals ``to_state()``:
  every nested map in the same key order (tenant maps included), every
  array equal bit for bit; only the snapshot header's key order is free;
* a cluster revived by ``load_chain`` forecasts bit-identically to the
  live one.
"""

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ServiceSpec, ShardedForecaster, resolve_chain
from repro.config import ModelConfig

INPUT_LENGTH = 16
HORIZON = 4
CHANNELS = 2
MAX_SHARDS = 4

SPEC = ServiceSpec(
    config=ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=CHANNELS,
        patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=5,
    ),
    max_batch_size=16,
)

_tenant = st.integers(min_value=0, max_value=5)
_rows = st.integers(min_value=1, max_value=6)
_op = st.one_of(
    st.tuples(st.just("ingest"), _tenant, _rows),
    st.tuples(st.just("drop"), _tenant),
    st.tuples(st.just("recreate"), _tenant, _rows),
    st.tuples(st.just("add")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("save")),
    st.tuples(st.just("save_incremental")),
    st.tuples(st.just("compact")),
)
_schedule = st.lists(_op, min_size=6, max_size=16)


def assert_same_tree(left, right, where="state"):
    """Nested maps equal key for key *in order*; arrays equal bit for bit."""
    if isinstance(left, dict):
        assert isinstance(right, dict), where
        assert list(left) == list(right), f"{where}: {list(left)} != {list(right)}"
        for key in left:
            assert_same_tree(left[key], right[key], f"{where}/{key}")
    elif isinstance(left, (list, tuple)):
        assert isinstance(right, (list, tuple)) and len(left) == len(right), where
        for index, (a, b) in enumerate(zip(left, right)):
            assert_same_tree(a, b, f"{where}[{index}]")
    elif isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray), where
        assert (left.dtype, left.shape) == (right.dtype, right.shape), where
        assert left.tobytes() == right.tobytes(), f"{where}: bits differ"
    else:
        assert left == right, f"{where}: {left!r} != {right!r}"


def assert_same_state(resolved, live):
    """The header's key order is free; everything below it is not."""
    assert sorted(resolved) == sorted(live)
    for key in live:
        assert_same_tree(resolved[key], live[key], key)


def forecasts(cluster):
    return [(tenant, handle.result()) for tenant, handle in cluster.forecast_all().items()]


class Drill:
    """Apply a schedule to a live cluster, checking the oracle at every link."""

    def __init__(self, workdir, data_seed):
        self.cluster = ShardedForecaster(SPEC, n_shards=2, normalization="rolling")
        self.workdir = workdir
        self.rng = np.random.default_rng(data_seed)
        self.clock = 0
        self.links = 0
        self.checks = 0
        self.tip = None     # (state, forecasts) of the live cluster at the chain tip

    def ingest(self, index, count):
        # Even tenants are stamped from one global clock, odd ones never.
        stamp = None
        if index % 2 == 0:
            self.clock += 1
            stamp = self.clock
        block = self.rng.normal(size=(count, CHANNELS)).astype(np.float32) * (index + 1)
        self.cluster.ingest(f"tenant-{index}", block, timestamp=stamp)

    def run(self, ops):
        cluster = self.cluster
        for op in ops:
            kind = op[0]
            tenants = cluster.tenants()
            if kind == "ingest":
                self.ingest(op[1], op[2])
            elif kind == "drop":
                if f"tenant-{op[1]}" in tenants:
                    cluster.drop(f"tenant-{op[1]}")
            elif kind == "recreate":
                if f"tenant-{op[1]}" in tenants:
                    cluster.drop(f"tenant-{op[1]}")
                self.ingest(op[1], op[2])
            elif kind == "add":
                if len(cluster.shard_ids()) < MAX_SHARDS:
                    cluster.add_shard()
            elif kind == "remove":
                shard_ids = sorted(cluster.shard_ids())
                if len(shard_ids) > 1:
                    cluster.remove_shard(shard_ids[op[1] % len(shard_ids)])
            elif kind == "compact":
                if cluster.checkpoint_chain():
                    cluster.compact()
                    self.check()
            elif tenants:
                path = os.path.join(self.workdir, f"link-{self.links}")
                self.links += 1
                if kind == "save" or not cluster.checkpoint_chain():
                    cluster.save(path)
                else:
                    cluster.save_incremental(path)
                # The live state is read before the oracle's own forecasts
                # move the counters the next link will capture.
                self.tip = (cluster.to_state(), forecasts(cluster))
                self.check()
        return self

    def check(self):
        state, expected = self.tip
        chain = self.cluster.checkpoint_chain()
        assert_same_state(resolve_chain(chain), state)
        revived = ShardedForecaster.load_chain(SPEC, chain)
        got = forecasts(revived)
        assert [tenant for tenant, _ in got] == [tenant for tenant, _ in expected]
        for (tenant, value), (_, want) in zip(got, expected):
            assert value.tobytes() == want.tobytes(), tenant
        self.checks += 1


class TestCheckpointOracle:
    def test_fixed_schedule(self):
        """Save, ingest, drop, a new tenant, a delta, ``add_shard``, a delta."""
        ops = [("ingest", i, 3) for i in range(5)] + [
            ("save",),
            ("ingest", 1, 2),
            ("drop", 3),
            ("ingest", 5, 4),
            ("save_incremental",),
            ("add",),
            ("save_incremental",),
        ]
        with tempfile.TemporaryDirectory() as workdir:
            drill = Drill(workdir, data_seed=0).run(ops)
        assert drill.checks == 3

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_schedule, data_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_schedules(self, ops, data_seed):
        with tempfile.TemporaryDirectory() as workdir:
            Drill(workdir, data_seed).run(ops)
