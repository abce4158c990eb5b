"""Property stress: random op interleavings vs a serial replay oracle.

Hypothesis drives randomized schedules of ``ingest`` / ``drop`` /
``checkpoint`` / ``add_shard`` / ``remove_shard`` / ``failover`` (and
``crash``: kill, ingest rows nobody has delivered, fail over) against
a live cluster while a plain-Python oracle tracks, per tenant, the rows
that should survive.  The oracle is updated *through the cluster's own
FailoverReport* — lost tenants vanish, restored tenants roll back to the
checkpoint watermark — and the report's stale accounting is cross-checked
against the oracle's row counts.  At the end, an unsharded
:class:`StreamingForecaster` replays each surviving tenant's oracle rows
and every forecast must match the cluster bit-for-bit.

Runs on both backends: the thread backend carries the example budget
(cheap), the process backend gets a few examples with a real ``kill -9``
before each failover (spawning workers per example is expensive).  Only
the process backend kills, so both backends run identical schedules.
"""

import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster import ProcessCoordinator, ServiceSpec, ShardedForecaster
from repro.config import ModelConfig
from repro.streaming import StreamingForecaster

INPUT_LENGTH = 16
HORIZON = 4
CHANNELS = 2
MAX_SHARDS = 4

SPEC = ServiceSpec(
    config=ModelConfig(
        input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=CHANNELS,
        patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=7,
    ),
    max_batch_size=16,
)

_tenant = st.integers(min_value=0, max_value=5)
_op = st.one_of(
    st.tuples(st.just("ingest"), _tenant, st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("drop"), _tenant),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("add")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("failover"), st.integers(min_value=0, max_value=9)),
    st.tuples(
        st.just("crash"), st.integers(min_value=0, max_value=9), _tenant,
        st.integers(min_value=1, max_value=6),
    ),
)
_schedule = st.lists(_op, min_size=4, max_size=14)


def run_drill(cluster, ops, data_seed, kill_for_real):
    """Apply the schedule; return the oracle's surviving per-tenant rows."""
    rng = np.random.default_rng(data_seed)
    rows = {}   # tenant -> [row-block, ...] appended in ingest order
    ckpt = {}   # deep enough copy of `rows` at the last checkpoint
    with tempfile.TemporaryDirectory() as workdir:
        n_checkpoints = 0
        for op in ops:
            kind = op[0]
            if kind == "ingest":
                tenant = f"tenant-{op[1]}"
                block = rng.normal(size=(op[2], CHANNELS)).astype(np.float32)
                cluster.ingest(tenant, block)
                rows.setdefault(tenant, []).append(block)
            elif kind == "drop":
                tenant = f"tenant-{op[1]}"
                if tenant in rows:
                    cluster.drop(tenant)
                    del rows[tenant]
            elif kind == "checkpoint":
                if not rows:
                    continue
                path = os.path.join(workdir, f"ckpt-{n_checkpoints}")
                if n_checkpoints == 0:
                    cluster.save(path)
                else:
                    cluster.save_incremental(path)
                n_checkpoints += 1
                ckpt = {tenant: list(blocks) for tenant, blocks in rows.items()}
            elif kind == "add":
                if len(cluster.shard_ids()) < MAX_SHARDS:
                    cluster.add_shard()
            elif kind == "remove":
                shard_ids = sorted(cluster.shard_ids())
                if len(shard_ids) > 1:
                    cluster.remove_shard(shard_ids[op[1] % len(shard_ids)])
            elif kind in ("failover", "crash"):
                shard_ids = sorted(cluster.shard_ids())
                if n_checkpoints == 0 or len(shard_ids) < 2:
                    continue
                victim = shard_ids[op[1] % len(shard_ids)]
                if kill_for_real:
                    os.kill(cluster.worker_pid(victim), signal.SIGKILL)
                if kind == "crash":
                    # Rows accepted between the kill and the next frame,
                    # into a tenant on the victim where the ring has one.
                    names = [f"tenant-{(op[2] + i) % 6}" for i in range(6)]
                    tenant = next((t for t in names if cluster.shard_for(t) == victim), names[0])
                    block = rng.normal(size=(op[3], CHANNELS)).astype(np.float32)
                    cluster.ingest(tenant, block)
                    rows.setdefault(tenant, []).append(block)
                report = cluster.failover(victim)
                # Cross-check the stale accounting against oracle counts
                # *before* rolling the oracle back: rows rolled back must
                # equal live-minus-checkpoint exactly.
                for tenant, n_stale in report.stale.items():
                    live = sum(len(b) for b in rows[tenant])
                    checkpointed = sum(len(b) for b in ckpt[tenant])
                    assert n_stale == live - checkpointed
                # The report *is* the oracle update: anything it calls lost
                # is gone, anything restored rolls back to the checkpoint.
                for tenant in report.lost:
                    rows.pop(tenant, None)
                for tenant in report.restored:
                    rows[tenant] = list(ckpt[tenant])
    return rows


def assert_matches_serial_replay(cluster, rows):
    assert sorted(cluster.tenants()) == sorted(rows)
    if not rows:
        return
    reference = StreamingForecaster(SPEC.build())
    for tenant, blocks in rows.items():
        reference.ingest(tenant, np.concatenate(blocks))
    handles = cluster.forecast_all()
    expected = {t: reference.forecast(t) for t in rows}
    reference.flush()
    for tenant in rows:
        np.testing.assert_array_equal(
            handles[tenant].result(), expected[tenant].result()
        )


def assert_census_matches_workers(cluster):
    """Each process shard's census — projected from accepted rows, buffered
    ones included — equals what its worker reports once they land."""
    # The coordinator keeps no public accessor for its shard handles.
    for shard in cluster._shards.values():
        with shard.lock:
            projected = shard.census()
            reply = shard.request("census")["result"]
        assert list(projected.items()) == [
            (tenant, (observed, generation)) for tenant, (observed, generation) in reply.items()
        ]


class TestScheduleParity:
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_schedule, data_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_thread_backend(self, ops, data_seed):
        cluster = ShardedForecaster(SPEC, n_shards=2)
        rows = run_drill(cluster, ops, data_seed, kill_for_real=False)
        assert_matches_serial_replay(cluster, rows)

    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_schedule, data_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_process_backend_with_real_kills(self, ops, data_seed):
        with ProcessCoordinator(SPEC, n_shards=2, warmup=False) as cluster:
            rows = run_drill(cluster, ops, data_seed, kill_for_real=True)
            assert_census_matches_workers(cluster)
            assert_matches_serial_replay(cluster, rows)

    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_schedule, data_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(
        ops=[("ingest", 0, 3), ("ingest", 1, 4), ("ingest", 2, 2), ("checkpoint",),
             ("ingest", 0, 2), ("crash", 0, 0, 3)],
        data_seed=1,
    )
    def test_backends_agree_on_identical_schedules(self, ops, data_seed):
        thread = ShardedForecaster(SPEC, n_shards=2)
        thread_rows = run_drill(thread, ops, data_seed, kill_for_real=False)
        with ProcessCoordinator(SPEC, n_shards=2, warmup=False) as process:
            process_rows = run_drill(process, ops, data_seed, kill_for_real=True)
            assert_census_matches_workers(process)
            assert sorted(process_rows) == sorted(thread_rows)
            thread_handles = thread.forecast_all()
            process_handles = process.forecast_all()
            for tenant in thread_rows:
                np.testing.assert_array_equal(
                    process_handles[tenant].result(), thread_handles[tenant].result()
                )
