"""A restored state's store header is a trust boundary, on every restore path.

A shard state names its store's geometry — ``{capacity, n_channels,
dtype}`` — and its normalisation mode.  ``StreamingForecaster.from_state``
and ``Coordinator.load`` (both backends) must refuse a header the model
cannot serve with ``ValueError`` before any tenant is adopted, and a
process-backend load must refuse it before any worker spawns.  Hypothesis
draws the corruption: a dtype other than float32 (an ``int8`` slab would
silently truncate every ingest), a channel count the model does not take,
a capacity below ``input_length`` (every forecast a padded cold start),
and a normalisation that is unknown or the retired ``"last_value"``.  A
cluster load also refuses headers each shard would accept but that
disagree: a cluster normalisation other than its shards' (the next
``add_shard`` would build a store without the moments the tenants carry),
or shards of different capacities.
"""

import copy
import functools
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import wire
from repro.cluster import ProcessCoordinator, ShardedForecaster, write_snapshot
from repro.streaming import StreamingForecaster

from test_conformance import CHANNELS, INPUT_LENGTH, SPEC, populate

#: header field -> the values it must be refused with
CORRUPTIONS = {
    "dtype": st.one_of(
        st.sampled_from(["int8", "uint8", "int32", "float16", "float64", "bool"]),
        st.text(max_size=8),
    ).filter(lambda name: name != "float32"),
    "n_channels": st.integers(-2, 16).filter(lambda count: count != CHANNELS),
    "capacity": st.integers(-2, INPUT_LENGTH - 1),
    "normalization": st.one_of(st.just("last_value"), st.text(max_size=12)).filter(
        lambda mode: mode not in ("none", "rolling")
    ),
}
#: cluster-level corruptions: every shard header is servable, but they disagree
CLUSTER_CORRUPTIONS = {
    # the saved cluster keeps rolling statistics, like its shards
    "cluster_normalization": st.just("none"),
    "second_shard_capacity": st.integers(INPUT_LENGTH, 8 * INPUT_LENGTH).filter(
        lambda capacity: capacity != 4 * INPUT_LENGTH
    ),
}


def drawn(table):
    return st.one_of(*(st.tuples(st.just(field), values) for field, values in table.items()))


ALL_CORRUPTIONS = {**CORRUPTIONS, **CLUSTER_CORRUPTIONS}
corruptions = drawn(CORRUPTIONS)
cluster_corruptions = drawn(ALL_CORRUPTIONS)


@functools.lru_cache(maxsize=1)
def saved_state():
    """A valid two-shard cluster state (read-only: corruptions copy it)."""
    cluster = ShardedForecaster(SPEC, n_shards=2, normalization="rolling")
    populate(cluster)
    return cluster.to_state()


def first_shard_state():
    return next(iter(saved_state()["shards"].values()))


def corrupt_shard(shard_state, corruption):
    field, value = corruption
    shard_state = copy.deepcopy(shard_state)
    if field == "normalization":
        shard_state["normalization"] = value
    else:
        shard_state["store"][field] = value
    return shard_state


def corrupt_cluster(corruption):
    field, value = corruption
    state = copy.deepcopy(saved_state())
    if field == "cluster_normalization":
        state["normalization"] = value
    elif field == "second_shard_capacity":
        list(state["shards"].values())[1]["store"]["capacity"] = value
    else:
        state["shards"] = {
            shard_id: corrupt_shard(shard_state, corruption)
            for shard_id, shard_state in state["shards"].items()
        }
        if field == "normalization":
            state["normalization"] = value
    return state


def refuses_before_adopting(restore):
    """``restore()`` raises ``ValueError`` and no tenant reached a store."""
    adopted = []
    import_tenant = StreamingForecaster.import_tenant

    def recording(forecaster, tenant, payload):
        adopted.append(tenant)
        import_tenant(forecaster, tenant, payload)

    with mock.patch.object(StreamingForecaster, "import_tenant", recording):
        with pytest.raises(ValueError):
            restore()
    assert adopted == []


def load_corrupted(loader, corruption):
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "ckpt")
        write_snapshot(corrupt_cluster(corruption), path)
        return loader.load(SPEC, path)


class TestRestoredGeometryIsChecked:
    def test_the_uncorrupted_states_restore(self):
        shard_state = first_shard_state()
        forecaster = StreamingForecaster.from_state(SPEC.build(), shard_state)
        assert forecaster.store.tenants() == list(shard_state["tenants"])
        with tempfile.TemporaryDirectory() as directory:
            path = str(Path(directory) / "ckpt")
            write_snapshot(saved_state(), path)
            revived = ShardedForecaster.load(SPEC, path)
        assert sorted(revived.tenants()) == sorted(
            tenant for shard in saved_state()["shards"].values() for tenant in shard["tenants"]
        )

    @settings(max_examples=60, deadline=None)
    @given(corruption=corruptions)
    @example(corruption=("dtype", "int8"))   # would store an ingest of 300.9 as 44
    def test_forecaster_from_state_refuses_before_adopting(self, corruption):
        shard_state = corrupt_shard(first_shard_state(), corruption)
        refuses_before_adopting(lambda: StreamingForecaster.from_state(SPEC.build(), shard_state))

    @settings(max_examples=30, deadline=None)
    @given(corruption=cluster_corruptions)
    @example(corruption=("cluster_normalization", "none"))
    def test_thread_cluster_load_refuses_before_adopting(self, corruption):
        refuses_before_adopting(lambda: load_corrupted(ShardedForecaster, corruption))

    @pytest.mark.parametrize("field", sorted(ALL_CORRUPTIONS))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_process_cluster_load_refuses_and_reaps_its_workers(self, field, data):
        corruption = (field, data.draw(ALL_CORRUPTIONS[field]))
        spawned = []
        spawn_worker = wire.spawn_worker

        def recording(*args):
            sock, process = spawn_worker(*args)
            spawned.append(process)
            return sock, process

        with mock.patch.object(wire, "spawn_worker", recording):
            with pytest.raises(ValueError):
                load_corrupted(ProcessCoordinator, corruption)
        assert spawned == [], "a refused header spawned workers"
