"""Cluster quickstart: sharded, persistent multi-tenant serving.

Run with::

    python examples/cluster_quickstart.py

Where ``streaming_quickstart.py`` serves many tenants through ONE model
replica in ONE process, this script is the scaling step past both limits:

1. stand up a :class:`ShardedForecaster` — N full streaming stacks (one
   :class:`ForecastService` replica each) behind a consistent-hash ring
   that routes every tenant to a stable shard;
2. serve live traffic through the cluster façade: per-shard micro-batches,
   cluster-wide stats via ``ServiceStats.merge``;
3. grow the cluster live: ``add_shard`` migrates ONLY the tenants whose
   ring assignment changed (≈ 1/N of them), carrying ring buffers,
   timestamp watermarks and Welford scaler moments with them;
4. survive a restart: snapshot the whole cluster to one ``.npz`` archive,
   revive it around fresh replicas, and verify the revived cluster
   forecasts bit-identically;
5. run the fan-outs in parallel (a ``concurrent.futures.ThreadPoolExecutor``
   as the cluster's ``executor`` drives S shards on S cores), checkpoint
   O(churn) with ``save_incremental``, and survive a dead replica with
   ``failover`` — tenants re-home to the survivors from the last
   checkpoint chain.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import ModelConfig
from repro.cluster import ShardedForecaster
from repro.core import LiPFormer
from repro.serving import ForecastService


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A cluster of model replicas.  Construction is deterministic from
    #    config.seed, so every shard's service hosts identical weights —
    #    in production you would load one trained state dict per replica.
    # ------------------------------------------------------------------ #
    config = ModelConfig(input_length=96, horizon=24, n_channels=1,
                         patch_length=24, hidden_dim=64, dropout=0.0)

    def service_factory() -> ForecastService:
        return ForecastService(LiPFormer(config), max_batch_size=64)

    cluster = ShardedForecaster(service_factory, n_shards=2, normalization="rolling")

    # Forty tenants at wildly different operating levels; the rolling
    # per-tenant scalers mean none of them needs an offline fit.
    rng = np.random.default_rng(17)
    t = np.arange(140, dtype=np.float32)
    tenants = {}
    for i in range(40):
        level = 10.0 ** (1 + (i % 4))
        seasonal = np.sin(2 * np.pi * t / 24 + i)[:, None]
        tenants[f"tenant-{i}"] = (
            level * (1 + 0.1 * seasonal + 0.02 * rng.normal(size=(len(t), 1)))
        ).astype(np.float32)

    for name, values in tenants.items():
        cluster.ingest(name, values[:96])
    placement = {s: len(cluster.shard(s).store) for s in cluster.shard_ids()}
    print(f"2-shard cluster, tenant placement: {placement}")

    # ------------------------------------------------------------------ #
    # 2. Live ticks through the cluster façade.
    # ------------------------------------------------------------------ #
    for step in range(96, 110):
        handles = cluster.ingest_and_forecast(
            {name: values[step] for name, values in tenants.items()}
        )
        for handle in handles.values():
            handle.result()
    stats = cluster.service_stats()
    print(f"cluster-wide: {stats.requests} requests in {stats.forward_passes} "
          f"passes (mean batch {stats.mean_batch_size:.1f} across "
          f"{len(cluster)} shards)")

    # ------------------------------------------------------------------ #
    # 3. Scale out live: one new shard, minimal migration.
    # ------------------------------------------------------------------ #
    moved = cluster.add_shard("shard-2")
    print(f"added shard-2: migrated {len(moved)}/{cluster.tenant_count()} tenants "
          f"({len(moved) / cluster.tenant_count():.0%}, consistent hashing "
          f"≈ 1/3 expected) — not a full reshuffle")

    before = {
        name: cluster.forecast(name).result() for name in list(tenants)[:5]
    }

    # ------------------------------------------------------------------ #
    # 4. Snapshot → restart → bit-identical forecasts.
    # ------------------------------------------------------------------ #
    path = os.path.join(tempfile.mkdtemp(prefix="repro-cluster-"), "cluster.npz")
    cluster.save(path)
    revived = ShardedForecaster.load(service_factory, path)
    after = {name: revived.forecast(name).result() for name in before}
    identical = all(np.array_equal(before[n], after[n]) for n in before)
    size_kb = os.path.getsize(path) / 1024
    print(f"snapshot {size_kb:,.0f} KiB → revived {len(revived)} shards, "
          f"{revived.tenant_count()} tenants; forecasts bit-identical: {identical}")
    assert identical

    # ------------------------------------------------------------------ #
    # 5. Pool fan-out, O(churn) checkpoints and replica failover.
    # ------------------------------------------------------------------ #
    with ThreadPoolExecutor(len(revived)) as pool:
        revived.executor = pool             # S shards on S cores
        for handle in revived.forecast_all().values():
            handle.result()

        # A handful of tenants tick; the delta checkpoint captures only them.
        for name in list(tenants)[:4]:
            revived.ingest(name, tenants[name][-1][None, :])
        delta_path = path.replace("cluster.npz", "delta.npz")
        revived.save(path)                   # full base (starts the chain)
        for name in list(tenants)[:4]:
            revived.ingest(name, tenants[name][-1][None, :])
        revived.save_incremental(delta_path)
        full_kb = os.path.getsize(path) / 1024
        delta_kb = os.path.getsize(delta_path) / 1024
        print(f"incremental checkpoint: {delta_kb:,.1f} KiB vs {full_kb:,.0f} KiB "
              f"full ({delta_kb / full_kb:.0%}) for 4/{revived.tenant_count()} "
              "churned tenants")

        # A replica dies.  Its ring arc falls to the survivors and its tenants
        # restore from the checkpoint chain — the report is honest about any
        # arrivals the chain had not yet captured.
        victim = revived.shard_ids()[0]
        report = revived.failover(victim)
        print(f"failover of {victim}: {len(report.restored)} tenants re-homed, "
              f"{len(report.lost)} lost, {len(report.stale)} stale — "
              f"cluster now {len(revived)} shards, still serving "
              f"{revived.tenant_count()} tenants")
        assert report.complete
        for handle in revived.forecast_all().values():
            handle.result()


if __name__ == "__main__":
    main()
