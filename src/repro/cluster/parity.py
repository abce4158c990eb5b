"""Cluster ↔ single-process parity: sharding must not change any forecast.

Partitioning tenants across replicas is only a *scaling* decision if it is
invisible in the outputs: a tenant's forecast depends on its own window and
statistics, never on which replica computed it or which other tenants
shared the micro-batch.  :func:`replay_cluster` drives any streaming
target (a :class:`~repro.streaming.forecaster.StreamingForecaster` or a
:class:`~repro.cluster.sharded.ShardedForecaster`) tick-by-tick over the
same per-tenant streams, and :func:`compare_cluster_to_unsharded` checks
the cluster's forecasts bit-for-bit against the unsharded reference —
including across ``add_shard`` / ``remove_shard`` rebalances scheduled
mid-replay.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..streaming.replay import ParityReport, parity_report, replay_ticks

__all__ = ["replay_cluster", "compare_cluster_to_unsharded"]


#: Drive per-tenant streams through a cluster (or any ingest/forecast/flush
#: target) tick by tick, with an ``on_tick`` hook for mid-stream rebalances.
replay_cluster = replay_ticks


def compare_cluster_to_unsharded(
    cluster_forecasts: Mapping[str, np.ndarray],
    reference_forecasts: Mapping[str, np.ndarray],
) -> ParityReport:
    """Bit-exact comparison of two replays' per-tenant forecast stacks."""
    if set(cluster_forecasts) != set(reference_forecasts):
        raise ValueError(
            "cluster and reference replays cover different tenants: "
            f"{sorted(set(cluster_forecasts) ^ set(reference_forecasts))}"
        )

    def pairs():
        for tenant, produced in cluster_forecasts.items():
            expected = reference_forecasts[tenant]
            if produced.shape != expected.shape:
                raise ValueError(
                    f"tenant {tenant!r}: cluster produced {produced.shape}, "
                    f"reference {expected.shape}"
                )
            yield produced, expected

    return parity_report(pairs(), tenants=len(cluster_forecasts))
