"""Crash drill: a worker dies by real ``kill -9``; the cluster recovers.

The process backend's reason to exist beyond throughput: worker death is
an observable OS event, not a simulation.  These tests SIGKILL a live
worker process mid-service and drive what only a process boundary has:
detection (:meth:`detect_failures` must classify without hanging), the
work in flight at the crash (queued handles fail typed, healthy shards
still settle) and rows accepted after a death nobody has observed yet
(counted at failover like buffered rows).  Failover itself (restore, loss accounting,
resurrection guards) is a coordinator contract, checked on both backends
in ``test_conformance.py``; the other names in this module bind those
cases on the process backend, so the names it has always reported keep
reporting the same guarantee.
"""

import os
import signal

import numpy as np
import pytest

from repro.cluster import ProcessCoordinator, ServiceSpec, WorkerDied
from repro.config import ModelConfig

import test_conformance as conformance
from test_conformance import TestFailover as Failover
from test_conformance import TestRetiredStats as RetiredStats

INPUT_LENGTH = 16
HORIZON = 4
CHANNELS = 2


@pytest.fixture(scope="module")
def spec():
    return ServiceSpec(
        config=ModelConfig(
            input_length=INPUT_LENGTH, horizon=HORIZON, n_channels=CHANNELS,
            patch_length=4, hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1, seed=11,
        ),
        max_batch_size=16,
    )


def populated(spec, tmp_path):
    """Three workers serving nine tenants, checkpointed."""
    cluster = ProcessCoordinator(spec, n_shards=3)
    rng = np.random.default_rng(0)
    for i in range(9):
        cluster.ingest(f"tenant-{i}", rng.normal(size=(INPUT_LENGTH + 2, CHANNELS)))
    cluster.save(str(tmp_path / "ckpt"))
    return cluster


cluster = conformance.cluster


@pytest.fixture
def backend():
    return "process"


class TestKillMinusNine:
    test_failover_restores_checkpointed_tenants_bit_identically = (
        Failover.test_checkpointed_shard_recovers_bit_identically
    )
    test_report_accounts_for_every_lost_and_stale_row = (
        Failover.test_report_accounts_for_lost_and_stale_rows
    )
    test_dropped_tenant_not_resurrected_by_failover = (
        Failover.test_recreated_tenant_with_fewer_rows_is_not_resurrected
    )
    test_deleted_tenant_is_neither_restored_nor_lost = (
        Failover.test_dropped_tenant_is_neither_restored_nor_lost
    )
    test_stats_fold_last_poll_after_crash = RetiredStats.test_history_survives_remove_and_failover
    test_failover_without_checkpoint_refuses = Failover.test_failover_without_checkpoint_refuses
    test_drill_matches_thread_backend_semantics = Failover.test_reports_agree_across_backends

    def test_sigkill_is_detected_without_hanging(self, spec, tmp_path):
        with populated(spec, tmp_path) as cluster:
            victim = cluster.shard_for("tenant-0")
            pid = cluster.worker_pid(victim)
            os.kill(pid, signal.SIGKILL)
            # detect_failures classifies via poll/pipe-EOF/ping budget —
            # bounded time, and only the victim is reported.
            assert cluster.detect_failures(timeout=5.0) == [victim]
            survivors = [s for s in cluster.shard_ids() if s != victim]
            assert survivors and all(
                s not in cluster.detect_failures(timeout=5.0) for s in survivors
            )

    def test_pending_forecasts_fail_with_typed_error(self, spec, tmp_path):
        with populated(spec, tmp_path) as cluster:
            victim = cluster.shard_for("tenant-0")
            handle = cluster.forecast("tenant-0")  # queued, never flushed
            os.kill(cluster.worker_pid(victim), signal.SIGKILL)
            cluster.failover(victim)
            with pytest.raises(RuntimeError, match="died before"):
                handle.result()

    def test_forecast_all_settles_healthy_shards_despite_crash(self, spec, tmp_path):
        with populated(spec, tmp_path) as cluster:
            victim = cluster.shard_for("tenant-0")
            survivors_tenants = [
                t for t in cluster.tenants() if cluster.shard_for(t) != victim
            ]
            assert survivors_tenants
            os.kill(cluster.worker_pid(victim), signal.SIGKILL)
            with pytest.raises(WorkerDied):
                cluster.forecast_all()
            # The fan-out settled every healthy shard before raising: those
            # tenants' forecasts are resolvable right now, no flush needed.
            cluster_handles = cluster.forecast_all(survivors_tenants)
            for handle in cluster_handles.values():
                assert handle.result().shape == (HORIZON, CHANNELS)

    def test_rows_accepted_after_an_unseen_death_count_as_stale(self, spec, tmp_path):
        """Ingest makes no syscall, so a worker that died unobserved still
        accepts rows like buffered ones: the next frame finds the death,
        and failover reports every row since the checkpoint as stale."""
        with populated(spec, tmp_path) as cluster:
            tenant = "tenant-0"
            victim = cluster.shard_for(tenant)
            rng = np.random.default_rng(5)
            total = cluster.ingest(tenant, rng.normal(size=(2, CHANNELS)))
            pid = cluster.worker_pid(victim)
            os.kill(pid, signal.SIGKILL)
            # Wait for the exit without reaping it: nobody has observed it.
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            k = 3
            for _ in range(k):
                total += 1
                assert cluster.ingest(tenant, rng.normal(size=(1, CHANNELS))) == total
            assert cluster.detect_failures(timeout=5.0) == [victim]
            report = cluster.failover(victim)
            assert report.stale == {tenant: 2 + k}
            assert tenant in report.restored
