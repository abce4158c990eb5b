"""Failover on the thread backend, under this module's test names.

The failover contracts are written once, in ``test_conformance.py``, and
run there on both backends.  Each name below binds one of them on the
thread backend, so the names this module has always reported keep
reporting the same guarantee.  Nothing here is a second copy of a check.
"""

import pytest

import test_conformance as conformance
from test_conformance import TestFailover as Failover
from test_conformance import TestParity as Parity
from test_conformance import TestRebalance as Rebalance
from test_conformance import TestRetiredStats as RetiredStats

cluster = conformance.cluster


@pytest.fixture
def backend():
    return "thread"


class TestFailover:
    test_dead_shards_tenants_rehome_to_survivors = (
        Failover.test_checkpointed_shard_recovers_bit_identically
    )
    test_failover_restores_from_newest_chain_link = (
        Failover.test_failover_restores_from_the_newest_chain_link
    )
    test_uncheckpointed_arrivals_are_reported_stale = (
        Failover.test_uncheckpointed_arrivals_are_reported_stale
    )
    test_failover_auto_warms_adopting_shards = Failover.test_failover_warms_the_adopting_shards
    test_dropped_then_recreated_tenant_is_not_resurrected = (
        Failover.test_recreated_tenant_with_fewer_rows_is_not_resurrected
    )
    test_recreated_tenant_with_more_rows_is_still_not_resurrected = (
        Failover.test_recreated_tenant_with_more_rows_is_not_resurrected
    )
    test_recreated_tenant_on_a_different_shard_is_not_resurrected = (
        Failover.test_recreated_tenant_on_a_different_shard_is_not_resurrected
    )
    test_never_checkpointed_tenants_are_reported_lost = (
        Failover.test_never_checkpointed_tenant_is_reported_lost
    )
    test_failover_without_checkpoint_refuses = Failover.test_failover_without_checkpoint_refuses
    test_failover_unknown_or_last_shard = Rebalance.test_last_or_unknown_shard_cannot_fail_over
    test_explicit_checkpoint_paths_override_the_chain = (
        Failover.test_explicit_checkpoint_paths_override_the_chain
    )
    test_dead_shard_history_stays_counted = RetiredStats.test_history_survives_remove_and_failover
    test_failed_over_cluster_keeps_checkpointing = (
        Failover.test_failed_over_cluster_keeps_checkpointing
    )


class TestFailoverParity:
    test_failover_of_checkpointed_shard_is_bit_identical = (
        Parity.test_failover_mid_stream_matches_unsharded_replay
    )
