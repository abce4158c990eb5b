"""Owner tracking and lock-order detection on the runtime locks.

Two promises under test: ``assert_held`` turns a forgotten lock into a
deterministic failure (instead of an interleaving-dependent corruption),
and the debug-mode :class:`LockOrderMonitor` reports an acquisition-order
inversion as :class:`PotentialDeadlock` even though no actual deadlock
occurs in the test run.
"""

import threading

import pytest

from repro.runtime import (
    PotentialDeadlock,
    RWLock,
    TrackedRLock,
    lock_order_monitor,
    lock_ordering,
)


class TestOwnerTracking:
    def test_unheld_lock_fails_fast(self):
        lock = RWLock(name="t1")
        with pytest.raises(RuntimeError, match="must be held"):
            lock.assert_held()
        with pytest.raises(RuntimeError, match="must be held"):
            lock.assert_held("read")
        with pytest.raises(RuntimeError, match="must be held"):
            lock.assert_held("write")
        lock.assert_not_held()  # and the inverse passes

    def test_read_side_ownership(self):
        lock = RWLock(name="t2")
        with lock.read():
            lock.assert_held()
            lock.assert_held("read")
            with pytest.raises(RuntimeError, match="must be held"):
                lock.assert_held("write")
            with pytest.raises(RuntimeError, match="already held"):
                lock.assert_not_held()
        lock.assert_not_held()

    def test_write_side_subsumes_read(self):
        lock = RWLock(name="t3")
        with lock.write():
            lock.assert_held("write")
            # A writer is strictly stronger than any reader.
            lock.assert_held("read")
            lock.assert_held("any")
        lock.assert_not_held()

    def test_ownership_is_per_thread(self):
        lock = RWLock(name="t4")
        observed = {}

        def probe():
            observed["held"] = lock.held_read() or lock.held_write()

        with lock.write():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(10)
        assert observed["held"] is False

    def test_unknown_mode_rejected(self):
        lock = RWLock(name="t5")
        with lock.read():
            with pytest.raises(ValueError, match="unknown mode"):
                lock.assert_held("exclusive")


class TestLockOrderDetection:
    def test_inverted_acquisition_raises(self):
        """A -> B recorded, then B -> A attempted: latent deadlock, caught."""
        a, b = TrackedRLock("order-a"), TrackedRLock("order-b")
        with lock_ordering():
            with a:
                with b:
                    pass
            with b:
                with pytest.raises(PotentialDeadlock, match="order-b"):
                    with a:
                        pass

    def test_inversion_across_threads(self):
        """The order graph is global: thread 1 teaches A->B, thread 2's
        B->A attempt raises even though the threads never overlap."""
        a, b = TrackedRLock("x-a"), TrackedRLock("x-b")
        outcome = {}

        def establish():
            with a:
                with b:
                    pass

        def invert():
            try:
                with b:
                    with a:
                        pass
                outcome["error"] = None
            except PotentialDeadlock as error:
                outcome["error"] = error

        with lock_ordering():
            t1 = threading.Thread(target=establish)
            t1.start()
            t1.join(10)
            t2 = threading.Thread(target=invert)
            t2.start()
            t2.join(10)
        assert isinstance(outcome["error"], PotentialDeadlock)

    def test_consistent_order_stays_silent(self):
        a, b, c = TrackedRLock("ok-a"), TrackedRLock("ok-b"), TrackedRLock("ok-c")
        with lock_ordering():
            for _ in range(3):
                with a:
                    with b:
                        with c:
                            pass

    def test_reentrant_acquisition_records_no_edge(self):
        a = TrackedRLock("re-a")
        b = TrackedRLock("re-b")
        with lock_ordering() as monitor:
            with a:
                with a:  # reentrant: no a->a edge, no false cycle
                    with b:
                        pass
            assert "re-a" not in monitor.edges().get("re-a", set())

    def test_rwlock_participates(self):
        topo = RWLock(name="rw-topo")
        shard = TrackedRLock("rw-shard")
        with lock_ordering():
            with topo.read():
                with shard:
                    pass
            with shard:
                with pytest.raises(PotentialDeadlock):
                    with topo.read():
                        pass

    def test_disabled_monitor_costs_nothing_and_catches_nothing(self):
        a, b = TrackedRLock("off-a"), TrackedRLock("off-b")
        assert not lock_order_monitor().enabled
        with a:
            with b:
                pass
        with b:
            with a:  # inverted, but detection is off
                pass

    def test_failed_nonblocking_acquire_rolls_back_stack(self):
        lock = TrackedRLock("nb")
        holder_ready = threading.Event()
        release = threading.Event()

        def hold():
            with lock._inner:
                holder_ready.set()
                release.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        holder_ready.wait(10)
        try:
            with lock_ordering() as monitor:
                assert lock.acquire(blocking=False) is False
                # The failed attempt must not leave "nb" on this thread's
                # stack, or every later acquisition records bogus edges.
                assert monitor.held_by_current_thread() == []
        finally:
            release.set()
            thread.join(10)


class TestClusterLockNames:
    def test_cluster_topology_lock_is_named(self, small_config):
        from repro.cluster import ShardedForecaster
        from repro.core import LiPFormer
        from repro.serving import ForecastService

        cluster = ShardedForecaster(
            lambda: ForecastService(LiPFormer(small_config)), n_shards=2
        )
        assert cluster._topology.name == "cluster-topology"
        assert sorted(shard.lock.name for shard in cluster._shards.values()) == [
            "shard:shard-0",
            "shard:shard-1",
        ]
