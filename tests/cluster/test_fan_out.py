"""The fan-out contract, on fake shards: inline and on a thread pool.

:func:`~repro.cluster.coordinator.fan_out` is the one place where a
cluster schedules per-shard work.  Every shard starts in ``jobs`` order;
the collects then run inline, or on a ``concurrent.futures`` pool when
more than one shard started.  Whichever way they run, results come back
keyed and ordered by ``jobs``, every collect settles before the first
error (in start, then collect order) is raised, and no pooled collect is
still running once the call returns or raises.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster.coordinator import fan_out


class FakeShard:
    """A shard whose ``start`` / ``collect`` run the given callables."""

    def __init__(self, shard_id, collect=None, start=None):
        self.shard_id = shard_id
        self.lock = threading.RLock()
        self._collect = collect or (lambda: shard_id.upper())
        self._start = start
        self.started_with = None
        self.collect_threads = []
        self.settled = threading.Event()

    def start(self, op, **fields):
        if self._start is not None:
            self._start()
        self.started_with = (op, fields)

    def collect(self):
        self.collect_threads.append(threading.get_ident())
        try:
            return self._collect()
        finally:
            self.settled.set()


def shards_of(*shards):
    return {shard.shard_id: shard for shard in shards}


def jobs_for(shards):
    return {shard_id: {"n": index} for index, shard_id in enumerate(shards)}


def fail(error, seconds=0.0):
    def raising():
        time.sleep(seconds)
        raise error

    return raising


def slow(value, seconds=0.05):
    def sleeping():
        time.sleep(seconds)
        return value

    return sleeping


@pytest.fixture(params=["inline", "pool"])
def executor(request):
    if request.param == "inline":
        yield None
        return
    with ThreadPoolExecutor(4) as pool:
        yield pool


class TestContract:
    def test_results_are_keyed_and_ordered_by_jobs(self, executor):
        shards = shards_of(
            FakeShard("b", collect=slow("B")), FakeShard("a"), FakeShard("c")
        )
        out = fan_out(shards, "op", jobs_for(["b", "a", "c"]), executor)
        assert out == {"b": "B", "a": "A", "c": "C"}
        assert list(out) == ["b", "a", "c"]
        assert [shards[s].started_with for s in "bac"] == [
            ("op", {"n": 0}), ("op", {"n": 1}), ("op", {"n": 2})
        ]

    def test_no_jobs_is_an_empty_result(self, executor):
        assert fan_out({}, "op", {}, executor) == {}

    def test_a_start_error_wins_over_a_later_collect_error(self, executor):
        shards = shards_of(
            FakeShard("a", collect=fail(RuntimeError("collect a"))),
            FakeShard("b", start=fail(ValueError("start b"))),
            FakeShard("c", collect=slow("C")),
        )
        with pytest.raises(ValueError, match="start b"):
            fan_out(shards, "op", jobs_for(["a", "b", "c"]), executor)
        # The failed start is not collected; every started shard is.
        assert shards["b"].collect_threads == []
        assert shards["a"].settled.is_set() and shards["c"].settled.is_set()

    def test_the_first_collect_error_in_start_order_is_raised(self, executor):
        shards = shards_of(
            FakeShard("a"),
            FakeShard("b", collect=fail(KeyError("b"), seconds=0.05)),
            FakeShard("c", collect=fail(ValueError("c"))),
        )
        with pytest.raises(KeyError, match="b"):
            fan_out(shards, "op", jobs_for(["a", "b", "c"]), executor)

    def test_every_collect_settles_before_the_error_is_raised(self, executor):
        shards = shards_of(
            FakeShard("a", collect=fail(RuntimeError("first fails"))),
            FakeShard("b", collect=slow("B")),
            FakeShard("c", collect=slow("C", 0.1)),
        )
        with pytest.raises(RuntimeError, match="first fails"):
            fan_out(shards, "op", jobs_for(["a", "b", "c"]), executor)
        assert all(shard.settled.is_set() for shard in shards.values())

    def test_shard_locks_are_held_until_every_collect_settled(self, executor):
        """No collect outlives the call: each still finds every lock held."""
        shards = {}

        def holds_every_lock():
            time.sleep(0.02)
            return all(not shard.lock.acquire(blocking=False) for shard in shards.values())

        def probe_from_another_thread():
            seen = []
            probe = threading.Thread(target=lambda: seen.append(holds_every_lock()))
            probe.start()
            probe.join(5)
            assert not probe.is_alive()
            return seen[0]

        shards.update(
            shards_of(*(FakeShard(s, collect=probe_from_another_thread) for s in "abc"))
        )
        out = fan_out(shards, "op", jobs_for(["a", "b", "c"]), executor)
        assert out == {"a": True, "b": True, "c": True}
        assert all(shard.lock.acquire(blocking=False) for shard in shards.values())


class TestInline:
    def test_collects_run_on_the_calling_thread(self):
        shards = shards_of(FakeShard("a"), FakeShard("b"))
        fan_out(shards, "op", jobs_for(["a", "b"]))
        me = threading.get_ident()
        assert [shards[s].collect_threads for s in "ab"] == [[me], [me]]

    def test_keyboard_interrupt_propagates_at_once(self):
        """Nothing else is in flight between inline collects, so a Ctrl-C
        must not grind through the remaining shards first."""
        shards = shards_of(
            FakeShard("a"),
            FakeShard("b", collect=fail(KeyboardInterrupt())),
            FakeShard("c"),
        )
        with pytest.raises(KeyboardInterrupt):
            fan_out(shards, "op", jobs_for(["a", "b", "c"]))
        assert shards["a"].settled.is_set()
        assert shards["c"].collect_threads == []


class TestPooled:
    def test_collects_overlap_across_threads(self):
        """Two collects that each wait for the other only finish if they
        run concurrently."""
        barrier = threading.Barrier(2, timeout=5)

        def meet():
            barrier.wait()
            return threading.get_ident()

        shards = shards_of(FakeShard("a", collect=meet), FakeShard("b", collect=meet))
        with ThreadPoolExecutor(2) as pool:
            out = fan_out(shards, "op", jobs_for(["a", "b"]), pool)
        assert len(set(out.values())) == 2

    def test_an_interrupt_in_a_pooled_collect_waits_for_the_rest(self):
        shards = shards_of(
            FakeShard("a", collect=fail(KeyboardInterrupt())),
            FakeShard("b", collect=slow("B", 0.1)),
        )
        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(KeyboardInterrupt):
                fan_out(shards, "op", jobs_for(["a", "b"]), pool)
            assert shards["b"].settled.is_set()

    def test_a_single_started_shard_collects_inline(self):
        me = threading.get_ident()
        with ThreadPoolExecutor(2) as pool:
            lone = shards_of(FakeShard("a"))
            fan_out(lone, "op", jobs_for(["a"]), pool)
            assert lone["a"].collect_threads == [me]
            # Two jobs, one failed start: the one started shard is inline too.
            pair = shards_of(FakeShard("a"), FakeShard("b", start=fail(ValueError("b"))))
            with pytest.raises(ValueError):
                fan_out(pair, "op", jobs_for(["a", "b"]), pool)
            assert pair["a"].collect_threads == [me]

    def test_a_shut_down_pool_leaves_the_collects_inline(self):
        pool = ThreadPoolExecutor(2)
        pool.shutdown()
        shards = shards_of(FakeShard("a"), FakeShard("b"))
        assert fan_out(shards, "op", jobs_for(["a", "b"]), pool) == {"a": "A", "b": "B"}
        me = threading.get_ident()
        assert [shards[s].collect_threads for s in "ab"] == [[me], [me]]
