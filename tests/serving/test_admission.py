"""Tests for admission control: priorities, deadlines, typed shedding.

The admission layer must be inert by default (bit-parity with the
pre-admission service), refuse work typed when configured, and never
waste a forward pass on a request whose deadline already lapsed.
"""

import time

import numpy as np
import pytest

import repro.obs as obs
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    AdmissionPolicy,
    DeadlineExceeded,
    ForecastService,
    Overloaded,
)
from repro.serving.admission import priority_rank, resolve_deadline

CONFIG = ModelConfig(
    input_length=24, horizon=4, n_channels=1, patch_length=12,
    hidden_dim=8, dropout=0.0, n_heads=2, n_layers=1, seed=3,
)


def make_service(admission=None, max_batch_size=8):
    return ForecastService(
        LiPFormer(CONFIG), max_batch_size=max_batch_size, admission=admission
    )


@pytest.fixture
def history(rng):
    return rng.normal(size=(CONFIG.input_length, 1)).astype(np.float32)


class TestPolicyValidation:
    def test_defaults_are_inert(self):
        policy = AdmissionPolicy()
        assert not policy.bounded
        assert policy.default_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_limit": 0},
            {"queue_limit": -1},
            {"default_timeout": 0.0},
            {"default_timeout": -1.0},
            {"flush_fraction": 0.0},
            {"flush_fraction": 1.5},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)

    def test_priority_ladder(self):
        ranks = [priority_rank(p) for p in PRIORITIES]
        assert ranks == sorted(ranks)
        assert priority_rank("interactive") < priority_rank(DEFAULT_PRIORITY)
        with pytest.raises(ValueError, match="unknown priority"):
            priority_rank("vip")


class TestResolveDeadline:
    def test_deadline_free_by_default(self):
        assert resolve_deadline(10.0) is None

    def test_timeout_is_anchored_at_now(self):
        assert resolve_deadline(10.0, timeout=2.5) == pytest.approx(12.5)

    def test_absolute_deadline_wins_over_policy(self):
        policy = AdmissionPolicy(default_timeout=1.0)
        assert resolve_deadline(10.0, deadline=11.0, policy=policy) == 11.0

    def test_policy_default_applies_last(self):
        policy = AdmissionPolicy(default_timeout=3.0)
        assert resolve_deadline(10.0, policy=policy) == pytest.approx(13.0)

    def test_both_timing_arguments_is_a_caller_bug(self):
        with pytest.raises(ValueError, match="not both"):
            resolve_deadline(10.0, timeout=1.0, deadline=11.0)

    def test_nonpositive_timeout_raises(self):
        with pytest.raises(ValueError, match="timeout"):
            resolve_deadline(10.0, timeout=0.0)


class TestQueueBounds:
    def test_full_queue_refuses_equal_priority_typed(self, history):
        service = make_service(AdmissionPolicy(queue_limit=2))
        service.submit(history)
        service.submit(history)
        with pytest.raises(Overloaded, match="pending queue full"):
            service.submit(history)
        assert service.stats.shed_overloaded == 1
        assert service.pending == 2  # queued work untouched

    def test_higher_priority_displaces_newest_lowest(self, history):
        service = make_service(AdmissionPolicy(queue_limit=2))
        older = service.submit(history, priority="best_effort")
        newer = service.submit(history, priority="best_effort")
        vip = service.submit(history, priority="interactive")
        with pytest.raises(Overloaded):
            newer.result()  # the newest lowest-priority request was evicted
        assert service.pending == 2
        service.flush()
        assert older.result().shape == (CONFIG.horizon, 1)
        assert vip.result().shape == (CONFIG.horizon, 1)

    def test_lower_priority_never_displaces_equal_class(self, history):
        service = make_service(AdmissionPolicy(queue_limit=1))
        queued = service.submit(history, priority="batch")
        with pytest.raises(Overloaded):
            service.submit(history, priority="batch")
        service.flush()
        assert queued.done()

    def test_unknown_priority_rejected_before_any_state_changes(self, history):
        service = make_service(AdmissionPolicy(queue_limit=1))
        with pytest.raises(ValueError, match="unknown priority"):
            service.submit(history, priority="urgent")
        assert service.pending == 0
        assert service.stats.requests == 0


class TestDeadlines:
    def test_expired_at_submit_is_refused_typed(self, history):
        service = make_service()
        with pytest.raises(DeadlineExceeded):
            service.submit(history, deadline=obs.now() - 0.01)
        assert service.stats.shed_expired == 1
        assert service.stats.requests == 0

    @staticmethod
    def _disarm_timer(service):
        """Suppress the rescue timer so flush-time shedding is reachable."""
        with service._lock:
            service._cancel_timer_locked()

    def test_expiry_while_queued_is_shed_at_flush(self, history):
        service = make_service()
        doomed = service.submit(history, timeout=0.02)
        alive = service.submit(history)
        self._disarm_timer(service)
        time.sleep(0.05)
        drained = service.flush()
        assert drained == 2  # both left the queue ...
        with pytest.raises(DeadlineExceeded):
            doomed.result()  # ... but only one got a forward pass
        assert alive.result().shape == (CONFIG.horizon, 1)
        assert service.stats.deadline_misses == 1
        assert service.stats.forward_passes == 1

    def test_policy_default_timeout_applies(self, history):
        service = make_service(AdmissionPolicy(default_timeout=0.02))
        doomed = service.submit(history)
        self._disarm_timer(service)
        time.sleep(0.05)
        service.flush()
        with pytest.raises(DeadlineExceeded):
            doomed.result()

    def test_all_expired_flush_runs_no_forward_pass(self, history):
        service = make_service()
        service.submit(history, timeout=0.01)
        self._disarm_timer(service)
        time.sleep(0.03)
        assert service.flush() == 1
        assert service.stats.forward_passes == 0

    def test_deadline_timer_flushes_in_background(self, history):
        service = make_service(AdmissionPolicy(default_timeout=0.2))
        handle = service.submit(history)
        deadline = time.monotonic() + 2.0
        while not handle.done() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handle.done(), "deadline timer never flushed the queue"
        assert handle.result().shape == (CONFIG.horizon, 1)
        assert service.stats.timer_flushes >= 1
        service.close()

    def test_close_flushes_and_disarms_timer(self, history):
        service = make_service(AdmissionPolicy(default_timeout=10.0))
        handle = service.submit(history)
        service.close()
        assert handle.done()
        assert service._timer is None


class TestSchedulingClock:
    def test_submitted_at_stamped_with_metrics_disabled(self, history):
        # Satellite: the scheduling clock is independent of the metrics
        # gate — deadlines must work even with observability fully off.
        service = make_service()
        with obs.observability(metrics=False):
            assert not obs.metrics_enabled()
            service.submit(history)
            assert service._pending[0].submitted_at > 0.0
        service.flush()

    def test_empty_flush_returns_zero_without_forward_pass(self):
        service = make_service()
        assert service.flush() == 0
        assert service.stats.forward_passes == 0
        assert service.stats.flushes == 0


def _series(metric_name):
    metric = obs.default_registry().snapshot()["metrics"].get(metric_name)
    if metric is None:
        return {}
    return {tuple(sorted(s["labels"].items())): s for s in metric["series"]}


class TestShedMetrics:
    def test_shed_reasons_are_counted(self, history):
        # Shedding is counted once, in ServiceStats; the registry exports
        # those fields as the repro_serving_* views.
        service = make_service(AdmissionPolicy(queue_limit=1))
        names = ("shed_overloaded", "shed_expired", "deadline_misses")

        def shed_counts():
            views = obs.default_registry().views_snapshot()
            return {name: views.get(f"repro_serving_{name}", 0.0) for name in names}

        before = shed_counts()
        with obs.observability(metrics=True):
            service.submit(history)
            with pytest.raises(Overloaded):
                service.submit(history)
            with pytest.raises(DeadlineExceeded):
                service.submit(history, deadline=obs.now() - 1.0)
        after = shed_counts()
        delta = {name: after[name] - before[name] for name in names}
        assert delta == {"shed_overloaded": 1.0, "shed_expired": 1.0, "deadline_misses": 0.0}
        service.flush()

    def test_per_priority_latency_recorded(self, history):
        service = make_service()
        key = (("priority", "interactive"),)
        before = _series("repro_serving_priority_latency_seconds").get(key)
        before_count = 0 if before is None else before["count"]
        with obs.observability(metrics=True):
            service.submit(history, priority="interactive")
            service.submit(history, priority="best_effort")
            service.flush()
        after = _series("repro_serving_priority_latency_seconds")[key]
        assert after["count"] == before_count + 1


class TestParity:
    def test_admitted_traffic_is_bit_identical_to_plain_service(self, rng):
        """Priorities reorder the batch, but every admitted forecast must
        be bitwise what the pre-admission service produces."""
        histories = [
            rng.normal(size=(CONFIG.input_length, 1)).astype(np.float32)
            for _ in range(6)
        ]
        plain = make_service()
        gated = make_service(AdmissionPolicy(queue_limit=16, default_timeout=60.0))
        priorities = ["best_effort", "interactive", "batch"] * 2
        plain_handles = [plain.submit(h) for h in histories]
        gated_handles = [
            gated.submit(h, priority=p) for h, p in zip(histories, priorities)
        ]
        plain.flush()
        gated.flush()
        for expected, actual in zip(plain_handles, gated_handles):
            np.testing.assert_array_equal(expected.result(), actual.result())
        gated.close()
