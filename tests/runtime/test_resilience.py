"""Tests for the retry/backoff and circuit-breaker primitives."""

import pytest

import repro.obs as obs
from repro.errors import CircuitOpen, DeadlineExceeded, TransientWireError
from repro.runtime import CircuitBreaker, RetryPolicy


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", reset_timeout=0.0)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker("x", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()  # still closed
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 2

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("x", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_trips_open_and_fails_fast(self):
        breaker = CircuitBreaker("x", failure_threshold=2, reset_timeout=60.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.allow()
        assert excinfo.value.name == "x"
        assert 0.0 < excinfo.value.retry_after <= 60.0

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker("x", failure_threshold=1, reset_timeout=0.01)
        breaker.record_failure()
        deadline = obs.now() + 2.0
        while obs.now() < deadline:
            try:
                breaker.allow()  # becomes the probe once the reset elapses
                break
            except CircuitOpen:
                continue
        assert breaker.state == CircuitBreaker.HALF_OPEN
        with pytest.raises(CircuitOpen):
            breaker.allow()  # second caller rejected while probe in flight

    def test_probe_success_closes(self):
        breaker = CircuitBreaker("x", failure_threshold=1, reset_timeout=0.01)
        breaker.record_failure()
        deadline = obs.now() + 2.0
        while obs.now() < deadline:
            try:
                breaker.allow()
                break
            except CircuitOpen:
                continue
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.allow()

    def test_probe_failure_reopens_and_counts_a_trip(self):
        breaker = CircuitBreaker("x", failure_threshold=1, reset_timeout=0.01)
        breaker.record_failure()
        deadline = obs.now() + 2.0
        while obs.now() < deadline:
            try:
                breaker.allow()
                break
            except CircuitOpen:
                continue
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2


class TestCheck:
    """``check`` gates like ``allow`` but never takes the half-open probe."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = [100.0]
        monkeypatch.setattr(obs, "now", lambda: clock[0])
        return clock

    def tripped(self):
        breaker = CircuitBreaker("x", failure_threshold=1, reset_timeout=30.0)
        breaker.record_failure()  # opens at t = 100
        return breaker

    def test_closed_passes(self, clock):
        breaker = CircuitBreaker("x")
        breaker.check()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_inside_the_reset_timeout_raises_the_time_remaining(self, clock):
        breaker = self.tripped()
        clock[0] = 112.0
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.check()
        assert excinfo.value.name == "x"
        assert excinfo.value.retry_after == pytest.approx(18.0)

    def test_open_past_the_timeout_passes_without_taking_the_probe(self, clock):
        breaker = self.tripped()
        clock[0] = 131.0
        breaker.check()
        breaker.check()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.allow()  # the probe is still there for the gated call
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_raises(self, clock):
        breaker = self.tripped()
        clock[0] = 131.0
        breaker.allow()
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.check()
        assert excinfo.value.retry_after == 0.0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base=1.0, cap=0.5)

    def test_backoff_is_seeded_and_bounded(self):
        a = RetryPolicy(base=0.05, cap=0.4, seed=7)
        b = RetryPolicy(base=0.05, cap=0.4, seed=7)
        prev_a = prev_b = None
        for _ in range(6):
            prev_a = a.next_delay(prev_a)
            prev_b = b.next_delay(prev_b)
            assert prev_a == prev_b  # same seed, same sleep sequence
            assert 0.05 <= prev_a <= 0.4

    def test_first_delay_is_base(self):
        assert RetryPolicy(base=0.2).next_delay(None) == 0.2

    def test_masks_transient_errors(self):
        policy = RetryPolicy(max_attempts=3, base=0.001, cap=0.002)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientWireError("hiccup")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert len(attempts) == 3

    def test_exhausted_attempts_reraise_the_last_error(self):
        policy = RetryPolicy(max_attempts=2, base=0.001, cap=0.002)
        with pytest.raises(TransientWireError):
            policy.run(lambda: (_ for _ in ()).throw(TransientWireError("x")))

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, base=0.001, cap=0.002)
        calls = []

        def boom():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            policy.run(boom)
        assert len(calls) == 1

    def test_deadline_caps_the_retry_budget(self):
        policy = RetryPolicy(max_attempts=50, base=0.05, cap=0.05)

        def always_transient():
            raise TransientWireError("hiccup")

        with pytest.raises(DeadlineExceeded) as excinfo:
            policy.run(always_transient, deadline=obs.now() + 0.06)
        # The deadline error chains the transport error that spent it.
        assert isinstance(excinfo.value.__cause__, TransientWireError)

    def test_on_retry_hook_sees_attempt_delay_and_error(self):
        policy = RetryPolicy(max_attempts=3, base=0.001, cap=0.002)
        seen = []

        def flaky():
            if len(seen) < 2:
                raise TransientWireError("x")
            return "ok"

        policy.run(flaky, on_retry=lambda a, d, e: seen.append((a, d, type(e))))
        assert [s[0] for s in seen] == [1, 2]
        assert all(d > 0 for _, d, _ in seen)
        assert all(t is TransientWireError for _, _, t in seen)
