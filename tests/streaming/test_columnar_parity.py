"""Forecast parity: ``forecast_all`` and ``forecast()`` against a per-tenant reference.

``StreamingForecaster.forecast_all`` gathers, normalises and admits a
whole sweep as one block, and ``forecast()`` is a sweep of one tenant.
Both are checked against :class:`PerTenantReference`, the per-tenant
path rebuilt from public pieces: ``store.latest``, the tenant's
normalisation, padding by :func:`padding_oracle.reference_pad` (not the
service's own padding code), ``service.submit`` and the inverse mapping.
For any mix of queue bound, batch size, normalisation, padding,
covariates and already-queued work, every row must come back with the
same bits or the same typed error, and every counter must match.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import PRIORITIES, AdmissionPolicy, DeadlineExceeded, ForecastService, Overloaded
from repro.streaming import StreamingForecaster

from live_weights import perturb
from padding_oracle import reference_pad

CONFIG = ModelConfig(
    input_length=12, horizon=4, n_channels=2, patch_length=4, hidden_dim=8,
    dropout=0.0, n_heads=2, n_layers=1, seed=5,
    covariate_numerical_dim=2, covariate_categorical_cardinalities=(5,),
)
# Seeded live weights: with the zero-initialised value head a forecast
# would not depend on the padded steps, and a padding fault would pass.
MODEL = perturb(LiPFormer(CONFIG), seed=CONFIG.seed)


@st.composite
def sweeps(draw):
    n_tenants = draw(st.integers(1, 9))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "n_tenants": n_tenants,
        # Histories shorter than input_length exercise cold-start padding.
        "history": [draw(st.integers(1, 2 * CONFIG.input_length)) for _ in range(n_tenants)],
        "with_covariates": [draw(st.booleans()) for _ in range(n_tenants)],
        "max_batch_size": draw(st.sampled_from([1, 2, 3, 4, 16])),
        "normalization": draw(st.sampled_from(["none", "rolling"])),
        "queue_limit": draw(st.one_of(st.none(), st.integers(1, n_tenants + 2))),
        "queued": draw(st.lists(st.sampled_from(PRIORITIES), max_size=4)),
        "priority": draw(st.sampled_from(PRIORITIES)),
        "deadline": draw(st.sampled_from([None, "expired", "far"])),
    }


def fixed_case(n_tenants, **overrides):
    """One hand-picked sweep, in the shape ``sweeps()`` draws."""
    case = {
        "seed": 3, "n_tenants": n_tenants, "history": [20] * n_tenants,
        "with_covariates": [False] * n_tenants, "max_batch_size": 16,
        "normalization": "none", "queue_limit": None,
        "queued": [], "priority": "batch", "deadline": None,
    }
    case.update(overrides)
    return case


def build(case):
    service = ForecastService(
        MODEL,
        max_batch_size=case["max_batch_size"],
        compiled=False,
        admission=AdmissionPolicy(queue_limit=case["queue_limit"]),
    )
    forecaster = StreamingForecaster(service, normalization=case["normalization"])
    rng = np.random.default_rng(case["seed"])
    for i, length in enumerate(case["history"]):
        forecaster.ingest(f"t{i}", rng.normal(3.0, 2.0, size=(length, CONFIG.n_channels)))
    # Work already queued ahead of the sweep, at assorted priorities: the
    # sweep's rows may displace it (or be refused behind it).
    queued = []
    for priority in case["queued"]:
        window = rng.normal(size=(CONFIG.input_length, CONFIG.n_channels))
        try:
            queued.append(service.submit(window, priority=priority))
        except Overloaded as error:
            queued.append(error)
    return service, forecaster, queued


def covariates(case):
    rng = np.random.default_rng(case["seed"] + 1)
    numerical, categorical = {}, {}
    for i, present in enumerate(case["with_covariates"]):
        if present:
            numerical[f"t{i}"] = rng.normal(size=(CONFIG.horizon, 2)).astype(np.float32)
            categorical[f"t{i}"] = rng.integers(0, 5, size=(CONFIG.horizon, 1))
    return numerical, categorical


def outcome(handle):
    """Bits, or the typed error's class and (clock-free) message."""
    if isinstance(handle, Exception):
        error = handle
    else:
        try:
            return handle.result()
        except (Overloaded, DeadlineExceeded) as caught:
            error = caught
    message = str(error) if isinstance(error, Overloaded) else ""
    return type(error).__name__, message


def assert_same(expected, actual):
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), actual
        assert expected.dtype == actual.dtype
        np.testing.assert_array_equal(expected, actual)
    else:
        assert expected == actual


class PerTenantReference:
    """One forecast at a time, from the forecaster's public pieces only.

    ``store.latest`` → the tenant's normalisation (its rolling scaler
    frozen by ``to_standard_scaler()``) →
    ``reference_pad`` → ``service.submit`` → the inverse mapping on
    ``result()``.  A refused submit raises before any counter moves.  Its
    service only ever sees full-length windows, so the reference counts
    the admitted rows it padded itself (:meth:`service_stats`).
    """

    def __init__(self, forecaster):
        self.forecaster = forecaster
        self.padded_requests = 0

    def service_stats(self):
        """The reference service's counters, with the rows padded here."""
        return dataclasses.replace(
            self.forecaster.service.stats_snapshot(), padded_requests=self.padded_requests
        )

    def forecast(self, tenant, **request):
        forecaster = self.forecaster
        input_length = forecaster.config.input_length
        window = forecaster.store.latest(tenant, input_length)
        if forecaster.normalization == "none":
            normalized, inverse = window, None
        else:
            frozen = forecaster.scaler(tenant).to_standard_scaler()
            normalized, inverse = frozen.transform(window), frozen.inverse_transform
        service = forecaster.service
        padded, observed = reference_pad(normalized, input_length, forecaster.config.n_channels)
        handle = service.submit(padded, **request)
        self.padded_requests += int(observed < input_length)
        return Mapped(handle, inverse)


class Mapped:
    """A service handle whose result goes back through a tenant's inverse."""

    def __init__(self, handle, inverse):
        self.handle, self.inverse = handle, inverse

    def result(self):
        value = self.handle.result()
        return value if self.inverse is None else self.inverse(value)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=sweeps())
def test_columnar_sweep_matches_per_tenant_loop(case):
    """Both ``forecast_all`` and a ``forecast()`` per tenant match the reference."""
    numerical, categorical = covariates(case)
    deadline = {
        None: None,
        "expired": obs.now() - 1.0,
        "far": obs.now() + 3600.0,
    }[case["deadline"]]
    tenants = [f"t{i}" for i in np.random.default_rng(case["seed"]).permutation(case["n_tenants"])]

    def single_forecasts(forecaster):
        """``forecast()`` per tenant, a refusal recorded in the tenant's place."""
        handles = {}
        for tenant in tenants:
            try:
                handles[tenant] = forecaster.forecast(
                    tenant,
                    future_numerical=numerical.get(tenant),
                    future_categorical=categorical.get(tenant),
                    priority=case["priority"],
                    deadline=deadline,
                )
            except (Overloaded, DeadlineExceeded) as error:
                handles[tenant] = error
        return handles

    ref_service, ref_forecaster, ref_queued = build(case)
    reference = PerTenantReference(ref_forecaster)
    expected = single_forecasts(reference)
    ref_service.flush()
    expected_stats = reference.service_stats()

    service, columnar, queued = build(case)
    swept = columnar.forecast_all(
        tenants,
        future_numerical=numerical,
        future_categorical=categorical,
        priority=case["priority"],
        deadline=deadline,
    )
    service_single, single, queued_single = build(case)
    singles = single_forecasts(single)
    service_single.flush()
    runs = [
        (service, columnar, queued, swept),
        (service_single, single, queued_single, singles),
    ]
    for service, forecaster, queued, handles in runs:
        assert list(handles) == tenants
        for tenant in tenants:
            assert_same(outcome(expected[tenant]), outcome(handles[tenant]))
        for before, after in zip(ref_queued, queued):
            assert_same(outcome(before), outcome(after))
        assert service.stats_snapshot() == expected_stats
        assert service.pending == ref_service.pending == 0
        service.close()
    ref_service.close()


def test_sweep_refusal_is_per_row_not_raised():
    """A full queue refuses the sweep's tail typed; the head still serves."""
    service, forecaster, _ = build(fixed_case(5, normalization="rolling", queue_limit=3))
    handles = forecaster.forecast_all([f"t{i}" for i in range(5)])
    outcomes = [outcome(handles[f"t{i}"]) for i in range(5)]
    assert all(isinstance(o, np.ndarray) for o in outcomes[:3])
    assert [o[0] for o in outcomes[3:]] == ["Overloaded", "Overloaded"]
    assert handles["t4"].admission_error is not None
    assert handles["t0"].admission_error is None
    assert service.stats.shed_overloaded == 2
    assert service.stats.requests == 3


def test_unknown_tenant_raises_before_any_row_is_queued():
    service, forecaster, _ = build(fixed_case(2))
    with pytest.raises(KeyError, match="ghost"):
        forecaster.forecast_all(["t0", "ghost", "t1"])
    assert service.pending == 0
    assert service.stats.requests == 0


def test_unflushed_sweep_split_by_a_mid_block_flush():
    """Rows a mid-block flush resolved answer without flushing the rest."""
    case = fixed_case(3, history=[20, 5, 20], max_batch_size=2, normalization="rolling")
    tenants = ["t0", "t1", "t2"]
    ref_service, ref_forecaster, _ = build(case)
    reference = PerTenantReference(ref_forecaster)
    expected = {tenant: reference.forecast(tenant) for tenant in tenants}
    ref_service.flush()
    service, columnar, _ = build(case)
    handles = columnar.forecast_all(tenants, flush=False)
    assert handles["t0"].done() and not handles["t2"].done()
    np.testing.assert_array_equal(handles["t1"].result(), expected["t1"].result())
    assert service.pending == 1          # t2 is still queued
    np.testing.assert_array_equal(handles["t2"].result(), expected["t2"].result())
    assert service.pending == 0
    for tenant in tenants:
        np.testing.assert_array_equal(handles[tenant].result(), expected[tenant].result())
    assert service.stats_snapshot() == reference.service_stats()
