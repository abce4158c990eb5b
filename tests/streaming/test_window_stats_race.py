"""A sweep between a row's ring append and its statistics update.

With rolling normalisation a forecast standardises the tenant's window
with the tenant's Welford moments.  If the append and the moment update
are two steps under two locks, a sweep that runs between them sees the
new row in the window but normalises it with statistics that do not
include it.  The store now does both in one locked call.  The first test
pauses a bare :class:`StreamingForecaster` right after its store call
returns and forecasts there, deterministically, on one thread; the second
races writers against a gathering reader.
"""

import sys
import threading

import numpy as np

from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService
from repro.streaming import SeriesStore, StreamingForecaster

CONFIG = ModelConfig(
    input_length=8, horizon=2, n_channels=1, patch_length=4, hidden_dim=8,
    dropout=0.0, n_heads=2, n_layers=1, seed=5,
)
HISTORY = np.arange(8, dtype=np.float32)[:, None]      # mean 3.5
SPIKE = np.array([[100.0]], dtype=np.float32)          # mean of all 9 rows: 14.2


def rolling_forecaster():
    return StreamingForecaster(ForecastService(LiPFormer(CONFIG)), normalization="rolling")


def test_sweep_right_after_the_store_call_sees_matching_statistics():
    reference = rolling_forecaster()
    reference.ingest("a", HISTORY)
    reference.ingest("a", SPIKE)
    want = reference.forecast("a").result()

    forecaster = rolling_forecaster()
    forecaster.ingest("a", HISTORY)
    store_ingest = forecaster.store.ingest
    seen = {}

    def ingest_then_sweep(tenant, values, timestamp=None):
        total = store_ingest(tenant, values, timestamp=timestamp)
        forecaster.store.ingest = store_ingest          # pause once
        seen["window"] = forecaster.store.latest(tenant, CONFIG.input_length)
        seen["mean"] = float(forecaster.scaler(tenant).mean_[0])
        seen["forecast"] = forecaster.forecast(tenant).result()
        return total

    forecaster.store.ingest = ingest_then_sweep
    forecaster.ingest("a", SPIKE)

    assert seen["window"][-1, 0] == 100.0
    np.testing.assert_array_equal(seen["forecast"], want)
    np.testing.assert_allclose(seen["mean"], 128.0 / 9)
    np.testing.assert_array_equal(forecaster.forecast("a").result(), want)


def test_concurrent_ingest_never_tears_a_window_from_its_moments():
    """Writers append 1, 2, 3, ... to their own tenants while a reader
    gathers: each window's last value ``v`` must come with the mean of
    ``1..v``, ``(v + 1) / 2``, never the mean of one row fewer."""
    store = SeriesStore(capacity=8, n_channels=1, moments=True)
    tenants = [f"w{i}" for i in range(4)]
    rows = 3000
    stop = threading.Event()
    errors = []

    def write(tenant):
        for value in range(1, rows + 1):
            store.ingest(tenant, np.array([[value]], dtype=np.float32))

    def read():
        gathers = 0
        try:
            while not stop.is_set() or not gathers:
                present = [tenant for tenant in tenants if store.observed(tenant)]
                _, windows, _, (mean, _) = store.gather(present, 4)
                for row, last in enumerate(windows[:, -1, 0].tolist()):
                    if abs(mean[row, 0] - (last + 1) / 2) > 1e-9 * last:
                        errors.append((present[row], last, mean[row, 0]))
                gathers += 1
        except Exception as error:  # a crashed reader must fail the test
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=write, args=(tenant,)) for tenant in tenants]
        reader = threading.Thread(target=read)
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in writers + [reader])
    assert not errors, errors[:3]
    for tenant in tenants:
        assert store.observed(tenant) == rows
        assert store.scaler_state(tenant)["count"] == rows
