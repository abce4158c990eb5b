"""Tests for the pickle-free nested-state ↔ .npz snapshot codec."""

import os
from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import (
    ShardedForecaster,
    decode_state,
    encode_state,
    load_forecaster,
    read_snapshot,
    save_forecaster,
    write_snapshot,
)
from repro.config import ModelConfig
from repro.core import LiPFormer
from repro.serving import ForecastService, ServiceStats
from repro.streaming import StoreStats, StreamingForecaster


@pytest.fixture
def config():
    return ModelConfig(
        input_length=32, horizon=8, n_channels=2, patch_length=8,
        hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
    )


@pytest.fixture
def service_factory(config):
    def factory():
        return ForecastService(LiPFormer(config), max_batch_size=8)
    return factory


def roundtrip(state):
    manifest, arrays = encode_state(state)
    return decode_state(manifest, arrays)


class TestCodec:
    def test_scalars_strings_none_roundtrip(self):
        state = {"a": 1, "b": 2.5, "c": "text", "d": None, "e": True, "f": False}
        assert roundtrip(state) == state

    def test_nested_structure_roundtrips(self):
        state = {"outer": {"inner": [1, {"deep": None}, "s"]}, "empty": {}, "list": []}
        assert roundtrip(state) == state

    def test_arrays_keep_dtype_and_values(self):
        state = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "f64": np.linspace(0, 1, 5),
            "i64": np.array([1, 2, 3], dtype=np.int64),
        }
        out = roundtrip(state)
        for key, value in state.items():
            assert out[key].dtype == value.dtype
            np.testing.assert_array_equal(out[key], value)

    def test_datetime64_timestamp_roundtrips(self):
        stamp = np.datetime64("2025-06-01T12:34:56")
        out = roundtrip({"last": stamp})
        assert out["last"] == stamp
        assert out["last"].dtype == stamp.dtype

    def test_stdlib_datetime_watermarks_roundtrip(self):
        import datetime

        stamps = {
            "dt": datetime.datetime(2026, 7, 26, 12, 30, 15, 250000),
            "date": datetime.date(2026, 7, 26),
        }
        out = roundtrip(stamps)
        assert out == stamps
        assert type(out["dt"]) is datetime.datetime
        assert type(out["date"]) is datetime.date

    def test_stdlib_datetime_watermark_survives_save(self, service_factory, rng, tmp_path):
        """Ingest accepts datetime watermarks, so persistence must too."""
        import datetime

        path = str(tmp_path / "forecaster.npz")
        original = StreamingForecaster(service_factory())
        stamp = datetime.datetime(2026, 7, 26, 9, 0)
        original.ingest("a", rng.normal(size=(1, 2)), timestamp=stamp)
        save_forecaster(original, path)
        restored = load_forecaster(service_factory(), path)
        assert restored.store.last_timestamp("a") == stamp

    def test_tenant_keys_with_slashes_and_unicode(self):
        state = {"org/team/tenant": {"a/b": np.ones(2)}, "Ω-tenant": 1}
        out = roundtrip(state)
        assert set(out) == set(state)
        np.testing.assert_array_equal(out["org/team/tenant"]["a/b"], np.ones(2))

    def test_object_values_are_rejected_not_pickled(self):
        with pytest.raises(TypeError, match="pickling"):
            encode_state({"bad": np.array([object()])})
        with pytest.raises(TypeError, match="cannot snapshot"):
            encode_state({"bad": lambda: None})
        with pytest.raises(TypeError, match="keys must be strings"):
            encode_state({1: "x"})

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "state.npz")
        state = {
            "tenants": ["a", "b"],
            "buffers": {"a": np.full((3, 2), 7.0, dtype=np.float32)},
            "watermark": np.datetime64("2025-01-01"),
            "mode": "rolling",
        }
        write_snapshot(state, path)
        out = read_snapshot(path)
        assert out["tenants"] == ["a", "b"]
        assert out["mode"] == "rolling"
        assert out["watermark"] == state["watermark"]
        np.testing.assert_array_equal(out["buffers"]["a"], state["buffers"]["a"])

    def test_non_snapshot_archive_is_rejected(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        np.savez(path, w=np.ones(3))
        with pytest.raises(ValueError, match="manifest"):
            read_snapshot(path)

    def test_unknown_version_is_rejected(self):
        manifest, arrays = encode_state({"a": 1})
        manifest["version"] = 99
        with pytest.raises(ValueError, match="version"):
            decode_state(manifest, arrays)


class TestForecasterPersistence:
    def test_restored_process_forecasts_bit_identically(self, service_factory, rng, tmp_path):
        path = str(tmp_path / "forecaster.npz")
        original = StreamingForecaster(service_factory(), normalization="rolling")
        for i in range(5):
            original.ingest(f"tenant-{i}", rng.normal(size=(40 + i, 2)).astype(np.float32) * (i + 1))
        save_forecaster(original, path)

        restored = load_forecaster(service_factory(), path)
        assert restored.store.tenants() == original.store.tenants()
        assert restored.normalization == "rolling"
        assert restored.store.stats == original.store.stats

        # Same follow-up traffic into both processes → identical forecasts.
        for i in range(5):
            arrival = rng.normal(size=(3, 2)).astype(np.float32)
            original.ingest(f"tenant-{i}", arrival)
            restored.ingest(f"tenant-{i}", arrival)
        want = {t: h.result() for t, h in original.forecast_all().items()}
        got = {t: h.result() for t, h in restored.forecast_all().items()}
        for tenant in want:
            np.testing.assert_array_equal(got[tenant], want[tenant])

    def test_timestamp_watermarks_survive_restart(self, service_factory, rng, tmp_path):
        path = str(tmp_path / "forecaster.npz")
        original = StreamingForecaster(service_factory())
        original.ingest("a", rng.normal(size=(1, 2)), timestamp=np.datetime64("2025-01-01"))
        save_forecaster(original, path)
        restored = load_forecaster(service_factory(), path)
        assert restored.store.last_timestamp("a") == np.datetime64("2025-01-01")
        with pytest.raises(ValueError, match="not after"):
            restored.ingest("a", rng.normal(size=(1, 2)), timestamp=np.datetime64("2024-12-31"))

    def test_restore_validates_channel_geometry(self, service_factory, config, rng, tmp_path):
        path = str(tmp_path / "forecaster.npz")
        original = StreamingForecaster(service_factory())
        original.ingest("a", rng.normal(size=(4, 2)))
        save_forecaster(original, path)
        wide = ModelConfig(
            input_length=32, horizon=8, n_channels=3, patch_length=8,
            hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
        )
        with pytest.raises(ValueError, match="channels"):
            load_forecaster(ForecastService(LiPFormer(wide)), path)

    def test_restore_validates_window_capacity(self, service_factory, rng, tmp_path):
        """A snapshot too small for the service's window must not restore
        into an every-forecast-is-a-cold-start forecaster silently."""
        path = str(tmp_path / "forecaster.npz")
        original = StreamingForecaster(service_factory(), window_capacity=40)
        original.ingest("a", rng.normal(size=(40, 2)))
        save_forecaster(original, path)
        longer = ModelConfig(
            input_length=96, horizon=8, n_channels=2, patch_length=8,
            hidden_dim=16, dropout=0.0, n_heads=2, n_layers=1,
        )
        with pytest.raises(ValueError, match="capacity 40"):
            load_forecaster(ForecastService(LiPFormer(longer)), path)

    def test_extensionless_path_roundtrips(self, service_factory, rng, tmp_path):
        """np.savez appends .npz on write; read must honour the same path."""
        path = str(tmp_path / "snap")        # no extension on purpose
        original = StreamingForecaster(service_factory())
        original.ingest("a", rng.normal(size=(40, 2)))
        save_forecaster(original, path)
        restored = load_forecaster(service_factory(), path)
        np.testing.assert_array_equal(
            restored.forecast("a").result(), original.forecast("a").result()
        )


def parent_shard_state():
    """One shard as archives were written before the per-tenant payload
    format: each field in its own tenant-keyed dict."""
    ring = {
        "capacity": 128, "n_channels": 2, "dtype": "float32",
        "data": np.ones((40, 2), dtype=np.float32), "total_appended": 40,
    }
    return {
        "normalization": "none",
        "store": {
            "capacity": 128, "n_channels": 2, "dtype": "float32",
            "buffers": {"a": ring},
            "last_timestamps": {"a": 7},
            "generations": {"a": 0},
            "stats": {"tenants": 1, "ingests": 1, "observations": 40, "evicted": 0},
        },
        "scalers": {},
        "stats": {"forecasts": 0, "cold_start_forecasts": 0},
    }


def parent_cluster_state(kind="full", seq=0):
    state = {
        "kind": kind, "chain_id": "c0ffee", "seq": seq, "vnodes": 64,
        "normalization": "none", "rebalances": 0, "tenants_migrated": 0,
        "retired": {
            "service": asdict(ServiceStats()),
            "store": asdict(StoreStats()),
            "streaming": {"forecasts": 0, "cold_start_forecasts": 0},
        },
    }
    if kind == "full":
        state["shards"] = {"shard-0": parent_shard_state(), "shard-1": parent_shard_state()}
    else:
        shard = parent_shard_state()
        state.update(parent_seq=seq - 1, store={"capacity": 128, "n_channels": 2, "dtype": "float32"})
        state["shards"] = {
            "shard-0": {
                "order": ["a"], "dirty": {},
                "stats": shard["stats"], "store_stats": shard["store"]["stats"],
            }
        }
    return state


class TestParentLayoutArchives:
    """Archives from before the one-payload format raise a ``ValueError``
    naming the format change — never a ``KeyError`` from deep inside."""

    def test_load_forecaster(self, service_factory, tmp_path):
        path = str(tmp_path / "forecaster.npz")
        write_snapshot(parent_shard_state(), path)
        with pytest.raises(ValueError, match="predates the format change"):
            load_forecaster(service_factory(), path)

    def test_cluster_load_and_load_chain(self, service_factory, tmp_path):
        base, delta = str(tmp_path / "base.npz"), str(tmp_path / "d1.npz")
        write_snapshot(parent_cluster_state(), base)
        write_snapshot(parent_cluster_state("delta", seq=1), delta)
        for load in (
            lambda: ShardedForecaster.load(service_factory, base),
            lambda: ShardedForecaster.load_chain(service_factory, [base]),
            lambda: ShardedForecaster.load_chain(service_factory, [base, delta]),
        ):
            with pytest.raises(ValueError, match="predates the format change"):
                load()


class TestAtomicWrites:
    """A crash mid-checkpoint must never leave a corrupt archive behind."""

    def test_overwrite_is_all_or_nothing(self, tmp_path, monkeypatch):
        """A failing re-checkpoint leaves the previous snapshot readable."""
        import repro.cluster.snapshot as snapshot_module

        path = str(tmp_path / "state.npz")
        write_snapshot({"generation": 1}, path)

        real_save_state = snapshot_module.save_state

        def crash_mid_write(payload, target, **kwargs):
            # Simulate dying after bytes hit the disk but before the
            # archive is complete: write garbage, then fail.
            with open(target, "wb") as handle:
                handle.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(snapshot_module, "save_state", crash_mid_write)
        with pytest.raises(OSError, match="disk full"):
            write_snapshot({"generation": 2}, path)
        monkeypatch.setattr(snapshot_module, "save_state", real_save_state)

        # The published snapshot is still generation 1, and the aborted
        # attempt left no temp litter for an operator to trip over.
        assert read_snapshot(path) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        import repro.cluster.snapshot as snapshot_module

        def explode(payload, target, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(snapshot_module, "save_state", explode)
        with pytest.raises(OSError, match="disk full"):
            write_snapshot({"a": 1}, str(tmp_path / "state.npz"))
        assert list(tmp_path.iterdir()) == []

    def test_write_goes_through_a_rename(self, tmp_path, monkeypatch):
        """The final path only ever receives a complete archive."""
        replaced = []
        real_replace = os.replace

        def spying_replace(src, dst):
            replaced.append((os.path.basename(src), os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)
        path = str(tmp_path / "state.npz")
        write_snapshot({"a": np.ones(3)}, path)
        assert len(replaced) == 1
        src, dst = replaced[0]
        assert dst == "state.npz"
        assert src != dst and src.endswith(".npz")
        np.testing.assert_array_equal(read_snapshot(path)["a"], np.ones(3))
