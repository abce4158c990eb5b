"""Quickstart: train LiPFormer on a synthetic ETTh1 replica and forecast.

Run with::

    python examples/quickstart.py

The script prepares a small ETTh1-like dataset, trains LiPFormer for a few
epochs on the CPU, reports test MSE/MAE against a DLinear baseline and the
naive last-value forecast, and prints a sample forecast.

Serving
-------
Training produces a model; serving it is a separate concern handled by
``repro.serving``.  Wrap any trained :class:`~repro.core.base.ForecastModel`
in a :class:`~repro.serving.ForecastService` to get a request-level API —
``service.submit(history, covariates)`` returns a ``Forecast`` handle (and
``service.submit_many`` queues a whole block of rows), and pending requests
are coalesced into a single padded batched forward pass under ``no_grad``.
Save the trained weights with :func:`repro.nn.save_module` and a
:class:`~repro.cluster.spec.ServiceSpec` with ``weights_path`` builds
bit-identical replicas of the model anywhere.  See
``examples/serving_quickstart.py`` for the end-to-end serving tour.
"""

from __future__ import annotations

import numpy as np

from repro import ModelConfig, TrainingConfig, create_model, prepare_forecasting_data
from repro.training import Trainer, run_experiment


def main() -> None:
    # 1. Data: a synthetic replica of ETTh1 (hourly, 7 channels), windowed
    #    into (96-step history -> 24-step forecast) samples.
    data = prepare_forecasting_data(
        "ETTh1",
        input_length=96,
        horizon=24,
        n_timestamps=3000,   # quick profile; drop the argument for the full-size replica
        stride=2,
        seed=2021,
    )
    print(f"dataset={data.name}  channels={data.n_channels}  "
          f"train/val/test windows = {len(data.train)}/{len(data.validation)}/{len(data.test)}")

    # 2. Model configuration shared by LiPFormer and the baseline.
    config = ModelConfig(
        input_length=96,
        horizon=24,
        n_channels=data.n_channels,
        patch_length=24,
        hidden_dim=64,
        dropout=0.1,
        covariate_numerical_dim=data.covariate_numerical_dim,
        covariate_categorical_cardinalities=data.covariate_categorical_cardinalities,
        covariate_hidden_dim=16,
    )
    training = TrainingConfig(epochs=5, batch_size=64, learning_rate=1e-3, patience=3)

    # 3. Train LiPFormer (with contrastive pre-training of the implicit
    #    calendar covariates) and DLinear for comparison.
    results = {}
    for name in ("LiPFormer", "DLinear"):
        model = create_model(name, config)
        result = run_experiment(
            model, data, training, model_name=name, pretrain=(name == "LiPFormer")
        )
        results[name] = result
        print(
            f"{name:10s}  mse={result.mse:.4f}  mae={result.mae:.4f}  "
            f"params={result.parameters:,}  s/epoch={result.train_seconds_per_epoch:.2f}"
        )

    # 4. Naive last-value baseline for context.
    test_batch = data.test.as_arrays(np.arange(len(data.test)))
    naive = np.repeat(test_batch["x"][:, -1:, :], data.horizon, axis=1)
    naive_mse = float(np.mean((naive - test_batch["y"]) ** 2))
    print(f"{'naive':10s}  mse={naive_mse:.4f}  (repeat the last observed value)")

    # 5. Produce one forecast with the trained LiPFormer.
    model = create_model("LiPFormer", config)
    trainer = Trainer(model, training)
    trainer.fit(data)
    sample = data.test.as_arrays(np.array([0]))
    forecast = model.predict(sample["x"], sample["future_numerical"], sample["future_categorical"])
    print("\nforecast for the first test window (channel 0):")
    print("  predicted:", np.round(forecast[0, :8, 0], 3), "...")
    print("  actual:   ", np.round(sample["y"][0, :8, 0], 3), "...")


if __name__ == "__main__":
    main()
