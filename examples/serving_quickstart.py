"""Serving quickstart: train once, then serve forecasts behind a request API.

Run with::

    python examples/serving_quickstart.py

The script walks the full serving story introduced by ``repro.serving``:

1. train a small LiPFormer on a synthetic ETTh1 replica (two-stage:
   contrastive pre-training of the Covariate Encoder, freeze, then fit);
2. stand up a :class:`ForecastService` in front of the trained model;
3. submit single requests — including a short "cold start" history that the
   service left-pads — and show how the micro-batching queue coalesces them
   into one padded forward pass;
4. backfill forecasts over every test window through the vectorised window
   fast path, and score them;
5. save the trained weights, serve them again as a deployment replica
   (:class:`~repro.cluster.spec.ServiceSpec` with ``weights_path``) and
   show that its forecasts are bit-identical.

For the *online* continuation of this story — observations streaming in
per tenant instead of pre-materialised arrays — see
``examples/streaming_quickstart.py``.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro import ModelConfig, TrainingConfig, create_model, prepare_forecasting_data
from repro.cluster.spec import ServiceSpec
from repro.nn import save_module
from repro.serving import ForecastService
from repro.training import Trainer, pretrain_covariate_encoder


def make_config(data, horizon: int) -> ModelConfig:
    return ModelConfig(
        input_length=96,
        horizon=horizon,
        n_channels=data.n_channels,
        patch_length=24,
        hidden_dim=64,
        dropout=0.1,
        covariate_numerical_dim=data.covariate_numerical_dim,
        covariate_categorical_cardinalities=data.covariate_categorical_cardinalities,
        covariate_hidden_dim=16,
    )


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Train a model for the primary scenario (ETTh1, horizon 24).
    # ------------------------------------------------------------------ #
    data = prepare_forecasting_data("ETTh1", input_length=96, horizon=24,
                                    n_timestamps=3000, stride=2, seed=2021)
    config = make_config(data, horizon=24)
    training = TrainingConfig(epochs=2, batch_size=64, learning_rate=1e-3, patience=2)

    model = create_model("LiPFormer", config)
    trainer = Trainer(model, training)
    # Two-stage freeze ordering: the trainer above already captured its
    # parameter list, but Trainer.fit re-resolves it, so freezing via
    # pre-training *after* trainer construction is safe.
    pretrain_covariate_encoder(model, data, training)
    trainer.fit(data)
    print(f"trained LiPFormer: test mse={trainer.test(data)['mse']:.4f}")

    # ------------------------------------------------------------------ #
    # 2. Stand up the service in front of the trained model.
    # ------------------------------------------------------------------ #
    service = ForecastService(model, max_batch_size=32)

    # ------------------------------------------------------------------ #
    # 3. Request-level inference: submit returns a Forecast handle; the
    #    queue coalesces pending requests into one padded forward pass.
    # ------------------------------------------------------------------ #
    test_batch = data.test.as_arrays(np.arange(8))
    handles = [
        service.submit(
            history,
            future_numerical=test_batch["future_numerical"][i],
            future_categorical=test_batch["future_categorical"][i],
        )
        for i, history in enumerate(test_batch["x"])
    ]
    cold_start = service.submit(test_batch["x"][0][-24:])  # 24 of 96 steps: padded
    print(f"queued requests: {service.pending} (none resolved yet: "
          f"{not any(h.done() for h in handles)})")
    first = handles[0].result()            # triggers one flush for the whole queue
    print(f"first forecast shape={first.shape}; "
          f"cold-start forecast shape={cold_start.result().shape}")
    print(f"service stats after flush: {service.stats}")

    # ------------------------------------------------------------------ #
    # 4. Backfill mode: batched inference over every test window, using the
    #    vectorised sliding-window materialisation.
    # ------------------------------------------------------------------ #
    start = time.perf_counter()
    predictions = service.backfill(data.test)
    elapsed = time.perf_counter() - start
    targets = data.test.as_arrays()["y"]
    mse = float(np.mean((predictions - targets) ** 2))
    print(f"backfilled {len(predictions)} windows in {elapsed * 1000:.1f}ms "
          f"({len(predictions) / elapsed:,.0f} windows/s), mse={mse:.4f}")

    # ------------------------------------------------------------------ #
    # 5. Serve the same weights as a deployment replica: save them, then
    #    let a ServiceSpec build a fresh model and load the file, the way
    #    every cluster shard (thread or process) builds its replica.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as directory:
        weights_path = os.path.join(directory, "lipformer_etth1_h24.npz")
        save_module(model, weights_path)
        replica = ServiceSpec("LiPFormer", config, max_batch_size=32,
                              weights_path=weights_path).build()
    covariates = {
        "future_numerical": test_batch["future_numerical"],
        "future_categorical": test_batch["future_categorical"],
    }
    served = service.predict_many(test_batch["x"], **covariates)
    replayed = replica.predict_many(test_batch["x"], **covariates)
    identical = np.array_equal(served, replayed)
    print(f"replica from {os.path.basename(weights_path)}: "
          f"{len(replayed)} forecasts bit-identical to the trained model's: {identical}")
    if not identical:
        raise SystemExit("the replica's forecasts differ from the trained model's")


if __name__ == "__main__":
    main()
