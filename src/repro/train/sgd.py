"""Ordering-driven minibatch SGD training (Fig 13 harness).

The trainer consumes an *ordering source*: a callable producing one
epoch's sample-index order.  Plugging in a full random permutation
yields the paper's ``Full_Rand`` baseline; plugging in the real DLFS
chunk-batching generator (:class:`repro.core.batching.DeliveryPlan`)
yields the ``DLFS`` curve.  Everything else — model, data, validation —
is held identical, so any accuracy gap is attributable to ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..sim import rng as sim_rng
from .features import FeatureSpace
from .model import MLPClassifier

__all__ = ["TrainingCurve", "train_with_ordering", "full_random_ordering"]

OrderingSource = Callable[[int], np.ndarray]  # epoch -> sample order


@dataclass(frozen=True)
class TrainingCurve:
    """Per-epoch metrics of one training run."""

    epochs: np.ndarray
    train_loss: np.ndarray
    val_accuracy: np.ndarray

    def final_accuracy(self) -> float:
        return float(self.val_accuracy[-1])


def full_random_ordering(num_samples: int, seed: int) -> OrderingSource:
    """Application-driven full randomization (paper's ``Full_Rand``)."""

    def source(epoch: int) -> np.ndarray:
        rng = sim_rng("train.full_rand.epoch", (seed, epoch))
        return rng.permutation(num_samples)

    return source


def train_with_ordering(
    space: FeatureSpace,
    ordering: OrderingSource,
    epochs: int = 100,
    batch_size: int = 32,
    val_size: int = 1000,
    model_seed: int = 0,
    hidden_dim: int = 64,
    learning_rate: float = 0.05,
) -> TrainingCurve:
    """Train the MLP for ``epochs`` epochs under the given ordering."""
    if epochs < 1 or batch_size < 1:
        raise ConfigError("epochs and batch_size must be >= 1")
    model = MLPClassifier(
        input_dim=space.dim,
        num_classes=space.dataset.num_classes,
        hidden_dim=hidden_dim,
        learning_rate=learning_rate,
        seed=model_seed,
    )
    x_val, y_val = space.holdout(val_size)
    losses, accuracies = [], []
    for epoch in range(epochs):
        order = np.asarray(ordering(epoch), dtype=np.int64)
        if len(order) == 0:
            raise ConfigError(f"ordering produced an empty epoch {epoch}")
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order) - batch_size + 1, batch_size):
            batch = order[start:start + batch_size]
            x, y = space.features(batch)
            epoch_loss += model.train_step(x, y)
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
        accuracies.append(model.accuracy(x_val, y_val))
    return TrainingCurve(
        epochs=np.arange(1, epochs + 1),
        train_loss=np.asarray(losses),
        val_accuracy=np.asarray(accuracies),
    )
