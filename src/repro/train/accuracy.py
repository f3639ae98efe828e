"""The Fig 13 experiment: does DLFS-determined ordering hurt accuracy?

Trains the same model on the same data twice:

* ``Full_Rand`` — the application shuffles all sample names fully each
  epoch (the paper's baseline);
* ``DLFS`` — the sample order comes from the *actual* chunk-batching
  machinery (``ChunkEpoch`` + ``DeliveryPlan``), i.e. random chunks
  from the access list interleaved sample by sample, edge samples
  interleaved as a stream.

The paper's result: "no observable differences in the training
accuracy" — quantified here as a final-accuracy gap within noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.batching import ChunkEpoch, ChunkPlan, DeliveryPlan
from ..data import Dataset, DatasetLayout
from ..sim import rng as sim_rng
from .features import FeatureSpace
from .sgd import TrainingCurve, full_random_ordering, train_with_ordering

__all__ = ["AccuracyComparison", "dlfs_ordering", "run_accuracy_experiment"]


def dlfs_ordering(plan: ChunkPlan, seed: int, window: int = 8):
    """An epoch-ordering source backed by the real DLFS batching code."""

    def source(epoch: int) -> np.ndarray:
        epoch_seed = int(
            sim_rng("train.accuracy.epoch", (seed, epoch)).integers(2**31)
        )
        e = ChunkEpoch(plan, seed=epoch_seed, num_ranks=1)
        d = DeliveryPlan(
            plan, e.rank_chunks(0), e.rank_edges(0),
            seed=epoch_seed + 1, window=window,
        )
        order, _keys = d.take(len(d))
        return order

    return source


@dataclass(frozen=True)
class AccuracyComparison:
    """Both curves plus the headline gap."""

    full_rand: TrainingCurve
    dlfs: TrainingCurve

    @property
    def final_gap(self) -> float:
        """Final validation-accuracy difference (Full_Rand - DLFS)."""
        return self.full_rand.final_accuracy() - self.dlfs.final_accuracy()

    @property
    def max_epoch_gap(self) -> float:
        """Largest per-epoch accuracy difference over the tail half of
        training (the transient head is noise-dominated)."""
        half = len(self.full_rand.epochs) // 2
        diff = np.abs(
            self.full_rand.val_accuracy[half:] - self.dlfs.val_accuracy[half:]
        )
        return float(diff.max())


def run_accuracy_experiment(
    num_samples: int = 5000,
    mean_sample_bytes: int = 3072,   # CIFAR10-sized records
    num_classes: int = 10,
    epochs: int = 100,
    batch_size: int = 32,
    chunk_bytes: int = 64 * 1024,
    window: int = 8,
    seed: int = 0,
    class_separation: float = 0.9,
    feature_dim: int = 32,
) -> AccuracyComparison:
    """Run the full Fig 13 comparison (pure computation, no simulator)."""
    dataset = Dataset.fixed(
        "cifar-like", num_samples, mean_sample_bytes,
        num_classes=num_classes, seed=seed,
    )
    layout = DatasetLayout(dataset, num_shards=1)
    plan = ChunkPlan(layout, chunk_bytes)
    space = FeatureSpace(
        dataset, dim=feature_dim, class_separation=class_separation,
        seed=seed + 500,
    )
    common = dict(
        epochs=epochs, batch_size=batch_size, model_seed=seed,
    )
    full_rand = train_with_ordering(
        space, full_random_ordering(num_samples, seed + 1), **common
    )
    dlfs = train_with_ordering(
        space, dlfs_ordering(plan, seed + 2, window=window), **common
    )
    return AccuracyComparison(full_rand=full_rand, dlfs=dlfs)
