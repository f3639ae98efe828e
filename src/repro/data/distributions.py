"""Sample-size distributions for synthetic training datasets.

The paper motivates DLFS with the size profile of real datasets (Fig 1):
ImageNet's raw JPEG samples are mostly small (75% under 147 KB) and
IMDB's text samples are tiny (75% under 1.6 KB).  Raw image/text sizes
are well described by a lognormal; the presets here pin the medians and
shape so the paper's quartile landmarks hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ..errors import ConfigError
from ..hw.platform import KB

__all__ = [
    "SizeDistribution",
    "FixedSize",
    "LogNormalSizes",
    "imagenet_like",
    "imdb_like",
]

#: z-score of the 75th percentile of a standard normal.
_Z75 = NormalDist().inv_cdf(0.75)


class SizeDistribution:
    """Interface: draw per-sample byte sizes."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` sizes (int64 bytes, all >= 1)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSize(SizeDistribution):
    """Every sample is exactly ``nbytes`` — the paper's micro-benchmarks."""

    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 1:
            raise ConfigError("sample size must be >= 1 byte")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.nbytes, dtype=np.int64)


@dataclass(frozen=True)
class LogNormalSizes(SizeDistribution):
    """Lognormal sizes clipped to ``[min_bytes, max_bytes]``.

    Parameterized by the median (in bytes) and the log-space sigma, which
    is the natural way to pin quartiles: P75 = median * exp(z75 * sigma).
    """

    median_bytes: float
    sigma: float
    min_bytes: int = 64
    max_bytes: int = 32 * 1024 * KB

    def __post_init__(self) -> None:
        if self.median_bytes <= 0 or self.sigma <= 0:
            raise ConfigError("median_bytes and sigma must be positive")
        if not 1 <= self.min_bytes < self.max_bytes:
            raise ConfigError("need 1 <= min_bytes < max_bytes")

    @classmethod
    def from_p75(
        cls, median_bytes: float, p75_bytes: float, **kwargs
    ) -> "LogNormalSizes":
        """Construct so that the 75th percentile lands on ``p75_bytes``."""
        if p75_bytes <= median_bytes:
            raise ConfigError("p75 must exceed the median")
        sigma = float(np.log(p75_bytes / median_bytes) / _Z75)
        return cls(median_bytes=median_bytes, sigma=sigma, **kwargs)

    @property
    def _mu(self) -> float:
        return float(np.log(self.median_bytes))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raw = rng.lognormal(mean=self._mu, sigma=self.sigma, size=n)
        return np.clip(raw, self.min_bytes, self.max_bytes).astype(np.int64)


def imagenet_like() -> LogNormalSizes:
    """Raw-JPEG ImageNet profile: 75% of samples below 147 KB (Fig 1)."""
    return LogNormalSizes.from_p75(
        median_bytes=95 * KB, p75_bytes=147 * KB, min_bytes=2 * KB
    )


def imdb_like() -> LogNormalSizes:
    """IMDB review-text profile: 75% of samples below 1.6 KB (Fig 1)."""
    return LogNormalSizes.from_p75(
        median_bytes=0.9 * KB, p75_bytes=1.6 * KB, min_bytes=64,
        max_bytes=64 * KB,
    )
