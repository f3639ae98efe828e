"""Fig 1: sample-size distributions (ImageNet-like vs IMDB-like)."""

from conftest import run_once

from repro.bench import fig01_size_distribution


def test_fig01_size_distribution(benchmark, emit):
    result = run_once(benchmark, fig01_size_distribution, num_samples=200_000)
    emit(result)
    # Paper landmarks: 75% of ImageNet samples below 147 KB, 75% of
    # IMDB samples below 1.6 KB.
    _, imagenet_frac = result.headline["ImageNet: fraction of samples <= 147 KB"]
    _, imdb_frac = result.headline["IMDB: fraction of samples <= 1.6 KB"]
    assert 0.73 <= imagenet_frac <= 0.77
    assert 0.72 <= imdb_frac <= 0.78
    # IMDB is the "many tiny samples" dataset: its CDF dominates
    # ImageNet's everywhere.
    for x, imdb_cdf in result.series["IMDB"].items():
        assert imdb_cdf >= result.series["ImageNet"][x] - 1e-9
