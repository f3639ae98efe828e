"""Unit + property tests for distributions, datasets, layouts, formats, PFS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    CIFARBatchFormat,
    Dataset,
    DatasetLayout,
    FixedSize,
    LogNormalSizes,
    ParallelFS,
    TFRecordFormat,
    imagenet_like,
    imdb_like,
    shuffle_quality,
)
from repro.data.formats import TFRECORD_HEADER_BYTES
from repro.errors import ConfigError
from repro.hw import GB, KB
from repro.sim import Environment


class TestDistributions:
    def test_fixed_size(self):
        rng = np.random.default_rng(0)
        sizes = FixedSize(4096).sample(rng, 100)
        assert (sizes == 4096).all()

    def test_fixed_size_validation(self):
        with pytest.raises(ConfigError):
            FixedSize(0)

    def test_imagenet_like_p75_matches_paper(self):
        """Paper Fig 1: ~75% of ImageNet samples are below 147 KB."""
        d = imagenet_like()
        rng = np.random.default_rng(1)
        sizes = d.sample(rng, 200_000)
        frac = (sizes <= 147 * KB).mean()
        assert 0.73 <= frac <= 0.77

    def test_imdb_like_p75_matches_paper(self):
        """Paper Fig 1: ~75% of IMDB samples are below 1.6 KB."""
        d = imdb_like()
        rng = np.random.default_rng(2)
        sizes = d.sample(rng, 200_000)
        frac = (sizes <= 1.6 * KB).mean()
        assert 0.72 <= frac <= 0.78

    def test_lognormal_clipping(self):
        d = LogNormalSizes(median_bytes=1000, sigma=3.0, min_bytes=500, max_bytes=2000)
        rng = np.random.default_rng(3)
        sizes = d.sample(rng, 10_000)
        assert sizes.min() >= 500 and sizes.max() <= 2000

    def test_preset_sigmas_are_pinned(self):
        """Every synthetic dataset's sizes follow from these doubles."""
        assert imagenet_like().sigma.hex() == "0x1.4b62d64bb0761p-1"
        assert imdb_like().sigma.hex() == "0x1.b4c127bf1ac26p-1"

    def test_from_p75_requires_p75_above_median(self):
        with pytest.raises(ConfigError):
            LogNormalSizes.from_p75(median_bytes=1000, p75_bytes=900)

    def test_sampling_is_deterministic_per_seed(self):
        d = imagenet_like()
        a = d.sample(np.random.default_rng(7), 1000)
        b = d.sample(np.random.default_rng(7), 1000)
        assert (a == b).all()


class TestDataset:
    def test_synthetic_basics(self):
        ds = Dataset.synthetic("img", 1000, imagenet_like(), seed=4)
        assert ds.num_samples == len(ds) == 1000
        assert ds.total_bytes == int(ds.sizes.sum())
        assert ds.mean_sample_bytes == pytest.approx(ds.sizes.mean())

    def test_fixed_dataset(self):
        ds = Dataset.fixed("micro", 64, 512)
        assert (ds.sizes == 512).all()

    def test_labels_in_range(self):
        ds = Dataset.fixed("d", 500, 100, num_classes=7)
        assert ds.labels.min() >= 0 and ds.labels.max() < 7

    def test_sample_name_format(self):
        ds = Dataset.fixed("imagenet", 10, 100)
        assert ds.sample_name(3) == "imagenet/00000003"
        with pytest.raises(ConfigError):
            ds.sample_name(10)

    def test_deterministic_per_seed(self):
        a = Dataset.synthetic("d", 100, imagenet_like(), seed=5)
        b = Dataset.synthetic("d", 100, imagenet_like(), seed=5)
        assert (a.sizes == b.sizes).all() and (a.labels == b.labels).all()

    def test_immutability(self):
        ds = Dataset.fixed("d", 10, 100)
        with pytest.raises(ValueError):
            ds.sizes[0] = 5

    def test_validation(self):
        with pytest.raises(ConfigError):
            Dataset("bad", np.array([]))
        with pytest.raises(ConfigError):
            Dataset("bad", np.array([0]))
        with pytest.raises(ConfigError):
            Dataset.fixed("bad", 0, 100)


class TestDatasetLayout:
    def test_contiguous_partition_balance(self):
        ds = Dataset.fixed("d", 100, 1000)
        layout = DatasetLayout(ds, num_shards=4)
        counts = [len(layout.shard_samples(s)) for s in range(4)]
        assert counts == [25, 25, 25, 25]

    def test_interleaved_partition(self):
        ds = Dataset.fixed("d", 10, 100)
        layout = DatasetLayout(ds, num_shards=3, interleaved=True)
        assert layout.shard_of(0) == 0
        assert layout.shard_of(1) == 1
        assert layout.shard_of(5) == 2

    def test_contiguous_packing_no_gaps(self):
        ds = Dataset.synthetic("d", 200, imagenet_like(), seed=6)
        layout = DatasetLayout(ds, num_shards=3)
        for s in range(3):
            members = layout.shard_samples(s)
            expected = 0
            for i in members:
                loc = layout.location(int(i))
                assert loc.offset == expected
                expected = loc.end
            assert expected == layout.shard_bytes(s)

    def test_base_offset_applied(self):
        ds = Dataset.fixed("d", 4, 100)
        layout = DatasetLayout(ds, num_shards=1, base_offset=4096)
        assert layout.location(0).offset == 4096
        assert layout.shard_extent(0) == (4096, 4096 + 400)

    def test_base_offset_alignment_enforced(self):
        ds = Dataset.fixed("d", 4, 100)
        with pytest.raises(ConfigError):
            DatasetLayout(ds, num_shards=1, base_offset=100)

    def test_more_shards_than_samples_rejected(self):
        ds = Dataset.fixed("d", 2, 100)
        with pytest.raises(ConfigError):
            DatasetLayout(ds, num_shards=3)

    @given(
        n=st.integers(min_value=1, max_value=300),
        shards=st.integers(min_value=1, max_value=8),
        interleaved=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_is_exact_cover(self, n, shards, interleaved):
        if shards > n:
            return
        ds = Dataset.fixed("d", n, 64)
        layout = DatasetLayout(ds, num_shards=shards, interleaved=interleaved)
        all_members = np.concatenate(
            [layout.shard_samples(s) for s in range(shards)]
        )
        assert sorted(all_members.tolist()) == list(range(n))
        assert sum(layout.shard_bytes(s) for s in range(shards)) == ds.total_bytes

    @given(
        shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=30, deadline=None)
    def test_samples_within_shard_never_overlap(self, shards, seed):
        ds = Dataset.synthetic("d", 50, imdb_like(), seed=seed)
        layout = DatasetLayout(ds, num_shards=shards)
        for s in range(shards):
            spans = sorted(
                (layout.location(int(i)).offset, layout.location(int(i)).end)
                for i in layout.shard_samples(s)
            )
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 <= b0


class TestBatchedFormats:
    def test_tfrecord_framing(self):
        ds = Dataset.fixed("d", 5, 1000)
        files = TFRecordFormat(samples_per_file=5).pack(ds)
        assert len(files) == 1
        f = files[0]
        assert f.file_bytes == 5 * (1000 + TFRECORD_HEADER_BYTES)
        off, length = f.locate(0)
        assert off == TFRECORD_HEADER_BYTES and length == 1000
        off2, _ = f.locate(1)
        assert off2 == 2 * TFRECORD_HEADER_BYTES + 1000

    def test_tfrecord_splits_files(self):
        ds = Dataset.fixed("d", 10, 100)
        files = TFRecordFormat(samples_per_file=4).pack(ds)
        assert [f.num_samples for f in files] == [4, 4, 2]

    def test_tfrecord_custom_order(self):
        ds = Dataset.fixed("d", 4, 100)
        order = np.array([3, 1, 0, 2])
        f = TFRecordFormat(samples_per_file=4).pack(ds, order=order)[0]
        assert f.sample_indices.tolist() == [3, 1, 0, 2]

    def test_tfrecord_bad_order_rejected(self):
        ds = Dataset.fixed("d", 4, 100)
        with pytest.raises(ConfigError):
            TFRecordFormat().pack(ds, order=np.array([0, 0, 1, 2]))

    def test_cifar_fixed_records(self):
        ds = Dataset.fixed("d", 3, 3072)
        f = CIFARBatchFormat(record_bytes=3072, samples_per_file=10).pack(ds)[0]
        assert f.file_bytes == 3 * 3073
        off, length = f.locate(2)
        assert off == 2 * 3073 + 1 and length == 3072

    def test_locate_bounds(self):
        ds = Dataset.fixed("d", 2, 100)
        f = TFRecordFormat().pack(ds)[0]
        with pytest.raises(ConfigError):
            f.locate(2)


class TestShuffleQuality:
    def test_identity_is_zero(self):
        assert shuffle_quality(np.arange(1000)) == 0.0

    def test_full_shuffle_near_one(self):
        rng = np.random.default_rng(8)
        order = rng.permutation(100_000)
        assert 0.9 < shuffle_quality(order) < 1.1

    def test_windowed_shuffle_is_partial(self):
        """A bounded shuffle buffer yields quality strictly between 0 and 1."""
        rng = np.random.default_rng(9)
        n, window = 100_000, 1000
        order = np.arange(n)
        for start in range(0, n, window):
            rng.shuffle(order[start:start + window])
        q = shuffle_quality(order)
        assert 0.0 < q < 0.1  # tiny windows barely shuffle at global scale

    def test_tiny_orders(self):
        assert shuffle_quality(np.array([0])) == 0.0


class TestParallelFS:
    def test_single_stream_time(self):
        env = Environment()
        pfs = ParallelFS(env, streams=4, stream_bandwidth=1 * GB, request_latency=0.0)

        def proc(env):
            yield from pfs.read(1 * GB)
            return env.now

        assert env.run(until=env.process(proc(env))) == pytest.approx(1.0)

    def test_streams_run_concurrently_up_to_capacity(self):
        env = Environment()
        pfs = ParallelFS(env, streams=2, stream_bandwidth=1 * GB, request_latency=0.0)
        done = []

        def proc(env):
            yield from pfs.read(1 * GB)
            done.append(env.now)

        for _ in range(4):
            env.process(proc(env))
        env.run()
        assert done == [1.0, 1.0, 2.0, 2.0]

    def test_zero_read_is_free(self):
        env = Environment()
        pfs = ParallelFS(env)

        def proc(env):
            yield from pfs.read(0)
            return env.now

        assert env.run(until=env.process(proc(env))) == 0.0

    def test_meter_records(self):
        env = Environment()
        pfs = ParallelFS(env)

        def proc(env):
            yield from pfs.read(10 * KB)

        env.process(proc(env))
        env.run()
        assert pfs.meter.bytes == 10 * KB

    def test_validation(self):
        env = Environment()
        with pytest.raises(ConfigError):
            ParallelFS(env, streams=0)
        with pytest.raises(ConfigError):
            ParallelFS(env, stream_bandwidth=0)
