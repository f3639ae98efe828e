"""Tests for batched-file layouts and mounting (paper §III-B1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core import ChunkPlan, DLFS, hash_sample_name
from repro.data import (
    BatchedFileLayout,
    CIFARBatchFormat,
    Dataset,
    TFRecordFormat,
)
from repro.data.formats import TFRECORD_HEADER_BYTES
from repro.errors import ConfigError, DirectoryError, FileNotFound
from repro.hw import KB, Testbed
from repro.sim import Environment


def make_layout(n=1000, size=2 * KB, shards=2, per_file=256, order=None):
    ds = Dataset.fixed("tfds", n, size)
    files = TFRecordFormat(samples_per_file=per_file).pack(ds, order=order)
    return ds, files, BatchedFileLayout(ds, files, num_shards=shards)


class TestBatchedFileLayout:
    def test_every_sample_located(self):
        ds, files, layout = make_layout()
        for i in range(0, 1000, 97):
            loc = layout.location(i)
            assert loc.length == ds.sizes[i]
            assert 0 <= loc.shard < 2

    def test_offsets_respect_file_framing(self):
        ds, files, layout = make_layout(per_file=1000, shards=1)
        f = files[0]
        first = int(f.sample_indices[0])
        assert layout.location(first).offset == TFRECORD_HEADER_BYTES

    def test_files_round_robin_over_shards(self):
        ds, files, layout = make_layout(shards=2, per_file=250)
        assert layout.file_extent(0)[0] == 0
        assert layout.file_extent(1)[0] == 1
        assert layout.file_extent(2)[0] == 0

    def test_files_packed_contiguously_per_shard(self):
        ds, files, layout = make_layout(shards=2, per_file=250)
        s0, off0, len0 = layout.file_extent(0)
        s2, off2, _ = layout.file_extent(2)
        assert s0 == s2 == 0
        assert off2 == off0 + len0

    def test_shard_bytes_include_framing(self):
        ds, files, layout = make_layout(shards=1, per_file=1000)
        assert layout.shard_bytes(0) == files[0].file_bytes

    def test_file_of_sample(self):
        ds, files, layout = make_layout(per_file=250)
        sample = int(files[2].sample_indices[3])
        assert layout.file_of_sample(sample) == 2

    def test_shuffled_on_disk_order_supported(self):
        order = np.random.default_rng(1).permutation(1000)
        ds, files, layout = make_layout(order=order)
        covered = np.concatenate(
            [layout.shard_samples(s) for s in range(2)]
        )
        assert sorted(covered.tolist()) == list(range(1000))

    def test_validation(self):
        ds = Dataset.fixed("d", 100, 1000)
        files = TFRecordFormat(samples_per_file=50).pack(ds)
        with pytest.raises(ConfigError):
            BatchedFileLayout(ds, files, num_shards=3)  # only 2 files
        with pytest.raises(ConfigError):
            BatchedFileLayout(ds, files[:1], num_shards=1)  # partial cover
        with pytest.raises(ConfigError):
            BatchedFileLayout(ds, files, num_shards=1, base_offset=100)

    @given(
        n=st.integers(60, 400),
        per_file=st.integers(20, 120),
        shards=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_samples_never_overlap_within_shard(self, n, per_file, shards):
        ds = Dataset.fixed("d", n, 777)
        files = TFRecordFormat(samples_per_file=per_file).pack(ds)
        if shards > len(files):
            return
        layout = BatchedFileLayout(ds, files, num_shards=shards)
        for s in range(shards):
            spans = sorted(
                (layout.location(int(i)).offset, layout.location(int(i)).end)
                for i in layout.shard_samples(s)
            )
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 <= b0


class TestChunkPlanOverBatchedLayout:
    def test_members_sorted_by_offset(self):
        order = np.random.default_rng(2).permutation(1000)
        ds, files, layout = make_layout(order=order)
        plan = ChunkPlan(layout, 64 * KB)
        for g in range(plan.num_chunks):
            members = plan.members(g)
            offs = layout.offsets[members]
            assert (np.diff(offs) > 0).all()

    def test_exact_cover_including_edges(self):
        ds, files, layout = make_layout()
        plan = ChunkPlan(layout, 64 * KB)
        interior = sum(len(plan.members(g)) for g in range(plan.num_chunks))
        assert interior + plan.num_edge_samples == 1000


class TestBatchedMount:
    def _mount(self, fmt=None, n=2000, size=2 * KB):
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=2)
        ds = Dataset.fixed("tfds", n, size)
        fmt = fmt or TFRecordFormat(samples_per_file=512)
        files = fmt.pack(ds)
        fs = DLFS.mount_batched(cluster, ds, files)
        return env, cluster, ds, files, fs

    def test_file_entries_registered(self):
        env, cluster, ds, files, fs = self._mount()
        assert fs.directory.num_file_entries == len(files)

    def test_lookup_file_returns_whole_extent(self):
        env, cluster, ds, files, fs = self._mount()
        res = fs.directory.lookup_file(files[1].name)
        assert res.sample_index == -1
        assert res.length == files[1].file_bytes
        assert res.visits >= 1

    def test_lookup_missing_file(self):
        env, cluster, ds, files, fs = self._mount()
        with pytest.raises(FileNotFound):
            fs.directory.lookup_file("ghost.tfrecord")

    def test_duplicate_file_entry_rejected(self):
        env, cluster, ds, files, fs = self._mount()
        with pytest.raises(DirectoryError):
            fs.directory.register_file_entry(files[0].name, 0, 0, 10)

    def test_file_entries_join_the_shard_build(self):
        env, cluster, ds, files, fs = self._mount()
        res = fs.directory.lookup_file(files[2].name)
        key, check = hash_sample_name(files[2].name)
        payloads, visits = fs.directory.tree(res.shard).search(key)
        assert (-3, check) in payloads and visits == res.visits

    def test_register_into_built_shard_rejected(self):
        env, cluster, ds, files, fs = self._mount()
        with pytest.raises(DirectoryError, match="already built"):
            fs.directory.register_file_entry("late.tfrecord", 0, 0, 10)
        assert fs.directory.num_file_entries == len(files)

    def test_sample_lookup_unaffected_by_file_entries(self):
        env, cluster, ds, files, fs = self._mount()
        res = fs.directory.lookup_name(ds.sample_name(123))
        assert res.sample_index == 123

    def test_samples_readable_through_directory(self):
        """Direct access to any sample in a TFRecord file."""
        env, cluster, ds, files, fs = self._mount()
        client = fs.client(rank=0, num_ranks=1)

        def app(env):
            f = yield from client.open(ds.sample_name(77))
            n = yield from client.read(f)
            return n

        assert env.run(until=env.process(app(env))) == 2 * KB

    def test_bread_epoch_covers_everything(self):
        env, cluster, ds, files, fs = self._mount(n=1000)
        client = fs.client(rank=0, num_ranks=1)
        client.sequence(seed=4)

        def app(env):
            seen = []
            while client.epoch_remaining:
                batch = yield from client.bread(64)
                seen.extend(batch.tolist())
            return seen

        seen = env.run(until=env.process(app(env)))
        assert sorted(seen) == list(range(1000))

    def test_cifar_format_mount(self):
        env, cluster, ds, files, fs = self._mount(
            fmt=CIFARBatchFormat(record_bytes=2 * KB, samples_per_file=512),
        )
        assert fs.directory.num_file_entries == len(files)
