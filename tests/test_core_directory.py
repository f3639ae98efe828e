"""Unit tests for the sample directory, its shard trees, V bits, and
collective aggregation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import Cluster, Communicator
from repro.core import (
    GlobalSequence,
    LocalValidBits,
    SampleDirectory,
    aggregate_directory,
)
from repro.core.directory import ENTRY_BYTES
from repro.data import Dataset, DatasetLayout, imagenet_like
from repro.errors import ConfigError, DirectoryError, FileNotFound
from repro.hw import KB, Testbed
from repro.sim import Environment


@pytest.fixture
def rig():
    ds = Dataset.synthetic("img", 400, imagenet_like(), seed=3)
    layout = DatasetLayout(ds, num_shards=4)
    directory = SampleDirectory(ds, layout)
    directory.build_all_shards()
    return ds, layout, directory


class TestConstruction:
    def test_mismatched_layout_rejected(self):
        ds1 = Dataset.fixed("a", 10, 100)
        ds2 = Dataset.fixed("b", 10, 100)
        layout = DatasetLayout(ds2, num_shards=1)
        with pytest.raises(DirectoryError):
            SampleDirectory(ds1, layout)

    def test_incomplete_until_all_shards_built(self):
        ds = Dataset.fixed("d", 40, 100)
        layout = DatasetLayout(ds, num_shards=4)
        directory = SampleDirectory(ds, layout)
        assert not directory.is_complete
        directory.build_shard(0)
        assert not directory.is_complete
        with pytest.raises(DirectoryError):
            directory.tree(1)
        for s in range(1, 4):
            directory.build_shard(s)
        assert directory.is_complete

    def test_tree_sizes_match_shards(self, rig):
        ds, layout, directory = rig
        for s in range(4):
            assert len(directory.tree(s)) == len(layout.shard_samples(s))

    def test_trees_are_balanced(self, rig):
        _, _, directory = rig
        for s in range(4):
            tree = directory.tree(s)
            assert tree.keys == sorted(set(tree.keys))
            assert tree.height == math.ceil(math.log2(len(tree.keys) + 1))

    def test_entry_memory_accounting(self, rig):
        ds, layout, directory = rig
        assert directory.entry_bytes == 400 * ENTRY_BYTES
        total = sum(directory.shard_entry_bytes(s) for s in range(4))
        assert total == directory.entry_bytes

    def test_paper_memory_claim(self):
        """§III-B2: 50 M samples -> 0.8 GB of directory."""
        assert 50_000_000 * ENTRY_BYTES == 800_000_000


class TestLookup:
    def test_lookup_index_resolves_location(self, rig):
        ds, layout, directory = rig
        for i in (0, 123, 399):
            res = directory.lookup_index(i)
            loc = layout.location(i)
            assert res.sample_index == i
            assert res.shard == loc.shard
            assert res.offset == loc.offset
            assert res.length == loc.length
            assert res.visits >= 1

    def test_lookup_visits_bounded_by_tree_height(self, rig):
        _, _, directory = rig
        res = directory.lookup_index(50)
        assert res.visits <= directory.tree(res.shard).height

    def test_lookup_index_out_of_range(self, rig):
        _, _, directory = rig
        with pytest.raises(FileNotFound):
            directory.lookup_index(400)

    def test_lookup_name_resolves(self, rig):
        ds, _, directory = rig
        res = directory.lookup_name(ds.sample_name(42))
        assert res.sample_index == 42

    def test_lookup_name_missing(self, rig):
        _, _, directory = rig
        with pytest.raises(FileNotFound):
            directory.lookup_name("img/99999999")

    def test_all_samples_resolvable(self, rig):
        ds, _, directory = rig
        for i in range(ds.num_samples):
            assert directory.lookup_index(i).sample_index == i


class TestValidBits:
    def test_initially_all_invalid(self, rig):
        _, _, directory = rig
        v = LocalValidBits(directory)
        assert v.valid_count == 0
        assert not v.is_valid(0)

    def test_set_clear(self, rig):
        _, _, directory = rig
        v = LocalValidBits(directory)
        v.set_valid(5)
        assert v.is_valid(5) and v.valid_count == 1
        v.clear_valid(5)
        assert not v.is_valid(5)

    def test_bulk_ops(self, rig):
        _, _, directory = rig
        v = LocalValidBits(directory)
        v.set_valid_many(np.array([1, 2, 3]))
        assert v.valid_count == 3
        v.clear_valid_many([2, 3])
        assert v.valid_count == 1

    def test_replicas_have_independent_v_bits(self, rig):
        _, _, directory = rig
        v0, v1 = LocalValidBits(directory), LocalValidBits(directory)
        v0.set_valid(7)
        assert not v1.is_valid(7)


class TestAggregation:
    def test_aggregate_completes_directory(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=4)
        comm = Communicator(cluster)
        ds = Dataset.fixed("d", 100, 1000)
        layout = DatasetLayout(ds, num_shards=4)
        directory = SampleDirectory(ds, layout)

        def proc(env):
            result = yield from aggregate_directory(comm, directory)
            return (result.is_complete, env.now)

        complete, elapsed = env.run(until=env.process(proc(env)))
        assert complete
        assert elapsed > 0  # allgather moved real simulated bytes

    def test_aggregate_size_mismatch_rejected(self):
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=2)
        comm = Communicator(cluster)
        ds = Dataset.fixed("d", 100, 1000)
        layout = DatasetLayout(ds, num_shards=4)
        directory = SampleDirectory(ds, layout)
        with pytest.raises(DirectoryError):
            list(aggregate_directory(comm, directory))

    def test_aggregation_cost_scales_with_entries(self):
        def run(n_samples):
            env = Environment()
            cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=4)
            comm = Communicator(cluster)
            ds = Dataset.fixed("d", n_samples, 1000)
            layout = DatasetLayout(ds, num_shards=4)
            directory = SampleDirectory(ds, layout)

            def proc(env):
                yield from aggregate_directory(comm, directory)
                return env.now

            return env.run(until=env.process(proc(env)))

        small, large = run(1000), run(100_000)
        assert large > small


class TestGlobalSequence:
    def test_same_seed_same_order(self):
        a = GlobalSequence(1000, seed=5, num_ranks=4)
        b = GlobalSequence(1000, seed=5, num_ranks=4)
        assert (a.order == b.order).all()

    def test_different_seed_different_order(self):
        a = GlobalSequence(1000, seed=5)
        b = GlobalSequence(1000, seed=6)
        assert (a.order != b.order).any()

    def test_order_is_permutation(self):
        s = GlobalSequence(500, seed=1)
        assert sorted(s.order.tolist()) == list(range(500))

    def test_rank_portions_partition_each_batch(self):
        s = GlobalSequence(1024, seed=2, num_ranks=4, batch_per_rank=8)
        batch = s.batch_slice(3)
        portions = [s.rank_portion(3, r) for r in range(4)]
        assert np.concatenate(portions).tolist() == batch.tolist()

    def test_epoch_order_for_rank_consistent_with_portions(self):
        s = GlobalSequence(1024, seed=2, num_ranks=4, batch_per_rank=8)
        epoch = s.epoch_order_for_rank(1)
        manual = np.concatenate(
            [s.rank_portion(b, 1) for b in range(s.num_batches)]
        )
        assert (epoch == manual).all()

    def test_epoch_covers_all_samples_across_ranks(self):
        s = GlobalSequence(640, seed=3, num_ranks=4, batch_per_rank=8)
        combined = np.concatenate(
            [s.epoch_order_for_rank(r) for r in range(4)]
        )
        assert sorted(combined.tolist()) == list(range(640))

    def test_drop_remainder(self):
        s = GlobalSequence(100, seed=0, num_ranks=3, batch_per_rank=8)
        assert s.num_batches == 100 // 24

    def test_bounds(self):
        s = GlobalSequence(100, seed=0, num_ranks=2, batch_per_rank=8)
        with pytest.raises(ConfigError):
            s.batch_slice(s.num_batches)
        with pytest.raises(ConfigError):
            s.rank_portion(0, 2)
        with pytest.raises(ConfigError):
            GlobalSequence(0, seed=0)


def _tree(keys):
    """A ShardTree over ``keys``: payloads ``(input position, position *
    7 % 65536)``."""
    # Imported here, not at module level, so TestPinnedVisits also runs
    # against the pointer-tree directory its digests were recorded from.
    from repro.core import ShardTree

    ids = np.arange(len(keys), dtype=np.int64)
    return ShardTree(np.asarray(keys, dtype=np.uint64), ids, ids * 7 % 65536)


def _search(tree, key):
    """``tree.search(key)`` with its payload range read out as
    ``(id, check)`` pairs."""
    found, visits = tree.search(key)
    assert isinstance(found, range) and found.step == 1
    return [(tree.ids[j], tree.checks[j]) for j in found], visits


def _midpoint_descent(keys, key):
    """Oracle: the literal descent of the tree whose subtree over sorted
    distinct keys [lo, hi) is rooted at (lo + hi) // 2, with payloads
    ``(input position, position * 7 % 65536)`` chained in input order."""
    distinct = sorted(set(keys))
    lo, hi, visits = 0, len(distinct), 0
    while lo < hi:
        mid = (lo + hi) // 2
        visits += 1
        if key == distinct[mid]:
            return [(i, i * 7 % 65536) for i, k in enumerate(keys) if k == key], visits
        if key < distinct[mid]:
            hi = mid
        else:
            lo = mid + 1
    return [], visits


class TestShardTree:
    def test_empty_shard_misses_with_no_visits(self):
        tree = _tree([])
        assert len(tree) == 0 and tree.height == 0
        assert _search(tree, 5) == ([], 0)

    def test_build_from_empty_columns(self):
        from repro.core import ShardTree

        tree = ShardTree(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.uint64))
        assert tree.keys == [] and tree.depths == [] and len(tree) == 0
        assert _search(tree, 0) == ([], 0)
        assert _search(tree, 2**64 - 1) == ([], 0)

    def test_one_key_shard(self):
        tree = _tree([10])
        assert _search(tree, 10) == ([(0, 0)], 1)
        assert _search(tree, 3) == ([], 1)
        assert _search(tree, 11) == ([], 1)

    def test_duplicate_keys_chain(self):
        tree = _tree([5, 1, 5])
        assert len(tree) == 3 and tree.keys == [1, 5]
        assert _search(tree, 5)[0] == [(0, 0), (2, 14)]

    def test_sorted_duplicates_share_one_node(self):
        tree = _tree([1, 1, 2])
        assert tree.keys == [1, 2] and len(tree.depths) == 2
        # Root is key 2 (sorted position (0 + 2) // 2); key 1 is its child.
        assert _search(tree, 1) == ([(0, 0), (1, 7)], 2)
        assert _search(tree, 2) == ([(2, 14)], 1)

    def test_search_visits_bounded_by_height(self):
        n = 1000
        tree = _tree(np.arange(0, 2 * n, 2))
        assert tree.height == math.ceil(math.log2(n + 1))
        for key in range(-1, 2 * n + 1):
            payloads, visits = _search(tree, key)
            assert 1 <= visits <= tree.height
            assert bool(payloads) == (0 <= key < 2 * n and key % 2 == 0)

    def test_levels_full_above_the_last(self):
        """Perfect balance: depth d holds 2**(d - 1) keys above the last
        level, so the height is ceil(log2(n + 1))."""
        for n in [*range(130), 1 << 12]:
            tree = _tree(np.arange(n))
            per_level = np.bincount(tree.depths, minlength=tree.height + 1)
            for depth in range(1, tree.height):
                assert per_level[depth] == 2 ** (depth - 1), (n, depth)
            assert tree.height == math.ceil(math.log2(n + 1)), n

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_random_keys_sorted_and_balanced(self, keys):
        """Keys in any order, with repeats: sorted distinct keys, every
        payload kept, and the AVL balance invariant at every node."""
        tree = _tree(keys)
        assert len(tree) == len(keys)
        assert tree.keys == sorted(set(keys))

        def subtree_height(lo, hi, depth):
            if lo >= hi:
                return 0
            mid = (lo + hi) // 2
            assert tree.depths[mid] == depth
            left = subtree_height(lo, mid, depth + 1)
            right = subtree_height(mid + 1, hi, depth + 1)
            assert abs(left - right) <= 1
            return 1 + max(left, right)

        assert subtree_height(0, len(tree.keys), 1) == tree.height
        for key, depth in zip(tree.keys, tree.depths):
            payloads, visits = _search(tree, key)
            assert len(payloads) == keys.count(key) and visits == depth

    def test_million_entry_height(self):
        """Directory-scale sanity: 1 M keys, ~20-level lookups."""
        tree = _tree(np.arange(1_000_000))
        assert tree.height == 20
        assert tree.search(123_456)[1] <= 20

    @given(
        st.lists(st.one_of(st.integers(0, 64), st.integers(0, 2**48 - 1)),
                 max_size=200),
        st.lists(st.integers(0, 2**48 - 1), max_size=20),
    )
    @example(keys=[], extra=[5])
    @example(keys=[7], extra=[])
    @settings(max_examples=200, deadline=None)
    def test_search_matches_midpoint_descent(self, keys, extra):
        """Duplicates stand for hash collisions; probes are every present
        key, its neighbours, both ends and ``extra`` (mostly absent)."""
        tree = _tree(keys)
        probes = set(keys) | set(extra) | {0, 2**48 - 1}
        probes |= {k + 1 for k in keys} | {k - 1 for k in keys if k}
        for key in sorted(probes):
            assert _search(tree, key) == _midpoint_descent(keys, key), key


def _visits_digest(visits) -> str:
    return hashlib.sha1(np.asarray(visits, dtype=np.int64).tobytes()).hexdigest()


class TestPinnedVisits:
    """Every sample-mode prep, ``dlfs_open`` and Fig 10 lookup is charged
    ``visits * CPUSpec.tree_node_visit``, so lookups' visits are pinned.
    The digests were recorded with the pointer-based AVL tree the shard
    trees replaced (sha1 of the int64 visit sequence)."""

    @pytest.fixture(scope="class")
    def fixed(self):
        ds = Dataset.fixed("pin", 100_000, 4 * KB)
        directory = SampleDirectory(ds, DatasetLayout(ds, num_shards=4))
        directory.build_all_shards()
        return directory

    @pytest.fixture(scope="class")
    def imagenet(self):
        ds = Dataset.synthetic("pin-img", 50_000, imagenet_like(), seed=11)
        layout = DatasetLayout(ds, num_shards=3, interleaved=True)
        directory = SampleDirectory(ds, layout)
        directory.build_all_shards()
        return directory

    def test_index_visits_fixed_size(self, fixed):
        visits = [fixed.lookup_index(i).visits for i in range(100_000)]
        assert _visits_digest(visits) == "c10d70451413bdc25c381af451fe34d139c3d0c5"

    def test_index_visits_interleaved_imagenet_like(self, imagenet):
        visits = [imagenet.lookup_index(i).visits for i in range(50_000)]
        assert _visits_digest(visits) == "07b80f211cc94cf527ab0c9363a866c28f6c1921"

    def test_name_visits_include_misses_on_earlier_shards(self, fixed, imagenet):
        def name_visits(directory, stride):
            ds = directory.dataset
            return [directory.lookup_name(ds.sample_name(i)).visits
                    for i in range(0, ds.num_samples, stride)]

        assert (_visits_digest(name_visits(fixed, 97))
                == "0bf402f2233aaf7228c1a8c557135fbae84227a5")
        assert (_visits_digest(name_visits(imagenet, 53))
                == "ffd4a618763c67c11666f0974528b18f9787d4c5")
