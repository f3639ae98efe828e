"""Unit + property tests for chunk plans, epochs, and the DLFS ordering."""

import hashlib
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ChunkEpoch, ChunkPlan, DeliveryPlan
from repro.core.batching import _uint32_words, _uniform_picks
from repro.data import (
    BatchedFileLayout, Dataset, DatasetLayout, FixedSize, TFRecordFormat,
    imagenet_like, imdb_like,
)
from repro.errors import ConfigError
from repro.sim import rng as sim_rng


def make_plan(n=2000, shards=4, chunk=64 * 1024, dist=None, seed=0):
    dist = dist or imdb_like()
    ds = Dataset.synthetic("d", n, dist, seed=seed)
    layout = DatasetLayout(ds, num_shards=shards)
    return ds, layout, ChunkPlan(layout, chunk)


def make_batched_layout(n, per_file, seed):
    """``n`` 2 KiB samples packed into TFRecord files in a shuffled
    on-disk order, over up to two shards."""
    ds = Dataset.fixed("tfds", n, 2048)
    order = np.random.default_rng(seed).permutation(n)
    files = TFRecordFormat(samples_per_file=per_file).pack(ds, order=order)
    return BatchedFileLayout(ds, files, num_shards=min(2, len(files)))


def drain(d) -> tuple:
    """Every entry of a delivery plan: samples (int64) and requirement
    keys."""
    return d.take(len(d))


def split_members(plan, layout) -> list:
    """Per-chunk members grouped the way ChunkPlan once built them: one
    ``np.split`` array per chunk of the offset-sorted interior samples."""
    interior_idx = np.flatnonzero(plan.sample_chunk >= 0)
    order = np.lexsort(
        (layout.offsets[interior_idx], plan.sample_chunk[interior_idx])
    )
    sorted_idx = interior_idx[order]
    sorted_gid = plan.sample_chunk[sorted_idx]
    boundaries = np.flatnonzero(np.diff(sorted_gid)) + 1
    members = [np.empty(0, dtype=np.int64)] * plan.num_chunks
    starts = np.concatenate(([0], boundaries)) if len(sorted_idx) else []
    for g, group in zip(sorted_gid[starts] if len(sorted_idx) else [],
                        np.split(sorted_idx, boundaries)):
        members[int(g)] = group
    return members


def assert_members_match_split(plan, layout):
    oracle = split_members(plan, layout)
    for g in range(plan.num_chunks):
        assert plan.members(g).dtype == np.int64
        assert np.array_equal(plan.members(g), oracle[g]), g
    nonempty = [g for g in range(plan.num_chunks) if len(oracle[g])]
    assert plan.nonempty_chunks().dtype == np.int64
    assert plan.nonempty_chunks().tolist() == nonempty


class TestChunkPlanMembersOracle:
    """Members come from one offsets array into the sorted interior
    samples; the per-chunk ``np.split`` grouping is the oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(5, 1500),
        shards=st.integers(1, 5),
        chunk_kb=st.sampled_from([4, 16, 64, 256]),
        seed=st.integers(0, 2**16),
    )
    def test_packed_layout(self, n, shards, chunk_kb, seed):
        ds, layout, plan = make_plan(n=n, shards=shards,
                                     chunk=chunk_kb * 1024, seed=seed)
        assert_members_match_split(plan, layout)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 1200),
        per_file=st.integers(1, 300),
        chunk_kb=st.sampled_from([4, 16, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_batched_file_layout(self, n, per_file, chunk_kb, seed):
        layout = make_batched_layout(n, per_file, seed)
        assert_members_match_split(layout=layout,
                                   plan=ChunkPlan(layout, chunk_kb * 1024))


class TestChunkPlan:
    def test_chunk_count_covers_shards(self):
        ds, layout, plan = make_plan()
        for s in range(4):
            expect = -(-layout.shard_bytes(s) // plan.chunk_bytes)
            assert plan.chunks_per_shard[s] == expect

    def test_every_sample_classified(self):
        ds, layout, plan = make_plan()
        interior = set()
        for g in range(plan.num_chunks):
            interior.update(plan.members(g).tolist())
        edges = set(plan.edge_samples.tolist())
        assert interior | edges == set(range(ds.num_samples))
        assert interior & edges == set()

    def test_interior_samples_fit_their_chunk(self):
        ds, layout, plan = make_plan()
        for g in range(plan.num_chunks):
            shard, c_off, c_len = plan.chunk_span(g)
            for i in plan.members(g):
                loc = layout.location(int(i))
                assert loc.shard == shard
                assert c_off <= loc.offset
                assert loc.end <= c_off + c_len

    def test_edge_samples_cross_boundaries(self):
        ds, layout, plan = make_plan()
        base = layout.base_offset
        for i in plan.edge_samples:
            loc = layout.location(int(i))
            first = (loc.offset - base) // plan.chunk_bytes
            last = (loc.end - 1 - base) // plan.chunk_bytes
            assert first != last

    def test_chunk_span_clipped_at_shard_end(self):
        ds, layout, plan = make_plan()
        for s in range(4):
            last_gid = int(plan._gid_base[s] + plan.chunks_per_shard[s] - 1)
            _, offset, nbytes = plan.chunk_span(last_gid)
            start, end = layout.shard_extent(s)
            assert offset + nbytes == end

    def test_access_list_has_first_member_key(self):
        ds, layout, plan = make_plan()
        keys = np.arange(ds.num_samples, dtype=np.uint64) * 7
        entries = plan.access_list_entries(keys)
        for gid, key in entries:
            first = int(plan.members(gid)[0])
            assert key == int(keys[first])

    def test_large_samples_mostly_edges(self):
        """Samples bigger than a chunk can never be interior."""
        ds, layout, plan = make_plan(n=200, chunk=4096, dist=imagenet_like())
        big = np.flatnonzero(ds.sizes > plan.chunk_bytes)
        assert set(big.tolist()) <= set(plan.edge_samples.tolist())

    def test_bad_chunk_bytes(self):
        ds = Dataset.fixed("d", 10, 100)
        layout = DatasetLayout(ds, num_shards=1)
        with pytest.raises(ConfigError):
            ChunkPlan(layout, 1000)  # unaligned
        with pytest.raises(ConfigError):
            ChunkPlan(layout, 2048)  # too small

    @given(
        n=st.integers(50, 500),
        shards=st.integers(1, 6),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_classification_is_exact_cover(self, n, shards, seed):
        ds, layout, plan = make_plan(n=n, shards=shards, seed=seed)
        interior = sum(len(plan.members(g)) for g in range(plan.num_chunks))
        assert interior + plan.num_edge_samples == n


class TestChunkEpoch:
    def test_same_seed_same_lists(self):
        _, _, plan = make_plan()
        a, b = ChunkEpoch(plan, seed=9), ChunkEpoch(plan, seed=9)
        assert (a.chunk_list == b.chunk_list).all()
        assert (a.edge_list == b.edge_list).all()

    def test_lists_are_permutations(self):
        _, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=1)
        assert sorted(e.chunk_list.tolist()) == plan.nonempty_chunks().tolist()
        assert sorted(e.edge_list.tolist()) == sorted(plan.edge_samples.tolist())

    def test_rank_partition_covers_all(self):
        _, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=2, num_ranks=3)
        chunks = np.concatenate([e.rank_chunks(r) for r in range(3)])
        assert sorted(chunks.tolist()) == sorted(e.chunk_list.tolist())
        edges = np.concatenate([e.rank_edges(r) for r in range(3)])
        assert sorted(edges.tolist()) == sorted(e.edge_list.tolist())

    def test_rank_sample_count(self):
        ds, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=3, num_ranks=2)
        total = e.rank_sample_count(0) + e.rank_sample_count(1)
        assert total == ds.num_samples

    def test_rank_bounds(self):
        _, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=0, num_ranks=2)
        with pytest.raises(ConfigError):
            e.rank_chunks(2)


class TestDeliveryOrder:
    def test_covers_rank_exactly_once(self):
        ds, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=4, num_ranks=2)
        order, _ = drain(DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0), seed=11))
        expected = set()
        for g in e.rank_chunks(0):
            expected.update(plan.members(int(g)).tolist())
        expected.update(int(x) for x in e.rank_edges(0))
        assert sorted(order.tolist()) == sorted(expected)
        assert len(set(order.tolist())) == len(order)

    def test_requirements_match_samples(self):
        ds, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=4)
        order, keys = drain(DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0), seed=11))
        assert len(keys) == len(order)
        for s, (kind, ident) in zip(order.tolist(), keys):
            if kind == "c":
                assert plan.sample_chunk[s] == ident
            else:
                assert kind == "e"
                assert ident == s
                assert plan.sample_chunk[s] == -1

    def test_one_key_object_per_chunk(self):
        ds, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=4)
        _, keys = drain(DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0), seed=11))
        chunk_keys = {}
        for key in keys:
            if key[0] == "c":
                assert chunk_keys.setdefault(key, key) is key

    def test_window_limits_concurrent_chunks(self):
        """At any point, samples come only from <= window open chunks."""
        ds, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=5)
        window = 3
        _, keys = drain(DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0),
                                       seed=6, window=window))
        open_chunks: dict[int, int] = {}
        for kind, g in keys:
            if kind != "c":
                continue
            open_chunks[g] = open_chunks.get(g, 0) + 1
            live = [
                gid for gid, seen in open_chunks.items()
                if seen < len(plan.members(gid))
            ]
            assert len(live) <= window

    def test_order_is_shuffled_not_sequential(self):
        ds, _, plan = make_plan(n=5000)
        e = ChunkEpoch(plan, seed=6)
        order, _ = drain(DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0), seed=7))
        # Not the identity: plenty of inversions.
        inversions = (np.diff(order) < 0).mean()
        assert inversions > 0.2

    def test_deterministic_per_seed(self):
        ds, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=6)
        d1 = drain(DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0), seed=7))
        d2 = drain(DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0), seed=7))
        assert (d1[0] == d2[0]).all() and d1[1] == d2[1]

    def test_empty_inputs(self):
        ds, _, plan = make_plan()
        d = DeliveryPlan(plan, np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64), seed=0)
        assert len(d) == 0
        assert d.lookahead(8) == ()
        order, keys = d.take(32)
        assert order.dtype == np.int64 and len(order) == 0 and keys == []

    def test_window_validation(self):
        ds, _, plan = make_plan()
        with pytest.raises(ConfigError):
            DeliveryPlan(plan, np.array([0]), np.array([]), seed=0, window=0)

    def test_walks_only_what_is_read(self):
        """Nothing is picked before it is read; taken entries are dropped."""
        ds, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=4)
        d = DeliveryPlan(plan, e.rank_chunks(0), e.rank_edges(0), seed=11)
        total = len(d)
        assert total == e.rank_sample_count(0) and d._samples == []
        d.take(32)
        assert len(d) == total - 32 and d._samples == []
        d.lookahead(8)
        assert 0 < len(d._samples) <= 4 * 8


def reference_DeliveryPlan(plan, chunks, edges, seed, window=8):
    """The window discipline with one ``integers()`` call per pick: the
    oracle for :class:`DeliveryPlan`'s block-drawn picks.  Returns the
    samples (int64) and each one's requirement key."""
    rng = sim_rng("dlfs.delivery.window", seed)
    chunk_iter = iter(int(g) for g in chunks)
    order, keys = [], []
    cursors = []
    chunk_cursors = 0

    def refill():
        nonlocal chunk_cursors
        while chunk_cursors < window:
            try:
                gid = next(chunk_iter)
            except StopIteration:
                return
            members = plan.members(gid).tolist()
            if members:
                cursors.append(["c", gid, members, 0])
                chunk_cursors += 1

    if len(edges):
        cursors.append(["e", -1, list(map(int, edges)), 0])
    refill()

    while cursors:
        pick = int(rng.integers(len(cursors))) if len(cursors) > 1 else 0
        cursor = cursors[pick]
        kind, ident, members, pos = cursor
        sample = members[pos]
        order.append(sample)
        keys.append((kind, ident if kind == "c" else sample))
        cursor[3] += 1
        if cursor[3] >= len(members):
            cursors.pop(pick)
            if kind == "c":
                chunk_cursors -= 1
                refill()

    return np.asarray(order, dtype=np.int64), keys


def assert_same_entries(got, want):
    """Equal samples (int64) and keys, with plain ``int`` ids."""
    (order, keys), (want_order, want_keys) = got, want
    assert order.dtype == want_order.dtype == np.int64
    assert np.array_equal(order, want_order)
    assert keys == want_keys
    assert all(type(key[1]) is int for key in keys)


def entries_to_see(keys, depth) -> int:
    """Leading entries of ``keys`` that hold its first ``depth``
    distinct keys (all of them, if it has fewer)."""
    seen = set()
    for i, key in enumerate(keys):
        seen.add(key)
        if len(seen) == depth:
            return i + 1
    return len(keys)


def first_distinct(keys, depth) -> tuple:
    """The per-entry scan :meth:`DeliveryPlan.lookahead` replaces."""
    seen = []
    for key in keys:
        if len(seen) == depth:
            break
        if key not in seen:
            seen.append(key)
    return tuple(seen)


class TestDeliveryOracle:
    @given(
        n=st.integers(50, 600),
        shards=st.integers(1, 4),
        chunk=st.sampled_from([16 * 1024, 64 * 1024, 256 * 1024]),
        plan_seed=st.integers(0, 20),
        epoch_seed=st.integers(0, 2**31 - 1),
        order_seed=st.integers(0, 2**31 - 1),
        window=st.integers(1, 16),
        with_edges=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_drawn_picks_match_one_call_per_pick(
        self, n, shards, chunk, plan_seed, epoch_seed, order_seed, window, with_edges
    ):
        _, _, plan = make_plan(n=n, shards=shards, chunk=chunk, seed=plan_seed)
        e = ChunkEpoch(plan, seed=epoch_seed)
        edges = e.rank_edges(0) if with_edges else np.empty(0, dtype=np.int64)
        d = DeliveryPlan(plan, e.rank_chunks(0), edges, seed=order_seed, window=window)
        want = reference_DeliveryPlan(
            plan, e.rank_chunks(0), edges, seed=order_seed, window=window
        )
        assert len(d) == len(want[0])
        assert_same_entries(drain(d), want)
        assert len(d) == 0

    @given(
        layout_kind=st.sampled_from(["packed", "batched"]),
        n=st.integers(20, 800),
        chunk_kb=st.sampled_from([16, 64, 256]),
        layout_seed=st.integers(0, 2**16),
        epoch_seed=st.integers(0, 2**31 - 1),
        order_seed=st.integers(0, 2**31 - 1),
        window=st.integers(1, 8),
        steps=st.lists(
            st.tuples(st.sampled_from(["take", "lookahead"]), st.integers(1, 70)),
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_lazy_walk_in_random_increments(
        self, layout_kind, n, chunk_kb, layout_seed, epoch_seed, order_seed,
        window, steps,
    ):
        """Taking and looking ahead in any increments yields the drained
        order entry for entry, dropping what was taken."""
        if layout_kind == "packed":
            _, layout, _ = make_plan(n=n, shards=2, seed=layout_seed)
        else:
            layout = make_batched_layout(n, per_file=37, seed=layout_seed)
        plan = ChunkPlan(layout, chunk_kb * 1024)
        e = ChunkEpoch(plan, seed=epoch_seed)
        args = (plan, e.rank_chunks(0), e.rank_edges(0))
        want_order, want_keys = reference_DeliveryPlan(
            *args, seed=order_seed, window=window
        )
        d = DeliveryPlan(*args, seed=order_seed, window=window)
        assert len(d) == len(want_order)
        # ``reach``: entries any call so far had to see; the walk may
        # overshoot it by one look-ahead step of 4 x depth.
        pos = reach = step = 0
        for op, k in steps + [("take", len(want_order) + 1)]:
            if op == "lookahead":
                want = first_distinct(want_keys[pos:], k)
                assert d.lookahead(k) == want
                reach = max(reach, pos + entries_to_see(want_keys[pos:], k))
                step = max(step, 4 * k)
            else:
                end = min(pos + k, len(want_order))
                assert_same_entries(
                    d.take(k), (want_order[pos:end], want_keys[pos:end])
                )
                pos, reach = end, max(reach, end)
            assert len(d) == len(want_order) - pos
            assert reach <= pos + len(d._samples) <= reach + step
        assert pos == len(want_order) and d._samples == []


#: Ranges where Lemire's rejection discards about half of all words.
WIDE_RANGES = (2**31 + 1, 3 * 2**30 + 7)


class TestUniformPicks:
    @staticmethod
    def picks(seed, runs):
        """One ``_uniform_picks`` iterator per ``(n, count)`` run, all on
        one word stream, as ``DeliveryPlan`` uses them."""
        words = _uint32_words(sim_rng("test.batching.picks", seed))
        return [p for n, count in runs for p in islice(_uniform_picks(words, n), count)]

    @staticmethod
    def numpy_draws(seed, runs):
        rng = sim_rng("test.batching.picks", seed)
        return [int(rng.integers(n)) for n, count in runs for _ in range(count)]

    def test_equals_integers_over_interleaved_ranges(self):
        # 18k picks plus rejections span several word blocks; n == 1
        # must draw no word, or every later pick shifts.
        ranges = [2, 1, 9, 2**31 + 1, 17, 3 * 2**30 + 7, 1, 3, 2**32 - 1, 2**32] * 1800
        runs = [(n, 1) for n in ranges]
        assert self.picks(11, runs) == self.numpy_draws(11, runs)

    def test_equals_integers_where_half_the_words_are_rejected(self):
        runs = [(2**31 + 1, 3000), (9, 5), (3 * 2**30 + 7, 3000), (2, 1)]
        assert self.picks(5, runs) == self.numpy_draws(5, runs)

    @given(
        seed=st.integers(0, 2**63 - 1),
        runs=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(1, 17), st.sampled_from(WIDE_RANGES), st.integers(1, 2**32)
                ),
                st.integers(1, 40),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_integers_property(self, seed, runs):
        assert self.picks(seed, runs) == self.numpy_draws(seed, runs)


def delivery_digest(order, keys):
    """sha1 of the samples, the requirement kinds (0 chunk, 1 edge) and
    the requirement ids, each as little-endian int64."""
    h = hashlib.sha1()
    req_kind = [0 if kind == "c" else 1 for kind, _ in keys]
    req_id = [ident for _, ident in keys]
    for a in (order, req_kind, req_id):
        h.update(np.asarray(a).astype("<i8").tobytes())
    return h.hexdigest()


#: sha1 of ``order``, ``req_kind`` and ``req_id`` (each as little-endian
#: int64) of chunk-mode deliveries, recorded with the one-``integers()``-
#: call-per-pick loop.  "fixed" is a plan of 4 KiB samples with no edge
#: samples.  Columns: plan, epoch seed, ranks, rank, order seed, window,
#: entries, digest.
PINNED_DELIVERIES = [
    ("imdb", 4, 2, 0, 11, 8, 1046, "e7a58c72d1cd854290a1fde453d749e58101fc98"),
    ("imdb", 6, 1, 0, 7, 1, 2000, "3feb250411fc227765dedf19c35ef50c54540b02"),
    ("imdb", 9, 3, 1, 2019, 3, 712, "fbed4ebb6a1d0fb5c44c4b4dd0dbfd3569c31f96"),
    ("imdb", 1, 1, 0, 5, 16, 2000, "83dc104c0dc44e9e6d828d39f952ab324ab415cb"),
    ("fixed", 2, 1, 0, 13, 8, 600, "2e54a5ea1194e71baed11fc3e0e07b36c4dc8461"),
    ("fixed", 3, 2, 1, 42, 2, 300, "3d61f13c1a3cabb64aca09a5af630c02aac8ab86"),
]


class TestPinnedDeliveries:
    @pytest.mark.parametrize(
        "kind, epoch_seed, ranks, rank, seed, window, entries, digest", PINNED_DELIVERIES
    )
    def test_order_and_requirements_digest(
        self, kind, epoch_seed, ranks, rank, seed, window, entries, digest
    ):
        if kind == "fixed":
            _, _, plan = make_plan(n=600, dist=FixedSize(4096))
            assert plan.num_edge_samples == 0
        else:
            _, _, plan = make_plan()
        e = ChunkEpoch(plan, seed=epoch_seed, num_ranks=ranks)
        d = DeliveryPlan(
            plan, e.rank_chunks(rank), e.rank_edges(rank), seed=seed, window=window
        )
        assert len(d) == entries
        assert delivery_digest(*drain(d)) == digest
