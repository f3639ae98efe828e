"""Unit tests for the DLFS sample cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SampleCache
from repro.core.cache import FILLING
from repro.errors import AllocationError, DirectoryError
from repro.hw import HugePagePool, KB
from repro.sim import Environment

CHUNK = 256 * KB


@pytest.fixture
def pool():
    return HugePagePool(Environment(), total_bytes=4 * CHUNK, chunk_size=CHUNK)


@pytest.fixture
def cache(pool):
    return SampleCache(pool)


class TestInsert:
    def test_insert_allocates_chunks(self, cache, pool):
        slot = cache.try_insert("a", CHUNK + 1)
        assert slot is not None
        assert slot.state == FILLING
        assert len(slot.chunks) == 2
        assert pool.free_chunks == 2

    def test_duplicate_key_rejected(self, cache):
        cache.try_insert("a", 100)
        with pytest.raises(DirectoryError):
            cache.try_insert("a", 100)

    def test_insert_returns_none_when_full_and_dirty(self, cache):
        for i in range(4):
            cache.try_insert(f"k{i}", CHUNK)  # all FILLING (not evictable)
        assert cache.try_insert("extra", CHUNK) is None

    def test_insert_evicts_clean_slots(self, cache, pool):
        for i in range(4):
            cache.try_insert(f"k{i}", CHUNK)
            cache.mark_resident(f"k{i}")  # refs 0 -> clean
        evicted = []
        cache.on_evict = evicted.append
        slot = cache.try_insert("new", 2 * CHUNK)
        assert slot is not None
        assert evicted == ["k0", "k1"]  # oldest first
        assert cache.evictions == 2

    def test_oversized_span_rejected(self, cache):
        with pytest.raises(AllocationError):
            cache.try_insert("big", 5 * CHUNK)
        with pytest.raises(AllocationError):
            cache.try_insert("empty", 0)

    def test_chunks_needed(self, cache):
        assert cache.chunks_needed(1) == 1
        assert cache.chunks_needed(CHUNK) == 1
        assert cache.chunks_needed(CHUNK + 1) == 2


class TestLifecycle:
    def test_filling_slot_is_not_a_hit(self, cache):
        cache.try_insert("a", 100)
        assert cache.lookup("a") is None
        assert cache.misses == 1

    def test_resident_slot_hits(self, cache):
        cache.try_insert("a", 100)
        cache.mark_resident("a")
        assert cache.lookup("a") is not None
        assert cache.hits == 1

    def test_mark_resident_twice_rejected(self, cache):
        cache.try_insert("a", 100)
        cache.mark_resident("a")
        with pytest.raises(DirectoryError):
            cache.mark_resident("a")

    def test_acquire_release_refcount(self, cache):
        cache.try_insert("a", 100)
        cache.mark_resident("a")
        assert cache.clean_slots == 1
        cache.acquire("a")
        cache.acquire("a")
        assert cache.clean_slots == 0
        cache.release("a")
        assert cache.clean_slots == 0
        cache.release("a")
        assert cache.clean_slots == 1

    def test_release_unreferenced_rejected(self, cache):
        cache.try_insert("a", 100)
        cache.mark_resident("a")
        with pytest.raises(DirectoryError):
            cache.release("a")

    def test_referenced_slot_never_evicted(self, cache):
        cache.try_insert("a", CHUNK)
        cache.mark_resident("a")
        cache.acquire("a")
        for i in range(3):
            cache.try_insert(f"k{i}", CHUNK)
        # Pool exhausted, only "a" is resident but referenced.
        assert cache.try_insert("new", CHUNK) is None
        assert "a" in cache

    def test_discard(self, cache, pool):
        cache.try_insert("a", CHUNK)
        cache.discard("a")
        assert "a" not in cache
        assert pool.free_chunks == 4

    def test_discard_referenced_rejected(self, cache):
        cache.try_insert("a", 100)
        cache.mark_resident("a")
        cache.acquire("a")
        with pytest.raises(DirectoryError):
            cache.discard("a")

    def test_missing_key_operations_raise(self, cache):
        with pytest.raises(DirectoryError):
            cache.acquire("ghost")
        with pytest.raises(DirectoryError):
            cache.mark_resident("ghost")

    def test_eviction_callback_receives_key(self, pool):
        seen = []
        cache = SampleCache(pool, on_evict=seen.append)
        for i in range(5):  # 5th insert forces one eviction
            cache.try_insert(i, CHUNK)
            cache.mark_resident(i)
        assert seen == [0]

    def test_len_and_contains(self, cache):
        assert len(cache) == 0
        cache.try_insert("a", 100)
        assert len(cache) == 1 and "a" in cache


class TestBatchedRefs:
    """``acquire_many``/``release_many`` against a twin cache making the
    same calls one key at a time."""

    def test_slot_turns_clean_at_its_last_release(self, cache):
        for key in "abc":
            cache.try_insert(key, 100)
            cache.mark_resident(key)
        cache.acquire_many(["a", "b", "a", "c"])
        assert cache.clean_keys() == ()
        cache.release_many(["a", "b", "a", "c"])
        assert cache.clean_keys() == ("b", "a", "c")

    def test_over_release_and_missing_keys_rejected(self, cache):
        cache.try_insert("a", 100)
        cache.mark_resident("a")
        cache.acquire_many(["a"])
        with pytest.raises(DirectoryError):
            cache.release_many(["a", "a"])
        with pytest.raises(DirectoryError):
            cache.acquire_many(["ghost"])
        with pytest.raises(DirectoryError):
            cache.release_many(["ghost"])

    @staticmethod
    def _twin(num_keys):
        pool = HugePagePool(Environment(), total_bytes=num_keys * CHUNK,
                            chunk_size=CHUNK)
        evicted = []
        cache = SampleCache(pool, on_evict=evicted.append)
        for key in range(num_keys):
            cache.try_insert(key, CHUNK)
        return cache, evicted

    @given(data=st.data(), num_keys=st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_matches_one_at_a_time(self, data, num_keys):
        batched, batched_evicted = self._twin(num_keys)
        single, single_evicted = self._twin(num_keys)
        held: list = []  # references acquired and not yet released
        filling = list(range(num_keys))
        keys_st = st.lists(st.integers(0, num_keys - 1), max_size=12)
        for _ in range(data.draw(st.integers(1, 30))):
            op = data.draw(st.sampled_from(["acquire", "release", "fill"]))
            if op == "acquire":
                keys = data.draw(keys_st)
                batched.acquire_many(keys)
                for key in keys:
                    single.acquire(key)
                held.extend(keys)
            elif op == "release" and held:
                order = data.draw(st.permutations(held))
                keys = order[:data.draw(st.integers(0, len(order)))]
                batched.release_many(keys)
                for key in keys:
                    single.release(key)
                    held.remove(key)
            elif op == "fill" and filling:
                key = filling.pop(data.draw(st.integers(0, len(filling) - 1)))
                batched.mark_resident(key)
                single.mark_resident(key)
            assert ([batched.slot(k).refs for k in range(num_keys)]
                    == [single.slot(k).refs for k in range(num_keys)])
            assert batched.clean_keys() == single.clean_keys()
        # A span as big as the pool evicts every clean slot, oldest first.
        clean = single.clean_keys()
        for cache in (batched, single):
            cache.try_insert("big", num_keys * CHUNK)
        assert batched_evicted == single_evicted == list(clean)
