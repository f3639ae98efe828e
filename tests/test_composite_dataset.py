"""Tests for multi-dataset mounts (CompositeDataset)."""

import pytest

from repro.cluster import Cluster
from repro.core import DLFS, DLFSConfig
from repro.data import CompositeDataset, Dataset, imagenet_like, imdb_like
from repro.errors import ConfigError, FileNotFound
from repro.hw import Testbed
from repro.sim import Environment


@pytest.fixture
def sources():
    img = Dataset.synthetic("imagenet", 300, imagenet_like(), seed=1)
    txt = Dataset.synthetic("imdb", 500, imdb_like(), seed=2)
    return img, txt


class TestCompositeDataset:
    def test_concatenation(self, sources):
        img, txt = sources
        both = CompositeDataset([img, txt])
        assert both.num_samples == 800
        assert both.total_bytes == img.total_bytes + txt.total_bytes
        assert (both.sizes[:300] == img.sizes).all()
        assert (both.sizes[300:] == txt.sizes).all()

    def test_labels_preserved_from_sources(self, sources):
        img, txt = sources
        both = CompositeDataset([img, txt])
        assert (both.labels[:300] == img.labels).all()
        assert (both.labels[300:] == txt.labels).all()

    def test_source_routing(self, sources):
        both = CompositeDataset(list(sources))
        assert both.source_of(0) == (0, 0)
        assert both.source_of(299) == (0, 299)
        assert both.source_of(300) == (1, 0)
        assert both.source_of(799) == (1, 499)
        with pytest.raises(ConfigError):
            both.source_of(800)

    def test_names_keep_source_namespaces(self, sources):
        both = CompositeDataset(list(sources))
        assert both.sample_name(10) == "imagenet/00000010"
        assert both.sample_name(305) == "imdb/00000005"

    def test_hashes_match_per_name(self, sources):
        from repro.core.entry import hash_sample_name

        both = CompositeDataset(list(sources))
        keys, checks = both.hash_all_names()
        for i in (0, 150, 300, 799):
            k, c = hash_sample_name(both.sample_name(i))
            assert (int(keys[i]), int(checks[i])) == (k, c)

    def test_duplicate_source_names_rejected(self, sources):
        img, _ = sources
        with pytest.raises(ConfigError):
            CompositeDataset([img, img])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            CompositeDataset([])


class TestCompositeMount:
    def test_open_by_name_across_datasets(self, sources):
        img, txt = sources
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=2)
        fs = DLFS.mount(cluster, CompositeDataset([img, txt]))
        client = fs.client(rank=0, num_ranks=1)

        def app(env):
            f1 = yield from client.open("imagenet/00000010")
            f2 = yield from client.open("imdb/00000005")
            n1 = yield from client.read(f1)
            n2 = yield from client.read(f2)
            return n1, n2

        n1, n2 = env.run(until=env.process(app(env)))
        assert n1 == int(img.sizes[10])
        assert n2 == int(txt.sizes[5])

    def test_missing_name_still_raises(self, sources):
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=1)
        fs = DLFS.mount(cluster, CompositeDataset(list(sources)))
        client = fs.client()

        def app(env):
            try:
                yield from client.open("cifar/00000000")
            except FileNotFound:
                return "missing"

        assert env.run(until=env.process(app(env))) == "missing"

    def test_epoch_spans_both_datasets(self, sources):
        img, txt = sources
        env = Environment()
        cluster = Cluster(env, Testbed.paper_emulated(), num_nodes=2)
        fs = DLFS.mount(cluster, CompositeDataset([img, txt]),
                        DLFSConfig(batching="chunk"))
        client = fs.client(rank=0, num_ranks=1)
        client.sequence(seed=3)

        def app(env):
            seen = []
            while client.epoch_remaining:
                batch = yield from client.bread(64)
                seen.extend(batch.tolist())
            return seen

        seen = env.run(until=env.process(app(env)))
        assert sorted(seen) == list(range(800))
        assert any(s < 300 for s in seen) and any(s >= 300 for s in seen)
