"""Disaggregated fetch/transform tier: stages, pushdown policy, tier.

Covers the tentpole surfaces — stage parsing and pipeline arithmetic,
the :class:`PushdownPolicy` boundary decision (static extremes,
placement pins, the cost crossover), FanStore-style packed formats —
and the end-to-end gates: pay-for-use bit-identity with the flat
cluster datapath, crash/redispatch delivery, and repeat determinism.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import dlfs_cluster, dlfs_xform, preset, run_fleet
from repro.cluster import Cluster
from repro.core import DLFS
from repro.core.reader import ReadJob
from repro.data import Dataset
from repro.errors import ConfigError, SampleReadError
from repro.hw import Testbed
from repro.sim import Environment
from repro.xform import (
    PushdownPolicy,
    XformSpec,
    XformTier,
    augment,
    decompress,
    parse_stages,
    pipeline_bytes,
    pipeline_cost,
    stages_with_packing,
    tfrecord_parse,
)

KB = 1024


# ---------------------------------------------------------------------------
# Stage parsing and pipeline arithmetic
# ---------------------------------------------------------------------------

class TestParseStages:
    def test_kinds_args_and_placements(self):
        stages = parse_stages("parse,decompress:2@storage,augment:0.25@worker")
        assert [s.name for s in stages] == \
            ["parse", "decompress:2", "augment:0.25"]
        assert [s.placement for s in stages] == ["auto", "storage", "worker"]
        assert stages[1].selectivity == 2.0
        assert stages[2].selectivity == 0.25

    def test_defaults(self):
        stages = parse_stages("decompress,augment")
        assert stages[0].selectivity == 2.0
        assert stages[1].selectivity == 0.5

    @pytest.mark.parametrize("bad", ["resize", "augment:x", "", "parse@gpu"])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ConfigError):
            parse_stages(bad)

    def test_pipeline_bytes_chains_selectivities(self):
        stages = (decompress(ratio=2.0), augment(selectivity=0.5))
        sizes = pipeline_bytes(stages, 64 * KB)
        assert sizes == [64 * KB, 128 * KB, 64 * KB]
        costs = pipeline_cost(stages, 64 * KB)
        assert len(costs) == 2
        # The augment stage sees the *inflated* record.
        assert costs[1] == stages[1].cost.cost(128 * KB)


class TestPushdownPolicy:
    def test_static_extremes(self):
        stages = (tfrecord_parse(), augment())
        assert PushdownPolicy(mode="worker").boundary(stages, 64 * KB) == 0
        assert PushdownPolicy(mode="storage").boundary(stages, 64 * KB) == 2

    def test_placement_pins_bound_the_range(self):
        pinned = (tfrecord_parse(placement="storage"),
                  augment(placement="worker"))
        assert PushdownPolicy(mode="worker").boundary(pinned, 64 * KB) == 1
        assert PushdownPolicy(mode="storage").boundary(pinned, 64 * KB) == 1

    def test_contradictory_pins_rejected(self):
        backwards = (tfrecord_parse(placement="worker"),
                     augment(placement="storage"))
        with pytest.raises(ConfigError):
            PushdownPolicy(mode="cost").boundary(backwards, 64 * KB)

    def test_cost_crossover_on_fabric_bandwidth(self):
        """Shrinking stage: pushdown on a slow wire, ship-raw on a fast one."""
        stages = (tfrecord_parse(),
                  augment(selectivity=0.25, per_byte=0.5e-9))
        slow = PushdownPolicy(mode="cost", fabric_bandwidth=1.5e9,
                              storage_core_budget=1, worker_core_budget=2)
        fast = PushdownPolicy(mode="cost", fabric_bandwidth=6e9,
                              storage_core_budget=1, worker_core_budget=2)
        assert slow.boundary(stages, 64 * KB) == 2
        assert fast.boundary(stages, 64 * KB) == 0

    def test_inflating_stage_stays_on_workers(self):
        stages = (tfrecord_parse(), decompress(ratio=2.0, per_byte=0.5e-9))
        policy = PushdownPolicy(mode="cost", fabric_bandwidth=6e9,
                                storage_core_budget=1, worker_core_budget=2)
        assert policy.boundary(stages, 64 * KB) == 0

    @pytest.mark.parametrize("bad", [
        dict(mode="gpu"),
        dict(fabric_bandwidth=0.0),
        dict(storage_core_budget=-1.0),
    ])
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(ConfigError):
            PushdownPolicy(**bad)


class TestPacking:
    def test_ratio_one_is_identity(self):
        stages = (tfrecord_parse(),)
        assert stages_with_packing(stages, 1.0) == stages

    def test_packed_ratio_prefixes_unpack(self):
        stages = stages_with_packing((tfrecord_parse(),), 2.0)
        assert len(stages) == 2
        assert stages[0].name.startswith("unpack")
        assert stages[0].selectivity == 2.0


class TestXformSpec:
    def test_no_stages_means_disabled(self):
        assert not XformSpec(stages=()).enabled
        assert XformSpec(stages=(tfrecord_parse(),)).enabled

    @pytest.mark.parametrize("bad", [
        dict(workers=0),
        dict(worker_cores=0),
        dict(queue_depth=0),
        dict(max_inflight_jobs=0),
        dict(storage_cores=0),
        dict(packed_ratio=0.5),
        dict(placement="gpu"),
    ])
    def test_validate_rejects_bad_knobs(self, bad):
        with pytest.raises(ConfigError):
            XformSpec(stages=(tfrecord_parse(),), **bad).validate()


# ---------------------------------------------------------------------------
# Job planning
# ---------------------------------------------------------------------------

def _tier(sizes, stages, packed_ratio=1.0, placement="cost", num_storage=3):
    """A transform tier over a mounted dataset of ``sizes``, one worker."""
    env = Environment()
    cluster = Cluster(env, Testbed.paper_emulated(),
                      num_nodes=1 + num_storage + 1, devices_per_node=0)
    storage = [cluster.node(1 + d) for d in range(num_storage)]
    for node in storage:
        node.add_device()
    fs = DLFS.mount(cluster, Dataset("plan", sizes),
                    placement=[(node.index, 0) for node in storage])
    spec = XformSpec(stages=stages, workers=1, packed_ratio=packed_ratio,
                     placement=placement)
    return XformTier(env, spec, fs, [cluster.node(1 + num_storage)])


def _reference_plan(tier, job):
    """The per-sample arithmetic plan_job must reproduce: each record
    priced anew with pipeline_bytes/pipeline_cost and summed into
    its storage node's group in job order."""
    failed = {int(e.key[1]) for e in job.errors
              if isinstance(e.key, tuple) and e.key[0] == "s"}
    ratio, k = tier.spec.packed_ratio, tier.boundary
    groups = {}
    for idx in job.samples:
        idx = int(idx)
        if idx in failed:
            continue
        acc = groups.setdefault(tier.fs.layout.shard_of(idx), [0.0, 0, 0.0, 0, 0])
        nbytes = int(tier.fs.dataset.sizes[idx])
        if ratio != 1.0:
            nbytes = int(round(nbytes / ratio))
        cut_sizes = pipeline_bytes(tier.stages, nbytes)
        costs = pipeline_cost(tier.stages, nbytes)
        acc[0] += sum(costs[:k])
        acc[1] += cut_sizes[k]
        acc[2] += sum(costs[k:])
        acc[3] += cut_sizes[-1]
        acc[4] += 1
    return [
        (tier.fs.cluster.node(tier.fs.placement[shard][0]), pd, int(ship), wc,
         int(out), n)
        for shard, (pd, ship, wc, out, n) in sorted(groups.items())
    ]


_STAGE = st.one_of(
    st.integers(1, 1 << 17).map(lambda p: tfrecord_parse(payload_bytes=p)),
    st.floats(1.0, 4.0).map(lambda r: decompress(ratio=r)),
    st.floats(0.0, 1.0).map(lambda s: augment(selectivity=s)),
)


class TestPlanJob:
    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([1, 17, 4096, 65536, 100_003])
                       | st.integers(1, 1 << 20), min_size=3, max_size=40),
        stages=st.lists(_STAGE, min_size=1, max_size=3),
        packed_ratio=st.sampled_from([1.0, 1.5, 2.0, 3.7]),
        placement=st.sampled_from(["worker", "storage", "cost"]),
        data=st.data(),
    )
    def test_matches_per_sample_arithmetic(self, sizes, stages, packed_ratio,
                                           placement, data):
        """Records priced from the per-size table sum to the very floats
        of per-sample pricing, for duplicate and failed samples, packed
        records and every legal boundary (pinning the stages before a
        drawn cut to storage and the rest to workers forces it)."""
        cut = data.draw(st.integers(0, len(stages)), label="cut")
        pinned = tuple(
            dataclasses.replace(s, placement="storage" if i < cut else "worker")
            for i, s in enumerate(stages)
        )
        tier = _tier(sizes, pinned, packed_ratio, placement)
        shift = len(tier.stages) - len(pinned)  # the unpack stage, if packed
        assert tier.boundary in ((cut + shift,) if cut else range(shift + 1))
        index = st.integers(0, len(sizes) - 1)
        for _ in range(3):  # later jobs read a warm table
            samples = data.draw(st.lists(index, max_size=30), label="samples")
            failed = data.draw(st.lists(index, max_size=4), label="failed")
            job = ReadJob(
                samples=np.array(samples, dtype=np.int64), done=None,
                errors=[SampleReadError("lost", key=("s", i)) for i in failed]
                + [SampleReadError("chunk", key=("c", 0))],
            )
            assert tier.plan_job(job) == _reference_plan(tier, job)

    def test_prices_each_record_size_once(self, monkeypatch):
        import repro.xform.tier as tier_module

        priced = []
        real = tier_module.pipeline_cost

        def counting(stages, nbytes):
            priced.append(nbytes)
            return real(stages, nbytes)

        tier = _tier([4096, 8192, 4096, 4096, 8192, 12288],
                     parse_stages("parse,augment:0.5"))
        monkeypatch.setattr(tier_module, "pipeline_cost", counting)
        for samples in ([0, 1, 2], [3, 4, 0, 0], [5, 1]):
            job = ReadJob(samples=np.array(samples, dtype=np.int64), done=None)
            assert tier.plan_job(job) == _reference_plan(tier, job)
        assert sorted(priced) == [4096, 8192, 12288]


# ---------------------------------------------------------------------------
# End-to-end gates
# ---------------------------------------------------------------------------

def _small_run(**kwargs):
    defaults = dict(
        num_storage=2, num_clients=2, num_samples=256, horizon=0.002,
        spec=XformSpec(stages=parse_stages("parse,augment:0.5"), workers=2),
    )
    defaults.update(kwargs)
    return dlfs_xform(**defaults)


class TestXformEndToEnd:
    def test_delivers_through_the_tier(self):
        r = _small_run()
        assert r.delivered > 0
        assert r.failed == 0
        assert r.tier["tasks"] > 0
        assert r.tier["stages"] == 2
        # Both tiers appear in the utilization panel.
        assert {row["tier"] for row in r.utilization} == {"storage", "xform"}
        # Every delivered sample went through a transform lane.
        assert sum(r.routed.values()) == r.jobs

    def test_repeat_determinism(self):
        a, b = _small_run(), _small_run()
        assert a.sim_time == b.sim_time
        assert np.array_equal(a.samples_read, b.samples_read)

    def test_pay_for_use_bit_identical_to_flat_cluster(self):
        common = dict(num_storage=2, num_clients=2, num_samples=256,
                      horizon=0.002)
        x = dlfs_xform(spec=None, **common)
        flat = dlfs_cluster(replicas=1, balancer=False, **common)
        assert x.sim_time == flat.sim_time
        assert np.array_equal(x.samples_read, flat.samples_read)
        assert x.tier == {} and x.links == () and x.routed == {}

    def test_storage_placement_ships_direct(self):
        r = _small_run(
            spec=XformSpec(stages=parse_stages("parse,augment:0.5"),
                           workers=2, placement="storage"),
        )
        assert r.failed == 0
        assert r.tier["direct_ships"] > 0
        assert r.tier["tasks"] == 0
        # The worker lanes never run a stage.
        xform_rows = [row for row in r.utilization if row["tier"] == "xform"]
        assert all(row["cpu"] == 0.0 for row in xform_rows)

    def test_crash_redispatch_still_delivers_everything(self):
        r = _small_run(xform_crashes=((0, 0.0005, 0.001),))
        assert r.failed == 0
        assert r.tier["crashes"] == 1
        assert r.tier["rejoins"] == 1

    def test_crashes_require_stages(self):
        with pytest.raises(ConfigError):
            dlfs_xform(spec=None, xform_crashes=((0, 0.0005, 0.001),))


#: (src, dst) -> (bytes, chunks, transfers, credit_wait hex, busy hex).
MULTI_GROUP_LINKS = {
    ("node2", "node6"): (1703936, 8, 4, "0x0.0p+0", "0x1.2021fa0fd8b1bp-11"),
    ("node2", "node7"): (3997696, 19, 8, "0x0.0p+0", "0x1.63e071a89d26cp-10"),
    ("node3", "node6"): (2490368, 12, 4, "0x0.0p+0", "0x1.987bda23aa1dcp-11"),
    ("node3", "node7"): (4390912, 21, 8, "0x0.0p+0", "0x1.950e6f11e9f18p-10"),
    ("node4", "node6"): (2621440, 14, 10, "0x0.0p+0", "0x1.0d329968aa9a0p-11"),
    ("node4", "node7"): (4521984, 24, 17, "0x0.0p+0", "0x1.dd5e8d5410fe0p-11"),
    ("node5", "node6"): (2621440, 14, 10, "0x0.0p+0", "0x1.9057e7d6ccb70p-11"),
    ("node5", "node7"): (4390912, 23, 17, "0x0.0p+0", "0x1.590b417ca2188p-10"),
    ("node6", "node0"): (4193280, 16, 13, "0x0.0p+0", "0x1.6bb690c7aa960p-11"),
    ("node7", "node0"): (1048320, 4, 2, "0x0.0p+0", "0x1.61d539b888700p-13"),
    ("node7", "node1"): (7600320, 29, 23, "0x0.0p+0", "0x1.4599e7d6ccbcap-10"),
}

#: (tier, node) -> (cores, cpu hex).
MULTI_GROUP_UTILIZATION = {
    ("storage", "node2"): (1, "0x0.0p+0"),
    ("storage", "node3"): (1, "0x0.0p+0"),
    ("storage", "node4"): (1, "0x0.0p+0"),
    ("storage", "node5"): (1, "0x0.0p+0"),
    ("xform", "node6"): (2, "0x1.8fd1c5caf2486p-2"),
    ("xform", "node7"): (2, "0x1.9c5053f949da8p-1"),
}


def test_multi_group_run_pinned():
    """A run whose every job spans two storage nodes, so each job ships
    two boundary groups (every other committed xform run ships one).

    It is the one check of the fan-out ship path, and it cannot be a
    sanitizer target: its ``sim_time`` moves under perturbed tiebreaks
    (DESIGN, "Determinism under the sanitizer").  The values were
    recorded before the transform tier's event-free claims went in.
    """
    r = run_fleet(preset(
        "xform", num_storage=4, num_clients=2, num_samples=512,
        horizon=0.004, xform_crashes=((0, 0.002, 0.005),),
    ))
    assert r.sim_time.hex() == "0x1.6c353f0bb0692p-6"
    assert hashlib.sha1(r.samples_read.tobytes()).hexdigest() == \
        "cb37b72b46d9262328b852aa1cda94371b4883b1"
    assert (r.delivered, r.failed, r.jobs) == (392, 0, 38)
    assert r.tier == {
        "tasks": 38, "direct_ships": 0, "redispatches": 1, "crashes": 1,
        "rejoins": 1, "boundary": 0, "stages": 2,
    }
    assert {
        (row["src"], row["dst"]): (
            row["bytes"], row["chunks"], row["transfers"],
            row["credit_wait"].hex(), row["busy"].hex(),
        )
        for row in r.links
    } == MULTI_GROUP_LINKS
    assert {
        (row["tier"], row["node"]): (row["cores"], row["cpu"].hex())
        for row in r.utilization
    } == MULTI_GROUP_UTILIZATION
    assert r.routed == {0: 14, 1: 25}
