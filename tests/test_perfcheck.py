"""Pinned witnesses of the six ``perfcheck --quick`` gate workloads.

Each workload's witness is its final ``sim_time`` (as float hex), the
delivered sample-order digest, the delivered/failed counts and the
digest of its metrics-registry snapshot.  The values were recorded
while every NVMe device with a fault injector still ran one service
process per command and every injected local qpair one flight process
per request, so they also pin the closed-form device timing to that
reference on the fleets that carry a fault plan (the cluster crash
gate installs an injector on every device).
"""

from repro.analysis.perfcheck import _full_witness, default_workloads, run_perfcheck

#: name -> (sim_time hex, samples_sha1, delivered, failed, metrics_sha1)
PINNED = {
    "fig06_single_node": (
        "0x1.36476af89c5e7p-9", "158eb43d20bee59aa1a139166c76d8f9f32faed8",
        256, 0, "08517ed6e12651fa11ceeb79ea3c664327bae9b3"),
    "fig08_multi_node": (
        "0x1.b95db234537d3p-10", "ffe6acb11d9576bb744d62f4f91bbc3fb58bddce",
        256, 0, "8c4babfe734946104cc18625f79e137a538c1ae5"),
    "tenancy_multi_tenant": (
        "0x1.52e5e020585d2p-6", "2ded39acf2d5e637edbaf2984e24bdca6e20bfac",
        3408, 0, "b0b1b446a819e3cfa06ddcce6048a5c03e6cfa06"),
    "cluster_crash_rejoin": (
        "0x1.ef09081c2e334p-6", "c1499a9deb29b445e740c3953239ad6790a7f757",
        1000, 0, "0987533c9c13bca08e01d5f5f0fc2625349268b9"),
    "xform_pushdown": (
        "0x1.41b8e707bf40ep-6", "0b601af1f28ade97c4547c103a3b3364a2c59bca",
        392, 0, "528f6345715510efeeaefaa721ff37210c7b8e9c"),
    "xform_pay_for_use": (
        "0x1.8de1a06d9716cp-8", "bd21e54d5402c1ee005c6c639227c250214fd2f2",
        504, 0, "486ab4f61bc472182e87a2aa52ffd4f3ed085827"),
}


def test_quick_gate_witnesses_pinned():
    workloads = default_workloads(quick=True)
    assert sorted(workloads) == sorted(PINNED)
    got = {}
    for name, workload in workloads.items():
        w = _full_witness(workload())
        assert w.pop("self_divergences", ()) == ()
        assert w["samples_n"] == w["delivered"]
        got[name] = (w["sim_time"].hex(), w["samples_sha1"], w["delivered"],
                     w["failed"], w["metrics_sha1"])
    assert got == PINNED


def test_self_divergence_fails_the_run():
    """A gate's internal identity check (the xform pay-for-use gate)
    fails perfcheck; the witness is still reported."""
    report = run_perfcheck(workloads={
        "gate": lambda: {"sim_time": 1.0, "self_divergences": ("x != y",)},
    })
    assert not report.ok
    assert report.divergences == ["gate: x != y"]
    assert report.witnesses == {"gate": {"sim_time": 1.0}}
    assert "gate: DIVERGED" in report.render()
