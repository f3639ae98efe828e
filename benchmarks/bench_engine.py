"""Kernel/datapath performance harness — writes ``BENCH_engine.json``.

Measures the simulator's wall-clock cost at three levels:

* **kernel microbenchmarks** — events/s of the one scheduler:
  timeout storm (many processes, many timeouts, a deep heap), event
  churn (condition-tree allocation), and resource contention
  (Condition/Request machinery on a small FIFO resource);
* **qpair burst** — the SPDK datapath in isolation: a queue-depth
  window of block reads through one qpair into one NVMe device;
* **fig06 end-to-end** — the paper's single-node throughput workload
  (closed-loop readers, :func:`~repro.bench.workloads.dlfs_readers`),
  also compared against the recorded wall-clock of the seed tree.

The last two run twice: on the injector-free paths (analytic NVMe
timing, qpair callback flight — "optimized") and on the reference paths
a zero-rate fault injector selects ("reference"), interleaved, and must
end at the same ``sim_time``.  Full digest equivalence is
``python -m repro perfcheck``'s job.  Wall-clock numbers are
informational: machines differ, CI runners throttle; sim results must
not.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfcheck import zero_rate_injectors  # noqa: E402
from repro.bench.workloads import Readers, dlfs_readers  # noqa: E402
from repro.hw import NVMeDevice  # noqa: E402
from repro.hw.memory import HugePagePool  # noqa: E402
from repro.sim import Environment, Resource  # noqa: E402
from repro.spdk.request import SPDKRequest  # noqa: E402

#: Seed-tree wall-clock (seconds) for the fig06 cases below: the tree at
#: commit 1352006 (pre-PR), re-measured best-of-4 on the machine that
#: produced the committed BENCH_engine.json.  The in-process "reference"
#: timings understate the win — the reference paths still benefit from
#: the shared kernel and model-layer work (single-event compute charges,
#: cursor bookkeeping) — so these pin the honest before/after.
RECORDED_SEED_FIG06_S = {"4KiB": 0.0429, "128KiB": 0.0932}

KiB = 1024


# ---------------------------------------------------------------------------
# Microbenchmark workloads.  Each returns (sim_time, posted_events).
# ---------------------------------------------------------------------------

def timeout_storm(procs: int, ticks: int) -> tuple[float, int]:
    """Pure scheduling: ``procs`` generators x ``ticks`` timeouts each."""
    env = Environment()

    def worker(env: Environment, i: int):
        for k in range(ticks):
            # Deterministic pseudo-spread of delays, no RNG object needed.
            yield env.timeout(((i * 2654435761 + k * 40503) % 997) * 1e-6)

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return env.now, env._eid


def event_churn(procs: int, rounds: int) -> tuple[float, int]:
    """Condition-tree allocation churn: AllOf/AnyOf over fresh timeouts.

    Every round allocates a small condition tree (three Timeouts plus an
    AllOf or AnyOf), fires it, and drops it — the allocation pattern the
    ``__slots__`` layout on Event/Condition/AllOf/AnyOf exists to make
    cheap.  The instance-size deltas themselves are recorded separately
    (see ``slots_layout`` in the JSON); this measures the wall-clock
    side of the same change.
    """
    env = Environment()

    def worker(env: Environment, i: int):
        for k in range(rounds):
            t1 = env.timeout((1 + (i + k) % 7) * 1e-6)
            t2 = env.timeout((1 + (i * 3 + k) % 11) * 1e-6)
            t3 = env.timeout((1 + (i + 5 * k) % 13) * 1e-6)
            if k % 2 == 0:
                yield env.all_of([t1, t2, t3])
            else:
                yield env.any_of([t1, t2, t3])

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return env.now, env._eid


def slots_layout() -> dict:
    """Per-instance memory of the slotted event classes vs a dict layout.

    ``Event``/``Condition``/``AllOf``/``AnyOf`` all declare
    ``__slots__``; this records the resulting per-instance size next to
    a shape-identical ``__dict__``-based control so the saving the
    heap-churn benchmark rides on is pinned in the artifact, not just
    claimed in a commit message.
    """
    import sys as _sys

    from repro.sim.engine import AllOf, AnyOf, Condition, Event

    class DictEvent:  # the pre-__slots__ layout: same attrs, dict-backed
        def __init__(self, env) -> None:
            self.env = env
            self.callbacks = []
            self._value = None
            self._ok = None
            self._defused = False

    env = Environment()
    slotted = Event(env)
    control = DictEvent(env)
    slotted_size = _sys.getsizeof(slotted)
    control_size = _sys.getsizeof(control) + _sys.getsizeof(control.__dict__)
    instances = {
        "Event": Event(env),
        "Condition": Condition(env, []),
        "AllOf": AllOf(env, []),
        "AnyOf": AnyOf(env, []),
    }
    return {
        "event_slotted_bytes": slotted_size,
        "event_dict_control_bytes": control_size,
        "bytes_saved_per_event": control_size - slotted_size,
        "classes_slotted": sorted(
            name for name, obj in instances.items()
            if not hasattr(obj, "__dict__")
        ),
    }


def resource_contention(procs: int, rounds: int, capacity: int) -> tuple[float, int]:
    """Request/grant churn on one small FIFO resource."""
    env = Environment()
    res = Resource(env, capacity=capacity, name="bench")

    def worker(env: Environment, i: int):
        for k in range(rounds):
            yield from res.hold(((i + 3 * k) % 13) * 1e-6)

    for i in range(procs):
        env.process(worker(env, i))
    env.run()
    return env.now, env._eid


def qpair_burst(requests: int, depth: int) -> tuple[float, int]:
    """A queue-depth window of 128 KiB reads through one qpair.

    Builds the datapath directly (device + qpair + hugepage chunks)
    rather than through a Cluster so the measurement isolates the SPDK
    layer from mount/setup costs.
    """
    from repro.spdk.qpair import IOQPair

    env = Environment()
    device = NVMeDevice(env)
    pool = HugePagePool(env, total_bytes=depth * 256 * KiB, chunk_size=256 * KiB)
    qpair = IOQPair(env, "bench-host", device, queue_depth=depth)
    nbytes = 128 * KiB
    done = {"n": 0}

    def driver(env: Environment):
        posted = 0
        while done["n"] < requests:
            while posted < requests and qpair.free_slots > 0:
                chunk = pool.try_alloc()
                req = SPDKRequest(
                    offset=(posted * nbytes) % (64 * 1024 * KiB),
                    nbytes=nbytes,
                    chunks=[chunk],
                )
                qpair.post(req)
                posted += 1
            req = yield qpair.completion_sink.get()
            done["n"] += 1
            pool.free(req.chunks[0])

    env.process(driver(env))
    env.run()
    assert done["n"] == requests
    return env.now, env._eid


def fig06_case(sample_bytes: int, batches: int) -> tuple[float, int]:
    load = Readers(warmup=4 * 32, reads=batches * 32)
    r = dlfs_readers(
        load, num_samples=max(2 * load.demand(), 2000),
        sample_bytes=sample_bytes,
    )
    return r.sim_time, -1  # the run does not expose its Environment


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------

#: Reference paths (zero-rate injectors), then the optimized paths.
PAIRED = (zero_rate_injectors, contextlib.nullcontext)


def _best_of(fn, reps: int, modes=(contextlib.nullcontext,)) -> list:
    """Best-of-``reps`` wall time and result for fn under each mode.

    Modes are interleaved (ABAB...) so slow drift in machine speed (VM
    scheduling, frequency scaling) hits every side equally instead of
    skewing the ratio; best-of filters the one-off stalls.
    -> [(seconds, result)] per mode.
    """
    for mode in modes:  # warm-up (imports, allocator)
        with mode():
            fn()
    best = [(float("inf"), None)] * len(modes)
    for _ in range(reps):
        for i, mode in enumerate(modes):
            with mode():
                t0 = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - t0
            best[i] = (min(best[i][0], elapsed), result)
    return best


def run(quick: bool) -> dict:
    reps = 2 if quick else 5
    scale = 4 if quick else 1
    micros = {
        "timeout_storm": lambda: timeout_storm(200 // scale, 200),
        "event_churn": lambda: event_churn(200 // scale, 150),
        "resource_contention": lambda: resource_contention(
            300 // scale, 100, capacity=4
        ),
    }
    out: dict = {"quick": quick, "benchmarks": {}, "fig06": {"cases": {}}}
    out["slots_layout"] = slots_layout()
    layout = out["slots_layout"]
    print(
        f"slots layout           Event {layout['event_slotted_bytes']} B "
        f"vs dict control {layout['event_dict_control_bytes']} B "
        f"({layout['bytes_saved_per_event']} B saved/event; slotted: "
        f"{', '.join(layout['classes_slotted'])})"
    )
    mismatches = []

    for name, fn in micros.items():
        [(opt_s, (_, events))] = _best_of(fn, reps)
        out["benchmarks"][name] = {
            "optimized_s": round(opt_s, 6),
            "optimized_events": events,
            "optimized_events_per_sec": round(events / opt_s),
        }
        print(f"{name:<22} {opt_s * 1e3:8.2f} ms   {events / opt_s:10,.0f} events/s")

    (ref_s, (ref_sim, ref_events)), (opt_s, (opt_sim, opt_events)) = _best_of(
        lambda: qpair_burst(4000 // scale, depth=64), reps, PAIRED
    )
    out["benchmarks"]["qpair_burst"] = {
        "reference_s": round(ref_s, 6),
        "optimized_s": round(opt_s, 6),
        "speedup": round(ref_s / opt_s, 3),
        "reference_events": ref_events,
        "optimized_events": opt_events,
        "reference_events_per_sec": round(ref_events / ref_s),
        "optimized_events_per_sec": round(opt_events / opt_s),
        "sim_time_match": ref_sim == opt_sim,
    }
    if ref_sim != opt_sim:
        mismatches.append(f"qpair_burst: sim_time {ref_sim!r} != {opt_sim!r}")
    print(
        f"{'qpair_burst':<22} ref {ref_s * 1e3:8.2f} ms   opt {opt_s * 1e3:8.2f} ms"
        f"   speedup {ref_s / opt_s:5.2f}x   "
        f"(events {ref_events} -> {opt_events})"
    )

    fig_cases = {
        "4KiB": (4 * KiB, 40 // scale),
        "128KiB": (128 * KiB, 40 // scale),
    }
    speedups = []
    for label, (size, batches) in fig_cases.items():
        fn = lambda size=size, batches=batches: fig06_case(size, batches)
        (ref_s, (ref_sim, _)), (opt_s, (opt_sim, _)) = _best_of(fn, reps, PAIRED)
        speedup = ref_s / opt_s
        speedups.append(speedup)
        case = {
            "sample_bytes": size,
            "batches": batches,
            "reference_s": round(ref_s, 6),
            "optimized_s": round(opt_s, 6),
            "speedup": round(speedup, 3),
            "sim_time_match": ref_sim == opt_sim,
        }
        if ref_sim != opt_sim:
            mismatches.append(f"fig06 {label}: sim_time {ref_sim!r} != {opt_sim!r}")
        if not quick and label in RECORDED_SEED_FIG06_S:
            case["recorded_seed_s"] = RECORDED_SEED_FIG06_S[label]
            case["speedup_vs_recorded_seed"] = round(
                RECORDED_SEED_FIG06_S[label] / opt_s, 3
            )
        out["fig06"]["cases"][label] = case
        print(
            f"fig06 {label:<16} ref {ref_s * 1e3:8.2f} ms   "
            f"opt {opt_s * 1e3:8.2f} ms   speedup {speedup:5.2f}x"
        )
    out["fig06"]["min_speedup"] = round(min(speedups), 3)
    out["digest_check"] = {"ok": not mismatches, "divergences": mismatches}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads and fewer reps (CI smoke)")
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    out = run(quick=args.quick)
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not out["digest_check"]["ok"]:
        for line in out["digest_check"]["divergences"]:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
