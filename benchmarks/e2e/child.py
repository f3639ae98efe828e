"""One repetition of one workload, measured in a fresh process.

    python3 benchmarks/e2e/child.py WORKLOAD SEED SCALE MODE

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and one thread per numeric library; it prints one JSON object.
Host time is split at the end of the first ``DLFS.mount`` (the start of
the driver call when a workload mounts nothing): ``setup_s`` covers
``import repro``, input generation and the mount, ``run_s`` the rest of
the driver call.

MODE is ``plain`` (a measured repetition), ``profile`` (the driver call
runs under ``cProfile``; each function's self time and calls are charged
to the layer owning its module) or ``metrics`` (the driver fills its
sim-side metrics registry).  The profiled run keeps the registry off, so
``host.obs`` shows what observability costs when nobody asked for it.
"""

import cProfile
import json
import math
import pstats
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
HERE = Path(__file__).resolve().parent
MODES = ("plain", "profile", "metrics")

#: Module of ``src/repro`` (a file, or a package directory ending in
#: ``/``) -> the layer its host time is charged to.  Packages the
#: benchmark splits list every file, so a new module there has no layer
#: until someone names one (``test_e2e.py`` checks coverage).
LAYERS = {
    "sim/engine.py": "sim.engine",
    "sim/resources.py": "sim.resources",
    "sim/fluid.py": "sim.fluid",
    "sim/rng.py": "sim.other",
    "sim/stats.py": "sim.other",
    "sim/__init__.py": "sim.other",
    "hw/nvme.py": "hw.nvme",
    "hw/network.py": "hw.network",
    "hw/cpu.py": "hw.cpu",
    "hw/memory.py": "hw.memory",
    "hw/platform.py": "hw.other",
    "hw/__init__.py": "hw.other",
    "core/reader.py": "core.reader",
    "core/batching.py": "core.batching",
    "core/cache.py": "core.cache",
    "core/directory.py": "core.directory",
    "core/avltree.py": "core.directory",
    "core/entry.py": "core.directory",
    "core/api.py": "core.api",
    "core/sequence.py": "core.api",
    "core/__init__.py": "core.api",
    "spdk/": "spdk",
    "tenancy/": "tenancy",
    "cluster/": "cluster",
    "xform/": "xform",
    "faults/": "faults",
    "obs/": "obs",
    "data/": "data",
    "bench/": "bench",
    "analysis/": "other",
    "scenarios/": "other",
    "kernelfs/": "other",
    "octopus/": "other",
    "train/": "other",
    "__init__.py": "other",
    "__main__.py": "other",
    "cli.py": "other",
    "errors.py": "other",
}

#: Every layer, in report order.  ``bench`` also takes this benchmark's
#: own files; ``builtins`` takes C functions and library Python code.
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values())) + ("builtins",)


def layer_of(filename: str) -> str | None:
    """The layer owning ``filename`` (a cProfile code path), or None for a
    module of ``src/repro`` that no layer names."""
    if filename.startswith(("~", "<")):
        return "builtins"  # C functions, frozen modules, <string> code
    path = Path(filename).resolve()
    try:
        rel = path.relative_to(SRC).as_posix()
    except ValueError:
        return "bench" if path.parent == HERE else "builtins"
    if rel in LAYERS:
        return LAYERS[rel]
    return LAYERS.get(rel.split("/", 1)[0] + "/") if "/" in rel else None


def profile_layers(profiler: cProfile.Profile) -> dict:
    """``{layer: [self seconds, calls]}`` over every profiled function."""
    out = {name: [0.0, 0] for name in LAYER_NAMES}
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) in (
            pstats.Stats(profiler).stats.items()):
        layer = layer_of(filename)
        if layer is None:
            raise SystemExit(f"no layer owns {filename}; add it to LAYERS")
        out[layer][0] += self_s
        out[layer][1] += calls
    return out


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending list."""
    i = math.ceil(q * len(ordered)) - 1
    return ordered[max(0, min(i, len(ordered) - 1))]


def latency_summary(latencies: list) -> dict:
    """p50/p99/p999 (ms) and the tail: the highest of p99, p99.9, p99.99
    with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail = 0.99
    while n * (1.0 - tail) / 10 >= 10:
        tail = 1.0 - (1.0 - tail) / 10
    return {
        "latency_samples": n,
        "p50_ms": 1e3 * percentile(ordered, 0.50),
        "p99_ms": 1e3 * percentile(ordered, 0.99),
        "p999_ms": 1e3 * percentile(ordered, 0.999),
        "tail_pct": round(100.0 * tail, 4),
        "tail_ms": 1e3 * percentile(ordered, tail),
    }


def main(argv: list) -> dict:
    workload, seed, scale, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    if mode not in MODES:
        raise SystemExit(f"MODE must be one of {MODES}, not {mode!r}")
    t0 = time.perf_counter()
    import repro

    if Path(repro.__file__).resolve().parent != SRC:
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    adapter = workloads.WORKLOADS[workload]
    profiler = cProfile.Profile() if mode == "profile" else None
    with workloads.Probe() as probe:
        t_call = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        outcome = adapter(seed, scale, mode == "metrics", probe)
        if profiler is not None:
            profiler.disable()
        t_end = time.perf_counter()
    t_setup = probe.mounted_at if probe.mounted_at is not None else t_call

    attempted = outcome.delivered + outcome.failed
    sim = {
        "samples_per_s": outcome.throughput,
        **latency_summary(outcome.latencies),
        "slo_miss_frac": (outcome.slo_missed / outcome.slo_attempted
                          if outcome.slo_attempted else 0.0),
        "failed_frac": outcome.failed / attempted if attempted else 0.0,
        "witness": outcome.witness,
    }
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "mode": mode,
        "setup_s": t_setup - t0,
        "run_s": t_end - t_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "events": probe.events,
        "attempted": attempted,
        "failed": outcome.failed,
        "sim": sim,
        "violations": outcome.violations,
        "spans": [
            {"name": "setup", "start": 0.0, "end": t_setup - t0},
            {"name": "run", "start": t_setup - t0, "end": t_end - t0},
        ],
    }
    if mode == "metrics":
        result["counters"] = outcome.counters
    if profiler is not None:
        result["layers"] = profile_layers(profiler)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
