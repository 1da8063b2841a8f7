"""``repro profile``: cProfile harness with per-subsystem attribution.

Profiling drove the allocation-free rewrite of the memory-hierarchy hot
path (flat-column caches, packed-bitmap directory, flat-array DRAM banks,
the generator-based core scheduler), and this module keeps that workflow
reproducible: one command runs a workload under :mod:`cProfile`, buckets
the self-time of every function into the simulator subsystem that owns it,
and prints a table answering "where does a simulated cycle's wall time
go?".

The subsystem map is intentionally coarse — it mirrors the units a perf PR
touches (cache, directory, DRAM, NoC/queueing, prefetchers, core/
scheduler) rather than individual functions; ``--top`` lists the hottest
individual functions for drill-down.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from typing import Dict, List, Tuple

from repro.workloads import make_workload
from repro.workloads.synthetic import IndirectStreamWorkload

#: Profiled workloads: the two headline paper kernels plus the synthetic
#: indirect-stream kernel (pure A[B[i]] pattern, no matrix build cost).
WORKLOADS = ("spmv", "pagerank", "indirect_stream")


def _make_workload(name: str, seed: int, quick: bool):
    if name == "indirect_stream":
        return IndirectStreamWorkload(n_indices=4096 if quick else 16384,
                                      seed=seed)
    if name == "spmv":
        return (make_workload(name, seed=seed, nx=8, ny=8, nz=8) if quick
                else make_workload(name, seed=seed))
    if name == "pagerank":
        return (make_workload(name, seed=seed, n_vertices=1024) if quick
                else make_workload(name, seed=seed))
    return make_workload(name, seed=seed)

#: Ordered (path fragment, subsystem) rules; first match wins.  Paths use
#: forward slashes after normalisation.
SUBSYSTEM_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro/memory/cache", "cache"),
    ("repro/memory/hierarchy", "hierarchy"),
    ("repro/memory/coherence", "directory"),
    ("repro/memory/dram", "dram"),
    # The NoC splits into the link-reservation kernel (the hot loop)
    # versus geometry / route caching / traffic accounting, so a profile
    # shows whether NoC time is placement work or bookkeeping.
    # ResourceSchedule gets its own bucket: it is the shared reservation
    # primitive — DRAM banks/channels/buses always, the NoC only under
    # the reference backend — so folding it into noc.kernel would
    # misattribute DRAM time whenever the default compiled backend (which
    # never enters queueing.py) is active.
    ("repro/noc/kernel", "noc.kernel"),
    ("repro/sim/queueing", "queueing"),
    ("repro/noc/", "noc.geometry"),
    ("repro/prefetchers/", "prefetcher"),
    ("repro/core/", "prefetcher"),
    ("repro/mem_image", "mem-image"),
    ("repro/sim/core_model", "core"),
    ("repro/sim/system", "scheduler"),
    ("repro/sim/trace", "trace"),
    ("repro/workloads/", "workload-build"),
)

OTHER = "other"


def subsystem_of(filename: str, funcname: str = "") -> str:
    """Map a profiled frame to its simulator subsystem bucket.

    Python frames carry a source path and match the path-fragment rules.
    Built-in/extension frames have no source file — cProfile records them
    under the pseudo-filename ``'~'`` with the function's qualified name —
    so extension hot paths are matched on ``funcname`` instead: the
    compiled NoC kernel's reservation loop (``repro._nockernel``) belongs
    to ``noc.kernel`` exactly like its pure-Python siblings, not to a
    generic builtins bucket (and emphatically not to whichever caller the
    time would otherwise be misread against).
    """
    if "_nockernel" in funcname:
        return "noc.kernel"
    path = filename.replace("\\", "/")
    for fragment, name in SUBSYSTEM_RULES:
        if fragment in path:
            return name
    return OTHER


def profile_run(workload_name: str, prefetcher: str = "imp",
                cores: int = 16, seed: int = 1,
                quick: bool = False) -> Dict:
    """Profile one simulation run; return the attribution document.

    The workload's trace is built (and memoised) *before* profiling starts,
    so the report covers the steady-state simulation loop — the part perf
    PRs optimise — not trace generation.  The build is timed instead and
    reported as ``build_seconds``, so the cost the profile leaves out stays
    visible, next to the size of the trace store it leaves in memory
    (``trace_bytes`` over ``trace_rows``).
    """
    from repro.experiments.configs import scaled_config
    from repro.sim.system import run_workload

    workload = _make_workload(workload_name, seed, quick)
    config = scaled_config(cores)
    build_start = time.perf_counter()
    build = workload.cached_build(cores)  # excluded from the profile
    build_seconds = time.perf_counter() - build_start

    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    result = run_workload(workload, config, prefetcher=prefetcher)
    profiler.disable()
    wall = time.perf_counter() - wall_start

    stats = pstats.Stats(profiler)
    subsystems: Dict[str, Dict[str, float]] = {}
    functions: List[Tuple[float, int, str]] = []
    total_self = 0.0
    for (filename, lineno, name), (cc, nc, tt, ct, callers) in \
            stats.stats.items():
        bucket = subsystems.setdefault(
            subsystem_of(filename, name), {"self_seconds": 0.0, "calls": 0})
        bucket["self_seconds"] += tt
        bucket["calls"] += nc
        total_self += tt
        functions.append(
            (tt, nc, f"{filename.replace(chr(92), '/').rsplit('/', 1)[-1]}"
                     f":{name}"))
    functions.sort(reverse=True)

    fingerprint = result.stats.fingerprint()
    cycles = fingerprint["runtime_cycles"]
    return {
        "schema": "repro-profile-v1",
        "workload": workload_name,
        "prefetcher": prefetcher,
        "cores": cores,
        "seed": seed,
        "quick": quick,
        "build_seconds": build_seconds,
        "trace_bytes": sum(trace.nbytes for trace in build.traces),
        "trace_rows": sum(trace.num_rows for trace in build.traces),
        "wall_seconds": wall,
        "profiled_seconds": total_self,
        "runtime_cycles": cycles,
        "cycles_per_wall_second": cycles / wall if wall > 0 else 0.0,
        "fingerprint": fingerprint,
        "subsystems": {
            name: {
                "self_seconds": bucket["self_seconds"],
                "calls": bucket["calls"],
                "share": (bucket["self_seconds"] / total_self
                          if total_self else 0.0),
            }
            for name, bucket in subsystems.items()
        },
        "top_functions": [
            {"self_seconds": tt, "calls": nc, "function": label}
            for tt, nc, label in functions[:40]
        ],
    }


def format_report(document: Dict, top: int = 12, out=sys.stdout) -> None:
    """Pretty-print a profile document as two tables."""
    print(f"workload          : {document['workload']}"
          f"/{document['prefetcher']} "
          f"({document['cores']} cores, seed {document['seed']})", file=out)
    print(f"wall time         : {document['wall_seconds']:.3f} s "
          f"(cProfile overhead included)", file=out)
    print(f"trace build       : {document['build_seconds']:.3f} s "
          f"(not profiled)", file=out)
    trace_bytes, rows = document["trace_bytes"], document["trace_rows"]
    print(f"trace store       : {trace_bytes / 2 ** 20:.1f} MB in {rows} rows "
          f"({trace_bytes / max(rows, 1):.0f} B/row)", file=out)
    print(f"simulated cycles  : {document['runtime_cycles']} "
          f"({document['cycles_per_wall_second']:,.0f} cycles/s)", file=out)
    print(file=out)
    print(f"{'subsystem':16s} {'self(s)':>9s} {'share':>7s} {'calls':>12s}",
          file=out)
    ordered = sorted(document["subsystems"].items(),
                     key=lambda item: -item[1]["self_seconds"])
    for name, bucket in ordered:
        print(f"{name:16s} {bucket['self_seconds']:9.3f} "
              f"{100 * bucket['share']:6.1f}% {bucket['calls']:12d}",
              file=out)
    print(file=out)
    print(f"{'top functions':44s} {'self(s)':>9s} {'calls':>12s}", file=out)
    for row in document["top_functions"][:top]:
        print(f"{row['function']:44s} {row['self_seconds']:9.3f} "
              f"{row['calls']:12d}", file=out)
