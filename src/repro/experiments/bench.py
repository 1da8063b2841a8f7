"""Wall-clock benchmark of the simulation core (importable harness).

Measures what the repository actually spends its time on: sweeping a
workload across prefetcher configurations (every figure of the paper is such
a sweep).  For each benchmark workload the harness runs ``repro.sim.system.
run_workload`` once per prefetcher and records

* per-run wall-clock seconds,
* a statistics fingerprint (runtime cycles, hit/miss/prefetch counters and
  traffic totals) so that two harness runs can be compared for *simulation
  fidelity*, not just speed.

Results are written as JSON (``BENCH_<n>.json`` at the repository root by
convention).  ``compare(...)`` checks a fresh result against a committed
baseline: fingerprints must match exactly and wall-clock must stay within a
regression budget.

Run it via the CLI (``repro bench``) or via the thin wrapper
``benchmarks/perf/bench_sim.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.experiments.configs import scaled_config
from repro.sim.system import run_workload
from repro.workloads import make_workload
from repro.workloads.synthetic import IndirectStreamWorkload

#: Prefetcher configurations swept per workload (the paper's main axes).
PREFETCHERS = ("none", "stream", "ghb", "imp")

#: Benchmark workloads: the two headline paper kernels plus the synthetic
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


def _geomean(values: List[float]) -> Optional[float]:
    import math
    if not values:
        return None
    return math.exp(sum(math.log(value) for value in values) / len(values))


def run_benchmark(cores: int = 16, seed: int = 1, repeat: int = 1,
                  quick: bool = False, workloads: Optional[List[str]] = None,
                  ab_kernels: Optional[List[str]] = None,
                  out=sys.stdout) -> Dict:
    """Run the harness; return the result document (also printed as a table).

    ``repeat`` re-runs the whole suite and keeps the best (minimum) wall
    time per scenario, which filters scheduler noise on busy machines.

    ``ab_kernels`` names two or more NoC reservation-kernel backends
    (:data:`repro.registry.NOC_KERNELS`) to A/B (N-way) in the *same
    session*: every scenario runs once per backend per repeat,
    interleaved, so all sides see the same machine state.  This is the
    only honest way to compare backends — wall-clock ratios against a
    committed baseline file conflate the code change with host-speed
    drift between recording dates.  The document gains a ``kernel_ab``
    section (per-backend walls, per-scenario speedups against the first
    named backend, miss-heavy geomean per backend) and its main
    ``scenarios`` table carries the default backend's numbers;
    fingerprints must be bit-identical across backends (hard failure
    otherwise).
    """
    from dataclasses import replace

    from repro.registry import NOC_KERNELS
    from repro.sim.config import NoCConfig

    chosen = list(workloads or WORKLOADS)
    scenarios: List[Tuple[str, str]] = [(w, p) for w in chosen
                                        for p in PREFETCHERS]
    kernels: List[Optional[str]] = list(ab_kernels) if ab_kernels else [None]
    for name in kernels:
        if name is not None:
            entry = NOC_KERNELS.get(name)   # fail fast on typos
            if not entry.is_available():
                # The mesh would silently substitute 'reference' and turn
                # this lane of the A/B into an A/A; refuse instead.
                raise RuntimeError(
                    f"cannot A/B kernel {name!r}: unavailable on this "
                    f"host (extension not built, or $REPRO_NO_CEXT=1)")
    # best[kernel][scenario key] -> minimum wall seconds over repeats.
    best: Dict[Optional[str], Dict[str, float]] = {k: {} for k in kernels}
    fingerprints: Dict[str, Dict[str, int]] = {}
    # An exported $REPRO_NOC_KERNEL would silently override the per-run
    # config and turn the A/B into an A/A; measure without it.
    ambient = os.environ.pop("REPRO_NOC_KERNEL", None)
    if ambient is not None and ab_kernels:
        print(f"[bench] NOTE: ignoring $REPRO_NOC_KERNEL={ambient!r} "
              f"for the kernel A/B", file=out)
    try:
        for _ in range(max(1, repeat)):
            for kernel in kernels:
                for workload_name in chosen:
                    # One workload object per sweep: run_workload memoises
                    # the trace build on it, which is exactly how the
                    # figure runners use it.
                    workload = _make_workload(workload_name, seed, quick)
                    config = scaled_config(cores)
                    if kernel is not None:
                        config = replace(config,
                                         noc=replace(config.noc,
                                                     kernel=kernel))
                    for prefetcher in PREFETCHERS:
                        key = f"{workload_name}/{prefetcher}"
                        t0 = time.perf_counter()
                        result = run_workload(workload, config,
                                              prefetcher=prefetcher)
                        elapsed = time.perf_counter() - t0
                        walls = best[kernel]
                        if key not in walls or elapsed < walls[key]:
                            walls[key] = elapsed
                        fp = result.stats.fingerprint()
                        if key in fingerprints and fingerprints[key] != fp:
                            raise AssertionError(
                                f"fingerprint divergence for {key}"
                                + (f" under kernel {kernel!r}" if ab_kernels
                                   else " (non-deterministic simulation)"))
                        fingerprints[key] = fp
    finally:
        if ambient is not None:
            os.environ["REPRO_NOC_KERNEL"] = ambient
    # The headline table reports the default backend when it was part of
    # the A/B (else the first named one / the configured default).
    default_kernel: Optional[str] = kernels[0]
    if ab_kernels and NoCConfig().kernel in kernels:
        default_kernel = NoCConfig().kernel
    headline = best[default_kernel]
    total = sum(headline.values())
    print(f"{'scenario':28s} {'wall(s)':>8s} {'cycles':>10s} "
          f"{'l1_miss':>9s} {'pf_issued':>9s}", file=out)
    for workload_name, prefetcher in scenarios:
        key = f"{workload_name}/{prefetcher}"
        fp = fingerprints[key]
        print(f"{key:28s} {headline[key]:8.3f} {fp['runtime_cycles']:10d} "
              f"{fp['l1_misses']:9d} {fp['prefetches_issued']:9d}", file=out)
    print(f"{'TOTAL':28s} {total:8.3f}", file=out)
    document = {
        "schema": "repro-bench-v1",
        "cores": cores,
        "seed": seed,
        "repeat": repeat,
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": {key: {"wall_seconds": headline[key],
                            "fingerprint": fingerprints[key]}
                      for key in headline},
        "total_wall_seconds": total,
    }
    if ab_kernels:
        document["kernel_ab"] = _kernel_ab_section(
            kernels, best, scenario_keys=[f"{w}/{p}" for w, p in scenarios],
            out=out)
    return document


def _kernel_ab_section(kernels: List[Optional[str]],
                       best: Dict[Optional[str], Dict[str, float]],
                       scenario_keys: List[str], out=sys.stdout) -> Dict:
    """Summarise a same-session kernel A/B (and print its table).

    The first named backend is the comparison baseline; speedups are
    ``baseline_wall / backend_wall`` per scenario (>1 = the backend is
    faster).  Fingerprint identity across backends was already enforced
    during collection, so the section records it as a fact, not a claim.
    """
    baseline = kernels[0]
    others = [k for k in kernels[1:]]
    header = f"{'scenario':28s} " + " ".join(
        f"{str(k):>12s}" for k in kernels)
    if others:
        header += "  " + " ".join(f"{f'{k} speedup':>14s}" for k in others)
    print(f"\n[bench] same-session kernel A/B "
          f"(baseline: {baseline})", file=out)
    print(header, file=out)
    speedups: Dict[str, Dict[str, float]] = {k: {} for k in others}
    for key in scenario_keys:
        row = f"{key:28s} " + " ".join(
            f"{best[k][key]:12.3f}" for k in kernels)
        for k in others:
            speedups[k][key] = best[baseline][key] / max(1e-9, best[k][key])
        if others:
            row += "  " + " ".join(f"{speedups[k][key]:13.2f}x"
                                   for k in others)
        print(row, file=out)
    miss_heavy = sorted(key for key in scenario_keys
                        if key.split("/")[-1] in MISS_HEAVY_PREFETCHERS)
    geomeans = {
        k: _geomean([speedups[k][key] for key in miss_heavy])
        for k in others
    }
    for k, value in geomeans.items():
        if value is not None:
            print(f"[bench] kernel A/B miss-heavy (ghb/imp) geomean: "
                  f"{k} vs {baseline} = {value:.2f}x", file=out)
    return {
        "kernels": [str(k) for k in kernels],
        "baseline_kernel": str(baseline),
        "fingerprints_identical": True,     # enforced during collection
        "wall_seconds": {str(k): dict(best[k]) for k in kernels},
        "speedup_by_scenario": {k: speedups[k] for k in others},
        "miss_heavy_rows": miss_heavy,
        "miss_heavy_geomean_speedup": geomeans,
    }


# ----------------------------------------------------------------------
# Sweep-level benchmark (the parallel engine + persistent result cache)
# ----------------------------------------------------------------------

#: Figures timed by the sweep benchmark.  They deliberately share runs
#: (Base/PerfPref/IMP at one core count appear in several of them) so the
#: batched prefetch path's deduplication is part of what is measured.
SWEEP_FIGURES = ("fig1", "fig2", "fig9", "table3", "fig10", "fig12")
SWEEP_FIGURES_QUICK = ("fig1", "fig2", "table3", "fig10")


def _sweep_phase(names, cores: int, scale: float, seed: int,
                 jobs: Optional[int], cache_dir) -> Dict:
    """Build every figure in ``names`` once and time it end to end.

    Returns wall seconds, simulation/cache counters, and one fingerprint
    per unique underlying run so phases can be compared for fidelity.
    """
    from repro.cli import FIGURES
    from repro.experiments import figures
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=scale, seed=seed,
                              base_config=scaled_config(cores),
                              jobs=jobs, cache_dir=cache_dir)
    t0 = time.perf_counter()
    figures.prefetch_figures(runner, names, [cores])
    for name in names:
        FIGURES[name](runner, cores)
    wall = time.perf_counter() - t0
    # One fingerprint per unique run.  The key carries the full cache key —
    # including the IMP-config signature, which distinguishes the
    # sensitivity-figure runs that share (workload, mode, cores) — hashed
    # down to a JSON-friendly suffix.
    fingerprints = {
        f"{key[0]}/{key[1]}/{key[2]}/"
        f"{hashlib.sha256(repr(key[3:]).encode()).hexdigest()[:8]}":
        record.result.stats.fingerprint()
        for key, record in runner.cached_records()}
    cache = runner.engine.cache
    return {
        "wall_seconds": wall,
        "simulations": runner.engine.simulations_run,
        "unique_runs": len(fingerprints),
        "cache_hits": cache.hits if cache else 0,
        "fingerprints": fingerprints,
    }


def run_sweep_benchmark(cores: int = 16, seed: int = 1, scale: float = 0.15,
                        jobs: Optional[int] = None, quick: bool = False,
                        figures: Optional[List[str]] = None,
                        out=sys.stdout) -> Dict:
    """Benchmark the sweep engine: serial vs parallel vs warm cache.

    Three phases build the same multi-figure set back-to-back:

    1. ``serial`` — one process, no disk cache: the PR 1 serial engine.
    2. ``parallel`` — ``jobs`` worker processes, cold disk cache.
    3. ``warm_cache`` — same cache directory again; must simulate nothing.

    All three phases must produce bit-identical stat fingerprints for
    every underlying run.
    """
    import shutil
    import tempfile

    from repro.experiments.sweep import resolve_jobs

    if quick:
        cores, scale = min(cores, 4), min(scale, 0.05)
        names = tuple(figures or SWEEP_FIGURES_QUICK)
    else:
        names = tuple(figures or SWEEP_FIGURES)
    # One documented rule (see resolve_jobs): explicit --jobs, else
    # $REPRO_JOBS, else 4 — the benchmark exists to measure the parallel
    # engine, so its fallback default is parallel.  0 = auto (all CPUs);
    # an explicit --jobs 1 is honoured.
    jobs = max(1, resolve_jobs(jobs, default=4))
    cache_dir = tempfile.mkdtemp(prefix="repro-sweep-bench-")
    try:
        print(f"[sweep-bench] figures={','.join(names)} cores={cores} "
              f"scale={scale} jobs={jobs}", file=out)
        serial = _sweep_phase(names, cores, scale, seed, jobs=1,
                              cache_dir=None)
        print(f"[sweep-bench] serial    : {serial['wall_seconds']:8.3f}s  "
              f"({serial['simulations']} simulations)", file=out)
        parallel = _sweep_phase(names, cores, scale, seed, jobs=jobs,
                                cache_dir=cache_dir)
        print(f"[sweep-bench] parallel  : {parallel['wall_seconds']:8.3f}s  "
              f"({parallel['simulations']} simulations, {jobs} jobs)",
              file=out)
        warm = _sweep_phase(names, cores, scale, seed, jobs=jobs,
                            cache_dir=cache_dir)
        print(f"[sweep-bench] warm cache: {warm['wall_seconds']:8.3f}s  "
              f"({warm['simulations']} simulations, "
              f"{warm['cache_hits']} cache hits)", file=out)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    identical = (serial["fingerprints"] == parallel["fingerprints"]
                 == warm["fingerprints"])
    speedups = {
        "parallel_vs_serial": (serial["wall_seconds"]
                               / max(1e-9, parallel["wall_seconds"])),
        "warm_vs_serial": (serial["wall_seconds"]
                           / max(1e-9, warm["wall_seconds"])),
    }
    print(f"[sweep-bench] fingerprints identical: {identical}; "
          f"parallel speedup {speedups['parallel_vs_serial']:.2f}x, "
          f"warm-cache speedup {speedups['warm_vs_serial']:.2f}x", file=out)
    fingerprints = serial.pop("fingerprints")
    for phase in (parallel, warm):
        phase.pop("fingerprints")
    return {
        "schema": "repro-sweep-bench-v1",
        "cores": cores,
        "seed": seed,
        "scale": scale,
        "jobs": jobs,
        "quick": quick,
        "figures": list(names),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Parallel scaling is bounded by the host's core count; record it
        # so single-core CI boxes don't read as engine regressions.
        "cpus": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "phases": {"serial": serial, "parallel": parallel,
                   "warm_cache": warm},
        "fingerprints": fingerprints,
        "fingerprints_identical": identical,
        "speedup": speedups,
    }


def sweep_scaling_section(cores: int = 16, seed: int = 1,
                          scale: float = 0.15, jobs: Optional[int] = None,
                          quick: bool = False, out=sys.stdout) -> Dict:
    """Multi-worker sweep scaling: ``--jobs 1`` vs ``--jobs N`` back to
    back in one session (ROADMAP's "step zero" for distributed sweeps).

    On a single-CPU host the measurement would be meaningless (process
    pools can only add overhead), so the section records a *documented
    skip* — the host's CPU count and why nothing was measured — instead
    of a number that would be misread as an engine regression.  The first
    multi-core recording host fills in the real measurement.
    """
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        print(f"[bench] sweep scaling: SKIPPED (host has {cpus} CPU; "
              f"--jobs 1 vs --jobs N needs a multi-core host)", file=out)
        return {
            "measured": False,
            "cpus": cpus,
            "skip_reason": "recording host has a single CPU; a "
                           "multi-worker measurement would only add "
                           "process-pool overhead (ROADMAP: measuring "
                           "sweep scaling on a multi-core box is still "
                           "open)",
        }
    jobs = max(2, int(jobs)) if jobs is not None else min(cpus, 4)
    names = tuple(SWEEP_FIGURES_QUICK if quick else SWEEP_FIGURES)
    if quick:
        cores, scale = min(cores, 4), min(scale, 0.05)
    print(f"[bench] sweep scaling: --jobs 1 vs --jobs {jobs} "
          f"({cpus} CPUs)", file=out)
    serial = _sweep_phase(names, cores, scale, seed, jobs=1, cache_dir=None)
    parallel = _sweep_phase(names, cores, scale, seed, jobs=jobs,
                            cache_dir=None)
    identical = serial["fingerprints"] == parallel["fingerprints"]
    for phase in (serial, parallel):
        phase.pop("fingerprints")
    speedup = serial["wall_seconds"] / max(1e-9, parallel["wall_seconds"])
    print(f"[bench] sweep scaling: jobs=1 {serial['wall_seconds']:.3f}s, "
          f"jobs={jobs} {parallel['wall_seconds']:.3f}s -> "
          f"{speedup:.2f}x (fingerprints identical: {identical})", file=out)
    return {
        "measured": True,
        "cpus": cpus,
        "jobs": jobs,
        "figures": list(names),
        "jobs_1": serial,
        "jobs_n": parallel,
        "speedup": speedup,
        "fingerprints_identical": identical,
    }


#: Rows of the per-scenario harness counted as miss-heavy: the correlation
#: and indirect prefetchers run the full notification + fetch machinery on
#: the indirect-access workloads (the IMP paper's target), so they are the
#: slowest rows and the ones hot-path PRs are measured on.
MISS_HEAVY_PREFETCHERS = ("ghb", "imp")


def baseline_comparison(current: Dict, baseline: Dict) -> Dict:
    """Per-scenario speedups of ``current`` over ``baseline``.

    Returns a summary section embedded into ``BENCH_<n>.json`` documents:
    wall-clock speedup per shared scenario, whether every shared scenario's
    stat fingerprint is bit-identical, and the geometric-mean speedup over
    the miss-heavy (ghb/imp) rows.
    """
    base_scenarios = baseline.get("scenarios", {})
    speedups: Dict[str, float] = {}
    identical = True
    for key, entry in current.get("scenarios", {}).items():
        base = base_scenarios.get(key)
        if base is None:
            continue
        speedups[key] = base["wall_seconds"] / max(1e-9,
                                                   entry["wall_seconds"])
        if base.get("fingerprint") != entry.get("fingerprint"):
            identical = False
    if not speedups:
        # No shared scenario keys (wrong baseline document, renamed
        # scenarios): an "identical" claim would be vacuous, so report
        # the empty comparison as non-identical rather than silently
        # blessing it.
        identical = False
    miss_heavy = [value for key, value in speedups.items()
                  if key.split("/")[-1] in MISS_HEAVY_PREFETCHERS]
    geomean = _geomean(miss_heavy)
    return {
        "baseline_schema": baseline.get("schema"),
        "baseline_timestamp": baseline.get("timestamp"),
        "compared_scenarios": len(speedups),
        "speedup_by_scenario": speedups,
        "fingerprints_identical": identical,
        "miss_heavy_rows": sorted(
            key for key in speedups
            if key.split("/")[-1] in MISS_HEAVY_PREFETCHERS),
        "miss_heavy_geomean_speedup": geomean,
    }


def compare(current: Dict, baseline: Dict, budget: float = 1.25,
            out=sys.stdout) -> int:
    """Compare a fresh run against a baseline document.

    Returns a process exit code: non-zero when any fingerprint diverges
    (simulation behaviour changed) or total wall-clock exceeds
    ``budget`` x the baseline (performance regression).
    """
    failures = 0
    for knob in ("cores", "seed", "quick"):
        if current.get(knob) != baseline.get(knob):
            print(f"[bench] FAIL: {knob} mismatch (current="
                  f"{current.get(knob)!r}, baseline={baseline.get(knob)!r}) "
                  f"— runs are only comparable with identical parameters",
                  file=out)
            return 1
    base_scenarios = baseline.get("scenarios", {})
    missing = sorted(set(base_scenarios) - set(current["scenarios"]))
    if missing:
        # A shrunken suite must not silently pass: every baseline scenario
        # has to be re-measured for the comparison to mean anything.
        failures += 1
        print(f"[bench] FAIL: baseline scenarios not run: "
              f"{', '.join(missing)}", file=out)
    for key, entry in current["scenarios"].items():
        base = base_scenarios.get(key)
        if base is None:
            print(f"[bench] NOTE: no baseline for {key}", file=out)
            continue
        if entry["fingerprint"] != base["fingerprint"]:
            failures += 1
            print(f"[bench] FAIL: fingerprint mismatch for {key}", file=out)
            for field, value in entry["fingerprint"].items():
                if base["fingerprint"].get(field) != value:
                    print(f"         {field}: baseline="
                          f"{base['fingerprint'].get(field)} current={value}",
                          file=out)
    base_total = baseline.get("total_wall_seconds")
    cur_total = current["total_wall_seconds"]
    if base_total:
        ratio = cur_total / base_total
        print(f"[bench] wall: current={cur_total:.2f}s "
              f"baseline={base_total:.2f}s ratio={ratio:.2f} "
              f"(budget {budget:.2f})", file=out)
        if ratio > budget:
            failures += 1
            print(f"[bench] FAIL: wall-clock regression "
                  f"{ratio:.2f}x > {budget:.2f}x budget", file=out)
    if failures == 0:
        print("[bench] OK", file=out)
    return 1 if failures else 0


def check_sweep_document(document: Dict, min_warm_speedup: float = 3.0,
                         out=sys.stdout) -> int:
    """Validate a sweep benchmark document; returns a process exit code.

    Hard requirements: every phase produced bit-identical fingerprints and
    the warm-cache phase performed zero simulations.  The warm-cache
    rebuild must also beat the serial engine by ``min_warm_speedup``
    (machine-relative: both sides were timed back-to-back).
    """
    failures = 0
    if not document["fingerprints_identical"]:
        failures += 1
        print("[sweep-bench] FAIL: phases produced different fingerprints",
              file=out)
    warm = document["phases"]["warm_cache"]
    if warm["simulations"] != 0:
        failures += 1
        print(f"[sweep-bench] FAIL: warm-cache phase simulated "
              f"{warm['simulations']} runs (expected 0)", file=out)
    speedup = document["speedup"]["warm_vs_serial"]
    if speedup < min_warm_speedup:
        failures += 1
        print(f"[sweep-bench] FAIL: warm-cache speedup {speedup:.2f}x "
              f"< {min_warm_speedup:.2f}x", file=out)
    if failures == 0:
        print("[sweep-bench] OK", file=out)
    return 1 if failures else 0


def write_and_check(document: Dict, *, out_path: Optional[str],
                    check: bool, baseline_path: Optional[str],
                    budget: float, out=sys.stdout) -> int:
    """Shared tail of both entry points: persist the result document and
    optionally compare it against a baseline file.  Returns an exit code.

    ``--baseline`` without ``--check`` embeds a :func:`baseline_comparison`
    section into the document before it is written (the trajectory files
    ``BENCH_<n>.json`` record their speedup over the previous entry this
    way) instead of gating the exit code.
    """
    if (baseline_path and not check
            and document.get("schema") == "repro-bench-v1"):
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        section = baseline_comparison(document, baseline)
        document["baseline_comparison"] = section
        geomean = section["miss_heavy_geomean_speedup"]
        if geomean is not None:
            print(f"[bench] miss-heavy (ghb/imp) geomean speedup vs "
                  f"{baseline_path}: {geomean:.2f}x "
                  f"(fingerprints identical: "
                  f"{section['fingerprints_identical']})", file=out)
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"[bench] wrote {out_path}", file=out)
    if document.get("schema") == "repro-sweep-bench-v1":
        # Sweep documents carry their own invariants; validate them always.
        if check or baseline_path:
            print("[sweep-bench] NOTE: --check/--baseline comparison does "
                  "not apply to sweep documents; validating the sweep's "
                  "built-in invariants instead", file=out)
        return check_sweep_document(document, out=out)
    if check:
        if not baseline_path:
            print("[bench] --check requires --baseline", file=out)
            return 2
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        return compare(document, baseline, budget=budget, out=out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="smaller inputs (CI smoke run)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        choices=list(WORKLOADS))
    parser.add_argument("--ab-kernels", nargs="+", default=None,
                        metavar="KERNEL",
                        help="two or more NoC reservation-kernel backends "
                             "to A/B (N-way) in the same session (first = "
                             "comparison baseline); embeds a kernel_ab "
                             "section")
    parser.add_argument("--sweep-scaling", action="store_true",
                        help="additionally measure multi-worker sweep "
                             "scaling (--jobs 1 vs --jobs N) and embed a "
                             "sweep_scaling section; records a documented "
                             "skip on single-CPU hosts")
    parser.add_argument("--out", default=None,
                        help="write the result JSON to this path")
    parser.add_argument("--check", action="store_true",
                        help="compare against --baseline and set exit code")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON for --check")
    parser.add_argument("--budget", type=float, default=1.25,
                        help="allowed wall-clock ratio vs baseline")
    parser.add_argument("--sweep", action="store_true",
                        help="benchmark the multi-figure sweep engine "
                             "(serial vs --jobs vs warm cache)")
    parser.add_argument("--scale", type=float, default=0.15,
                        help="workload scale for --sweep")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --sweep "
                             "(default: $REPRO_JOBS, else 4; 0 = auto)")
    args = parser.parse_args(argv)

    if args.sweep:
        document = run_sweep_benchmark(cores=args.cores, seed=args.seed,
                                       scale=args.scale, jobs=args.jobs,
                                       quick=args.quick)
    else:
        document = run_benchmark(cores=args.cores, seed=args.seed,
                                 repeat=args.repeat, quick=args.quick,
                                 workloads=args.workloads,
                                 ab_kernels=args.ab_kernels)
        if args.sweep_scaling:
            document["sweep_scaling"] = sweep_scaling_section(
                cores=args.cores, seed=args.seed, scale=args.scale,
                jobs=args.jobs, quick=args.quick)
    return write_and_check(document, out_path=args.out, check=args.check,
                           baseline_path=args.baseline, budget=args.budget)


if __name__ == "__main__":
    sys.exit(main())
