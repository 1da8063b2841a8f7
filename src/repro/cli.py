"""Command-line interface.

Installed as the ``repro`` console script (also runnable as
``python -m repro.cli``).  Sub-commands:

* ``list``           — enumerate every registered component (prefetchers,
  DRAM models, workloads, experiment modes) with one-line descriptions.
* ``run``            — simulate one workload under one configuration and
  print runtime, coverage, accuracy and traffic.  ``--scenario file.json``
  runs a declarative scenario instead (see
  :mod:`repro.experiments.scenario`): workload, mode, core count and
  config overrides — including explicit cache hierarchies — all come from
  the file, and ``--expect-fingerprint`` turns the run into a
  reproducibility check.
* ``compare``        — run the paper's named configurations side by side for
  one workload (a one-workload slice of Figure 9 / 11).
* ``figure``         — regenerate one of the paper's figures/tables.
  ``--scenario file.json`` takes the *platform* from a scenario file
  (system config including an explicit hierarchy and prefetcher attach
  points, core count, IMP overrides) while the figure's own
  workload/mode grid still applies.
* ``table``          — the table-shaped subset of ``figure`` (same
  options, including ``--scenario``).
* ``sweep``          — regenerate many figures in one batched sweep:
  every required simulation is declared up front, deduplicated, executed
  across ``--jobs`` worker processes, and memoised in the persistent
  on-disk result cache (``--cache-dir``, default ``results/cache``), so
  re-running only simulates what changed.  The executor is
  fault-tolerant: ``--timeout`` bounds each run's wall clock,
  ``--retries``/``--backoff`` govern recovery from worker death and
  transient exceptions, ``--keep-going``/``--fail-fast`` pick the exit
  strategy (permanent failures land in ``results/failures.json`` and
  exit code 3), progress is journalled under the cache directory, and
  ``--resume`` restarts a killed sweep from where it died.  Ctrl-C /
  SIGTERM shut the pool down cleanly, flush the journal and exit with
  code 130 / 143.
* ``serve``          — run the sweep service: a long-running versioned
  REST API (``POST /v1/jobs`` submits scenario JSON, ``GET /v1/jobs/<id>``
  polls, ``GET /v1/results/<digest>`` fetches cached results, plus
  ``/v1/registries`` and ``/healthz``/``/readyz`` probes) over a
  crash-safe durable job queue: every state transition is fsynced to a
  journal under the cache directory, a killed server replays it on
  restart, re-enqueues interrupted jobs and never re-executes completed
  ones.  The admission queue is bounded (429 + ``Retry-After`` when
  full); SIGTERM stops admissions, drains up to ``--drain-timeout``
  seconds, journals the rest as interrupted and exits 143.
* ``cache``          — cache maintenance; ``repro cache doctor`` lists
  (and with ``--purge`` deletes) records the self-healing cache has
  quarantined as corrupt.
* ``cost``           — print the Section 6.4 storage/energy cost report.
* ``profile``        — run one workload/prefetcher under cProfile and
  attribute self-time to simulator subsystems (cache, directory, DRAM,
  NoC, prefetcher, core/scheduler); the tool that drives the hot-path
  perf PRs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from typing import List, Optional, Sequence

from repro.core.config import IMPConfig
from repro.experiments import ExperimentRunner, figures, scaled_config
from repro.experiments.configs import CONFIG_MODES, experiment_config
from repro.experiments.faults import (FAULTS_ENV_VAR, FaultInjectionError,
                                      FaultPlan)
from repro.experiments.scenario import ScenarioError, load_scenario
from repro.registry import (ALL_REGISTRIES, NOC_KERNELS, PREFETCHERS,
                            SWEEP_BACKENDS, RegistryError)
from repro.sim.config import SystemConfig
from repro.sim.system import run_workload
from repro.workloads import PAPER_WORKLOADS, REGULAR_WORKLOADS, make_workload
from repro.workloads.synthetic import IndirectStreamWorkload, StreamingWorkload

#: Figure names accepted by ``repro figure``.
FIGURES = {
    "fig1": lambda runner, cores: figures.fig01_miss_breakdown(runner, cores),
    "fig2": lambda runner, cores: figures.fig02_motivation(runner, cores),
    "fig9": lambda runner, cores: figures.fig09_performance(
        runner, core_counts=(cores,))[cores],
    "table3": lambda runner, cores: figures.table3_effectiveness(runner, cores),
    "fig10": lambda runner, cores: figures.fig10_sw_overhead(runner, cores),
    "fig11": lambda runner, cores: figures.fig11_partial(
        runner, core_counts=(cores,))[cores],
    "fig12": lambda runner, cores: figures.fig12_traffic(runner, cores),
    "fig14": lambda runner, cores: figures.fig14_pt_size(runner, cores),
    "fig15": lambda runner, cores: figures.fig15_ipd_size(runner, cores),
    "fig16": lambda runner, cores: figures.fig16_prefetch_distance(runner, cores),
}


#: Exit codes of the ``sweep`` command's failure-semantics contract (see
#: README "Operations & failure semantics"): 0 success, 1 fingerprint
#: mismatch, 2 usage error, 3 runs permanently failed, 130/143 when
#: interrupted by SIGINT/SIGTERM (journal flushed, pool shut down).
EXIT_RUN_FAILURES = 3
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143


class _Terminated(Exception):
    """SIGTERM arrived; unwind like Ctrl-C but exit with its own code."""


@contextlib.contextmanager
def _sigterm_raises():
    """Turn SIGTERM into an exception so sweeps can flush the journal and
    shut the pool down instead of dying mid-write."""

    def _handler(signum, frame):
        raise _Terminated()

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except ValueError:      # not the main thread (embedded use): no-op
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _warn_quarantined(cache_dir, out) -> None:
    """One-line heads-up (never a crash) when the cache holds quarantined
    records; ``repro cache doctor`` has the details."""
    from repro.experiments.sweep import list_quarantined

    try:
        entries = list_quarantined(cache_dir)
    except OSError:
        return
    if entries:
        print(f"[cache] warning: {len(entries)} quarantined record(s) "
              f"under {cache_dir}/quarantine — inspect or purge with "
              f"'repro cache doctor --cache-dir {cache_dir}'", file=out)


def _jobs_arg(value: str) -> int:
    """``--jobs`` values under the one documented rule: a non-negative
    integer, where ``0`` means auto (one worker per CPU).  Anything else
    is a usage error (exit 2), not a traceback."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid jobs value {value!r}: expected a non-negative "
            f"integer (0 = auto: one worker per CPU)") from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"invalid jobs value {jobs}: expected a non-negative "
            f"integer (0 = auto: one worker per CPU)")
    return jobs


def _all_workload_names() -> List[str]:
    return (sorted(PAPER_WORKLOADS) + sorted(REGULAR_WORKLOADS)
            + ["indirect_stream", "streaming"])


def _make_named_workload(name: str, seed: int):
    if name in PAPER_WORKLOADS:
        return make_workload(name, seed=seed)
    if name in REGULAR_WORKLOADS:
        return REGULAR_WORKLOADS[name](seed=seed)
    if name == "indirect_stream":
        return IndirectStreamWorkload(seed=seed)
    if name == "streaming":
        return StreamingWorkload(seed=seed)
    raise SystemExit(f"unknown workload {name!r}; "
                     f"try: {', '.join(_all_workload_names())}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMP (Indirect Memory Prefetcher, MICRO 2015) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list registered components (prefetchers, DRAM models, "
                     "workloads, experiment modes)")
    list_parser.add_argument("registry", nargs="?", default=None,
                             choices=sorted(ALL_REGISTRIES),
                             help="show one registry only (default: all)")

    run_parser = sub.add_parser(
        "run", help="simulate one workload (or a --scenario file)")
    run_parser.add_argument("workload", nargs="?", default=None,
                            help="workload name (see list workloads); "
                                 "omit when using --scenario")
    run_parser.add_argument("--scenario", default=None, metavar="FILE",
                            help="run a declarative JSON scenario instead "
                                 "of a named workload")
    run_parser.add_argument("--expect-fingerprint", default=None,
                            metavar="FILE",
                            help="with --scenario: compare the run's stat "
                                 "fingerprint against this JSON file and "
                                 "exit non-zero on mismatch")
    run_parser.add_argument("--write-fingerprint", default=None,
                            metavar="FILE",
                            help="with --scenario: write the run's stat "
                                 "fingerprint to this JSON file")
    run_parser.add_argument("--jobs", type=_jobs_arg, default=None,
                            help="sweep worker processes for --scenario "
                                 "(default: $REPRO_JOBS, else 1; "
                                 "0 = auto)")
    run_parser.add_argument("--cache-dir", default=None,
                            help="persistent result cache for --scenario "
                                 "(default: off)")
    # Defaults resolved in _command_run (None = not given) so that flags a
    # --scenario file would override can be rejected instead of silently
    # ignored.
    run_parser.add_argument("--prefetcher", default=None,
                            choices=PREFETCHERS.names(),
                            help="prefetcher for a named workload "
                                 "(default: imp)")
    run_parser.add_argument("--cores", type=int, default=None,
                            help="core count for a named workload "
                                 "(default: 16)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="workload seed for a named workload "
                                 "(default: 1)")
    run_parser.add_argument("--partial", action="store_true",
                            help="enable partial cacheline accessing (NoC+DRAM)")
    run_parser.add_argument("--software-prefetch", action="store_true")
    run_parser.add_argument("--ooo", action="store_true",
                            help="use the out-of-order core model")

    compare_parser = sub.add_parser(
        "compare", help="run the paper's named configurations for one workload")
    compare_parser.add_argument("workload")
    compare_parser.add_argument("--cores", type=int, default=16)
    compare_parser.add_argument("--seed", type=int, default=1)
    compare_parser.add_argument("--modes", nargs="+",
                                default=["ideal", "perfpref", "base", "swpref",
                                         "imp", "imp_partial_noc_dram"],
                                choices=list(CONFIG_MODES))

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("name", choices=sorted(FIGURES))
    _add_figure_options(figure_parser)

    table_parser = sub.add_parser(
        "table", help="regenerate a paper table (the table-shaped subset "
                      "of `figure`)")
    table_parser.add_argument("name",
                              choices=sorted(name for name in FIGURES
                                             if name.startswith("table")))
    _add_figure_options(table_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="regenerate many figures in one batched parallel "
                      "sweep, or run a directory of scenario files")
    sweep_parser.add_argument("--figures", nargs="+", default=None,
                              choices=sorted(FIGURES),
                              help="figures to build (default: all)")
    sweep_parser.add_argument("--scenario-dir", default=None, metavar="DIR",
                              help="instead of figures: run every *.json "
                                   "scenario in DIR through the sweep "
                                   "engine/cache, checking any sibling "
                                   "*.fingerprint.json expectations")
    sweep_parser.add_argument("--cores", type=int, nargs="+", default=[16],
                              help="core counts (fig9/fig11 sweep them all; "
                                   "other figures use the first)")
    sweep_parser.add_argument("--scale", type=float, default=0.35)
    sweep_parser.add_argument("--seed", type=int, default=1)
    _add_sweep_options(sweep_parser)
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-run wall-clock timeout in seconds "
                                   "(enforced on the worker pool; a batch "
                                   "of N runs gets N× the budget; "
                                   "default: none)")
    sweep_parser.add_argument("--retries", type=int, default=2,
                              help="additional attempts for a run that "
                                   "times out, dies with its worker, or "
                                   "raises (default: 2)")
    sweep_parser.add_argument("--backoff", type=float, default=0.5,
                              metavar="SECONDS",
                              help="base retry backoff; doubles per "
                                   "attempt (default: 0.5)")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="resume an interrupted sweep: reuse "
                                   "its journal under --cache-dir and "
                                   "skip work the result cache already "
                                   "holds (requires the cache)")
    exit_policy = sweep_parser.add_mutually_exclusive_group()
    exit_policy.add_argument("--keep-going", dest="fail_fast",
                             action="store_false", default=False,
                             help="run everything despite permanent "
                                  "failures, then exit 3 (default)")
    exit_policy.add_argument("--fail-fast", dest="fail_fast",
                             action="store_true",
                             help="abandon outstanding work at the first "
                                  "permanent failure")
    sweep_parser.add_argument("--failures-out", default="results/failures.json",
                              metavar="FILE",
                              help="structured failure report destination "
                                   "(default: results/failures.json)")

    serve_parser = sub.add_parser(
        "serve", help="run the crash-safe sweep service (versioned REST "
                      "API over a durable job queue)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8378,
                              help="TCP port; 0 picks a free port and the "
                                   "bound port is printed as port=N for "
                                   "scripting (default: 8378)")
    serve_parser.add_argument("--cache-dir", default="results/cache",
                              help="persistent result cache + job journal "
                                   "directory (default: results/cache)")
    serve_parser.add_argument("--queue-depth", type=int, default=64,
                              help="bounded admission queue depth; beyond "
                                   "it POSTs get 429 + Retry-After "
                                   "(default: 64)")
    serve_parser.add_argument("--jobs", type=_jobs_arg, default=None,
                              help="sweep worker processes per job "
                                   "(default: $REPRO_JOBS, else "
                                   "in-process; 0 = auto)")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="per-run wall-clock timeout "
                                   "(default: none)")
    serve_parser.add_argument("--retries", type=int, default=2,
                              help="additional attempts per failing run "
                                   "(default: 2)")
    serve_parser.add_argument("--backoff", type=float, default=0.5,
                              metavar="SECONDS",
                              help="base retry backoff; doubles per "
                                   "attempt (default: 0.5)")
    serve_parser.add_argument("--drain-timeout", type=float, default=30.0,
                              metavar="SECONDS",
                              help="graceful-shutdown drain deadline; jobs "
                                   "still pending afterwards are journalled "
                                   "interrupted and recovered on the next "
                                   "boot (default: 30)")

    cache_parser = sub.add_parser(
        "cache", help="result-cache maintenance")
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    doctor_parser = cache_sub.add_parser(
        "doctor", help="inspect (and optionally purge) records the "
                       "self-healing cache quarantined as corrupt")
    doctor_parser.add_argument("--cache-dir", default="results/cache")
    doctor_parser.add_argument("--purge", action="store_true",
                               help="delete the quarantined records")

    sub.add_parser("cost", help="print the Section 6.4 hardware cost report")

    profile_parser = sub.add_parser(
        "profile", help="profile one simulation run and attribute time to "
                        "simulator subsystems")
    profile_parser.add_argument("workload", nargs="?",
                                default="indirect_stream",
                                help="spmv, pagerank or indirect_stream "
                                     "(default: indirect_stream, the "
                                     "miss-heavy kernel)")
    profile_parser.add_argument("--prefetcher", default="imp",
                                choices=PREFETCHERS.names())
    profile_parser.add_argument("--cores", type=int, default=16)
    profile_parser.add_argument("--seed", type=int, default=1)
    profile_parser.add_argument("--quick", action="store_true",
                                help="smaller inputs (smoke run)")
    profile_parser.add_argument("--top", type=int, default=12,
                                help="number of individual functions to "
                                     "list (default: 12)")
    profile_parser.add_argument("--out", default=None,
                                help="write the attribution document as "
                                     "JSON to this path")
    return parser


def _add_figure_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``figure`` and ``table``."""
    parser.add_argument("--cores", type=int, default=None,
                        help="core count (default: 16; a --scenario file "
                             "sets it instead)")
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="take the platform from a scenario file — "
                             "system config (including an explicit cache "
                             "hierarchy and prefetcher attach points), "
                             "core count and IMP overrides; the figure's "
                             "own workload/mode grid still applies")
    _add_sweep_options(parser)


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_jobs_arg, default=None,
                        help="worker processes for the sweep "
                             "(default: $REPRO_JOBS, else 1; "
                             "0 = auto: one worker per CPU)")
    parser.add_argument("--cache-dir", default="results/cache",
                        help="persistent result cache directory "
                             "(default: results/cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--backend", default=None,
                        choices=SWEEP_BACKENDS.names(),
                        help="sweep execution backend (default: process; "
                             "'service' shards runs across repro serve "
                             "endpoints given with --shard)")
    parser.add_argument("--shard", action="append", default=None,
                        metavar="URL", dest="shards",
                        help="a repro serve base URL for --backend "
                             "service (repeatable; results are ingested "
                             "into the local cache)")


def _command_registry_list(args, out) -> int:
    names = [args.registry] if args.registry else list(ALL_REGISTRIES)
    for index, registry_name in enumerate(names):
        registry = ALL_REGISTRIES[registry_name]
        if index:
            print(file=out)
        print(f"{registry_name} ({registry.kind}s):", file=out)
        # Entries whose implementation is absent on this host (e.g. the
        # compiled NoC kernel without its extension build) are hidden:
        # the listing shows what this host can actually run.
        entries = [entry for entry in registry.entries()
                   if entry.is_available()]
        width = max((len(entry.name) for entry in entries), default=0)
        for entry in entries:
            tags = f"  [{', '.join(entry.tags)}]" if entry.tags else ""
            print(f"  {entry.name:{width}s}  {entry.description}{tags}",
                  file=out)
    _warn_quarantined("results/cache", out)
    return 0


def _command_cache_doctor(args, out) -> int:
    from repro.experiments.sweep import list_quarantined, purge_quarantined

    entries = list_quarantined(args.cache_dir)
    if not entries:
        print(f"cache {args.cache_dir}: no quarantined records", file=out)
        return 0
    print(f"cache {args.cache_dir}: {len(entries)} quarantined record(s)",
          file=out)
    for entry in entries:
        try:
            size = entry.path.stat().st_size
        except OSError:
            size = 0
        print(f"  {entry.digest[:16]:16s}  {entry.reason:13s}  "
              f"{size:8d} bytes  {entry.path.name}", file=out)
    if args.purge:
        removed = purge_quarantined(args.cache_dir)
        print(f"purged {removed} quarantined record(s); the next sweep "
              f"recomputes them", file=out)
    else:
        print("re-run with --purge to delete them (the affected runs are "
              "recomputed on the next sweep either way)", file=out)
    return 0


def _command_run_scenario(args, out) -> int:
    import json

    conflicting = [flag for flag, given in (
        ("--prefetcher", args.prefetcher is not None),
        ("--cores", args.cores is not None),
        ("--seed", args.seed is not None),
        ("--partial", args.partial),
        ("--software-prefetch", args.software_prefetch),
        ("--ooo", args.ooo),
    ) if given]
    if conflicting:
        print(f"error: {', '.join(conflicting)} cannot be combined with "
              f"--scenario; the scenario file defines the configuration",
              file=out)
        return 2
    try:
        scenario = load_scenario(args.scenario)
    except ValueError as exc:
        # ScenarioError and RegistryError both subclass ValueError; either
        # way the message already lists the valid choices.
        print(f"error: {exc}", file=out)
        return 2
    expected = None
    if args.expect_fingerprint:
        # Read (and validate) the expectation before paying for the
        # simulation, so a bad path fails fast and cleanly.
        try:
            with open(args.expect_fingerprint) as handle:
                expected = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read expected fingerprint "
                  f"{args.expect_fingerprint}: {exc}", file=out)
            return 2
        if not isinstance(expected, dict):
            print(f"error: expected fingerprint "
                  f"{args.expect_fingerprint} must be a JSON object",
                  file=out)
            return 2
        expected = expected.get("fingerprint", expected)
    result = scenario.run(jobs=args.jobs, cache_dir=args.cache_dir,
                          use_cache=args.cache_dir is not None)
    stats = result.stats
    fingerprint = stats.fingerprint()
    label = scenario.name or scenario.workload
    hierarchy = result.config.resolved_hierarchy()
    shape = " -> ".join(
        f"{lvl.name}({lvl.scope})" for lvl in hierarchy.levels) + " -> dram"
    attach = ", ".join(
        f"{entry.prefetcher or result.prefetcher}@{entry.level}"
        for entry in hierarchy.attach) or "none"
    print(f"scenario          : {label}", file=out)
    if scenario.description:
        print(f"description       : {scenario.description}", file=out)
    print(f"workload          : {result.workload}", file=out)
    print(f"mode              : {scenario.mode}", file=out)
    print(f"cores             : {scenario.n_cores}", file=out)
    print(f"hierarchy         : {shape} "
          f"(prefetch: {attach})", file=out)
    print(f"runtime (cycles)  : {result.runtime_cycles}", file=out)
    print(f"throughput (IPC)  : {result.throughput:.3f}", file=out)
    print(f"prefetch coverage : {stats.coverage:.3f}", file=out)
    print(f"cache digest      : {scenario.digest()}", file=out)
    print(f"fingerprint       : {json.dumps(fingerprint, sort_keys=True)}",
          file=out)
    if args.write_fingerprint:
        with open(args.write_fingerprint, "w") as handle:
            json.dump({"scenario": label, "fingerprint": fingerprint},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote fingerprint : {args.write_fingerprint}", file=out)
    if expected is not None:
        if expected != fingerprint:
            print("FINGERPRINT MISMATCH", file=out)
            print(f"  expected: {json.dumps(expected, sort_keys=True)}",
                  file=out)
            print(f"  actual  : {json.dumps(fingerprint, sort_keys=True)}",
                  file=out)
            return 1
        print("fingerprint check : ok", file=out)
    return 0


def _command_run(args, out) -> int:
    if args.scenario is not None:
        if args.workload is not None:
            print("error: give either a workload name or --scenario, "
                  "not both", file=out)
            return 2
        return _command_run_scenario(args, out)
    if args.workload is None:
        print("error: a workload name (or --scenario FILE) is required; "
              "see 'repro list'", file=out)
        return 2
    scenario_only = [flag for flag, given in (
        ("--expect-fingerprint", args.expect_fingerprint is not None),
        ("--write-fingerprint", args.write_fingerprint is not None),
        ("--jobs", args.jobs is not None),
        ("--cache-dir", args.cache_dir is not None),
    ) if given]
    if scenario_only:
        print(f"error: {', '.join(scenario_only)} require(s) --scenario",
              file=out)
        return 2
    prefetcher = args.prefetcher if args.prefetcher is not None else "imp"
    cores = args.cores if args.cores is not None else 16
    seed = args.seed if args.seed is not None else 1
    workload = _make_named_workload(args.workload, seed)
    config = scaled_config(cores)
    if args.partial:
        config = config.with_partial(noc=True, dram=True)
    if args.ooo:
        config = config.with_ooo()
    imp_config = IMPConfig(partial_enabled=args.partial)
    result = run_workload(workload, config, prefetcher=prefetcher,
                          imp_config=imp_config,
                          software_prefetch=args.software_prefetch)
    stats = result.stats
    print(f"workload          : {result.workload}", file=out)
    print(f"prefetcher        : {result.prefetcher}", file=out)
    print(f"cores             : {cores}", file=out)
    print(f"runtime (cycles)  : {result.runtime_cycles}", file=out)
    print(f"throughput (IPC)  : {result.throughput:.3f}", file=out)
    print(f"L1 miss rate      : "
          f"{stats.total_l1_misses / max(1, stats.total_mem_accesses):.3f}",
          file=out)
    print(f"prefetch coverage : {stats.coverage:.3f}", file=out)
    print(f"prefetch accuracy : {stats.accuracy:.3f}", file=out)
    print(f"NoC traffic (KiB) : {stats.traffic.noc_bytes / 1024:.0f}", file=out)
    print(f"DRAM traffic (KiB): {stats.traffic.dram_bytes / 1024:.0f}", file=out)
    return 0


def _command_compare(args, out) -> int:
    workload = _make_named_workload(args.workload, args.seed)
    rows = []
    reference = None
    for mode in args.modes:
        config, prefetcher, imp_config, software = experiment_config(
            mode, args.cores, base_config=scaled_config(args.cores))
        result = run_workload(workload, config, prefetcher=prefetcher,
                              imp_config=imp_config,
                              software_prefetch=software)
        if mode == "perfpref":
            reference = result
        rows.append((mode, result))
    print(f"{args.workload} at {args.cores} cores", file=out)
    print(f"{'mode':22s} {'cycles':>10s} {'vs perfpref':>12s} {'coverage':>9s}",
          file=out)
    for mode, result in rows:
        normalised = (result.normalized_throughput(reference)
                      if reference is not None else float("nan"))
        print(f"{mode:22s} {result.runtime_cycles:10d} {normalised:12.3f} "
              f"{result.stats.coverage:9.2f}", file=out)
    return 0


def _backend_args(args, out) -> Optional[tuple]:
    """Validate the --backend/--shard pairing; returns ``(backend,
    shards)`` or ``None`` after printing a usage error (exit 2)."""
    backend = getattr(args, "backend", None)
    shards = getattr(args, "shards", None) or []
    if shards and backend != "service":
        print("error: --shard requires --backend service", file=out)
        return None
    if backend == "service" and not shards:
        print("error: --backend service needs at least one "
              "--shard URL (a repro serve endpoint)", file=out)
        return None
    return backend, shards


def _sweep_runner(args, n_cores: int, policy=None,
                  journal=None) -> ExperimentRunner:
    return ExperimentRunner(scale=args.scale, seed=args.seed,
                            base_config=scaled_config(n_cores),
                            jobs=args.jobs, cache_dir=args.cache_dir,
                            use_cache=not args.no_cache,
                            policy=policy, journal=journal,
                            backend=getattr(args, "backend", None),
                            shards=getattr(args, "shards", None) or ())


def _sweep_journal(args, label_doc, out, sweep_id=None):
    """The durable journal for one ``repro sweep`` invocation, keyed by a
    stable identity of what is being swept so ``--resume`` finds it."""
    import hashlib
    import json
    from pathlib import Path

    from repro.experiments.sweep import SweepJournal

    if args.no_cache or not args.cache_dir:
        return None
    label = json.dumps(label_doc, sort_keys=True)
    key = hashlib.sha256(label.encode()).hexdigest()[:16]
    path = Path(args.cache_dir) / f"journal-{key}.jsonl"
    journal = SweepJournal(path, resume=args.resume, label=label,
                           sweep_id=sweep_id)
    if journal.mismatched:
        print(f"[sweep] warning: journal {path.name} was written for a "
              f"different spec set (sweep_id "
              f"{journal.header_sweep_id[:12]}… != {sweep_id[:12]}…); "
              f"ignoring it and starting a fresh journal", file=out)
    elif args.resume and journal.resumed:
        print(f"[sweep] resuming from {path.name}: {journal.resumed} "
              f"run(s) previously completed", file=out)
    return journal


def _command_figure(args, out) -> int:
    if _backend_args(args, out) is None:
        return 2
    if args.scenario is not None:
        if args.cores is not None:
            print("error: --cores cannot be combined with --scenario "
                  "(the scenario file sets the core count)", file=out)
            return 2
        try:
            scenario = load_scenario(args.scenario)
        except ValueError as exc:
            # ScenarioError / RegistryError: the message lists the choices.
            print(f"error: {exc}", file=out)
            return 2
        _, config, imp_cfg = scenario.resolve()
        cores = scenario.n_cores
        runner = ExperimentRunner(scale=args.scale, seed=args.seed,
                                  base_config=config, jobs=args.jobs,
                                  cache_dir=args.cache_dir,
                                  use_cache=not args.no_cache,
                                  imp_config=imp_cfg,
                                  backend=getattr(args, "backend", None),
                                  shards=getattr(args, "shards", None)
                                  or ())
        label = scenario.name or args.scenario
        print(f"platform from scenario: {label} "
              f"({cores} cores)", file=out)
    else:
        cores = args.cores if args.cores is not None else 16
        runner = _sweep_runner(args, cores)
    rows = FIGURES[args.name](runner, cores)
    print(figures.format_table(rows), file=out)
    return 0


def _command_sweep_scenario_dir(args, out, policy=None) -> int:
    import json
    from pathlib import Path

    from repro.experiments.sweep import ResultCache, SweepEngine, sweep_id

    directory = Path(args.scenario_dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=out)
        return 2
    files = sorted(path for path in directory.glob("*.json")
                   if not path.name.endswith(".fingerprint.json"))
    if not files:
        print(f"error: no scenario files (*.json) in {directory}", file=out)
        return 2
    scenarios = []
    for path in files:
        try:
            scenarios.append((path, load_scenario(path)))
        except ValueError as exc:
            # ScenarioError / RegistryError: the message lists the choices.
            print(f"error: {path.name}: {exc}", file=out)
            return 2
    # One batched engine run: duplicate scenarios (same canonical RunSpec)
    # simulate once, and the persistent cache memoises across invocations.
    workloads = {}
    specs = []
    for path, scenario in scenarios:
        spec = scenario.to_runspec()
        if spec not in workloads:
            workloads[spec] = scenario.resolve()[0]
            specs.append(spec)
    cache = (ResultCache(args.cache_dir)
             if (args.cache_dir and not args.no_cache) else None)
    journal = _sweep_journal(
        args, {"scenario_dir": str(directory.resolve())}, out,
        sweep_id=sweep_id(specs))
    engine = SweepEngine(jobs=args.jobs, cache=cache, policy=policy,
                         journal=journal,
                         backend=getattr(args, "backend", None),
                         shards=getattr(args, "shards", None) or ())
    results = engine.run(specs, workload_lookup=workloads.get)
    failures = 0
    width = max(len(path.name) for path, _ in scenarios)
    for path, scenario in scenarios:
        result = results[scenario.to_runspec()]
        fingerprint = result.stats.fingerprint()
        expect_path = path.with_suffix(".fingerprint.json")
        if expect_path.exists():
            try:
                with open(expect_path) as handle:
                    expected = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"{path.name:{width}s}  ERROR reading "
                      f"{expect_path.name}: {exc}", file=out)
                failures += 1
                continue
            if isinstance(expected, dict):
                expected = expected.get("fingerprint", expected)
            if expected == fingerprint:
                status = "fingerprint ok"
            else:
                status = "FINGERPRINT MISMATCH"
                failures += 1
        else:
            status = "no expectation"
        print(f"{path.name:{width}s}  {result.runtime_cycles:10d} cycles  "
              f"{status}", file=out)
    cache_note = (f"cache hits {cache.hits}, stores {cache.stores}"
                  if cache else "cache disabled")
    print(f"[sweep] {len(scenarios)} scenarios, {len(specs)} unique runs, "
          f"{engine.simulations_run} simulated "
          f"({engine.backend.name} backend, {engine.jobs} jobs, "
          f"{cache_note})", file=out)
    if cache is not None:
        _warn_quarantined(args.cache_dir, out)
    return 1 if failures else 0


def _command_sweep(args, out) -> int:
    from repro.experiments.sweep import RunPolicy, SweepError, \
        write_failure_report

    if args.scenario_dir is not None and args.figures is not None:
        print("error: give either --figures or --scenario-dir, "
              "not both", file=out)
        return 2
    if _backend_args(args, out) is None:
        return 2
    if args.resume and (args.no_cache or not args.cache_dir):
        print("error: --resume needs the persistent cache (it cannot be "
              "combined with --no-cache)", file=out)
        return 2
    policy = RunPolicy(timeout=args.timeout, retries=args.retries,
                       backoff=args.backoff,
                       keep_going=not args.fail_fast)
    try:
        with _sigterm_raises():
            if args.scenario_dir is not None:
                return _command_sweep_scenario_dir(args, out, policy)
            return _command_sweep_figures(args, out, policy)
    except KeyboardInterrupt:
        print("[sweep] interrupted — pool shut down, journal flushed; "
              "rerun with --resume to pick up where it stopped", file=out)
        return EXIT_INTERRUPTED
    except _Terminated:
        print("[sweep] terminated (SIGTERM) — pool shut down, journal "
              "flushed; rerun with --resume to pick up where it stopped",
              file=out)
        return EXIT_TERMINATED
    except SweepError as exc:
        completed = len(exc.results)
        report = write_failure_report(
            args.failures_out, exc.failures, total=completed
            + len(exc.failures), completed=completed, policy=policy,
            sweep_label=args.scenario_dir or "figures")
        print(f"[sweep] {len(exc.failures)} run(s) permanently failed "
              f"after retries; {completed} completed "
              f"({'abandoned outstanding work' if args.fail_fast else 'kept going'})",
              file=out)
        for failure in exc.failures[:10]:
            print(f"  {failure.kind:12s} {failure.workload}/{failure.mode}"
                  f"@{failure.n_cores}c  after {failure.attempts} "
                  f"attempt(s): {failure.error}", file=out)
        if len(exc.failures) > 10:
            print(f"  ... and {len(exc.failures) - 10} more", file=out)
        print(f"[sweep] failure report: {args.failures_out} "
              f"({report['schema']})", file=out)
        return EXIT_RUN_FAILURES


def _command_serve(args, out) -> int:
    """Run the crash-safe sweep service until SIGTERM/SIGINT, then drain
    gracefully and exit with the sweep contract's signal codes."""
    import threading

    from repro.experiments.sweep import RunPolicy
    from repro.service import ServiceApp

    if args.queue_depth < 1:
        print("error: --queue-depth must be at least 1", file=out)
        return 2
    if not args.cache_dir:
        print("error: serve needs a persistent --cache-dir (the durable "
              "job journal lives there)", file=out)
        return 2
    policy = RunPolicy(timeout=args.timeout, retries=args.retries,
                       backoff=args.backoff)
    try:
        app = ServiceApp(args.cache_dir, host=args.host, port=args.port,
                         queue_depth=args.queue_depth, jobs=args.jobs,
                         policy=policy)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=out)
        return 2
    stop = threading.Event()
    exit_code = [0]

    def _on_signal(signum, frame):
        exit_code[0] = (EXIT_INTERRUPTED if signum == signal.SIGINT
                        else EXIT_TERMINATED)
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:      # not the main thread (embedded use)
            pass
    try:
        app.start()
        if app.recovered:
            print(f"[serve] recovered {app.recovered} interrupted job(s) "
                  f"from the journal; re-enqueued", file=out)
        if app.store.corrupt_lines:
            print(f"[serve] journal replay skipped "
                  f"{app.store.corrupt_lines} corrupt line(s) (torn "
                  f"writes); affected jobs resume from their last durable "
                  f"state", file=out)
        # ``port=N`` is a stable, parse-friendly token: scripts that pass
        # --port 0 scrape it to learn the kernel-assigned port.
        print(f"[serve] listening on {app.url} port={app.port} "
              f"(cache {app.cache_dir}, queue depth "
              f"{args.queue_depth})", file=out, flush=True)
        print(f"[serve] POST /v1/jobs to submit scenarios; SIGTERM "
              f"drains gracefully (deadline {args.drain_timeout:g}s)",
              file=out, flush=True)
        while not stop.wait(timeout=1.0):
            pass
        label = ("SIGINT" if exit_code[0] == EXIT_INTERRUPTED
                 else "SIGTERM")
        print(f"[serve] {label} received — admissions stopped, draining "
              f"up to {args.drain_timeout:g}s", file=out, flush=True)
        drained = app.stop(drain_timeout=args.drain_timeout)
        if drained:
            print("[serve] drained cleanly: all accepted jobs completed; "
                  "journal closed", file=out, flush=True)
        else:
            print("[serve] drain deadline passed: remaining jobs "
                  "journalled interrupted (recovered on next boot)",
                  file=out, flush=True)
        return exit_code[0]
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _command_sweep_figures(args, out, policy=None) -> int:
    names = args.figures or sorted(FIGURES)
    journal = _sweep_journal(
        args, {"figures": names, "cores": args.cores, "scale": args.scale,
               "seed": args.seed}, out)
    runner = _sweep_runner(args, args.cores[0], policy=policy,
                           journal=journal)
    # Declare the whole cross-product up front so runs shared between
    # figures are simulated exactly once, then render from cache.
    requested = figures.prefetch_figures(runner, names, args.cores)
    for name in names:
        if name == "fig9":  # multi-core-count figures sweep all of --cores
            result = figures.fig09_performance(runner,
                                               core_counts=args.cores)
        elif name == "fig11":
            result = figures.fig11_partial(runner, core_counts=args.cores)
        else:
            result = FIGURES[name](runner, args.cores[0])
        if isinstance(result, dict):
            for n_cores, rows in sorted(result.items()):
                print(f"== {name} ({n_cores} cores) ==", file=out)
                print(figures.format_table(rows), file=out)
        else:
            print(f"== {name} ==", file=out)
            print(figures.format_table(result), file=out)
    engine = runner.engine
    cache = engine.cache
    cache_note = (f"cache hits {cache.hits}, stores {cache.stores}"
                  if cache else "cache disabled")
    print(f"[sweep] {requested} requested runs, "
          f"{engine.simulations_run} simulated "
          f"({engine.backend.name} backend, {engine.jobs} jobs, "
          f"{cache_note})", file=out)
    if cache is not None:
        _warn_quarantined(args.cache_dir, out)
    return 0


def _command_profile(args, out) -> int:
    import json

    from repro.experiments.profile import (WORKLOADS, format_report,
                                           profile_run)

    if args.workload not in WORKLOADS:
        print(f"error: unknown profile workload {args.workload!r}; "
              f"try: {', '.join(WORKLOADS)}", file=out)
        return 2
    document = profile_run(args.workload, prefetcher=args.prefetcher,
                           cores=args.cores, seed=args.seed,
                           quick=args.quick)
    format_report(document, top=args.top, out=out)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}", file=out)
    return 0


def _command_cost(out) -> int:
    cost = figures.sec64_hardware_cost()
    width = max(len(key) for key in cost)
    for key, value in cost.items():
        print(f"{key:{width}s} : {value:.3f}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    kernel = os.environ.get("REPRO_NOC_KERNEL")
    if kernel:
        # Every mesh would raise on this name deep inside a run (or a
        # sweep worker); refuse it once, up front, like a bad scenario.
        try:
            NOC_KERNELS.get(kernel)
        except RegistryError as exc:
            print(f"error: $REPRO_NOC_KERNEL: {exc}", file=out)
            return 2
    try:
        FaultPlan.from_env()
    except FaultInjectionError as exc:
        print(f"error: ${FAULTS_ENV_VAR}: {exc}", file=out)
        return 2
    # Every --cores flag (a list for ``sweep``) feeds SystemConfig; refuse
    # a count the mesh cannot tile here, not as a traceback mid-command.
    cores = getattr(args, "cores", None)
    for n_cores in cores if isinstance(cores, list) else [cores]:
        if n_cores is not None:
            try:
                SystemConfig(n_cores=n_cores)
            except ValueError as exc:
                print(f"error: --cores: {exc}", file=out)
                return 2
    if args.command == "list":
        return _command_registry_list(args, out)
    if args.command == "run":
        return _command_run(args, out)
    if args.command == "compare":
        return _command_compare(args, out)
    if args.command in ("figure", "table"):
        return _command_figure(args, out)
    if args.command == "sweep":
        return _command_sweep(args, out)
    if args.command == "serve":
        return _command_serve(args, out)
    if args.command == "cache":
        return _command_cache_doctor(args, out)
    if args.command == "cost":
        return _command_cost(out)
    if args.command == "profile":
        return _command_profile(args, out)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
