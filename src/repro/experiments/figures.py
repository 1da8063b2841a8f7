"""Per-figure / per-table experiment definitions.

Every public function here regenerates one table or figure of the paper's
evaluation and returns plain dictionaries / lists that the benchmark harness
prints.  The functions only need an :class:`ExperimentRunner`; the runner
decides the workload sizes and platform scale.

Reproduced artefacts:

========  ==========================================================
Figure 1  L1 miss breakdown (indirect / stream / other)
Figure 2  Runtime normalised to Ideal + PerfPref bound
Figure 9  Throughput of Base / IMP / SW-pref normalised to PerfPref
Table 3   Prefetch coverage / accuracy / relative latency
Figure 10 Instruction overhead of software prefetching
Figure 11 Partial cacheline accessing (NoC, NoC+DRAM) vs Ideal
Figure 12 NoC and DRAM traffic with partial accessing
Figure 13 In-order vs out-of-order cores
Figure 14 PT size sensitivity
Figure 15 IPD size sensitivity
Figure 16 Max prefetch distance sensitivity
Sec. 6.4  Storage and energy cost
========  ==========================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import IMPConfig
from repro.core.cost import energy_overhead, storage_cost_bits
from repro.experiments.configs import scaled_config
from repro.experiments.runner import ExperimentRunner, RunRequest
from repro.sim.trace import AccessKind


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Per-figure run declarations
# ----------------------------------------------------------------------
# Every figure declares the simulations it needs up front as a list of
# RunRequests.  The figure functions prefetch that list before reading any
# result, so shared runs (e.g. the Base run at 64 cores used by Figures
# 2, 9b and 10) are requested once through the batched — and, with
# ``jobs > 1``, parallel — sweep path instead of implicitly via per-figure
# cache lookups.  ``repro sweep`` concatenates the declarations of every
# selected figure and prefetches the whole union in a single batch.

def _mode_requests(runner: ExperimentRunner, modes: Sequence[str],
                   core_counts: Iterable[int]) -> List[RunRequest]:
    return [RunRequest(workload, mode, n_cores)
            for n_cores in core_counts
            for workload in runner.workload_names()
            for mode in modes]


def fig01_requests(runner, n_cores: int = 64) -> List[RunRequest]:
    return _mode_requests(runner, ("base",), (n_cores,))


def fig02_requests(runner, n_cores: int = 64) -> List[RunRequest]:
    return _mode_requests(runner, ("ideal", "base", "perfpref"), (n_cores,))


def fig09_requests(runner, core_counts: Iterable[int] = (16, 64, 256),
                   modes: Sequence[str] = ("perfpref", "base", "imp",
                                           "swpref")) -> List[RunRequest]:
    return _mode_requests(runner, modes, core_counts)


def table3_requests(runner, n_cores: int = 64) -> List[RunRequest]:
    return _mode_requests(runner, ("perfpref", "base", "imp"), (n_cores,))


def fig10_requests(runner, n_cores: int = 64) -> List[RunRequest]:
    return _mode_requests(runner, ("base", "imp", "swpref"), (n_cores,))


def fig11_requests(runner, core_counts: Iterable[int] = (16, 64, 256),
                   ) -> List[RunRequest]:
    return _mode_requests(runner, ("perfpref", "imp", "imp_partial_noc",
                                   "imp_partial_noc_dram", "ideal"),
                          core_counts)


def fig12_requests(runner, n_cores: int = 64) -> List[RunRequest]:
    return _mode_requests(runner, ("imp", "imp_partial_noc_dram"), (n_cores,))


def _sensitivity_requests(runner, n_cores: int,
                          configs: Dict[str, IMPConfig]) -> List[RunRequest]:
    return [RunRequest(workload, "imp", n_cores, imp_config)
            for workload in runner.workload_names()
            for imp_config in configs.values()]


def fig14_requests(runner, n_cores: int = 64,
                   sizes: Sequence[int] = (8, 16, 32)) -> List[RunRequest]:
    return _sensitivity_requests(runner, n_cores, _pt_configs(sizes))


def fig15_requests(runner, n_cores: int = 64,
                   sizes: Sequence[int] = (2, 4, 8)) -> List[RunRequest]:
    return _sensitivity_requests(runner, n_cores, _ipd_configs(sizes))


def fig16_requests(runner, n_cores: int = 64,
                   distances: Sequence[int] = (4, 8, 16, 32),
                   ) -> List[RunRequest]:
    return _sensitivity_requests(runner, n_cores, _distance_configs(distances))


def prefetch_figures(runner: ExperimentRunner, names: Iterable[str],
                     core_counts: Sequence[int]) -> int:
    """Batch-prefetch every run the named figures will need.

    The single entry point behind ``repro sweep``, perfbench's sweep
    workloads and ``reproduce_paper.py``: the union of all declarations executes as one
    deduplicated (and, with ``jobs > 1``, parallel) sweep before any
    figure is rendered.  Returns the number of requested runs.
    """
    requests: List[RunRequest] = []
    for name in names:
        requests.extend(FIGURE_REQUESTS[name](runner, list(core_counts)))
    runner.prefetch(requests)
    return len(requests)


#: Request builders per CLI figure name; each takes ``(runner, core_counts)``
#: where ``core_counts`` is the full list the sweep covers (figures that use
#: a single core count take the first entry).
FIGURE_REQUESTS = {
    "fig1": lambda runner, cores: fig01_requests(runner, cores[0]),
    "fig2": lambda runner, cores: fig02_requests(runner, cores[0]),
    "fig9": lambda runner, cores: fig09_requests(runner, cores),
    "table3": lambda runner, cores: table3_requests(runner, cores[0]),
    "fig10": lambda runner, cores: fig10_requests(runner, cores[0]),
    "fig11": lambda runner, cores: fig11_requests(runner, cores),
    "fig12": lambda runner, cores: fig12_requests(runner, cores[0]),
    "fig14": lambda runner, cores: fig14_requests(runner, cores[0]),
    "fig15": lambda runner, cores: fig15_requests(runner, cores[0]),
    "fig16": lambda runner, cores: fig16_requests(runner, cores[0]),
}


def format_table(rows: List[Dict], columns: Optional[List[str]] = None) -> str:
    """Format a list of row dictionaries as an aligned text table."""
    if not rows:
        return "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: max(len(str(col)),
                       max(len(_fmt(row.get(col))) for row in rows))
              for col in columns}
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(col)).ljust(widths[col])
                               for col in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


# ----------------------------------------------------------------------
# Figure 1: cache miss breakdown
# ----------------------------------------------------------------------
def fig01_miss_breakdown(runner: ExperimentRunner, n_cores: int = 64) -> List[Dict]:
    """Fraction of L1 misses from indirect / stream / other accesses."""
    runner.prefetch(fig01_requests(runner, n_cores))
    rows: List[Dict] = []
    for workload in runner.workload_names():
        record = runner.run(workload, "base", n_cores)
        fractions = record.result.stats.miss_fraction_by_kind()
        rows.append({
            "workload": workload,
            "indirect": fractions[AccessKind.INDIRECT],
            "stream": fractions[AccessKind.INDEX] + fractions[AccessKind.STREAM],
            "other": fractions[AccessKind.OTHER],
        })
    rows.append({
        "workload": "avg",
        "indirect": _mean([r["indirect"] for r in rows]),
        "stream": _mean([r["stream"] for r in rows]),
        "other": _mean([r["other"] for r in rows]),
    })
    return rows


# ----------------------------------------------------------------------
# Figure 2: motivation — runtime normalised to Ideal
# ----------------------------------------------------------------------
def fig02_motivation(runner: ExperimentRunner, n_cores: int = 64) -> List[Dict]:
    """Runtime of the realistic system and PerfPref, normalised to Ideal."""
    runner.prefetch(fig02_requests(runner, n_cores))
    rows: List[Dict] = []
    for workload in runner.workload_names():
        ideal = runner.run(workload, "ideal", n_cores)
        base = runner.run(workload, "base", n_cores)
        perf = runner.run(workload, "perfpref", n_cores)
        ideal_runtime = max(1, ideal.runtime)
        base_stats = base.result.stats
        indirect_stalls = sum(
            core.stall_cycles_by_kind[AccessKind.INDIRECT]
            for core in base_stats.cores)
        total_cycles = max(1, base.runtime * len(base_stats.cores))
        rows.append({
            "workload": workload,
            "norm_runtime": base.runtime / ideal_runtime,
            "indirect_fraction": indirect_stalls / total_cycles,
            "perfpref_norm_runtime": perf.runtime / ideal_runtime,
        })
    rows.append({
        "workload": "avg",
        "norm_runtime": _mean([r["norm_runtime"] for r in rows]),
        "indirect_fraction": _mean([r["indirect_fraction"] for r in rows]),
        "perfpref_norm_runtime": _mean([r["perfpref_norm_runtime"] for r in rows]),
    })
    return rows


# ----------------------------------------------------------------------
# Figure 9: performance of IMP (a/b/c = 16/64/256 cores)
# ----------------------------------------------------------------------
def fig09_performance(runner: ExperimentRunner,
                      core_counts: Iterable[int] = (16, 64, 256),
                      modes: Sequence[str] = ("perfpref", "base", "imp", "swpref"),
                      ) -> Dict[int, List[Dict]]:
    """Throughput normalised to Perfect Prefetching, per core count."""
    core_counts = list(core_counts)
    runner.prefetch(fig09_requests(runner, core_counts, modes))
    results: Dict[int, List[Dict]] = {}
    for n_cores in core_counts:
        rows: List[Dict] = []
        for workload in runner.workload_names():
            reference = runner.run(workload, "perfpref", n_cores)
            row: Dict = {"workload": workload}
            for mode in modes:
                record = runner.run(workload, mode, n_cores)
                row[mode] = record.result.normalized_throughput(reference.result)
            rows.append(row)
        avg_row: Dict = {"workload": "avg"}
        for mode in modes:
            avg_row[mode] = _mean([row[mode] for row in rows])
        rows.append(avg_row)
        results[n_cores] = rows
    return results


def imp_speedup_over_base(fig9_rows: List[Dict]) -> Dict[str, float]:
    """Headline metric: IMP speedup over Base per workload (from Fig. 9 rows)."""
    speedups: Dict[str, float] = {}
    for row in fig9_rows:
        if row["workload"] == "avg":
            continue
        if row.get("base"):
            speedups[row["workload"]] = row["imp"] / row["base"]
    return speedups


# ----------------------------------------------------------------------
# Table 3: prefetch effectiveness
# ----------------------------------------------------------------------
def table3_effectiveness(runner: ExperimentRunner, n_cores: int = 64) -> List[Dict]:
    """Coverage / accuracy / relative latency for stream-only and stream+IMP."""
    runner.prefetch(table3_requests(runner, n_cores))
    rows: List[Dict] = []
    for workload in runner.workload_names():
        perf = runner.run(workload, "perfpref", n_cores)
        base = runner.run(workload, "base", n_cores)
        imp = runner.run(workload, "imp", n_cores)
        perf_latency = max(1e-9, perf.result.stats.avg_mem_latency)
        rows.append({
            "workload": workload,
            "stream_cov": base.result.stats.coverage,
            "stream_acc": base.result.stats.accuracy,
            "stream_lat": base.result.stats.avg_mem_latency / perf_latency,
            "imp_cov": imp.result.stats.coverage,
            "imp_acc": imp.result.stats.accuracy,
            "imp_lat": imp.result.stats.avg_mem_latency / perf_latency,
        })
    rows.append({
        "workload": "avg",
        **{key: _mean([row[key] for row in rows])
           for key in ("stream_cov", "stream_acc", "stream_lat",
                       "imp_cov", "imp_acc", "imp_lat")},
    })
    return rows


# ----------------------------------------------------------------------
# Figure 10: instruction overhead of software prefetching
# ----------------------------------------------------------------------
def fig10_sw_overhead(runner: ExperimentRunner, n_cores: int = 64) -> List[Dict]:
    """Instruction count of IMP and SW-prefetching relative to Base."""
    runner.prefetch(fig10_requests(runner, n_cores))
    rows: List[Dict] = []
    for workload in runner.workload_names():
        base = runner.run(workload, "base", n_cores)
        imp = runner.run(workload, "imp", n_cores)
        sw = runner.run(workload, "swpref", n_cores)
        base_instr = max(1, base.result.stats.total_instructions)
        rows.append({
            "workload": workload,
            "base": 1.0,
            "imp": imp.result.stats.total_instructions / base_instr,
            "swpref": sw.result.stats.total_instructions / base_instr,
        })
    rows.append({
        "workload": "avg",
        "base": 1.0,
        "imp": _mean([r["imp"] for r in rows]),
        "swpref": _mean([r["swpref"] for r in rows]),
    })
    return rows


# ----------------------------------------------------------------------
# Figure 11: partial cacheline accessing
# ----------------------------------------------------------------------
def fig11_partial(runner: ExperimentRunner,
                  core_counts: Iterable[int] = (16, 64, 256)) -> Dict[int, List[Dict]]:
    """IMP with partial accessing (NoC, NoC+DRAM) and Ideal, vs PerfPref."""
    modes = ("imp", "imp_partial_noc", "imp_partial_noc_dram", "ideal")
    core_counts = list(core_counts)
    runner.prefetch(fig11_requests(runner, core_counts))
    results: Dict[int, List[Dict]] = {}
    for n_cores in core_counts:
        rows: List[Dict] = []
        for workload in runner.workload_names():
            reference = runner.run(workload, "perfpref", n_cores)
            row: Dict = {"workload": workload}
            for mode in modes:
                record = runner.run(workload, mode, n_cores)
                row[mode] = record.result.normalized_throughput(reference.result)
            rows.append(row)
        avg_row: Dict = {"workload": "avg"}
        for mode in modes:
            avg_row[mode] = _mean([row[mode] for row in rows])
        rows.append(avg_row)
        results[n_cores] = rows
    return results


# ----------------------------------------------------------------------
# Figure 12: NoC / DRAM traffic reduction
# ----------------------------------------------------------------------
def fig12_traffic(runner: ExperimentRunner, n_cores: int = 64) -> List[Dict]:
    """Traffic with partial accessing normalised to full-cacheline accessing."""
    runner.prefetch(fig12_requests(runner, n_cores))
    rows: List[Dict] = []
    for workload in runner.workload_names():
        full = runner.run(workload, "imp", n_cores)
        partial = runner.run(workload, "imp_partial_noc_dram", n_cores)
        full_noc = max(1, full.result.stats.traffic.noc_bytes)
        full_dram = max(1, full.result.stats.traffic.dram_bytes)
        rows.append({
            "workload": workload,
            "noc_traffic": partial.result.stats.traffic.noc_bytes / full_noc,
            "dram_traffic": partial.result.stats.traffic.dram_bytes / full_dram,
        })
    rows.append({
        "workload": "avg",
        "noc_traffic": _mean([r["noc_traffic"] for r in rows]),
        "dram_traffic": _mean([r["dram_traffic"] for r in rows]),
    })
    return rows


# ----------------------------------------------------------------------
# Figure 13: in-order vs out-of-order cores
# ----------------------------------------------------------------------
def fig13_ooo(workloads: Optional[Sequence] = None, n_cores: int = 64,
              scale: float = 1.0, seed: int = 1,
              jobs: Optional[int] = None, cache_dir=None,
              use_cache: bool = True) -> List[Dict]:
    """IMP and partial accessing on in-order and OoO cores (pagerank, SGD)."""
    from repro.workloads import PagerankWorkload, SGDWorkload

    if workloads is None:
        workloads = [PagerankWorkload(n_vertices=max(64, int(4096 * scale)),
                                      seed=seed),
                     SGDWorkload(n_users=max(64, int(4096 * scale)),
                                 n_items=max(64, int(4096 * scale)),
                                 n_ratings=max(64, int(24576 * scale)),
                                 seed=seed)]
    io_runner = ExperimentRunner(workloads=workloads,
                                 base_config=scaled_config(n_cores),
                                 jobs=jobs, cache_dir=cache_dir,
                                 use_cache=use_cache)
    ooo_runner = ExperimentRunner(workloads=workloads,
                                  base_config=scaled_config(n_cores).with_ooo(),
                                  jobs=jobs, cache_dir=cache_dir,
                                  use_cache=use_cache)
    modes = ("base", "imp", "imp_partial_noc_dram")
    for figure_runner in (io_runner, ooo_runner):
        figure_runner.prefetch(_mode_requests(figure_runner, modes,
                                              (n_cores,)))
    rows: List[Dict] = []
    for workload in io_runner.workload_names():
        base_ooo = ooo_runner.run(workload, "base", n_cores)
        reference = max(1, base_ooo.runtime)
        rows.append({
            "workload": workload,
            "base_io": reference / max(1, io_runner.run(workload, "base", n_cores).runtime),
            "base_ooo": 1.0,
            "imp_io": reference / max(1, io_runner.run(workload, "imp", n_cores).runtime),
            "imp_ooo": reference / max(1, ooo_runner.run(workload, "imp", n_cores).runtime),
            "partial_io": reference / max(1, io_runner.run(
                workload, "imp_partial_noc_dram", n_cores).runtime),
            "partial_ooo": reference / max(1, ooo_runner.run(
                workload, "imp_partial_noc_dram", n_cores).runtime),
        })
    return rows


# ----------------------------------------------------------------------
# Figures 14-16: sensitivity studies
# ----------------------------------------------------------------------
def _pt_configs(sizes: Sequence[int]) -> Dict[str, IMPConfig]:
    return {f"PT={size}": IMPConfig().with_pt_size(size) for size in sizes}


def _ipd_configs(sizes: Sequence[int]) -> Dict[str, IMPConfig]:
    return {f"IPD={size}": IMPConfig().with_ipd_size(size) for size in sizes}


def _distance_configs(distances: Sequence[int]) -> Dict[str, IMPConfig]:
    return {f"Dist={d}": IMPConfig().with_max_distance(d) for d in distances}


def _sensitivity(runner: ExperimentRunner, n_cores: int,
                 configs: Dict[str, IMPConfig], reference_key: str) -> List[Dict]:
    runner.prefetch(_sensitivity_requests(runner, n_cores, configs))
    rows: List[Dict] = []
    for workload in runner.workload_names():
        reference = runner.run(workload, "imp", n_cores,
                               imp_config=configs[reference_key])
        row: Dict = {"workload": workload}
        for label, imp_config in configs.items():
            record = runner.run(workload, "imp", n_cores, imp_config=imp_config)
            row[label] = record.result.normalized_throughput(reference.result)
        rows.append(row)
    avg_row: Dict = {"workload": "avg"}
    for label in configs:
        avg_row[label] = _mean([row[label] for row in rows])
    rows.append(avg_row)
    return rows


def fig14_pt_size(runner: ExperimentRunner, n_cores: int = 64,
                  sizes: Sequence[int] = (8, 16, 32)) -> List[Dict]:
    """Sensitivity to the Prefetch Table size, normalised to PT=16."""
    return _sensitivity(runner, n_cores, _pt_configs(sizes), "PT=16")


def fig15_ipd_size(runner: ExperimentRunner, n_cores: int = 64,
                   sizes: Sequence[int] = (2, 4, 8)) -> List[Dict]:
    """Sensitivity to the IPD size, normalised to IPD=4."""
    return _sensitivity(runner, n_cores, _ipd_configs(sizes), "IPD=4")


def fig16_prefetch_distance(runner: ExperimentRunner, n_cores: int = 64,
                            distances: Sequence[int] = (4, 8, 16, 32)) -> List[Dict]:
    """Sensitivity to the max indirect prefetch distance, normalised to 16."""
    return _sensitivity(runner, n_cores, _distance_configs(distances),
                        "Dist=16")


# ----------------------------------------------------------------------
# Section 6.4: hardware cost
# ----------------------------------------------------------------------
def sec64_hardware_cost(imp_config: Optional[IMPConfig] = None) -> Dict[str, float]:
    """Storage and energy cost of IMP and the Granularity Predictor."""
    config = imp_config or IMPConfig()
    report = storage_cost_bits(config)
    energy = energy_overhead(config)
    return {
        "pt_total_kbits": report.pt_total_bits / 1024,
        "ipd_total_kbits": report.ipd_total_bits / 1024,
        "imp_total_kbits": report.imp_total_bits / 1024,
        "imp_total_bytes": report.imp_total_bytes,
        "gp_total_kbits": report.gp_total_bits / 1024,
        "gp_total_bytes": report.gp_total_bytes,
        "l1_sector_overhead": report.l1_sector_overhead,
        "l2_sector_overhead": report.l2_sector_overhead,
        "pt_energy_vs_l1": energy["pt_vs_l1_access"],
        "gp_energy_vs_l1": energy["gp_vs_l1_access"],
    }
