"""Experiment runner with result caching.

Several figures share the same underlying simulations (e.g. the *Base* run
at 64 cores appears in Figures 2, 9b and 10), so the runner memoises results
by (workload, mode, core count, IMP-config signature) in memory, and —
when a cache directory is configured — persists them on disk via
:class:`repro.experiments.sweep.ResultCache` so repeated figure builds
across CLI invocations only simulate what changed.

Figures declare the runs they need up front and request them through
:meth:`ExperimentRunner.prefetch`, which deduplicates the batch and (with
``jobs > 1``) executes the outstanding simulations across a worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import IMPConfig
from repro.experiments.configs import experiment_config
from repro.experiments.sweep import (ResultCache, RunPolicy, RunSpec,
                                     SweepEngine, SweepJournal, _freeze)
from repro.sim.config import SystemConfig
from repro.sim.system import SimulationResult, run_workload
from repro.workloads import paper_workloads
from repro.workloads.base import Workload, WorkloadSpecError


@dataclass
class RunRecord:
    """One simulation result plus the knobs that produced it."""

    workload: str
    mode: str
    n_cores: int
    result: SimulationResult

    @property
    def runtime(self) -> int:
        return self.result.runtime_cycles

    @property
    def throughput(self) -> float:
        return self.result.throughput


class RunRequest(NamedTuple):
    """One simulation a figure declares it will need (see ``prefetch``)."""

    workload: str
    mode: str
    n_cores: int = 64
    imp_config: Optional[IMPConfig] = None
    sw_prefetch_distance: int = 8


def _imp_signature(imp_config: Optional[IMPConfig]) -> Tuple:
    """Canonical in-memory cache signature of an IMP configuration.

    ``None`` and ``IMPConfig()`` resolve to the same simulation (see
    :func:`repro.experiments.configs.experiment_config`), so they share a
    signature; any field difference — including nested stream-prefetcher
    knobs — produces a distinct one.
    """
    return _freeze((imp_config or IMPConfig()).to_dict())


class ExperimentRunner:
    """Runs (and caches) the paper's named configurations over workloads.

    ``jobs`` selects the sweep worker count (default: ``$REPRO_JOBS``,
    else serial).  ``cache_dir`` enables the persistent on-disk result
    cache; ``use_cache=False`` bypasses it without forgetting the path.
    """

    def __init__(self, workloads: Optional[Sequence[Workload]] = None,
                 scale: float = 1.0, seed: int = 1,
                 base_config: Optional[SystemConfig] = None,
                 jobs: Optional[int] = None, cache_dir=None,
                 use_cache: bool = True,
                 imp_config: Optional[IMPConfig] = None,
                 policy: Optional[RunPolicy] = None,
                 journal: Optional[SweepJournal] = None,
                 backend=None, shards: Sequence[str] = ()) -> None:
        self.workloads: List[Workload] = (
            list(workloads) if workloads is not None
            else paper_workloads(scale=scale, seed=seed))
        self.base_config = base_config
        #: Default IMP configuration substituted into requests that do not
        #: carry their own (``repro figure --scenario`` routes a scenario's
        #: ``imp`` overrides through this).  ``None`` keeps the stock
        #: Table 2 parameters, exactly as before.
        self.default_imp_config = imp_config
        disk_cache = (ResultCache(cache_dir)
                      if (cache_dir is not None and use_cache) else None)
        self.engine = SweepEngine(jobs=jobs, cache=disk_cache,
                                  policy=policy, journal=journal,
                                  backend=backend, shards=shards)
        self._cache: Dict[Tuple, RunRecord] = {}

    # ------------------------------------------------------------------
    def workload_names(self) -> List[str]:
        return [w.name for w in self.workloads]

    def _workload(self, name: str) -> Workload:
        for workload in self.workloads:
            if workload.name == name:
                return workload
        raise KeyError(f"workload {name!r} not registered with this runner")

    def _key(self, request: RunRequest) -> Tuple:
        return (request.workload, request.mode, request.n_cores,
                _imp_signature(request.imp_config),
                request.sw_prefetch_distance)

    def _spec(self, workload: Workload,
              request: RunRequest) -> Optional[RunSpec]:
        """Spec for a request, or ``None`` when the workload cannot be
        serialised (it then runs in-process, without the disk cache)."""
        try:
            return RunSpec.for_run(workload, request.mode, request.n_cores,
                                   imp_config=request.imp_config,
                                   base_config=self.base_config,
                                   sw_prefetch_distance=(
                                       request.sw_prefetch_distance))
        except WorkloadSpecError:
            return None

    def _run_unspecable(self, workload: Workload,
                        request: RunRequest) -> SimulationResult:
        config, prefetcher, imp_cfg, software = experiment_config(
            request.mode, request.n_cores, request.imp_config,
            self.base_config)
        self.engine.simulations_run += 1
        return run_workload(workload, config, prefetcher=prefetcher,
                            imp_config=imp_cfg, software_prefetch=software,
                            sw_prefetch_distance=request.sw_prefetch_distance)

    # ------------------------------------------------------------------
    def run(self, workload: str, mode: str, n_cores: int = 64,
            imp_config: Optional[IMPConfig] = None,
            sw_prefetch_distance: int = 8) -> RunRecord:
        """Run one (workload, mode, core count) point, with caching."""
        if imp_config is None:
            imp_config = self.default_imp_config
        request = RunRequest(workload, mode, n_cores, imp_config,
                             sw_prefetch_distance)
        key = self._key(request)
        record = self._cache.get(key)
        if record is not None:
            return record
        workload_obj = self._workload(workload)
        spec = self._spec(workload_obj, request)
        if spec is None:
            result = self._run_unspecable(workload_obj, request)
        else:
            result = self.engine.run(
                [spec], workload_lookup=lambda _: workload_obj)[spec]
        record = RunRecord(workload=workload, mode=mode, n_cores=n_cores,
                           result=result)
        self._cache[key] = record
        return record

    # ------------------------------------------------------------------
    def prefetch(self, requests: Iterable[RunRequest]) -> None:
        """Batch-execute every not-yet-cached request, in one sweep.

        Figures call this with the full list of runs they are about to
        consume; shared runs are deduplicated here (and against the
        in-memory and on-disk caches), and with ``jobs > 1`` the
        outstanding simulations execute across the worker pool.  After
        ``prefetch`` returns, the figure's ``run`` calls are all hits.
        """
        pending: Dict[Tuple, Tuple[Optional[RunSpec], Workload, RunRequest]] \
            = {}
        for item in requests:
            request = RunRequest(*item)
            if request.imp_config is None and self.default_imp_config is not None:
                request = request._replace(imp_config=self.default_imp_config)
            key = self._key(request)
            if key in self._cache or key in pending:
                continue
            workload_obj = self._workload(request.workload)
            pending[key] = (self._spec(workload_obj, request), workload_obj,
                            request)
        spec_lookup = {spec: workload for spec, workload, _
                       in pending.values() if spec is not None}
        results = self.engine.run(list(spec_lookup),
                                  workload_lookup=spec_lookup.get)
        for key, (spec, workload_obj, request) in pending.items():
            if spec is not None:
                result = results[spec]
            else:
                result = self._run_unspecable(workload_obj, request)
            self._cache[key] = RunRecord(workload=request.workload,
                                         mode=request.mode,
                                         n_cores=request.n_cores,
                                         result=result)
