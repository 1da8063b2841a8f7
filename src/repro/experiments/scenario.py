"""Declarative scenario specifications.

A *scenario* is a plain dict (usually a JSON file) that names a complete
simulation point: workload + parameters, experiment mode, core count, and
optional system/IMP configuration overrides — including an explicit cache
:class:`~repro.sim.config.HierarchyConfig` (see
``examples/scenarios/hybrid_stream_l1_imp_l2.json``: a stream prefetcher
at every L1 plus IMP at the private L2s).  A scenario resolves
deterministically into a :class:`repro.experiments.sweep.RunSpec`, and
therefore flows through the sweep engine, the worker pool and the
persistent on-disk result cache exactly like the built-in figures.

``system`` keys override fields of the scaled experiment platform
(:func:`repro.experiments.configs.scaled_config`), nested ``l1d`` /
``noc`` / ``dram`` / ``hierarchy`` mappings spelling their classes'
fields; ``imp`` keys override :class:`repro.core.config.IMPConfig`
fields.  Two scenario files that spell the same configuration — whatever
their key order — produce the same canonical form, the same
:class:`RunSpec` and the same cache digest.

Every value is validated up front against the declared input contract
(:mod:`repro.contract`): each field's exact type and range, nothing
coerced, workload parameters under one rule read from the workload
constructor's annotations (an ``int`` size is positive, ``seed``
non-negative, a ``float`` positive, a ``bool`` exact), and registry names
against their registries.  Whatever is wrong raises one
:class:`ScenarioError` naming the section, the field, its range and the
value, e.g. ``bad system.dram: latency_cycles must be non-negative (an
int >= 0, below 2**31), got -100``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro.contract import (POSITIVE, check, check_keys, check_params,
                            registered)
from repro.core.config import IMPConfig
from repro.experiments.configs import scaled_config
from repro.experiments.sweep import ResultCache, RunSpec, SweepEngine
from repro.prefetchers.stream import StreamPrefetcherConfig
from repro.registry import MODES, WORKLOADS
from repro.sim.config import MESH_CORES, NESTED_CONFIGS, SystemConfig
from repro.sim.system import SimulationResult
from repro.workloads.base import Workload


class ScenarioError(ValueError):
    """A scenario document is malformed (unknown keys, bad values)."""


#: Top-level keys a scenario document may carry.
_SCENARIO_KEYS = ("name", "description", "workload", "workload_params",
                  "mode", "n_cores", "system", "imp",
                  "sw_prefetch_distance")


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario, ready to resolve into a :class:`RunSpec`."""

    workload: str
    mode: str = "base"
    n_cores: int = 16
    name: str = ""
    description: str = ""
    workload_params: Mapping = field(default_factory=dict)
    system: Mapping = field(default_factory=dict)
    imp: Mapping = field(default_factory=dict)
    sw_prefetch_distance: int = 8

    RANGES = {"workload": registered(WORKLOADS), "mode": registered(MODES),
              "n_cores": MESH_CORES, "sw_prefetch_distance": POSITIVE}

    def __post_init__(self) -> None:
        # Resolve once so every bad value (a top-level field, a workload
        # parameter, a nested config field, the hierarchy shape) fails
        # here, at validation time, not deep inside system construction.
        self.resolve()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScenarioSpec":
        check_keys(doc, _SCENARIO_KEYS, "scenario", ScenarioError)
        if "workload" not in doc:
            raise ScenarioError("scenario must name a 'workload'")
        return cls(**{key: doc[key] for key in _SCENARIO_KEYS if key in doc})

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError("scenario JSON must be an object")
        return cls.from_dict(doc)

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path}: "
                                f"{exc}") from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self) -> Tuple[Workload, SystemConfig, IMPConfig]:
        """Instantiate the workload and the fully resolved configurations.

        Memoised on the (frozen) spec: validation, digest computation and
        execution all need the resolution, and workload construction is
        the expensive part (paper workloads build graphs/matrices).
        """
        cached = getattr(self, "_resolved", None)
        if cached is None:
            cached = self._resolve()
            object.__setattr__(self, "_resolved", cached)
        return cached

    def _resolve(self) -> Tuple[Workload, SystemConfig, IMPConfig]:
        where = ""          # the document path being built, for errors
        try:
            check(self)
            check_keys(self.system,
                       tuple(f.name for f in fields(SystemConfig)), "system")
            if "n_cores" in self.system:
                raise ScenarioError(
                    "set the core count with the top-level 'n_cores' key, "
                    "not inside 'system'")
            check_keys(self.imp,
                       tuple(f.name for f in fields(IMPConfig)), "imp")
            where = "workload_params"
            factory = WORKLOADS.get(self.workload).factory
            check_params(factory, self.workload_params)
            workload = factory(**self.workload_params)
            overrides: Dict = {}
            for key, value in self.system.items():
                where = f"system.{key}"
                if key in NESTED_CONFIGS and isinstance(value, Mapping):
                    value = NESTED_CONFIGS[key](**value)
                overrides[key] = value
            where = "system"
            config = replace(scaled_config(self.n_cores), **overrides)
            imp_overrides: Dict = dict(self.imp)
            where = "imp.stream"
            if isinstance(imp_overrides.get("stream"), Mapping):
                imp_overrides["stream"] = StreamPrefetcherConfig(
                    **imp_overrides["stream"])
            where = "imp"
            imp_config = replace(IMPConfig(), **imp_overrides)
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad {where}: {exc}" if where
                                else str(exc)) from None
        return workload, config, imp_config

    def to_runspec(self) -> RunSpec:
        """The :class:`RunSpec` (and therefore cache identity) of this
        scenario.  Equal scenarios yield equal specs and digests whatever
        the key order of the source document.  Memoised: the spec is
        immutable, and one CLI run asks for it several times (validation,
        digest display, execution)."""
        spec = getattr(self, "_runspec", None)
        if spec is None:
            workload, config, imp_config = self.resolve()
            spec = RunSpec.for_run(
                workload, self.mode, self.n_cores, imp_config=imp_config,
                base_config=config,
                sw_prefetch_distance=self.sw_prefetch_distance)
            object.__setattr__(self, "_runspec", spec)
        return spec

    def digest(self) -> str:
        """Cache digest of the resolved run (sha256, see ``RunSpec``)."""
        return self.to_runspec().digest()

    def canonical_dict(self) -> Dict:
        """The fully resolved, order-independent form of this scenario
        (its cache identity — result-neutral fields such as the NoC
        kernel backend are stripped, see ``RunSpec.canonical_dict``)."""
        return self.to_runspec().canonical_dict()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *, jobs: Optional[int] = None, cache_dir=None,
            use_cache: bool = True) -> SimulationResult:
        """Simulate this scenario (through the sweep engine and, when a
        cache directory is given, the persistent result cache)."""
        workload = self.resolve()[0]
        spec = self.to_runspec()
        cache = (ResultCache(cache_dir)
                 if (cache_dir is not None and use_cache) else None)
        engine = SweepEngine(jobs=jobs, cache=cache)
        # Hand the already-built workload to the serial path so one CLI
        # scenario run pays for a single trace build.
        return engine.run([spec], workload_lookup=lambda _: workload)[spec]


def load_scenario(path) -> ScenarioSpec:
    """Load and validate a scenario JSON file."""
    return ScenarioSpec.from_file(path)


__all__ = ["ScenarioError", "ScenarioSpec", "load_scenario"]
