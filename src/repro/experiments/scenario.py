"""Declarative scenario specifications.

A *scenario* is a plain dict (usually a JSON file) that names a complete
simulation point: workload + parameters, experiment mode, core count, and
optional system/IMP configuration overrides — including an explicit cache
:class:`~repro.sim.config.HierarchyConfig`.  Scenarios are validated
against the component registries up front (unknown workloads, modes, DRAM
models or config fields fail with the full list of valid choices), resolve
deterministically into a :class:`repro.experiments.sweep.RunSpec`, and
therefore flow through the sweep engine, the worker pool and the
persistent on-disk result cache exactly like the built-in figures.

Example (``repro run --scenario my.json``) — a hybrid multi-attach
hierarchy: a stream prefetcher at every L1 plus IMP at the private L2s::

    {
      "name": "hybrid-stream-l1-imp-l2",
      "workload": "indirect_stream",
      "workload_params": {"n_indices": 2048, "n_data": 8192, "seed": 3},
      "mode": "imp",
      "n_cores": 4,
      "system": {
        "hierarchy": {
          "attach": [
            {"level": "l1", "prefetcher": "stream"},
            {"level": "l2", "prefetcher": "imp"}
          ],
          "levels": [
            {"name": "l1", "size_bytes": 16384, "associativity": 4},
            {"name": "l2", "size_bytes": 65536, "associativity": 8,
             "hit_latency": 4},
            {"name": "l3", "size_bytes": 131072, "associativity": 8,
             "scope": "shared", "hit_latency": 8}
          ]
        }
      }
    }

Each ``attach`` entry names a level and (optionally) a registered
prefetcher — omit ``"prefetcher"`` (or set it ``null``) to attach the
experiment mode's choice; name the shared last level to put a per-slice
prefetcher on it.  The legacy single-attach form ``"prefetch_level":
"l2"`` is still accepted and means ``"attach": [{"level": "l2"}]``.

``system`` keys override fields of the scaled experiment platform
(:func:`repro.experiments.configs.scaled_config`); ``imp`` keys override
:class:`repro.core.config.IMPConfig` fields.  Two scenario files that
spell the same configuration — whatever their key order — produce the
same canonical form, the same :class:`RunSpec` and the same cache digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro.core.config import IMPConfig
from repro.experiments.configs import scaled_config
from repro.experiments.sweep import ResultCache, RunSpec, SweepEngine
from repro.prefetchers.stream import StreamPrefetcherConfig
from repro.registry import MODES, WORKLOADS
from repro.sim.config import (CacheConfig, DramConfig, HierarchyConfig,
                              NoCConfig, SystemConfig, check_core_count)
from repro.sim.system import SimulationResult
from repro.workloads.base import Workload


class ScenarioError(ValueError):
    """A scenario document is malformed (unknown keys, bad values)."""


#: Top-level keys a scenario document may carry.
_SCENARIO_KEYS = ("name", "description", "workload", "workload_params",
                  "mode", "n_cores", "system", "imp",
                  "sw_prefetch_distance")

#: ``system`` override keys that take nested dictionaries, with their
#: target config class.
_NESTED_SYSTEM_KEYS = {
    "l1d": CacheConfig,
    "noc": NoCConfig,
    "dram": DramConfig,
}


def _check_keys(doc: Mapping, allowed, what: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(allowed)}")


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

    def __post_init__(self) -> None:
        WORKLOADS.get(self.workload)   # raises listing valid workloads
        MODES.get(self.mode)           # raises listing valid modes
        # Exactly an int: 4.0 would canonicalise to a different digest.
        if type(self.n_cores) is not int:
            raise ScenarioError(
                f"n_cores must be an integer, not {self.n_cores!r}")
        check_core_count(self.n_cores)
        if not isinstance(self.workload_params, Mapping):
            raise ScenarioError("workload_params must be a mapping")
        _check_keys(self.system,
                    tuple(f.name for f in fields(SystemConfig)), "system")
        if "n_cores" in self.system:
            raise ScenarioError(
                "set the core count with the top-level 'n_cores' key, "
                "not inside 'system'")
        _check_keys(self.imp,
                    tuple(f.name for f in fields(IMPConfig)), "imp")
        # Resolve once so bad nested values (cache geometry, DRAM model,
        # hierarchy shape, workload parameters) fail here, at validation
        # time, not deep inside system construction.
        self.resolve()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScenarioSpec":
        _check_keys(doc, _SCENARIO_KEYS, "scenario")
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
        entry = WORKLOADS.get(self.workload)
        try:
            workload = entry.factory(**dict(self.workload_params))
        except TypeError as exc:
            raise ScenarioError(
                f"bad workload_params for {self.workload!r}: {exc}") from exc
        base = scaled_config(self.n_cores)
        overrides: Dict = {}
        for key, value in self.system.items():
            if key in _NESTED_SYSTEM_KEYS and isinstance(value, Mapping):
                try:
                    value = _NESTED_SYSTEM_KEYS[key](**value)
                except (TypeError, ValueError) as exc:
                    raise ScenarioError(
                        f"bad system.{key}: {exc}") from exc
            elif key == "hierarchy" and isinstance(value, Mapping):
                try:
                    value = HierarchyConfig.from_dict(value)
                except (TypeError, ValueError, KeyError) as exc:
                    raise ScenarioError(
                        f"bad system.hierarchy: {exc}") from exc
            overrides[key] = value
        try:
            config = replace(base, **overrides) if overrides else base
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad system overrides: {exc}") from exc
        imp_overrides: Dict = dict(self.imp)
        if isinstance(imp_overrides.get("stream"), Mapping):
            try:
                imp_overrides["stream"] = StreamPrefetcherConfig(
                    **imp_overrides["stream"])
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"bad imp.stream: {exc}") from exc
        try:
            imp_config = (replace(IMPConfig(), **imp_overrides)
                          if imp_overrides else IMPConfig())
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad imp overrides: {exc}") from exc
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
