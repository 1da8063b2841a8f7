"""Parallel sweep engine with a persistent on-disk result cache.

The paper's evaluation is a large cross-product — ~10 workloads x 6+ modes
x {16, 64, 128, 256} cores — and each point is an independent, perfectly
deterministic simulation.  This module turns every simulation request into
a picklable, hashable :class:`RunSpec`, executes deduplicated specs across
a ``ProcessPoolExecutor`` worker pool, and memoises completed results in a
versioned on-disk cache so re-running any figure, table, or
``reproduce_paper.py`` only simulates what changed.

Design rules:

* **Specs, not objects, cross process boundaries.**  A ``RunSpec`` carries
  the workload's registry name + constructor parameters (seed included),
  the experiment mode, the core count, and the full IMP / system
  configuration.  Workers rebuild workloads and configs from the spec;
  live simulators, traces or memory images are never pickled.
* **Deterministic everywhere.**  All workload randomness derives from the
  seed inside the spec, so a spec simulates to bit-identical statistics
  regardless of process, worker count, or execution order.  The engine's
  regression tests assert serial and ``--jobs N`` sweeps produce identical
  stat fingerprints.
* **Per-worker trace-build memoisation.**  Specs are grouped into batches
  that share one (workload, parameters, core count); each batch runs on
  one worker with a single workload object, so the trace build is paid
  once per batch exactly like the serial runner pays it once per sweep.
* **Versioned cache records.**  Cache entries live under ``results/cache/``
  (by convention) as one JSON record per spec digest, carrying the schema
  version, the full spec, a statistics fingerprint, and the serialised
  result.  Any config field change changes the digest; a schema bump,
  spec-digest collision, fingerprint mismatch, or corrupted file is
  quarantined (``results/cache/quarantine/``) and treated as a miss, so
  the entry is recomputed and rewritten without aborting the sweep.
* **Failures are outcomes, not aborts.**  Worker death, per-run wall-clock
  timeouts and transient exceptions are distinguished, retried with
  exponential backoff under a :class:`RunPolicy`, and — only once the
  retry budget is exhausted — reported as structured
  :class:`FailureRecord` entries (``results/failures.json`` via
  :func:`write_failure_report`).  A broken worker pool is rebuilt, and
  after ``max_pool_restarts`` breakages the engine degrades to in-process
  serial execution instead of giving up.  Every completed spec is
  journalled (:class:`SweepJournal`, append-only JSONL under the cache
  directory) so an interrupted sweep resumes from where it died.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.config import IMPConfig
from repro.experiments.configs import experiment_config, scaled_config
from repro.experiments.durable import AppendLog, publish, read_log
from repro.experiments.faults import FaultPlan, TransientFault
from repro.sim.config import SystemConfig
from repro.sim.system import SimulationResult, run_workload
from repro.workloads import workload_from_spec
from repro.workloads.base import Workload, WorkloadSpecError

#: Bump when the record layout or the simulation semantics change in a way
#: that invalidates previously cached results.
#: v2: registry-driven configuration — ``SystemConfig`` gained the
#: ``hierarchy`` field (explicit level chains) and ``CoreStats`` gained
#: shared-L3 counters, so v1 records no longer describe the full spec.
#: v3: per-level prefetcher attachment — ``HierarchyConfig`` serialises an
#: ``attach`` list instead of ``prefetch_level`` (so v2 hierarchy-bearing
#: specs no longer parse into the same canonical form) and ``CoreStats``
#: records may carry dynamic ``lN_*`` counters for >3-level chains.
#: Stale v2 records self-heal: the version check treats them as misses
#: and quarantines them on first lookup.
CACHE_SCHEMA_VERSION = 3

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Subdirectory of the cache that holds quarantined (corrupt) records.
QUARANTINE_DIRNAME = "quarantine"

#: Schema tag of the structured end-of-sweep failure report.
FAILURE_REPORT_SCHEMA = "repro-failures-v1"

#: Schema tag of the append-only sweep journal.
JOURNAL_SCHEMA = "repro-sweep-journal-v1"


def _auto_jobs() -> int:
    """The ``jobs=0`` (auto) resolution: every CPU the host reports."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count under one rule, everywhere.

    Precedence: an explicit ``jobs`` argument, else ``$REPRO_JOBS``, else
    1.  On both explicit and env paths the value ``0`` means *auto* — one
    worker per CPU (``os.cpu_count()``).  An invalid explicit value
    (non-integer or negative) raises :class:`ValueError` with a clean
    message; an invalid ``$REPRO_JOBS`` only warns and falls through to
    1, so a stale environment never aborts a sweep.
    """
    if jobs is not None:
        try:
            jobs = int(jobs)
        except (TypeError, ValueError):
            raise ValueError(
                f"invalid jobs value {jobs!r}: expected a non-negative "
                f"integer (0 = auto: one worker per CPU)") from None
        if jobs < 0:
            raise ValueError(
                f"invalid jobs value {jobs}: expected a non-negative "
                f"integer (0 = auto: one worker per CPU)")
        return _auto_jobs() if jobs == 0 else jobs
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value < 0:
            print(f"[sweep] warning: ignoring invalid "
                  f"{JOBS_ENV_VAR}={env!r} (expected a non-negative "
                  "integer; 0 = auto); using 1 job",
                  file=sys.stderr)
        else:
            return _auto_jobs() if value == 0 else value
    return 1


# ----------------------------------------------------------------------
# Canonical freezing of nested config dictionaries
# ----------------------------------------------------------------------
def _freeze(value):
    """Recursively convert dicts/lists into sorted, hashable tuples."""
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(val)) for key, val in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` for dict-shaped tuples."""
    if isinstance(value, tuple):
        if all(isinstance(item, tuple) and len(item) == 2
               and isinstance(item[0], str) for item in value):
            return {key: _thaw(val) for key, val in value}
        return [_thaw(item) for item in value]
    return value


def _strip_result_neutral(doc: Dict) -> Dict:
    """Drop spec fields that provably never change simulation results.

    Currently exactly one: ``base_config.noc.kernel`` — the NoC
    reservation-kernel backend, whose implementations are contractually
    bit-identical (see :meth:`RunSpec.canonical_dict`).  Returns ``doc``
    itself when nothing needs stripping; copies the affected nesting
    levels (never mutates the input) otherwise, so record-stored specs
    can be normalised in place-free fashion.
    """
    base = doc.get("base_config")
    if isinstance(base, dict):
        noc = base.get("noc")
        if isinstance(noc, dict) and "kernel" in noc:
            doc = dict(doc)
            doc["base_config"] = base = dict(base)
            base["noc"] = {key: value for key, value in noc.items()
                           if key != "kernel"}
    return doc


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully described simulation point, hashable and picklable.

    ``workload_params``, ``imp_config`` and ``base_config`` are stored as
    canonically frozen (sorted, nested) tuples so that two specs built from
    equal configurations compare and hash equal, whatever dict ordering
    they were built from.
    """

    workload: str
    workload_params: Tuple
    mode: str
    n_cores: int
    imp_config: Tuple
    base_config: Tuple
    sw_prefetch_distance: int = 8

    # ------------------------------------------------------------------
    @classmethod
    def for_run(cls, workload: Workload, mode: str, n_cores: int,
                imp_config: Optional[IMPConfig] = None,
                base_config: Optional[SystemConfig] = None,
                sw_prefetch_distance: int = 8) -> "RunSpec":
        """Build the spec for one ``ExperimentRunner.run``-style request.

        ``imp_config=None`` and ``base_config=None`` are normalised to the
        defaults :func:`repro.experiments.configs.experiment_config` would
        resolve them to, so equivalent requests share one cache entry.

        Raises :class:`repro.workloads.base.WorkloadSpecError` when the
        workload cannot be reconstructed from plain parameters (the caller
        should then fall back to in-process execution).
        """
        from repro.registry import WORKLOADS

        name = getattr(workload, "name", None)
        if name not in WORKLOADS or type(workload) is not WORKLOADS.get(name).factory:
            raise WorkloadSpecError(
                f"workload {name!r} ({type(workload).__name__}) is not the "
                f"registered implementation; cannot spec-serialise it")
        resolved_base = (base_config or scaled_config(n_cores))
        if resolved_base.n_cores != n_cores:
            resolved_base = resolved_base.with_cores(n_cores)
        return cls(workload=name,
                   workload_params=_freeze(workload.spec_params()),
                   mode=mode, n_cores=n_cores,
                   imp_config=_freeze((imp_config or IMPConfig()).to_dict()),
                   base_config=_freeze(resolved_base.to_dict()),
                   sw_prefetch_distance=sw_prefetch_distance)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "workload_params": _thaw(self.workload_params),
            "mode": self.mode,
            "n_cores": self.n_cores,
            "imp_config": _thaw(self.imp_config),
            "base_config": _thaw(self.base_config),
            "sw_prefetch_distance": self.sw_prefetch_distance,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "RunSpec":
        return cls(workload=doc["workload"],
                   workload_params=_freeze(doc["workload_params"]),
                   mode=doc["mode"], n_cores=doc["n_cores"],
                   imp_config=_freeze(doc["imp_config"]),
                   base_config=_freeze(doc["base_config"]),
                   sw_prefetch_distance=doc["sw_prefetch_distance"])

    def canonical_dict(self) -> Dict:
        """The spec's cache-identity form: :meth:`to_dict` minus fields
        that provably never change simulation results.

        The NoC reservation-kernel backend (``base_config.noc.kernel``) is
        stripped: every :data:`repro.registry.NOC_KERNELS` backend is
        contractually bit-identical (held to the reference by the
        randomized equivalence suite), and the ``$REPRO_NOC_KERNEL``
        override already swaps backends without touching the digest.
        Stripping the config spelling too keeps one digest per experiment
        whatever backend computes it — and keeps digests (and therefore
        cached results and sweep journals) from before the field existed
        valid.
        """
        doc = self.to_dict()
        return _strip_result_neutral(doc)

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Stable cache key: sha256 over the canonical spec JSON."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def build_key(self) -> Tuple:
        """Specs sharing this key reuse one workload object (and therefore
        one memoised trace build) inside a worker batch."""
        return (self.workload, self.workload_params, self.n_cores,
                self.sw_prefetch_distance)

    def make_workload(self) -> Workload:
        return workload_from_spec(self.workload, _thaw(self.workload_params))


def sweep_id(specs: Iterable[RunSpec]) -> str:
    """A stable identity for a spec set (used to key journal files):
    sha256 over the sorted spec digests, independent of request order."""
    digests = sorted(spec.digest() for spec in specs)
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


# ----------------------------------------------------------------------
# Spec execution (shared by the serial path and pool workers)
# ----------------------------------------------------------------------
def execute_spec(spec: RunSpec,
                 workload: Optional[Workload] = None) -> SimulationResult:
    """Simulate one spec; reconstructs the workload unless one is passed."""
    if workload is None:
        workload = spec.make_workload()
    config, prefetcher, imp_cfg, software = experiment_config(
        spec.mode, spec.n_cores,
        IMPConfig.from_dict(_thaw(spec.imp_config)),
        SystemConfig.from_dict(_thaw(spec.base_config)))
    return run_workload(workload, config, prefetcher=prefetcher,
                        imp_config=imp_cfg, software_prefetch=software,
                        sw_prefetch_distance=spec.sw_prefetch_distance)


def make_record(spec: RunSpec, result: SimulationResult) -> Dict:
    """The JSON cache/transport record for one completed spec."""
    return {"schema": CACHE_SCHEMA_VERSION,
            "spec": spec.to_dict(),
            "fingerprint": result.stats.fingerprint(),
            "result": result.to_dict()}


class FingerprintMismatch(ValueError):
    """A record's stored fingerprint disagrees with its own statistics."""


def record_result(record: Dict) -> SimulationResult:
    """Reconstruct a result from a record, verifying its fingerprint."""
    result = SimulationResult.from_dict(record["result"])
    if result.stats.fingerprint() != record["fingerprint"]:
        raise FingerprintMismatch(
            "cache record fingerprint does not match its stats")
    return result


def _run_batch(payload: Dict) -> List[Dict]:
    """Worker entry point: simulate one batch of specs.

    All specs in a batch share one ``build_key``, so a single workload
    object (and its memoised trace build) serves the whole batch.  Each
    spec yields an *outcome envelope* — ``{"record": ...}`` on success,
    ``{"kind": ..., "error": ...}`` on a per-run exception — so one bad
    run never poisons its batch-mates.  ``payload["faults"]`` (when set)
    is a :class:`repro.experiments.faults.FaultPlan` applied per spec.
    """
    specs = [RunSpec.from_dict(doc) for doc in payload["specs"]]
    attempts = payload.get("attempts") or [0] * len(specs)
    plan = (FaultPlan.from_dict(payload["faults"])
            if payload.get("faults") else None)
    workload = specs[0].make_workload()
    outcomes: List[Dict] = []
    for spec, attempt in zip(specs, attempts):
        try:
            if plan is not None:
                plan.apply(spec.digest(), attempt, in_worker=True)
            record = make_record(spec, execute_spec(spec, workload=workload))
        except TransientFault as exc:
            outcomes.append({"kind": "transient", "error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — envelope, not swallow
            outcomes.append({"kind": "error",
                             "error": f"{type(exc).__name__}: {exc}"})
        else:
            outcomes.append({"record": record})
    return outcomes


# ----------------------------------------------------------------------
# Persistent on-disk cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuarantinedRecord:
    """One corrupt cache record set aside for inspection."""

    path: Path
    digest: str
    reason: str


def quarantine_dir(directory) -> Path:
    return Path(directory) / QUARANTINE_DIRNAME


def list_quarantined(directory) -> List[QuarantinedRecord]:
    """Quarantined records under a cache directory, sorted by file name."""
    qdir = quarantine_dir(directory)
    entries: List[QuarantinedRecord] = []
    if not qdir.is_dir():
        return entries
    for path in sorted(qdir.iterdir()):
        stem = path.name
        if stem.endswith(".json"):
            stem = stem[:-len(".json")]
        # ``<digest>.<reason>[.<n>]`` — the trailing counter uniquifies a
        # digest quarantined more than once (see ``_quarantine``).
        parts = stem.split(".")
        entries.append(QuarantinedRecord(
            path=path, digest=parts[0],
            reason=parts[1] if len(parts) > 1 and parts[1] else "unknown"))
    return entries


def purge_quarantined(directory) -> int:
    """Delete every quarantined record; returns how many were removed."""
    removed = 0
    for entry in list_quarantined(directory):
        try:
            entry.path.unlink()
        except IsADirectoryError:
            import shutil
            shutil.rmtree(entry.path, ignore_errors=True)
        except OSError:
            continue
        removed += 1
    try:
        quarantine_dir(directory).rmdir()
    except OSError:
        pass
    return removed


class ResultCache:
    """Versioned JSON result store, one file per spec digest.

    Reads validate the schema version, the stored spec (digest collisions)
    and the statistics fingerprint; anything invalid or unparseable is
    moved into ``quarantine/`` (annotated with the failure class) and
    reported as a miss, so a corrupted cache heals itself on the next
    sweep while keeping the evidence inspectable via
    ``repro cache doctor``.  Writes are atomic
    (:func:`~repro.experiments.durable.publish`), so a crash or a
    concurrent writer can never leave a truncated record behind.
    """

    def __init__(self, directory, enabled: bool = True) -> None:
        self.directory = Path(directory)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.quarantined = 0

    def _path(self, spec: RunSpec) -> Path:
        return self.directory / f"{spec.digest()}.json"

    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        """Set a corrupt record aside (falling back to deletion) so the
        slot reads as a miss and gets recomputed."""
        self.corrupt += 1
        self.misses += 1
        self.quarantined += 1
        stem = path.name[:-len(".json")] if path.name.endswith(".json") \
            else path.name
        qdir = quarantine_dir(self.directory)
        # A digest can be quarantined more than once (e.g. corrupt now,
        # fingerprint-mismatch after the recompute); a numeric suffix keeps
        # every piece of evidence instead of overwriting the earlier one.
        target = qdir / f"{stem}.{reason}.json"
        count = 1
        while target.exists():
            target = qdir / f"{stem}.{reason}.{count}.json"
            count += 1
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, spec: RunSpec) -> Optional[SimulationResult]:
        if not self.enabled:
            return None
        path = self._path(spec)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except json.JSONDecodeError:
            self._quarantine(path, "truncated")
            return None
        except OSError:
            self._quarantine(path, "unreadable")
            return None
        if not isinstance(record, dict):
            self._quarantine(path, "malformed")
            return None
        if record.get("schema") != CACHE_SCHEMA_VERSION:
            self._quarantine(path, "schema")
            return None
        stored_spec = record.get("spec")
        # Compare in canonical (result-identity) form: records written
        # before the NoC ``kernel`` config field existed, or under a
        # different kernel backend, are the same experiment — every
        # backend is contractually bit-identical.
        if (not isinstance(stored_spec, dict)
                or _strip_result_neutral(stored_spec)
                != spec.canonical_dict()):
            self._quarantine(path, "spec-mismatch")
            return None
        try:
            result = record_result(record)
        except FingerprintMismatch:
            self._quarantine(path, "fingerprint")
            return None
        except (ValueError, KeyError, TypeError, AttributeError):
            self._quarantine(path, "malformed")
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, record: Dict) -> None:
        if not self.enabled:
            return
        # Concurrent sweeps may race on the same entry, and both sides
        # write identical bytes (deterministic simulation), so
        # last-rename-wins is safe.
        publish(self._path(spec), json.dumps(record, sort_keys=True,
                                             separators=(",", ":")))
        self.stores += 1


# ----------------------------------------------------------------------
# Run policy, failures and the sweep journal
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunPolicy:
    """Failure-handling knobs for one engine.

    ``timeout`` is the per-run wall-clock budget in **seconds** (a worker
    batch of N runs gets N× the budget); ``None`` disables enforcement.
    Timeouts are only enforceable on the pool path — in-process execution
    has nobody left to interrupt it, which the README documents.
    ``retries`` bounds how many *additional* attempts a failing run gets;
    attempt ``k`` sleeps ``backoff * backoff_factor**(k-1)`` seconds
    first.  With ``keep_going`` (the default) the sweep completes every
    run it can and raises :class:`SweepError` at the end; ``keep_going=
    False`` (``--fail-fast``) abandons outstanding work at the first
    permanent failure.  ``max_pool_restarts`` bounds how many times a
    broken/stuck pool is rebuilt before the engine degrades to in-process
    serial execution.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.5
    backoff_factor: float = 2.0
    keep_going: bool = True
    max_pool_restarts: int = 3

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        if attempt <= 0 or self.backoff <= 0:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 1)

    def to_dict(self) -> Dict:
        return asdict(self)


@dataclass
class FailureRecord:
    """One run that permanently failed (retry budget exhausted).

    ``kind`` distinguishes how it failed: ``timeout`` (wall-clock budget
    exceeded), ``worker_death`` (the worker process died —
    ``BrokenProcessPool``), ``transient`` (a retryable
    :class:`TransientFault` that never stopped firing) or ``error`` (any
    other exception raised by the run).
    """

    digest: str
    workload: str
    mode: str
    n_cores: int
    kind: str
    attempts: int
    error: str

    @classmethod
    def for_spec(cls, spec: RunSpec, kind: str, attempts: int,
                 error: str) -> "FailureRecord":
        return cls(digest=spec.digest(), workload=spec.workload,
                   mode=spec.mode, n_cores=spec.n_cores, kind=kind,
                   attempts=attempts, error=error)

    def to_dict(self) -> Dict:
        return asdict(self)


class SweepError(RuntimeError):
    """Raised at the end of a sweep in which runs permanently failed.

    Carries the structured :class:`FailureRecord` list and every result
    that *did* complete, so callers can report partial progress and write
    ``results/failures.json`` before exiting non-zero.
    """

    def __init__(self, failures: List[FailureRecord],
                 results: Dict[RunSpec, SimulationResult]) -> None:
        kinds: Dict[str, int] = {}
        for failure in failures:
            kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
        summary = ", ".join(f"{count} {kind}"
                            for kind, count in sorted(kinds.items()))
        super().__init__(
            f"{len(failures)} run(s) permanently failed ({summary}); "
            f"{len(results)} completed")
        self.failures = failures
        self.results = results


def write_failure_report(path, failures: Sequence[FailureRecord], *,
                         total: int, completed: int,
                         policy: Optional[RunPolicy] = None,
                         sweep_label: Optional[str] = None) -> Dict:
    """Write the structured end-of-sweep failure report and return it."""
    document = {
        "schema": FAILURE_REPORT_SCHEMA,
        "sweep": sweep_label,
        "total_runs": total,
        "completed_runs": completed,
        "failed_runs": len(failures),
        "policy": (policy or RunPolicy()).to_dict(),
        "failures": [failure.to_dict() for failure in failures],
    }
    publish(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


class SweepJournal:
    """Durable append-only record of per-spec outcomes (JSONL).

    One line per outcome on a durable
    :class:`~repro.experiments.durable.AppendLog`, so a sweep killed at
    any instant leaves a readable journal: ``--resume`` loads it to
    report previously completed work, and a torn final line (the crash
    window) is skipped on load and ended before new records append.
    The journal records *progress*; the result cache remains the source
    of truth for result bytes (a journalled-ok spec whose cache record
    went missing is simply recomputed).

    ``sweep_id`` (see :func:`sweep_id`) identifies the spec set being
    swept.  When given, it is stored in the header; resuming with a
    *different* id — the journal on disk belongs to another spec set,
    e.g. a scenario directory whose contents changed — sets
    ``self.mismatched``, discards the stale entries and starts a fresh
    journal instead of silently mixing two sweeps' progress.
    """

    def __init__(self, path, resume: bool = False,
                 label: Optional[str] = None,
                 sweep_id: Optional[str] = None) -> None:
        self.path = Path(path)
        self.label = label
        self.sweep_id = sweep_id
        self.header_sweep_id: Optional[str] = None
        self.mismatched = False
        self.completed: Dict[str, Dict] = {}
        self.failed: Dict[str, Dict] = {}
        self.torn_lines = 0
        existing = resume and self.path.exists()
        if existing:
            self._load()
            if (sweep_id is not None and self.header_sweep_id is not None
                    and self.header_sweep_id != sweep_id):
                self.mismatched = True
                self.completed.clear()
                self.failed.clear()
                self.torn_lines = 0
                self.label = label
                existing = False
        self.resumed = len(self.completed)
        self._log = AppendLog(self.path, fresh=not existing)
        if not existing:
            header = {"journal": JOURNAL_SCHEMA, "sweep": self.label}
            if sweep_id is not None:
                header["sweep_id"] = sweep_id
            self._log.append(header)

    # ------------------------------------------------------------------
    def _load(self) -> None:
        entries, self.torn_lines = read_log(self.path)
        for entry in entries:
            if "journal" in entry:
                self.label = entry.get("sweep", self.label)
                self.header_sweep_id = entry.get("sweep_id",
                                                 self.header_sweep_id)
                continue
            digest = entry.get("digest")
            if not digest:
                continue
            if entry.get("status") == "ok":
                self.completed[digest] = entry
                self.failed.pop(digest, None)
            elif entry.get("status") == "failed":
                self.failed[digest] = entry

    # ------------------------------------------------------------------
    def record_ok(self, spec: RunSpec, attempts: int = 1,
                  cached: bool = False) -> None:
        digest = spec.digest()
        if digest in self.completed:
            return
        entry = {"digest": digest, "status": "ok",
                 "workload": spec.workload, "mode": spec.mode,
                 "n_cores": spec.n_cores, "attempts": attempts,
                 "cached": cached}
        self.completed[digest] = entry
        self.failed.pop(digest, None)
        self._log.append(entry)

    def record_failed(self, failure: FailureRecord) -> None:
        entry = dict(failure.to_dict(), status="failed")
        self.failed[failure.digest] = entry
        self._log.append(entry)

    def close(self) -> None:
        self._log.close()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SweepEngine:
    """Executes deduplicated :class:`RunSpec` sets, in parallel when asked.

    ``jobs`` defaults to ``$REPRO_JOBS`` (else 1).  ``cache`` is an
    optional :class:`ResultCache`; completed specs are looked up before
    simulating and stored after.  ``policy`` (a :class:`RunPolicy`)
    governs timeouts, retries, backoff and the exit strategy; ``journal``
    (a :class:`SweepJournal`) makes progress durable; ``faults`` is the
    deterministic chaos plan (default: ``$REPRO_FAULTS``, normally off).

    ``backend`` selects how cache-miss specs execute — a name from
    :data:`repro.registry.SWEEP_BACKENDS` (``serial``, ``process``, or
    ``service``) or a ready :class:`~repro.experiments.backends.
    SweepBackend` instance.  The default, ``process``, preserves the
    historical engine behaviour exactly (serial below the parallel
    threshold, else the worker pool).  ``shards`` is the ``service``
    backend's list of ``repro serve`` base URLs; cache lookups,
    journaling, retry policy and failure reporting all sit *above* the
    backend, so they behave identically whichever one runs the specs.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[RunPolicy] = None,
                 journal: Optional[SweepJournal] = None,
                 faults: Optional[FaultPlan] = None,
                 backend=None, shards: Sequence[str] = ()) -> None:
        from repro.experiments.backends import resolve_backend

        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.policy = policy or RunPolicy()
        self.journal = journal
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.backend = resolve_backend(backend, shards)
        self.simulations_run = 0
        self.failures: List[FailureRecord] = []
        self.pool_restarts = 0
        self.degraded = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._abandoned = False
        self._completed_count = 0
        self._corrupted: set = set()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec],
            workload_lookup: Optional[Callable[[RunSpec],
                                               Optional[Workload]]] = None,
            ) -> Dict[RunSpec, SimulationResult]:
        """Run every spec (each exactly once) and return spec -> result.

        ``workload_lookup`` lets the serial path reuse live workload
        objects (and their memoised builds); the parallel path always
        reconstructs workloads inside the workers.

        Raises :class:`SweepError` when any spec permanently fails after
        retries (with ``keep_going`` every other spec still completes
        first) and ``KeyboardInterrupt``/``SystemExit`` untouched after
        cleaning up the pool and flushing the journal.
        """
        ordered: List[RunSpec] = list(dict.fromkeys(specs))
        results: Dict[RunSpec, SimulationResult] = {}
        misses: List[RunSpec] = []
        for spec in ordered:
            cached = self.cache.get(spec) if self.cache else None
            if cached is not None:
                results[spec] = cached
                if self.journal is not None:
                    self.journal.record_ok(spec, attempts=0, cached=True)
            else:
                misses.append(spec)
        if not misses:
            return results
        failures: List[FailureRecord] = []
        self.backend.execute(self, misses, results, workload_lookup,
                             failures)
        if failures:
            self.failures.extend(failures)
            raise SweepError(failures, results)
        return results

    # ------------------------------------------------------------------
    # Shared completion / failure bookkeeping
    # ------------------------------------------------------------------
    def _complete(self, spec: RunSpec,
                  results: Dict[RunSpec, SimulationResult],
                  result: Optional[SimulationResult] = None,
                  record: Optional[Dict] = None,
                  attempts: int = 1) -> None:
        if result is None:
            result = record_result(record)
        self.simulations_run += 1
        if self.cache is not None:
            if record is None:
                record = make_record(spec, result)
            self.cache.put(spec, record)
            self._maybe_corrupt(spec)
        results[spec] = result
        if self.journal is not None:
            self.journal.record_ok(spec, attempts=attempts)
        self._completed_count += 1
        plan = self.faults
        if (plan is not None and plan.interrupt_after is not None
                and self._completed_count >= plan.interrupt_after):
            raise KeyboardInterrupt(
                f"injected interrupt after {self._completed_count} runs")

    def _maybe_corrupt(self, spec: RunSpec) -> None:
        """Chaos hook: tear the record we just published (first publish of
        a digest per engine), modelling a crashed non-atomic writer."""
        plan = self.faults
        if plan is None or plan.corrupt <= 0:
            return
        digest = spec.digest()
        if digest in self._corrupted or not plan.should_corrupt(digest):
            return
        self._corrupted.add(digest)
        from repro.experiments.faults import corrupt_record
        try:
            corrupt_record(self.cache._path(spec))
        except OSError:
            pass

    def _fail_spec(self, spec: RunSpec, kind: str, error: str,
                   attempts: int, failures: List[FailureRecord]) -> None:
        failure = FailureRecord.for_spec(spec, kind, attempts, error)
        failures.append(failure)
        if self.journal is not None:
            self.journal.record_failed(failure)
        if not self.policy.keep_going:
            self._abandoned = True

    # ------------------------------------------------------------------
    # Serial execution (jobs == 1, single miss, or degraded pool)
    # ------------------------------------------------------------------
    def _run_serial(self, specs: Sequence[RunSpec],
                    results: Dict[RunSpec, SimulationResult],
                    workload_lookup, failures: List[FailureRecord],
                    attempts: Optional[Dict[RunSpec, int]] = None) -> None:
        attempts = attempts if attempts is not None else {}
        plan = self.faults
        for spec in specs:
            if self._abandoned:
                return
            digest = spec.digest()
            while True:
                attempt = attempts.get(spec, 0)
                try:
                    if plan is not None:
                        plan.apply(digest, attempt, in_worker=False)
                    workload = (workload_lookup(spec) if workload_lookup
                                else None)
                    result = execute_spec(spec, workload=workload)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:  # noqa: BLE001 — retried, bounded
                    kind = ("transient" if isinstance(exc, TransientFault)
                            else "error")
                    attempts[spec] = attempt + 1
                    if attempts[spec] > self.policy.retries:
                        self._fail_spec(spec, kind,
                                        f"{type(exc).__name__}: {exc}",
                                        attempts[spec], failures)
                        break
                    time.sleep(self.policy.backoff_for(attempts[spec]))
                else:
                    self._complete(spec, results, result=result,
                                   attempts=attempt + 1)
                    break

    # ------------------------------------------------------------------
    # Pool execution with timeouts, retries and graceful degradation
    # ------------------------------------------------------------------
    def _ensure_pool(self, outstanding: int) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = max(1, min(self.jobs, outstanding))
            self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def _retire_pool(self, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if not terminate:
            pool.shutdown()
            return
        # A stuck or killed worker cannot be joined: cancel what never
        # started, then forcibly terminate the worker processes so their
        # wall-clock (and the stall, if injected) is reclaimed.
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                pass

    def _pool_broken(self, waiting, inflight, reason: str) -> None:
        """Requeue in-flight work uncharged and rebuild (or give up on)
        the pool."""
        now = time.monotonic()
        for future in list(inflight):
            batch, _ = inflight.pop(future)
            waiting.append((now, batch))
        self._retire_pool(terminate=True)
        self.pool_restarts += 1
        if self.pool_restarts > self.policy.max_pool_restarts:
            if not self.degraded:
                print(f"[sweep] warning: worker pool unusable after "
                      f"{self.pool_restarts} restarts ({reason}); "
                      f"degrading to in-process serial execution",
                      file=sys.stderr)
            self.degraded = True

    def _charge(self, specs: Sequence[RunSpec], kind: str, error: str,
                attempts: Dict[RunSpec, int], waiting,
                failures: List[FailureRecord]) -> None:
        """Count one failed attempt against each spec; requeue survivors
        (grouped to keep sharing trace builds) with exponential backoff."""
        retryable: List[RunSpec] = []
        worst = 0
        for spec in specs:
            attempts[spec] = attempts.get(spec, 0) + 1
            if attempts[spec] > self.policy.retries:
                self._fail_spec(spec, kind, error, attempts[spec], failures)
            else:
                retryable.append(spec)
                worst = max(worst, attempts[spec])
        if not retryable:
            return
        ready_at = time.monotonic() + self.policy.backoff_for(worst)
        regrouped: Dict[Tuple, List[RunSpec]] = {}
        for spec in retryable:
            regrouped.setdefault(spec.build_key, []).append(spec)
        for batch in regrouped.values():
            waiting.append((ready_at, batch))

    def _run_pool(self, misses: Sequence[RunSpec],
                  results: Dict[RunSpec, SimulationResult],
                  failures: List[FailureRecord]) -> None:
        policy = self.policy
        attempts: Dict[RunSpec, int] = {}
        grouped: Dict[Tuple, List[RunSpec]] = {}
        for spec in misses:
            grouped.setdefault(spec.build_key, []).append(spec)
        # (ready_at, batch) pairs; ready_at > now while backing off.
        waiting: List[Tuple[float, List[RunSpec]]] = [
            (0.0, batch) for batch in grouped.values()]
        inflight: Dict = {}
        plan_dict = self.faults.to_dict() if self.faults is not None else None
        try:
            while (waiting or inflight) and not self._abandoned \
                    and not self.degraded:
                now = time.monotonic()
                # Submit every ready batch (bounded, to keep retry batches
                # interleaving with first-time work).
                ready = [item for item in waiting if item[0] <= now]
                for item in ready:
                    if len(inflight) >= 2 * self.jobs:
                        break
                    waiting.remove(item)
                    batch = item[1]
                    payload = {
                        "specs": [spec.to_dict() for spec in batch],
                        "attempts": [attempts.get(spec, 0)
                                     for spec in batch],
                        "faults": plan_dict,
                    }
                    try:
                        pool = self._ensure_pool(len(waiting)
                                                 + len(inflight) + 1)
                        future = pool.submit(_run_batch, payload)
                    except (BrokenProcessPool, RuntimeError, OSError) as exc:
                        waiting.append((now, batch))
                        self._pool_broken(waiting, inflight,
                                          f"submit failed: {exc}")
                        break
                    deadline = (now + policy.timeout * len(batch)
                                if policy.timeout else None)
                    inflight[future] = (batch, deadline)
                if not inflight:
                    if waiting and not self.degraded:
                        # Everything is backing off; sleep to the nearest
                        # ready time.
                        ready_at = min(item[0] for item in waiting)
                        time.sleep(max(0.0, ready_at - time.monotonic()))
                    continue
                # Wait for a completion, the nearest deadline, or the
                # nearest backoff expiry — whichever comes first.
                now = time.monotonic()
                horizons = [deadline for _, deadline in inflight.values()
                            if deadline is not None]
                horizons.extend(item[0] for item in waiting
                                if item[0] > now)
                wait_for = None
                if horizons:
                    wait_for = max(0.0, min(horizons) - time.monotonic())
                done, _ = futures_wait(set(inflight), timeout=wait_for,
                                       return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    batch, _ = inflight.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._charge(batch, "worker_death",
                                     "worker process died "
                                     "(BrokenProcessPool)",
                                     attempts, waiting, failures)
                    except Exception as exc:  # noqa: BLE001
                        self._charge(batch, "error",
                                     f"{type(exc).__name__}: {exc}",
                                     attempts, waiting, failures)
                    else:
                        for spec, outcome in zip(batch, outcomes):
                            record = outcome.get("record")
                            if record is not None:
                                self._complete(
                                    spec, results, record=record,
                                    attempts=attempts.get(spec, 0) + 1)
                            else:
                                self._charge(
                                    [spec], outcome.get("kind", "error"),
                                    outcome.get("error", "unknown error"),
                                    attempts, waiting, failures)
                if broken:
                    self._pool_broken(waiting, inflight,
                                      "worker process died")
                    continue
                # Enforce per-run wall-clock deadlines: a stuck worker is
                # unrecoverable in-place, so expired batches are charged a
                # timeout and the pool is rebuilt without them.
                now = time.monotonic()
                expired = [future for future, (_, deadline)
                           in inflight.items()
                           if deadline is not None and deadline <= now]
                if expired:
                    for future in expired:
                        batch, _ = inflight.pop(future)
                        self._charge(batch, "timeout",
                                     f"run exceeded the {policy.timeout}s "
                                     f"wall-clock timeout",
                                     attempts, waiting, failures)
                    self._pool_broken(waiting, inflight, "stuck worker")
        except (KeyboardInterrupt, SystemExit):
            self._retire_pool(terminate=True)
            raise
        if self._abandoned:
            self._retire_pool(terminate=True)
            return
        if self.degraded:
            self._retire_pool(terminate=True)
            leftovers = [spec for _, batch in waiting for spec in batch]
            self._run_serial(leftovers, results, None, failures,
                             attempts=attempts)
            return
        self._retire_pool(terminate=False)


def run_specs(specs: Iterable[RunSpec], *, jobs: Optional[int] = None,
              cache_dir=None, use_cache: bool = True,
              policy: Optional[RunPolicy] = None,
              ) -> Dict[RunSpec, SimulationResult]:
    """One-shot convenience wrapper around :class:`SweepEngine`."""
    cache = (ResultCache(cache_dir) if (cache_dir is not None and use_cache)
             else None)
    return SweepEngine(jobs=jobs, cache=cache, policy=policy).run(list(specs))
