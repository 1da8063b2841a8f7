"""Parallel sweep engine with a persistent on-disk result cache.

The paper's evaluation is a large cross-product — ~10 workloads x 6+ modes
x {16, 64, 128, 256} cores — and each point is an independent, perfectly
deterministic simulation.  This module turns every simulation request into
a picklable, hashable :class:`RunSpec`, hands the deduplicated cache
misses to a sweep backend (:mod:`repro.experiments.backends`; a worker
pool by default), and memoises completed results in a
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
  timeouts, transient exceptions and records that fail
  :func:`check_record` are distinguished, retried with exponential
  backoff under a :class:`RunPolicy`, and — only once the retry budget
  is exhausted — reported as structured :class:`FailureRecord` entries
  (``results/failures.json`` via :func:`write_failure_report`).  Every
  backend reports through one :class:`SweepRun` per sweep, so this rule
  is written once.  Every completed spec is journalled
  (:class:`SweepJournal`, append-only JSONL under the cache directory)
  so an interrupted sweep resumes from where it died.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.config import IMPConfig
from repro.experiments.configs import experiment_config, scaled_config
from repro.experiments.durable import AppendLog, publish, read_log
from repro.experiments.faults import FaultPlan, corrupt_record
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
# Spec execution and records (shared by every backend)
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


class InvalidRecord(ValueError):
    """A record that cannot stand for its spec.

    ``reason`` names the quarantine class: ``schema``, ``spec-mismatch``,
    ``fingerprint`` or ``malformed``.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


def record_result(record: Dict) -> SimulationResult:
    """Reconstruct a result from a record, verifying its fingerprint."""
    result = SimulationResult.from_dict(record["result"])
    if result.stats.fingerprint() != record["fingerprint"]:
        raise InvalidRecord(
            "fingerprint", "cache record fingerprint does not match its stats")
    return result


def check_record(spec: RunSpec, record) -> SimulationResult:
    """The one check of a record that claims to hold ``spec``'s result.

    Every record passes it before use, whether read from the cache,
    returned by a pool worker or fetched from a shard: the schema
    version, the stored spec (in canonical form, so a record written
    under another NoC kernel backend still matches) and the statistics
    fingerprint.  Returns the verified result; raises
    :class:`InvalidRecord` with the reason otherwise.
    """
    if not isinstance(record, dict):
        raise InvalidRecord("malformed", "record is not a JSON object")
    if record.get("schema") != CACHE_SCHEMA_VERSION:
        raise InvalidRecord("schema",
                            f"schema-{record.get('schema')} record "
                            f"(expected {CACHE_SCHEMA_VERSION})")
    stored_spec = record.get("spec")
    if (not isinstance(stored_spec, dict)
            or _strip_result_neutral(stored_spec) != spec.canonical_dict()):
        raise InvalidRecord("spec-mismatch",
                            "record for a different spec "
                            "(digest collision or skew)")
    try:
        return record_result(record)
    except InvalidRecord:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidRecord("malformed",
                            f"{type(exc).__name__}: {exc}") from None


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
            result = check_record(spec, record)
        except FileNotFoundError:
            self.misses += 1
            return None
        except InvalidRecord as exc:
            self._quarantine(path, exc.reason)
            return None
        except ValueError:  # torn JSON, or bytes that are not UTF-8
            self._quarantine(path, "truncated")
            return None
        except OSError:
            self._quarantine(path, "unreadable")
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
class SweepRun:
    """The ledger of one :meth:`SweepEngine.run` call, handed to the
    backend with the cache misses.

    The backend reports every outcome here: :meth:`complete` for a
    result or a record, :meth:`charge` for a failed attempt.  Both return
    the monotonic time a retry of the spec is due, or ``None`` once it is
    settled; ``abandoned`` means start nothing more (``--fail-fast``).
    Results, failures, attempt counts and fail-fast state belong to the
    run, so none of them outlives it.
    """

    def __init__(self, engine: "SweepEngine",
                 workload_lookup: Optional[Callable[[RunSpec],
                                                    Optional[Workload]]]
                 = None) -> None:
        self._engine = engine
        self._lookup = workload_lookup
        self.jobs = engine.jobs
        self.policy = engine.policy
        self.faults = engine.faults
        self.results: Dict[RunSpec, SimulationResult] = {}
        self.failures: List[FailureRecord] = []
        self.attempts: Dict[RunSpec, int] = {}
        self.abandoned = False
        self._completed = 0

    def workload(self, spec: RunSpec) -> Optional[Workload]:
        """The caller's live workload for ``spec`` (reusing its memoised
        trace build), or ``None`` to rebuild it from the spec."""
        return self._lookup(spec) if self._lookup is not None else None

    def complete(self, spec: RunSpec,
                 result: Optional[SimulationResult] = None,
                 record: Optional[Dict] = None,
                 source: str = "worker") -> Optional[float]:
        """Settle ``spec`` with an in-process ``result``, or with a
        ``record`` from another process or host; a record that fails
        :func:`check_record` is charged as an ``error`` attempt naming
        ``source`` instead.  Publishes to the cache and journals."""
        engine = self._engine
        if record is not None:
            try:
                result = check_record(spec, record)
            except InvalidRecord as exc:
                return self.charge(spec, "error",
                                   f"{source} returned an invalid record "
                                   f"({exc.reason}: {exc})")
        engine.simulations_run += 1
        plan = self.faults
        if engine.cache is not None:
            engine.cache.put(spec, record if record is not None
                             else make_record(spec, result))
            if plan is not None and plan.should_corrupt(spec.digest()):
                # Chaos: tear the record just published, modelling a
                # crashed non-atomic writer.
                try:
                    corrupt_record(engine.cache._path(spec))
                except OSError:
                    pass
        self.results[spec] = result
        if engine.journal is not None:
            engine.journal.record_ok(spec,
                                     attempts=self.attempts.get(spec, 0) + 1)
        self._completed += 1
        if (plan is not None and plan.interrupt_after is not None
                and self._completed >= plan.interrupt_after):
            raise KeyboardInterrupt(
                f"injected interrupt after {self._completed} runs")
        return None

    def charge(self, spec: RunSpec, kind: str, error: str,
               retry: bool = True) -> Optional[float]:
        """Count one failed attempt of ``spec``: the time its retry is
        due, or ``None`` once the retry budget is spent (at once when
        ``retry`` is false, for a deterministic failure).  The spec has
        then failed for good; without ``keep_going`` the run is
        abandoned."""
        attempts = self.attempts[spec] = self.attempts.get(spec, 0) + 1
        if retry and attempts <= self.policy.retries:
            return time.monotonic() + self.policy.backoff_for(attempts)
        failure = FailureRecord.for_spec(spec, kind, attempts, error)
        self.failures.append(failure)
        if self._engine.journal is not None:
            self._engine.journal.record_failed(failure)
        if not self.policy.keep_going:
            self.abandoned = True
        return None


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
    SweepBackend` instance; ``shards`` is the ``service`` backend's list
    of ``repro serve`` base URLs.  The engine keeps spec dedupe, cache
    lookups and journaling.  Each :meth:`run` gives the backend a fresh
    :class:`SweepRun`, whose ``complete`` and ``charge`` apply the one
    record check and the one retry rule; the backend owns its execution
    loop and anything that outlives a run, such as the ``process``
    backend's worker pool, its rebuilds and its degradation to
    in-process execution.
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

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec],
            workload_lookup: Optional[Callable[[RunSpec],
                                               Optional[Workload]]] = None,
            ) -> Dict[RunSpec, SimulationResult]:
        """Run every spec (each exactly once) and return spec -> result.

        ``workload_lookup`` lets in-process execution reuse live workload
        objects (and their memoised builds); pool workers and shards
        always reconstruct workloads from the spec.

        Raises :class:`SweepError` when any spec permanently fails after
        retries (with ``keep_going`` every other spec still completes
        first) and ``KeyboardInterrupt``/``SystemExit`` untouched after
        the backend cleaned up and the journal was flushed.
        """
        run = SweepRun(self, workload_lookup)
        misses: List[RunSpec] = []
        for spec in dict.fromkeys(specs):
            cached = self.cache.get(spec) if self.cache else None
            if cached is not None:
                run.results[spec] = cached
                if self.journal is not None:
                    self.journal.record_ok(spec, attempts=0, cached=True)
            else:
                misses.append(spec)
        if misses:
            self.backend.execute(run, misses)
        if run.failures:
            raise SweepError(run.failures, run.results)
        return run.results


def run_specs(specs: Iterable[RunSpec], *, jobs: Optional[int] = None,
              cache_dir=None, use_cache: bool = True,
              policy: Optional[RunPolicy] = None,
              ) -> Dict[RunSpec, SimulationResult]:
    """One-shot convenience wrapper around :class:`SweepEngine`."""
    cache = (ResultCache(cache_dir) if (cache_dir is not None and use_cache)
             else None)
    return SweepEngine(jobs=jobs, cache=cache, policy=policy).run(list(specs))
