"""Deterministic fault injection for the sweep engine.

The fault-tolerant executor in :mod:`repro.experiments.sweep` has four
recovery paths — bounded retries for transient exceptions, per-run
wall-clock timeouts, pool rebuild (and eventually serial degradation)
after worker death, and quarantine-plus-recompute for corrupted cache
records — and every one of them must be exercised *reproducibly*: a chaos
test that only fails one run in fifty is worse than no test at all.

A :class:`FaultPlan` is a seeded, picklable description of which faults to
inject where.  The decision for a given (spec digest, attempt) pair is a
pure function of the plan — ``sha256(seed:digest:attempt)`` mapped to
``[0, 1)`` and compared against the configured rates — so the same plan
injects the same faults into the same runs on every host, every time,
regardless of worker scheduling.  By default a spec is only disturbed on
its first ``max_faults_per_spec`` attempts, so any retry budget ≥ that
bound is guaranteed to converge and the chaos suites can assert the
strongest possible property: the final stat fingerprints are
**bit-identical** to an undisturbed serial sweep.

Fault kinds:

``kill``
    The worker process calls ``os._exit`` mid-batch, which surfaces to the
    parent as ``BrokenProcessPool`` on every in-flight future (exactly
    like an OOM kill).  Never injected in-process.
``transient``
    Raises :class:`TransientFault` inside the run — the model for flaky
    infrastructure (NFS hiccups, resource exhaustion) that a retry fixes.
``stall``
    Sleeps ``stall_seconds`` before simulating, so a per-run timeout
    expires and the parent must reclaim the worker.  Never injected
    in-process (there is nobody left to notice).
``corrupt``
    Truncates the cache record the engine just published (a torn write),
    exercising the quarantine + recompute path on the *next* sweep.
``interrupt_after``
    Parent-side: raise ``KeyboardInterrupt`` inside the engine loop after
    N specs of one sweep have completed — a deterministic stand-in for
    Ctrl-C / ``SIGKILL`` mid-sweep, used to test ``--resume``.

Service-layer fault points (``repro serve``, :mod:`repro.service`):

``serve_kill``
    ``os._exit`` the *server* process in the crash window between a job's
    fsynced ``running`` journal append and its cache publish — the run
    never completed, so a restarted server must re-execute it exactly
    once.
``serve_kill_post``
    ``os._exit`` the server in the opposite window: after the result was
    atomically published to the cache but before the job's ``done``
    journal append.  A restarted server replays the job as interrupted,
    re-enqueues it, and must complete it from the cache **without
    re-executing the simulation** — the no-duplicate-work guarantee.
``serve_stall``
    Sleep ``stall_seconds`` inside one HTTP handler thread, proving a
    slow client/request cannot block admissions, polling or health
    probes (the server is threaded).
``serve_corrupt``
    Tear the job-journal line that was just appended (a torn write in
    the middle of the journal), exercising the store's any-line
    corruption tolerance on the next replay.

Plans travel to pool workers inside the batch payload (not via globals),
and can be supplied to the real CLI through ``$REPRO_FAULTS`` (a JSON
object of constructor fields), which is how the CI chaos job disturbs an
ordinary ``repro sweep`` invocation.

Run ``python -m repro.experiments.faults`` for the self-checking chaos
smoke: a clean serial sweep, then a chaotic parallel sweep (kills,
transients, stalls, a deterministic mid-sweep interrupt, a corrupted
cache record) resumed to completion, asserting bit-identical
fingerprints throughout.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.contract import NON_NEGATIVE, UNIT, check, check_keys

#: Environment variable holding a JSON ``FaultPlan`` for CLI-level chaos.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit status used by injected worker kills (visible in chaos logs).
KILL_EXIT_CODE = 87


class TransientFault(RuntimeError):
    """The injected stand-in for a retryable infrastructure failure."""


class FaultInjectionError(ValueError):
    """A fault plan is malformed (unknown fields, bad rates)."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic description of the faults to inject.

    ``kill``, ``transient`` and ``stall`` are per-(spec, attempt)
    probabilities drawn from one hash, so their sum must stay ≤ 1.
    ``corrupt`` is an independent per-spec probability applied to the
    cache publish of a digest (once per sweep: a sweep completes each
    spec once).  ``max_faults_per_spec`` bounds how
    many attempts of one spec may be disturbed (attempts at or beyond the
    bound always run clean), which is what makes recovery provable.
    """

    seed: int = 1
    kill: float = 0.0
    transient: float = 0.0
    stall: float = 0.0
    corrupt: float = 0.0
    stall_seconds: float = 30.0
    max_faults_per_spec: int = 1
    interrupt_after: Optional[int] = None
    serve_kill: float = 0.0
    serve_kill_post: float = 0.0
    serve_stall: float = 0.0
    serve_corrupt: float = 0.0

    RANGES = {"seed": NON_NEGATIVE, "stall_seconds": NON_NEGATIVE,
              "max_faults_per_spec": NON_NEGATIVE,
              "interrupt_after": NON_NEGATIVE,
              **dict.fromkeys(("kill", "transient", "stall", "corrupt",
                               "serve_kill", "serve_kill_post",
                               "serve_stall", "serve_corrupt"), UNIT)}

    def __post_init__(self) -> None:
        check(self, FaultInjectionError)
        if self.kill + self.transient + self.stall > 1.0:
            raise FaultInjectionError(
                "kill + transient + stall rates must sum to at most 1")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultInjectionError(
                f"fault plan must be a JSON object, got {type(doc).__name__}")
        check_keys(doc, sorted(cls.__dataclass_fields__), "fault plan",
                   FaultInjectionError)
        return cls(**doc)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The ``$REPRO_FAULTS`` plan, or ``None`` when chaos is off."""
        raw = (environ if environ is not None else os.environ).get(
            FAULTS_ENV_VAR)
        if not raw:
            return None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(
                f"${FAULTS_ENV_VAR} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    # ------------------------------------------------------------------
    def _draw(self, digest: str, attempt: int, channel: str = "run") -> float:
        payload = f"{self.seed}:{channel}:{digest}:{attempt}".encode()
        raw = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        return raw / float(1 << 64)

    def decide(self, digest: str, attempt: int) -> Optional[str]:
        """The fault (if any) for one attempt of one spec.

        Pure: the same (plan, digest, attempt) always decides the same
        fault, independent of process, host, or scheduling.
        """
        if attempt >= self.max_faults_per_spec:
            return None
        draw = self._draw(digest, attempt)
        if draw < self.kill:
            return "kill"
        if draw < self.kill + self.transient:
            return "transient"
        if draw < self.kill + self.transient + self.stall:
            return "stall"
        return None

    def should_corrupt(self, digest: str) -> bool:
        """Whether the first cache publish of ``digest`` gets torn."""
        return self.corrupt > 0 and \
            self._draw(digest, 0, channel="corrupt") < self.corrupt

    # ------------------------------------------------------------------
    # Service-layer fault points (repro.service)
    # ------------------------------------------------------------------
    def decide_serve_kill(self, digest: str, attempt: int) -> Optional[str]:
        """Which server-kill window (if any) fires for one job attempt.

        Pure, like :meth:`decide`: ``"pre"`` kills between the job's
        ``running`` journal append and its execution/cache publish,
        ``"post"`` kills after the cache publish but before the ``done``
        append.  ``max_faults_per_spec`` bounds the disturbance, so a
        restarted server is guaranteed to converge.
        """
        if attempt >= self.max_faults_per_spec:
            return None
        if self._draw(digest, attempt, channel="serve-kill") < self.serve_kill:
            return "pre"
        if self._draw(digest, attempt,
                      channel="serve-kill-post") < self.serve_kill_post:
            return "post"
        return None

    def apply_serve_kill(self, digest: str, attempt: int,
                         window: str) -> None:
        """``os._exit`` the server when the decided window matches."""
        if self.decide_serve_kill(digest, attempt) == window:
            os._exit(KILL_EXIT_CODE)

    def should_serve_stall(self, key: str) -> bool:
        """Whether one HTTP handler (keyed by request identity) stalls."""
        return self.serve_stall > 0 and \
            self._draw(key, 0, channel="serve-stall") < self.serve_stall

    def should_serve_corrupt(self, digest: str) -> bool:
        """Whether the job-journal record just appended for ``digest``
        gets torn (once per digest per plan)."""
        return self.serve_corrupt > 0 and \
            self._draw(digest, 0, channel="serve-corrupt") < self.serve_corrupt

    # ------------------------------------------------------------------
    def apply(self, digest: str, attempt: int, *,
              in_worker: bool) -> None:
        """Inject the decided fault, if any, at the top of a run.

        ``kill`` and ``stall`` are only meaningful inside a pool worker:
        in-process (serial / degraded execution) they are suppressed, so
        graceful degradation always makes forward progress.
        """
        fault = self.decide(digest, attempt)
        if fault is None:
            return
        if fault == "transient":
            raise TransientFault(
                f"injected transient fault (spec {digest[:12]}, "
                f"attempt {attempt})")
        if not in_worker:
            return
        if fault == "kill":
            os._exit(KILL_EXIT_CODE)
        if fault == "stall":
            import time
            time.sleep(self.stall_seconds)


def corrupt_record(path) -> None:
    """Tear a cache record the way a crashed non-atomic writer would:
    truncate it to a prefix that no longer parses as JSON."""
    from pathlib import Path

    target = Path(path)
    data = target.read_bytes()
    target.write_bytes(data[:max(1, len(data) // 3)])


# ----------------------------------------------------------------------
# Chaos smoke (python -m repro.experiments.faults): proves the acceptance
# criterion end to end and doubles as the CI chaos driver.
# ----------------------------------------------------------------------
def chaos_smoke(cache_dir, *, jobs: int = 2, out=None) -> int:
    """Clean serial sweep vs chaotic interrupted-and-resumed sweep.

    Returns 0 when every recovery path fired and the final fingerprints
    are bit-identical to the undisturbed serial run; raises otherwise.
    """
    import sys
    from pathlib import Path

    from repro.experiments.sweep import (ResultCache, RunPolicy, RunSpec,
                                         SweepEngine, SweepJournal)
    from repro.workloads.pagerank import PagerankWorkload
    from repro.workloads.synthetic import IndirectStreamWorkload

    out = out or sys.stdout
    cache_dir = Path(cache_dir)
    workloads = [IndirectStreamWorkload(n_indices=512, n_data=2048, seed=3),
                 PagerankWorkload(n_vertices=256, seed=3)]
    specs = [RunSpec.for_run(workload, mode, 4)
             for workload in workloads
             for mode in ("base", "imp", "swpref")]

    print(f"[chaos] {len(specs)} specs, jobs={jobs}", file=out)
    clean = SweepEngine(jobs=1).run(specs)
    golden = {spec.digest(): result.stats.fingerprint()
              for spec, result in clean.items()}
    print(f"[chaos] clean serial sweep done "
          f"({len(golden)} fingerprints)", file=out)

    # Chaos phase 1: kills + transients + stalls under a timeout, with a
    # deterministic interrupt partway through — the "kill -9 mid-sweep".
    plan = FaultPlan(seed=11, kill=0.25, transient=0.25, stall=0.1,
                     corrupt=0.2, stall_seconds=20.0,
                     interrupt_after=max(2, len(specs) // 2))
    policy = RunPolicy(timeout=8.0, retries=3, backoff=0.05)
    journal_path = cache_dir / "journal-chaos.jsonl"
    interrupted = False
    try:
        SweepEngine(jobs=jobs, cache=ResultCache(cache_dir), policy=policy,
                    faults=plan,
                    journal=SweepJournal(journal_path)).run(specs)
    except KeyboardInterrupt:
        interrupted = True
    if not interrupted:
        raise AssertionError("injected interrupt did not fire")
    journal = SweepJournal(journal_path, resume=True)
    print(f"[chaos] interrupted mid-sweep with "
          f"{len(journal.completed)} specs journalled", file=out)

    # Corrupt one completed cache record (a torn write the resumed sweep
    # must quarantine and recompute).
    records = sorted(path for path in cache_dir.glob("*.json"))
    if records:
        corrupt_record(records[0])
        print(f"[chaos] corrupted cache record {records[0].name}", file=out)

    # Chaos phase 2: resume. Same plan (attempt counters restart, but
    # max_faults_per_spec bounds total disturbance) minus the interrupt.
    resume_plan = FaultPlan(seed=11, kill=0.25, transient=0.25, stall=0.1,
                            corrupt=0.2, stall_seconds=20.0)
    cache = ResultCache(cache_dir)
    engine = SweepEngine(jobs=jobs, cache=cache, policy=policy,
                         faults=resume_plan, journal=journal)
    resumed = engine.run(specs)

    mismatched = [digest for digest in golden
                  if resumed_fp(resumed, digest) != golden[digest]]
    if mismatched:
        raise AssertionError(
            f"fingerprint mismatch after chaos for digests: "
            f"{', '.join(d[:12] for d in mismatched)}")
    print(f"[chaos] resumed sweep complete: {len(resumed)} results, "
          f"{engine.simulations_run} simulated, "
          f"{cache.quarantined} quarantined, fingerprints bit-identical",
          file=out)
    if cache.quarantined < 1:
        raise AssertionError("corrupted record was not quarantined")
    return 0


def resumed_fp(results, digest: str):
    for spec, result in results.items():
        if spec.digest() == digest:
            return result.stats.fingerprint()
    return None


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.faults",
        description="self-checking chaos smoke for the sweep engine")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: a fresh temp dir)")
    args = parser.parse_args(argv)
    if args.cache_dir:
        return chaos_smoke(args.cache_dir, jobs=args.jobs)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return chaos_smoke(tmp, jobs=args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
