"""The five benchmark workloads, driven through the program's public APIs.

Every workload is closed-loop batch work from one process: a pass starts
after the previous one has ended, and at most two worker processes,
shards or connections run at once.  A workload object is set up by
:meth:`BenchWorkload.setup` (timed, repeatable), then runs timed passes
(:meth:`run_pass`) bracketed by untimed :meth:`before_pass` and
:meth:`after_pass` hooks; :meth:`after_pass` turns a pass into a
:class:`PassOutcome` whose ``outputs`` are the simulation fingerprints the
harness checks.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments import figures
from repro.experiments.configs import scaled_config
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import RunSpec, SweepError
from repro.sim.system import run_workload
from repro.workloads import (BlockedMatMulWorkload, DenseStencilWorkload,
                             IndirectStreamWorkload, PagerankWorkload,
                             SpMVWorkload)

from perfbench.tracer import SIM_LAYERS, SWEEP_LAYERS

#: Worker processes, shards and connections: the benchmark host has 2 CPUs.
WORKERS = 2

#: The paper cross-product swept by the ``sweep-*`` workloads.
SWEEP_FIGURES = ("fig1", "fig2", "fig9", "table3", "fig10", "fig12")
SWEEP_FIGURES_QUICK = ("fig1", "table3")

#: Seconds to wait for a ``repro serve`` shard to print its port, and to
#: drain after SIGTERM.
SHARD_DEADLINE = 30.0


@dataclass
class PassOutcome:
    """What one pass did, as the harness checks and reports it."""

    #: Operations attempted: simulation rows or unique specs.
    attempted: int
    #: Work units for the throughput metric: simulated memory accesses
    #: (``sim-*``) or unique specs resolved (``sweep-*``).
    ops: int
    #: Operation key -> statistics fingerprint.
    outputs: Dict[str, Dict[str, int]]
    #: One line per failed operation.
    failures: List[str] = field(default_factory=list)
    #: Exact per-layer counts derived from the pass's results.
    counts: Dict[str, float] = field(default_factory=dict)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class BenchWorkload:
    """Interface of one benchmark workload."""

    name = ""
    #: Layers wrapped by a ``--trace`` pass.
    layers: tuple = ()
    #: Key of this workload's section in the golden fingerprint file.
    golden_key = ""

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        #: Host seconds spent building traces, one entry per set-up.
        self.build_s: List[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Release the previous set-up's state before the next one."""

    def before_pass(self) -> None:
        pass

    def run_pass(self):
        raise NotImplementedError

    def after_pass(self, raw) -> PassOutcome:
        raise NotImplementedError

    def simulated_metrics(self, outputs: Dict[str, Dict[str, int]]
                          ) -> Dict[str, float]:
        """Simulated (not host) results, exact for a given seed."""
        return {}

    def calibration_probe(self):
        """A callable doing a little real work through :attr:`layers`, to
        calibrate the wrapper cost on; None when the layers see too few
        calls for the cost to matter."""
        return None

    def close(self) -> None:
        """Stop everything this workload started."""


# ----------------------------------------------------------------------
# Single simulations: repro.sim.system.run_workload
# ----------------------------------------------------------------------
class SimWorkload(BenchWorkload):
    """``run_workload`` over kernels x prefetchers; traces built in set-up."""

    layers = SIM_LAYERS
    prefetchers: tuple = ()

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        self.cores = 4 if quick else 16
        self._kernels: list = []
        self._config = scaled_config(self.cores)

    def kernels(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        kernels = self.kernels()
        start = time.perf_counter()
        for kernel in kernels:
            kernel.cached_build(self.cores)
        self.build_s.append(time.perf_counter() - start)
        self._kernels = kernels

    def run_pass(self):
        return [(f"{kernel.name}/{prefetcher}",
                 run_workload(kernel, self._config, prefetcher=prefetcher))
                for kernel in self._kernels
                for prefetcher in self.prefetchers]

    def after_pass(self, raw) -> PassOutcome:
        outputs = {key: result.stats.fingerprint() for key, result in raw}
        rows = outputs.values()

        def total(field_name: str) -> int:
            return sum(fp[field_name] for fp in rows)

        counts = {
            "hierarchy.l1_miss_ratio": _ratio(total("l1_misses"),
                                              total("mem_accesses")),
            "noc.bytes": total("noc_bytes"),
            "dram.bytes": total("dram_bytes"),
            "prefetchers.issued": total("prefetches_issued"),
            "prefetchers.useful_ratio": _ratio(total("prefetches_useful"),
                                               total("prefetches_issued")),
        }
        return PassOutcome(attempted=len(outputs), ops=total("mem_accesses"),
                           outputs=outputs, counts=counts)

    def calibration_probe(self):
        """One ``--quick`` pass of ``sim-indirect``: every simulator layer,
        a quarter of a million wrapped calls."""
        probe = SimIndirect(self.seed, True, self.workdir)
        probe.setup()
        return probe.run_pass


class SimIndirect(SimWorkload):
    """The paper's target kernels, stream prefetcher (mode ``base``)
    against IMP."""

    name = "sim-indirect"
    golden_key = "sim-indirect"
    prefetchers = ("stream", "imp")

    def kernels(self) -> list:
        if self.quick:
            return [SpMVWorkload(nx=8, ny=8, nz=8, seed=self.seed),
                    PagerankWorkload(n_vertices=512, seed=self.seed),
                    IndirectStreamWorkload(n_indices=1024, seed=self.seed)]
        return [SpMVWorkload(seed=self.seed),
                PagerankWorkload(seed=self.seed),
                IndirectStreamWorkload(n_indices=16384, seed=self.seed)]

    def simulated_metrics(self, outputs):
        """``imp_speedup``: geomean over kernels of stream/imp runtime
        cycles; ``imp_coverage``: pooled covered / (covered + L1 misses)
        over the imp rows."""
        names = [key.split("/")[0] for key in outputs if key.endswith("/imp")]
        speedups = [outputs[f"{name}/stream"]["runtime_cycles"]
                    / outputs[f"{name}/imp"]["runtime_cycles"]
                    for name in names]
        covered = sum(outputs[f"{name}/imp"]["prefetch_covered_misses"]
                      for name in names)
        misses = sum(outputs[f"{name}/imp"]["l1_misses"] for name in names)
        return {"imp_speedup": math.exp(
                    sum(math.log(value) for value in speedups)
                    / len(speedups)),
                "imp_coverage": _ratio(covered, covered + misses)}


class SimRegular(SimWorkload):
    """Hit-dominated regular kernels without a prefetcher: the paper's
    "no harm" control."""

    name = "sim-regular"
    golden_key = "sim-regular"
    prefetchers = ("none",)

    def kernels(self) -> list:
        if self.quick:
            return [BlockedMatMulWorkload(size=32, seed=self.seed),
                    DenseStencilWorkload(rows=64, cols=64, seed=self.seed)]
        return [BlockedMatMulWorkload(size=96, seed=self.seed),
                DenseStencilWorkload(rows=256, cols=256, seed=self.seed)]


# ----------------------------------------------------------------------
# The paper cross-product: ExperimentRunner.prefetch via prefetch_figures
# ----------------------------------------------------------------------
class SweepWorkload(BenchWorkload):
    """One pass = ``figures.prefetch_figures`` over the cross-product with
    a fresh :class:`ExperimentRunner`."""

    layers = SWEEP_LAYERS
    golden_key = "sweep"

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        self.cores = 4 if quick else 16
        self.scale = 0.05 if quick else 0.15
        self.figures = SWEEP_FIGURES_QUICK if quick else SWEEP_FIGURES
        self._requested = 0
        #: Spec digest -> the first request that resolves to it.
        self._unique: Dict[str, tuple] = {}
        self._dirs = 0
        #: The result cache the next pass runs on.
        self._cache_dir: Optional[Path] = None

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def runner(self, cache_dir: Path, **kwargs) -> ExperimentRunner:
        return ExperimentRunner(scale=self.scale, seed=self.seed,
                                base_config=scaled_config(self.cores),
                                jobs=WORKERS, cache_dir=cache_dir, **kwargs)

    def prepare(self) -> None:
        """Declare the requests and their spec digests (the same
        declarations ``prefetch_figures`` makes)."""
        runner = ExperimentRunner(scale=self.scale, seed=self.seed,
                                  base_config=scaled_config(self.cores))
        by_name = {workload.name: workload for workload in runner.workloads}
        requests = [request for name in self.figures
                    for request in figures.FIGURE_REQUESTS[name](
                        runner, [self.cores])]
        self._requested = len(requests)
        self._unique = {}
        for request in requests:
            digest = RunSpec.for_run(
                by_name[request.workload], request.mode, request.n_cores,
                imp_config=request.imp_config, base_config=runner.base_config,
                sw_prefetch_distance=request.sw_prefetch_distance).digest()
            self._unique.setdefault(digest, request)

    def sweep(self, runner: ExperimentRunner):
        """The timed work; returns ``(runner, SweepError or None)``."""
        try:
            figures.prefetch_figures(runner, self.figures, [self.cores])
        except SweepError as exc:
            return runner, exc
        return runner, None

    def outcome(self, raw) -> PassOutcome:
        runner, error = raw
        engine = runner.engine
        failures: List[str] = []
        outputs: Dict[str, Dict[str, int]] = {}
        if error is not None:
            failures = [f"{failure.digest[:12]} {failure.kind}: "
                        f"{failure.error}" for failure in error.failures]
        else:
            simulated = engine.simulations_run
            outputs = {digest: runner.run(*request).result.stats.fingerprint()
                       for digest, request in self._unique.items()}
            if engine.simulations_run != simulated:
                failures.append("reading the results simulated again")
        cache = engine.cache
        lookups = cache.hits + cache.misses if cache else 0
        counts = {
            "dedupe.unique_ratio": _ratio(len(self._unique), self._requested),
            "cache_lookup.hit_ratio": _ratio(cache.hits if cache else 0,
                                             lookups),
        }
        return PassOutcome(attempted=len(self._unique),
                           ops=len(self._unique) - len(failures),
                           outputs=outputs, failures=failures, counts=counts)


class SweepCold(SweepWorkload):
    """Cold cross-product on the ``process`` backend into an empty cache."""

    name = "sweep-cold"

    def setup(self) -> None:
        self.prepare()

    def before_pass(self) -> None:
        self._cache_dir = self.fresh_dir("cold")

    def run_pass(self):
        return self.sweep(self.runner(self._cache_dir))

    def after_pass(self, raw) -> PassOutcome:
        shutil.rmtree(self._cache_dir)
        return self.outcome(raw)


class SweepWarm(SweepWorkload):
    """The same requests on a cache populated in set-up: read path only."""

    name = "sweep-warm"

    def setup(self) -> None:
        self.prepare()
        self._cache_dir = self.fresh_dir("warm")
        _, error = self.sweep(self.runner(self._cache_dir))
        if error is not None:
            raise error

    def reset(self) -> None:
        shutil.rmtree(self._cache_dir)

    def run_pass(self):
        return self.sweep(self.runner(self._cache_dir))

    def after_pass(self, raw) -> PassOutcome:
        outcome = self.outcome(raw)
        simulated = raw[0].engine.simulations_run
        if simulated:
            outcome.failures.append(f"warm pass simulated {simulated} specs")
        return outcome


class SweepService(SweepWorkload):
    """The same specs on the ``service`` backend over two fresh
    ``repro serve --jobs 1`` shards per pass, started and stopped outside
    the pass timer."""

    name = "sweep-service"

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        self._shards: List[subprocess.Popen] = []
        self._urls: List[str] = []

    def setup(self) -> None:
        self.prepare()
        self.start_shards()

    def reset(self) -> None:
        self.stop_shards()

    def before_pass(self) -> None:
        if not self._shards:
            self.start_shards()
        self._cache_dir = self.fresh_dir("client")

    def run_pass(self):
        return self.sweep(self.runner(self._cache_dir, backend="service",
                                      shards=self._urls))

    def after_pass(self, raw) -> PassOutcome:
        self.stop_shards()
        shutil.rmtree(self._cache_dir)
        outcome = self.outcome(raw)
        backend = raw[0].engine.backend
        if backend.requeued or backend.fallback_specs:
            outcome.failures.append(
                f"service requeued {backend.requeued} and fell back on "
                f"{backend.fallback_specs} specs (dead shards: "
                f"{backend.dead_shards})")
        return outcome

    def start_shards(self) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        for _ in range(WORKERS):
            self._shards.append(subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--port", "0", "--jobs", "1",
                 "--cache-dir", str(self.fresh_dir("shard"))],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env=env, cwd=str(self.workdir)))
        deadline = time.monotonic() + SHARD_DEADLINE
        for shard in self._shards:
            port = None
            while port is None and time.monotonic() < deadline:
                line = shard.stdout.readline()
                if not line:
                    break
                if "port=" in line:
                    port = int(line.split("port=")[1].split()[0])
            if port is None:
                self.stop_shards()
                raise RuntimeError("a repro serve shard never printed its "
                                   "port")
            self._urls.append(f"http://127.0.0.1:{port}")

    def stop_shards(self) -> None:
        """SIGTERM every shard and wait for it to exit."""
        shards, self._shards, self._urls = self._shards, [], []
        for shard in shards:
            if shard.poll() is None:
                shard.send_signal(signal.SIGTERM)
        for shard in shards:
            try:
                shard.communicate(timeout=SHARD_DEADLINE)
            except subprocess.TimeoutExpired:
                shard.kill()
                shard.communicate()

    def close(self) -> None:
        self.stop_shards()


WORKLOADS = {cls.name: cls for cls in (SimIndirect, SimRegular, SweepCold,
                                       SweepWarm, SweepService)}
