"""Benchmark of record: one workload per run, in a fresh interpreter.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-indirect [--seed 1] [--seconds 20]
        [--trace 0|1] [--out FILE] [--quick]
    python3 perfbench/run.py compare A.json B.json
    python3 perfbench/run.py golden DOC.json [DOC.json ...]

A run sets the workload up three times (``setup_s`` is the import time
plus their median), then times passes until ``--seconds`` is spent (at
least two), checks every pass's simulation fingerprints (against
``golden_seed1.json`` at seed 1, else against the first pass), and prints
every metric by name and unit.  With ``--trace 1`` one more pass runs with
every layer boundary wrapped (see ``tracer.py``) and the per-layer metrics
are printed instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output was correct.

``compare`` prints a verdict per (metric, workload) pair of two ``--out``
documents; ``golden`` rewrites ``golden_seed1.json`` from seed-1 documents.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 — START must precede every import it times
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

BENCHMARK_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_seed1.json"
#: Scratch space (caches, shard directories, span files) in the checkout.
WORK_DIR = ROOT / ".perfbench"
#: Variables that would change what a run measures.
STRIPPED_ENV = ("REPRO_FAULTS", "REPRO_NOC_KERNEL", "REPRO_JOBS")
#: Timed passes per run, at least (``--quick`` runs exactly one).
MIN_PASSES = 2
#: Set-ups per run; ``setup_s`` reports their median (``--quick``: one).
SETUP_REPEATS = 3
#: Flag a traced run whose self times miss the plain wall by more.
CLOSURE_TOLERANCE = 0.10


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH) as handle:
        return json.load(handle)


def environment() -> dict:
    from repro.noc.mesh import resolve_kernel_name
    from repro.sim.config import NoCConfig

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "noc_kernel": resolve_kernel_name(NoCConfig()),
            "nockernel_built":
                importlib.util.find_spec("repro._nockernel") is not None}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_pass(bench):
    """Run one pass; returns ``(wall seconds, PassOutcome)``."""
    bench.before_pass()
    gc.collect()
    start = time.perf_counter()
    raw = bench.run_pass()
    wall = time.perf_counter() - start
    return wall, bench.after_pass(raw)


def measure(bench, seconds: float, quick: bool) -> list:
    """Timed passes until ``seconds`` would be exceeded by another one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(bench))
        if quick:
            return passes
        walls = [wall for wall, _ in passes]
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(walls)
                > seconds):
            return passes


class Traced(NamedTuple):
    wall: float
    outcome: object
    totals: dict
    tracer: object
    #: perf_counter value that span times are relative to.
    origin: float
    #: Calibrated wrapper cost per call, (c_in, c_out) seconds.
    cost: tuple


def traced_pass(bench, quick: bool) -> Traced:
    """One pass with every layer of ``bench`` wrapped."""
    from perfbench.tracer import SWEEP_LAYERS, Tracer, calibrate

    cost = calibrate(bench.layers, bench.calibration_probe(),
                     repeats=1 if quick else 3)
    bench.before_pass()
    gc.collect()
    tracer = Tracer(bench.layers, keep_spans=bench.layers is SWEEP_LAYERS)
    origin = time.perf_counter()
    with tracer:
        start = time.perf_counter()
        raw = bench.run_pass()
        wall = time.perf_counter() - start
    return Traced(wall, bench.after_pass(raw), tracer.layer_totals(*cost),
                  tracer, origin, cost)


def check(outputs: dict, expected: dict, label: str) -> list:
    """One failure line per operation whose fingerprint is wrong."""
    if not outputs:
        return []
    return [f"{label}: {key} fingerprint differs from the expected one"
            for key in sorted(set(expected) | set(outputs))
            if outputs.get(key) != expected.get(key)]


def layer_metrics(totals: dict, tracer, counts: dict, build_s: list,
                  wall: float, plain_wall: float) -> dict:
    """Every per-layer metric the harness computes, by name."""
    def total(layer: str) -> dict:
        return totals.get(layer, {"calls": 0, "self_s": 0.0,
                                  "status_429": 0})

    values = {"core.self_s": total("core")["self_s"],
              "dispatch.self_s": total("dispatch")["self_s"]}
    for layer in ("hierarchy", "cache", "directory", "noc", "dram",
                  "prefetchers", "mem_image", "dedupe", "cache_lookup",
                  "publish", "ingest"):
        values[f"{layer}.calls"] = total(layer)["calls"]
        values[f"{layer}.self_s"] = total(layer)["self_s"]
    values.update({
        "service.submit_calls": tracer.method_calls("ServiceClient.submit"),
        "service.poll_calls": tracer.method_calls("ServiceClient.job"),
        "service.self_s": total("service")["self_s"],
        "service.status_429": total("service")["status_429"],
    })
    for name in ("hierarchy.l1_miss_ratio", "noc.bytes", "dram.bytes",
                 "prefetchers.issued", "prefetchers.useful_ratio",
                 "dedupe.unique_ratio", "cache_lookup.hit_ratio"):
        values[name] = counts.get(name, 0)
    values["trace.self_s"] = statistics.median(build_s) if build_s else 0.0
    values["trace.overhead"] = wall / plain_wall
    values["trace.closure"] = (sum(entry["self_s"]
                                   for entry in totals.values())
                               / plain_wall)
    return values


def select(values: dict, declared: list) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics computed and declared in "
                           f"BENCHMARK.json differ: "
                           f"{sorted(set(names) ^ set(values))}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared}


def append_document(path: Path, env: dict, run: dict) -> None:
    """Add ``run`` to the document at ``path`` (created when missing)."""
    doc = {"env": env, "runs": []}
    if path.exists():
        with open(path) as handle:
            doc = json.load(handle)
        if doc["env"] != env:
            raise SystemExit(f"{path} was written under another "
                             f"environment ({doc['env']}); not appending")
    doc["runs"].append(run)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def execute(bench, args):
    """Set up, run the timed passes and, with ``--trace 1``, the traced
    pass; returns ``(set-up seconds, passes, Traced or None)``."""
    traced = None
    bench.workdir.mkdir(parents=True)
    try:
        setups = []
        for index in range(1 if args.quick else SETUP_REPEATS):
            if index:
                bench.reset()
            gc.collect()
            start = time.perf_counter()
            bench.setup()
            setups.append(time.perf_counter() - start)
        passes = measure(bench, args.seconds, args.quick)
        if args.trace:
            traced = traced_pass(bench, args.quick)
    finally:
        bench.close()
        shutil.rmtree(bench.workdir, ignore_errors=True)
    return setups, passes, traced


def verify(outcomes: list, expected: dict, traced) -> tuple:
    """``(attempted, failed, failure lines)`` over every checked pass."""
    checked = [(f"pass {index + 1}", outcome)
               for index, outcome in enumerate(outcomes)]
    if traced is not None:
        checked.append(("traced pass", traced.outcome))
    attempted = failed = 0
    failures = []
    for label, outcome in checked:
        wrong = outcome.failures + check(outcome.outputs, expected, label)
        attempted += outcome.attempted
        failed += min(outcome.attempted, len(wrong))
        failures += wrong
    if traced is not None:
        failures += [f"wrapper not removed: {name}"
                     for name in traced.tracer.unrestored()]
    return attempted, failed, failures


def report_trace(traced: Traced, values: dict, args) -> str:
    """Flag a poor closure, write the sweep spans; returns the note line."""
    closure = values["trace.closure"]
    if abs(closure - 1.0) > CLOSURE_TOLERANCE:
        print(f"[perfbench] FLAG trace.closure = {closure:.3f}: layer self "
              f"times miss the plain wall by more than "
              f"{CLOSURE_TOLERANCE:.0%}")
    tracer = traced.tracer
    if tracer.keep_spans:
        path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as handle:
            json.dump(tracer.span_records(traced.origin), handle)
        print(f"[perfbench] {len(tracer.spans)} sweep spans written to "
              f"{path.relative_to(ROOT)}")
    c_in, c_out = traced.cost
    return (f"one traced pass, wrapper cost {c_in * 1e9:.0f} + "
            f"{c_out * 1e9:.0f} ns per call")


def run(args) -> int:
    # Unwind on SIGTERM too, so the finally blocks stop shards and pools;
    # forked pool workers keep the default disposition.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    benchmark = load_benchmark()
    env = environment()
    bench = WORKLOADS[args.workload](
        args.seed, args.quick, WORK_DIR / f"{args.workload}-{os.getpid()}")
    expected = None
    if args.seed == 1 and not args.quick:
        with open(GOLDEN_PATH) as handle:
            expected = json.load(handle)[bench.golden_key]
    setups, passes, traced = execute(bench, args)

    walls = [wall for wall, _ in passes]
    outcomes = [outcome for _, outcome in passes]
    if expected is None:
        expected = outcomes[0].outputs
    attempted, failed, failures = verify(outcomes, expected, traced)
    simulated = bench.simulated_metrics(expected)
    print(f"[perfbench] workload={args.workload} seed={args.seed} "
          f"passes={len(passes)} quick={args.quick} cpus={env['cpus']} "
          f"python={env['python']} noc_kernel={env['noc_kernel']} "
          f"nockernel_built={env['nockernel_built']}")
    for line in failures:
        print(f"[perfbench] FAIL {line}")
    for name, value in simulated.items():
        print(f"[perfbench] simulated {name} = {value:.6f}")

    note = f"median of {len(passes)} passes"
    if traced is None:
        values = {
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(
                outcome.ops / wall for wall, outcome in passes),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = select(values, benchmark["end_to_end"])
    else:
        values = layer_metrics(traced.totals, traced.tracer,
                               traced.outcome.counts, bench.build_s,
                               traced.wall, statistics.median(walls))
        metrics = select(values, benchmark["per_layer"])
        note = f"{report_trace(traced, values, args)}; plain {note}"
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:16.6f} {entry['unit']}")
    print(f"[perfbench] {note}")

    correct = not failures
    if args.out:
        append_document(Path(args.out), env, {
            "workload": args.workload, "seed": args.seed,
            "trace": bool(args.trace), "quick": args.quick,
            "passes": len(passes), "walls": walls, "setups": setups,
            "correct": correct, "attempted": attempted, "failed": failed,
            "failures": failures, "metrics": metrics,
            "simulated": simulated, "fingerprints": outcomes[0].outputs})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def compare_command(argv) -> int:
    from perfbench.compare import Incomparable, compare, format_rows

    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="baseline document (run.py --out)")
    parser.add_argument("b", help="candidate document")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        with open(path) as handle:
            docs.append(json.load(handle))
    try:
        rows, code = compare(docs[0], docs[1], load_benchmark())
    except Incomparable as exc:
        print(f"refusing to compare {args.a} with {args.b}: {exc}")
        return 2
    print(format_rows(rows))
    return code


def golden_command(argv) -> int:
    """Rewrite the golden file from the fingerprints of seed-1 runs."""
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="run.py golden")
    parser.add_argument("docs", nargs="+", help="run.py --out documents")
    args = parser.parse_args(argv)
    golden = {}
    for path in args.docs:
        with open(path) as handle:
            doc = json.load(handle)
        for entry in doc["runs"]:
            if entry["seed"] != 1 or entry["quick"] or not entry["correct"]:
                continue
            key = WORKLOADS[entry["workload"]].golden_key
            if golden.setdefault(key, entry["fingerprints"]) \
                    != entry["fingerprints"]:
                print(f"{path}: {entry['workload']} disagrees with an "
                      f"earlier {key} run")
                return 1
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sorted(golden)} to {GOLDEN_PATH.name}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_command(argv[1:])
    if argv[:1] == ["golden"]:
        return golden_command(argv[1:])
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="measuring time for the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced pass and print the "
                             "per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="append the full run record to this JSON "
                             "document (for compare and golden)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and a single pass (self-tests)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
