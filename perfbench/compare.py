"""Compare two benchmark documents written with ``run.py --out``.

Each document holds one or more runs (``{"env": ..., "runs": [...]}``).
For every (end-to-end metric, workload) pair the medians of the two sides
are compared against the metric's bound in ``BENCHMARK.json``:

``better`` / ``worse``
    the median moved by more than the bound;
``within bound``
    it moved by no more than the bound;
``unresolved``
    one side's run-to-run spread (quartile distance over median) exceeds
    the bound, and not every run of one side beats every run of the other.

Exact results — simulated metrics and per-layer counts that repeat
exactly — must be identical, else the pair reads ``differs``.  Documents
from different hosts, Python versions, seeds or NoC kernels are refused:
an A/B across them would measure the environment, as a silent
``compiled`` -> ``fused`` kernel fallback once did.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: Environment fields that must match for a comparison to mean anything.
ENV_KEYS = ("cpus", "python", "noc_kernel")

#: Per-layer metrics that repeat exactly for a given seed and commit.
EXACT_SUFFIXES = (".calls", ".bytes", ".issued", "_ratio")


class Incomparable(ValueError):
    """The two documents were measured under different conditions."""


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """Verdict of the values ``b`` against the baseline values ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    worse_by = (sign * (statistics.median(b) - med_a) / med_a
                if med_a else 0.0)

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    if max(spread(a), spread(b)) > bound:
        if all(beats(x, y) for x in b for y in a):
            return "better"
        if all(beats(y, x) for x in b for y in a):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def _check_comparable(a: Dict, b: Dict) -> None:
    for key in ENV_KEYS:
        if a["env"].get(key) != b["env"].get(key):
            raise Incomparable(f"{key} differs: {a['env'].get(key)!r} vs "
                               f"{b['env'].get(key)!r}")
    for key in ("seed", "quick"):
        left = sorted({run[key] for run in a["runs"]})
        right = sorted({run[key] for run in b["runs"]})
        if left != right:
            raise Incomparable(f"{key} differs: {left} vs {right}")


def _values(doc: Dict, workload: str, name: str) -> List:
    """End-to-end values of ``name`` over the untraced runs."""
    return [run["metrics"][name]["value"] for run in doc["runs"]
            if run["workload"] == workload and not run["trace"]
            and name in run["metrics"]]


def _exact(doc: Dict, workload: str, name: str) -> Dict[int, set]:
    """Seed -> values of an exact result: a simulated metric, or a
    per-layer count of a traced run."""
    found: Dict[int, set] = {}
    for run in doc["runs"]:
        if run["workload"] != workload:
            continue
        value = run.get("simulated", {}).get(name)
        if value is None and run["trace"] and name in run["metrics"]:
            value = run["metrics"][name]["value"]
        if value is not None:
            found.setdefault(run["seed"], set()).add(value)
    return found


def compare(a: Dict, b: Dict, benchmark: Dict) -> Tuple[List[Dict], int]:
    """Rows of ``{workload, metric, a, b, change, verdict}`` and an exit
    code: 1 when anything is ``worse`` or ``differs``, else 0.  Raises
    :class:`Incomparable` for documents that must not be compared."""
    _check_comparable(a, b)
    rows: List[Dict] = []
    exact_names = [metric["name"] for metric in benchmark["per_layer"]
                   if metric["name"].endswith(EXACT_SUFFIXES)]
    exact_names += sorted({name for doc in (a, b) for run in doc["runs"]
                           for name in run.get("simulated", {})})
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            left = _values(a, workload, metric["name"])
            right = _values(b, workload, metric["name"])
            if not left or not right:
                continue
            med_a, med_b = statistics.median(left), statistics.median(right)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "a": med_a, "n_a": len(left), "b": med_b, "n_b": len(right),
                "change": (med_b - med_a) / med_a if med_a else 0.0,
                "verdict": verdict(left, right, metric["better"],
                                   metric["bound"])})
        for name in exact_names:
            left, right = _exact(a, workload, name), _exact(b, workload, name)
            seeds = sorted(set(left) & set(right))
            values = set().union(*(left[seed] | right[seed]
                                   for seed in seeds))
            if not values - {0}:
                continue    # a layer this workload does not exercise
            same = all(len(left[seed] | right[seed]) == 1 for seed in seeds)
            rows.append({
                "workload": workload, "metric": name,
                "a": min(left[seeds[0]]), "n_a": len(seeds),
                "b": min(right[seeds[0]]), "n_b": len(seeds), "change": 0.0,
                "verdict": "identical" if same else "differs"})
    failed = any(row["verdict"] in ("worse", "differs") for row in rows)
    return rows, 1 if failed else 0


def format_rows(rows: Sequence[Dict]) -> str:
    """One line per row; ``change`` is B's median over A's, minus one."""
    lines = [f"{'workload':14s} {'metric':28s} {'A median':>14s} "
             f"{'B median':>14s} {'change':>8s}  verdict"]
    for row in rows:
        lines.append(f"{row['workload']:14s} {row['metric']:28s} "
                     f"{row['a']:14.6g} {row['b']:14.6g} "
                     f"{100 * row['change']:+7.2f}%  {row['verdict']}"
                     f"  (n={row['n_a']}/{row['n_b']})")
    return "\n".join(lines)
