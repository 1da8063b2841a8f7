"""Shared fixtures for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper on scaled-down
inputs (pure-Python simulation of the full 64-core platform at paper scale
would take hours).  Scale and core count can be raised from the environment
to run closer to the paper's configuration:

* ``REPRO_BENCH_SCALE``  — workload size multiplier (default 1.0; lower it
  for a quick smoke run, at the cost of working sets shrinking toward the
  scaled L1 and the partial-accessing figures losing their signal)
* ``REPRO_BENCH_CORES``  — core count for the single-core-count figures
  (default 16)
* ``REPRO_BENCH_ALL_CORES=1`` — run Figures 9 and 11 at 16/64/256 cores
  instead of only ``REPRO_BENCH_CORES``.

Each benchmark prints the regenerated rows (visible with ``pytest -s``) and
records them in ``results/benchmark_tables.txt`` so EXPERIMENTS.md can be
cross-checked against a recorded run.  The file is rewritten
deterministically: it is parsed into named ``== table ==`` sections once
per session, each regenerated table replaces its section, and the whole
file is written back with sections in sorted order — re-running any subset
of the benchmarks, any number of times, converges to the same file instead
of appending duplicate blocks.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.experiments import ExperimentRunner, scaled_config
from repro.experiments.figures import format_table

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session", autouse=True)
def no_fault_injection():
    """Strip ``$REPRO_FAULTS`` for the whole benchmark session: an exported
    chaos plan must never contaminate recorded tables or perf numbers."""
    plan = os.environ.pop("REPRO_FAULTS", None)
    yield
    if plan is not None:
        os.environ["REPRO_FAULTS"] = plan


@pytest.fixture(scope="session", autouse=True)
def no_noc_kernel_override():
    """Strip ``$REPRO_NOC_KERNEL`` for the whole benchmark session:
    recorded tables and perf numbers must always reflect the configured
    (default) reservation kernel, not an ambient override."""
    name = os.environ.pop("REPRO_NOC_KERNEL", None)
    yield
    if name is not None:
        os.environ["REPRO_NOC_KERNEL"] = name

TABLES_PATH = RESULTS_PATH / "benchmark_tables.txt"

_SECTION_HEADER = re.compile(r"^== (.+) ==$")

#: Body lines that would parse as a section header on re-load (a recorded
#: scenario-corpus section may quote ``== fig9 (16 cores) ==``-style sweep
#: output) are escaped with this prefix on write and unescaped on load,
#: so any recorded text round-trips instead of splitting its section.
#: Lines that already carry escape prefixes gain one more (and lose one on
#: load), keeping the scheme symmetric at every nesting depth.
_HEADER_ESCAPE = "\\"

#: A header line under zero or more escape prefixes.
_ESCAPED_HEADER = re.compile(r"^\\*== .+ ==$")

#: Section name -> table text, loaded from the existing file on first use.
_sections: Optional[Dict[str, str]] = None


def load_sections(path: Optional[Path] = None) -> Dict[str, str]:
    """Parse a benchmark-tables file into ``{section name: table text}``.

    Duplicate sections (the legacy append behaviour) collapse to the last
    occurrence.
    """
    if path is None:
        path = TABLES_PATH
    sections: Dict[str, str] = {}
    if not path.exists():
        return sections
    name = None
    lines: list = []
    for line in path.read_text().splitlines():
        match = _SECTION_HEADER.match(line)
        if match:
            if name is not None:
                sections[name] = "\n".join(lines).strip("\n")
            name = match.group(1)
            lines = []
        elif name is not None:
            if line.startswith(_HEADER_ESCAPE) \
                    and _ESCAPED_HEADER.match(line[len(_HEADER_ESCAPE):]):
                line = line[len(_HEADER_ESCAPE):]
            lines.append(line)
    if name is not None:
        sections[name] = "\n".join(lines).strip("\n")
    return sections


def _escape_body(text: str) -> str:
    """Escape body lines that would be mistaken for section headers (or
    for already-escaped headers, which load_sections would unescape)."""
    return "\n".join(
        _HEADER_ESCAPE + line if _ESCAPED_HEADER.match(line) else line
        for line in text.splitlines())


def write_sections(sections: Dict[str, str],
                   path: Optional[Path] = None) -> None:
    """Write the sections file: sorted names, one blank line between."""
    if path is None:
        path = TABLES_PATH
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        for name in sorted(sections):
            handle.write(f"== {name} ==\n{_escape_body(sections[name])}\n\n")


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_cores() -> int:
    return int(os.environ.get("REPRO_BENCH_CORES", "16"))


def bench_core_counts():
    if os.environ.get("REPRO_BENCH_ALL_CORES", "0") == "1":
        return (16, 64, 256)
    return (bench_cores(),)


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """One shared (caching) runner so figures reuse common simulations.

    Each figure batches its runs through ``runner.prefetch``, which fans
    them out over two sweep workers; results are bit-identical to serial
    execution."""
    return ExperimentRunner(scale=bench_scale(), seed=1,
                            base_config=scaled_config(bench_cores()),
                            jobs=2)


@pytest.fixture(scope="session")
def n_cores() -> int:
    return bench_cores()


def record_table(name: str, rows, columns=None) -> str:
    """Pretty-print a figure's rows and record them in the results file.

    The named section is replaced (not appended) and the file rewritten in
    sorted-section order; sections not regenerated by this session are
    preserved from the existing file.
    """
    return record_text(name, format_table(rows, columns))


def record_text(name: str, body: str) -> str:
    """Record a pre-formatted text block (e.g. the scenario-corpus sweep
    report) as one section, with the same deterministic replace-merge
    semantics as :func:`record_table`."""
    global _sections
    body = body.strip("\n")
    text = f"== {name} ==\n{body}\n"
    print("\n" + text)
    if _sections is None:
        _sections = load_sections()
    _sections[name] = body
    write_sections(_sections)
    return text


def run_once(benchmark, func, *args, **kwargs):
    """Run a figure generator exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
