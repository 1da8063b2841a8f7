"""Byte-identity of every workload generator's traces against pinned goldens.

Trace generation is pure bookkeeping: whether a generator appends rows one
at a time or emits whole numpy columns, the per-core trace it hands to the
simulator must not change by a single byte, or every fingerprint, RunSpec
digest and cache record downstream silently changes with it.  The digests
in ``tests/data/trace_goldens.json`` pin what the per-row generators
produced: for every registered workload at a small size, at 1, 4 and 16
cores, with and without software prefetching, the sha256 of each trace's
six columns plus its four summary counters.

Recapture, only when a change of traces is intended::

    PYTHONPATH=src python tests/workloads/test_trace_goldens.py \\
        > tests/data/trace_goldens.json
"""

import hashlib
import json
import sys
from array import array
from pathlib import Path

import pytest

from repro import registry
from repro.sim.trace import KIND_BY_CODE

GOLDEN_PATH = (Path(__file__).resolve().parents[1] / "data"
               / "trace_goldens.json")

#: label -> (registry name, constructor parameters).  Sizes are small but
#: keep every generator's interesting paths alive: inner loops longer than
#: the software-prefetch distance, a tri_count two-hop budget that binds,
#: more cores than work items (empty traces), fractional element sizes
#: (bit vectors) and wide rows (16-byte feature rows).
WORKLOADS = {
    "pagerank": ("pagerank", {"n_vertices": 256}),
    "tri_count": ("tri_count", {"n_vertices": 256,
                                "max_two_hop_per_vertex": 24}),
    "graph500": ("graph500", {"n_vertices": 256}),
    "sgd": ("sgd", {"n_users": 128, "n_items": 96, "n_ratings": 640}),
    "lsh": ("lsh", {"n_points": 256, "n_queries": 24, "n_tables": 2,
                    "bucket_size": 12}),
    "spmv": ("spmv", {"nx": 5, "ny": 5, "nz": 4}),
    "symgs": ("symgs", {"nx": 4, "ny": 4, "nz": 5}),
    "dense_stencil": ("dense_stencil", {"rows": 21, "cols": 13}),
    "blocked_matmul": ("blocked_matmul", {"size": 24, "block": 4}),
    "strided_copy": ("strided_copy", {"n_elements": 515, "stride": 7}),
    "indirect_stream": ("indirect_stream", {"n_indices": 517,
                                            "n_data": 1024}),
    "indirect_stream/two_way": ("indirect_stream", {
        "n_indices": 300, "n_data": 700, "elem_size": 16, "two_way": True}),
    "streaming": ("streaming", {"n_elements": 515}),
}
CORES = (1, 4, 16)
SOFTWARE_PREFETCH = (False, True)


def trace_digest(trace) -> str:
    """sha256 over a trace's core id, six columns and four counters.

    Each column is hashed widened to int64, so the digest pins the values
    whatever width the trace stores them at.
    """
    h = hashlib.sha256()
    h.update(str(trace.core_id).encode())
    for column in (trace.op, trace.pc, trace.addr, trace.size, trace.aux,
                   trace.lead):
        h.update(array("q", column).tobytes())
    counts = trace.count_by_kind()
    h.update(json.dumps([trace.instruction_count,
                         trace.memory_reference_count,
                         [counts[kind] for kind in KIND_BY_CODE],
                         len(trace)]).encode())
    return h.hexdigest()


def build_digest(label: str, cores: int, software_prefetch: bool) -> str:
    name, params = WORKLOADS[label]
    build = registry.WORKLOADS.get(name).factory(**params).build(
        cores, software_prefetch=software_prefetch)
    assert len(build.traces) == cores
    return hashlib.sha256("".join(
        trace_digest(trace) for trace in build.traces).encode()).hexdigest()


def key(label: str, cores: int, software_prefetch: bool) -> str:
    return f"{label}/c{cores}/{'sw' if software_prefetch else 'hw'}"


def capture() -> dict:
    goldens = {
        "_recipe": (
            "Captured at commit 8b4c5a6, the last one whose workload "
            "generators built traces row by row through TraceBuilder, by "
            "running: PYTHONPATH=src python "
            "tests/workloads/test_trace_goldens.py > "
            "tests/data/trace_goldens.json. Each value is the sha256 of "
            "the concatenated per-core trace digests (core id, six "
            "columns, four counters) of one build."),
        "builds": {},
    }
    for label in WORKLOADS:
        for cores in CORES:
            for software_prefetch in SOFTWARE_PREFETCH:
                goldens["builds"][key(label, cores, software_prefetch)] = (
                    build_digest(label, cores, software_prefetch))
    return goldens


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())["builds"]


def test_goldens_cover_every_registered_workload():
    assert ({name for name, _ in WORKLOADS.values()}
            == set(registry.WORKLOADS.names()))


@pytest.mark.parametrize("software_prefetch", SOFTWARE_PREFETCH,
                         ids=("hw", "sw"))
@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("label", list(WORKLOADS))
def test_trace_matches_golden(goldens, label, cores, software_prefetch):
    assert (build_digest(label, cores, software_prefetch)
            == goldens[key(label, cores, software_prefetch)])


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
