"""Tests for the ``repro profile`` harness (experiments/profile.py).

Previously only exercised manually; these pin the report's invariants on a
tiny workload: subsystem self-time attribution buckets must sum to the
profiled total (and their shares to ~1), the document must round-trip
through JSON, and the CLI/formatting layer must render it.
"""

import io
import json

import pytest

from repro.experiments.profile import (
    OTHER,
    SUBSYSTEM_RULES,
    format_report,
    profile_run,
    subsystem_of,
)


@pytest.fixture(scope="module")
def document():
    """One profiled tiny run shared by every test in this module."""
    return profile_run("indirect_stream", prefetcher="stream", cores=4,
                       seed=1, quick=True)


def test_buckets_sum_to_profiled_total(document):
    total = document["profiled_seconds"]
    bucket_sum = sum(bucket["self_seconds"]
                     for bucket in document["subsystems"].values())
    assert bucket_sum == pytest.approx(total, rel=1e-9)
    share_sum = sum(bucket["share"]
                    for bucket in document["subsystems"].values())
    assert share_sum == pytest.approx(1.0, rel=1e-9)


def test_every_access_touches_the_core_subsystems(document):
    # A real simulation must attribute time to the core model and the
    # cache/hierarchy machinery; "other" must not swallow the simulator.
    assert document["subsystems"]["core"]["self_seconds"] > 0
    assert {"cache", "hierarchy"} & set(document["subsystems"])
    other = document["subsystems"].get(OTHER, {"share": 0.0})
    assert other["share"] < 0.5


def test_fingerprint_and_metadata_recorded(document):
    assert document["schema"] == "repro-profile-v1"
    assert document["workload"] == "indirect_stream"
    assert document["prefetcher"] == "stream"
    assert document["cores"] == 4
    assert document["runtime_cycles"] == \
        document["fingerprint"]["runtime_cycles"]
    assert document["runtime_cycles"] > 0
    # The trace build runs outside the profiler but is still timed, and
    # the trace store it leaves is sized at the schema's 25 B per row.
    assert document["build_seconds"] > 0.0
    assert document["trace_rows"] > 0
    assert document["trace_bytes"] == 25 * document["trace_rows"]
    assert not {"build_seconds", "trace_bytes", "trace_rows"} & \
        set(document["fingerprint"])
    assert document["top_functions"], "no hot functions recorded"
    for row in document["top_functions"]:
        assert row["self_seconds"] >= 0.0
        assert ":" in row["function"]


def test_noc_and_queueing_time_attributed(document):
    # Reservation time must land in the kernel module (noc.kernel), apart
    # from geometry/caching (noc.geometry) and from the shared
    # ResourceSchedule primitive (queueing: DRAM always, the NoC only under
    # the reference backend), whichever kernel backend resolved; this keeps
    # kernel-backend perf work honest about where the time goes.
    subsystems = document["subsystems"]
    for bucket in ("noc.kernel", "noc.geometry", "queueing"):
        assert bucket in subsystems, f"missing {bucket} bucket"
        assert subsystems[bucket]["calls"] > 0, bucket
    assert subsystems["noc.kernel"]["share"] > 0.0, \
        "no time attributed to the NoC kernel"


def test_document_round_trips_through_json(document):
    clone = json.loads(json.dumps(document))
    assert clone == document


def test_format_report_renders(document):
    out = io.StringIO()
    format_report(document, top=5, out=out)
    text = out.getvalue()
    assert "indirect_stream/stream" in text
    assert "subsystem" in text
    assert "top functions" in text
    assert "trace build" in text and "(not profiled)" in text
    assert (f"trace store       : {document['trace_bytes'] / 2 ** 20:.1f} MB "
            f"in {document['trace_rows']} rows (25 B/row)") in text
    # One line per subsystem bucket.
    for name in document["subsystems"]:
        assert name in text


def test_subsystem_rules_cover_known_paths():
    assert subsystem_of("src/repro/memory/cache.py") == "cache"
    assert subsystem_of("src\\repro\\noc\\mesh.py") == "noc.geometry"
    assert subsystem_of("src/repro/noc/kernel.py") == "noc.kernel"
    # ResourceSchedule is the shared reservation primitive (DRAM always,
    # the NoC only under the reference backend), so it gets its own
    # bucket rather than being folded into noc.kernel.
    assert subsystem_of("src/repro/sim/queueing.py") == "queueing"
    assert subsystem_of("/usr/lib/python3.11/heapq.py") == OTHER
    # First-match-wins keeps the rule list unambiguous.
    fragments = [fragment for fragment, _ in SUBSYSTEM_RULES]
    assert len(fragments) == len(set(fragments))


def test_extension_frames_attribute_to_noc_kernel():
    # cProfile records built-in (C) frames under the pseudo-filename '~'
    # with the function's qualified name; the compiled kernel's frames
    # must land in noc.kernel, not a generic builtins bucket.
    assert subsystem_of(
        "~", "<method 'reserve' of 'repro._nockernel.Route' objects>"
    ) == "noc.kernel"
    assert subsystem_of(
        "~", "<method 'sweep' of 'repro._nockernel.Kernel' objects>"
    ) == "noc.kernel"
    # Unrelated builtins keep falling through to OTHER.
    assert subsystem_of("~", "<built-in method builtins.len>") == OTHER
    # And the name-based rule never hijacks ordinary Python frames.
    assert subsystem_of("src/repro/memory/cache.py", "lookup") == "cache"


class TestCompiledBackendAttribution:
    """Regression for the satellite: with the compiled backend selected,
    profiled time must stay fully attributed (buckets sum to the profiled
    total) and the extension's reservation time must be visible in the
    noc.kernel bucket rather than misattributed to callers."""

    @pytest.fixture(scope="class")
    def compiled_document(self):
        from repro.noc.kernel import compiled_kernel_available
        if not compiled_kernel_available():
            pytest.skip("repro._nockernel extension not built")
        return profile_run("indirect_stream", prefetcher="imp", cores=4,
                           seed=1, quick=True)

    def test_buckets_sum_to_profiled_total(self, compiled_document):
        total = compiled_document["profiled_seconds"]
        bucket_sum = sum(bucket["self_seconds"]
                         for bucket in compiled_document["subsystems"].values())
        assert bucket_sum == pytest.approx(total, rel=1e-9)
        share_sum = sum(bucket["share"]
                        for bucket in compiled_document["subsystems"].values())
        assert share_sum == pytest.approx(1.0, rel=1e-9)

    def test_compiled_reserve_calls_land_in_noc_kernel(self,
                                                       compiled_document):
        # The C reserve is a genuine PyCFunction, so cProfile sees every
        # call; with traffic flowing the bucket must have recorded them.
        kernel_bucket = compiled_document["subsystems"]["noc.kernel"]
        assert kernel_bucket["calls"] > 0
        assert any("_nockernel" in row["function"]
                   for row in compiled_document["top_functions"]), \
            "extension frames missing from the function table"
