"""Fuzz the declared input contract (``repro.contract``).

Every declared field of every configuration a document can reach — the
scenario's own fields, the workload's parameters, ``system`` and its
nested ``l1d`` / ``noc`` / ``dram`` / hierarchy level, ``imp`` and its
embedded ``stream`` — is set, one at a time, to an awkward value.  The
scenario path and both ``POST /v1/jobs`` document forms must then either
accept the document or refuse it with a :class:`ScenarioError` naming the
field; any other exception is a contract hole.  Torn cache records and
journals, fed arbitrary bytes, must be quarantined or skipped, never
raise.

The profile is derandomised with a bounded example count, so the harness
is deterministic and cheap enough for tier-1.
"""

from __future__ import annotations

import copy
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import IMPConfig
from repro.experiments.durable import read_log
from repro.experiments.scenario import ScenarioError, ScenarioSpec
from repro.experiments.sweep import ResultCache
from repro.prefetchers.stream import StreamPrefetcherConfig
from repro.service.jobs import parse_job_document
from repro.sim.config import (CacheConfig, DramConfig, HierarchyConfig,
                              LevelConfig, NoCConfig, SystemConfig)

CONTRACT = settings(
    derandomize=True, database=None, deadline=None, max_examples=400,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

#: A valid scenario spelling every nested configuration out, so each of
#: their fields has a place in the document.
BASE = {
    "name": "fuzz",
    "description": "",
    "workload": "indirect_stream",
    "workload_params": {"n_indices": 256, "n_data": 1024, "elem_size": 8,
                        "two_way": False, "seed": 3},
    "mode": "imp",
    "n_cores": 4,
    "sw_prefetch_distance": 8,
    "system": {
        "l1d": {"size_bytes": 16384, "associativity": 4},
        "noc": {},
        "dram": {},
        "hierarchy": {"levels": [
            {"name": "l1", "size_bytes": 4096, "associativity": 4},
            {"name": "l2", "size_bytes": 16384, "associativity": 8,
             "scope": "shared", "hit_latency": 4},
        ]},
    },
    "imp": {"stream": {}},
}


def _names(cls):
    return [f.name for f in fields(cls)]


#: Document paths of every declared field.
PATHS = (
    [(name,) for name in _names(ScenarioSpec)]
    + [("workload_params", name) for name in
       ("n_indices", "n_data", "elem_size", "two_way", "seed")]
    + [("system", name) for name in _names(SystemConfig)]
    + [("system", "l1d", name) for name in _names(CacheConfig)]
    + [("system", "noc", name) for name in _names(NoCConfig)]
    + [("system", "dram", name) for name in _names(DramConfig)]
    + [("system", "hierarchy", name) for name in _names(HierarchyConfig)]
    + [("system", "hierarchy", "levels", 0)]
    + [("system", "hierarchy", "levels", 0, name)
       for name in _names(LevelConfig)]
    + [("imp", name) for name in _names(IMPConfig)]
    + [("imp", "stream", name) for name in _names(StreamPrefetcherConfig)]
)

VALUES = [0, -1, 2 ** 63, 1.5, True, "x", None, [], {}]

#: Where a scenario section lives in a RunSpec document.
RUNSPEC_KEYS = {"system": "base_config", "imp": "imp_config"}
RUNSPEC_BODY = ScenarioSpec.from_dict(BASE).to_runspec().to_dict()


def with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def assert_resolves_or_names(parse, doc, path):
    # A list entry is named by its list.  A renamed hierarchy level breaks
    # the runspec's explicit attach list, whose error names the level list
    # instead of the field.
    field = path[-2] if isinstance(path[-1], int) else path[-1]
    names = (("name", "level") if path[-2:] == (0, "name")
             else (field, RUNSPEC_KEYS.get(field, field)))
    try:
        parse(doc)
    except ScenarioError as exc:
        assert any(name in str(exc) for name in names), \
            f"{exc} does not name {field!r}"


def test_the_base_scenario_is_valid():
    ScenarioSpec.from_dict(BASE)
    parse_job_document(BASE)
    parse_job_document({"runspec": RUNSPEC_BODY})


@CONTRACT
@given(path=st.sampled_from(PATHS), value=st.sampled_from(VALUES))
def test_every_declared_field_resolves_or_fails_naming_it(path, value):
    doc = with_value(BASE, path, value)
    assert_resolves_or_names(ScenarioSpec.from_dict, doc, path)
    assert_resolves_or_names(parse_job_document, doc, path)
    if path[0] == "description":
        return                      # a runspec carries no description
    if path[0] == "name":
        runspec_doc = {"runspec": RUNSPEC_BODY, "name": value}
    else:
        runspec_doc = {"runspec": with_value(
            RUNSPEC_BODY, (RUNSPEC_KEYS.get(path[0], path[0]), *path[1:]),
            value)}
    assert_resolves_or_names(parse_job_document, runspec_doc, path)


@CONTRACT
@given(data=st.binary(max_size=96))
def test_any_cache_record_bytes_quarantine_or_miss(tmp_path, data):
    cache = ResultCache(tmp_path / "cache")
    spec = ScenarioSpec.from_dict(BASE).to_runspec()
    cache.directory.mkdir(parents=True, exist_ok=True)
    path = cache.directory / f"{spec.digest()}.json"
    path.write_bytes(data)
    assert cache.get(spec) is None
    assert cache.quarantined == 1 and not path.exists()


@CONTRACT
@given(lines=st.lists(st.binary(max_size=48), max_size=6))
def test_any_journal_bytes_replay_or_skip(tmp_path, lines):
    path = tmp_path / "journal.jsonl"
    data = b"\n".join(lines)
    path.write_bytes(data)
    entries, corrupt = read_log(path)
    kept = [line for line in data.split(b"\n") if line.strip()]
    assert len(entries) + corrupt == len(kept)
    assert all(isinstance(entry, dict) for entry in entries)
