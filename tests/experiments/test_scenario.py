"""Tests for declarative scenarios (repro.experiments.scenario)."""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.scenario import ScenarioError, ScenarioSpec, load_scenario
from repro.experiments.sweep import ResultCache

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIO_DIR = REPO_ROOT / "examples" / "scenarios"


#: Input probes that used to run silently or die in a traceback, as
#: ``system`` overrides.
SYSTEM_PROBES = [
    pytest.param({"dram": {"latency_cycles": -100}}, id="dram-latency"),
    pytest.param({"frequency_ghz": 0}, id="frequency-zero"),
    pytest.param({"rob_size": 0}, id="rob-size-zero"),
    pytest.param({"perfect_prefetch_lead": -5}, id="prefetch-lead"),
    pytest.param({"l2_assoc": 8.0}, id="l2-assoc-float"),
    pytest.param({"dram": {"bandwidth_bytes_per_cycle": 0}},
                 id="dram-bandwidth-zero"),
    pytest.param({"dram": {"access_granularity": 0}},
                 id="dram-granularity-zero"),
    pytest.param({"dram": {"model": "banked", "banks_per_rank": 0}},
                 id="dram-banks-zero"),
    pytest.param({"noc": {"hop_latency": 2 ** 63}}, id="noc-hop-latency-huge"),
    pytest.param({"l1d": {"size_bytes": 2 ** 63, "associativity": 4}},
                 id="l1d-size-huge"),
    pytest.param({"hierarchy": {"levels": [1, 2]}},
                 id="hierarchy-levels-not-mappings"),
    pytest.param({"hierarchy": {"levels": "ab"}},
                 id="hierarchy-levels-string"),
    pytest.param({"hierarchy": {"levels": {"a": 1}}},
                 id="hierarchy-levels-mapping"),
]

#: Workload-parameter (and top-level distance) probes: a scenario-document
#: update and the error it must give.
WORKLOAD_PROBES = [
    pytest.param({"workload_params": {"n_indices": 0}},
                 r"bad workload_params: n_indices must be positive "
                 r"\(an int > 0, below 2\*\*31\), got 0", id="n-indices-zero"),
    pytest.param({"workload_params": {"n_indices": -5}},
                 "n_indices must be positive .*got -5",
                 id="n-indices-negative"),
    pytest.param({"workload_params": {"n_indices": "abc"}},
                 "n_indices must be positive .*got 'abc'",
                 id="n-indices-string"),
    pytest.param({"workload_params": {"n_indices": 256.0}},
                 "n_indices must be positive .*got 256.0",
                 id="n-indices-float"),
    pytest.param({"workload_params": {"n_indices": 2 ** 63}},
                 f"n_indices must be positive .*got {2 ** 63}",
                 id="n-indices-huge"),
    pytest.param({"workload_params": {"n_data": 0}},
                 "n_data must be positive .*got 0", id="n-data-zero"),
    pytest.param({"workload_params": {"seed": "x"}},
                 r"seed must be non-negative \(an int >= 0, below 2\*\*31\), "
                 r"got 'x'",
                 id="seed-string"),
    pytest.param({"sw_prefetch_distance": -3},
                 "^error: sw_prefetch_distance must be positive .*got -3",
                 id="sw-distance-negative"),
]


def three_level_doc(**overrides):
    doc = {
        "workload": "indirect_stream",
        "workload_params": {"n_indices": 512, "n_data": 2048, "seed": 3},
        "mode": "imp",
        "n_cores": 4,
        "system": {
            "hierarchy": {
                "prefetch_level": "l2",
                "levels": [
                    {"name": "l1", "size_bytes": 4096, "associativity": 4},
                    {"name": "l2", "size_bytes": 16384, "associativity": 8,
                     "hit_latency": 4},
                    {"name": "l3", "size_bytes": 32768, "associativity": 8,
                     "scope": "shared", "hit_latency": 8},
                ],
            },
        },
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario key"):
            ScenarioSpec.from_dict({"workload": "spmv", "coresx": 4})

    def test_missing_workload(self):
        with pytest.raises(ScenarioError, match="must name a 'workload'"):
            ScenarioSpec.from_dict({"mode": "base"})

    def test_unknown_workload_lists_choices(self):
        with pytest.raises(ValueError, match="indirect_stream"):
            ScenarioSpec.from_dict({"workload": "minesweeper"})

    def test_unknown_mode_lists_choices(self):
        with pytest.raises(ValueError, match="imp_partial_noc_dram"):
            ScenarioSpec.from_dict({"workload": "spmv", "mode": "turbo"})

    def test_unknown_system_key_lists_fields(self):
        with pytest.raises(ScenarioError, match="valid keys"):
            ScenarioSpec.from_dict({"workload": "spmv",
                                    "system": {"l5_size": 1}})

    def test_n_cores_must_be_top_level(self):
        with pytest.raises(ScenarioError, match="top-level 'n_cores'"):
            ScenarioSpec.from_dict({"workload": "spmv",
                                    "system": {"n_cores": 16}})

    def test_bad_dram_model_fails_at_validation(self):
        with pytest.raises(ValueError, match="simple, banked"):
            ScenarioSpec.from_dict({"workload": "spmv",
                                    "system": {"dram": {"model": "quantum"}}})

    def test_bad_hierarchy_prefetch_level(self):
        doc = three_level_doc()
        doc["system"]["hierarchy"]["prefetch_level"] = "l9"
        with pytest.raises(ScenarioError, match="prefetch_level"):
            ScenarioSpec.from_dict(doc)

    def test_shared_level_must_be_last(self):
        doc = three_level_doc()
        doc["system"]["hierarchy"]["levels"][0]["scope"] = "shared"
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["system"]["hierarchy"]["levels"][0].update(
            associativity=0),
        lambda doc: doc["system"]["hierarchy"]["levels"][1].update(
            size_bytes=-8192),
        lambda doc: doc["system"].update(hierarchy=None, l2_assoc=0),
    ], ids=["level-associativity-0", "level-size-negative", "l2-assoc-0"])
    def test_nonpositive_cache_geometry(self, mutate):
        doc = three_level_doc()
        mutate(doc)
        with pytest.raises(ScenarioError, match="must be positive"):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("system", [
        {"partial_noc": True, "l1_sector_size": -8},
        {"partial_noc": True, "l1_sector_size": 24},
        {"partial_dram": True, "l2_sector_size": 0},
        {"l2_sector_size": 128},
    ], ids=["l1-negative", "l1-not-dividing", "l2-zero", "l2-over-line"])
    def test_bad_sector_size(self, system):
        doc = {"workload": "spmv", "system": system}
        with pytest.raises(ScenarioError, match="divide the 64-byte line"):
            ScenarioSpec.from_dict(doc)

    def test_sector_size_checked_against_the_hierarchy_line(self):
        doc = three_level_doc()
        for level in doc["system"]["hierarchy"]["levels"]:
            level["line_size"] = 128
        doc["system"].update(partial_noc=True, l1_sector_size=128,
                             l2_sector_size=128)
        ScenarioSpec.from_dict(doc)
        doc["system"]["l2_sector_size"] = 256
        with pytest.raises(ScenarioError, match="divide the 128-byte line"):
            ScenarioSpec.from_dict(doc)

    def test_negative_hit_latency(self):
        doc = three_level_doc()
        doc["system"]["hierarchy"]["levels"][1]["hit_latency"] = -1000
        with pytest.raises(ScenarioError,
                           match="hit_latency must be non-negative"):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("system", [
        {"partial_noc": True, "l1_sector_size": -8},
        {"hierarchy": three_level_doc()["system"]["hierarchy"],
         "l2_sector_size": 24},
        {"l1d": {"size_bytes": 4096, "associativity": 4,
                 "hit_latency": -1}},
        {"noc": {"link_bandwidth_flits": 0}},
        {"noc": {"hop_latency": -2}},
        {"noc": {"header_flits": -1}},
        *SYSTEM_PROBES,
    ], ids=["sector-negative", "sector-not-dividing", "hit-latency",
            "noc-bandwidth-zero", "noc-hop-latency-negative",
            "noc-header-negative", *(probe.id for probe in SYSTEM_PROBES)])
    def test_bad_system_exits_2_through_the_cli(self, tmp_path, system):
        import io

        from repro.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            dict(three_level_doc(), system=system)))
        out = io.StringIO()
        assert main(["run", "--scenario", str(path)], out=out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad system")

    @pytest.mark.parametrize("noc, message", [
        ({"link_bandwidth_flits": 0}, "link_bandwidth_flits must be positive"),
        ({"link_bandwidth_flits": -1.5},
         "link_bandwidth_flits must be positive"),
        ({"hop_latency": -2}, "hop_latency must be non-negative"),
        ({"header_flits": -1}, "header_flits must be non-negative"),
    ], ids=["bandwidth-zero", "bandwidth-negative", "hop-latency-negative",
            "header-negative"])
    def test_bad_noc(self, noc, message):
        with pytest.raises(ScenarioError, match=f"bad system.noc: {message}"):
            ScenarioSpec.from_dict({"workload": "spmv",
                                    "system": {"noc": noc}})

    @pytest.mark.parametrize("n_cores, message", [
        ("four", "n_cores must be a positive perfect square (1, 4, 16, 64, "
                 "...) for a 2-D mesh, got 'four'"),
        (4.0, "n_cores must be a positive perfect square (1, 4, 16, 64, "
              "...) for a 2-D mesh, got 4.0"),
        (True, "n_cores must be a positive perfect square (1, 4, 16, 64, "
               "...) for a 2-D mesh, got True"),
        (3, "n_cores must be a positive perfect square"),
        (0, "n_cores must be a positive perfect square"),
    ], ids=["string", "float", "bool", "not-square", "zero"])
    def test_bad_n_cores_exits_2_through_the_cli(self, tmp_path, n_cores,
                                                 message):
        import io

        from repro.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(three_level_doc(), n_cores=n_cores)))
        out = io.StringIO()
        assert main(["run", "--scenario", str(path)], out=out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")

    @pytest.mark.parametrize("imp, message", [
        ({"pt_size": 0}, "pt_size must be positive"),
        ({"ipd_size": -2}, "ipd_size must be positive"),
        ({"max_prefetch_distance": 0}, "max_prefetch_distance must be"),
        ({"gp_samples": 0}, "gp_samples must be positive"),
        ({"l1_sector_size": 0, "partial_enabled": True},
         "l1_sector_size must be positive and divide the 64-byte line"),
        ({"l2_sector_size": 24}, "l2_sector_size must be positive"),
        ({"confidence_threshold": 9}, "confidence_threshold must be in"),
        ({"rw_write_threshold": 4}, "rw_write_threshold must not exceed"),
        ({"stream": {"table_size": 0}},
         "bad imp.stream: table_size must be positive"),
        ({"stream": {"train_threshold": 16}},
         "bad imp.stream: train_threshold must be in"),
        ({"pt_size": 16.5}, r"bad imp: pt_size must be positive \(an int > "
                            r"0, below 2\*\*31\), got 16.5"),
        ({"pt_size": 2 ** 63}, "bad imp: pt_size must be positive .*got "
                               f"{2 ** 63}"),
        ({"pt_size": True}, "bad imp: pt_size must be positive .*got True"),
        ({"throttle_low_ratio": 5}, r"bad imp: throttle_low_ratio must be a "
                                    r"finite number in \[0, 1\], got 5"),
        ({"shift_values": "abc"}, "bad imp: shift_values must be a "
                                  "non-empty list of ints, got 'abc'"),
    ], ids=["pt-zero", "ipd-negative", "distance-zero", "samples-zero",
            "l1-sector-zero", "l2-sector-not-dividing", "confidence-high",
            "rw-threshold-high", "stream-table-zero",
            "stream-threshold-high", "pt-float", "pt-huge", "pt-bool",
            "ratio-high", "shift-values-string"])
    def test_bad_imp_overrides(self, imp, message):
        doc = {"workload": "spmv", "mode": "imp", "imp": imp}
        with pytest.raises(ScenarioError, match=message):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("imp,prefix", [
        ({"pt_size": 0}, "error: bad imp: pt_size"),
        ({"l1_sector_size": 0, "partial_enabled": True},
         "error: bad imp: l1_sector_size"),
        ({"confidence_threshold": 9}, "error: bad imp: confidence_threshold"),
        ({"rw_write_threshold": 4}, "error: bad imp: rw_write_threshold"),
        ({"stream": {"table_size": 0}}, "error: bad imp.stream"),
        ({"pt_size": 16.5}, "error: bad imp: pt_size"),
        ({"pt_size": True}, "error: bad imp: pt_size"),
        ({"throttle_low_ratio": 5}, "error: bad imp: throttle_low_ratio"),
        ({"shift_values": "abc"}, "error: bad imp: shift_values"),
    ], ids=["pt-zero", "l1-sector-zero", "confidence-high",
            "rw-threshold-high", "stream-table-zero", "pt-float", "pt-bool",
            "ratio-high", "shift-values-string"])
    def test_bad_imp_exits_2_through_the_cli(self, tmp_path, imp, prefix):
        import io

        from repro.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"workload": "indirect_stream", "mode": "imp", "n_cores": 4,
             "imp": imp}))
        out = io.StringIO()
        assert main(["run", "--scenario", str(path)], out=out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)

    def test_bad_workload_params(self):
        with pytest.raises(ScenarioError, match="workload_params"):
            ScenarioSpec.from_dict({"workload": "spmv",
                                    "workload_params": {"bogus_arg": 1}})

    @pytest.mark.parametrize("doc, message", [
        pytest.param({"workload_params": {"bogus_arg": 1}},
                     "bad workload_params: unknown parameter key.*'bogus_arg'",
                     id="unknown-key"),
        *WORKLOAD_PROBES,
    ])
    def test_bad_workload_params_exits_2_through_the_cli(self, tmp_path, doc,
                                                         message):
        """Bad workload parameters (and the top-level software-prefetch
        distance) exit 2 through the CLI with one line naming the field,
        the value and the range."""
        import io

        from repro.cli import main
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(three_level_doc(), **doc)))
        out = io.StringIO()
        assert main(["run", "--scenario", str(path)], out=out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert re.search(message, lines[0])

    def test_invalid_json_text(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")


class TestCanonicalisationAndDigest:
    def test_key_order_does_not_change_digest(self):
        doc = three_level_doc()
        # Same document, keys spelled in reversed order at every level.
        def reorder(value):
            if isinstance(value, dict):
                return {k: reorder(value[k]) for k in reversed(list(value))}
            if isinstance(value, list):
                return [reorder(item) for item in value]
            return value

        spec_a = ScenarioSpec.from_dict(doc)
        spec_b = ScenarioSpec.from_dict(reorder(doc))
        assert spec_a.digest() == spec_b.digest()
        assert spec_a.canonical_dict() == spec_b.canonical_dict()
        assert spec_a.to_runspec() == spec_b.to_runspec()

    def test_hierarchy_field_changes_digest(self):
        base = ScenarioSpec.from_dict(three_level_doc())
        changed_doc = three_level_doc()
        changed_doc["system"]["hierarchy"]["levels"][1]["size_bytes"] = 8192
        changed = ScenarioSpec.from_dict(changed_doc)
        assert base.digest() != changed.digest()

    def test_prefetch_level_changes_digest(self):
        base = ScenarioSpec.from_dict(three_level_doc())
        moved_doc = three_level_doc()
        moved_doc["system"]["hierarchy"]["prefetch_level"] = "l1"
        moved = ScenarioSpec.from_dict(moved_doc)
        assert base.digest() != moved.digest()

    def test_defaults_do_not_change_digest(self):
        explicit = ScenarioSpec.from_dict({
            "workload": "indirect_stream",
            "workload_params": {"n_indices": 512, "n_data": 2048, "seed": 3},
            "mode": "imp", "n_cores": 4, "sw_prefetch_distance": 8,
        })
        implicit = ScenarioSpec.from_dict({
            "workload": "indirect_stream",
            "workload_params": {"n_indices": 512, "n_data": 2048, "seed": 3},
            "mode": "imp", "n_cores": 4,
        })
        assert explicit.digest() == implicit.digest()

    def test_name_and_description_do_not_affect_digest(self):
        plain = ScenarioSpec.from_dict(three_level_doc())
        labelled = ScenarioSpec.from_dict(
            three_level_doc(name="labelled", description="with prose"))
        assert plain.digest() == labelled.digest()

    def test_noc_kernel_backend_does_not_change_digest(self):
        # Every NOC_KERNELS backend is contractually bit-identical, so the
        # backend choice is execution detail, not experiment identity:
        # one digest per experiment whichever backend computes it (and
        # digests from before the field existed stay valid — persisted
        # caches and sweep journals survive the kernel boundary landing).
        docs = []
        for kernel in (None, "compiled", "reference"):
            doc = three_level_doc()
            if kernel is not None:
                doc.setdefault("system", {})["noc"] = {"kernel": kernel}
            docs.append(ScenarioSpec.from_dict(doc))
        default, compiled, reference = docs
        assert default.digest() == compiled.digest() == reference.digest()
        # ...but the resolved config still honours the selection.
        assert reference.resolve()[1].noc.kernel == "reference"
        assert "kernel" not in default.canonical_dict()["base_config"]["noc"]


class TestExecution:
    def test_three_level_scenario_runs_end_to_end(self):
        spec = ScenarioSpec.from_dict(three_level_doc())
        result = spec.run()
        stats = result.stats
        assert result.runtime_cycles > 0
        # The shared level is an L3 here: its counters must be populated
        # and the private-L2 counters must be too.
        assert sum(core.l3_misses for core in stats.cores) > 0
        assert sum(core.l2_misses for core in stats.cores) > 0
        # IMP attached at L2 issues prefetches from the L1 miss stream.
        assert stats.prefetches_issued > 0

    def test_scenario_results_are_deterministic(self):
        spec = ScenarioSpec.from_dict(three_level_doc())
        first = spec.run().stats.fingerprint()
        second = ScenarioSpec.from_dict(three_level_doc()).run().stats.fingerprint()
        assert first == second

    def test_scenario_flows_through_disk_cache(self, tmp_path):
        spec = ScenarioSpec.from_dict(three_level_doc())
        cache_dir = tmp_path / "cache"
        first = spec.run(cache_dir=cache_dir)
        # The record lands under the scenario's digest...
        assert (cache_dir / f"{spec.digest()}.json").exists()
        # ...and a fresh run is served from it, bit-identically.
        cache = ResultCache(cache_dir)
        cached = cache.get(spec.to_runspec())
        assert cached is not None
        assert cached.stats.fingerprint() == first.stats.fingerprint()
        assert cache.hits == 1

    def test_checked_in_example_scenarios_validate(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            if path.name.endswith(".fingerprint.json"):
                continue
            spec = load_scenario(path)
            assert spec.workload
            assert spec.digest()

    @pytest.mark.parametrize("name", sorted(
        path.name[:-len(".fingerprint.json")]
        for path in SCENARIO_DIR.glob("*.fingerprint.json")))
    def test_scenario_corpus_matches_checked_in_fingerprints(self, name):
        """Every checked-in scenario with a pinned ``.fingerprint.json``
        must reproduce it bit-for-bit — the same golden corpus CI batches
        through ``repro sweep --scenario-dir``, kept in tier-1 so it
        cannot rot.  New scenarios join the corpus by committing a sibling
        fingerprint (``repro run --scenario f.json --write-fingerprint
        f.fingerprint.json``) — no test change needed."""
        spec = load_scenario(SCENARIO_DIR / f"{name}.json")
        expected = json.loads(
            (SCENARIO_DIR / f"{name}.fingerprint.json").read_text())
        assert spec.run().stats.fingerprint() == expected["fingerprint"], \
            f"fingerprint drift in scenario {name}"

    def test_corpus_covers_the_new_attachment_space(self):
        """The corpus must keep exercising each attachment feature: hybrid
        multi-attach, shared-level attach, a >3-level chain, and the
        capacity-sweep pair."""
        specs = {path.name: load_scenario(path)
                 for path in SCENARIO_DIR.glob("*.json")
                 if not path.name.endswith(".fingerprint.json")}
        hierarchies = {
            name: spec.resolve()[1].resolved_hierarchy()
            for name, spec in specs.items()}
        assert any(len(h.attach) > 1 for h in hierarchies.values())
        assert any(h.shared_attaches for h in hierarchies.values())
        assert any(len(h.levels) > 3 for h in hierarchies.values())
        capacity = [h.levels[1].size_bytes for name, h in hierarchies.items()
                    if name.startswith("l2_capacity")]
        assert len(capacity) >= 2 and len(set(capacity)) >= 2
