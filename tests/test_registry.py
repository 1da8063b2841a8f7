"""Tests for the plugin registries (repro.registry)."""

import pytest

from repro.experiments.configs import CONFIG_MODES, experiment_config, scaled_config
from repro.memory.dram import BankedDram, SimpleDram, make_dram
from repro.prefetchers.factory import make_prefetcher_factory
from repro.registry import (
    ALL_REGISTRIES,
    DRAM_MODELS,
    MODES,
    PREFETCHERS,
    Registry,
    RegistryError,
    WORKLOADS,
)
from repro.sim.config import DramConfig
from repro.sim.system import run_workload
from repro.workloads.synthetic import IndirectStreamWorkload


class TestRegistryBasics:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", lambda: "A", description="the A widget")
        entry = registry.get("a")
        assert entry.factory() == "A"
        assert entry.description == "the A widget"

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("b", description="decorated")
        def make_b():
            return "B"

        assert registry.get("b").factory is make_b

    def test_duplicate_rejected_unless_replace(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", lambda: 2)
        registry.register("a", lambda: 2, replace=True)
        assert registry.get("a").factory() == 2

    def test_unknown_name_lists_valid_choices(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1)
        registry.register("beta", lambda: 2)
        with pytest.raises(RegistryError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "gamma" in message
        assert "alpha" in message and "beta" in message
        # RegistryError must stay a ValueError for legacy call sites.
        assert isinstance(excinfo.value, ValueError)

    def test_names_preserve_registration_order(self):
        registry = Registry("widget")
        for name in ("z", "a", "m"):
            registry.register(name, lambda: None)
        assert registry.names() == ["z", "a", "m"]

    def test_contains_len_iter(self):
        registry = Registry("widget")
        registry.register("a", lambda: None)
        assert "a" in registry and "b" not in registry
        assert len(registry) == 1
        assert list(registry) == ["a"]

    def test_entries_available_by_default(self):
        registry = Registry("widget")
        registry.register("a", lambda: None)
        entry = registry.get("a")
        assert entry.available is None
        assert entry.is_available()

    def test_availability_probe_gates_is_available(self):
        registry = Registry("widget")
        present = [True]
        registry.register("a", lambda: None, available=lambda: present[0])
        # The probe is consulted per call, so availability can change at
        # runtime (e.g. $REPRO_NO_CEXT toggled) without re-registration.
        assert registry.get("a").is_available()
        present[0] = False
        assert not registry.get("a").is_available()
        # Unavailable entries stay registered and resolvable by name.
        assert "a" in registry and registry.names() == ["a"]


class TestStockRegistries:
    def test_all_registries_exposed(self):
        assert set(ALL_REGISTRIES) == {"prefetchers", "dram-models",
                                       "workloads", "modes", "noc-kernels",
                                       "sweep-backends"}

    def test_stock_sweep_backends(self):
        from repro.registry import SWEEP_BACKENDS
        assert SWEEP_BACKENDS.names() == ["serial", "process", "service"]

    def test_stock_prefetchers(self):
        assert PREFETCHERS.names() == ["none", "stream", "ghb", "imp"]

    def test_stock_dram_models(self):
        assert DRAM_MODELS.names() == ["simple", "banked"]
        assert DRAM_MODELS.get("simple").factory is SimpleDram
        assert DRAM_MODELS.get("banked").factory is BankedDram

    def test_stock_modes_match_config_modes(self):
        assert tuple(MODES.names()) == CONFIG_MODES

    def test_workload_entries_are_named_classes(self):
        for entry in WORKLOADS.entries():
            assert entry.factory.name == entry.name

    def test_every_entry_has_a_description(self):
        for registry in ALL_REGISTRIES.values():
            for entry in registry.entries():
                assert entry.description, (registry.kind, entry.name)

    def test_paper_workloads_tagged(self):
        paper = [e.name for e in WORKLOADS.entries() if "paper" in e.tags]
        assert paper == ["pagerank", "tri_count", "graph500", "sgd", "lsh",
                        "spmv", "symgs"]


class TestErrorMessages:
    def test_unknown_prefetcher_lists_names(self):
        with pytest.raises(ValueError, match="none, stream, ghb, imp"):
            make_prefetcher_factory("oracle")

    def test_unknown_mode_lists_names(self):
        with pytest.raises(ValueError, match="imp_partial_noc_dram"):
            experiment_config("warp_speed", 4)

    def test_unknown_dram_model_fails_at_config_time(self):
        # Satellite: the error now fires when the DramConfig is built, not
        # deep inside MemorySystem construction.
        with pytest.raises(ValueError, match="simple, banked"):
            DramConfig(model="quantum")

    def test_make_dram_still_guards(self):
        config = DramConfig()
        object.__setattr__(config, "model", "smuggled")
        with pytest.raises(ValueError, match="simple, banked"):
            make_dram(config, 2)


class TestExtensibility:
    def test_custom_mode_roundtrip(self):
        @MODES.register("test_only_ghb_alias",
                        description="test-only alias of the ghb mode")
        def _alias(config, imp_cfg):
            return config, "ghb", None, False

        try:
            config, prefetcher, imp_cfg, software = experiment_config(
                "test_only_ghb_alias", 4, base_config=scaled_config(4))
            assert prefetcher == "ghb"
            assert software is False
        finally:
            MODES.unregister("test_only_ghb_alias")
        with pytest.raises(RegistryError):
            MODES.get("test_only_ghb_alias")

    def test_custom_prefetcher_runs_end_to_end(self):
        from repro.prefetchers.base import PrefetcherBase, PrefetchRequest

        class NextLine(PrefetcherBase):
            """Toy next-line prefetcher (the README worked example)."""

            name = "nextline"

            def on_access(self, ctx):
                if ctx.hit:
                    return []
                return [PrefetchRequest(addr=(ctx.addr & ~63) + 64)]

        PREFETCHERS.register(
            "test_only_nextline", lambda core_id, **_: NextLine(),
            description="test-only next-line prefetcher")
        try:
            workload = IndirectStreamWorkload(n_indices=256, n_data=1024,
                                              seed=3)
            result = run_workload(workload, scaled_config(4),
                                  prefetcher="test_only_nextline")
            assert result.stats.prefetches_issued > 0
        finally:
            PREFETCHERS.unregister("test_only_nextline")
