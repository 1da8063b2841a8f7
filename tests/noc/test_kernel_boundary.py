"""The kernel boundary itself: backend registry, selection, and the mesh's
strict separation from reservation internals."""

import inspect

import pytest

from repro.noc import kernel as noc_kernel
from repro.noc import mesh as noc_mesh
from repro.noc.kernel import (NOC_KERNELS, CompiledKernel, ReferenceKernel,
                              compiled_kernel_available)
from repro.noc.mesh import MeshNoC, resolve_kernel_name
from repro.registry import RegistryError
from repro.sim.config import NoCConfig

needs_cext = pytest.mark.skipif(
    not compiled_kernel_available(),
    reason="repro._nockernel extension not built (or $REPRO_NO_CEXT=1)")


class TestRegistry:
    def test_stock_backends(self):
        assert NOC_KERNELS.names() == ["reference", "compiled"]
        assert NOC_KERNELS.get("reference").factory is ReferenceKernel
        assert NOC_KERNELS.get("compiled").factory is CompiledKernel

    def test_default_backend_is_compiled(self):
        # The name is the default everywhere; which class the mesh
        # instantiates depends on host availability (fallback below).
        assert NoCConfig().kernel == "compiled"
        expected = (CompiledKernel if compiled_kernel_available()
                    else ReferenceKernel)
        assert isinstance(MeshNoC(16).kernel, expected)

    def test_only_compiled_is_availability_gated(self):
        for entry in NOC_KERNELS.entries():
            if entry.name == "compiled":
                assert entry.available is compiled_kernel_available
            else:
                assert entry.available is None
                assert entry.is_available()

    def test_unknown_backend_rejected_at_config_time(self):
        # ``fused`` (the deleted pure-Python kernel) is as unknown as a
        # typo, and the message lists what is registered.
        for name in ("warp-drive", "fused"):
            with pytest.raises(RegistryError,
                               match="valid NoC kernels: reference, compiled"):
                NoCConfig(kernel=name)

    def test_every_entry_has_description(self):
        assert all(entry.description for entry in NOC_KERNELS.entries())


class TestSelection:
    def test_config_selects_backend(self):
        assert isinstance(MeshNoC(16, NoCConfig(kernel="reference")).kernel,
                          ReferenceKernel)

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NOC_KERNEL", "reference")
        noc = MeshNoC(16, NoCConfig(kernel="compiled"))
        assert noc.kernel_name == "reference"
        assert isinstance(noc.kernel, ReferenceKernel)

    def test_empty_env_override_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NOC_KERNEL", "")
        assert (resolve_kernel_name(NoCConfig(kernel="reference"))
                == "reference")

    def test_invalid_env_override_lists_backends(self, monkeypatch):
        monkeypatch.setenv("REPRO_NOC_KERNEL", "nope")
        with pytest.raises(RegistryError, match="reference"):
            MeshNoC(16)

    def test_scenario_nested_noc_kernel(self, tmp_path):
        # Scenario JSON reaches the kernel through the nested system
        # config path.
        from repro.experiments.scenario import load_scenario
        path = tmp_path / "s.json"
        path.write_text('{"name": "t", "workload": "indirect_stream",'
                        ' "system": {"noc": {"kernel": "reference"}}}')
        _, config, _ = load_scenario(path).resolve()
        assert config.noc.kernel == "reference"


class TestAvailabilityFallback:
    """A registered-but-unavailable backend resolves to ``reference`` with a
    one-line warning — specs naming ``compiled`` stay portable to hosts
    without the extension build."""

    @pytest.fixture
    def no_cext(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        # The once-per-process warning set must not leak between tests.
        monkeypatch.setattr(noc_mesh, "_FALLBACK_WARNED", set())

    def test_unavailable_compiled_resolves_to_reference(self, no_cext,
                                                        capsys):
        assert (resolve_kernel_name(NoCConfig(kernel="compiled"))
                == "reference")
        assert "falling back to 'reference'" in capsys.readouterr().err

    def test_fallback_warns_once_per_process(self, no_cext, capsys):
        for _ in range(3):
            resolve_kernel_name(NoCConfig(kernel="compiled"))
        assert capsys.readouterr().err.count("falling back") == 1

    def test_mesh_built_on_no_cext_host_uses_reference(self, no_cext):
        noc = MeshNoC(16, NoCConfig(kernel="compiled"))
        assert noc.kernel_name == "reference"
        assert isinstance(noc.kernel, ReferenceKernel)

    def test_env_override_to_compiled_also_falls_back(self, no_cext,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NOC_KERNEL", "compiled")
        assert (resolve_kernel_name(NoCConfig(kernel="reference"))
                == "reference")
        assert "'compiled' is unavailable" in capsys.readouterr().err

    def test_available_backends_never_fall_back(self, no_cext, capsys):
        assert (resolve_kernel_name(NoCConfig(kernel="reference"))
                == "reference")
        assert "falling back" not in capsys.readouterr().err

    @needs_cext
    def test_available_compiled_resolves_to_itself(self):
        assert resolve_kernel_name(NoCConfig(kernel="compiled")) == "compiled"
        noc = MeshNoC(16)
        assert isinstance(noc.kernel, CompiledKernel)

    def test_config_accepts_compiled_even_when_unavailable(self, no_cext):
        # Name validation is registry membership, not availability: a
        # scenario written on a built host must load everywhere.
        assert NoCConfig(kernel="compiled").kernel == "compiled"


class TestCompiledKernelGuards:
    @needs_cext
    def test_stale_route_after_reset_raises(self):
        kernel = CompiledKernel(hop_latency=2.0)
        reserve = kernel.route_reserver(((0, 1),), 8.0)
        assert reserve(0.0) > 0.0
        kernel.reset()
        with pytest.raises(RuntimeError, match="reset"):
            reserve(1.0)

    @needs_cext
    def test_constructor_raises_when_extension_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        with pytest.raises(RuntimeError, match="REPRO_NO_CEXT"):
            CompiledKernel(hop_latency=2.0)

    @needs_cext
    def test_zero_serialization_takes_flat_path(self):
        kernel = CompiledKernel(hop_latency=2.0)
        reserve = kernel.route_reserver(((0, 1), (1, 2)), 0.0)
        assert reserve(10.0) == 14.0
        assert kernel.links() == []         # extension never saw the route
        assert kernel.busy_time((0, 1)) == 0.0


class TestMeshKernelSeparation:
    def test_mesh_never_touches_reservation_internals(self):
        # The whole point of the boundary: geometry/caching code must not
        # re-grow a private copy of the reservation algorithm.
        source = inspect.getsource(noc_mesh)
        for forbidden in ("_starts", "_ends", "bisect_left", "bisect_right",
                          "import bisect", "ResourceSchedule", "total_busy",
                          "PRUNE"):
            assert forbidden not in source, (
                f"mesh module references reservation internal {forbidden!r}")

    def test_kernel_module_owns_the_registry_entries(self):
        source = inspect.getsource(noc_kernel)
        assert 'NOC_KERNELS.register(\n    "reference"' in source
        assert 'NOC_KERNELS.register(\n    "compiled"' in source

    def test_reset_contention_drops_compiled_reservers(self):
        noc = MeshNoC(16)
        noc.send_fast(0, 5, 64, 0.0)
        assert noc._send_cache
        assert noc.kernel.links()
        noc.reset_contention()
        assert not noc._send_cache
        assert not noc.kernel.links()
        # And the mesh keeps working against the fresh kernel state.
        assert noc.send_fast(0, 5, 64, 0.0) == noc.zero_load_latency(0, 5, 64)


class TestSendCacheKeying:
    # Regression target: the packed key ``pair << 20 | payload`` ORs a
    # payload of 2**20 + 64 into the pair bits, colliding with the same
    # route's 64-byte entry.  Payloads that overflow 20 bits must take
    # the unpacked tuple key instead.

    BIG = (1 << 20) + 64

    def test_large_payload_does_not_alias_packed_keys(self):
        noc = MeshNoC(16)
        # Prime the cache with the entry the old scheme collided into.
        noc.send_fast(0, 1, 64, 0.0)
        assert len(noc._send_cache) == 1
        noc.send_fast(0, 1, self.BIG, 0.0)
        assert len(noc._send_cache) == 2, "large payload aliased a packed key"

    def test_large_payload_accounting_is_correct(self):
        noc = MeshNoC(16)
        noc.send_fast(0, 1, 64, 0.0)
        before = (noc.traffic.noc_flits, noc.traffic.noc_bytes)
        noc.send_fast(0, 1, self.BIG, 0.0)
        flits = noc._flits(self.BIG) * noc.hops(0, 1)
        assert noc.traffic.noc_flits - before[0] == flits
        assert noc.traffic.noc_bytes - before[1] == self.BIG * noc.hops(0, 1)

    def test_large_payload_timing_matches_fresh_mesh(self):
        # Under the old aliasing, the big message reused the 64-byte
        # entry's serialization; its delivery time must instead match a
        # mesh that never saw the colliding entry.  The big message is
        # injected long after the 64-byte one drains, so link contention
        # cannot mask (or mimic) the difference.
        aliased, fresh = MeshNoC(16), MeshNoC(16)
        aliased.send_fast(0, 1, 64, 0.0)
        assert (aliased.send_fast(0, 1, self.BIG, 1000.0)
                == fresh.send_fast(0, 1, self.BIG, 1000.0))
