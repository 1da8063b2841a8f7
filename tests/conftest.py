"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import IMPConfig
from repro.mem_image import MemoryImage
from repro.sim.config import CacheConfig, SystemConfig
from repro.workloads.synthetic import IndirectStreamWorkload, StreamingWorkload


@pytest.fixture(scope="session", autouse=True)
def no_ambient_fault_injection():
    """Strip an exported ``$REPRO_FAULTS`` chaos plan for the session so
    it cannot disturb the suite; tests that want injection construct a
    ``FaultPlan`` (or set the variable via ``monkeypatch``) explicitly."""
    plan = os.environ.pop("REPRO_FAULTS", None)
    yield
    if plan is not None:
        os.environ["REPRO_FAULTS"] = plan


@pytest.fixture(scope="session", autouse=True)
def no_ambient_noc_kernel_override():
    """Strip an exported ``$REPRO_NOC_KERNEL`` override for the session:
    the suite pins backend expectations (defaults, equivalence pairs) and
    an ambient override must not skew them.  Tests that want an override
    set the variable via ``monkeypatch``."""
    name = os.environ.pop("REPRO_NOC_KERNEL", None)
    yield
    if name is not None:
        os.environ["REPRO_NOC_KERNEL"] = name


def pytest_generate_tests(metafunc):
    """Parametrise every test that takes a ``noc_kernel`` argument over the
    registered NoC kernels other than ``reference`` (the spec they are held
    to).  An entry whose implementation is absent on this host (``compiled``
    without its extension build, or with ``$REPRO_NO_CEXT=1``) is skipped,
    not silently dropped, so a missing build is visible in the report."""
    if "noc_kernel" not in metafunc.fixturenames:
        return
    from repro.registry import NOC_KERNELS
    params = []
    for entry in NOC_KERNELS.entries():
        if entry.name == "reference":
            continue
        marks = () if entry.is_available() else pytest.mark.skip(
            reason=f"backend {entry.name!r} unavailable on this host")
        params.append(pytest.param(entry.name, marks=marks))
    metafunc.parametrize("noc_kernel", params)


@pytest.fixture
def small_config() -> SystemConfig:
    """A tiny 4-core platform with small caches; fast to simulate."""
    return SystemConfig(
        n_cores=4,
        l1d=CacheConfig(size_bytes=4 * 1024, associativity=4),
        l2_total_mb_at_1core=0.0625,
    )


@pytest.fixture
def imp_config() -> IMPConfig:
    return IMPConfig()


@pytest.fixture
def simple_image() -> MemoryImage:
    """A memory image with one index array B and one data array A."""
    image = MemoryImage()
    indices = np.arange(0, 512, dtype=np.int32)[::-1].copy()
    image.add_array("B", indices)
    image.add_array("A", np.zeros(1024, dtype=np.float64))
    return image


@pytest.fixture
def indirect_workload() -> IndirectStreamWorkload:
    return IndirectStreamWorkload(n_indices=1024, n_data=4096, seed=7)


@pytest.fixture
def streaming_workload() -> StreamingWorkload:
    return StreamingWorkload(n_elements=2048, seed=7)
