"""Bit-identity of the memory-hierarchy walk against pinned goldens.

``MemorySystem`` once simulated the implicit ``hierarchy=None`` Table 1
shape on a hand-inlined path of its own, next to the generic walk every
explicit hierarchy took.  Only the generic walk remains.  What the inlined
path produced is pinned as sha256 digests in
``tests/data/classic_path_goldens.json``, and these tests hold the walk to
it:

* randomized access streams fed straight to ``access_fast`` (three
  geometries x none/stream/ghb/imp): every per-access outcome and the full
  statistics;
* full workload runs on the inputs where the inlined ``access_fast``
  handled hits or sectors itself — the OoO core, *Ideal*, *PerfPref* and
  partial accessing;
* workload runs whose attach list names the prefetcher explicitly
  (multi-attach machinery, registry-resolved factory);
* the explicit classic-geometry hierarchy of
  ``tests/sim/test_determinism.py``.

Both spellings of the classic shape (``hierarchy=None`` and the explicit
two-level chain) remain, so one test still compares them directly.

Recapture, only when a change of results is intended::

    PYTHONPATH=src python tests/memory/test_attach_equivalence.py \\
        > tests/data/classic_path_goldens.json
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import IMPConfig
from repro.experiments.configs import scaled_config
from repro.mem_image import MemoryImage
from repro.memory.hierarchy import MemorySystem
from repro.prefetchers.factory import make_prefetcher_factory
from repro.sim.config import (
    CacheConfig,
    HierarchyConfig,
    LevelConfig,
    PrefetcherAttach,
    SystemConfig,
)
from repro.sim.system import run_workload
from repro.workloads.synthetic import IndirectStreamWorkload

GOLDEN_PATH = (Path(__file__).resolve().parents[1] / "data"
               / "classic_path_goldens.json")

#: (l1 bytes, l1 assoc, total-L2 MB at 1 core, cores) — three distinct
#: geometries, including a single-core chip and a direct-mapped-ish L1.
GEOMETRIES = (
    (4 * 1024, 4, 0.0625, 4),
    (8 * 1024, 2, 0.125, 1),
    (16 * 1024, 4, 0.03125, 4),
)
STREAM_PREFETCHERS = ("none", "stream", "ghb", "imp")
WORKLOAD_PREFETCHERS = ("none", "stream", "imp")

#: The random streams' A[B[i]] walks: an int32 index array B and the
#: 8-byte data array A it points into.
INDEX_BASE = 0x10_0000
INDEX_LENGTH = 4096
DATA_BASE = 0x20_0000
DATA_LENGTH = 8192


def digest(doc) -> str:
    """sha256 of a JSON-able document's canonical encoding."""
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def classic_config(l1_bytes, l1_assoc, l2_mb, cores) -> SystemConfig:
    return SystemConfig(n_cores=cores,
                        l1d=CacheConfig(size_bytes=l1_bytes,
                                        associativity=l1_assoc),
                        l2_total_mb_at_1core=l2_mb)


def explicit_hierarchy(config: SystemConfig,
                       prefetcher=None) -> HierarchyConfig:
    """The classic shape spelled as an explicit hierarchy, with its single
    attachment either inheriting the mode's prefetcher (``None``) or
    naming one explicitly."""
    resolved = config.resolved_hierarchy()
    return HierarchyConfig(
        levels=resolved.levels,
        attach=(PrefetcherAttach(level="l1", prefetcher=prefetcher),))


def stream_image() -> MemoryImage:
    image = MemoryImage()
    rng = np.random.default_rng(11)
    image.add_array("B", rng.integers(0, DATA_LENGTH, INDEX_LENGTH,
                                      dtype=np.int32), base=INDEX_BASE)
    image.add_array("A", length=DATA_LENGTH, elem_size=8, base=DATA_BASE)
    return image


def random_stream(seed: int, cores: int, image: MemoryImage,
                  length: int = 3000):
    """A reproducible mixed demand stream: random reads and writes at
    several PCs, interleaved with per-core ``A[B[i]]`` walks that the
    stream and indirect prefetchers can learn."""
    rng = random.Random(seed)
    walk = [0] * cores
    stream = []
    now = 0.0
    for _ in range(length):
        core = rng.randrange(cores)
        if rng.random() < 0.5:
            i = walk[core] % INDEX_LENGTH
            walk[core] += 1
            index_addr = INDEX_BASE + 4 * i
            stream.append((core, 0x100, index_addr, 4, False, now))
            now += 1.0
            target = DATA_BASE + 8 * image.read_value(index_addr)
            stream.append((core, 0x108, target, 8, False, now))
        else:
            stream.append((core,
                           0x400 + (rng.randrange(48) << 3),
                           rng.randrange(0, 1 << 21),
                           rng.choice((4, 8, 64)),
                           rng.random() < 0.3,
                           now))
        now += rng.choice((1.0, 2.0, 3.0, 7.0))
    return stream


def drive(system: MemorySystem, stream):
    """Feed the stream through access_fast, recording every outcome with
    typed fields (so an integer latency equals its float spelling)."""
    outcomes = []
    for core, pc, addr, size, is_write, now in stream:
        latency, l1_hit, l2_hit, covered, late = system.access_fast(
            core, pc, addr, size, is_write, now)
        outcomes.append((float(latency), bool(l1_hit), bool(l2_hit),
                         bool(covered), float(late)))
    return outcomes


def stream_digests(config: SystemConfig, prefetcher: str,
                   seed: int) -> dict:
    image = stream_image()
    system = MemorySystem(config, mem_image=image,
                          prefetcher_factory=make_prefetcher_factory(
                              prefetcher, image))
    outcomes = drive(system, random_stream(seed, config.n_cores, image))
    return {"outcomes": digest(outcomes),
            "stats": digest(system.stats.to_dict())}


def small_workload() -> IndirectStreamWorkload:
    return IndirectStreamWorkload(n_indices=512, n_data=2048, seed=3)


def variant_runs():
    """``name -> (config, imp_config)``: the runs on which the inlined
    ``access_fast`` itself served hits (OoO core, Ideal) or sectors
    (partial accessing), plus PerfPref's early-issue misses."""
    base = scaled_config(4)
    return {
        "ooo": (base.with_ooo(), None),
        "ideal": (base.as_ideal(), None),
        "perfpref": (base.as_perfect_prefetch(), None),
        "partial": (base.with_partial(True, True),
                    IMPConfig().with_partial(True)),
    }


def variant_digest(name: str) -> str:
    config, imp_config = variant_runs()[name]
    result = run_workload(
        IndirectStreamWorkload(n_indices=1024, n_data=4096, seed=3),
        config, prefetcher="imp", imp_config=imp_config)
    return digest(result.stats.to_dict())


def capture() -> dict:
    """Every golden, computed by the implicit ``hierarchy=None`` path."""
    goldens = {
        "_recipe": (
            "Captured at commit 7d49fea, the last one whose MemorySystem "
            "ran hierarchy=None on its own inlined path, by copying "
            "tests/memory/test_attach_equivalence.py into that checkout "
            "and running: PYTHONPATH=src python "
            "tests/memory/test_attach_equivalence.py > "
            "tests/data/classic_path_goldens.json. Each value is the "
            "sha256 of the sort_keys JSON of what the named run produced."),
        "streams": {}, "variants": {}, "named_attach": {},
        "explicit_classic": {},
    }
    for g, geometry in enumerate(GEOMETRIES):
        config = classic_config(*geometry)
        for p, prefetcher in enumerate(STREAM_PREFETCHERS):
            goldens["streams"][f"{prefetcher}/g{g}"] = stream_digests(
                config, prefetcher, seed=16 * g + p)
        for prefetcher in WORKLOAD_PREFETCHERS:
            result = run_workload(small_workload(), config,
                                  prefetcher=prefetcher)
            goldens["named_attach"][f"{prefetcher}/g{g}"] = digest(
                result.stats.to_dict())
    for name in variant_runs():
        goldens["variants"][name] = variant_digest(name)
    for prefetcher in WORKLOAD_PREFETCHERS:
        result = run_workload(
            IndirectStreamWorkload(n_indices=1024, n_data=4096, seed=3),
            scaled_config(4), prefetcher=prefetcher)
        goldens["explicit_classic"][prefetcher] = digest(
            result.stats.to_dict())
    return goldens


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("prefetcher", STREAM_PREFETCHERS)
def test_random_streams_match_classic_path(goldens, geometry, prefetcher):
    """An explicit single-attach hierarchy reproduces the inlined path's
    per-access outcomes and full statistics on randomized streams."""
    g = GEOMETRIES.index(geometry)
    base = classic_config(*geometry)
    extended = base.with_hierarchy(explicit_hierarchy(base))
    seed = 16 * g + STREAM_PREFETCHERS.index(prefetcher)
    assert (stream_digests(extended, prefetcher, seed)
            == goldens["streams"][f"{prefetcher}/g{g}"])


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_workload_runs_match_classic_path(goldens, geometry):
    """Naming the prefetcher in the attach list (multi-attach machinery,
    explicitly resolved factory) reproduces the inlined path on full
    workload runs — for every stock prefetcher."""
    g = GEOMETRIES.index(geometry)
    base = classic_config(*geometry)
    for prefetcher in WORKLOAD_PREFETCHERS:
        hierarchy = explicit_hierarchy(base, prefetcher=prefetcher)
        # The mode-level spec is inert ("none"): the attach entry names
        # the prefetcher, exercising the named-factory resolution.
        attached = run_workload(small_workload(),
                                base.with_hierarchy(hierarchy),
                                prefetcher="none")
        assert (digest(attached.stats.to_dict())
                == goldens["named_attach"][f"{prefetcher}/g{g}"]), \
            f"multi-attach divergence: {prefetcher} @ {geometry}"


@pytest.mark.parametrize("variant", ["ooo", "ideal", "perfpref", "partial"])
def test_variant_runs_match_classic_path(goldens, variant):
    """The OoO core sends every access (hits included) through
    ``access_fast``; Ideal, PerfPref and partial accessing take their own
    branches there.  Each must reproduce the inlined path."""
    assert variant_digest(variant) == goldens["variants"][variant]


def test_implicit_and_explicit_classic_spellings_match():
    """``hierarchy=None`` and the explicit two-level chain are one
    configuration shape: identical simulations."""
    base = classic_config(*GEOMETRIES[0])
    runs = [run_workload(small_workload(), config, prefetcher="imp")
            for config in (base,
                           base.with_hierarchy(explicit_hierarchy(base)))]
    assert runs[0].stats.to_dict() == runs[1].stats.to_dict()


def test_legacy_prefetch_level_spelling_is_identical():
    """``prefetch_level: l2`` and ``attach: [{level: l2}]`` are one
    configuration: equal configs, equal digests, equal simulations."""
    levels = (
        LevelConfig(name="l1", size_bytes=4 * 1024, associativity=4),
        LevelConfig(name="l2", size_bytes=16 * 1024, associativity=8,
                    hit_latency=4),
        LevelConfig(name="l3", size_bytes=32 * 1024, associativity=8,
                    scope="shared", hit_latency=8),
    )
    legacy = HierarchyConfig(prefetch_level="l2", levels=levels)
    explicit = HierarchyConfig(attach=({"level": "l2"},), levels=levels)
    assert legacy == explicit
    config = classic_config(4 * 1024, 4, 0.0625, 4)
    runs = [run_workload(small_workload(),
                         config.with_hierarchy(hierarchy), prefetcher="imp")
            for hierarchy in (legacy, explicit)]
    assert runs[0].stats.to_dict() == runs[1].stats.to_dict()


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
