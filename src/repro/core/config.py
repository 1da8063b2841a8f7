"""IMP configuration (Table 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.contract import (NON_NEGATIVE, POSITIVE, UNIT, Range, check,
                            check_sectors)
from repro.prefetchers.stream import StreamPrefetcherConfig


@dataclass(frozen=True)
class IMPConfig:
    """Default parameters from Table 2.

    * 16-entry Prefetch Table, up to 2 indirect ways and 2 indirect levels,
      maximum indirect prefetch distance 16.
    * 4-entry Indirect Pattern Detector, shift values {2, 3, 4, -3}
      (coefficients 4, 8, 16 and 1/8 bytes), BaseAddr array of length 4.
    * Granularity Predictor with 8-byte L1 sectors, 32-byte L2 sectors and
      4 sampled cachelines per pattern.
    """

    # Prefetch Table.
    pt_size: int = 16
    max_indirect_ways: int = 2
    max_indirect_levels: int = 2
    max_prefetch_distance: int = 16
    confidence_threshold: int = 2      # saturating-counter value to start prefetching
    max_confidence: int = 7            # saturating-counter ceiling

    # Indirect Pattern Detector.
    ipd_size: int = 4
    shift_values: Tuple[int, ...] = (2, 3, 4, -3)
    baseaddr_array_len: int = 4
    backoff_base: int = 64             # cycles of back-off after a failed detection
    max_backoff: int = 4096

    # Partial cacheline accessing / Granularity Predictor.
    l1_sector_size: int = 8
    l2_sector_size: int = 32
    gp_samples: int = 4
    partial_enabled: bool = False

    # Read/write predictor (Section 3.2.3): prefetch in Exclusive state once
    # a pattern's demand accesses are observed to be writes.
    rw_predictor: bool = True
    rw_write_threshold: int = 2        # saturating-counter value for Exclusive
    rw_max_count: int = 3

    # Adaptive prefetch-distance throttling.  The paper's Figure 16 notes
    # that short-loop workloads lose performance when the distance overshoots
    # loop ends and suggests, as future work, "a scheme to detect this
    # situation and dynamically decrease prefetch distance".  This implements
    # that scheme; it is off by default to match the evaluated design.
    adaptive_distance: bool = False
    throttle_window: int = 32          # prefetches per throttling decision
    throttle_low_ratio: float = 0.5    # useful ratio below which we back off

    # Embedded stream prefetcher (the Stream Table half of the PT).
    stream: StreamPrefetcherConfig = field(default_factory=StreamPrefetcherConfig)

    # Platform constants used by the address generator and cost model.
    line_size: int = 64
    address_bits: int = 48

    RANGES = {"pt_size": POSITIVE, "max_indirect_ways": POSITIVE,
              "max_indirect_levels": POSITIVE,
              "max_prefetch_distance": POSITIVE,
              "confidence_threshold": NON_NEGATIVE,
              "max_confidence": NON_NEGATIVE, "ipd_size": POSITIVE,
              "shift_values": Range(bool, "a non-empty list of ints"),
              "baseaddr_array_len": POSITIVE, "backoff_base": NON_NEGATIVE,
              "max_backoff": NON_NEGATIVE, "gp_samples": POSITIVE,
              "rw_write_threshold": NON_NEGATIVE, "rw_max_count": NON_NEGATIVE,
              "throttle_window": POSITIVE, "throttle_low_ratio": UNIT,
              "line_size": POSITIVE, "address_bits": POSITIVE}

    def __post_init__(self) -> None:
        check(self)
        check_sectors(self, self.line_size)
        # A threshold the saturating counter can never reach silently
        # disables the mechanism it gates.
        if self.confidence_threshold > self.max_confidence:
            raise ValueError(
                f"confidence_threshold must be in [0, max_confidence="
                f"{self.max_confidence}], got {self.confidence_threshold}")
        if self.rw_write_threshold > self.rw_max_count:
            raise ValueError(
                f"rw_write_threshold must not exceed rw_max_count="
                f"{self.rw_max_count}, got {self.rw_write_threshold}")

    def with_partial(self, enabled: bool = True) -> "IMPConfig":
        """Return a copy with partial cacheline accessing toggled."""
        return replace(self, partial_enabled=enabled)

    def with_pt_size(self, pt_size: int) -> "IMPConfig":
        """Return a copy with a different Prefetch Table size (Figure 14)."""
        return replace(self, pt_size=pt_size,
                       stream=replace(self.stream, table_size=pt_size))

    def with_ipd_size(self, ipd_size: int) -> "IMPConfig":
        """Return a copy with a different IPD size (Figure 15)."""
        return replace(self, ipd_size=ipd_size)

    def with_max_distance(self, distance: int) -> "IMPConfig":
        """Return a copy with a different max prefetch distance (Figure 16)."""
        return replace(self, max_prefetch_distance=distance)

    def with_adaptive_distance(self, enabled: bool = True) -> "IMPConfig":
        """Return a copy with adaptive distance throttling toggled."""
        return replace(self, adaptive_distance=enabled)

    # ------------------------------------------------------------------
    # Serialisation (sweep specs, persistent result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "IMPConfig":
        doc = dict(doc)
        if "shift_values" in doc:
            doc["shift_values"] = tuple(doc["shift_values"])
        if "stream" in doc:
            doc["stream"] = StreamPrefetcherConfig(**doc["stream"])
        return cls(**doc)
