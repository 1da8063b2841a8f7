"""Virtual-memory image of a workload's data structures.

The simulator is trace driven, but the Indirect Memory Prefetcher needs to
*read the contents* of the index array (``B[i + delta]``) in order to compute
the address of the indirect prefetch (``A[B[i + delta]]``).  A
:class:`MemoryImage` provides exactly that: workloads register their arrays
(index arrays, data arrays, bit vectors, ...) at virtual base addresses, and
the prefetcher can later read integer values back from any address that falls
inside a registered array.

The image never stores per-byte data; it keeps a reference to the numpy array
that backs each registered region and translates ``(address) -> (array,
element index)`` on demand.  This keeps even large workloads cheap to build.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: Default page size used to align array base addresses.
PAGE_SIZE = 4096

#: Base of the region in which arrays are laid out by default.
DEFAULT_REGION_BASE = 0x1000_0000


class AddressError(ValueError):
    """Raised when an address does not fall inside any registered array."""


@dataclass(frozen=True)
class ArraySpec:
    """Description of one array registered in the memory image.

    Attributes:
        name: Unique name of the array (e.g. ``"col_idx"``).
        base: Virtual address of element 0.
        elem_size: Size of one element in bytes.  A value below 1 (e.g.
            ``1/8``) models bit vectors, matching the paper's ``Coeff = 1/8``.
        length: Number of elements.
        writable: Whether stores to this array are expected.
    """

    name: str
    base: int
    elem_size: float
    length: int
    writable: bool = False

    @property
    def size_bytes(self) -> int:
        """Total footprint of the array in bytes (at least one byte)."""
        return max(1, int(np.ceil(self.elem_size * self.length)))

    @property
    def end(self) -> int:
        """One past the last byte of the array."""
        return self.base + self.size_bytes

    def addr_of(self, index: int) -> int:
        """Return the byte address of ``array[index]``.

        For sub-byte elements (bit vectors) the address is the address of the
        byte containing the bit, which is what a load instruction would use.
        """
        if index < 0 or index >= self.length:
            raise IndexError(f"index {index} out of range for array {self.name!r}")
        return self.base + int(index * self.elem_size)

    def index_of(self, addr: int) -> int:
        """Return the element index containing byte address ``addr``."""
        if addr < self.base or addr >= self.end:
            raise AddressError(f"address {addr:#x} outside array {self.name!r}")
        return int((addr - self.base) // self.elem_size) if self.elem_size >= 1 else int(
            (addr - self.base) * (1.0 / self.elem_size)
        )

    def contains(self, addr: int) -> bool:
        """Return True when ``addr`` falls inside this array."""
        return self.base <= addr < self.end


@dataclass
class _Region:
    spec: ArraySpec
    data: Optional[np.ndarray]


class MemoryImage:
    """Registry of arrays laid out in a simulated virtual address space.

    Arrays are placed sequentially from ``region_base``, page aligned, with a
    guard page between consecutive arrays so that streams never run from one
    array into the next.
    """

    def __init__(self, region_base: int = DEFAULT_REGION_BASE) -> None:
        self._next_base = region_base
        self._regions: Dict[str, _Region] = {}
        self._bases: List[int] = []
        self._by_base: List[_Region] = []
        # Hot-path lookup table parallel to _bases/_by_base: one
        # (base, end, shift_or_None, elem_size, item_fn_or_None, length,
        # is_int) tuple per region, so read_value avoids recomputing np.ceil
        # footprints and dtype checks on every call (it runs once per index
        # load under IMP).
        self._read_index: List[tuple] = []
        # Move-to-front memo of the _read_index entries that recently
        # served read_value hits (only entries with backing data are
        # cached, so the hit path can skip the backing check).
        self._read_memo: List[tuple] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_array(
        self,
        name: str,
        data: Optional[np.ndarray] = None,
        *,
        length: Optional[int] = None,
        elem_size: Optional[float] = None,
        base: Optional[int] = None,
        writable: bool = False,
    ) -> ArraySpec:
        """Register an array and return its :class:`ArraySpec`.

        Either ``data`` (a numpy array whose dtype determines the element
        size) or both ``length`` and ``elem_size`` must be provided.
        """
        if name in self._regions:
            raise ValueError(f"array {name!r} already registered")
        if data is not None:
            data = np.asarray(data)
            if length is None:
                length = int(data.size)
            if elem_size is None:
                elem_size = float(data.dtype.itemsize)
        if length is None or elem_size is None:
            raise ValueError("either data or (length and elem_size) must be given")
        if base is None:
            base = self._next_base
        spec = ArraySpec(name=name, base=base, elem_size=float(elem_size),
                         length=int(length), writable=writable)
        region = _Region(spec=spec, data=data)
        self._regions[name] = region
        insert_at = bisect.bisect_left(self._bases, base)
        self._bases.insert(insert_at, base)
        self._by_base.insert(insert_at, region)
        if data is not None:
            flat = data.reshape(-1)
            size = float(elem_size)
            # Power-of-two integer element sizes (the usual case) index with
            # a shift instead of float division.
            shift = None
            if size >= 1 and size.is_integer() and (int(size) & (int(size) - 1)) == 0:
                shift = int(size).bit_length() - 1
            # Snapshot the values as a plain list: ndarray.item() re-boxes
            # a numpy scalar on every call, several times the cost of a
            # list subscript on the per-index-load read_value path.  The
            # image is immutable after registration, so the snapshot
            # cannot go stale.
            entry = (spec.base, spec.end, shift, size, flat.tolist(),
                     flat.size, bool(np.issubdtype(data.dtype, np.integer)))
        else:
            entry = (spec.base, spec.end, None, float(elem_size), None, 0,
                     False)
        self._read_index.insert(insert_at, entry)
        # Advance the allocation cursor past this array plus one guard page.
        end = spec.end
        self._next_base = max(self._next_base,
                              ((end + PAGE_SIZE) // PAGE_SIZE + 1) * PAGE_SIZE)
        return spec

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def array(self, name: str) -> ArraySpec:
        """Return the spec of a registered array."""
        return self._regions[name].spec

    def arrays(self) -> List[ArraySpec]:
        """Return all registered array specs in address order."""
        return [region.spec for region in self._by_base]

    def data(self, name: str) -> np.ndarray:
        """Return the numpy array backing a registered array.

        Treat the returned array as **read-only**: ``read_value`` serves
        from a snapshot taken at registration (a plain-list copy, which is
        what keeps the per-index-load hot path off ``ndarray.item``), so
        in-place mutation after registration would silently diverge from
        what prefetchers observe.  Build the data first, register once.
        """
        backing = self._regions[name].data
        if backing is None:
            raise ValueError(f"array {name!r} has no backing data")
        return backing

    def addr_of(self, name: str, index: int) -> int:
        """Return the address of ``name[index]``."""
        return self._regions[name].spec.addr_of(index)

    def addresses(self, name: str, indices) -> np.ndarray:
        """Vectorised :meth:`addr_of`: the byte address of every element
        of ``indices`` as an int64 array.

        Produces exactly the addresses ``ArraySpec.addr_of`` would, sub-byte
        (bit vector) and multi-word (row) elements included; the trace
        generators map whole index columns through it.
        """
        spec = self._regions[name].spec
        index = np.asarray(indices, dtype=np.int64)
        if index.size and (index.min() < 0 or index.max() >= spec.length):
            raise IndexError(f"index out of range for array {spec.name!r}")
        if spec.elem_size >= 1 and spec.elem_size.is_integer():
            return spec.base + index * int(spec.elem_size)
        return spec.base + (index * spec.elem_size).astype(np.int64)

    def find(self, addr: int) -> Optional[ArraySpec]:
        """Return the spec of the array containing ``addr``, if any."""
        pos = bisect.bisect_right(self._bases, addr) - 1
        if pos < 0:
            return None
        spec = self._by_base[pos].spec
        return spec if spec.contains(addr) else None

    def read_value(self, addr: int, default: Optional[int] = None) -> Optional[int]:
        """Read the integer value stored at ``addr``.

        Returns ``default`` when the address is not backed by data (e.g. a
        guard page or a data-only array registered without contents).  Float
        arrays return the truncated integer value, matching what a prefetcher
        snooping raw bits would *not* be able to use — callers that need the
        semantic value should read through :meth:`data` instead.
        """
        # Consecutive reads overwhelmingly cycle between a handful of
        # arrays (the index streams and the target arrays they point
        # into); a small move-to-front memo of recent hits skips the
        # bisect for all of them.
        memo = self._read_memo
        entry = None
        for slot, candidate in enumerate(memo):
            if candidate[0] <= addr < candidate[1]:
                entry = candidate
                if slot:
                    del memo[slot]
                    memo.insert(0, candidate)
                break
        if entry is None:
            pos = bisect.bisect_right(self._bases, addr) - 1
            if pos < 0:
                return default
            entry = self._read_index[pos]
            if addr >= entry[1] or entry[4] is None:
                return default
            memo.insert(0, entry)
            del memo[4:]
        base, end, shift, elem_size, items, length, is_int = entry
        if shift is not None:
            index = (addr - base) >> shift
        elif elem_size >= 1:
            index = int((addr - base) // elem_size)
        else:
            index = int((addr - base) * (1.0 / elem_size))
        if index >= length:
            return default
        if is_int:
            return items[index]
        return int(items[index])

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __len__(self) -> int:
        return len(self._regions)
