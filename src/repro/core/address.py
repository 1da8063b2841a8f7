"""Address generation for indirect patterns (Equations 1 and 2).

The paper restricts coefficients to powers of two so that the multiply /
divide of Equation 1 becomes a shift (Equation 2)::

    ADDR(A[B[i]]) = (B[i] << shift) + BaseAddr

Negative shifts model sub-byte coefficients: ``shift = -3`` corresponds to a
coefficient of 1/8 (bit vectors), so the value is shifted right.
"""

from __future__ import annotations

from typing import Optional


def apply_shift(value: int, shift: int) -> int:
    """Return ``value << shift`` allowing negative (right) shifts."""
    if shift >= 0:
        return value << shift
    return value >> (-shift)


def predict_address(index_value: int, shift: int, base_addr: int) -> int:
    """Equation 2: the predicted address of ``A[B[i]]``."""
    return apply_shift(index_value, shift) + base_addr


def solve_base_addr(index_value: int, miss_addr: int, shift: int) -> int:
    """Solve Equation 2 for ``BaseAddr`` given one (index, address) pair."""
    return miss_addr - apply_shift(index_value, shift)


def coefficient_of(shift: int) -> float:
    """The byte coefficient a shift represents (4, 8, 16, or 1/8)."""
    if shift >= 0:
        return float(1 << shift)
    return 1.0 / (1 << (-shift))


def shift_for_element_size(elem_size: float) -> Optional[int]:
    """Return the shift matching an element size, or None if not a power of 2."""
    if elem_size >= 1:
        size = int(elem_size)
        if size & (size - 1):
            return None
        return size.bit_length() - 1
    inverse = round(1.0 / elem_size)
    if inverse & (inverse - 1):
        return None
    return -(inverse.bit_length() - 1)
