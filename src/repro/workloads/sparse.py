"""Sparse matrices for the HPCG-derived workloads (SpMV and SymGS).

HPCG builds a symmetric, banded sparse matrix from a 27-point stencil over a
3-D grid.  The structure that matters for memory behaviour is preserved
here: each row has up to 27 non-zeros whose column indices are the grid
neighbours, stored in CSR; the multiplied vector is dense and indexed
indirectly through the column array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class CSRMatrix:
    """A sparse matrix in CSR form."""

    row_ptr: np.ndarray     # int64, length num_rows + 1
    col_idx: np.ndarray     # int32
    values: np.ndarray      # float64

    @property
    def num_rows(self) -> int:
        return len(self.row_ptr) - 1

    @property
    def num_nonzeros(self) -> int:
        return int(self.row_ptr[-1])

    def row(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        start, end = int(self.row_ptr[r]), int(self.row_ptr[r + 1])
        return self.col_idx[start:end], self.values[start:end]


def stencil_27pt(nx: int, ny: int, nz: int, seed: int = 1) -> CSRMatrix:
    """HPCG-style 27-point stencil matrix on an ``nx x ny x nz`` grid."""
    # Rows in grid order (x fastest), each row's neighbours in offset
    # order (dx fastest), out-of-grid neighbours dropped.
    z, y, x = (axis.reshape(-1, 1) for axis in np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"))
    dz, dy, dx = (axis.reshape(1, -1) for axis in np.meshgrid(
        (-1, 0, 1), (-1, 0, 1), (-1, 0, 1), indexing="ij"))
    cx, cy, cz = x + dx, y + dy, z + dz
    inside = ((0 <= cx) & (cx < nx) & (0 <= cy) & (cy < ny)
              & (0 <= cz) & (cz < nz))
    cols = cx + cy * nx + cz * nx * ny
    rows = x + y * nx + z * nx * ny
    row_ptr = np.zeros(nx * ny * nz + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=row_ptr[1:])
    return CSRMatrix(row_ptr=row_ptr,
                     col_idx=cols[inside].astype(np.int32),
                     values=np.where(cols == rows, 26.0, -1.0)[inside])


def random_sparse(num_rows: int, num_cols: int, nnz_per_row: int,
                  seed: int = 1) -> CSRMatrix:
    """A random sparse matrix with a fixed number of non-zeros per row."""
    rng = np.random.default_rng(seed)
    row_ptr = np.arange(0, (num_rows + 1) * nnz_per_row, nnz_per_row,
                        dtype=np.int64)
    col_idx = rng.integers(0, num_cols, size=num_rows * nnz_per_row,
                           dtype=np.int32)
    values = rng.standard_normal(num_rows * nnz_per_row)
    return CSRMatrix(row_ptr=row_ptr, col_idx=col_idx, values=values)


def ratings_matrix(n_users: int, n_items: int, n_ratings: int,
                   seed: int = 1) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse (user, item, rating) triples for collaborative filtering (SGD).

    Users and items follow a skewed popularity distribution, as in real
    recommender datasets.
    """
    rng = np.random.default_rng(seed)
    user_pop = (np.arange(1, n_users + 1) ** -0.5).astype(np.float64)
    user_pop /= user_pop.sum()
    item_pop = (np.arange(1, n_items + 1) ** -0.5).astype(np.float64)
    item_pop /= item_pop.sum()
    users = rng.choice(n_users, size=n_ratings, p=user_pop).astype(np.int32)
    items = rng.choice(n_items, size=n_ratings, p=item_pop).astype(np.int32)
    ratings = rng.uniform(1.0, 5.0, size=n_ratings)
    return users, items, ratings
