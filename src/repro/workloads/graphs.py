"""Graph generation and CSR storage.

The paper's graph workloads (pagerank, triangle counting, Graph500 BFS) all
operate on graphs stored in Compressed Sparse Row (CSR) format: a row
pointer array and a column index array.  Graph500 specifies a power-law
(Kronecker/RMAT) degree distribution; we generate power-law graphs with a
Zipf-like degree sequence, which preserves the property that matters for
memory behaviour — a skewed, irregular neighbour structure with essentially
random column indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in CSR form."""

    row_ptr: np.ndarray     # int64, length num_vertices + 1
    col_idx: np.ndarray     # int32, length num_edges

    @property
    def num_vertices(self) -> int:
        return len(self.row_ptr) - 1

    @property
    def num_edges(self) -> int:
        return int(self.row_ptr[-1])

    def degree(self, vertex: int) -> int:
        return int(self.row_ptr[vertex + 1] - self.row_ptr[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[vertex]:self.row_ptr[vertex + 1]]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr).astype(np.int32)


def _degree_sequence(n_vertices: int, avg_degree: float, power: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Zipf-like degree sequence with the requested average degree."""
    ranks = np.arange(1, n_vertices + 1, dtype=np.float64)
    rng.shuffle(ranks)
    weights = ranks ** (-power)
    weights *= (avg_degree * n_vertices) / weights.sum()
    degrees = np.maximum(1, np.round(weights)).astype(np.int64)
    return degrees


def power_law_graph(n_vertices: int, avg_degree: float = 8.0,
                    power: float = 0.6, seed: int = 1,
                    acyclic: bool = False) -> CSRGraph:
    """Generate a directed power-law graph in CSR form.

    ``acyclic=True`` restricts edges to go from lower- to higher-numbered
    vertices (used by triangle counting, which the paper runs on acyclic
    directed graphs).
    """
    rng = np.random.default_rng(seed)
    degrees = _degree_sequence(n_vertices, avg_degree, power, rng)
    row_ptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_ptr[1:])
    num_edges = int(row_ptr[-1])
    # Destination choice is itself skewed (popular vertices attract edges),
    # matching the hub structure of RMAT graphs.
    popularity = _degree_sequence(n_vertices, avg_degree, power, rng).astype(np.float64)
    popularity /= popularity.sum()
    col_idx = rng.choice(n_vertices, size=num_edges, p=popularity).astype(np.int32)
    if acyclic:
        sources = np.repeat(np.arange(n_vertices, dtype=np.int64), degrees)
        # Force each edge forward; wrap-around edges collapse to a self-free
        # forward neighbour.
        forward = np.where(col_idx > sources,
                           col_idx,
                           ((sources + 1 + col_idx) % n_vertices)).astype(np.int32)
        forward = np.maximum(forward, np.minimum(sources + 1, n_vertices - 1)).astype(np.int32)
        col_idx = forward
    return CSRGraph(row_ptr=row_ptr, col_idx=col_idx)


def uniform_graph(n_vertices: int, avg_degree: float = 8.0,
                  seed: int = 1) -> CSRGraph:
    """Generate a directed graph with uniform-random edges."""
    rng = np.random.default_rng(seed)
    degrees = np.full(n_vertices, int(round(avg_degree)), dtype=np.int64)
    row_ptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_ptr[1:])
    col_idx = rng.integers(0, n_vertices, size=int(row_ptr[-1]), dtype=np.int32)
    return CSRGraph(row_ptr=row_ptr, col_idx=col_idx)


def bfs_levels(graph: CSRGraph, root: int) -> List[np.ndarray]:
    """Frontier of each BFS level starting from ``root`` (used by Graph500)."""
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[root] = True
    frontier = np.array([root], dtype=np.int32)
    levels = [frontier]
    while len(frontier):
        # Every neighbour of the frontier in scan order; the next frontier
        # is the unvisited ones, each at its first occurrence.
        starts = graph.row_ptr[frontier]
        lengths = graph.row_ptr[frontier + 1] - starts
        first = np.cumsum(lengths) - lengths
        edges = (np.arange(int(lengths.sum()))
                 + np.repeat(starts - first, lengths))
        fresh = graph.col_idx[edges]
        fresh = fresh[~visited[fresh]]
        _, first_seen = np.unique(fresh, return_index=True)
        frontier = fresh[np.sort(first_seen)].astype(np.int32)
        visited[frontier] = True
        if len(frontier):
            levels.append(frontier)
    return levels
