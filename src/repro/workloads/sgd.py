"""Stochastic Gradient Descent for collaborative filtering (Section 5.3).

Matrix factorisation by SGD: the ratings are a stream of (user, item, value)
triples; for each triple the kernel gathers the user's and the item's
feature rows, computes a prediction error, and scatters updated rows back::

    u   = rating_user[k]        # INDEX   (sequential scan)
    i   = rating_item[k]        # INDEX   (sequential scan, second stream)
    pu  = user_feat[u]          # INDIRECT, 16-byte rows (shift = 4)
    qi  = item_feat[i]          # INDIRECT, 16-byte rows (shift = 4)
    ... dot product, error ...
    user_feat[u] = ...          # INDIRECT store
    item_feat[i] = ...          # INDIRECT store

Feature rows are 16 bytes (two doubles), matching the paper's "coefficient
16 for small structures" shift value.  Unlike pagerank's multi-way pattern,
the two indirections here come from *different* index arrays and therefore
train two separate PT entries.  SGD is the most compute-heavy workload of
the suite (it is the compute-bound example of Figure 13).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import (
    Workload,
    WorkloadBuild,
    compute_row,
    load_row,
    loop_rows,
    pc_of,
    prefetch_ahead,
    store_row,
    sw_prefetch_row,
    trace_from_rows,
)
from repro.workloads.sparse import ratings_matrix


class SGDWorkload(Workload):
    """SGD matrix factorisation over a sparse ratings matrix."""

    name = "sgd"

    PC_RATING_USER = pc_of(70)
    PC_RATING_ITEM = pc_of(71)
    PC_RATING_VALUE = pc_of(72)
    PC_USER_FEAT = pc_of(73)
    PC_ITEM_FEAT = pc_of(74)
    PC_USER_STORE = pc_of(75)
    PC_ITEM_STORE = pc_of(76)
    PC_SW_PREFETCH_U = pc_of(77)
    PC_SW_PREFETCH_I = pc_of(78)

    #: Feature-row size in doubles; 2 doubles = 16 bytes = shift 4.
    FEATURES = 2

    def __init__(self, n_users: int = 4096, n_items: int = 4096,
                 n_ratings: int = 24576, seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_users = n_users
        self.n_items = n_items
        self.n_ratings = n_ratings

    # ------------------------------------------------------------------
    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        users, items, values = ratings_matrix(self.n_users, self.n_items,
                                              self.n_ratings, seed=self.seed)
        image = MemoryImage()
        image.add_array("rating_user", users)
        image.add_array("rating_item", items)
        image.add_array("rating_value", values)
        image.add_array("user_feat",
                        np.zeros(self.n_users * self.FEATURES, dtype=np.float64),
                        elem_size=8 * self.FEATURES, length=self.n_users,
                        writable=True)
        image.add_array("item_feat",
                        np.zeros(self.n_items * self.FEATURES, dtype=np.float64),
                        elem_size=8 * self.FEATURES, length=self.n_items,
                        writable=True)
        traces: List[Trace] = []
        for core_id, ratings in enumerate(self.partition(self.n_ratings, n_cores)):
            traces.append(self._core_trace(core_id, ratings, users, items, image,
                                           software_prefetch,
                                           sw_prefetch_distance))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"users": self.n_users,
                                       "items": self.n_items,
                                       "ratings": self.n_ratings})

    # ------------------------------------------------------------------
    def _core_trace(self, core_id: int, ratings: range, users: np.ndarray,
                    items: np.ndarray, image: MemoryImage,
                    software_prefetch: bool, distance: int) -> Trace:
        k = np.arange(ratings.start, ratings.stop)
        prefetch, ahead = prefetch_ahead(k + distance, ratings.start,
                                         ratings.stop, software_prefetch)
        user_feat = image.addresses("user_feat", users[k])
        item_feat = image.addresses("item_feat", items[k])
        indirect = AccessKind.INDIRECT
        return trace_from_rows(core_id, loop_rows(
            len(k),
            sw_prefetch_row(self.PC_SW_PREFETCH_U,
                            image.addresses("user_feat", users[ahead]),
                            prefetch),
            sw_prefetch_row(self.PC_SW_PREFETCH_I,
                            image.addresses("item_feat", items[ahead]),
                            prefetch),
            load_row(self.PC_RATING_USER, image.addresses("rating_user", k),
                     AccessKind.INDEX, size=4),
            load_row(self.PC_RATING_ITEM, image.addresses("rating_item", k),
                     AccessKind.INDEX, size=4),
            load_row(self.PC_RATING_VALUE,
                     image.addresses("rating_value", k), AccessKind.STREAM),
            load_row(self.PC_USER_FEAT, user_feat, indirect, size=16),
            load_row(self.PC_ITEM_FEAT, item_feat, indirect, size=16),
            # Dot product, error computation and least-squares update: the
            # compute-heavy part that makes SGD compute-bound.
            compute_row(20),
            store_row(self.PC_USER_STORE, user_feat, indirect, size=16),
            store_row(self.PC_ITEM_STORE, item_feat, indirect, size=16),
            compute_row(4)))
