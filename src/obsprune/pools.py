"""Layers and pools of the global weight vector, and the pool rule.

Weights are indexed globally: layers concatenated in mapping order, each
flattened row-major. A pool is a weight range [lo, hi) with its own zero
count k: one over all weights, or one per layer in per-layer mode. Every
method chooses what it prunes with ``select_in_pools``, from records of
(global index, score, pinned): ``ovit``'s elimination steps and
``gm``/``wf``'s per-weight scores. Every method sums each layer's and
each pool's costs, and then the pools' sums, left to right
(``pooled_sums``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class LayerLayout:
    """Where one layer's row-major flattened weights sit in the global vector."""

    name: str
    offset: int
    size: int
    shape: tuple[int, ...]


class Pool(NamedTuple):
    """Weights [lo, hi) of the global vector, of which ``k`` are pruned."""

    lo: int
    hi: int
    k: int


def select_in_pools(
    gidx: np.ndarray, scores: np.ndarray, pinned: np.ndarray, pools: Sequence[Pool]
) -> np.ndarray:
    """Positions of the chosen records (record j is weight ``gidx[j]`` at
    cost ``scores[j]``): in every pool, its ``pinned`` records first, then
    the cheapest others by (score, global index), up to the pool's k.
    ``pools`` partition the weights in index order."""
    if len(pools) == 1:  # a pool key would only add arrays, and peak memory, to a global prune
        return np.lexsort((gidx, scores, ~pinned))[: pools[0].k]
    pool = np.searchsorted([p.hi for p in pools], gidx, side="right")
    order = np.lexsort((gidx, scores, ~pinned, pool))
    pool = pool[order]
    rank = np.arange(order.size) - np.searchsorted(pool, pool)
    return order[rank < np.array([p.k for p in pools], dtype=np.int64)[pool]]


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum, one addition at a time: the same bytes as a
    running float total, unlike the pairwise ``np.sum``."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def pooled_sums(
    starts: np.ndarray, costs: np.ndarray, layout: Sequence[LayerLayout], pools: Sequence[Pool],
) -> tuple[dict[str, float], float]:
    """Per-layer and total cost of ``costs`` at ascending global indices
    ``starts``: each layer's and each pool's costs, and then the pools'
    sums, are added left to right."""
    ranges = [(lay.offset, lay.offset + lay.size) for lay in layout] + [(p.lo, p.hi) for p in pools]
    sums = [_sum_in_order(costs[lo:hi]) for lo, hi in np.searchsorted(starts, ranges)]
    per_layer = dict(zip((lay.name for lay in layout), sums))
    return per_layer, _sum_in_order(np.array(sums[len(layout) :]))
