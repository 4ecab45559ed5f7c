"""Saliency scores and compensating updates for weight elimination.

Single-weight removal under the local quadratic model costs

    rho_i = w_i^2 / (2 * [F^-1]_ii)

and the loss-minimizing compensation of the surviving weights is

    dw = -(w_i / [F^-1]_ii) * F^-1 e_i

Removing a whole index set Q jointly costs

    rho_Q = 0.5 * w_Q^T ([F^-1]_[Q,Q])^-1 w_Q
    dw    = -F^-1 E_Q^T ([F^-1]_[Q,Q])^-1 w_Q

With a block-diagonal F^-1 the compensation never leaves the block that
contains the removed weight(s).

``loss_increase`` evaluates the same quadratic model for an arbitrary
weight change directly from gradient rows, without materializing F:

    0.5 * lambda * ||dw||^2 + (1/2N) * sum_i (g_i^T dw)^2

one chunk of rows at a time, formed from the factors of a factored
gradient set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fisher import CHUNK_VALUES, EPS_FLOOR, FisherBlockInverse
from .tensorstore import GradientSet


class NumericalError(Exception):
    """SPD factorization or solve failed; message carries a condition estimate."""


@dataclass(frozen=True)
class WeightUpdate:
    """Dense weight delta plus the indices it zeroes exactly."""

    delta: np.ndarray
    zeroed: tuple[int, ...]

    def apply(self, w: np.ndarray) -> np.ndarray:
        out = np.asarray(w, dtype=np.float64) + self.delta
        out[list(self.zeroed)] = 0.0
        return out


def _clamped(value: float) -> float:
    return value if value > EPS_FLOOR else EPS_FLOOR


def saliency_single(w: np.ndarray, inv: FisherBlockInverse, i: int) -> float:
    """Quadratic cost of removing weight ``i`` with optimal compensation."""
    w = np.asarray(w, dtype=np.float64)
    b, local = inv.block_of(i)
    d = _clamped(float(inv.blocks[b][local, local]))
    return float(w[i]) ** 2 / (2.0 * d)


def update_single(w: np.ndarray, inv: FisherBlockInverse, i: int) -> WeightUpdate:
    """Compensating update that zeroes weight ``i`` exactly."""
    w = np.asarray(w, dtype=np.float64)
    b, local = inv.block_of(i)
    blk = inv.blocks[b]
    d = _clamped(float(blk[local, local]))
    delta = np.zeros(w.size)
    lo = int(inv.offsets[b])
    delta[lo : lo + blk.shape[0]] = -(w[i] / d) * blk[:, local]
    delta[i] = -w[i]  # exact zero regardless of rounding in the division
    return WeightUpdate(delta=delta, zeroed=(int(i),))


def _group_split(inv: FisherBlockInverse, indices: Sequence[int]) -> tuple[int, list[int]]:
    pairs = [inv.block_of(int(i)) for i in indices]
    blocks = {b for b, _ in pairs}
    if len(blocks) != 1:
        raise ValueError(
            f"group spans blocks {sorted(blocks)}; a group must lie in one block"
        )
    b = blocks.pop()
    return b, [local for _, local in pairs]


def _solve_spd(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        low = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(mat)) if np.all(np.isfinite(mat)) else float("inf")
        raise NumericalError(
            f"group submatrix is not SPD (condition estimate {cond:.3e})"
        ) from exc
    return np.linalg.solve(low.T, np.linalg.solve(low, rhs))


def saliency_group(w: np.ndarray, inv: FisherBlockInverse, indices: Sequence[int]) -> float:
    """Joint cost of removing ``indices`` (all in one block) together.

    Raises NumericalError if the inverse's [Q,Q] submatrix is not SPD; the
    failure is reported, never papered over with extra regularization.
    """
    if len(indices) == 0:
        return 0.0
    w = np.asarray(w, dtype=np.float64)
    b, locals_ = _group_split(inv, indices)
    sub = inv.blocks[b][np.ix_(locals_, locals_)]
    wq = w[list(indices)]
    return float(0.5 * wq @ _solve_spd(sub, wq))


def update_group(w: np.ndarray, inv: FisherBlockInverse, indices: Sequence[int]) -> WeightUpdate:
    """Joint compensating update that zeroes every index in the group exactly."""
    w = np.asarray(w, dtype=np.float64)
    if len(indices) == 0:
        return WeightUpdate(delta=np.zeros(w.size), zeroed=())
    b, locals_ = _group_split(inv, indices)
    blk = inv.blocks[b]
    sub = blk[np.ix_(locals_, locals_)]
    wq = w[list(indices)]
    x = _solve_spd(sub, wq)
    delta = np.zeros(w.size)
    lo = int(inv.offsets[b])
    delta[lo : lo + blk.shape[0]] = -blk[:, locals_] @ x
    for i in indices:
        delta[int(i)] = -w[int(i)]
    return WeightUpdate(delta=delta, zeroed=tuple(int(i) for i in indices))


def loss_increase(
    w_before: np.ndarray,
    w_after: np.ndarray,
    grads: GradientSet | np.ndarray,
    dampening: float,
) -> float:
    """Quadratic-model loss change for the move ``w_before -> w_after``.

    Evaluated from gradient rows directly, so it costs O(N*d) and never
    forms F. Uses every row it is given; callers cap rows beforehand if a
    cap applies (``GradientSet.head``). The projection is an ``np.einsum``
    over the rows, one chunk of at most ``CHUNK_VALUES`` values at a time
    (three rows at least): stored float32 rows are widened to float64 in
    its small internal buffers, not as a copy, factored rows are formed
    one chunk at a time, and no BLAS matrix-vector product is called. A
    chunk holds at least two rows unless there is only one: a lone row
    takes NumPy's one-dimensional reduction, whose float64 sum can differ
    in the last bit, and with two or more rows every row's projection has
    the bytes of the one-shot ``einsum``. Raises NumericalError if the
    cost is not finite, as it is whenever a row holds a non-finite value.
    """
    if not isinstance(grads, GradientSet):
        grads = GradientSet("", grads)
    delta = np.asarray(w_after, dtype=np.float64) - np.asarray(w_before, dtype=np.float64)
    n, width = grads.num_samples, grads.dim
    if width != delta.size:
        raise ValueError(f"gradient rows have width {width}, weights have {delta.size}")
    step = max(3, CHUNK_VALUES // max(width, 1))
    proj = np.empty(n)
    lo = 0
    while lo < n:
        hi = n if n - lo <= step else lo + min(step, n - lo - 2)  # never a lone last row
        rows = grads.rows(lo, hi)
        np.einsum("ij,j->i", rows, delta, out=proj[lo:hi])
        lo = hi
    cost = float(0.5 * dampening * (delta @ delta) + (proj @ proj) / (2.0 * n))
    if not np.isfinite(cost):
        raise NumericalError(f"loss increase is {cost}: non-finite gradient values or weights")
    return cost
