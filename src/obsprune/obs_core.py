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
    cap applies. Rows are widened to float64 a chunk at a time.
    """
    rows = grads.samples if isinstance(grads, GradientSet) else np.asarray(grads)
    delta = np.asarray(w_after, dtype=np.float64) - np.asarray(w_before, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != delta.size:
        raise ValueError(
            f"gradient rows have width {rows.shape[-1]}, weights have {delta.size}"
        )
    n = rows.shape[0]
    step = max(1, CHUNK_VALUES // max(delta.size, 1))
    proj = np.empty(n)
    for lo in range(0, n, step):
        proj[lo : lo + step] = np.asarray(rows[lo : lo + step], dtype=np.float64) @ delta
    return float(0.5 * dampening * (delta @ delta) + (proj @ proj) / (2.0 * n))
