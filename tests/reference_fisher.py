"""Reference Schur downdates, the per-coordinate loops that the frozen
Fisher build replaced.

``eliminate_index`` downdates an inverse after a coordinate is removed
from the system (Schur complement step): the remaining entries become the
inverse of F with that row/column deleted, and the removed row/column is
zeroed with a 0.0 sentinel on the diagonal so it can never be selected
again. ``freeze_indices`` applies it to every frozen coordinate, which is
what ``fisher.iter_block_inverses`` computes directly from a movable mask.
"""

import warnings
from typing import Iterable

import numpy as np

from obsprune.fisher import EPS_FLOOR, DegenerateCurvatureWarning, FisherBlockInverse


class DegeneratePivotError(Exception):
    """Inverse diagonal at or below the numerical floor where a pivot is needed."""


def eliminate_index(inv_block: np.ndarray, i: int, floor: float = EPS_FLOOR) -> np.ndarray:
    """Downdate a block inverse after removing coordinate ``i``.

    Returns a new matrix equal to inv - (inv e_i)(inv e_i)^T / inv[i,i]
    with row/column ``i`` zeroed and a 0.0 diagonal sentinel. The
    surviving entries are the inverse of the original F with row/column
    ``i`` deleted. Raises DegeneratePivotError when the pivot is at or
    below ``floor``; callers that must not abort clamp and retry.
    """
    pivot = float(inv_block[i, i])
    if not np.isfinite(pivot) or pivot <= floor:
        raise DegeneratePivotError(
            f"pivot {pivot:.3e} at index {i} is at or below the {floor:.0e} floor"
        )
    col = inv_block[:, i].copy()
    out = inv_block - np.outer(col, col) / pivot
    out[i, :] = 0.0
    out[:, i] = 0.0
    out[i, i] = 0.0
    return out


def eliminate_index_clamped(inv_block: np.ndarray, i: int) -> np.ndarray:
    """Like ``eliminate_index`` but clamps degenerate pivots with a warning."""
    try:
        return eliminate_index(inv_block, i)
    except DegeneratePivotError:
        warnings.warn(
            f"clamping degenerate pivot at index {i} to {EPS_FLOOR:.0e}",
            DegenerateCurvatureWarning,
            stacklevel=2,
        )
        patched = inv_block.copy()
        patched[i, i] = EPS_FLOOR
        return eliminate_index(patched, i, floor=0.0)


def freeze_indices(inv: FisherBlockInverse, frozen: Iterable[int]) -> FisherBlockInverse:
    """Eliminate ``frozen`` global coordinates from a copy of the inverse.

    The result is the inverse of the Fisher restricted to the movable
    subspace: columns at frozen coordinates are zero, so no compensating
    update computed from it can touch a frozen weight.
    """
    out = FisherBlockInverse([b.copy() for b in inv.blocks], inv.offsets.copy())
    per_block: dict[int, list[int]] = {}
    for g in frozen:
        b, local = out.block_of(int(g))
        per_block.setdefault(b, []).append(local)
    for b, locals_ in per_block.items():
        blk = out.blocks[b]
        for j in sorted(locals_):
            blk = eliminate_index_clamped(blk, j)
        out.blocks[b] = blk
    return out
