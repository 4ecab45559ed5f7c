"""Block-diagonal empirical Fisher inverses.

The curvature proxy is F = lambda*I + (1/N) * sum_i g_i g_i^T over N
per-sample gradient rows, approximated block-diagonally: weights are cut
into contiguous blocks of ``block_size`` (the last block holds the
remainder) and each block keeps its own dense inverse. With R_b the
(N, B) slice of the rows that falls in block b, blocks are inverted in
batches, in one of two exact forms:

    N >= B:  F_b^-1 = (R_b^T R_b / N + lambda*I)^-1            (LU)
    N <  B:  F_b^-1 = (1/lambda) * (I - R_b^T (N*lambda*I + R_b R_b^T)^-1 R_b)

The second (Woodbury) form needs only one N x N inverse and stays well
conditioned at tiny dampening.

``iter_block_inverses`` is the one build: it validates the rows, then
yields the inverses as (nb, B, B) stacks of consecutive blocks, one
chunk of blocks at a time, so rows are widened to float64 a chunk at a
time and a consumer that frees each stack (the greedy solver) never
holds the whole inverse. A chunk holds at most ``CHUNK_VALUES`` widened
gradient values and at most one lockstep pass of the solver
(``pass_blocks``), so the solver can take each stack as it comes. After
the first pass, the solver draws each next stack on a worker thread,
which builds it while the solver solves the current one; every block is
inverted on its own, so that changes no byte. ``build_fisher_inverse``
collects the stream into a ``FisherBlockInverse`` for callers that need
every block at once.

The build takes the weights' movable mask and freezes every other
weight: a chunk that holds a frozen weight has that weight's gradient
column zeroed before it is inverted, which makes F block-diagonal up to
the order of coordinates, blockdiag(F_MM, lambda*I) with M the movable
weights, in both forms.
Its inverse is blockdiag(F_MM^-1, I/lambda), and the build then zeroes
the frozen diagonal entries, so every frozen row and column of the
result is exactly zero and the rest is the inverse of the Fisher
restricted to the movable weights. No compensation computed from it
moves a frozen weight. A chunk is copied only when it must be: a float64
chunk with nothing frozen goes to the Gram form as a strided view of the
rows, which it reads once; a masked chunk, a chunk to widen and a chunk
for the Woodbury form, which reads the rows three times, become one
contiguous float64 copy.

Rows are resident only while the build reads them. The stream's frame
holds the only reference the build keeps to a layer's rows, so a caller
that keeps none frees them once the layer's last stack is built. Rows
that are a read-only view of a container mapping (as the CLI reads them)
have their pages released from it instead: rows past ``num_grads`` as
soon as the non-finite scan has passed them, and the used rows at the
end of the layer's stream (see ``tensorstore``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .tensorstore import GradientSet, _release_pages

#: numerical floor applied to inverse diagonals before any division
EPS_FLOOR = 1e-12

DEFAULT_BLOCK_SIZE = 64
DEFAULT_NUM_GRADS = 4096
#: gradient values widened to float64 at a time by the build; bounds its
#: scratch memory independently of the row count and layer width
CHUNK_VALUES = 1 << 20
#: float64 values of initial inverses per lockstep pass of the greedy
#: solver (64 blocks at B=64); the pass's columns and snapshots scale with it
PASS_VALUES = 1 << 18
#: default dampening per method (CLI-overridable)
DAMPENING_DEFAULTS = {"ovit": 1e-8, "wf": 1e-6, "gm": 1e-8}


class DegenerateCurvatureWarning(UserWarning):
    """A solver clamped a degenerate pivot to the floor instead of aborting."""


@dataclass(frozen=True)
class FisherConfig:
    """Hyperparameters for building block Fisher inverses.

    ``num_grads`` is a cap: builders use the first ``min(num_grads, rows)``
    gradient rows and normalize by that same count, so scoring stays
    consistent with the built inverse.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    dampening: float = DAMPENING_DEFAULTS["ovit"]
    num_grads: int = DEFAULT_NUM_GRADS

    def __post_init__(self) -> None:
        if int(self.block_size) < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if not (float(self.dampening) > 0.0) or not np.isfinite(self.dampening):
            raise ValueError(f"dampening must be positive and finite, got {self.dampening}")
        if int(self.num_grads) < 1:
            raise ValueError(f"num_grads must be >= 1, got {self.num_grads}")


def pass_blocks(block_size: int) -> int:
    """Blocks of ``block_size`` in one lockstep pass of the greedy solver."""
    return max(1, PASS_VALUES // (block_size * block_size))


def block_partition(dim: int, block_size: int) -> list[int]:
    """Contiguous block sizes covering ``dim``: full blocks plus the remainder."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    sizes = [block_size] * (dim // block_size)
    if dim % block_size:
        sizes.append(dim % block_size)
    return sizes


@dataclass
class FisherBlockInverse:
    """Dense per-block inverses of the dampened empirical Fisher.

    ``offsets`` has one entry per block plus a trailing ``global_dim``;
    block ``b`` covers global indices ``offsets[b]:offsets[b+1]``.
    """

    blocks: list[np.ndarray]
    config: FisherConfig
    offsets: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.offsets is None:
            sizes = [b.shape[0] for b in self.blocks]
            self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        else:
            self.offsets = np.asarray(self.offsets, dtype=np.int64)

    @property
    def global_dim(self) -> int:
        return int(self.offsets[-1])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, i: int) -> tuple[int, int]:
        """Map a global index to (block id, index within block)."""
        if not 0 <= i < self.global_dim:
            raise IndexError(f"index {i} out of range for dim {self.global_dim}")
        b = int(np.searchsorted(self.offsets, i, side="right") - 1)
        return b, int(i - self.offsets[b])

    def diagonal(self) -> np.ndarray:
        """Global inverse diagonal (unclamped)."""
        return np.concatenate([np.diagonal(b) for b in self.blocks])


def _invert_blocks(rows3: np.ndarray, lam: float) -> np.ndarray:
    """Inverses of lambda*I + R_b^T R_b / N for a (nblocks, N, B) float64 stack.

    Every block is computed on its own (per-matrix BLAS and LAPACK calls),
    so a block's bytes do not depend on which other blocks share its batch.
    """
    _, n, bs = rows3.shape
    rows_t = rows3.transpose(0, 2, 1)
    diag = np.arange(bs)
    if n >= bs:
        gram = rows_t @ rows3
        gram /= n
        gram[:, diag, diag] += lam
        return np.linalg.inv(gram)
    small = rows3 @ rows_t
    small[:, diag[:n], diag[:n]] += n * lam
    out = rows_t @ (np.linalg.inv(small) @ rows3)
    np.negative(out, out=out)
    out[:, diag, diag] += 1.0
    out /= lam
    return out


def iter_block_inverses(
    grads: GradientSet | np.ndarray,
    config: FisherConfig,
    movable: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Per-block inverses of lambda*I + (1/N) sum g g^T, as a stream.

    Validates the rows at the call, before any block is built: raises
    ValueError on an empty sample set, on non-finite values in any row,
    used or not, or on a ``movable`` mask that is not one flag per
    weight. The returned iterator then yields (nb, B, B) float64 stacks
    of consecutive blocks in weight order: the full blocks, about
    ``CHUNK_VALUES`` widened gradient values and at most one solver pass
    at a time, then the trailing partial block on its own. Uses the first
    ``min(num_grads, rows)`` rows in their stored dtype. Weights outside
    ``movable`` (default: every weight moves) come out frozen: their rows
    and columns are exactly zero (see the module docstring). Read-only
    rows in a container mapping have their pages released once read:
    unused rows by the scan, used rows when the stream ends.
    """
    samples = grads.samples if isinstance(grads, GradientSet) else np.asarray(grads)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError("gradient samples must be a non-empty (N, d) array")
    dim = samples.shape[1]
    frozen = np.zeros(dim, dtype=bool)
    if movable is not None:
        movable = np.asarray(movable, dtype=bool)
        if movable.shape != (dim,):
            raise ValueError(f"movable mask has shape {movable.shape}, expected ({dim},)")
        frozen = ~movable
    sizes = block_partition(dim, config.block_size)
    n_used = min(int(config.num_grads), samples.shape[0])
    step = max(1, CHUNK_VALUES // dim)
    for lo in range(0, samples.shape[0], step):
        if not np.isfinite(samples[lo : lo + step]).all():
            raise ValueError("gradient samples contain non-finite values")
        _release_pages(samples[max(lo, n_used) : lo + step])  # rows no block reads
    bs = config.block_size
    per_chunk = min(max(1, CHUNK_VALUES // (bs * max(n_used, bs))), pass_blocks(bs))
    return _inverse_stacks(samples[:n_used], sizes, config, per_chunk, frozen)


def _inverse_stacks(
    used: np.ndarray,
    sizes: list[int],
    config: FisherConfig,
    per_chunk: int,
    frozen: np.ndarray,
) -> Iterator[np.ndarray]:
    """The stream itself; it calls no public function, so the solver's
    worker threads can advance it. It releases the pages of ``used`` once
    the last stack is built (see the module docstring)."""
    n_used, dim = used.shape
    lam = float(config.dampening)
    bs = config.block_size
    n_main = dim // bs

    def invert(lo: int, hi: int, width: int) -> np.ndarray:
        rows3 = used[:, lo:hi].reshape(n_used, -1, width).transpose(1, 0, 2)
        blk, idx = np.nonzero(frozen[lo:hi].reshape(-1, width))
        if blk.size or rows3.dtype != np.float64 or n_used < width:
            rows3 = np.array(rows3, dtype=np.float64, order="C")  # never a view
            rows3[blk, :, idx] = 0.0  # the frozen gradient columns
        out = _invert_blocks(rows3, lam)
        out[blk, idx, idx] = 0.0
        return out

    for b in range(0, n_main, per_chunk):
        yield invert(b * bs, min(b + per_chunk, n_main) * bs, bs)
    if len(sizes) > n_main:  # trailing partial block
        yield invert(n_main * bs, dim, sizes[-1])
    _release_pages(used)


def build_fisher_inverse(
    grads: GradientSet | np.ndarray,
    config: FisherConfig,
    movable: np.ndarray | None = None,
) -> FisherBlockInverse:
    """The whole block inverse: every block of ``iter_block_inverses``, kept."""
    stacks = iter_block_inverses(grads, config, movable)
    return FisherBlockInverse([blk for stack in stacks for blk in stack], config)
