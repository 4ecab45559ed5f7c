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
lockstep pass of the solver (``pass_blocks``) at a time, so the solver
takes each stack as it comes and, freeing each, never holds the whole
inverse. A stack is filled a sub-batch of blocks at a time: rows are
widened to float64, or formed from factors, only for one sub-batch,
whose columns hold at most ``CHUNK_VALUES`` values, and so does its
Woodbury scratch; each sub-batch is freed before the next is formed.
``CHUNK_VALUES`` bounds the build's scratch, not the stacks. A Woodbury
sub-batch writes its inverses into the stack; a Gram sub-batch writes
its dampened Gram matrices, and the stack is then inverted by one
batched LU call, whose result is the stack yielded (an LU call per
sub-batch, on the worker thread described next, slowed the solve beside
it by about 5% on the benchmark's float32 prune). After the
first pass, the solver draws each next stack on a worker thread, which
builds it while the solver solves the current one; every block is
inverted on its own, so neither the sub-batches nor the threads change a
byte. ``build_fisher_inverse`` collects the stream into a
``FisherBlockInverse`` for callers that need every block at once.

The toy's rows come factored (see ``tensorstore.GradientSet``): a
sub-batch's columns are formed from the layer's output residual and
input, and the rows never exist whole. Its non-finite scan checks the
factors instead of formed rows. Rounding is monotone, so a row's
largest product is the product of its largest factors, and a
non-finite factor makes a non-finite product: the scan raises exactly
when a formed row would hold a non-finite value.

The build takes the weights' movable mask and freezes every other
weight: a sub-batch that holds a frozen weight has that weight's gradient
column zeroed before it is inverted, which makes F block-diagonal up to
the order of coordinates, blockdiag(F_MM, lambda*I) with M the movable
weights, in both forms.
Its inverse is blockdiag(F_MM^-1, I/lambda), and the build then zeroes
the frozen diagonal entries, so every frozen row and column of the
result is exactly zero and the rest is the inverse of the Fisher
restricted to the movable weights. No compensation computed from it
moves a frozen weight. A sub-batch is copied only when it must be: a
float64 sub-batch with nothing frozen goes to the Gram form as a strided
view of the rows (or of its formed columns), which it reads once; a
masked sub-batch, one to widen and one for the Woodbury form, which
reads the rows three times, become one contiguous float64 copy.

Rows are resident only while the build reads them. The stream's frame
holds the only reference the build keeps to a layer's rows or factors,
so a caller that keeps none frees them once the layer's last stack is
built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .tensorstore import GradientSet

#: numerical floor applied to inverse diagonals before any division
EPS_FLOOR = 1e-12

DEFAULT_BLOCK_SIZE = 64
DEFAULT_NUM_GRADS = 4096
#: gradient values widened or formed at a time by the build and by
#: ``obs_core.loss_increase``; bounds their scratch memory independently of
#: the row count and layer width
CHUNK_VALUES = 1 << 17
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

    def block_of(self, i: int) -> tuple[int, int]:
        """Map a global index to (block id, index within block)."""
        if not 0 <= i < self.global_dim:
            raise IndexError(f"index {i} out of range for dim {self.global_dim}")
        b = int(np.searchsorted(self.offsets, i, side="right") - 1)
        return b, int(i - self.offsets[b])


def _fill_blocks(rows3: np.ndarray, lam: float, out: np.ndarray) -> None:
    """Writes to ``out``, for a (nblocks, N, B) float64 stack of rows, the
    dampened Gram matrices lambda*I + R_b^T R_b / N when N >= B (the build
    inverts them a whole stack at a time), else their inverses in the
    Woodbury form.

    Every block is computed on its own (per-matrix BLAS and LAPACK calls),
    so a block's bytes do not depend on which other blocks share its batch.
    """
    _, n, bs = rows3.shape
    rows_t = rows3.transpose(0, 2, 1)
    diag = np.arange(bs)
    if n >= bs:
        np.matmul(rows_t, rows3, out=out)
        out /= n
        out[:, diag, diag] += lam
        return
    small = rows3 @ rows_t
    small[:, diag[:n], diag[:n]] += n * lam
    np.matmul(rows_t, np.linalg.inv(small) @ rows3, out=out)
    np.negative(out, out=out)
    out[:, diag, diag] += 1.0
    out /= lam


def check_finite_rows(grads: GradientSet) -> None:
    """Raise ValueError if any row of ``grads``, used or not, holds a
    non-finite value. Stored rows are read one chunk at a time; factored
    rows are never formed."""
    if grads.factors is not None:
        # a row's largest product is the product of its largest factors, and
        # a non-finite factor makes a non-finite product
        r, x = grads.factors
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(np.abs(r).max(axis=1) * np.abs(x).max(axis=1)).all():
                raise ValueError("gradient samples contain non-finite values")
        return
    step = max(1, 8 * CHUNK_VALUES // grads.dim)  # its bools take the bytes of CHUNK_VALUES floats
    for lo in range(0, grads.num_samples, step):
        if not np.isfinite(grads.rows(lo, lo + step)).all():
            raise ValueError("gradient samples contain non-finite values")


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
    of consecutive blocks in weight order: the full blocks, one solver
    pass (``pass_blocks``) at a time, then the trailing partial block on
    its own. Uses the first ``min(num_grads, rows)`` rows in their stored
    dtype. Weights outside ``movable`` (default: every weight moves) come
    out frozen: their rows and columns are exactly zero (see the module
    docstring).
    """
    if not isinstance(grads, GradientSet):
        grads = GradientSet("", grads)
    dim, n_rows = grads.dim, grads.num_samples
    frozen = np.zeros(dim, dtype=bool)
    if movable is not None:
        movable = np.asarray(movable, dtype=bool)
        if movable.shape != (dim,):
            raise ValueError(f"movable mask has shape {movable.shape}, expected ({dim},)")
        frozen = ~movable
    n_used = min(int(config.num_grads), n_rows)
    check_finite_rows(grads)
    bs = config.block_size
    per_batch = max(1, CHUNK_VALUES // (bs * max(n_used, bs)))
    sizes = block_partition(dim, bs)
    return _inverse_stacks(grads.head(n_used), sizes, config, pass_blocks(bs), per_batch,
                           frozen)


def _inverse_stacks(
    used: GradientSet,
    sizes: list[int],
    config: FisherConfig,
    per_stack: int,
    per_batch: int,
    frozen: np.ndarray,
) -> Iterator[np.ndarray]:
    """The stream itself; it calls no public function, so the solver's
    worker threads can advance it. Each stack is filled ``per_batch``
    blocks at a time, so the rows it widens or forms at once never exceed
    ``CHUNK_VALUES`` values (see the module docstring)."""
    n_used, dim = used.num_samples, used.dim
    lam = float(config.dampening)
    bs = config.block_size
    n_main = dim // bs

    def build(lo: int, count: int, width: int) -> np.ndarray:
        """The inverses of ``count`` blocks of ``width`` from weight ``lo``."""
        stack = np.empty((count, width, width))
        for b in range(0, count, per_batch):
            out = stack[b : b + per_batch]
            start = lo + b * width
            hi = start + len(out) * width
            rows3 = used.columns(start, hi).reshape(n_used, -1, width).transpose(1, 0, 2)
            blk, idx = np.nonzero(frozen[start:hi].reshape(-1, width))
            if blk.size or rows3.dtype != np.float64 or n_used < width:
                rows3 = np.array(rows3, dtype=np.float64, order="C")  # never a view
                rows3[blk, :, idx] = 0.0  # the frozen gradient columns
            _fill_blocks(rows3, lam, out)
            del rows3  # free this sub-batch before the next one is formed
        if n_used >= width:  # one LU call per stack, whose result is the stack
            stack = np.linalg.inv(stack)
        blk, idx = np.nonzero(frozen[lo : lo + count * width].reshape(-1, width))
        stack[blk, idx, idx] = 0.0
        return stack

    for first in range(0, n_main, per_stack):
        yield build(first * bs, min(per_stack, n_main - first), bs)
    if len(sizes) > n_main:  # trailing partial block
        yield build(n_main * bs, 1, sizes[-1])


def build_fisher_inverse(
    grads: GradientSet | np.ndarray,
    config: FisherConfig,
    movable: np.ndarray | None = None,
) -> FisherBlockInverse:
    """The whole block inverse: every block of ``iter_block_inverses``, kept."""
    stacks = iter_block_inverses(grads, config, movable)
    return FisherBlockInverse([blk for stack in stacks for blk in stack])
