"""Greedy one-at-a-time elimination inside Fisher blocks, and a global merge.

Each Fisher block is solved independently: repeatedly pick the live
prunable weight with the smallest single-weight saliency (ties go to the
lowest index), apply its compensating update inside the block, and fold
its cost into a running per-block total ``err``. In global mode ``err``
is recorded as the weight's *global* score and the block weights after
every step are written to a spill file. Because the recorded score is
cumulative, pruning any prefix of a block's elimination order costs
exactly the last recorded score of that prefix. The steps are selected
by the pool rule of every method (see ``pools``). A block eliminates
exactly its pinned weights first, so a recorded step is pinned iff its
weight is, the steps a pool selects are a prefix of each of its blocks'
orders, and each block reloads its snapshot at its selected prefix
length.

Traces are arrays, one ``PassTrace`` per lockstep pass: (blocks, steps)
arrays of elimination order and cumulative cost, the final weights, and
per-block counts of steps and clamps; its per-step snapshots are in the
solve's spill file. ``solve_global`` selects on the recorded steps of
all passes and pools at once, and the result is assembled with one mask
write and one snapshot read per partially taken block. Predicted costs
are summed one block at a time, in block order, so their bytes do not
depend on how blocks are grouped into passes.

One kernel, ``eliminate_blocks``, runs this greedy for every mode. It
steps all blocks of one size in lockstep, a chunk of blocks at a time,
and never downdates a B x B inverse. Eliminating coordinate i from an
inverse H is the rank-one downdate H - c c^T with c = H e_i / sqrt(H_ii),
so the kernel keeps the initial inverses H0, the accumulated scaled
columns c and a running diagonal ``D -= c**2``, and forms only the one
column each step needs, ``H[:, i] = H0[:, i] - C^T C[:, i]``. Columns are
exactly zero at eliminated and frozen coordinates. Per block of size B
this costs O(B^3) time and O(B^2) scratch: O(d*B^2) time overall.

The kernel consumes block inverses as a stream of (nb, B, B) stacks in
weight order, and solves each stack it is handed as one lockstep pass.
``fisher.iter_block_inverses`` yields exactly the solver's passes, across
layer boundaries, and ``FisherBlockInverse.passes`` groups a whole
inverse by the same rule, so no pass is joined or split here. When a
stream's first pass leaves weights over, each next pass is drawn on a
short-lived worker thread, one at a time: the build of the next pass
(batched LAPACK and BLAS calls, which release the GIL) runs beside the
solve of the current one (many small, GIL-bound NumPy calls). Passes are
still solved in weight order, and every block is built on its own, so
the workers move no output byte. So an N:M solve holds the pass it
solves, at most one pass drawn ahead and one pass of scratch, and so
does a global solve: it writes each step's (nb, B) block weights, as the
step is taken, to one unlinked spill file per solve
(``tensorstore.Spill``), so its d*B snapshot values go to disk, not to
memory, and it reads back only the rows it reloads. ``solve_global`` and
``solve_block`` close the file on every exit path.

The N:M variant runs the same kernel but makes a weight ineligible once
its aligned group of m consecutive weights (row-major, within a layer)
has m-n zeroed entries, and stops a block when every group reached its
quota. It keeps no snapshots and needs no spill: it always takes every
step, so only the final weights are needed.

Inverses must come frozen from the build: every solver here takes
``prunable`` to say which weights are eligible, and expects each
non-prunable coordinate's row and column of its block's inverse to be
exactly zero, so that the inverse is that of the Fisher restricted to
the movable weights (``fisher.iter_block_inverses`` with the layer's
movable mask builds it so). Then no compensation can move a frozen
weight, and none can be selected. ``eliminate_blocks`` raises
ValueError, naming the block, on an inverse with a nonzero entry in a
non-prunable coordinate's row, instead of compensating through weights
that must not move. Pinned coordinates are eliminated first, in index
order, with the normal update and cost. Pivots at or below
``EPS_FLOOR`` are clamped to it and counted; a solve that clamps warns
once with the count.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fisher import EPS_FLOOR, DegenerateCurvatureWarning, FisherBlockInverse
from .pools import LayerLayout, Pool, pooled_sums, select_in_pools
from .tensorstore import Spill


class InternalSolverError(AssertionError):
    """A should-be-impossible state (e.g. non-prefix selection) was reached."""


@dataclass
class PassTrace:
    """Greedy traces of one lockstep pass: ``nb`` consecutive blocks of B
    weights each, starting at global index ``offset``.

    Row b of ``order`` and ``cumulative`` describes block b's first
    ``steps[b]`` recorded steps: its pinned coordinates in index order,
    then its greedy ones; later entries are padding. The block weights
    after each step are not held: a global pass wrote them to ``spill``,
    step-major, the (nb, B) weights after step t at byte
    ``at + t * nb * B * 8``, and ``state`` reads one block's row back. An
    n:m pass has no spill and no snapshots.
    """

    offset: int
    order: np.ndarray  # (nb, S) within-block indices, elimination order
    cumulative: np.ndarray  # (nb, S) non-decreasing cumulative cost
    spill: Spill | None  # the solve's spill file; None in an n:m pass
    at: int  # byte position of the pass's first step in it
    final: np.ndarray  # (nb, B) block weights after the last step
    steps: np.ndarray  # (nb,) recorded steps
    clamps: np.ndarray  # (nb,) pivots clamped to the floor

    @property
    def starts(self) -> np.ndarray:
        """Global index of every block's first weight."""
        nb, bs = self.final.shape
        return self.offset + bs * np.arange(nb)

    def state(self, b: int, t: int, out: np.ndarray) -> np.ndarray:
        """``out``, filled with block b's weights after its step t."""
        nb, bs = self.final.shape
        return self.spill.read(out, self.at + int(t * nb + b) * bs * 8)

    def block(self, b: int) -> SolvedBlock:
        """Block b's trace, its snapshots read back one step at a time."""
        s = int(self.steps[b])
        states = np.empty((s if self.spill else 0, self.final.shape[1]))
        for t, row in enumerate(states):
            self.state(b, t, row)
        return SolvedBlock(self.order[b, :s], self.cumulative[b, :s], states, self.final[b])


class SolvedBlock(NamedTuple):
    """One block's trace, as ``solve_block`` returns it (see ``PassTrace``)."""

    order: np.ndarray
    cumulative: np.ndarray
    states: np.ndarray
    final: np.ndarray


@dataclass
class PruneResult:
    """Global mask (u8, 1 = kept), compensated weights, and model-cost summary.

    ``clamp_events`` counts pivots clamped to the numerical floor.
    """

    mask: np.ndarray
    new_weights: np.ndarray
    predicted_loss_increase: float
    per_layer_sparsity: dict[str, float] = field(default_factory=dict)
    per_layer_predicted: dict[str, float] = field(default_factory=dict)
    layout: tuple[LayerLayout, ...] = ()
    clamp_events: int = 0

    @classmethod
    def from_mask(
        cls,
        mask: np.ndarray,
        new_weights: np.ndarray,
        predicted: float,
        per_layer_predicted: dict[str, float],
        layout: tuple[LayerLayout, ...],
        clamp_events: int = 0,
    ) -> PruneResult:
        """The one constructor every method uses; per-layer sparsity is
        counted from ``mask`` over ``layout``."""
        per_layer_sparsity = {
            lay.name: float(np.count_nonzero(mask[lay.offset : lay.offset + lay.size] == 0))
            / lay.size
            for lay in layout
        }
        return cls(mask, new_weights, float(predicted), per_layer_sparsity,
                   per_layer_predicted, layout, clamp_events)


def _default_layout(dim: int) -> tuple[LayerLayout, ...]:
    return (LayerLayout("weights", 0, dim, (dim,)),)


def _eliminate_stack(
    offset: int,
    cols0: np.ndarray,
    w: np.ndarray,
    prunable: np.ndarray,
    pinned: np.ndarray,
    nm: tuple[int, int] | None,
    spill: Spill | None,
) -> PassTrace:
    """Greedy elimination on a stack of same-size blocks, in lockstep.

    ``cols0[b, i]`` is column i of the initial (frozen) inverse of block
    b, whose first weight has global index ``offset + b * B``;
    ``w``, ``prunable`` and ``pinned`` are (nb, B). Step t eliminates one
    coordinate in every block that still has one to eliminate: its
    pinned coordinates first, then the live eligible coordinate of least
    saliency. Given a ``spill`` it appends the (nb, B) block weights to
    it after every step; an n:m solve takes every step, so it needs only
    the final ones.
    """
    nb, bs = w.shape
    rows = np.arange(nb)
    n_forced = np.count_nonzero(pinned, axis=1)
    forced = np.argsort(~pinned, axis=1, kind="stable")  # pinned ones in index order
    if nm is None:
        n_steps = np.count_nonzero(prunable, axis=1)
    else:
        n, m = nm
        group = np.arange(bs) // m
        quota = np.minimum(m - n, np.count_nonzero(prunable.reshape(nb, -1, m), axis=2))
        counts = np.zeros_like(quota)
        n_steps = quota.sum(axis=1)
    max_steps = int(n_steps.max(initial=0))

    scaled = np.empty((nb, max_steps, bs))  # C, one row per step
    diag = np.diagonal(cols0, axis1=1, axis2=2).copy()  # running D
    gone = ~prunable  # eliminated or frozen
    err = np.zeros(nb)
    clamps = np.zeros(nb, dtype=np.int64)
    order = np.zeros((nb, max_steps), dtype=np.int64)
    cumulative = np.zeros((nb, max_steps))
    at = spill.size if spill else 0

    for t in range(max_steps):
        active = t < n_steps
        barred = gone if nm is None else gone | (counts >= quota)[:, group]
        score = np.where(barred, np.inf, w * w / (2.0 * np.maximum(diag, EPS_FLOOR)))
        i = np.where(t < n_forced, forced[:, t], np.argmin(score, axis=1))
        col = cols0[rows, i]
        if t:
            col -= np.matmul(scaled[rows, :t, i][:, None, :], scaled[:, :t])[:, 0]
        col[gone] = 0.0
        raw = col[rows, i]
        ok = np.isfinite(raw) & (raw > EPS_FLOOR)
        pivot = np.where(ok, raw, EPS_FLOOR)
        clamps += active & ~ok
        col[rows, i] = pivot
        c = col / np.sqrt(pivot)[:, None]
        c[~active] = 0.0
        scaled[:, t] = c
        diag -= c * c

        r, iu = rows[active], i[active]
        gone[r, iu] = True
        wi = w[r, iu]
        w[r] -= (wi / pivot[active])[:, None] * col[r]
        w[r, iu] = 0.0
        err[r] += wi * wi / (2.0 * pivot[active])
        order[r, t] = iu
        cumulative[r, t] = err[r]
        if spill:
            spill.append(w)
        if nm is not None:
            counts[r, group[iu]] += 1

    return PassTrace(offset, order, cumulative, spill, at, w, n_steps, clamps)


def _check_frozen(offset: int, stack: np.ndarray, prunable: np.ndarray) -> None:
    """Raise unless every non-prunable coordinate's row of its block's
    inverse is exactly zero, as ``fisher.iter_block_inverses`` builds it."""
    blk, idx = np.nonzero(~prunable)
    moving = np.any(stack[blk, idx] != 0.0, axis=1)
    if moving.any():
        b, i = int(blk[moving][0]), int(idx[moving][0])
        bs = stack.shape[1]
        lo = offset + b * bs
        raise ValueError(
            f"inverse block [{lo}, {lo + bs}) is not frozen: its row for non-prunable "
            f"weight {lo + i} is nonzero; build it with that layer's movable mask"
        )


InverseStacks = FisherBlockInverse | Iterable[np.ndarray]


class _Ahead:
    """An iterator over a stream of stacks that, once ``start`` is called,
    draws each next stack on a fresh daemon worker while the caller works
    on the last one. Only one worker exists at a time, so at most one
    stack is drawn ahead.

    A worker only advances the stream; its rows were validated when the
    stream was made. ``__next__`` re-raises what a worker raised,
    StopIteration included, on that call and every later one. ``close``
    joins the worker in flight; the caller calls it on every exit.
    """

    def __init__(self, stacks: Iterable[np.ndarray]) -> None:
        self._stacks = iter(stacks)
        self._worker: threading.Thread | None = None
        self._drawn: object = None  # the worker's stack, or what it raised

    def start(self) -> None:
        self._launch()

    def _launch(self) -> None:
        self._worker = threading.Thread(target=self._draw, daemon=True)
        self._worker.start()

    def _draw(self) -> None:
        try:
            self._drawn = next(self._stacks)
        except BaseException as exc:  # re-raised on the caller's thread
            self._drawn = exc

    def __iter__(self) -> _Ahead:
        return self

    def __next__(self) -> np.ndarray:
        if self._worker is None:
            return next(self._stacks)
        self._worker.join()
        if isinstance(self._drawn, BaseException):
            raise self._drawn
        stack, self._drawn = self._drawn, None
        self._launch()
        return stack

    def close(self) -> None:
        if self._worker is not None:
            self._worker.join()


def eliminate_blocks(
    w: np.ndarray,
    inv: InverseStacks,
    prunable: np.ndarray,
    pinned: np.ndarray | None = None,
    nm: tuple[int, int] | None = None,
    spill: Spill | None = None,
) -> list[PassTrace]:
    """Greedy traces of every block, one ``PassTrace`` per lockstep pass;
    warns once if any pivot was clamped.

    ``inv`` is a ``FisherBlockInverse``, solved in the passes of
    ``FisherBlockInverse.passes``, or an iterable of (nb, B, B) stacks of
    consecutive block inverses in weight order, such as
    ``fisher.iter_block_inverses``, each stack of which is one lockstep
    pass, solved as it is. Passes are solved in weight order. If
    ``inv`` is a stream and its first pass leaves weights over, the rest
    of it is drawn on worker threads, one stack ahead of the solve, and
    the last worker is joined before this returns or raises; an exception
    raised while drawing is re-raised here. ``w``, ``prunable`` and
    ``pinned`` are global flat vectors. With ``nm`` the greedy respects
    n:m group quotas, every block boundary must be a multiple of m, and
    ``pinned`` must be empty; without ``nm``, a ``spill`` is given the
    snapshots (see ``PassTrace``), and with none no snapshots are kept.
    The caller closes it. The inverse must be frozen: each pass raises
    ValueError, naming the block, before it is solved if a non-prunable
    coordinate's row holds a nonzero entry.
    """
    w = np.asarray(w, dtype=np.float64)
    if pinned is None:
        pinned = np.zeros(w.size, dtype=bool)
    passes: list[PassTrace] = []
    offset = 0
    whole = isinstance(inv, FisherBlockInverse)
    stacks = _Ahead(inv.passes() if whole else inv)
    try:
        for stack in stacks:
            nb, bs, _ = stack.shape
            end = offset + nb * bs
            if end > w.size:
                raise ValueError(f"inverse covers more than the {w.size} weights")
            if nm is not None and (offset % nm[1] or bs % nm[1]):
                raise ValueError(
                    f"block boundaries must be multiples of m={nm[1]}; "
                    "use a block size that m divides"
                )
            if not offset and end < w.size and not whole:
                stacks.start()  # build the next stacks beside this solve
            sl = slice(offset, end)
            pr = prunable[sl].reshape(nb, bs)
            _check_frozen(offset, stack, pr)
            passes.append(_eliminate_stack(
                offset, stack.transpose(0, 2, 1), w[sl].reshape(nb, bs).copy(), pr,
                pinned[sl].reshape(nb, bs), nm, spill,
            ))
            offset = end
            del stack  # free this pass before the next one is taken
    finally:
        stacks.close()
    if offset != w.size:
        raise ValueError(f"inverse covers {offset} weights, got {w.size}")
    clamped = _clamp_total(passes)
    if clamped:
        warnings.warn(
            f"clamped {clamped} degenerate pivot(s) to {EPS_FLOOR:.0e}",
            DegenerateCurvatureWarning,
            stacklevel=3,
        )
    return passes


def _clamp_total(passes: list[PassTrace]) -> int:
    return sum(int(p.clamps.sum()) for p in passes)


def solve_block(
    w_block: np.ndarray,
    inv_block: np.ndarray,
    prunable: np.ndarray | None = None,
    pinned: Sequence[int] = (),
    block_id: int = 0,
) -> SolvedBlock:
    """Run the greedy loop to exhaustion on one block.

    ``pinned`` indices (must be prunable) are eliminated first, in index
    order, before any saliency-based selection; they exist so that a
    caller can force previously-pruned weights to stay pruned.
    ``inv_block`` must be frozen: zero in every non-prunable row and
    column (a nonzero row raises ValueError). ``block_id`` is accepted
    for compatibility and has no effect.
    """
    inv = np.asarray(inv_block, dtype=np.float64)
    size = np.size(w_block)
    if inv.shape != (size, size):
        raise ValueError(f"inverse block shape {inv.shape} does not match {size} weights")
    w, pr, pin = _validate_inputs(w_block, prunable, pinned)
    with Spill() as spill:
        (solved,) = eliminate_blocks(w, [inv[None]], pr, pin, spill=spill)
        return solved.block(0)


def _validate_inputs(w, prunable, pinned):
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("weights must be a flat vector")
    if prunable is None:
        pr = np.ones(w.size, dtype=bool)
    else:
        pr = np.asarray(prunable, dtype=bool)
        if pr.shape != w.shape:
            raise ValueError("prunable mask shape does not match weights")
    return w, pr, pinned_mask(pinned, pr)


def pinned_mask(pinned: Sequence[int] | None, prunable: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``pinned`` global indices; each must be prunable."""
    pin = np.zeros(prunable.size, dtype=bool)
    if pinned is not None:
        pin[np.asarray(pinned, dtype=np.int64)] = True
        if np.any(pin & ~prunable):
            raise ValueError("pinned indices must be prunable")
    return pin


def _records(passes: list[PassTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Global index and cumulative cost of every recorded step, block by
    block in weight order, each block's steps in elimination order."""
    gidx, cost = [], []
    for p in passes:
        recorded = np.arange(p.order.shape[1]) < p.steps[:, None]
        gidx.append((p.order + p.starts[:, None])[recorded])
        cost.append(p.cumulative[recorded])
    return np.concatenate(gidx), np.concatenate(cost)


def _assemble(
    w: np.ndarray, passes: list[PassTrace], take: np.ndarray, pruned: np.ndarray,
    layout: tuple[LayerLayout, ...], pools: Sequence[Pool],
) -> PruneResult:
    """The result of taking the first ``take[b]`` recorded steps of every
    block b; ``pruned`` holds the global indices of those steps."""
    new_w = w.copy()
    mask = np.ones(w.size, dtype=np.uint8)
    mask[pruned] = 0
    costs = np.zeros(take.size)
    first = 0
    for p in passes:
        nb, bs = p.final.shape
        tb = take[first : first + nb]
        out = new_w[p.offset : p.offset + nb * bs].reshape(nb, bs)
        some = tb > 0
        done = some & (tb == p.steps)
        out[done] = p.final[done]
        for b in np.flatnonzero(some & ~done):
            p.state(b, tb[b] - 1, out[b])
        costs[first : first + nb][some] = p.cumulative[some, tb[some] - 1]
        first += nb

    starts = np.concatenate([p.starts for p in passes])
    ends = starts + np.repeat([p.final.shape[1] for p in passes], [len(p.steps) for p in passes])
    lay_lo = np.array([lay.offset for lay in layout])
    lay_hi = lay_lo + [lay.size for lay in layout]
    layer = np.minimum(np.searchsorted(lay_hi, starts, side="right"), len(layout) - 1)
    outside = (starts < lay_lo[layer]) | (ends > lay_hi[layer])
    if outside.any():
        b = int(np.argmax(outside))
        raise ValueError(f"block [{starts[b]}, {ends[b]}) does not sit inside any layer")
    per_layer_pred, predicted = pooled_sums(starts, costs, layout, pools)
    return PruneResult.from_mask(mask, new_w, predicted, per_layer_pred, layout,
                                 _clamp_total(passes))


def solve_global(
    w: np.ndarray,
    inv: InverseStacks,
    k: int | Sequence[Pool],
    prunable: np.ndarray | None = None,
    pinned: Sequence[int] | None = None,
    layout: tuple[LayerLayout, ...] | None = None,
) -> PruneResult:
    """Prune the cheapest weights by cumulative block cost (see the module
    docstring): k of them over all weights, or, with ``k`` a sequence of
    pools that partition the weights and never split a block, each pool's
    k of its own. Every pinned index is pruned whenever its pool's k is at
    least the pool's pinned count. ``inv`` is a ``FisherBlockInverse`` or
    a stream of stacks (see ``eliminate_blocks``), frozen at every
    non-prunable weight (ValueError otherwise).
    """
    w, pr, pin = _validate_inputs(w, prunable, pinned)
    if np.ndim(k) == 0:
        total_prunable = int(pr.sum())
        if not 0 <= k <= total_prunable:
            raise ValueError(f"k={k} out of range; {total_prunable} weights are prunable")
        k = (Pool(0, w.size, k),)
    if layout is None:
        layout = _default_layout(w.size)

    with Spill() as spill:  # closed on every exit path
        passes = eliminate_blocks(w, inv, pr, pin, spill=spill)
        gidx, scores = _records(passes)
        steps = np.concatenate([p.steps for p in passes])
        block_ids = np.repeat(np.arange(steps.size), steps)
        rank = np.arange(block_ids.size) - np.repeat(np.cumsum(steps) - steps, steps)

        chosen = select_in_pools(gidx, scores, pin[gidx], k)
        take = np.bincount(block_ids[chosen], minlength=steps.size)

        # bug trap: the selected set inside each block must be a prefix of its
        # elimination order, otherwise reloading snapshot t is meaningless;
        # with take[b] records chosen in block b, that holds iff every chosen
        # record ranks below take[b]
        beyond = rank[chosen] >= take[block_ids[chosen]]
        if beyond.any():
            raise InternalSolverError(
                f"block {int(block_ids[chosen][beyond].min())}: "
                "selected set is not a prefix of the elimination order"
            )
        return _assemble(w, passes, take, gidx[chosen], layout, k)


def solve_nm(
    w: np.ndarray,
    inv: InverseStacks,
    n: int,
    m: int,
    prunable: np.ndarray | None = None,
    layout: tuple[LayerLayout, ...] | None = None,
) -> PruneResult:
    """Greedy elimination under an n-of-m pattern: every aligned group of m
    consecutive weights ends with exactly m-n mask zeros.

    A weight is skipped once its group reached the quota; groups whose
    prunable membership is below m-n reach a reduced quota (prunability
    wins). Requires every layer size and every block boundary to be a
    multiple of m so groups never straddle blocks or layers; each block
    boundary is checked before its stack is solved. ``inv`` is a
    ``FisherBlockInverse`` or a stream of stacks (see ``eliminate_blocks``),
    frozen at every non-prunable weight (ValueError otherwise).
    """
    if not (0 < n < m):
        raise ValueError(f"need 0 < n < m, got {n}:{m}")
    w, pr, _ = _validate_inputs(w, prunable, None)
    if layout is None:
        layout = _default_layout(w.size)
    for lay in layout:
        if lay.size % m:
            raise ValueError(
                f"layer {lay.name!r} has {lay.size} weights, not divisible by m={m}"
            )
    passes = eliminate_blocks(w, inv, pr, nm=(n, m))
    take = np.concatenate([p.steps for p in passes])
    pruned = _records(passes)[0]
    return _assemble(w, passes, take, pruned, layout, (Pool(0, w.size, pruned.size),))
