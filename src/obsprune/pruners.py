"""Pruning methods behind one entry, ``run_pruner``: gm, wf, ovit.

* ``gm``   global magnitude: zero the k smallest |w|, no compensation.
* ``wf``   frozen-curvature baseline: score every weight once from the
           initial block Fisher inverse, take the k smallest saliencies,
           apply each one's compensating update from that same frozen
           inverse, summed, with no re-elimination in between.
* ``ovit`` correlation-aware greedy: per-block one-at-a-time elimination
           with cumulative scores and a global merge (see ``solver``),
           optionally under an n:m pattern.

``run_pruner`` is the one entry for every method, target and pool. It
reaches its target in ``spec.recomputations`` sub-steps, each pinning the
zeros of the one before. Every sub-step flattens the layers, validates
``pinned`` and the target, and resolves the pools (see ``pools``) once;
per-layer mode differs from global mode in nothing else. A sub-step that
would prune only pins whose weights are already zero returns the pins
there, before any rows are made. One stream of block inverses covers
all layers (``layered_inverse_stacks``); it scans every layer's rows
before it builds any block, and it is frozen at the non-prunable
weights (see ``fisher``). ``ovit`` hands it straight
to the solver, so it never holds the whole inverse, and ``wf`` keeps every
stack, scores from their diagonals and compensates with one batched
product per stack. The rows are held by those streams alone: given a
provider, a sub-step makes its rows inside the prune and drops its
reference once the streams are made, so rows that no caller holds are
freed once their layer's last stack is built. Factored rows (the toy's)
are formed only a sub-batch at a time by the build, on the solver's
workers for ``ovit``, and a chunk of rows at a time by ``gm``'s
``loss_increase``.
All methods respect prunability masks. ``pinned`` indices are pruned
unconditionally (used to keep masks monotone across repeated pruning).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import obs_core
from .fisher import EPS_FLOOR, FisherConfig, check_finite_rows, iter_block_inverses
from .pools import LayerLayout, Pool, pooled_sums, select_in_pools
from .solver import PruneResult, pinned_mask, solve_global, solve_nm
from .tensorstore import GradientSet

METHODS = ("gm", "wf", "ovit")

WeightMap = Mapping[str, np.ndarray]
GradMap = Mapping[str, GradientSet]


@dataclass(frozen=True)
class PrunerSpec:
    """What to prune with: method, Fisher hyperparameters, optional n:m
    pattern, recomputation sub-steps, and layer-local vs global selection.
    An n:m pattern needs ``ovit``, global selection and one sub-step;
    ValueError otherwise. ``threads`` is accepted for compatibility and
    has no effect."""

    method: str
    fisher: FisherConfig = FisherConfig()
    nm: tuple[int, int] | None = None
    recomputations: int = 1
    per_layer: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.recomputations < 1:
            raise ValueError("recomputations must be >= 1")
        if self.nm is not None:
            n, m = self.nm
            if not 0 < n < m:
                raise ValueError(f"need 0 < n < m for an n:m pattern, got {n}:{m}")
            if self.method != "ovit":
                raise ValueError("n:m patterns are only supported by the ovit method")
            if self.per_layer:
                raise ValueError("an n:m pattern has no per-layer mode")
            if self.recomputations != 1:
                raise ValueError("an n:m pattern takes no recomputation sub-steps")


def sparsity_to_k(sparsity: float, prunable_count: int) -> int:
    """Target zero count: floor(s*P + 0.5), i.e. round-half-up."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    return min(prunable_count, int(math.floor(sparsity * prunable_count + 0.5)))


# -- layer plumbing ----------------------------------------------------------

def flatten_layers(
    weights: WeightMap, prunable: Mapping[str, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, tuple[LayerLayout, ...]]:
    """Concatenate layers (mapping order, row-major) into one flat vector."""
    parts, pr_parts, layout = [], [], []
    offset = 0
    for name, arr in weights.items():
        arr = np.asarray(arr)
        flat = arr.reshape(-1).astype(np.float64)
        parts.append(flat)
        if prunable is not None and name in prunable and prunable[name] is not None:
            p = np.asarray(prunable[name]).reshape(-1).astype(bool)
            if p.size != flat.size:
                raise ValueError(f"prunable mask for {name!r} has wrong size")
        else:
            p = np.ones(flat.size, dtype=bool)
        pr_parts.append(p)
        layout.append(LayerLayout(name, offset, flat.size, tuple(arr.shape)))
        offset += flat.size
    if not parts:
        raise ValueError("no layers to prune")
    return np.concatenate(parts), np.concatenate(pr_parts), tuple(layout)


def split_by_layer(vec: np.ndarray, layout: Sequence[LayerLayout]) -> dict[str, np.ndarray]:
    """Cut a global vector back into per-layer arrays with original shapes."""
    out = {}
    for lay in layout:
        out[lay.name] = np.asarray(vec)[lay.offset : lay.offset + lay.size].reshape(lay.shape)
    return out


def _check_grads(grads: GradMap, layout: Sequence[LayerLayout]) -> None:
    """Every layer has a gradient set of its width."""
    for lay in layout:
        if lay.name not in grads:
            raise ValueError(f"no gradient set for layer {lay.name!r}")
        gs = grads[lay.name]
        if gs.dim != lay.size:
            raise ValueError(
                f"gradient rows for {lay.name!r} have width {gs.dim}, "
                f"layer has {lay.size} weights"
            )


def layered_inverse_stacks(
    grads: GradMap, layout: Sequence[LayerLayout], config: FisherConfig, movable: np.ndarray
) -> Iterator[np.ndarray]:
    """Every layer's block-inverse stacks, in weight order, frozen outside
    the global flat ``movable`` mask; blocks never span layers. Every
    layer's rows are validated before any block is built."""
    streams = [
        iter_block_inverses(grads[lay.name], config, movable[lay.offset : lay.offset + lay.size])
        for lay in layout
    ]
    return itertools.chain.from_iterable(streams)


# -- methods -----------------------------------------------------------------

def _prune_frozen(
    spec: PrunerSpec, w: np.ndarray, pr: np.ndarray, pin: np.ndarray, pools: Sequence[Pool],
    layout: tuple[LayerLayout, ...], grads: GradMap | None, stacks: Iterator[np.ndarray] | None,
) -> PruneResult:
    """gm and wf (see the module docstring): score every prunable weight
    once and select in every pool. wf's costs are its selected scores; gm's
    cost per layer is the quadratic model's when gradient rows are given,
    else 0."""
    if spec.method == "wf":
        stacks = list(stacks)
        diag = np.maximum(np.concatenate([np.diagonal(s, axis1=1, axis2=2) for s in stacks],
                                         axis=None), EPS_FLOOR)
        scores = w**2 / (2.0 * diag)
    else:
        scores = np.abs(w)
    idx = np.flatnonzero(pr)
    selected = np.sort(idx[select_in_pools(idx, scores[idx], pin[idx], pools)])

    new_w = w.copy()
    if spec.method == "wf":
        # zero outside the selection, so one product per stack sums every
        # block's selected updates
        coef = np.zeros(w.size)
        coef[selected] = w[selected] / diag[selected]
        lo = 0
        for stack in stacks:
            nb, bs, _ = stack.shape
            sl = slice(lo, lo + nb * bs)
            new_w[sl] -= np.matmul(stack, coef[sl].reshape(nb, bs, 1)).reshape(-1)
            lo = sl.stop
        new_w[selected] = 0.0
        per_layer, predicted = pooled_sums(selected, scores[selected], layout, pools)
    else:
        new_w[selected] = 0.0
        costs = np.zeros(len(layout))
        for i, lay in enumerate(layout if grads is not None else ()):
            sl = slice(lay.offset, lay.offset + lay.size)
            check_finite_rows(grads[lay.name])  # every row, used or not, as wf and ovit
            rows = grads[lay.name].head(spec.fisher.num_grads)
            costs[i] = obs_core.loss_increase(w[sl], new_w[sl], rows, spec.fisher.dampening)
        per_layer, predicted = pooled_sums([lay.offset for lay in layout], costs, layout, pools)

    mask = np.ones(w.size, dtype=np.uint8)
    mask[selected] = 0
    return PruneResult.from_mask(mask, new_w, predicted, per_layer, layout)


def _pools(
    spec: PrunerSpec, layout: Sequence[LayerLayout], pr: np.ndarray, pin: np.ndarray,
    sparsity: float,
) -> list[Pool]:
    """One pool over all weights, or one per layer in per-layer mode, each
    with max(sparsity_to_k(sparsity, P), pinned count) zeros over its P
    prunable weights."""
    ranges = ([(lay.offset, lay.offset + lay.size) for lay in layout] if spec.per_layer
              else [(0, pr.size)])
    return [Pool(lo, hi, max(sparsity_to_k(sparsity, int(pr[lo:hi].sum())),
                             int(pin[lo:hi].sum())))
            for lo, hi in ranges]


# -- the entry ---------------------------------------------------------------

GradProvider = Callable[[WeightMap], GradMap]


def run_pruner(
    spec: PrunerSpec,
    weights,
    grads: GradMap | GradProvider | None = None,
    *,
    sparsity: float | None = None,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """Prune ``weights`` with the configured method.

    Exactly one of ``sparsity`` or ``spec.nm`` chooses the target;
    ``spec.per_layer`` applies ``sparsity`` to every layer as its own pool
    instead of to one global pool. ``grads`` maps every layer to its
    gradient set, or is a provider that makes that map from the weights
    a sub-step starts at.

    The target is reached in R = ``spec.recomputations`` sub-steps (an n:m
    pattern takes one; see ``PrunerSpec``). Sub-step t targets
    s_t = 1 - (1-s)^(t/R) (geometric keep-ratio decay), counted from zero
    rather than from the sparsity the pins already reach; it pins the zeros
    of the sub-step before it and builds its inverse from the rows
    ``grads`` gives at its weights. Predicted increases and clamp counts
    are summed over sub-steps. Every sub-step validates ``pinned``, the
    target and every layer's gradient set, its rows included, before any
    inverse is built.
    A sub-step with at least one pin whose target resolves to the pinned
    count in every pool, while every pinned weight is already exactly 0,
    stops once its pools are resolved: no provider call, no inverse, no
    solve and so no clamp warning, and its result is the pins' mask and
    the weights, each pin written as +0.0.
    """
    if (sparsity is None) == (spec.nm is None):
        raise ValueError("need one target: a sparsity and an n:m pattern are mutually exclusive")
    r = spec.recomputations
    provide = grads if callable(grads) else lambda _w: grads
    wmap = {"weights": weights} if isinstance(weights, np.ndarray) else weights
    pinned = np.asarray(pinned, dtype=np.int64)
    result: PruneResult | None = None
    for t in range(1, r + 1):
        if result is not None:  # the sub-step starts from the last one's weights and zeros
            wmap = split_by_layer(result.new_weights, result.layout)
            pinned = np.flatnonzero(result.mask == 0)
        s_t = sparsity if t == r else 1.0 - (1.0 - sparsity) ** (t / r)
        step = _prune_step(spec, wmap, provide, s_t, prunable, pinned)
        if step.mask[pinned].any():
            raise AssertionError("mask monotonicity violated across sub-steps")
        if result is not None:
            step.predicted_loss_increase += result.predicted_loss_increase
            step.clamp_events += result.clamp_events
            for name, val in result.per_layer_predicted.items():
                step.per_layer_predicted[name] += val
        result = step
    return result


def _prune_step(
    spec: PrunerSpec, weights: WeightMap, provide: GradProvider, sparsity: float | None,
    prunable: Mapping[str, np.ndarray] | None, pinned: np.ndarray,
) -> PruneResult:
    """One sub-step of ``run_pruner``, on the rows ``provide(weights)``
    makes once the target and the pools are resolved. No frame but the
    build's streams holds them, so a provider's rows are freed once their
    layer's last stack is built. Passing the rows themselves would not do:
    CPython 3.10 keeps a call's arguments alive in the caller's frame until
    the call returns. A sub-step that would prune only its pins
    (``_pins_only``) returns them before ``provide`` is called."""
    w, pr, layout = flatten_layers(weights, prunable)
    pin = pinned_mask(pinned, pr)
    cfg = spec.fisher
    if spec.nm is not None:
        if pin.any():
            raise ValueError("an n:m pattern takes no pinned indices")
        m = spec.nm[1]
        if cfg.block_size % m:
            rounded = max(m, (cfg.block_size // m) * m)
            warnings.warn(
                f"block size {cfg.block_size} is not a multiple of m={m}; using {rounded}",
                stacklevel=3,
            )
            cfg = replace(cfg, block_size=rounded)
    else:
        pools = _pools(spec, layout, pr, pin, sparsity)
        if pin.any() and _pins_only(w, pin, pools):
            w[pin] = 0.0  # a -0.0 pin comes out as the +0.0 that a prune writes
            return PruneResult.from_mask((~pin).astype(np.uint8), w, 0.0,
                                         dict.fromkeys((lay.name for lay in layout), 0.0), layout)
    grads = provide(weights)
    stacks = None
    if spec.method != "gm":
        if grads is None:
            raise ValueError(f"method {spec.method!r} needs gradient rows")
        _check_grads(grads, layout)
        stacks = layered_inverse_stacks(grads, layout, cfg, pr)
        grads = None  # the streams hold the rows from here on
    if spec.nm is not None:
        return solve_nm(w, stacks, *spec.nm, prunable=pr, layout=layout)
    if spec.method == "ovit":
        return solve_global(w, stacks, pools, prunable=pr, pinned=np.flatnonzero(pin),
                            layout=layout)
    return _prune_frozen(spec, w, pr, pin, pools, layout, grads, stacks)


def _pins_only(w: np.ndarray, pin: np.ndarray, pools: Sequence[Pool]) -> bool:
    """Whether a sub-step would prune only its pins: every pool's k is its
    pinned count and every pinned weight is already exactly 0."""
    return not np.any(w[pin] != 0.0) and all(
        p.k == np.count_nonzero(pin[p.lo : p.hi]) for p in pools)
