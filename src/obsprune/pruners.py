"""Pruning methods behind one entry, ``run_pruner``: gm, wf, ovit.

* ``gm``   global magnitude: zero the k smallest |w|, no compensation.
* ``wf``   frozen-curvature baseline: score every weight once from the
           initial block Fisher inverse, take the k smallest saliencies,
           apply each one's compensating update from that same frozen
           inverse, summed, with no re-elimination in between.
* ``ovit`` correlation-aware greedy: per-block one-at-a-time elimination
           with cumulative scores and a global merge (see ``solver``),
           optionally under an n:m pattern.

``run_pruner`` flattens the layers, validates ``pinned`` and the target,
and resolves the pools once per call (see ``pools``); per-layer mode
differs from global mode in nothing else. ``prune_with_recompute``
reaches a sparsity in several ``run_pruner`` calls, and skips a sub-step
that would prune only pins whose weights are already zero. One stream of
block inverses covers all layers (``layered_inverse_stacks``); it scans
every layer's rows before it builds any block, and it is frozen at the
non-prunable weights (see ``fisher``). ``ovit`` hands it straight to the
solver, so it never holds the whole inverse, and ``wf`` keeps every
stack, scores from their diagonals and compensates with one batched
product per stack. The rows are held by those streams alone
(``_run_pruner`` takes a provider, not the rows, and drops its reference
once the streams are made), so rows that no caller holds are freed, and
read-only mapped rows released, once their layer's last stack is built;
``prune_with_recompute`` makes each sub-step's rows inside its prune.
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
from .fisher import EPS_FLOOR, FisherConfig, iter_block_inverses
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

def _as_map(weights) -> WeightMap:
    if isinstance(weights, np.ndarray):
        return {"weights": weights}
    return weights


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
    once and select in every pool. wf's costs are its selected scores, each
    pool's summed pairwise (``np.sum``); gm's cost per layer is the
    quadratic model's when gradient rows are given, else 0."""
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
        per_layer, predicted = pooled_sums(selected, scores[selected], layout, pools,
                                           lambda v: float(v.sum()))
    else:
        new_w[selected] = 0.0
        costs = np.zeros(len(layout))
        for i, lay in enumerate(layout if grads is not None else ()):
            sl = slice(lay.offset, lay.offset + lay.size)
            rows = grads[lay.name].samples[: spec.fisher.num_grads]
            costs[i] = obs_core.loss_increase(w[sl], new_w[sl], rows, spec.fisher.dampening)
        per_layer, predicted = pooled_sums([lay.offset for lay in layout], costs, layout, pools)

    mask = np.ones(w.size, dtype=np.uint8)
    mask[selected] = 0
    return PruneResult.from_mask(mask, new_w, predicted, per_layer, layout)


def _pools(
    spec: PrunerSpec, layout: Sequence[LayerLayout], pr: np.ndarray, pin: np.ndarray,
    sparsity: float | None, k: int | None,
) -> list[Pool]:
    """One pool over all weights, or one per layer in per-layer mode (which
    needs a sparsity), each with ``k`` zeros or max(sparsity_to_k(sparsity,
    P), pinned count) over its P prunable weights."""
    if spec.per_layer and sparsity is None:
        raise ValueError("per-layer mode needs a sparsity target")
    ranges = ([(lay.offset, lay.offset + lay.size) for lay in layout] if spec.per_layer
              else [(0, pr.size)])
    pools = []
    for lo, hi in ranges:
        total, n_pinned = int(pr[lo:hi].sum()), int(pin[lo:hi].sum())
        pool_k = max(sparsity_to_k(sparsity, total), n_pinned) if k is None else k
        if not 0 <= pool_k <= total:
            raise ValueError(f"k={pool_k} out of range; {total} weights are prunable")
        if n_pinned > pool_k:
            raise ValueError(f"{n_pinned} pinned indices exceed k={pool_k}")
        pools.append(Pool(lo, hi, pool_k))
    return pools


# -- the entry ---------------------------------------------------------------

def run_pruner(
    spec: PrunerSpec,
    weights,
    grads: GradMap | None = None,
    *,
    sparsity: float | None = None,
    k: int | None = None,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """Prune ``weights`` with the configured method.

    Exactly one of ``sparsity``, ``k`` or ``spec.nm`` chooses the target;
    ``spec.per_layer`` applies ``sparsity`` to every layer as its own pool
    instead of to one global pool. Layers are flattened, and ``pinned``,
    the target and every layer's gradient set, its rows included, are
    validated, once per call and before any inverse is built. Read-only
    rows in a container mapping have their pages released once the build
    has read them (see ``tensorstore``).
    """
    return _run_pruner(spec, weights, None if grads is None else lambda: grads,
                       sparsity=sparsity, k=k, prunable=prunable, pinned=pinned)


def _run_pruner(
    spec: PrunerSpec,
    weights,
    provide: Callable[[], GradMap] | None,
    *,
    sparsity: float | None = None,
    k: int | None = None,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """``run_pruner`` on the rows ``provide()`` makes. No frame but the
    build's streams holds them, so a caller that keeps no reference to
    them frees each layer's rows once its last stack is built. Passing the
    rows themselves would not do: CPython 3.10 keeps a call's arguments
    alive in the caller's frame until the call returns."""
    w, pr, layout = flatten_layers(_as_map(weights), prunable)
    pin = pinned_mask(pinned, pr)
    grads = None if provide is None else provide()
    if spec.method != "gm":
        if grads is None:
            raise ValueError(f"method {spec.method!r} needs gradient rows")
        _check_grads(grads, layout)
    cfg = spec.fisher
    if spec.nm is not None:
        if sparsity is not None or k is not None:
            raise ValueError("an n:m pattern and a sparsity/k target are mutually exclusive")
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
    elif (sparsity is None) == (k is None):
        raise ValueError("exactly one of sparsity or k is required")
    else:
        pools = _pools(spec, layout, pr, pin, sparsity, k)
    stacks = None
    if spec.method != "gm":
        stacks = layered_inverse_stacks(grads, layout, cfg, pr)
        grads = None  # the streams hold the rows from here on
    if spec.nm is not None:
        return solve_nm(w, stacks, *spec.nm, prunable=pr, layout=layout)
    if spec.method == "ovit":
        return solve_global(w, stacks, pools, prunable=pr, pinned=np.flatnonzero(pin),
                            layout=layout)
    return _prune_frozen(spec, w, pr, pin, pools, layout, grads, stacks)


GradProvider = Callable[[WeightMap], GradMap]


def _pins_only(
    spec: PrunerSpec,
    weights: WeightMap,
    prunable: Mapping[str, np.ndarray] | None,
    pinned: np.ndarray,
    sparsity: float,
) -> PruneResult | None:
    """What ``run_pruner`` returns when ``sparsity`` resolves to the pinned
    count in every pool and every pinned weight is already exactly 0: the
    pins' mask, the weights unchanged and a predicted increase of 0.0. None
    when the prune would do more than that."""
    w, pr, layout = flatten_layers(weights, prunable)
    pin = pinned_mask(pinned, pr)
    pools = _pools(spec, layout, pr, pin, sparsity, None)
    if np.any(w[pin] != 0.0) or any(p.k > np.count_nonzero(pin[p.lo : p.hi]) for p in pools):
        return None
    w[pin] = 0.0  # a -0.0 pin comes out as the +0.0 that a prune writes
    return PruneResult.from_mask((~pin).astype(np.uint8), w, 0.0,
                                 dict.fromkeys((lay.name for lay in layout), 0.0), layout)


def prune_with_recompute(
    spec: PrunerSpec,
    weights,
    grad_provider: GradProvider,
    sparsity: float,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """Reach ``sparsity`` in ``spec.recomputations`` sub-steps.

    Sub-step t of R targets s_t = 1 - (1-s)^(t/R) (geometric keep-ratio
    decay), counted from zero rather than from the sparsity the pins
    already reach, and rebuilds the Fisher inverse from gradients the
    provider produces at the current weights. Masks are monotone: every
    sub-step pins the zeros of the previous one. A sub-step whose target
    resolves to the pinned count in every pool while every pinned weight is
    already exactly 0 would prune only the pins and move no weight, so it
    is skipped: no provider call, no inverse and no solve, and so no clamp
    warning; if it is the last one, the result is the pins' mask and the
    unchanged weights. The reported predicted increase is the sum over
    sub-steps.
    """
    if spec.nm is not None:
        raise ValueError("recomputation sub-steps apply to sparsity targets, not n:m")
    wmap = {k_: np.asarray(v, dtype=np.float64).copy() for k_, v in _as_map(weights).items()}
    r = spec.recomputations
    step_spec = replace(spec, recomputations=1)
    acc_pinned = np.asarray(pinned, dtype=np.int64)
    total_pred = 0.0
    total_clamps = 0
    per_layer_pred = dict.fromkeys(wmap, 0.0)
    result: PruneResult | None = None
    for t in range(1, r + 1):
        s_t = 1.0 - (1.0 - sparsity) ** (t / r)
        if t == r:
            s_t = sparsity  # exact final target, no float drift
        result = _pins_only(step_spec, wmap, prunable, acc_pinned, s_t)
        if result is None:
            # the rows are made inside the prune, so its build holds them alone
            result = _run_pruner(
                step_spec, wmap, lambda: grad_provider(wmap),
                sparsity=s_t, prunable=prunable, pinned=acc_pinned,
            )
        total_pred += result.predicted_loss_increase
        total_clamps += result.clamp_events
        for name, val in result.per_layer_predicted.items():
            per_layer_pred[name] += val
        if result.mask[acc_pinned].any():
            raise AssertionError("mask monotonicity violated across sub-steps")
        acc_pinned = np.flatnonzero(result.mask == 0)
        wmap = split_by_layer(result.new_weights, result.layout)
    assert result is not None
    result.predicted_loss_increase = total_pred
    result.per_layer_predicted = per_layer_pred
    result.clamp_events = total_clamps
    return result
