"""Pruning methods behind one interface: gm, wf, ovit.

* ``gm``   global magnitude: zero the k smallest |w|, no compensation.
* ``wf``   frozen-curvature baseline: score every weight once from the
           initial block Fisher inverse, take the k smallest saliencies,
           apply each one's compensating update from that same frozen
           inverse, summed, with no re-elimination in between.
* ``ovit`` correlation-aware greedy: per-block one-at-a-time elimination
           with cumulative scores and a global merge (see ``solver``),
           optionally under an n:m pattern.

All methods share the weight indexing convention (layers concatenated in
mapping order, each flattened row-major), respect prunability masks, and
break score ties by global index. ``pinned`` indices are pruned
unconditionally (used to keep masks monotone across repeated pruning).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import obs_core
from .fisher import (
    DAMPENING_DEFAULTS,
    EPS_FLOOR,
    FisherBlockInverse,
    FisherConfig,
    build_fisher_inverse,
    concat_inverses,
    freeze_indices,
)
from .solver import LayerLayout, PruneResult, solve_global, solve_nm
from .tensorstore import GradientSet

METHODS = ("gm", "wf", "ovit")

WeightMap = Mapping[str, np.ndarray]
GradMap = Mapping[str, GradientSet]


@dataclass(frozen=True)
class PrunerSpec:
    """What to prune with: method, Fisher hyperparameters, optional n:m
    pattern, recomputation sub-steps, and layer-local vs global selection.
    ``threads`` is accepted for compatibility and has no effect."""

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


def default_spec(method: str, **overrides) -> PrunerSpec:
    """PrunerSpec with the method's default dampening unless overridden."""
    fisher = overrides.pop("fisher", None)
    if fisher is None:
        fisher = FisherConfig(dampening=DAMPENING_DEFAULTS[method])
    return PrunerSpec(method=method, fisher=fisher, **overrides)


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


def build_layered_inverse(
    grads: GradMap, layout: Sequence[LayerLayout], config: FisherConfig
) -> FisherBlockInverse:
    """Per-layer block inverses, concatenated; blocks never span layers."""
    parts = []
    for lay in layout:
        if lay.name not in grads:
            raise ValueError(f"no gradient set for layer {lay.name!r}")
        gs = grads[lay.name]
        if gs.dim != lay.size:
            raise ValueError(
                f"gradient rows for {lay.name!r} have width {gs.dim}, "
                f"layer has {lay.size} weights"
            )
        parts.append(build_fisher_inverse(gs, config))
    return concat_inverses(parts)


def _cap_rows(gs: GradientSet, config: FisherConfig) -> np.ndarray:
    return gs.samples[: min(config.num_grads, gs.num_samples)]


def _selection_topk(
    scores: np.ndarray,
    eligible: np.ndarray,
    pinned: np.ndarray,
    k: int,
) -> np.ndarray:
    """k global indices: all pinned, then smallest (score, index) eligible."""
    pin_idx = np.flatnonzero(pinned)
    if pin_idx.size > k:
        raise ValueError(f"{pin_idx.size} pinned indices exceed k={k}")
    rest = np.flatnonzero(eligible & ~pinned)
    order = rest[np.lexsort((rest, scores[rest]))][: k - pin_idx.size]
    return np.sort(np.concatenate([pin_idx, order]))


def _finish(
    w: np.ndarray,
    new_w: np.ndarray,
    selected: np.ndarray,
    predicted: float,
    per_layer_predicted: dict[str, float],
    layout: tuple[LayerLayout, ...],
) -> PruneResult:
    mask = np.ones(w.size, dtype=np.uint8)
    mask[selected] = 0
    new_w = new_w.copy()
    new_w[selected] = 0.0
    sparsity = {
        lay.name: float(np.count_nonzero(mask[lay.offset : lay.offset + lay.size] == 0))
        / lay.size
        for lay in layout
    }
    return PruneResult(
        mask=mask,
        new_weights=new_w,
        predicted_loss_increase=float(predicted),
        per_layer_sparsity=sparsity,
        per_layer_predicted=per_layer_predicted,
        layout=layout,
    )


# -- methods -----------------------------------------------------------------

def prune_gm(
    weights,
    k: int,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """Zero the k smallest-magnitude prunable weights; no compensation."""
    w, pr, layout = flatten_layers(_as_map(weights), prunable)
    pin = np.zeros(w.size, dtype=bool)
    if len(pinned):
        pin[np.asarray(list(pinned), dtype=np.int64)] = True
        if np.any(pin & ~pr):
            raise ValueError("pinned indices must be prunable")
    total = int(pr.sum())
    if not 0 <= k <= total:
        raise ValueError(f"k={k} out of range; {total} weights are prunable")
    selected = _selection_topk(np.abs(w), pr, pin, k)
    per_layer_pred = {lay.name: 0.0 for lay in layout}
    return _finish(w, w, selected, 0.0, per_layer_pred, layout)


def prune_wf(
    weights,
    grads: GradMap,
    k: int,
    spec: PrunerSpec,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """Frozen-inverse baseline: one scoring pass, independent summed updates."""
    w, pr, layout = flatten_layers(_as_map(weights), prunable)
    pin = np.zeros(w.size, dtype=bool)
    if len(pinned):
        pin[np.asarray(list(pinned), dtype=np.int64)] = True
        if np.any(pin & ~pr):
            raise ValueError("pinned indices must be prunable")
    total = int(pr.sum())
    if not 0 <= k <= total:
        raise ValueError(f"k={k} out of range; {total} weights are prunable")

    inv = build_layered_inverse(grads, layout, spec.fisher)
    if not pr.all():
        inv = freeze_indices(inv, np.flatnonzero(~pr))
    diag = np.maximum(inv.diagonal(), EPS_FLOOR)
    rho = w**2 / (2.0 * diag)
    selected = _selection_topk(rho, pr, pin, k)

    new_w = w.copy()
    sel_mask = np.zeros(w.size, dtype=bool)
    sel_mask[selected] = True
    for b in range(inv.num_blocks):
        lo, hi = int(inv.offsets[b]), int(inv.offsets[b + 1])
        local = np.flatnonzero(sel_mask[lo:hi])
        if local.size == 0:
            continue
        blk = inv.blocks[b]
        coef = w[lo + local] / diag[lo + local]
        new_w[lo:hi] -= blk[:, local] @ coef

    predicted = float(rho[selected].sum())
    per_layer_pred = {
        lay.name: float(rho[selected[(selected >= lay.offset)
                                     & (selected < lay.offset + lay.size)]].sum())
        for lay in layout
    }
    return _finish(w, new_w, selected, predicted, per_layer_pred, layout)


def prune_ovit(
    weights,
    grads: GradMap,
    spec: PrunerSpec,
    k: int | None = None,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """Greedy correlation-aware pruning; k-target or n:m pattern."""
    w, pr, layout = flatten_layers(_as_map(weights), prunable)
    cfg = spec.fisher
    if spec.nm is not None:
        if k is not None:
            raise ValueError("an n:m pattern and a global k are mutually exclusive")
        n, m = spec.nm
        if cfg.block_size % m:
            rounded = max(m, (cfg.block_size // m) * m)
            warnings.warn(
                f"block size {cfg.block_size} is not a multiple of m={m}; using {rounded}",
                stacklevel=2,
            )
            cfg = replace(cfg, block_size=rounded)
        inv = build_layered_inverse(grads, layout, cfg)
        return solve_nm(w, inv, n, m, prunable=pr, threads=spec.threads, layout=layout)
    if k is None:
        raise ValueError("either k or an n:m pattern is required")
    inv = build_layered_inverse(grads, layout, cfg)
    return solve_global(
        w, inv, k, prunable=pr, pinned=pinned, threads=spec.threads, layout=layout
    )


# -- uniform dispatch --------------------------------------------------------

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
    """Dispatch to the configured method with uniform target handling.

    Exactly one of ``sparsity``, ``k`` or ``spec.nm`` chooses the target.
    For gm the predicted increase is evaluated from the quadratic model
    when gradient rows are available (gm assigns no scores of its own).
    """
    wmap = _as_map(weights)
    if spec.nm is not None:
        if sparsity is not None or k is not None:
            raise ValueError("an n:m pattern and a sparsity/k target are mutually exclusive")
        if spec.method != "ovit":
            raise ValueError("n:m patterns are only supported by the ovit method")
        if grads is None:
            raise ValueError("ovit needs gradient rows")
        return prune_ovit(wmap, grads, spec, prunable=prunable)

    if spec.per_layer:
        if sparsity is None:
            raise ValueError("per-layer mode needs a sparsity target")
        return _run_per_layer(spec, wmap, grads, sparsity, prunable, pinned)

    _, pr, layout = flatten_layers(wmap, prunable)
    if (sparsity is None) == (k is None):
        raise ValueError("exactly one of sparsity or k is required")
    if k is None:
        k = sparsity_to_k(sparsity, int(pr.sum()))

    if spec.method == "gm":
        w_flat, _, _ = flatten_layers(wmap, prunable)
        result = prune_gm(wmap, k, prunable, pinned)
        if grads is not None:
            total = 0.0
            for lay in layout:
                sl = slice(lay.offset, lay.offset + lay.size)
                rows = _cap_rows(grads[lay.name], spec.fisher)
                val = obs_core.loss_increase(
                    w_flat[sl], result.new_weights[sl], rows, spec.fisher.dampening
                )
                result.per_layer_predicted[lay.name] = val
                total += val
            result.predicted_loss_increase = total
        return result
    if grads is None:
        raise ValueError(f"method {spec.method!r} needs gradient rows")
    if spec.method == "wf":
        return prune_wf(wmap, grads, k, spec, prunable, pinned)
    return prune_ovit(wmap, grads, spec, k=k, prunable=prunable, pinned=pinned)


def _run_per_layer(
    spec: PrunerSpec,
    wmap: WeightMap,
    grads: GradMap | None,
    sparsity: float,
    prunable: Mapping[str, np.ndarray] | None,
    pinned: Sequence[int],
) -> PruneResult:
    """Uniform per-layer targets: each layer pruned independently at s."""
    _, _, layout = flatten_layers(wmap, prunable)
    pinned = np.asarray(list(pinned), dtype=np.int64)
    flat_spec = replace(spec, per_layer=False)
    masks, news, preds, pred_by_layer, spars, clamps = [], [], 0.0, {}, {}, 0
    for lay in layout:
        sub_w = {lay.name: wmap[lay.name]}
        sub_pr = None
        if prunable is not None and lay.name in prunable:
            sub_pr = {lay.name: prunable[lay.name]}
        sub_pin = pinned[(pinned >= lay.offset) & (pinned < lay.offset + lay.size)] - lay.offset
        sub_grads = None if grads is None else {lay.name: grads[lay.name]}
        res = run_pruner(
            flat_spec, sub_w, sub_grads,
            sparsity=sparsity, prunable=sub_pr, pinned=sub_pin.tolist(),
        )
        masks.append(res.mask)
        news.append(res.new_weights)
        preds += res.predicted_loss_increase
        pred_by_layer[lay.name] = res.predicted_loss_increase
        spars[lay.name] = res.per_layer_sparsity[lay.name]
        clamps += res.clamp_events
    return PruneResult(
        mask=np.concatenate(masks),
        new_weights=np.concatenate(news),
        predicted_loss_increase=preds,
        per_layer_sparsity=spars,
        per_layer_predicted=pred_by_layer,
        layout=layout,
        clamp_events=clamps,
    )


GradProvider = Callable[[WeightMap], GradMap]


def prune_with_recompute(
    spec: PrunerSpec,
    weights,
    grad_provider: GradProvider,
    sparsity: float,
    prunable: Mapping[str, np.ndarray] | None = None,
    pinned: Sequence[int] = (),
) -> PruneResult:
    """Reach ``sparsity`` in ``spec.recomputations`` sub-steps.

    Sub-step t targets s_t = 1 - (1-s)^(t/R) (geometric keep-ratio decay)
    and rebuilds the Fisher inverse from gradients the provider produces
    at the current weights. Masks are monotone: every sub-step pins the
    zeros of the previous one. The reported predicted increase is the sum
    over sub-steps.
    """
    if spec.nm is not None:
        raise ValueError("recomputation sub-steps apply to sparsity targets, not n:m")
    wmap = {k_: np.asarray(v, dtype=np.float64).copy() for k_, v in _as_map(weights).items()}
    _, pr, layout = flatten_layers(wmap, prunable)
    total_prunable = int(pr.sum())
    r = spec.recomputations
    step_spec = replace(spec, recomputations=1)
    acc_pinned = sorted(int(p) for p in pinned)
    total_pred = 0.0
    total_clamps = 0
    per_layer_pred = {lay.name: 0.0 for lay in layout}
    result: PruneResult | None = None
    for t in range(1, r + 1):
        s_t = 1.0 - (1.0 - sparsity) ** (t / r)
        if t == r:
            s_t = sparsity  # exact final target, no float drift
        k_t = max(sparsity_to_k(s_t, total_prunable), len(acc_pinned))
        grads = grad_provider(wmap)
        result = run_pruner(
            step_spec, wmap, grads,
            k=k_t, prunable=prunable, pinned=acc_pinned,
        )
        total_pred += result.predicted_loss_increase
        total_clamps += result.clamp_events
        for name, val in result.per_layer_predicted.items():
            per_layer_pred[name] += val
        new_zeros = np.flatnonzero(result.mask == 0)
        if not set(acc_pinned).issubset(set(new_zeros.tolist())):
            raise AssertionError("mask monotonicity violated across sub-steps")
        acc_pinned = new_zeros.tolist()
        wmap = split_by_layer(result.new_weights, layout)
    assert result is not None
    result.predicted_loss_increase = total_pred
    result.per_layer_predicted = per_layer_pred
    result.clamp_events = total_clamps
    return result

