"""Output checks computed apart from the program.

Each check takes the parsed outputs (containers read with ``ovpt``, stdout
text) and the benchmark's own inputs, and returns a list of failure
messages; an empty list means the output is correct. The costs are
recomputed here from the gradient rows:

    whole layer:      1/2 lam ||dw||^2 + 1/(2N) ||G dw||^2
    block-diagonal:   1/2 lam ||dw||^2 + 1/(2N) sum_b ||G_b dw_b||^2

where dw is the applied change and G_b are the columns of block b.
"""

from __future__ import annotations

import math

import numpy as np

DAMP = 1e-8  # the CLI's default dampening for ovit and eval
PREDICTED_RTOL = 1e-6
EVAL_RTOL = 1e-8
LOSS_RTOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stdout_value(text: str, first: str, field: str) -> float:
    """Value after ``field`` on the line whose first column is ``first``."""
    for line in text.splitlines():
        cols = line.split("\t")
        if cols and cols[0] == first and field in cols[1:-1]:
            return float(cols[cols.index(field, 1) + 1])
    raise ValueError(f"no {first!r} line with {field!r} in output")


def quad_cost(delta: np.ndarray, rows: np.ndarray, block_size: int | None = None) -> float:
    """Quadratic-model cost of ``delta``; block-diagonal when ``block_size`` is set."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if block_size is None:
        proj = rows @ delta
        return float(0.5 * DAMP * (delta @ delta) + (proj @ proj) / (2.0 * n))
    total = 0.5 * DAMP * float(delta @ delta)
    for lo in range(0, delta.size, block_size):
        proj = rows[:, lo:lo + block_size] @ delta[lo:lo + block_size]
        total += float(proj @ proj) / (2.0 * n)
    return total


def applied_change(inst, out_box) -> dict[str, np.ndarray]:
    return {
        key: out_box[f"layer.{key}.weight"].astype(np.float64).reshape(-1)
        - w.astype(np.float64).reshape(-1)
        for key, w in inst.weights.items()
    }


def block_costs(spec, inst, deltas: dict[str, np.ndarray]) -> float:
    """Block-diagonal cost of ``deltas`` over the rows the prune used."""
    return sum(
        quad_cost(deltas[key], inst.rows[key][:spec.num_grads], spec.block_size)
        for key in inst.weights
    )


def magnitude_reference(spec, inst) -> float:
    """Block-diagonal cost of uncompensated magnitude pruning to the same pattern."""
    flat = {k: w.astype(np.float64).reshape(-1) for k, w in inst.weights.items()}
    if spec.nm is not None:
        n, m = spec.nm
        drop = {}
        for key, w in flat.items():
            score = np.where(inst.prunable[key], np.abs(w), np.inf).reshape(-1, m)
            quota = np.minimum(m - n, inst.prunable[key].reshape(-1, m).sum(axis=1))
            rank = np.argsort(np.argsort(score, axis=1, kind="stable"), axis=1, kind="stable")
            drop[key] = (rank < quota[:, None]).reshape(-1)
    else:
        keys = list(flat)
        w_all = np.concatenate([flat[k] for k in keys])
        pr_all = np.concatenate([inst.prunable[k] for k in keys])
        cand = np.flatnonzero(pr_all)
        k_prune = round_half_up(spec.sparsity * cand.size)
        drop_all = np.zeros(w_all.size, dtype=bool)
        drop_all[cand[np.lexsort((cand, np.abs(w_all[cand])))[:k_prune]]] = True
        bounds = np.cumsum([0] + [flat[k].size for k in keys])
        drop = {k: drop_all[lo:hi] for k, lo, hi in zip(keys, bounds[:-1], bounds[1:])}
    return block_costs(spec, inst, {k: np.where(drop[k], -w, 0.0) for k, w in flat.items()})


def check_prune(spec, inst, out_box, prune_stdout: str,
                eval_stdout: str) -> tuple[list[str], float]:
    """All checks of a prune workload; returns (failures, block-diagonal cost)."""
    failures: list[str] = []
    zeros_total = 0
    for key, w_in in inst.weights.items():
        wname, mname = f"layer.{key}.weight", f"layer.{key}.mask"
        if wname not in out_box or mname not in out_box:
            return [f"layer {key}: weight or mask missing from output"], math.nan
        w_out, mask = out_box[wname], out_box[mname]
        if w_out.dtype != w_in.dtype or w_out.shape != w_in.shape or mask.shape != w_in.shape:
            return [f"layer {key}: output dtype or shape differs from input"], math.nan
        w_out, mask, w_in = w_out.reshape(-1), mask.reshape(-1), w_in.reshape(-1)
        pr = inst.prunable[key]
        if np.any(w_out[mask == 0] != 0):
            failures.append(f"layer {key}: a masked weight is not exactly 0")
        frozen = ~pr
        if np.any(mask[frozen] == 0) or w_out[frozen].tobytes() != w_in[frozen].tobytes():
            failures.append(f"layer {key}: a non-prunable weight was masked or moved")
        if spec.nm is not None:
            n, m = spec.nm
            zeros = (mask == 0).reshape(-1, m).sum(axis=1)
            want = np.minimum(m - n, pr.reshape(-1, m).sum(axis=1))
            if np.any(zeros != want):
                failures.append(f"layer {key}: {int(np.count_nonzero(zeros != want))} "
                                f"groups of {m} miss their zero count")
        zeros_total += int(np.count_nonzero(mask == 0))
    if spec.sparsity is not None:
        prunable = sum(int(p.sum()) for p in inst.prunable.values())
        want = round_half_up(spec.sparsity * prunable)
        if zeros_total != want:
            failures.append(f"{zeros_total} weights masked, want {want}")

    deltas = applied_change(inst, out_box)
    cost = block_costs(spec, inst, deltas)
    predicted = stdout_value(prune_stdout, "total", "predicted")
    if not _close(predicted, cost, PREDICTED_RTOL):
        failures.append(f"printed predicted {predicted!r} but the applied change "
                        f"costs {cost!r} block by block")
    whole = sum(quad_cost(deltas[key], inst.rows[key]) for key in inst.weights)
    evaluated = stdout_value(eval_stdout, "total", "predicted")
    if not _close(evaluated, whole, EVAL_RTOL):
        failures.append(f"eval printed {evaluated!r} but the applied change costs "
                        f"{whole!r} over whole layers")
    reference = magnitude_reference(spec, inst)
    if not cost < reference:
        failures.append(f"cost {cost!r} is not below magnitude pruning's {reference!r}")
    return failures, cost


def toy_loss(weights: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    """Mean over samples of 1/2 ||tanh(x W0^T) W1^T - y||^2."""
    out = np.tanh(x @ weights["0"].T) @ weights["1"].T
    r = out - y
    return float(np.mean(0.5 * np.sum(r * r, axis=1)))


def check_sweep(spec, checkpoints: list[dict[str, np.ndarray]], x: np.ndarray,
                y: np.ndarray, stdout: str) -> tuple[list[str], float]:
    """All checks of the sweep workload; returns (failures, toy_final_loss)."""
    if len(checkpoints) != len(spec.targets):
        return [f"{len(checkpoints)} checkpoints for {len(spec.targets)} targets"], math.nan
    failures: list[str] = []
    previous = None
    for target, box in zip(spec.targets, checkpoints):
        masks = np.concatenate([box[f"layer.{k}.mask"].reshape(-1) for k in ("0", "1")])
        weights = np.concatenate([box[f"layer.{k}.weight"].reshape(-1) for k in ("0", "1")])
        zeros = masks == 0
        want = round_half_up(target * masks.size)
        if int(zeros.sum()) != want:
            failures.append(f"checkpoint {target:g}: {int(zeros.sum())} zeros, want {want}")
        if np.any(weights[zeros] != 0):
            failures.append(f"checkpoint {target:g}: a masked weight is not exactly 0")
        if previous is not None and np.any(previous & ~zeros):
            failures.append(f"checkpoint {target:g}: a weight pruned earlier came back")
        previous = zeros
    last = checkpoints[-1]
    loss = toy_loss({k: last[f"layer.{k}.weight"] for k in ("0", "1")}, x, y)
    printed = stdout_value(stdout, "final", "loss")
    if not _close(printed, loss, LOSS_RTOL):
        failures.append(f"printed final loss {printed!r} but the last checkpoint scores {loss!r}")
    return failures, loss
