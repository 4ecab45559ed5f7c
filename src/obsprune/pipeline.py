"""Synthetic end-to-end flows: train a toy, prune it, let it recover.

The toy is one or two dense linear maps (tanh between, when two) trained
by full-batch gradient descent on planted-teacher data, with mean squared
error or multinomial logistic loss. Everything is seeded and the sample
order is fixed, so every run is reproducible from (seed, config).

``make_quadratic_toy`` builds the special least-squares instance used by
the predicted-vs-true agreement tests: inputs come in +/- residual pairs
around a planted optimum, so the per-sample gradients at the optimum are
+/- x_i, the batch gradient is exactly zero, and the empirical Fisher
equals the true Hessian plus lambda*I with no sampling slack at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from .pruners import PrunerSpec, prune_with_recompute, run_pruner, split_by_layer
from .schedules import LrSchedule, SweepPlan, lr_at
from .tensorstore import GradientSet


class DivergenceError(Exception):
    """Training produced non-finite weights or loss."""


@dataclass
class ToyModel:
    """Dense toy network plus its fixed dataset.

    ``dims`` is (d_in, d_out) for one layer or (d_in, d_hidden, d_out)
    for two; weights live under layer ids "0" and "1", each (fan_out,
    fan_in), flattened row-major everywhere.
    """

    dims: tuple[int, ...]
    weights: dict[str, np.ndarray]
    inputs: np.ndarray
    targets: np.ndarray
    loss_kind: str = "mse"
    prunable: dict[str, np.ndarray] | None = None

    @property
    def num_samples(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def copy_weights(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.weights.items()}


def _forward(model: ToyModel, weights: Mapping[str, np.ndarray], X: np.ndarray):
    if len(model.dims) == 2:
        return X @ weights["0"].T, (X, None)
    z1 = X @ weights["0"].T
    a = np.tanh(z1)
    return a @ weights["1"].T, (X, a)


def _residuals(model: ToyModel, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and d(loss)/d(out)."""
    if model.loss_kind == "mse":
        r = out - model.targets
        return 0.5 * np.sum(r * r, axis=1), r
    if model.loss_kind == "logistic":
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=1)) + out.max(axis=1)
        labels = model.targets.astype(np.int64)
        losses = logz - out[np.arange(out.shape[0]), labels]
        p = np.exp(shifted) / np.sum(np.exp(shifted), axis=1, keepdims=True)
        p[np.arange(out.shape[0]), labels] -= 1.0
        return losses, p
    raise ValueError(f"unknown loss kind {model.loss_kind!r}")


def model_loss(model: ToyModel, weights: Mapping[str, np.ndarray] | None = None) -> float:
    weights = model.weights if weights is None else weights
    out, _ = _forward(model, weights, model.inputs)
    losses, _ = _residuals(model, out)
    return float(losses.mean())


def per_sample_gradients(
    model: ToyModel,
    weights: Mapping[str, np.ndarray] | None = None,
    n: int | None = None,
) -> dict[str, np.ndarray]:
    """Row-major flattened gradient of the per-sample loss, one row per
    sample, first ``n`` samples in dataset order."""
    weights = model.weights if weights is None else weights
    n = model.num_samples if n is None else n
    if not 1 <= n <= model.num_samples:
        raise ValueError(f"n={n} out of range, dataset has {model.num_samples} samples")
    X = model.inputs[:n]
    out, cache = _forward(model, weights, X)
    if model.loss_kind == "mse":
        r = out - model.targets[:n]
    else:
        _, r = _residuals(
            ToyModel(model.dims, dict(weights), X, model.targets[:n], model.loss_kind),
            out,
        )
    if len(model.dims) == 2:
        g0 = np.einsum("no,ni->noi", r, X).reshape(n, -1)
        return {"0": g0}
    _, a = cache
    g1 = np.einsum("no,nh->noh", r, a).reshape(n, -1)
    back = (r @ weights["1"]) * (1.0 - a * a)
    g0 = np.einsum("nh,ni->nhi", back, X).reshape(n, -1)
    return {"0": g0, "1": g1}


def batch_gradient(
    model: ToyModel, weights: Mapping[str, np.ndarray] | None = None
) -> dict[str, np.ndarray]:
    """Mean loss gradient per layer, in the weight's shape: ``r.T @ X / n``
    from one forward pass (the residual backpropagated through the tanh for
    the hidden layer), without forming the (n, d) per-sample rows."""
    weights = model.weights if weights is None else weights
    out, (X, a) = _forward(model, weights, model.inputs)
    _, r = _residuals(model, out)
    n = model.num_samples
    if a is None:
        return {"0": r.T @ X / n}
    back = (r @ weights["1"]) * (1.0 - a * a)
    return {"0": back.T @ X / n, "1": r.T @ a / n}


def gradient_norm(model: ToyModel) -> float:
    g = batch_gradient(model)
    return float(np.sqrt(sum(float(np.sum(v * v)) for v in g.values())))


def collect_grads(model: ToyModel, n: int) -> dict[str, GradientSet]:
    """Per-sample gradient rows for each layer, rows in dataset order."""
    per = per_sample_gradients(model, n=n)
    return {k: GradientSet(k, v) for k, v in per.items()}


# -- construction ------------------------------------------------------------

def _correlated_inputs(rng: np.random.Generator, n: int, d: int, corr: float) -> np.ndarray:
    z = rng.standard_normal((n, d))
    if corr == 0.0:
        return z
    idx = np.arange(d)
    cov = (corr ** idx)[np.abs(idx[:, None] - idx[None, :])]
    return z @ np.linalg.cholesky(cov).T


def make_toy(
    seed: int,
    dims: tuple[int, ...],
    n_samples: int = 256,
    noise: float = 0.1,
    loss: str = "mse",
    input_corr: float = 0.0,
) -> ToyModel:
    """Planted-teacher toy: data from a random teacher of the same shape,
    model weights freshly initialized."""
    if len(dims) not in (2, 3):
        raise ValueError(f"dims must have 2 or 3 entries, got {dims}")
    rng = np.random.default_rng(seed)
    X = _correlated_inputs(rng, n_samples, dims[0], input_corr)

    def draw(shape):
        return rng.standard_normal(shape) / np.sqrt(shape[1])

    if len(dims) == 2:
        teacher = {"0": draw((dims[1], dims[0]))}
        clean = X @ teacher["0"].T
    else:
        teacher = {"0": draw((dims[1], dims[0])), "1": draw((dims[2], dims[1]))}
        clean = np.tanh(X @ teacher["0"].T) @ teacher["1"].T
    if loss == "mse":
        targets = clean + noise * rng.standard_normal(clean.shape)
    elif loss == "logistic":
        targets = np.argmax(clean + noise * rng.standard_normal(clean.shape), axis=1)
    else:
        raise ValueError(f"unknown loss kind {loss!r}")
    if len(dims) == 2:
        weights = {"0": draw((dims[1], dims[0]))}
    else:
        weights = {"0": draw((dims[1], dims[0])), "1": draw((dims[2], dims[1]))}
    return ToyModel(tuple(dims), weights, X, targets, loss)


def make_quadratic_toy(
    seed: int, d: int, n_base: int, input_corr: float = 0.0
) -> ToyModel:
    """Least-squares toy sitting exactly at its optimum.

    Each base input appears twice with targets offset by -1 and +1, so the
    residuals at the planted weights are +1 and -1: the batch gradient
    cancels exactly and the empirical Fisher of the per-sample gradients
    equals the true Hessian (X^T X / n) plus the dampening term.
    """
    rng = np.random.default_rng(seed)
    xb = _correlated_inputs(rng, n_base, d, input_corr)
    w_star = rng.standard_normal((1, d)) / np.sqrt(d)
    X = np.repeat(xb, 2, axis=0)
    offsets = np.tile([-1.0, 1.0], n_base)[:, None]
    Y = X @ w_star.T + offsets
    return ToyModel((d, 1), {"0": w_star}, X, Y, "mse")


def quadratic_hessian(model: ToyModel) -> np.ndarray:
    """True Hessian of a single-layer MSE toy with scalar output."""
    if len(model.dims) != 2 or model.dims[1] != 1 or model.loss_kind != "mse":
        raise ValueError("exact Hessian only available for single-output linear MSE toys")
    X = model.inputs
    return X.T @ X / X.shape[0]


# -- training ----------------------------------------------------------------

def train_model(
    model: ToyModel,
    steps: int,
    lr: float | Callable[[int], float],
    masks: Mapping[str, np.ndarray] | None = None,
    start_step: int = 0,
) -> float:
    """Full-batch gradient descent in place; returns the final loss.

    With ``masks`` given, masked-out weights are pinned to zero after
    every step (frozen-support recovery). Raises DivergenceError if the
    weights or the loss stop being finite.
    """
    lr_fn = lr if callable(lr) else (lambda _t: lr)
    drop = None
    if masks is not None:
        drop = {k: np.asarray(m).reshape(model.weights[k].shape) == 0 for k, m in masks.items()}
        for k, d in drop.items():
            model.weights[k] = model.weights[k] * ~d
    # overflow on a diverging run is detected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            g = batch_gradient(model)
            eta = float(lr_fn(start_step + t))
            for k in model.weights:
                model.weights[k] = model.weights[k] - eta * g[k]
                if drop is not None:
                    model.weights[k][drop[k]] = 0.0
            if not all(np.all(np.isfinite(v)) for v in model.weights.values()):
                raise DivergenceError(f"non-finite weights at step {start_step + t}")
    loss = model_loss(model)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss after training")
    return loss


def toy_train(
    seed: int,
    dims: tuple[int, ...],
    steps: int,
    lr: float,
    n_samples: int = 256,
    noise: float = 0.1,
    loss: str = "mse",
    input_corr: float = 0.0,
) -> ToyModel:
    """Build a seeded toy and train it; deterministic given the arguments."""
    model = make_toy(seed, dims, n_samples=n_samples, noise=noise, loss=loss,
                     input_corr=input_corr)
    train_model(model, steps, lr)
    return model


# -- runs --------------------------------------------------------------------

@dataclass
class EventRecord:
    step: int
    sparsity: float
    loss_before: float
    loss_after: float
    predicted_increase: float
    post_recovery_loss: float | None = None


@dataclass
class RunReport:
    events: list[EventRecord] = field(default_factory=list)
    final_loss: float = float("nan")
    final_weights: dict[str, np.ndarray] = field(default_factory=dict)
    final_masks: dict[str, np.ndarray] = field(default_factory=dict)
    per_layer_sparsity: dict[str, float] = field(default_factory=dict)


def _grad_provider(model: ToyModel, cap: int):
    def provider(weights: Mapping[str, np.ndarray]) -> dict[str, GradientSet]:
        per = per_sample_gradients(model, weights=weights, n=cap)
        return {k: GradientSet(k, v) for k, v in per.items()}

    return provider


def _prune_once(
    model: ToyModel, spec: PrunerSpec, sparsity: float | None,
    pinned: list[int],
):
    cap = min(spec.fisher.num_grads, model.num_samples)
    if spec.nm is not None:
        grads = collect_grads(model, cap)
        return run_pruner(spec, model.weights, grads, prunable=model.prunable)
    assert sparsity is not None
    return prune_with_recompute(
        spec, model.weights, _grad_provider(model, cap), sparsity,
        prunable=model.prunable, pinned=pinned,
    )


def run_oneshot(model: ToyModel, spec: PrunerSpec, sparsity: float | None = None) -> RunReport:
    """Single prune event, no recovery; the model is left pruned."""
    loss_before = model_loss(model)
    result = _prune_once(model, spec, sparsity, pinned=[])
    model.weights = split_by_layer(result.new_weights, result.layout)
    loss_after = model_loss(model)
    masks = split_by_layer(result.mask, result.layout)
    zeros = int(np.count_nonzero(result.mask == 0))
    report = RunReport(
        events=[EventRecord(0, zeros / result.mask.size, loss_before, loss_after,
                            result.predicted_loss_increase)],
        final_loss=loss_after,
        final_weights=model.copy_weights(),
        final_masks=masks,
        per_layer_sparsity=dict(result.per_layer_sparsity),
    )
    return report


def run_oneshot_finetune(
    model: ToyModel,
    spec: PrunerSpec,
    sparsity: float | None,
    recovery_steps: int,
    schedule: LrSchedule | None = None,
    acyclic: bool = False,
) -> RunReport:
    """Prune once, then recover with the mask frozen.

    With zero recovery steps this reduces to ``run_oneshot``.
    """
    schedule = schedule or LrSchedule()
    report = run_oneshot(model, spec, sparsity)
    ev = report.events[0]
    if recovery_steps > 0:
        lr_fn = _make_lr_fn(schedule, acyclic, recovery_steps)
        train_model(model, recovery_steps, lr_fn, masks=report.final_masks)
    ev.post_recovery_loss = model_loss(model)
    report.final_loss = ev.post_recovery_loss
    report.final_weights = model.copy_weights()
    return report


def _make_lr_fn(schedule: LrSchedule, acyclic: bool, total_steps: int):
    if not acyclic:
        return lambda t: lr_at(schedule, t)
    span = max(total_steps, 1)
    return lambda t: schedule.lr_max - (schedule.lr_max - schedule.lr_min) * min(t, span) / span


def run_gradual(
    model: ToyModel,
    spec: PrunerSpec,
    plan: SweepPlan,
    schedule: LrSchedule | None = None,
    acyclic: bool = False,
) -> tuple[RunReport, list[tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]]]:
    """Alternate pruning events and mask-frozen recovery windows.

    Prunes to ``plan.targets[i]`` at step ``i * interval``, recovers for
    ``interval`` steps, then emits a checkpoint (target, weights, masks).
    Each event records the sparsity the prune reached, which per-layer
    rounding can put above the target. Masks are monotone across events.
    Returns (report, checkpoints).
    """
    schedule = schedule or LrSchedule(period=plan.interval)
    report = RunReport()
    checkpoints = []
    pinned: list[int] = []
    lr_fn = _make_lr_fn(schedule, acyclic, plan.total_steps)
    for i, (estep, target) in enumerate(plan.events()):
        loss_before = model_loss(model)
        result = _prune_once(model, spec, target, pinned=pinned)
        new_zeros = np.flatnonzero(result.mask == 0)
        if not set(pinned).issubset(set(new_zeros.tolist())):
            raise AssertionError("gradual masks must be monotone")
        pinned = new_zeros.tolist()
        model.weights = split_by_layer(result.new_weights, result.layout)
        loss_after = model_loss(model)
        masks = split_by_layer(result.mask, result.layout)
        train_model(model, plan.interval, lr_fn, masks=masks, start_step=estep)
        post = model_loss(model)
        report.events.append(
            EventRecord(estep, new_zeros.size / result.mask.size, loss_before, loss_after,
                        result.predicted_loss_increase, post)
        )
        checkpoints.append((target, model.copy_weights(),
                            {k: v.copy() for k, v in masks.items()}))
        report.per_layer_sparsity = dict(result.per_layer_sparsity)
        report.final_masks = masks
    report.final_loss = model_loss(model)
    report.final_weights = model.copy_weights()
    return report, checkpoints


# -- report emission ---------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _event_rows(report: RunReport) -> Iterator[tuple[int, str, str]]:
    """(step, field, formatted value) for every event, in report order."""
    for ev in report.events:
        yield ev.step, "sparsity", _fmt(ev.sparsity)
        yield ev.step, "loss_before", _fmt(ev.loss_before)
        yield ev.step, "loss_after", _fmt(ev.loss_after)
        yield ev.step, "predicted_increase", _fmt(ev.predicted_increase)
        if ev.post_recovery_loss is not None:
            yield ev.step, "post_recovery_loss", _fmt(ev.post_recovery_loss)


def report_lines(report: RunReport) -> list[str]:
    """Line-delimited (step, field, value) records plus a summary block."""
    lines = [f"{step}\t{name}\t{value}" for step, name, value in _event_rows(report)]
    lines.append("summary\tevent\tstep\tsparsity\tloss_before\tloss_after\tpredicted\tpost_recovery")
    for i, ev in enumerate(report.events):
        post = "-" if ev.post_recovery_loss is None else _fmt(ev.post_recovery_loss)
        lines.append(
            f"summary\t{i}\t{ev.step}\t{_fmt(ev.sparsity)}\t{_fmt(ev.loss_before)}"
            f"\t{_fmt(ev.loss_after)}\t{_fmt(ev.predicted_increase)}\t{post}"
        )
    for name, s in report.per_layer_sparsity.items():
        lines.append(f"final\tsparsity.{name}\t{_fmt(s)}")
    lines.append(f"final\tloss\t{_fmt(report.final_loss)}")
    return lines


def report_csv(report: RunReport) -> str:
    """Plot-friendly CSV: step,field,value rows, the event rows of ``report_lines``."""
    rows = ["step,field,value"]
    rows += [f"{step},{name},{value}" for step, name, value in _event_rows(report)]
    return "\n".join(rows) + "\n"
