"""Synthetic end-to-end flows: train a toy, prune it, let it recover.

The toy is one or two dense linear maps (tanh between, when two) trained
by full-batch gradient descent on planted-teacher data, with mean squared
error or multinomial logistic loss. Everything is seeded and the sample
order is fixed, so every run is reproducible from (seed, config).

Training and the batch gradient run through one private workspace that
holds every forward/backward buffer of a model shape (activations,
outputs, residual, backpropagated residual and the per-layer gradients)
and computes into them with ``out=`` operations. It allocates the
backward buffers on its first backward pass, so a workspace that only
evaluates a loss holds the forward buffers alone. ``train_model`` builds
one workspace per call and reuses it for every step; it copies the
weights once on entry and then updates the copies in place.

A dense layer's per-sample gradient is the outer product of its output
residual and its input, so ``collect_grads`` runs one forward pass and
hands each layer copies of those two factors, never its (n, d) rows:
the Fisher build and ``loss_increase`` form the products they read one
small range at a time (see ``tensorstore.GradientSet``).

``make_quadratic_toy`` builds the special least-squares instance used by
the predicted-vs-true agreement tests: inputs come in +/- residual pairs
around a planted optimum, so the per-sample gradients at the optimum are
+/- x_i, the batch gradient is exactly zero, and the empirical Fisher
equals the true Hessian plus lambda*I with no sampling slack at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .obs_core import NumericalError
from .pruners import PrunerSpec, run_pruner, split_by_layer
from .schedules import LrSchedule, recovery_lr
from .tensorstore import GradientSet


class DivergenceError(NumericalError):
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

    @property
    def num_samples(self) -> int:
        return int(self.inputs.shape[0])

    def copy_weights(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.weights.items()}


class _Workspace:
    """Every buffer one forward/backward pass over the first ``n`` samples
    of ``model`` needs, allocated once and reused by each pass. The
    forward buffers are allocated with the workspace, the backward ones by
    the first ``residual`` call, so a workspace that only evaluates
    ``loss`` holds none of them.

    ``gradient`` returns the workspace's own gradient buffers, which the
    next pass overwrites.
    """

    def __init__(self, model: ToyModel, n: int | None = None) -> None:
        if model.loss_kind not in ("mse", "logistic"):
            raise ValueError(f"unknown loss kind {model.loss_kind!r}")
        n = model.num_samples if n is None else n
        self.logistic = model.loss_kind == "logistic"
        self.X = model.inputs[:n]
        self.targets = model.targets[:n]
        self.labels = self.targets.astype(np.int64) if self.logistic else None
        self.out = np.empty((n, model.dims[-1]))
        self.a = np.empty((n, model.dims[1])) if len(model.dims) == 3 else None
        self.shapes = {k: np.shape(w) for k, w in model.weights.items()}
        self.r = self.back = self.scratch = self.grads = None  # backward buffers

    def forward(self, weights: Mapping[str, np.ndarray]) -> np.ndarray:
        if self.a is None:
            return np.matmul(self.X, weights["0"].T, out=self.out)
        np.matmul(self.X, weights["0"].T, out=self.a)
        np.tanh(self.a, out=self.a)
        return np.matmul(self.a, weights["1"].T, out=self.out)

    def residual(self) -> np.ndarray:
        """d(loss)/d(out) per sample, for the last forward pass."""
        if self.r is None:
            self.r = np.empty_like(self.out)
            if self.a is not None:
                self.back, self.scratch = np.empty_like(self.a), np.empty_like(self.a)
            self.grads = {k: np.empty(shape) for k, shape in self.shapes.items()}
        out, r = self.out, self.r
        if not self.logistic:
            return np.subtract(out, self.targets, out=r)
        np.subtract(out, out.max(axis=1, keepdims=True), out=r)
        np.exp(r, out=r)
        np.divide(r, np.sum(r, axis=1, keepdims=True), out=r)
        r[np.arange(out.shape[0]), self.labels] -= 1.0
        return r

    def loss(self, weights: Mapping[str, np.ndarray]) -> float:
        """Mean per-sample loss."""
        out = self.forward(weights)
        if not self.logistic:
            r = out - self.targets
            return float((0.5 * np.sum(r * r, axis=1)).mean())
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=1)) + out.max(axis=1)
        return float((logz - out[np.arange(out.shape[0]), self.labels]).mean())

    def gradient(self, weights: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Mean loss gradient per layer: ``r.T @ X / n`` for a lone layer;
        with a hidden layer, ``backprop(r).T @ X / n`` for it and
        ``r.T @ a / n`` for the output layer."""
        self.forward(weights)
        r = self.residual()
        n, g = self.X.shape[0], self.grads
        first = r if self.a is None else self.backprop(r, weights)
        np.divide(np.matmul(first.T, self.X, out=g["0"]), n, out=g["0"])
        if self.a is not None:
            np.divide(np.matmul(r.T, self.a, out=g["1"]), n, out=g["1"])
        return g

    def backprop(self, r: np.ndarray, weights: Mapping[str, np.ndarray]) -> np.ndarray:
        """The residual ``r`` carried back through the tanh to the hidden
        layer, ``(r @ W1) * (1 - a*a)``."""
        np.matmul(r, weights["1"], out=self.back)
        np.multiply(self.a, self.a, out=self.scratch)
        np.subtract(1.0, self.scratch, out=self.scratch)
        return np.multiply(self.back, self.scratch, out=self.back)


def model_loss(model: ToyModel, weights: Mapping[str, np.ndarray] | None = None) -> float:
    return _Workspace(model).loss(model.weights if weights is None else weights)


def batch_gradient(
    model: ToyModel, weights: Mapping[str, np.ndarray] | None = None
) -> dict[str, np.ndarray]:
    """Mean loss gradient per layer, in the weight's shape, from one pass of
    a fresh workspace; no (n, d) per-sample rows are formed."""
    return _Workspace(model).gradient(model.weights if weights is None else weights)


def gradient_norm(model: ToyModel) -> float:
    g = batch_gradient(model)
    return float(np.sqrt(sum(float(np.sum(v * v)) for v in g.values())))


def collect_grads(
    model: ToyModel, n: int, weights: Mapping[str, np.ndarray] | None = None
) -> dict[str, GradientSet]:
    """Per-sample gradient rows for each layer at ``weights`` (default the
    model's), the first ``n`` samples in dataset order, as factored sets
    (see ``GradientSet``) that own their factors: the output residual and
    the input of each layer. Layer "0" takes the residual carried back to
    it (its own, for a lone layer) and the inputs; layer "1" takes the
    residual and the hidden activations. No (n, d) rows are formed."""
    weights = model.weights if weights is None else weights
    if not 1 <= n <= model.num_samples:
        raise ValueError(f"n={n} out of range, dataset has {model.num_samples} samples")
    ws = _Workspace(model, n)
    ws.forward(weights)
    r = ws.residual()
    if ws.a is None:
        return {"0": GradientSet("0", factors=(r.copy(), ws.X.copy()))}
    return {"0": GradientSet("0", factors=(ws.backprop(r, weights).copy(), ws.X.copy())),
            "1": GradientSet("1", factors=(r.copy(), ws.a.copy()))}


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


# -- training ----------------------------------------------------------------

def train_model(
    model: ToyModel,
    steps: int,
    lr: float | Callable[[int], float],
    masks: Mapping[str, np.ndarray] | None = None,
    start_step: int = 0,
) -> float:
    """Full-batch gradient descent; returns the final loss.

    Copies each of ``model.weights`` once, then updates the copies in place
    from one workspace reused by every step, so no array the caller held
    is written. With ``masks`` given, masked-out weights are pinned to zero
    after every step (frozen-support recovery). Raises DivergenceError if
    the weights or the loss stop being finite.
    """
    lr_fn = lr if callable(lr) else (lambda _t: lr)
    weights = model.weights
    drop = None
    if masks is not None:
        drop = {k: np.asarray(m).reshape(weights[k].shape) == 0 for k, m in masks.items()}
    for k, w in weights.items():
        w = np.asarray(w, dtype=np.float64)
        weights[k] = w.copy() if drop is None else w * ~drop[k]
    ws = _Workspace(model)
    # overflow on a diverging run is detected below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            g = ws.gradient(weights)
            eta = float(lr_fn(start_step + t))
            for k, w in weights.items():
                np.multiply(g[k], eta, out=g[k])
                np.subtract(w, g[k], out=w)
                if drop is not None:
                    w[drop[k]] = 0.0
            if not all(np.all(np.isfinite(v)) for v in weights.values()):
                raise DivergenceError(f"non-finite weights at step {start_step + t}")
    loss = ws.loss(weights)
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
) -> ToyModel:
    """Build a seeded toy and train it; deterministic given the arguments."""
    model = make_toy(seed, dims, n_samples=n_samples, noise=noise, loss=loss)
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
    post_recovery_loss: float


@dataclass
class RunReport:
    """A run's events, final loss and per-layer sparsity; its final weights
    and masks are its last checkpoint's."""

    events: list[EventRecord] = field(default_factory=list)
    final_loss: float = float("nan")
    per_layer_sparsity: dict[str, float] = field(default_factory=dict)


def run_gradual(
    model: ToyModel,
    spec: PrunerSpec,
    targets: Sequence[float | None],
    interval: int,
    schedule: LrSchedule | None = None,
    acyclic: bool = False,
    extra_steps: int = 0,
) -> tuple[RunReport, list[tuple[float | None, dict[str, np.ndarray], dict[str, np.ndarray]]]]:
    """Alternate pruning events and mask-frozen recovery windows.

    Prunes to ``targets[i]`` at step ``i * interval``, recovers for
    ``interval`` steps, then emits a checkpoint (target, weights, masks).
    A target of None prunes to ``spec.nm``'s pattern, and an interval of 0
    keeps the pruned weights, so a one-shot prune and its recovery are
    the one-event case. Each event records the sparsity the prune reached,
    which per-layer rounding can put above the target, starts from the
    loss the last one ended at and ends at the loss its recovery returns,
    so each loss is evaluated once. Masks are monotone across events.
    ``extra_steps`` more steps on the same clock and masks follow the last
    window; the last checkpoint and ``final_loss`` hold their result, and
    the last event's ``post_recovery_loss`` stays that of its own window.
    Returns (report, checkpoints).
    """
    schedule = schedule or LrSchedule(period=max(interval, 1))
    report = RunReport()
    checkpoints = []
    pinned = np.empty(0, dtype=np.int64)
    cap = min(spec.fisher.num_grads, model.num_samples)
    span = len(targets) * interval
    lr_fn = recovery_lr(schedule, acyclic, span)
    loss = model_loss(model)
    for i, target in enumerate(targets):
        # the rows are made inside the prune, so its build holds them alone
        result = run_pruner(spec, model.weights, lambda w: collect_grads(model, cap, w),
                            sparsity=target, pinned=pinned)
        if result.mask[pinned].any():
            raise AssertionError("gradual masks must be monotone")
        pinned = np.flatnonzero(result.mask == 0)
        model.weights = split_by_layer(result.new_weights, result.layout)
        loss_after = model_loss(model)
        masks = split_by_layer(result.mask, result.layout)
        post = train_model(model, interval, lr_fn, masks=masks, start_step=i * interval)
        report.events.append(
            EventRecord(i * interval, pinned.size / result.mask.size, loss, loss_after,
                        result.predicted_loss_increase, post)
        )
        loss = post
        if extra_steps and i == len(targets) - 1:
            loss = train_model(model, extra_steps, lr_fn, masks=masks, start_step=span)
        checkpoints.append((target, model.copy_weights(),
                            {k: v.copy() for k, v in masks.items()}))
        report.per_layer_sparsity = dict(result.per_layer_sparsity)
    report.final_loss = loss
    return report, checkpoints
