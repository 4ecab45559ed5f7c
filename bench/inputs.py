"""Seeded inputs for the benchmark workloads.

Every array of a prune instance is drawn from ``numpy.random.default_rng``
seeded with the benchmark seed and the workload's index, so the same seed
always gives the same bytes; the sweep's toy is built by the CLI from the
seed.

Gradient rows are drawn for each output row of a layer on its own, with
coordinates along the input dimension correlated (covariance corr^|j-k|).
Consecutive weights therefore have correlated gradients, which gives
second-order compensation something to do, while different output rows
are independent, so a layer's cost sums many independent blocks and
varies little from seed to seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import ovpt


@dataclass(frozen=True)
class PruneInputs:
    """One container-prune instance: shapes, dtype, rows and CLI settings."""

    index: int
    shapes: tuple[tuple[int, int], ...]
    dtype: str
    rows: int  # gradient rows in the file; eval uses all of them
    num_grads: int  # rows the prune uses (--num-grads)
    corr: float
    frozen_share: float
    block_size: int
    sparsity: float | None = None
    nm: tuple[int, int] | None = None


@dataclass(frozen=True)
class SweepInputs:
    """One gradual sweep on the program's built-in toy."""

    dims: tuple[int, int, int]
    samples: int
    steps: int
    targets: tuple[float, ...]
    interval: int
    recompute: int
    block_size: int
    num_grads: int
    noise: float = 0.1  # the toy's default label noise


WORKLOADS = {
    "prune-global-f32": PruneInputs(
        index=0, shapes=((128, 64), (64, 128)), dtype="f32", rows=1024,
        num_grads=192, corr=0.9, frozen_share=0.0, block_size=64, sparsity=0.5,
    ),
    "prune-nm-f64-fewrows": PruneInputs(
        index=1, shapes=((256, 128), (192, 160), (120, 100)), dtype="f64", rows=32,
        num_grads=32, corr=0.9, frozen_share=0.1, block_size=64, nm=(2, 4),
    ),
    "sweep-toy": SweepInputs(
        dims=(48, 96, 24), samples=512, steps=120, targets=(0.5, 0.75, 0.9),
        interval=20, recompute=2, block_size=16, num_grads=128,
    ),
}


def _toeplitz_factor(n: int, corr: float) -> np.ndarray:
    idx = np.arange(n)
    return np.linalg.cholesky(corr ** np.abs(idx[:, None] - idx[None, :]))


def _prunable_mask(rng: np.random.Generator, size: int, block_size: int,
                   share: float) -> np.ndarray:
    """Exactly round(share * B) non-prunable weights, at random positions, in
    every block of B weights.

    The frozen count of a block sets how many of its rows the kept weights
    cannot compensate; drawing it per weight made the cost of a whole
    instance vary several times more from seed to seed.
    """
    prunable = np.ones(size, dtype=bool)
    for lo in range(0, size, block_size):
        width = min(block_size, size - lo)
        prunable[lo + rng.choice(width, round(share * width), replace=False)] = False
    return prunable


@dataclass
class PruneInstance:
    """Arrays of one prune instance, keyed by layer id ("0", "1", ...)."""

    weights: dict[str, np.ndarray]  # (out, in), stored dtype
    prunable: dict[str, np.ndarray]  # flat bool
    rows: dict[str, np.ndarray]  # (N, out*in), stored dtype


def make_prune_instance(spec: PruneInputs, seed: int) -> PruneInstance:
    rng = np.random.default_rng([seed, spec.index])
    dt = np.float32 if spec.dtype == "f32" else np.float64
    weights, prunable, rows = {}, {}, {}
    for lid, (out_dim, in_dim) in enumerate(spec.shapes):
        key = str(lid)
        weights[key] = (rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)).astype(dt)
        prunable[key] = _prunable_mask(rng, out_dim * in_dim, spec.block_size,
                                       spec.frozen_share)
        z = rng.standard_normal((spec.rows, out_dim, in_dim))
        rows[key] = (z @ _toeplitz_factor(in_dim, spec.corr).T).reshape(spec.rows, -1).astype(dt)
    return PruneInstance(weights, prunable, rows)


def write_prune_instance(inst: PruneInstance, spec: PruneInputs, workdir: str) -> tuple[str, str]:
    """Write the weight and gradient containers; returns their paths."""
    wbox: dict[str, np.ndarray] = {}
    for key, w in inst.weights.items():
        wbox[f"layer.{key}.weight"] = w
        if spec.frozen_share > 0:
            wbox[f"layer.{key}.prunable"] = inst.prunable[key].astype(np.uint8)
    gbox = {f"layer.{key}.grads": g for key, g in inst.rows.items()}
    wpath = os.path.join(workdir, "weights.ovpt")
    gpath = os.path.join(workdir, "grads.ovpt")
    ovpt.write(wpath, wbox)
    ovpt.write(gpath, gbox)
    return wpath, gpath


def toy_seed(seed: int) -> int:
    """The ``--seed`` handed to the toy CLI for a benchmark seed."""
    return int(seed) % (2**31)


def toy_data(spec: SweepInputs, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and targets of the toy the CLI builds from ``toy_seed(seed)``.

    Follows the documented recipe of ``obsprune`` toys: standard normal
    inputs, a planted two-layer tanh teacher with N(0, 1/fan_in) weights,
    and targets with Gaussian label noise, all drawn in that order from
    one generator.
    """
    rng = np.random.default_rng(toy_seed(seed))
    d0, d1, d2 = spec.dims
    x = rng.standard_normal((spec.samples, d0))
    t0 = rng.standard_normal((d1, d0)) / np.sqrt(d0)
    t1 = rng.standard_normal((d2, d1)) / np.sqrt(d1)
    clean = np.tanh(x @ t0.T) @ t1.T
    return x, clean + spec.noise * rng.standard_normal(clean.shape)
