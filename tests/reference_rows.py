"""Reference per-sample gradient rows of the toy, as dense (n, d) matrices.

``pipeline.collect_grads`` hands each layer its residual and input
factors and never forms these rows; the tests check every range it forms
against this direct computation.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from obsprune.pipeline import ToyModel, _Workspace


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
    ws = _Workspace(model, n)
    ws.forward(weights)
    r, X, a = ws.residual(), ws.X, ws.a
    if a is None:
        g0 = np.einsum("no,ni->noi", r, X).reshape(n, -1)
        return {"0": g0}
    g1 = np.einsum("no,nh->noh", r, a).reshape(n, -1)
    g0 = np.einsum("nh,ni->nhi", ws.backprop(r, weights), X).reshape(n, -1)
    return {"0": g0, "1": g1}
