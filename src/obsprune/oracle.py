"""Brute-force reference answers for small pruning instances.

Two independent oracles, deliberately implemented without reusing the
engine's inverse-maintenance path:

* ``exhaustive_best_subset`` scans every size-k index set Q and evaluates
  the joint removal cost 0.5 * w_Q^T ([F^-1]_[Q,Q])^-1 w_Q from a dense
  Fisher matrix, via the Schur complement of F_SS in F (S the survivors),
  returning the cheapest set (lexicographically first on ties).

* ``sparse_regression_min`` scans every k-zero support pattern and solves
  the ridge-augmented least-squares fit on the free coordinates directly
  via normal equations. The ridge term (lambda/2)*||w' - w*||^2 makes the
  problem's curvature exactly lambda*I + (1/m) G^T G, so its optimal
  objective and zero pattern coincide with the subset oracle built from
  the same gradient rows.

Both are exponential in k and guarded to small dimensions.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

MAX_ORACLE_DIM = 14


def _check_dim(d: int) -> None:
    if d > MAX_ORACLE_DIM:
        raise ValueError(f"oracle is exhaustive; dim {d} exceeds the {MAX_ORACLE_DIM} guard")


def exhaustive_best_subset(
    w: np.ndarray, fisher: np.ndarray, k: int
) -> tuple[tuple[int, ...], float]:
    """Cheapest size-k removal set under the dense quadratic model.

    Returns (indices, cost). Ties resolve to the lexicographically first
    combination because enumeration is lexicographic and only strict
    improvements replace the incumbent.
    """
    w = np.asarray(w, dtype=np.float64)
    fisher = np.asarray(fisher, dtype=np.float64)
    d = w.size
    _check_dim(d)
    if fisher.shape != (d, d):
        raise ValueError(f"Fisher shape {fisher.shape} does not match {d} weights")
    if not 0 <= k <= d:
        raise ValueError(f"k={k} out of range for {d} weights")
    if k == 0:
        return (), 0.0
    best_q: tuple[int, ...] | None = None
    best_val = np.inf
    for q in combinations(range(d), k):
        rest = [i for i in range(d) if i not in q]
        # ([F^-1]_QQ)^-1 is the Schur complement F_QQ - F_QS F_SS^-1 F_SQ;
        # forming it directly avoids inverting an inverse, whose rounding
        # swamps near-zero costs at tiny dampening
        schur = fisher[np.ix_(q, q)]
        if rest:
            schur = schur - fisher[np.ix_(q, rest)] @ np.linalg.solve(
                fisher[np.ix_(rest, rest)], fisher[np.ix_(rest, q)]
            )
        wq = w[list(q)]
        val = 0.5 * float(wq @ schur @ wq)
        if val < best_val:
            best_val = val
            best_q = q
    assert best_q is not None
    return best_q, float(best_val)


def sparse_regression_min(
    grads: np.ndarray, w_star: np.ndarray, k: int, dampening: float
) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Best k-zero sparse fit of the gradient-projection regression.

    Minimizes, over supports with exactly k zeroed coordinates Z and over
    the free values v on the complement S,

        (1/2m) * ||G_S v - G w*||^2 + (lambda/2) * (||v - w*_S||^2 + ||w*_Z||^2)

    and returns (Z, fitted w', optimal objective). Solved per support via
    the normal equations; no Fisher inverse is ever formed.
    """
    rows = np.asarray(grads, dtype=np.float64)
    w_star = np.asarray(w_star, dtype=np.float64)
    d = w_star.size
    _check_dim(d)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError("gradient rows must be (m, d) with d matching w*")
    if not 0 <= k <= d:
        raise ValueError(f"k={k} out of range for {d} weights")
    m = rows.shape[0]
    target = rows @ w_star
    best: tuple[tuple[int, ...], np.ndarray, float] | None = None
    for z in combinations(range(d), k):
        keep = [i for i in range(d) if i not in z]
        w_fit = np.zeros(d)
        frozen_pen = float(w_star[list(z)] @ w_star[list(z)]) if z else 0.0
        if keep:
            gs = rows[:, keep]
            a = gs.T @ gs / m + dampening * np.eye(len(keep))
            b = gs.T @ target / m + dampening * w_star[keep]
            v = np.linalg.solve(a, b)
            w_fit[keep] = v
            resid = gs @ v - target
            vd = v - w_star[keep]
            obj = float(
                resid @ resid / (2.0 * m)
                + 0.5 * dampening * (vd @ vd + frozen_pen)
            )
        else:
            obj = float(target @ target / (2.0 * m) + 0.5 * dampening * frozen_pen)
        if best is None or obj < best[2]:
            best = (z, w_fit, obj)
    assert best is not None
    return best
