"""Brute-force references: exhaustive subsets and the regression view.

These two oracles share no code with the production path (no rank-one
builds, no inverse downdates), which is what makes them worth testing
against. The regression view states the same problem as data fitting:
choosing which weights to zero and solving the ridge-regularized least
squares on the survivors lands on the same support and the same
objective as minimizing the quadratic form directly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsprune.fisher import FisherConfig, build_fisher_inverse
from obsprune.oracle import exhaustive_best_subset, sparse_regression_min
from obsprune.solver import solve_global

from conftest import dense_fisher


def test_exhaustive_on_the_two_weight_example():
    fisher = np.array([[2.0, 1.0], [1.0, 2.0]])
    w = np.array([1.0, 1.0])
    idx, cost = exhaustive_best_subset(w, fisher, 1)
    assert idx == (0,)  # tie at 0.75, lexicographically first
    assert cost == pytest.approx(0.75)
    idx, cost = exhaustive_best_subset(w, fisher, 2)
    assert idx == (0, 1)
    assert cost == pytest.approx(3.0)


def test_exhaustive_k_zero():
    fisher = np.eye(3)
    assert exhaustive_best_subset(np.ones(3), fisher, 0) == ((), 0.0)


def test_exhaustive_against_literal_enumeration(rng):
    """Cross-check the vectorized oracle against the dumbest possible loop."""
    d, k = 6, 3
    rows = rng.standard_normal((10, d))
    fisher = dense_fisher(rows, 1e-2)
    w = rng.standard_normal(d)
    inv = np.linalg.inv(fisher)
    best = (None, np.inf)
    for combo in itertools.combinations(range(d), k):
        sub = np.linalg.inv(inv[np.ix_(combo, combo)])
        cost = 0.5 * w[list(combo)] @ sub @ w[list(combo)]
        if cost < best[1]:
            best = (combo, cost)
    idx, cost = exhaustive_best_subset(w, fisher, k)
    assert idx == best[0]
    assert cost == pytest.approx(best[1], rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    d=st.integers(2, 8),
    m=st.integers(2, 16),
    k=st.integers(1, 3),
    damp=st.sampled_from([1e-8, 1e-2]),
)
@example(seed=2, d=3, m=2, k=3, damp=1e-8)  # inverting an inverse gave base -5.3e-9
def test_quadratic_and_regression_views_agree(seed, d, m, k, damp):
    """Minimizing 0.5 (w-w*)' F (w-w*) over k-sparse-complement supports and
    solving the ridge regression with the same zeros give the same support
    and the same minimum, for any data, once the ridge term is included."""
    k = min(k, d)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, d))
    w = rng.standard_normal(d)
    fisher = dense_fisher(rows, damp)
    q_idx, q_cost = exhaustive_best_subset(w, fisher, k)
    r_idx, _, r_obj = sparse_regression_min(rows, w, k, damp)
    assert q_idx == r_idx
    # the regression objective differs from the quadratic increase only by
    # the support-independent base loss at w*
    base = r_obj - q_cost
    zero_all, _, obj_all = sparse_regression_min(rows, w, 0, damp)
    assert zero_all == ()
    assert base == pytest.approx(obj_all, rel=1e-8, abs=1e-10)


def test_greedy_single_block_is_exact_for_k_one(rng):
    for trial in range(20):
        d = 8
        rows = rng.standard_normal((16, d))
        fisher = dense_fisher(rows, 1e-3)
        w = rng.standard_normal(d)
        cfg = FisherConfig(block_size=d, dampening=1e-3, num_grads=16)
        inv = build_fisher_inverse(rows, cfg)
        res = solve_global(w.copy(), inv, 1)
        idx, cost = exhaustive_best_subset(w, fisher, 1)
        assert tuple(np.flatnonzero(res.mask == 0)) == idx
        assert res.predicted_loss_increase == pytest.approx(cost, rel=1e-6)


def test_greedy_stays_within_modest_factor_of_exhaustive(rng):
    """Greedy is not optimal for k >= 2 and individual instances can land
    well above the optimum, but on a well-conditioned family nearly all
    draws stay within 1.2x and most are exact. The >= 1 direction is an
    invariant, not a statistic."""
    trials = 50
    within = 0
    exact = 0
    for trial in range(trials):
        d = 8
        rows = rng.standard_normal((20, d))
        fisher = dense_fisher(rows, 1e-2)
        w = rng.standard_normal(d)
        cfg = FisherConfig(block_size=d, dampening=1e-2, num_grads=20)
        inv = build_fisher_inverse(rows, cfg)
        k = 3
        res = solve_global(w.copy(), inv, k)
        _, best = exhaustive_best_subset(w, fisher, k)
        ratio = res.predicted_loss_increase / best
        assert ratio >= 1.0 - 1e-9
        within += ratio <= 1.2
        exact += ratio < 1.0 + 1e-6
    assert within >= int(trials * 0.95)
    assert exact >= int(trials * 0.8)


def test_regression_oracle_handles_full_elimination(rng):
    d = 4
    rows = rng.standard_normal((8, d))
    w = rng.standard_normal(d)
    zeros, w_fit, obj = sparse_regression_min(rows, w, d, 1e-2)
    assert zeros == tuple(range(d))
    assert (w_fit == 0.0).all()
    # everything zeroed: objective is the loss of the zero model
    resid = rows @ w
    expect = float(resid @ resid) / (2 * rows.shape[0]) + 0.5 * 1e-2 * float(w @ w)
    assert obj == pytest.approx(expect, rel=1e-10)


def test_oracle_dimension_guard(rng):
    w = np.ones(20)
    fisher = np.eye(20)
    with pytest.raises(ValueError):
        exhaustive_best_subset(w, fisher, 2)
