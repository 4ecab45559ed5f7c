"""Saliency and compensation formulas, single and grouped."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsprune.fisher import FisherBlockInverse, FisherConfig, build_fisher_inverse
from obsprune.obs_core import (
    NumericalError,
    loss_increase,
    saliency_group,
    saliency_single,
    update_group,
    update_single,
)
from obsprune.tensorstore import GradientSet

from conftest import dense_fisher, inverse_from_dense, random_spd


FISHER_2D = np.array([[2.0, 1.0], [1.0, 2.0]])


def test_single_worked_example():
    """F = [[2,1],[1,2]], w = [1,1]: removing either weight costs 3/4 and
    moves the survivor to 3/2."""
    w = np.array([1.0, 1.0])
    inv = inverse_from_dense(FISHER_2D)
    assert saliency_single(w, inv, 0) == pytest.approx(0.75)
    assert saliency_single(w, inv, 1) == pytest.approx(0.75)
    out = update_single(w, inv, 0).apply(w)
    np.testing.assert_allclose(out, [0.0, 1.5])
    assert out[0] == 0.0  # exact zero, not approximately zero


def test_update_zeroes_exactly_even_with_roundoff():
    rng = np.random.default_rng(0)
    fisher = random_spd(rng, 7)
    w = rng.standard_normal(7) + 3.0
    inv = inverse_from_dense(fisher)
    for i in range(7):
        assert update_single(w, inv, i).apply(w)[i] == 0.0


def quadratic_increase(w_before, w_after, fisher):
    d = w_after - w_before
    return 0.5 * float(d @ fisher @ d)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 10))
def test_saliency_equals_quadratic_cost_of_the_update(seed, d):
    """The predicted cost must equal the quadratic form evaluated at the
    compensated update, and that update must be the cheapest way to zero i."""
    rng = np.random.default_rng(seed)
    fisher = random_spd(rng, d)
    w = rng.standard_normal(d)
    inv = inverse_from_dense(fisher)
    i = int(rng.integers(d))
    rho = saliency_single(w, inv, i)
    w_new = update_single(w, inv, i).apply(w)
    assert rho == pytest.approx(quadratic_increase(w, w_new, fisher), rel=1e-9, abs=1e-12)
    # any other way of zeroing i costs at least as much
    for _ in range(5):
        alt = w.copy() + rng.standard_normal(d) * 0.1
        alt[i] = 0.0
        assert quadratic_increase(w, alt, fisher) >= rho - 1e-12


def test_group_of_one_matches_single():
    rng = np.random.default_rng(1)
    fisher = random_spd(rng, 6)
    w = rng.standard_normal(6)
    inv = inverse_from_dense(fisher)
    for i in range(6):
        assert saliency_group(w, inv, [i]) == pytest.approx(
            saliency_single(w, inv, i), rel=1e-9
        )
        a = update_single(w, inv, i).apply(w)
        b = update_group(w, inv, [i]).apply(w)
        np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(3, 9), q=st.integers(2, 3))
def test_group_matches_exhaustive_quadratic(seed, d, q):
    """Group saliency is the minimum quadratic cost of zeroing the whole set,
    so it equals the cost of its own update and lower-bounds perturbations."""
    rng = np.random.default_rng(seed)
    fisher = random_spd(rng, d)
    w = rng.standard_normal(d)
    inv = inverse_from_dense(fisher)
    idx = list(rng.choice(d, size=min(q, d), replace=False))
    rho = saliency_group(w, inv, idx)
    w_new = update_group(w, inv, idx).apply(w)
    assert all(w_new[i] == 0.0 for i in idx)
    assert rho == pytest.approx(quadratic_increase(w, w_new, fisher), rel=1e-8, abs=1e-12)
    for _ in range(5):
        alt = w_new + rng.standard_normal(d) * 0.05
        alt[idx] = 0.0
        assert quadratic_increase(w, alt, fisher) >= rho - 1e-12


def test_group_sequential_consistency():
    """Zeroing {i, j} jointly costs the same as zeroing i, downdating, then
    zeroing j, and both orders agree to 1e-9."""
    from reference_fisher import eliminate_index

    rng = np.random.default_rng(2)
    fisher = random_spd(rng, 5)
    w = rng.standard_normal(5)
    inv = np.linalg.inv(fisher)
    boxed = inverse_from_dense(fisher)
    for i, j in [(0, 3), (2, 4), (1, 0)]:
        joint = saliency_group(w, boxed, [i, j])
        for first, second in [(i, j), (j, i)]:
            one = inverse_from_dense(fisher)
            rho1 = saliency_single(w, one, first)
            w1 = update_single(w, one, first).apply(w)
            inv2 = eliminate_index(inv, first)
            two = FisherBlockInverse(blocks=[inv2])
            rho2 = saliency_single(w1, two, second)
            assert joint == pytest.approx(rho1 + rho2, rel=1e-9)


def _by_block(inv, indices):
    groups = {}
    for i in indices:
        b, _ = inv.block_of(int(i))
        groups.setdefault(b, []).append(int(i))
    return [groups[b] for b in sorted(groups)]


def saliency_group_across_blocks(w, inv, indices):
    """Reference: sum of per-block joint costs for an index set that may
    span blocks."""
    return float(sum(saliency_group(w, inv, part) for part in _by_block(inv, indices)))


def test_group_across_blocks_requires_wrapper():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((12, 6))
    inv = build_fisher_inverse(rows, FisherConfig(3, 1e-3, 12))
    w = rng.standard_normal(6)
    with pytest.raises(ValueError):
        saliency_group(w, inv, [1, 4])  # spans blocks 0 and 1
    rho = saliency_group_across_blocks(w, inv, [1, 4])
    # blocks are independent, so the cross-block group cost splits
    assert rho == pytest.approx(
        saliency_group(w, inv, [1]) + saliency_group(w, inv, [4]), rel=1e-9
    )


def test_singular_group_submatrix_raises():
    # perfectly correlated pair: the 2x2 submatrix of the inverse is singular
    blk = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    inv = FisherBlockInverse(blocks=[blk])
    w = np.ones(3)
    with pytest.raises(NumericalError):
        saliency_group(w, inv, [0, 1])


def test_loss_increase_matches_dense_quadratic():
    rng = np.random.default_rng(4)
    n, d = 30, 8
    rows = rng.standard_normal((n, d))
    damp = 1e-3
    fisher = dense_fisher(rows, damp)
    w = rng.standard_normal(d)
    w2 = w + rng.standard_normal(d) * 0.2
    got = loss_increase(w, w2, GradientSet("0", rows), damp)
    assert got == pytest.approx(quadratic_increase(w, w2, fisher), rel=1e-10)


def test_loss_increase_zero_for_no_change():
    rows = np.ones((4, 3))
    w = np.array([1.0, 2.0, 3.0])
    assert loss_increase(w, w, GradientSet("0", rows), 1e-8) == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_loss_increase_refuses_a_non_finite_cost(value):
    """A non-finite row value makes its projection non-finite, even where
    the weights do not move."""
    rows = np.ones((4, 3))
    rows[3, 0] = value
    w = np.array([1.0, 2.0, 3.0])
    for w2 in (w, np.array([1.0, 0.0, 3.0])):
        with pytest.raises(NumericalError, match="non-finite"):
            loss_increase(w, w2, GradientSet("0", rows), 1e-8)


def test_loss_increase_widens_no_copy_of_the_rows():
    """float32 rows are projected in place: the scratch stays far below
    the 8 MiB a float64 copy of these rows would take."""
    import tracemalloc

    rng = np.random.default_rng(6)
    rows = rng.standard_normal((256, 4096)).astype(np.float32)
    w = rng.standard_normal(4096)
    w2 = w * (rng.random(4096) > 0.5)
    want = loss_increase(w, w2, rows.astype(np.float64), 1e-8)
    tracemalloc.start()
    try:
        got = loss_increase(w, w2, GradientSet("0", rows), 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, chunk_rows", [(1, 2), (5, 2), (7, 2), (7, 3), (9, 3), (11, 10)])
def test_chunked_projection_equals_one_einsum(monkeypatch, dtype, n, chunk_rows):
    """Rows are projected a chunk at a time, and a chunk never holds a lone
    row unless there is only one; at a width the chunk does not divide,
    the result has the bytes of one ``einsum`` over every row."""
    from obsprune import obs_core

    d = 100_003
    rng = np.random.default_rng(n * chunk_rows)
    rows = rng.standard_normal((n, d)).astype(dtype)
    w = rng.standard_normal(d)
    w2 = w * (rng.random(d) > 0.5)
    delta = w2 - w
    proj = np.einsum("ij,j->i", rows, delta)
    want = float(0.5 * 1e-8 * (delta @ delta) + (proj @ proj) / (2.0 * n))
    monkeypatch.setattr(obs_core, "CHUNK_VALUES", chunk_rows * d + d // 2)
    assert loss_increase(w, w2, GradientSet("0", rows), 1e-8) == want
