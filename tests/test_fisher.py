"""Block Fisher inverse: batched build, elimination, degeneracy handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsprune import fisher
from obsprune.fisher import (
    EPS_FLOOR,
    DegenerateCurvatureWarning,
    FisherConfig,
    block_partition,
    build_fisher_inverse,
    iter_block_inverses,
)
from obsprune.tensorstore import GradientSet

from conftest import dense_fisher
from reference_fisher import (
    DegeneratePivotError,
    eliminate_index,
    eliminate_index_clamped,
    freeze_indices,
)


def _sm_updates(inv3: np.ndarray, rows3: np.ndarray, denom_count: int) -> None:
    """Apply one Sherman-Morrison update per gradient row, in row order.

    ``inv3`` is (nblocks, B, B) and is updated in place; ``rows3`` is
    (nrows, nblocks, B). Batched over blocks, sequential over rows, so the
    per-block arithmetic is identical to a plain per-block loop.
    """
    for g in rows3:
        v = np.einsum("mij,mj->mi", inv3, g)
        denom = denom_count + np.einsum("mi,mi->m", g, v)
        inv3 -= v[:, :, None] * v[:, None, :] / denom[:, None, None]


def sm_reference_blocks(rows, config):
    """Reference build: start every block from (1/lambda)*I and fold in one
    rank-one update per used gradient row,

        F^-1  <-  F^-1 - (F^-1 g)(F^-1 g)^T / (N + g^T F^-1 g)
    """
    rows = np.asarray(rows, dtype=np.float64)[: config.num_grads]
    n = rows.shape[0]
    blocks, lo = [], 0
    for size in block_partition(rows.shape[1], config.block_size):
        inv3 = (np.eye(size) / config.dampening)[None].copy()
        _sm_updates(inv3, rows[:, lo : lo + size].reshape(n, 1, size), n)
        blocks.append(inv3[0])
        lo += size
    return blocks


def build_and_compare(rows, block_size, damp, num_grads=None):
    """Worst relative error of the block build vs dense inversion."""
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape
    cfg = FisherConfig(block_size=block_size, dampening=damp,
                       num_grads=num_grads or n)
    inv = build_fisher_inverse(rows, cfg)
    used = rows[: cfg.num_grads]
    worst = 0.0
    for b, (lo, hi) in enumerate(zip(inv.offsets[:-1], inv.offsets[1:])):
        ref = np.linalg.inv(dense_fisher(used[:, lo:hi], damp))
        scale = max(1.0, float(np.abs(ref).max()))
        worst = max(worst, float(np.abs(inv.blocks[b] - ref).max()) / scale)
    return inv, worst


def test_matches_dense_inversion():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 10))
    _, err = build_and_compare(rows, block_size=4, damp=1e-3)
    assert err < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 12),
    n=st.integers(1, 30),
    block=st.integers(1, 12),
    damp=st.sampled_from([1e-2, 1e-4, 1e-6]),
)
def test_matches_dense_inversion_property(seed, d, n, block, damp):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    _, err = build_and_compare(rows, block_size=block, damp=damp)
    assert err < 1e-6


def test_row_cap_uses_prefix_only():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((20, 6))
    cfg = FisherConfig(block_size=6, dampening=1e-4, num_grads=8)
    inv = build_fisher_inverse(rows, cfg)
    ref = np.linalg.inv(dense_fisher(rows[:8], 1e-4))
    np.testing.assert_allclose(inv.blocks[0], ref, atol=1e-9)


def test_trailing_partial_block():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((15, 10))
    inv, err = build_and_compare(rows, block_size=4, damp=1e-3)
    assert [b.shape[0] for b in inv.blocks] == [4, 4, 2]
    assert err < 1e-8


def test_huge_dampening_kills_the_data_term():
    """As the ridge dominates, the diagonal is exactly 1/damp in float64
    (the rank-one corrections round to nothing against it) and the
    off-diagonal leftovers are negligible."""
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((12, 5))
    cfg = FisherConfig(block_size=5, dampening=1e20, num_grads=12)
    inv = build_fisher_inverse(rows, cfg)
    blk = inv.blocks[0]
    np.testing.assert_array_equal(np.diag(blk), np.full(5, 1e-20))
    off = blk - np.diag(np.diag(blk))
    assert np.abs(off).max() < 1e-38


def test_batched_main_blocks_match_per_block_loop():
    """The vectorized build over equal-size blocks must be bitwise identical
    to running each block alone."""
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((25, 12))
    cfg = FisherConfig(block_size=4, dampening=1e-5, num_grads=25)
    inv = build_fisher_inverse(rows, cfg)
    for b in range(3):
        solo_cfg = FisherConfig(block_size=4, dampening=1e-5, num_grads=25)
        solo = build_fisher_inverse(rows[:, 4 * b : 4 * (b + 1)], solo_cfg)
        assert inv.blocks[b].tobytes() == solo.blocks[0].tobytes()


@pytest.mark.parametrize("block", [8, 32])  # Gram form, Woodbury form
def test_chunking_leaves_every_byte_unchanged(monkeypatch, block):
    rows = np.random.default_rng(block).standard_normal((20, 100))
    cfg = FisherConfig(block_size=block, dampening=1e-6, num_grads=20)
    whole = build_fisher_inverse(rows, cfg)
    monkeypatch.setattr(fisher, "CHUNK_VALUES", 1)  # one block per chunk
    chunked = build_fisher_inverse(rows, cfg)
    assert [b.tobytes() for b in chunked.blocks] == [b.tobytes() for b in whole.blocks]


def test_stream_yields_passes_then_the_partial_block(monkeypatch):
    """Stacks are one solver pass each, then the partial block on its own;
    each is filled in sub-batches whose rows hold at most ``CHUNK_VALUES``
    values, and neither grouping changes a byte."""
    rows = np.random.default_rng(3).standard_normal((6, 44))  # 5 blocks of 8, one of 4
    cfg = FisherConfig(block_size=8, dampening=1e-6, num_grads=6)
    whole = build_fisher_inverse(rows, cfg)
    batches = []
    real = fisher._fill_blocks
    monkeypatch.setattr(fisher, "_fill_blocks",
                        lambda rows3, *args: batches.append(rows3.shape) or real(rows3, *args))
    monkeypatch.setattr(fisher, "PASS_VALUES", 3 * 8 * 8)  # three blocks per stack
    monkeypatch.setattr(fisher, "CHUNK_VALUES", 2 * 8 * 8)  # two blocks per sub-batch
    stacks = list(iter_block_inverses([(rows, None)], cfg))
    assert [s.shape for s in stacks] == [(3, 8, 8), (2, 8, 8), (1, 4, 4)]
    assert batches == [(2, 6, 8), (1, 6, 8), (2, 6, 8), (1, 6, 4)]
    assert all(np.prod(b) <= fisher.CHUNK_VALUES for b in batches)
    assert all(s.dtype == np.float64 for s in stacks)
    assert [b.tobytes() for s in stacks for b in s] == [b.tobytes() for b in whole.blocks]


def test_stream_validates_every_row_at_the_call():
    """A non-finite unused row fails when the stream is made, before any
    block is built or drawn."""
    rows = np.random.default_rng(9).standard_normal((6, 4))
    rows[5, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        iter_block_inverses([(rows, None)], FisherConfig(4, 1e-8, 2))


def test_nonfinite_rows_rejected():
    rows = np.ones((3, 4))
    rows[1, 2] = np.nan
    with pytest.raises(ValueError):
        build_fisher_inverse(rows, FisherConfig(4, 1e-8, 3))


def test_nonfinite_unused_row_rejected():
    """Rows beyond the num_grads cap take no part in the inverse but are
    still checked."""
    rows = np.random.default_rng(9).standard_normal((6, 4))
    rows[5, 1] = np.inf
    with pytest.raises(ValueError):
        build_fisher_inverse(rows, FisherConfig(4, 1e-8, 2))


@pytest.mark.parametrize(
    "n, d, block, num_grads, dtype",
    [
        (5, 32, 16, None, np.float64),  # N < B: Woodbury form
        (16, 32, 16, None, np.float64),  # N = B
        (40, 32, 16, None, np.float64),  # N > B
        (12, 40, 16, None, np.float64),  # trailing block of 8 takes the other form
        (40, 32, 16, None, np.float32),
        (50, 24, 8, 10, np.float64),  # only the first 10 rows count
    ],
)
@pytest.mark.parametrize("damp", [1e-2, 1e-6, 1e-8])
def test_matches_sherman_morrison_reference_and_dense(n, d, block, num_grads, dtype, damp):
    rows = np.random.default_rng(n * d + block).standard_normal((n, d)).astype(dtype)
    cfg = FisherConfig(block_size=block, dampening=damp, num_grads=num_grads or n)
    inv = build_fisher_inverse(GradientSet("l", rows), cfg)
    ref = sm_reference_blocks(rows, cfg)
    used = rows[: cfg.num_grads].astype(np.float64)
    assert [b.shape[0] for b in inv.blocks] == block_partition(d, block)
    for b, (lo, hi) in enumerate(zip(inv.offsets[:-1], inv.offsets[1:])):
        others = [ref[b]]
        # at 1e-8 a rank-deficient block has condition number ~1e9, and
        # dense inversion itself strays ~2e-8 from an extended-precision
        # inverse, while both builds stay within 1e-8 of it
        if damp >= 1e-6:
            others.append(np.linalg.inv(dense_fisher(used[:, lo:hi], damp)))
        for other in others:
            rel = np.abs(inv.blocks[b] - other).max() / np.abs(other).max()
            assert rel < 1e-8, f"block {b}: rel err {rel:.2e}"


def refined_inverse(rows: np.ndarray, damp: float) -> np.ndarray:
    """Inverse of damp*I + rows'rows/N, formed in extended precision and
    Newton-refined (X <- X (2I - F X)) from a float64 start."""
    n, d = rows.shape
    r = np.asarray(rows, dtype=np.longdouble)
    f = r.T @ r / n + damp * np.eye(d, dtype=np.longdouble)
    x = np.linalg.inv(f.astype(np.float64)).astype(np.longdouble)
    two = 2 * np.eye(d, dtype=np.longdouble)
    for _ in range(3):
        x = x @ (two - f @ x)
    return x


@pytest.mark.parametrize("damp, tol", [(1e-8, 3e-10), (1e-6, 3e-12)])
def test_woodbury_form_matches_refined_reference(damp, tol):
    """Fewer rows than the block size on strongly correlated coordinates,
    at the default dampening: the Woodbury build stays within ``tol`` of
    an extended-precision inverse, where the float64 Fisher's condition
    number is about 1/damp."""
    idx = np.arange(64)
    corr = np.linalg.cholesky(0.9 ** np.abs(idx[:, None] - idx[None, :]))
    worst = 0.0
    for seed in range(20):
        rows = np.random.default_rng(seed).standard_normal((32, 64)) @ corr.T
        (got,) = build_fisher_inverse(rows, FisherConfig(64, damp, 32)).blocks
        ref = refined_inverse(rows, damp)
        worst = max(worst, float(np.abs(got - ref).max() / np.abs(ref).max()))
    assert worst < tol, f"rel err {worst:.2e}"


def test_config_validation():
    with pytest.raises(ValueError):
        FisherConfig(block_size=0, dampening=1e-8, num_grads=1)
    with pytest.raises(ValueError):
        FisherConfig(block_size=4, dampening=-1.0, num_grads=1)
    with pytest.raises(ValueError):
        FisherConfig(block_size=4, dampening=1e-8, num_grads=0)


def test_block_of_and_diagonal():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((10, 7))
    cfg = FisherConfig(block_size=3, dampening=1e-3, num_grads=10)
    inv = build_fisher_inverse(rows, cfg)
    assert inv.global_dim == 7
    assert inv.block_of(0) == (0, 0)
    assert inv.block_of(5) == (1, 2)
    assert inv.block_of(6) == (2, 0)
    assert all((np.diag(b) > 0.0).all() for b in inv.blocks)


# -- elimination ---------------------------------------------------------------

def test_eliminate_worked_example():
    """inv = (1/3)[[2,-1],[-1,2]]; removing index 0 leaves the exact inverse
    of the remaining 1x1 system, diag(0, 1/2)."""
    inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    out = eliminate_index(inv, 0)
    np.testing.assert_allclose(out, np.diag([0.0, 0.5]), atol=1e-15)
    # input untouched
    np.testing.assert_allclose(inv, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 9))
def test_eliminate_equals_deletion_inverse(seed, d):
    """Eliminating i from F^-1 must equal inverting F with row/col i deleted,
    on the surviving coordinates."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((d + 3, d))
    fisher = dense_fisher(rows, 1e-2)
    inv = np.linalg.inv(fisher)
    i = int(rng.integers(d))
    out = eliminate_index(inv, i)
    keep = [j for j in range(d) if j != i]
    ref = np.linalg.inv(fisher[np.ix_(keep, keep)])
    np.testing.assert_allclose(out[np.ix_(keep, keep)], ref, atol=1e-8)
    assert out[i, i] == 0.0
    assert not out[i, :].any() and not out[:, i].any()


def test_eliminate_sequence_order_independent_result():
    rng = np.random.default_rng(6)
    fisher = dense_fisher(rng.standard_normal((9, 6)), 1e-2)
    inv = np.linalg.inv(fisher)
    a = eliminate_index(eliminate_index(inv, 1), 4)
    b = eliminate_index(eliminate_index(inv, 4), 1)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_eliminate_tiny_pivot_raises():
    inv = np.diag([1e-15, 1.0])
    with pytest.raises(DegeneratePivotError):
        eliminate_index(inv, 0)


def test_eliminate_clamped_warns_and_proceeds():
    inv = np.diag([1e-15, 1.0])
    with pytest.warns(DegenerateCurvatureWarning):
        out = eliminate_index_clamped(inv, 0)
    assert out[0, 0] == 0.0
    assert np.isfinite(out).all()


def test_eliminate_clamped_matches_plain_when_healthy():
    rng = np.random.default_rng(7)
    fisher = dense_fisher(rng.standard_normal((8, 5)), 1e-2)
    inv = np.linalg.inv(fisher)
    np.testing.assert_array_equal(
        eliminate_index_clamped(inv, 2), eliminate_index(inv, 2)
    )


def test_freeze_indices_removes_from_every_block():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((20, 8))
    cfg = FisherConfig(block_size=4, dampening=1e-3, num_grads=20)
    inv = build_fisher_inverse(rows, cfg)
    frozen = freeze_indices(inv, [1, 6])
    # frozen indices have zeroed rows/cols and dead diagonal
    assert frozen.blocks[0][1, 1] == 0.0
    assert frozen.blocks[1][2, 2] == 0.0
    # survivors match dense inversion of the reduced system within each block
    keep0 = [0, 2, 3]
    ref0 = np.linalg.inv(dense_fisher(rows[:, :4], 1e-3)[np.ix_(keep0, keep0)])
    np.testing.assert_allclose(
        frozen.blocks[0][np.ix_(keep0, keep0)], ref0, atol=1e-9
    )
    # untouched block shares no state with the original
    np.testing.assert_array_equal(frozen.blocks[0][1], np.zeros(4))
    assert inv.blocks[0][1, 1] > 0.0


# -- the frozen build ----------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "n, damp",
    [
        (5, 1e-4),  # every block in the Woodbury form
        (12, 1e-4),  # full blocks of 16 in the Woodbury form, the partial 8 by LU
        (40, 1e-6),  # every block by LU
    ],
)
def test_frozen_build_equals_schur_downdated_inverse(n, damp, dtype):
    """Blocks 0 and 2 and the partial block 3 freeze about a third of
    their weights, block 1 all of them. The build equals the old path, the whole
    inverse with every frozen coordinate eliminated by Schur downdates, and
    the inverse of the Fisher restricted to the movable weights; every
    frozen row and column is exactly zero."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, 56)).astype(dtype)  # three blocks of 16 and one of 8
    movable = rng.random(56) > 1 / 3
    movable[16:32] = False
    cfg = FisherConfig(16, damp, n)
    got = build_fisher_inverse(rows, cfg, movable)
    ref = freeze_indices(build_fisher_inverse(rows, cfg), np.flatnonzero(~movable))
    used = rows.astype(np.float64)
    assert [b.shape[0] for b in got.blocks] == [16, 16, 16, 8]
    for b, (lo, hi) in enumerate(zip(got.offsets[:-1], got.offsets[1:])):
        blk, keep = got.blocks[b], movable[lo:hi]
        assert not blk[~keep].any() and not blk[:, ~keep].any()
        if not keep.any():
            continue
        restricted = np.linalg.inv(dense_fisher(used[:, lo:hi], damp)[np.ix_(keep, keep)])
        for other in (ref.blocks[b][np.ix_(keep, keep)], restricted):
            rel = np.abs(blk[np.ix_(keep, keep)] - other).max() / np.abs(other).max()
            assert rel < 1e-8, f"block {b}: rel err {rel:.2e}"


@pytest.mark.parametrize("n", [6, 12])  # Woodbury form, Gram form from a view
def test_a_chunk_with_nothing_frozen_is_built_as_before(monkeypatch, n):
    """Only chunks that hold a frozen weight are masked, and never in the
    caller's rows: with one block per chunk, every block without a frozen
    weight keeps the unfrozen build's bytes."""
    monkeypatch.setattr(fisher, "CHUNK_VALUES", 8 * n)
    rows = np.random.default_rng(5).standard_normal((n, 28))
    before = rows.tobytes()
    movable = np.ones(28, dtype=bool)
    movable[[9, 26]] = False  # in block 1 and in the partial block
    cfg = FisherConfig(8, 1e-6, n)
    got = build_fisher_inverse(rows, cfg, movable).blocks
    assert rows.tobytes() == before
    plain = build_fisher_inverse(rows, cfg).blocks
    assert [got[b].tobytes() == plain[b].tobytes() for b in range(4)] == [
        True, False, True, False]
    assert not got[1][1].any() and not got[3][2].any()


def test_movable_mask_must_have_one_flag_per_weight():
    rows = np.ones((3, 8))
    with pytest.raises(ValueError, match="movable mask"):
        iter_block_inverses([(rows, np.ones(7, dtype=bool))], FisherConfig(4, 1e-8, 3))
