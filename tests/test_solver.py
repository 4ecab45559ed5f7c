"""Greedy block solver: traces, global merge, n:m mode, determinism."""

import io
import itertools
import os
import pathlib
import subprocess
import sys
import threading
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsprune.fisher import (
    EPS_FLOOR,
    DegenerateCurvatureWarning,
    FisherBlockInverse,
    FisherConfig,
    build_fisher_inverse,
)
from obsprune.solver import (
    eliminate_blocks,
    solve_block,
    solve_global,
    solve_nm,
)
from obsprune.tensorstore import Spill, nm_violations

from conftest import inverse_from_dense, random_spd
from reference_fisher import eliminate_index_clamped, freeze_indices


class Reference(NamedTuple):
    order: np.ndarray
    cumulative: np.ndarray
    states: np.ndarray
    final: np.ndarray
    clamp_events: int


def reference_block(w, inv, prunable=None, pinned=(), nm=None):
    """Greedy elimination on one block with a full B x B downdate per step.

    The plain loop that the lockstep kernel replaces, kept as its
    reference. ``inv`` comes frozen at the non-prunable coordinates, as
    the build makes it, and they are never selected: ``pinned`` go first
    in index order, then the live eligible weight of least saliency,
    until every prunable weight (or every n:m group quota) is used up.
    Clamped pivots are counted.
    """
    w = np.array(w, dtype=np.float64)
    inv = np.array(inv, dtype=np.float64)
    dim = w.size
    alive = np.ones(dim, dtype=bool) if prunable is None else np.array(prunable, dtype=bool)
    clamps = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCurvatureWarning)
        gid = np.zeros(dim, dtype=np.int64)  # global mode: one group whose
        quota = np.array([dim])  # quota never binds
        if nm is not None:
            n, m = nm
            gid = np.arange(dim) // m
            quota = np.minimum(m - n, np.bincount(gid[alive], minlength=dim // m))
        counts = np.zeros(quota.size, dtype=np.int64)
        pinned_list = sorted(int(p) for p in pinned)
        max_steps = int(min(alive.sum(), quota.sum()))
        order = np.empty(max_steps, dtype=np.int64)
        cumulative = np.empty(max_steps)
        states = np.empty((max_steps, dim))
        err = 0.0
        for t in range(max_steps):
            if t < len(pinned_list):
                i = pinned_list[t]
            else:
                live = np.flatnonzero(alive & (counts[gid] < quota[gid]))
                diag = np.maximum(inv[live, live], EPS_FLOOR)
                rho = w[live] ** 2 / (2.0 * diag)
                i = int(live[int(np.argmin(rho))])  # first min = lowest index
            pivot = max(float(inv[i, i]), EPS_FLOOR)
            err += float(w[i]) ** 2 / (2.0 * pivot)
            w += -(w[i] / pivot) * inv[:, i]
            w[i] = 0.0
            order[t] = i
            cumulative[t] = err
            states[t] = w
            clamps += bool(inv[i, i] <= EPS_FLOOR)
            inv = eliminate_index_clamped(inv, i)
            alive[i] = False
            counts[gid[i]] += 1
    return Reference(order, cumulative, states, w, clamps)


def make_inverse(rng, d, block_size, damp=1e-3, n=None, movable=None):
    rows = rng.standard_normal((n or 3 * d, d))
    cfg = FisherConfig(block_size=block_size, dampening=damp, num_grads=rows.shape[0])
    return rows, build_fisher_inverse(rows, cfg, movable)


def test_two_weight_trace_by_hand():
    """F = [[2,1],[1,2]], w = [1,1]. Step 1 ties at 3/4 and takes index 0,
    leaving w = [0, 3/2] on a decoupled system; step 2 costs (3/2)^2 * 2 / 2
    + the earlier 3/4, i.e. the full quadratic 0.5 w'Fw = 3."""
    w = np.array([1.0, 1.0])
    fisher = np.array([[2.0, 1.0], [1.0, 2.0]])
    trace = solve_block(w, np.linalg.inv(fisher), block_id=0)
    assert list(trace.order) == [0, 1]
    np.testing.assert_allclose(trace.cumulative, [0.75, 3.0], atol=1e-12)
    np.testing.assert_allclose(trace.states[0], [0.0, 1.5], atol=1e-12)
    np.testing.assert_allclose(trace.states[1], [0.0, 0.0], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 10))
def test_full_elimination_recovers_the_whole_quadratic(seed, d):
    """Running the block dry must account for exactly 0.5 w'Fw: the
    per-step costs telescope, whatever order the greedy picked."""
    rng = np.random.default_rng(seed)
    fisher = random_spd(rng, d)
    w = rng.standard_normal(d)
    trace = solve_block(w, np.linalg.inv(fisher), block_id=0)
    assert trace.cumulative[-1] == pytest.approx(0.5 * w @ fisher @ w, rel=1e-8)
    np.testing.assert_allclose(trace.states[-1], np.zeros(d), atol=1e-10)


def test_tie_break_prefers_lowest_index():
    w = np.array([2.0, 2.0, 2.0])
    trace = solve_block(w, np.eye(3), block_id=0)
    assert list(trace.order) == [0, 1, 2]


def test_cumulative_is_nondecreasing():
    rng = np.random.default_rng(0)
    fisher = random_spd(rng, 8)
    trace = solve_block(rng.standard_normal(8), np.linalg.inv(fisher), block_id=0)
    assert (np.diff(trace.cumulative) >= -1e-15).all()


class TestGlobalMerge:
    def test_k_zero_is_identity(self, rng):
        rows, inv = make_inverse(rng, 6, 3)
        w = rng.standard_normal(6)
        res = solve_global(w.copy(), inv, 0)
        assert res.mask.tolist() == [1] * 6
        np.testing.assert_array_equal(res.new_weights, w)
        assert res.predicted_loss_increase == 0.0

    def test_k_equals_d_zeroes_everything(self, rng):
        rows, inv = make_inverse(rng, 6, 3)
        w = rng.standard_normal(6)
        res = solve_global(w.copy(), inv, 6)
        assert res.mask.tolist() == [0] * 6
        np.testing.assert_allclose(res.new_weights, np.zeros(6), atol=1e-9)

    def test_mask_zero_count_is_exactly_k(self, rng):
        for k in range(0, 13):
            rows, inv = make_inverse(rng, 12, 4)
            w = rng.standard_normal(12)
            res = solve_global(w.copy(), inv, k)
            assert int(np.count_nonzero(res.mask == 0)) == k

    def test_zeroed_weights_are_exactly_zero(self, rng):
        rows, inv = make_inverse(rng, 10, 5)
        w = rng.standard_normal(10) + 2.0
        res = solve_global(w.copy(), inv, 7)
        assert (res.new_weights[res.mask == 0] == 0.0).all()
        assert (res.new_weights[res.mask == 1] != 0.0).all()

    def test_selection_is_a_prefix_of_each_block_order(self, rng):
        """Whatever the merge picks inside one block must be the first
        few eliminations of that block, never a mid-order subset. The
        per-block greedy is deterministic, so re-solving a block alone
        reproduces the order the merge saw."""
        for trial in range(10):
            rows, inv = make_inverse(rng, 16, 4)
            w = rng.standard_normal(16)
            res = solve_global(w.copy(), inv, 9)
            zeros = np.flatnonzero(res.mask == 0)
            for b in range(len(inv.blocks)):
                lo, hi = inv.offsets[b], inv.offsets[b + 1]
                trace = solve_block(w[lo:hi].copy(), inv.blocks[b], block_id=b)
                chosen = {int(i - lo) for i in zeros if lo <= i < hi}
                assert chosen == set(int(v) for v in trace.order[: len(chosen)])

    def test_predicted_is_sum_of_selected_prefix_costs(self, rng):
        rows, inv = make_inverse(rng, 12, 6)
        w = rng.standard_normal(12)
        res = solve_global(w.copy(), inv, 5)
        zeros = np.flatnonzero(res.mask == 0)
        total = 0.0
        for b in range(len(inv.blocks)):
            lo, hi = inv.offsets[b], inv.offsets[b + 1]
            trace = solve_block(w[lo:hi].copy(), inv.blocks[b], block_id=b)
            t = sum(1 for i in zeros if lo <= i < hi)
            if t:
                total += trace.cumulative[t - 1]
        assert res.predicted_loss_increase == pytest.approx(total, rel=1e-12)

    def test_single_weight_blocks_reduce_to_magnitude_like_ranking(self, rng):
        """With one weight per block the costs are w_i^2/(2 inv_ii) and no
        compensation can happen, so selection is plain top-k on those."""
        rows, inv = make_inverse(rng, 9, 1)
        w = rng.standard_normal(9)
        res = solve_global(w.copy(), inv, 4)
        rho = w**2 / (2.0 * np.concatenate([np.diag(b) for b in inv.blocks]))
        expect = set(np.argsort(rho, kind="stable")[:4])
        assert set(np.flatnonzero(res.mask == 0)) == expect
        # survivors keep their exact original values
        keep = res.mask == 1
        np.testing.assert_array_equal(res.new_weights[keep], w[keep])

    def test_non_prefix_selection_trips_the_bug_trap(self, rng, monkeypatch):
        """Costs that fall along a block's order would make the merge pick
        a mid-order subset; the solver must refuse instead of reloading a
        meaningless snapshot."""
        from obsprune import solver

        real = solver.eliminate_blocks

        def reversed_costs(*args, **kwargs):
            passes = real(*args, **kwargs)
            for p in passes:
                for b, s in enumerate(p.steps):
                    p.cumulative[b, :s] = p.cumulative[b, :s][::-1].copy()
            return passes

        monkeypatch.setattr(solver, "eliminate_blocks", reversed_costs)
        rows, inv = make_inverse(rng, 8, 4)
        with pytest.raises(solver.InternalSolverError, match="not a prefix"):
            solve_global(rng.standard_normal(8), inv, 1)

    def test_k_out_of_range_rejected(self, rng):
        rows, inv = make_inverse(rng, 4, 2)
        w = rng.standard_normal(4)
        with pytest.raises(ValueError):
            solve_global(w.copy(), inv, 5)
        with pytest.raises(ValueError):
            solve_global(w.copy(), inv, -1)


class TestConstraints:
    def test_non_prunable_weights_survive_untouched(self, rng):
        prunable = np.ones(10, dtype=bool)
        prunable[[2, 7]] = False
        rows, inv = make_inverse(rng, 10, 5, movable=prunable)
        w = rng.standard_normal(10)
        res = solve_global(w.copy(), inv, 6, prunable=prunable)
        assert res.mask[2] == 1 and res.mask[7] == 1
        assert res.new_weights[2] == w[2] and res.new_weights[7] == w[7]
        assert int(np.count_nonzero(res.mask == 0)) == 6

    def test_pinned_indices_come_out_zero(self, rng):
        rows, inv = make_inverse(rng, 12, 4)
        w = rng.standard_normal(12)
        res = solve_global(w.copy(), inv, 6, pinned=[3, 8])
        assert res.mask[3] == 0 and res.mask[8] == 0
        assert int(np.count_nonzero(res.mask == 0)) == 6

    def test_pinned_growth_is_monotone(self, rng):
        """Re-solving with last round's zeros pinned keeps them zero, so
        masks only ever shrink."""
        rows, inv = make_inverse(rng, 12, 4)
        w = rng.standard_normal(12)
        first = solve_global(w.copy(), inv, 4)
        zeros = list(np.flatnonzero(first.mask == 0))
        second = solve_global(w.copy(), inv, 8, pinned=zeros)
        assert (second.mask[first.mask == 0] == 0).all()

    def test_an_unfrozen_inverse_is_refused(self, rng):
        """The whole unfrozen inverse with one non-prunable weight: every
        solver names the block instead of compensating through it."""
        rows, inv = make_inverse(rng, 12, 4)
        w = rng.standard_normal(12)
        prunable = np.ones(12, dtype=bool)
        prunable[6] = False
        whole = r"block \[4, 8\) is not frozen: its row for non-prunable weight 6 "
        for solve, msg in (
            (lambda: eliminate_blocks(w, inv, prunable), whole),
            (lambda: solve_global(w.copy(), inv, 5, prunable=prunable), whole),
            (lambda: solve_nm(w.copy(), inv, 2, 4, prunable=prunable), whole),
            (lambda: solve_block(w[4:8], inv.blocks[1], prunable[4:8]),
             r"block \[0, 4\) is not frozen: its row for non-prunable weight 2 "),
        ):
            with pytest.raises(ValueError, match=msg):
                solve()

    def test_pinned_must_be_prunable(self, rng):
        rows, inv = make_inverse(rng, 6, 3)
        w = rng.standard_normal(6)
        prunable = np.ones(6, dtype=bool)
        prunable[1] = False
        with pytest.raises(ValueError):
            solve_global(w.copy(), inv, 3, prunable=prunable, pinned=[1])


class TestSemiStructured:
    def test_two_of_four_worked_example(self):
        """w = [0.1, -0.5, 0.2, 0.3] under identity curvature: keeping 2 of
        every 4 drops the two smallest magnitudes, 0.1 and 0.2."""
        w = np.array([0.1, -0.5, 0.2, 0.3])
        inv = inverse_from_dense(np.eye(4))
        res = solve_nm(w.copy(), inv, 2, 4)
        assert res.mask.tolist() == [0, 1, 0, 1]
        np.testing.assert_allclose(res.new_weights, [0.0, -0.5, 0.0, 0.3])

    def test_pattern_holds_on_random_instances(self, rng):
        for trial in range(8):
            d = 32
            rows = rng.standard_normal((60, d))
            cfg = FisherConfig(block_size=8, dampening=1e-3, num_grads=60)
            inv = build_fisher_inverse(rows, cfg)
            w = rng.standard_normal(d)
            res = solve_nm(w.copy(), inv, 2, 4)
            assert nm_violations(res.mask, 2, 4) == 0
            # exactly m-n zeros per group when everything is prunable
            groups = res.mask.reshape(-1, 4)
            assert (4 - groups.sum(axis=1) == 2).all()

    def test_group_quota_respects_prunable(self, rng):
        d = 8
        prunable = np.ones(d, dtype=bool)
        prunable[:3] = False  # group 0 can lose at most one weight
        rows, inv = make_inverse(rng, d, 8, n=20, movable=prunable)
        w = rng.standard_normal(d)
        res = solve_nm(w.copy(), inv, 2, 4, prunable=prunable)
        assert (res.mask[:3] == 1).all()
        assert res.mask.reshape(-1, 4)[0].sum() == 3  # one zero in group 0
        assert res.mask.reshape(-1, 4)[1].sum() == 2  # full quota in group 1

    def test_block_size_must_align(self, rng):
        rows = rng.standard_normal((10, 6))
        cfg = FisherConfig(block_size=3, dampening=1e-3, num_grads=10)
        inv = build_fisher_inverse(rows, cfg)
        with pytest.raises(ValueError):
            solve_nm(rng.standard_normal(6), inv, 2, 4)

    def test_violation_counter(self):
        mask = np.array([1, 1, 1, 0, 0, 0, 0, 1], dtype=np.uint8)
        # group 0 keeps 3 (> 2): one violation; group 1 keeps 1: none
        assert nm_violations(mask, 2, 4) == 1
        assert nm_violations(np.ones(4, dtype=np.uint8), 2, 4) == 1
        assert nm_violations(np.zeros(8, dtype=np.uint8), 2, 4) == 0


def test_per_step_states_have_compact_shape(rng, spill_files):
    """One row per elimination, one column per in-block coordinate: the
    trace buffer is steps x B, nothing quadratic in d, read back from a
    spill file that is closed once the call returns."""
    fisher = random_spd(rng, 6)
    trace = solve_block(np.ones(6), np.linalg.inv(fisher), block_id=0)
    assert trace.states.shape == (6, 6)
    assert trace.states.dtype == np.float64
    assert len(spill_files) == 1 and spill_files[0].closed


def test_global_snapshots_go_to_the_spill_step_by_step(rng):
    """A global pass writes its (nb, B) block weights after every step,
    step-major: d*B values for a solve that eliminates every weight, each
    block's row at step t equal to the reference's snapshot."""
    rows, inv = make_inverse(rng, 12, 4)
    w = rng.standard_normal(12)
    with Spill() as spill:
        (p,) = eliminate_blocks(w, inv, np.ones(12, dtype=bool), spill=spill)
        assert (p.at, spill.size) == (0, 12 * 4 * 8)
        for b in range(3):
            want = reference_block(w[4 * b : 4 * b + 4], inv.blocks[b]).states
            got = [p.state(b, t, np.empty(4)) for t in range(4)]
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)
            raw = np.empty(4)
            spill.read(raw, (3 * 2 + b) * 4 * 8)  # step 2's slab, row b
            assert raw.tobytes() == got[2].tobytes()


# -- the lockstep kernel against the per-block reference ----------------------

def assert_matches_reference(w, inv, prunable, pinned=None, nm=None):
    """Kernel traces equal the reference block by block: same orders and
    clamp counts, costs to 1e-9 relative, weights close, frozen weights
    bit-identical and eliminated weights exactly zero. A block's first
    recorded steps are exactly its pinned coordinates, in index order, and
    no later step is pinned, which is what lets ``solve_global`` read a
    record's pin from its weight."""
    pin = np.zeros(w.size, dtype=bool) if pinned is None else pinned
    with warnings.catch_warnings(), Spill() as spill:
        warnings.simplefilter("ignore", DegenerateCurvatureWarning)
        passes = eliminate_blocks(w, inv, prunable, pin, nm=nm,
                                  spill=None if nm else spill)
        blocks = [(p, j, p.block(j)) for p in passes for j in range(len(p.steps))]
    assert len(blocks) == len(inv.blocks)
    for b, (p, j, got) in enumerate(blocks):
        lo, hi = int(inv.offsets[b]), int(inv.offsets[b + 1])
        want = reference_block(w[lo:hi], inv.blocks[b], prunable[lo:hi],
                               np.flatnonzero(pin[lo:hi]), nm)
        assert p.starts[j] == lo
        np.testing.assert_array_equal(got.order, want.order)
        pins = np.flatnonzero(pin[lo:hi])
        np.testing.assert_array_equal(got.order[: pins.size], pins)
        assert not pin[lo:hi][got.order[pins.size :]].any()
        assert p.clamps[j] == want.clamp_events
        np.testing.assert_allclose(got.cumulative, want.cumulative, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.final, want.final, rtol=1e-7, atol=1e-9)
        if nm is None:
            np.testing.assert_allclose(got.states, want.states, rtol=1e-7, atol=1e-9)
            for t in range(got.order.size):
                assert (got.states[t, got.order[: t + 1]] == 0.0).all()
        else:
            assert got.states.shape == (0, hi - lo)
        frozen = ~prunable[lo:hi]
        assert got.final[frozen].tobytes() == w[lo:hi][frozen].tobytes()
        assert (got.final[got.order] == 0.0).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([4, 8, 12]),
    full_blocks=st.integers(1, 4),
    tail_groups=st.integers(0, 2),
    rows=st.integers(1, 30),
    frozen_share=st.sampled_from([0.0, 0.3, 0.6]),
    nm=st.sampled_from([None, (2, 4), (1, 4)]),
    damp=st.sampled_from([1e-2, 1e-4]),
)
@example(seed=1, block=8, full_blocks=2, tail_groups=1, rows=3, frozen_share=0.3,
         nm=(2, 4), damp=1e-4)
@example(seed=2, block=12, full_blocks=3, tail_groups=2, rows=5, frozen_share=0.3,
         nm=None, damp=1e-4)
def test_kernel_matches_per_block_reference(seed, block, full_blocks, tail_groups,
                                            rows, frozen_share, nm, damp):
    """Global mode with pins and n:m mode with reduced quotas, with frozen
    coordinates (the inverse built frozen at them), a trailing partial
    block (a multiple of 4 weights) and fewer gradient rows than the
    block size. Dampening stays at 1e-4 or above: at 1e-8 with fewer rows
    than B, both implementations are only good to about 1e-8 relative
    (checked against a long-double recomputation), so 1e-9 agreement
    would test rounding, not logic."""
    rng = np.random.default_rng(seed)
    d = full_blocks * block + 4 * tail_groups
    grads = rng.standard_normal((rows, d))
    w = rng.standard_normal(d)
    prunable = rng.random(d) >= frozen_share
    inv = build_fisher_inverse(grads, FisherConfig(block, damp, rows), prunable)
    pinned = None
    if nm is None:
        pinned = prunable & (rng.random(d) < 0.25)
    assert_matches_reference(w, inv, prunable, pinned, nm)


def degenerate_inverse():
    """Two 4x4 blocks; the second has a zero and a negative diagonal entry,
    so elimination there clamps pivots to the floor."""
    healthy = np.linalg.inv(random_spd(np.random.default_rng(5), 4))
    bad = np.array([
        [2.0, 0.5, 0.0, 0.1],
        [0.5, 0.0, 0.2, 0.0],
        [0.0, 0.2, -1.0, 0.0],
        [0.1, 0.0, 0.0, 1.5],
    ])
    return FisherBlockInverse([healthy, bad])


@pytest.mark.parametrize("nm", [None, (2, 4)])
@pytest.mark.parametrize("frozen", [(), (5,)])
def test_kernel_matches_reference_on_degenerate_pivots(nm, frozen):
    """Freezing the zero-diagonal coordinate 5 by Schur downdates clamps
    its pivot, which leaves entries of about -1e11 in the rest of its block."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCurvatureWarning)
        inv = freeze_indices(degenerate_inverse(), frozen)
    w = np.array([0.3, -1.2, 0.8, 0.5, 0.7, -0.4, 1.1, 0.9])
    prunable = np.ones(8, dtype=bool)
    prunable[list(frozen)] = False
    pinned = None if nm else np.isin(np.arange(8), [2])
    assert_matches_reference(w, inv, prunable, pinned, nm)


def test_clamps_are_counted_and_warned_once_per_solve():
    """One warning per solve carries the count; ``PruneResult`` keeps it.
    In n:m mode the greedy picks the degenerate weights 5 and 6 only when
    their group's quota leaves no other choice, so 4 and 7 are frozen."""
    inv = degenerate_inverse()
    w = np.array([0.3, -1.2, 0.8, 0.5, 0.7, -0.4, 1.1, 0.9])
    movable = np.ones(8, dtype=bool)
    movable[[4, 7]] = False
    frozen = freeze_indices(inv, [4, 7])
    for solve, prunable, block, nm in (
        (lambda: solve_global(w, inv, 6), np.ones(8, dtype=bool), inv.blocks[1], None),
        (lambda: solve_nm(w, frozen, 2, 4, prunable=movable), movable, frozen.blocks[1],
         (2, 4)),
    ):
        want = reference_block(w[4:], block, prunable[4:], nm=nm).clamp_events
        assert want >= 1
        with pytest.warns(DegenerateCurvatureWarning) as record:
            res = solve()
        assert len(record) == 1
        assert res.clamp_events == want
        assert f"clamped {want} degenerate pivot(s)" in str(record[0].message)


def test_healthy_solve_reports_no_clamps(rng):
    rows, inv = make_inverse(rng, 12, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateCurvatureWarning)
        res = solve_global(rng.standard_normal(12), inv, 6)
    assert res.clamp_events == 0


@pytest.mark.parametrize("blocks_per_chunk", [1, 3])
def test_chunking_leaves_every_byte_unchanged(rng, monkeypatch, blocks_per_chunk):
    """A block's arithmetic does not depend on which blocks share its
    lockstep chunk, so chunk size never changes an output byte."""
    from obsprune import fisher

    grads = rng.standard_normal((6, 76))  # 9 blocks of 8 and one of 4
    w = rng.standard_normal(76)
    prunable = rng.random(76) > 0.2
    inv = build_fisher_inverse(grads, FisherConfig(8, 1e-4, 6), prunable)

    def run():
        a = solve_global(w, inv, 40, prunable=prunable, pinned=np.flatnonzero(prunable)[:5])
        b = solve_nm(w, inv, 2, 4, prunable=prunable)
        return [(r.mask.tobytes(), r.new_weights.tobytes(), r.predicted_loss_increase)
                for r in (a, b)]

    whole = run()
    monkeypatch.setattr(fisher, "PASS_VALUES", blocks_per_chunk * 64)
    assert run() == whole


# -- streamed inverses ---------------------------------------------------------

@pytest.mark.parametrize("shapes", [
    [(1, 8)] * 6,
    # a layer's short last stack, then full ones and a partial block
    [(4, 8), (2, 8), (4, 8), (1, 4)],
    # stacks larger than a pass of the rule, and two stacks of one block of 4
    [(1, 8), (5, 8), (1, 8), (1, 4), (1, 4)],
], ids=["one-block", "layer-tail", "larger-than-a-pass"])
def test_stream_stacks_are_solved_one_pass_each(rng, monkeypatch, shapes):
    """A caller's stream is solved one stack per pass, each as the array
    handed over: none is joined to the next or split, where the rule's
    passes of 4 blocks would group them otherwise. When a pass is solved,
    only its stack and at most the one a worker draws are alive, and
    after the first pass every stack is drawn on a worker. Bytes equal
    the whole inverse's, which is solved in the rule's passes."""
    import weakref

    from obsprune import fisher, solver

    monkeypatch.setattr(fisher, "PASS_VALUES", 4 * 64)  # 4 blocks of 8 per pass
    blocks = [np.linalg.inv(random_spd(rng, size)) for count, size in shapes
              for _ in range(count)]
    firsts = np.cumsum([0] + [count for count, _ in shapes])  # each stack's first block
    refs, draws, solves = [], [], []

    def fresh(i):
        stack = np.stack(blocks[firsts[i] : firsts[i + 1]])
        refs.append(weakref.ref(stack))
        draws.append(threading.current_thread() is threading.main_thread())
        return stack

    def stream():  # holds no stack while it waits
        for i in range(len(shapes)):
            yield fresh(i)

    real = solver._eliminate_stack

    def recording(offset, cols0, *args):
        i = len(solves)
        alive = {j for j, ref in enumerate(refs) if ref() is not None}
        solves.append((len(cols0), cols0.base is refs[i](), len(draws)))
        assert {i} <= alive <= {i, i + 1}, (i, alive)
        return real(offset, cols0, *args)

    before = threading.active_count()
    dim = sum(b.shape[0] for b in blocks)
    w = rng.standard_normal(dim)
    with monkeypatch.context() as patch, Spill() as spill:
        patch.setattr(solver, "_eliminate_stack", recording)
        passes = eliminate_blocks(w, stream(), np.ones(dim, dtype=bool), spill=spill)
        got = [p.block(b) for p in passes for b in range(len(p.steps))]

    assert [(nb, own) for nb, own, _ in solves] == [(count, True) for count, _ in shapes]
    assert all(i + 1 <= drawn <= i + 2 for i, (_, _, drawn) in enumerate(solves))
    assert draws == [True] + [False] * (len(shapes) - 1)
    assert threading.active_count() == before

    with Spill() as spill:
        whole = eliminate_blocks(w, FisherBlockInverse(blocks), np.ones(dim, dtype=bool),
                                 spill=spill)
        ref = [p.block(b) for p in whole for b in range(len(p.steps))]
    assert [len(p.steps) for p in whole] != [count for count, _ in shapes]
    assert len(got) == len(ref) == len(blocks)
    for g, r in zip(got, ref):
        assert [a.tobytes() for a in g] == [a.tobytes() for a in r]


class ProducerError(Exception):
    pass


def one_block_stacks(rng, count, size=8):
    return [np.linalg.inv(random_spd(rng, size))[None] for _ in range(count)]


@pytest.fixture
def one_block_passes(monkeypatch):
    """Lockstep passes of one block of 8, so a whole inverse is solved one
    block per pass, as a stream of one-block stacks is."""
    from obsprune import fisher

    monkeypatch.setattr(fisher, "PASS_VALUES", 64)


def test_producer_exception_reraises_in_the_caller(rng):
    before = threading.active_count()
    raised_on = []

    def stream():
        yield from one_block_stacks(rng, 2)
        raised_on.append(threading.current_thread() is threading.main_thread())
        raise ProducerError("build failed")

    with pytest.raises(ProducerError, match="build failed"):
        eliminate_blocks(np.ones(32), stream(), np.ones(32, dtype=bool))
    assert raised_on == [False]
    assert threading.active_count() == before


def test_consumer_exception_stops_the_producer(rng):
    """The N:M boundary check fails on the third pass, while the producer
    is ready to draw from an endless stream."""
    before = threading.active_count()
    eight = one_block_stacks(rng, 1)[0]
    six = np.linalg.inv(random_spd(rng, 6))[None]
    endless = itertools.chain([eight, eight, six], itertools.repeat(eight))
    with pytest.raises(ValueError, match="multiples of m=4"):
        solve_nm(rng.standard_normal(64), endless, 2, 4)
    assert threading.active_count() == before


def test_abandoned_stream_stops_the_producer(rng):
    """A stream that covers more weights than there are is left after the
    pass that overruns, with the producer blocked on its next stack."""
    before = threading.active_count()
    drawn = []

    def endless():
        stack = one_block_stacks(rng, 1)[0]
        while True:
            drawn.append(1)
            yield stack

    with pytest.raises(ValueError, match="more than the 24 weights"):
        eliminate_blocks(np.ones(24), endless(), np.ones(24, dtype=bool))
    assert len(drawn) <= 5  # three passes solved, the overrun, one ahead
    assert threading.active_count() == before


def test_spill_is_closed_when_a_stream_worker_raises_on_its_second_pass(rng, spill_files):
    """The first pass is solved and spilled; the worker drawing the second
    raises, and the error leaves ``solve_global`` with its file closed."""

    def stream():
        yield from one_block_stacks(rng, 1)
        raise ProducerError("build failed")

    with pytest.raises(ProducerError, match="build failed"):
        solve_global(np.ones(16), stream(), 4)
    assert len(spill_files) == 1 and spill_files[0].closed


def test_spill_is_closed_when_pass_two_is_not_frozen(rng, spill_files):
    """Pass 2's inverse is refused by the frozen check after pass 1 was
    spilled, and the file is closed."""
    prunable = np.ones(16, dtype=bool)
    prunable[10] = False
    with pytest.raises(ValueError, match=r"block \[8, 16\) is not frozen"):
        solve_global(np.ones(16), one_block_stacks(rng, 2), 4, prunable=prunable)
    assert len(spill_files) == 1 and spill_files[0].closed


@pytest.mark.usefixtures("one_block_passes")
def test_producer_starts_only_for_a_stream_of_several_passes(rng, monkeypatch):
    """A whole inverse and a stream of one pass are solved without a worker;
    a stream of three passes has its first stack drawn on the caller's
    thread and the rest on workers, none of which outlives the call."""
    from obsprune import solver

    seen = []
    real = solver._eliminate_stack
    monkeypatch.setattr(solver, "_eliminate_stack",
                        lambda *a: seen.append(threading.active_count()) or real(*a))
    before = threading.active_count()
    stacks = one_block_stacks(rng, 3)
    inv = FisherBlockInverse([s[0] for s in stacks])
    on_main = []

    def stream(count):
        for stack in stacks[:count]:
            on_main.append(threading.current_thread() is threading.main_thread())
            yield stack

    eliminate_blocks(np.ones(24), inv, np.ones(24, dtype=bool))
    eliminate_blocks(np.ones(8), stream(1), np.ones(8, dtype=bool))
    assert seen == [before] * 4
    assert on_main == [True]
    on_main.clear()
    eliminate_blocks(np.ones(24), stream(3), np.ones(24, dtype=bool))
    assert on_main == [True, False, False]
    assert threading.active_count() == before


@pytest.mark.parametrize("error", [StopIteration, ProducerError])
def test_stream_end_or_error_raises_on_every_later_call(error):
    """Once a worker met the stream's end or an error, every further
    ``next`` raises it again instead of returning a stack."""
    from obsprune.solver import _Ahead

    def stream():
        yield np.zeros((1, 1, 1))
        yield np.ones((1, 1, 1))
        if error is ProducerError:
            raise ProducerError("build failed")

    ahead = _Ahead(stream())
    try:
        assert next(ahead)[0, 0, 0] == 0.0  # on the caller's thread
        ahead.start()
        assert next(ahead)[0, 0, 0] == 1.0
        for _ in range(3):
            with pytest.raises(error):
                next(ahead)
    finally:
        ahead.close()


@pytest.mark.usefixtures("one_block_passes")
def test_handover_under_frequent_thread_switches(rng):
    """With the interpreter switching threads every microsecond, 200 stacks
    handed over one at a time arrive whole and in order."""
    before = threading.active_count()
    stacks = one_block_stacks(rng, 200)
    inv = FisherBlockInverse([s[0] for s in stacks])
    w = rng.standard_normal(1600)
    want = eliminate_blocks(w, inv, np.ones(1600, dtype=bool))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = eliminate_blocks(w, iter(stacks), np.ones(1600, dtype=bool))
    finally:
        sys.setswitchinterval(interval)
    assert [p.final.tobytes() for p in got] == [p.final.tobytes() for p in want]
    assert threading.active_count() == before


def test_stream_coverage_and_nm_boundaries_are_checked(rng):
    stack = np.stack([np.linalg.inv(random_spd(rng, 8)) for _ in range(2)])
    with pytest.raises(ValueError, match="covers 16 weights, got 24"):
        eliminate_blocks(np.ones(24), [stack], np.ones(24, dtype=bool))
    with pytest.raises(ValueError, match="more than the 8 weights"):
        eliminate_blocks(np.ones(8), [stack], np.ones(8, dtype=bool))
    six = np.linalg.inv(random_spd(rng, 6))[None]
    with pytest.raises(ValueError, match="multiples of m=4"):
        solve_nm(np.ones(12), [six, six], 2, 4)


# The CLI in a child, with stripes narrower than a layer's rows, so that a
# worker reads rows by position as well as building stacks.
_CLI_NARROW_STRIPES = """
import sys
from obsprune import tensorstore
from obsprune.cli import main

tensorstore.STRIPE_BYTES = 1 << 20
sys.exit(main(sys.argv[1:]))
"""


def test_no_output_byte_depends_on_the_threads_that_exist(tmp_path, monkeypatch):
    """A global, a 2:4 and a ``wf`` prune from a gradient file, and a
    two-event sweep, write the same stdout and output bytes at one and two
    BLAS threads, each run in a child, and in-process with no stream worker
    at all. Every layer takes more than one solver pass, so the ``ovit``
    runs with workers draw stacks, and read rows, on them."""
    from obsprune import solver, tensorstore
    from obsprune.cli import main
    from obsprune.tensorstore import write_container

    rng = np.random.default_rng(8)
    wbox, gbox = {}, {}
    for lid, shape in (("0", (128, 64)), ("1", (96, 64))):  # 2 and 1.5 passes at B=64
        wbox[f"layer.{lid}.weight"] = rng.standard_normal(shape)
        gbox[f"layer.{lid}.grads"] = rng.standard_normal((80, shape[0] * shape[1]),
                                                         dtype=np.float32)
    write_container(tmp_path / "w.ovpt", wbox)
    write_container(tmp_path / "g.ovpt", gbox)
    prune = ("prune", "--weights", str(tmp_path / "w.ovpt"), "--grads",
             str(tmp_path / "g.ovpt"), "--num-grads", "72")
    commands = {
        "global": (*prune, "--method", "ovit", "--sparsity", "0.6", "--out", "global.ovpt"),
        "nm": (*prune, "--method", "ovit", "--nm", "2:4", "--out", "nm.ovpt"),
        "wf": (*prune, "--method", "wf", "--sparsity", "0.6", "--out", "wf.ovpt"),
        "sweep": ("sweep", "--seed", "2", "--dims", "48,96,24", "--steps", "20",
                  "--targets", "0.5,0.75", "--interval", "5", "--out", "cp"),
    }  # at the default block size of 64, 4,096 weights fill a pass

    def outputs(run_dir):
        return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}

    src = str(pathlib.Path(solver.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        run_dir = tmp_path / f"blas{threads}"
        run_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        stdouts = []
        for argv in commands.values():
            proc = subprocess.run([sys.executable, "-c", _CLI_NARROW_STRIPES, *argv],
                                  cwd=run_dir, env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            stdouts.append(proc.stdout)
        runs[threads] = stdouts, outputs(run_dir)

    started = []
    monkeypatch.setattr(solver._Ahead, "start", lambda self: started.append(True))
    monkeypatch.setattr(tensorstore, "STRIPE_BYTES", 1 << 20)
    run_dir = tmp_path / "no-worker"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    stdouts, workers = [], {}
    for name, argv in commands.items():
        out = io.StringIO()
        assert main(list(argv), out=out) == 0
        stdouts.append(out.getvalue())
        workers[name], started[:] = len(started), []
    runs["none"] = stdouts, outputs(run_dir)

    assert workers["global"] == workers["nm"] == 1 and workers["sweep"] == 2
    assert len(runs["1"][1]) == 5
    assert runs["1"] == runs["2"] == runs["none"]
