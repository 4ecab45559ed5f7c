"""Acceptance gate: one test per shipping criterion.

Each criterion below is verified end to end with pinned tolerances; the
terminal summary prints one PASS/FAIL line per criterion. These overlap
the unit tests on purpose: this file is the contract, the unit files are
the diagnostics.
"""

import io
import time
import tracemalloc

import numpy as np
import pytest

from obsprune import pipeline
from obsprune.cli import main as cli_main
from obsprune.fisher import FisherConfig, build_fisher_inverse
from obsprune.obs_core import (
    loss_increase,
    saliency_group,
    saliency_single,
    update_group,
    update_single,
)
from obsprune.oracle import exhaustive_best_subset, sparse_regression_min
from obsprune.pruners import PrunerSpec, run_pruner, split_by_layer
from obsprune.schedules import LrSchedule, lr_at
from obsprune.solver import solve_global, solve_nm
from obsprune.tensorstore import GradientSet, TensorContainer, nm_violations, write_container

from conftest import dense_fisher


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_criterion_01_fisher_inverse_matches_dense_inversion():
    """100 random instances (d<=64, B in {1,8,16,d}, N<=256): the batched
    build agrees with per-block dense inversion within 1e-8 relative,
    in under 10 seconds."""
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    for trial in range(100):
        d = int(rng.integers(1, 65))
        block = int(rng.choice([1, 8, 16, d]))
        n = int(rng.integers(1, 257))
        damp = float(rng.choice([1e-6, 1e-4, 1e-2]))
        rows = rng.standard_normal((n, d))
        inv = build_fisher_inverse(rows, FisherConfig(block, damp, n))
        for b, (lo, hi) in enumerate(zip(inv.offsets[:-1], inv.offsets[1:])):
            ref = np.linalg.inv(dense_fisher(rows[:, lo:hi], damp))
            rel = np.abs(inv.blocks[b] - ref).max() / np.abs(ref).max()
            assert rel < 1e-8, f"trial {trial} block {b}: rel err {rel:.2e}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_saliency_matches_applied_update_cost():
    """100 random SPD instances at B=d: the quadratic cost actually paid by
    update_single / update_group equals the corresponding saliency within
    1e-9 relative."""
    rng = np.random.default_rng(20)
    for trial in range(100):
        d = int(rng.integers(2, 17))
        n = int(rng.integers(2 * d, 4 * d))
        damp = 1e-3
        rows = rng.standard_normal((n, d))
        inv = build_fisher_inverse(rows, FisherConfig(d, damp, n))
        gset = GradientSet("0", rows)
        w = rng.standard_normal(d)

        i = int(rng.integers(d))
        rho = saliency_single(w, inv, i)
        paid = loss_increase(w, update_single(w, inv, i).apply(w), gset, damp)
        assert paid == pytest.approx(rho, rel=1e-9, abs=1e-15)

        q = sorted(rng.choice(d, size=min(3, d), replace=False).tolist())
        rho_q = saliency_group(w, inv, q)
        paid_q = loss_increase(w, update_group(w, inv, q).apply(w), gset, damp)
        assert paid_q == pytest.approx(rho_q, rel=1e-9, abs=1e-15)


def test_criterion_03_full_elimination_equals_half_quadratic():
    """Running any block dry accumulates exactly 0.5 w'Fw within 1e-8."""
    from obsprune.solver import solve_block

    fisher = np.array([[2.0, 1.0], [1.0, 2.0]])
    trace = solve_block(np.array([1.0, 1.0]), np.linalg.inv(fisher), block_id=0)
    assert trace.cumulative[-1] == pytest.approx(3.0, rel=1e-12)

    rng = np.random.default_rng(30)
    for trial in range(50):
        d = int(rng.integers(1, 13))
        rows = rng.standard_normal((3 * d, d))
        fisher = dense_fisher(rows, 1e-3)
        w = rng.standard_normal(d)
        trace = solve_block(w.copy(), np.linalg.inv(fisher), block_id=0)
        assert trace.cumulative[-1] == pytest.approx(
            0.5 * w @ fisher @ w, rel=1e-8
        )


def test_criterion_04_quadratic_and_regression_supports_coincide():
    """200 random instances (d<=10, m<=16, k<=3, damp in {1e-8, 1e-2}): the
    ridge-augmented sparse regression picks the same zero-support as the
    exhaustive quadratic search, every single time, in under 60 s."""
    rng = np.random.default_rng(40)
    t0 = time.perf_counter()
    for trial in range(200):
        d = int(rng.integers(2, 11))
        m = int(rng.integers(2, 17))
        k = int(rng.integers(1, min(3, d) + 1))
        damp = 1e-8 if trial % 2 == 0 else 1e-2
        rows = rng.standard_normal((m, d))
        w = rng.standard_normal(d)
        fisher = dense_fisher(rows, damp)
        q_idx, _ = exhaustive_best_subset(w, fisher, k)
        r_idx, _, _ = sparse_regression_min(rows, w, k, damp)
        assert q_idx == r_idx, f"trial {trial}: {q_idx} vs {r_idx}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_greedy_close_to_exhaustive():
    """200 random instances (d<=10, k<=4): the greedy total is within 1.2x
    of the exhaustive optimum on at least 95%, and identical to it whenever
    k=1 with a full-width block."""
    rng = np.random.default_rng(777)
    within = 0
    for trial in range(200):
        d = int(rng.integers(4, 11))
        k = int(rng.integers(1, min(4, d) + 1))
        m = int(rng.integers(2 * d, 3 * d))
        rows = rng.standard_normal((m, d))
        damp = 1e-2
        fisher = dense_fisher(rows, damp)
        inv = build_fisher_inverse(rows, FisherConfig(d, damp, m))
        w = rng.standard_normal(d)
        res = solve_global(w.copy(), inv, k)
        idx, best = exhaustive_best_subset(w, fisher, k)
        within += res.predicted_loss_increase <= 1.2 * best + 1e-15
        if k == 1:
            assert tuple(np.flatnonzero(res.mask == 0)) == idx
            assert res.predicted_loss_increase == pytest.approx(best, rel=1e-6)
    assert within >= 190, f"only {within}/200 within 1.2x"


def _true_increase(model, method, sparsity):
    m = pipeline.ToyModel(model.dims, model.copy_weights(), model.inputs,
                          model.targets, model.loss_kind)
    damp = 1e-6 if method == "wf" else 1e-8
    spec = PrunerSpec(
        method=method,
        fisher=FisherConfig(block_size=16, dampening=damp, num_grads=4096),
        nm=None, recomputations=1, per_layer=False, threads=1,
    )
    grads = pipeline.collect_grads(m, m.num_samples)
    res = run_pruner(spec, m.weights, grads, sparsity=sparsity)
    new = split_by_layer(res.new_weights, res.layout)
    for k in m.weights:
        m.weights[k] = new[k].reshape(m.weights[k].shape)
    return pipeline.model_loss(m)


def test_criterion_06_method_ordering_on_correlated_quadratics():
    """200 seeded correlated toy quadratics, 50% and 75% sparsity: mean
    true loss increase orders stateful <= frozen-score <= magnitude."""
    means = {s: {"gm": 0.0, "wf": 0.0, "ovit": 0.0} for s in (0.5, 0.75)}
    n = 200
    for seed in range(n):
        model = pipeline.make_quadratic_toy(seed, d=64, n_base=96, input_corr=0.6)
        for s in (0.5, 0.75):
            for method in ("gm", "wf", "ovit"):
                means[s][method] += _true_increase(model, method, s) / n
    for s in (0.5, 0.75):
        r = means[s]
        assert r["ovit"] <= r["wf"] <= r["gm"], f"at {s}: {r}"


def test_criterion_07_nm_masks_comply_and_run_end_to_end(tmp_path):
    """Every m-group of a solve_nm mask keeps exactly n weights on
    unconstrained fixtures, and a 2:4 prune of the bundled toy passes the
    compliance check of the eval command."""
    rng = np.random.default_rng(70)
    for n_keep, m_group in ((2, 4), (1, 4), (4, 8)):
        d = 64
        rows = rng.standard_normal((96, d))
        inv = build_fisher_inverse(rows, FisherConfig(16, 1e-4, 96))
        w = rng.standard_normal(d)
        res = solve_nm(w.copy(), inv, n_keep, m_group)
        groups = res.mask.reshape(-1, m_group)
        assert (groups.sum(axis=1) == n_keep).all()
        assert nm_violations(res.mask, n_keep, m_group) == 0

    model = pipeline.toy_train(2024, (8, 16, 4), steps=80, lr=0.05)
    grads = pipeline.collect_grads(model, 64)
    wbox, gbox = TensorContainer(), TensorContainer()
    for lid, wt in model.weights.items():
        wbox.add(f"layer.{lid}.weight", wt)
        gbox.add(f"layer.{lid}.grads", grads[lid].samples)
    wpath, gpath = tmp_path / "w.ovpt", tmp_path / "g.ovpt"
    write_container(wpath, wbox)
    write_container(gpath, gbox)
    out_path = tmp_path / "nm.ovpt"
    code, _ = run_cli("prune", "--weights", str(wpath), "--grads", str(gpath),
                      "--method", "ovit", "--nm", "2:4", "--block-size", "8",
                      "--out", str(out_path))
    assert code == 0
    code, text = run_cli("eval", "--weights-before", str(wpath),
                         "--weights-after", str(out_path),
                         "--grads", str(gpath), "--nm", "2:4")
    assert code == 0
    assert "nm\tviolations\t0" in text


def test_criterion_08_learning_rate_schedule_values_and_period():
    """Defaults 5e-4 -> 1e-5 with T=20: exact values at t in
    {0, T/2, T, 3T/2} and exact periodicity for every t < 10T."""
    s = LrSchedule()
    assert s.lr_max == 5e-4 and s.lr_min == 1e-5 and s.period == 20
    expect_half = 5e-4 - (5e-4 - 1e-5) * 0.5
    assert lr_at(s, 0) == 5e-4
    assert lr_at(s, 10) == expect_half
    assert lr_at(s, 20) == 5e-4
    assert lr_at(s, 30) == expect_half
    for t in range(200):
        assert lr_at(s, t) == lr_at(s, t + 20)


def test_criterion_09_sweep_emits_exact_monotone_checkpoints():
    """One gradual run over {0.5, 0.6, 0.75, 0.8, 0.9} yields five
    checkpoints at exactly those sparsities with monotone masks."""
    model = pipeline.toy_train(90, (10, 16, 5), steps=100, lr=0.05)
    total = sum(v.size for v in model.weights.values())
    assert total == 240  # all five targets are exact multiples of 1/240
    spec = PrunerSpec(
        method="ovit",
        fisher=FisherConfig(block_size=16, dampening=1e-8, num_grads=4096),
        nm=None, recomputations=1, per_layer=False, threads=1,
    )
    report, checkpoints = pipeline.run_gradual(
        model, spec, (0.5, 0.6, 0.75, 0.8, 0.9), 10, LrSchedule(5e-3, 1e-4, 10)
    )
    assert len(checkpoints) == 5
    prev_zero = np.zeros(total, dtype=bool)
    for target, _, masks in checkpoints:
        flat = np.concatenate([m.reshape(-1) for m in masks.values()])
        zero = flat == 0
        assert zero.mean() == target  # exact, no tolerance
        assert (prev_zero <= zero).all()  # monotone growth
        prev_zero = zero


def test_criterion_10_linear_time_and_memory_in_dimension():
    """At fixed B=16, doubling d from 2^14 to 2^15 grows solve_global wall
    time by at most 2.5x, and peak additional memory stays below c*d*B
    floats for a small measured c."""
    B = 16

    def setup(d):
        rng = np.random.default_rng(99)
        rows = rng.standard_normal((48, d))
        inv = build_fisher_inverse(rows, FisherConfig(B, 1e-4, 48))
        return rng.standard_normal(d), inv

    def solve_seconds(d):
        w, inv = inputs[d]
        t0 = time.perf_counter()
        solve_global(w.copy(), inv, d // 2)
        return time.perf_counter() - t0

    sizes = (2**14, 2**15)
    inputs = {d: setup(d) for d in (2**12, *sizes)}
    solve_seconds(2**12)  # warm-up
    # best of five per size, the sizes interleaved: a scheduler stall can
    # double a single 25-50 ms solve, and interleaving spreads a slow
    # stretch of a shared machine over both sizes instead of one
    best = dict.fromkeys(sizes, np.inf)
    for _ in range(5):
        for d in sizes:
            best[d] = min(best[d], solve_seconds(d))
    ratio = best[2**15] / best[2**14]
    assert ratio <= 2.5, f"time ratio {ratio:.2f}"

    d = 2**15
    w, inv = inputs[d]
    tracemalloc.start()
    solve_global(w.copy(), inv, d // 2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    c = peak / (d * B * 8)
    assert c <= 4.0, f"memory constant c={c:.2f}"


def test_criterion_11_cli_reports_are_byte_identical(tmp_path):
    """Every command, fixed seed: identical bytes across two runs and
    across --threads {1, 4} where the flag exists."""
    model = pipeline.toy_train(110, (6, 10, 4), steps=60, lr=0.05)
    grads = pipeline.collect_grads(model, 48)
    wbox, gbox = TensorContainer(), TensorContainer()
    for lid, wt in model.weights.items():
        wbox.add(f"layer.{lid}.weight", wt)
        gbox.add(f"layer.{lid}.grads", grads[lid].samples)
    wpath, gpath = tmp_path / "w.ovpt", tmp_path / "g.ovpt"
    write_container(wpath, wbox)
    write_container(gpath, gbox)

    def once(tag, threads):
        outputs = []
        p_out = tmp_path / f"p{tag}.ovpt"
        code, text = run_cli("prune", "--weights", str(wpath), "--grads",
                             str(gpath), "--method", "ovit", "--sparsity",
                             "0.5", "--block-size", "8", "--threads", threads,
                             "--out", str(p_out))
        assert code == 0
        outputs.append(text)
        outputs.append(p_out.read_bytes())
        code, text = run_cli("eval", "--weights-before", str(wpath),
                             "--weights-after", str(p_out), "--grads", str(gpath))
        assert code == 0
        outputs.append(text)
        code, text = run_cli("toy", "--seed", "9", "--dims", "6,8,4",
                             "--steps", "40", "--sparsity", "0.5",
                             "--recovery", "10", "--threads", threads)
        assert code == 0
        outputs.append(text)
        s_out = tmp_path / f"s{tag}"
        code, text = run_cli("sweep", "--seed", "9", "--dims", "6,8,4",
                             "--steps", "40", "--targets", "0.25,0.5",
                             "--interval", "10", "--threads", threads,
                             "--out", str(s_out))
        assert code == 0
        outputs.append(text.replace(str(s_out), "OUT"))
        for t in (0.25, 0.5):
            outputs.append((tmp_path / f"s{tag}.{t:g}.ovpt").read_bytes())
        code, text = run_cli("oracle", "--seed", "4", "--dim", "6", "--k", "2")
        assert code == 0
        outputs.append(text)
        return outputs

    a = once("a", "1")
    b = once("b", "1")
    c = once("c", "4")
    assert a == b, "rerun with identical flags changed output"
    assert a == c, "thread count changed output"
