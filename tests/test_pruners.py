"""Method dispatch: magnitude, frozen-curvature, and full solves."""

import threading
import warnings

import numpy as np
import pytest

from obsprune.fisher import DAMPENING_DEFAULTS, DegenerateCurvatureWarning, FisherConfig
from obsprune.pruners import (
    PrunerSpec,
    flatten_layers,
    run_pruner,
    sparsity_to_k,
    split_by_layer,
)
from obsprune.tensorstore import GradientSet


def spec_for(method, block_size=8, damp=None, nm=None, recompute=1,
             per_layer=False, threads=1, num_grads=4096):
    defaults = {"gm": 1e-8, "wf": 1e-6, "ovit": 1e-8}
    return PrunerSpec(
        method=method,
        fisher=FisherConfig(block_size=block_size,
                            dampening=damp or defaults[method],
                            num_grads=num_grads),
        nm=nm,
        recomputations=recompute,
        per_layer=per_layer,
        threads=threads,
    )


def toy_layers(rng, sizes=((4, 6), (3, 4)), n=40):
    weights = {}
    grads = {}
    for i, shape in enumerate(sizes):
        lid = str(i)
        weights[lid] = rng.standard_normal(shape)
        grads[lid] = GradientSet(lid, rng.standard_normal((n, int(np.prod(shape)))))
    return weights, grads


def test_sparsity_to_k_rounds_half_up():
    assert sparsity_to_k(0.5, 10) == 5
    assert sparsity_to_k(0.25, 10) == 3  # 2.5 rounds up
    assert sparsity_to_k(0.24, 10) == 2
    assert sparsity_to_k(1.0, 7) == 7
    assert sparsity_to_k(0.0, 7) == 0
    with pytest.raises(ValueError):
        sparsity_to_k(1.5, 10)


def test_flatten_and_split_roundtrip(rng):
    weights, _ = toy_layers(rng)
    flat, prunable, layout = flatten_layers(weights)
    assert flat.size == 4 * 6 + 3 * 4
    assert prunable.all()
    back = split_by_layer(flat, layout)
    for lid in weights:
        np.testing.assert_array_equal(back[lid], weights[lid])


class TestMagnitude:
    def test_zeros_smallest_magnitudes(self, rng):
        weights = {"0": np.array([[3.0, -0.1], [0.5, -2.0]])}
        res = run_pruner(spec_for("gm"), weights, None, sparsity=0.5)
        assert res.mask.tolist() == [1, 0, 0, 1]
        np.testing.assert_array_equal(res.new_weights, [3.0, 0.0, 0.0, -2.0])

    def test_survivors_never_move(self, rng):
        weights, grads = toy_layers(rng)
        flat, _, _ = flatten_layers(weights)
        res = run_pruner(spec_for("gm"), weights, None, sparsity=0.4)
        keep = res.mask == 1
        np.testing.assert_array_equal(res.new_weights[keep], flat[keep])

    def test_predicted_is_zero_without_grads_and_scored_with(self, rng):
        weights, grads = toy_layers(rng)
        bare = run_pruner(spec_for("gm"), weights, None, sparsity=0.5)
        assert bare.predicted_loss_increase == 0.0
        scored = run_pruner(spec_for("gm"), weights, grads, sparsity=0.5)
        assert scored.predicted_loss_increase > 0.0
        assert scored.mask.tolist() == bare.mask.tolist()

    def test_a_gradient_map_without_a_layer_is_refused(self, rng):
        weights, grads = toy_layers(rng)
        with pytest.raises(ValueError, match="no gradient set for layer '0'"):
            run_pruner(spec_for("gm"), weights, {"1": grads["1"]}, sparsity=0.5)


class TestFrozenCurvature:
    def test_single_removal_compensation_is_optimal(self, rng):
        """For one removal the frozen-inverse update is the exact minimizer,
        so it never costs more than bare zeroing. (With several removals the
        summed updates can interfere and this guarantee disappears; that gap
        is the whole point of the stateful solver.)"""
        from obsprune.obs_core import loss_increase

        weights, grads = toy_layers(rng, sizes=((6, 6),), n=60)
        flat, _, layout = flatten_layers(weights)
        # one removal: sparsity 1/36 of 36 weights rounds to k = 1
        res = run_pruner(spec_for("wf", block_size=36), weights, grads, sparsity=1 / 36)
        bare = flat.copy()
        bare[res.mask == 0] = 0.0
        damp = 1e-6
        cost_comp = loss_increase(flat, res.new_weights, grads["0"], damp)
        cost_bare = loss_increase(flat, bare, grads["0"], damp)
        assert cost_comp <= cost_bare + 1e-12
        assert cost_comp == pytest.approx(res.predicted_loss_increase, rel=1e-6)

    def test_underestimates_on_the_correlated_pair(self):
        """F = [[2,1],[1,2]], w = [1,1], both weights removed: summing the
        two frozen-inverse costs gives 3/4 + 3/4 = 1.5, half the true 3.0,
        because neither score sees the other removal."""
        L = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        rows = np.sqrt(2.0) * L.T
        weights = {"0": np.array([1.0, 1.0])}
        grads = {"0": GradientSet("0", rows)}
        res = run_pruner(spec_for("wf", block_size=2, damp=1e-10),
                         weights, grads, sparsity=1.0)
        assert res.predicted_loss_increase == pytest.approx(1.5, rel=1e-5)

    def test_requires_grads(self, rng):
        weights, _ = toy_layers(rng)
        with pytest.raises(ValueError):
            run_pruner(spec_for("wf"), weights, None, sparsity=0.5)


class TestFullSolve:
    def test_captures_the_correlation_wf_misses(self):
        L = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        rows = np.sqrt(2.0) * L.T
        weights = {"0": np.array([1.0, 1.0])}
        grads = {"0": GradientSet("0", rows)}
        res = run_pruner(spec_for("ovit", block_size=2, damp=1e-10),
                         weights, grads, sparsity=1.0)
        assert res.predicted_loss_increase == pytest.approx(3.0, rel=1e-4)

    def test_matches_wf_mask_for_single_weight_blocks(self, rng):
        """At block size one there is no correlation to exploit: both
        methods rank by w_i^2 / (2 [F^-1]_ii) and pick the same set."""
        weights, grads = toy_layers(rng, sizes=((5, 5),), n=50)
        a = run_pruner(spec_for("ovit", block_size=1), weights, grads, sparsity=0.4)
        b = run_pruner(spec_for("wf", block_size=1, damp=1e-8), weights, grads,
                       sparsity=0.4)
        assert a.mask.tolist() == b.mask.tolist()

    def test_nm_dispatch(self, rng):
        from obsprune.tensorstore import nm_violations

        weights, grads = toy_layers(rng, sizes=((4, 8),), n=50)
        res = run_pruner(spec_for("ovit", nm=(2, 4)), weights, grads)
        assert nm_violations(res.mask, 2, 4) == 0

    def test_nm_rejects_pins(self, rng):
        weights, grads = toy_layers(rng, sizes=((4, 8),), n=50)
        with pytest.raises(ValueError, match="pinned"):
            run_pruner(spec_for("ovit", nm=(2, 4)), weights, grads, pinned=[0])

    def test_sparsity_and_nm_are_exclusive(self, rng):
        weights, grads = toy_layers(rng)
        with pytest.raises(ValueError):
            run_pruner(spec_for("ovit", nm=(2, 4)), weights, grads, sparsity=0.5)


class TestLayerHandling:
    def test_global_pool_can_be_lopsided(self, rng):
        """One layer with tiny weights should absorb most of the pruning
        when the budget is global."""
        weights = {
            "0": rng.standard_normal((4, 4)) * 0.01,
            "1": rng.standard_normal((4, 4)) * 10.0,
        }
        n = 40
        grads = {lid: GradientSet(lid, rng.standard_normal((n, 16)))
                 for lid in weights}
        res = run_pruner(spec_for("ovit"), weights, grads, sparsity=0.5)
        assert res.per_layer_sparsity["0"] > 0.8
        assert res.per_layer_sparsity["1"] < 0.2

    def test_per_layer_forces_uniform_rates(self, rng):
        weights = {
            "0": rng.standard_normal((4, 4)) * 0.01,
            "1": rng.standard_normal((4, 4)) * 10.0,
        }
        n = 40
        grads = {lid: GradientSet(lid, rng.standard_normal((n, 16)))
                 for lid in weights}
        res = run_pruner(spec_for("ovit", per_layer=True), weights, grads,
                         sparsity=0.5)
        assert res.per_layer_sparsity["0"] == pytest.approx(0.5)
        assert res.per_layer_sparsity["1"] == pytest.approx(0.5)

    def test_non_prunable_entries_survive_every_method(self, rng):
        weights, grads = toy_layers(rng, sizes=((4, 4),), n=30)
        prunable = {"0": np.ones((4, 4), dtype=bool)}
        prunable["0"][0, :] = False
        flat = weights["0"].reshape(-1)
        for method in ("gm", "wf", "ovit"):
            res = run_pruner(spec_for(method), weights, grads,
                             sparsity=0.5, prunable=prunable)
            assert (res.mask[:4] == 1).all()
            np.testing.assert_array_equal(res.new_weights[:4], flat[:4])
            # sparsity is counted against the prunable pool
            assert int(np.count_nonzero(res.mask == 0)) == sparsity_to_k(0.5, 12)

    @pytest.mark.parametrize("method", ["gm", "wf", "ovit"])
    def test_every_pinned_index_is_pruned(self, method):
        """The 5 largest of 88 toy weights, pinned at sparsity 0.3, rank far
        beyond the 26 cheapest records, yet every method prunes them, and a
        recomputed prune given them keeps its masks monotone."""
        from obsprune import pipeline

        model = pipeline.toy_train(3, (8, 11), steps=50, lr=0.05, n_samples=64)
        grads = pipeline.collect_grads(model, 64)
        w, _, _ = flatten_layers(model.weights)
        pinned = np.argsort(-np.abs(w))[:5]
        res = run_pruner(spec_for(method), model.weights, grads, sparsity=0.3, pinned=pinned)
        assert (res.mask[pinned] == 0).all()
        assert int(np.count_nonzero(res.mask == 0)) == sparsity_to_k(0.3, 88)
        res = run_pruner(spec_for(method, recompute=2), model.weights, lambda _w: grads,
                         sparsity=0.3, pinned=pinned)
        assert (res.mask[pinned] == 0).all()

    def test_per_layer_predicted_sums_to_total(self, rng):
        """A global total sums every block's cost, so it matches the sum of
        the per-layer values to rounding; a per-layer total is exactly
        their left-to-right sum."""
        weights, grads = toy_layers(rng)
        for per_layer in (False, True):
            res = run_pruner(spec_for("ovit", per_layer=per_layer), weights, grads,
                             sparsity=0.5)
            total = 0.0
            for value in res.per_layer_predicted.values():
                total += value
            if per_layer:
                assert res.predicted_loss_increase == total
            else:
                assert total == pytest.approx(res.predicted_loss_increase, rel=1e-12)


@pytest.mark.parametrize("spec", [
    spec_for("gm"), spec_for("wf"), spec_for("ovit"), spec_for("ovit", nm=(2, 4)),
])
def test_one_flatten_per_call(rng, monkeypatch, spec):
    from obsprune import pruners

    calls = []
    real = pruners.flatten_layers
    monkeypatch.setattr(pruners, "flatten_layers",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    weights, grads = toy_layers(rng, sizes=((4, 8), (2, 4)))
    target = {} if spec.nm else {"sparsity": 0.5}
    run_pruner(spec, weights, grads, **target)
    assert len(calls) == 1


class TestRecompute:
    def test_schedule_hits_interpolated_then_final_sparsity(self, rng):
        """Two sub-steps to 0.5: the first lands on 1 - sqrt(0.5) of the
        pool, the second on 0.5 exactly."""
        weights, grads = toy_layers(rng, sizes=((8, 8),), n=80)
        seen = []

        def provider(w_now):
            seen.append({k: v.copy() for k, v in w_now.items()})
            return grads

        res = run_pruner(spec_for("ovit", recompute=2), weights, provider, sparsity=0.5)
        assert len(seen) == 2
        k_mid = sparsity_to_k(1.0 - (1.0 - 0.5) ** 0.5, 64)
        mid_zeros = int(np.count_nonzero(
            np.concatenate([v.reshape(-1) for v in seen[1].values()]) == 0))
        assert mid_zeros == k_mid
        assert int(np.count_nonzero(res.mask == 0)) == sparsity_to_k(0.5, 64)

    def test_masks_grow_monotonically(self, rng):
        weights, grads = toy_layers(rng, sizes=((8, 8),), n=80)
        masks = []

        def provider(w_now):
            masks.append(np.concatenate(
                [(v.reshape(-1) != 0) for v in w_now.values()]))
            return grads

        res = run_pruner(spec_for("ovit", recompute=4), weights, provider, sparsity=0.75)
        for early, late in zip(masks, masks[1:]):
            assert not (late & ~early).any()  # nothing comes back to life

    def test_single_recomputation_equals_plain_call(self, rng):
        weights, grads = toy_layers(rng)
        a = run_pruner(spec_for("ovit"), weights, lambda w: grads, sparsity=0.5)
        b = run_pruner(spec_for("ovit"), weights, grads, sparsity=0.5)
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.new_weights.tobytes() == b.new_weights.tobytes()

    def test_rejects_nm(self, rng):
        weights, grads = toy_layers(rng)
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_pruner(spec_for("ovit", nm=(2, 4)), weights, lambda w: grads, sparsity=0.5)

    @pytest.mark.parametrize("method", ["wf", "ovit"])
    def test_a_map_runs_every_sub_step(self, rng, method):
        """Two sub-steps on a map give the bytes of a provider that returns
        the map, not those of one sub-step."""
        weights, grads = toy_layers(rng, sizes=((8, 8),), n=80)
        calls = []
        spec = spec_for(method, recompute=2)
        mapped = run_pruner(spec, weights, grads, sparsity=0.5)
        provided = run_pruner(spec, weights, lambda w: calls.append(1) or grads, sparsity=0.5)
        once = run_pruner(spec_for(method), weights, grads, sparsity=0.5)
        assert len(calls) == 2
        assert (mapped.mask.tobytes(), mapped.new_weights.tobytes(),
                mapped.predicted_loss_increase, mapped.per_layer_predicted) == (
                provided.mask.tobytes(), provided.new_weights.tobytes(),
                provided.predicted_loss_increase, provided.per_layer_predicted)
        assert mapped.new_weights.tobytes() != once.new_weights.tobytes()

    @pytest.mark.parametrize("provided", [False, True])
    @pytest.mark.parametrize("nm, sparsity", [(None, None), ((2, 4), 0.5)])
    def test_needs_exactly_one_target(self, rng, provided, nm, sparsity):
        """No target, or a sparsity next to an n:m pattern, raises before
        any rows are asked for."""
        weights, grads = toy_layers(rng)
        calls = []
        given = (lambda w: calls.append(1) or grads) if provided else grads
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_pruner(spec_for("ovit", nm=nm), weights, given, sparsity=sparsity)
        assert calls == []

    @pytest.mark.parametrize("method", ["gm", "wf", "ovit"])
    def test_a_sub_step_without_pins_is_never_skipped(self, rng, method):
        """Both sub-steps to sparsity 0 resolve to no zeros, but with no pin
        each one calls the provider; the result is byte for byte the
        unchanged weights, no zero and no cost, as a skip would give."""
        weights, grads = toy_layers(rng)
        calls = []
        res = run_pruner(spec_for(method, recompute=2), weights,
                         lambda w: calls.append(1) or grads, sparsity=0.0)
        assert len(calls) == 2
        flat, _, _ = flatten_layers(weights)
        assert res.new_weights.tobytes() == flat.tobytes()
        assert res.mask.tolist() == [1] * flat.size
        assert repr((res.predicted_loss_increase, res.per_layer_predicted,
                     res.clamp_events)) == repr((0.0, {"0": 0.0, "1": 0.0}, 0))

    @pytest.mark.parametrize("method", ["gm", "wf", "ovit"])
    def test_nonzero_pins_never_skip(self, rng, method):
        """Both sub-steps to 0.5 resolve to the 32 pins. The pins still hold
        weight at the first, so it prunes; they are zero at the second, so
        that one is skipped."""
        weights, grads = toy_layers(rng, sizes=((8, 8),), n=80)
        pinned = np.argsort(np.abs(weights["0"]).reshape(-1))[:32]
        calls = []
        res = run_pruner(spec_for(method, recompute=2), weights,
                         lambda w: calls.append(1) or grads, sparsity=0.5, pinned=pinned)
        assert len(calls) == 1
        assert (res.mask[pinned] == 0).all() and (res.new_weights[pinned] == 0.0).all()

    @pytest.mark.parametrize("method", ["gm", "wf", "ovit"])
    def test_a_final_no_op_sub_step_returns_the_pins(self, rng, monkeypatch, method):
        """With 32 zero pins and a target of 0.5 both sub-steps are no-ops:
        no gradient rows are made, and the result is the pins' mask and the
        unchanged weights, byte for byte what the full sub-steps give."""
        from obsprune import pruners

        weights, grads = toy_layers(rng, sizes=((8, 8),), n=80)
        flat = weights["0"].reshape(-1)
        pinned = np.argsort(np.abs(flat))[:32]
        flat[pinned] = 0.0
        flat[pinned[0]] = -0.0  # comes out as the +0.0 a prune writes
        spec = spec_for(method, recompute=2)
        calls = []

        def provider(w_now):
            calls.append(1)
            return grads

        res = run_pruner(spec, weights, provider, sparsity=0.5, pinned=pinned)
        assert calls == []
        want = flat.copy()
        want[pinned] = 0.0
        assert res.new_weights.tobytes() == want.tobytes()
        assert res.mask.tolist() == np.isin(np.arange(64), pinned, invert=True).tolist()
        assert res.predicted_loss_increase == 0.0 and res.clamp_events == 0

        monkeypatch.setattr(pruners, "_pins_only", lambda *args: None)
        full = run_pruner(spec, weights, provider, sparsity=0.5, pinned=pinned)
        assert len(calls) == 2
        assert (full.mask.tobytes(), full.new_weights.tobytes(), full.predicted_loss_increase,
                full.per_layer_predicted, full.per_layer_sparsity) == (
                res.mask.tobytes(), res.new_weights.tobytes(), res.predicted_loss_increase,
                res.per_layer_predicted, res.per_layer_sparsity)


def default_spec(method, **overrides):
    """PrunerSpec with the method's default dampening unless overridden."""
    fisher = overrides.pop("fisher", None)
    if fisher is None:
        fisher = FisherConfig(dampening=DAMPENING_DEFAULTS[method])
    return PrunerSpec(method=method, fisher=fisher, **overrides)


def test_default_spec_has_documented_defaults():
    spec = default_spec("ovit")
    assert spec.fisher.block_size == 64
    assert spec.fisher.dampening == 1e-8
    assert spec.fisher.num_grads == 4096
    assert default_spec("wf").fisher.dampening == 1e-6


@pytest.mark.parametrize("overrides", [{"method": "wf"}, {"per_layer": True},
                                       {"recompute": 3}], ids=["wf", "per_layer", "recompute"])
def test_nm_spec_rejects_what_an_nm_prune_would_ignore(overrides):
    with pytest.raises(ValueError, match="n:m"):
        spec_for(**{"method": "ovit", "nm": (2, 4), **overrides})


@pytest.mark.parametrize("per_layer", [False, True])
def test_wf_compensation_matches_the_per_block_loop(per_layer):
    """wf's one batched product per pass gives the weights of the loop it
    replaced, one product of each block's selected columns with their
    coefficients, to rounding; the trailing blocks are partial."""
    from obsprune.fisher import EPS_FLOOR, FisherBlockInverse, iter_block_inverses

    rng = np.random.default_rng(53)
    weights = {"0": rng.standard_normal((9, 12)), "1": rng.standard_normal((5, 12))}
    grads = {k: GradientSet(k, rng.standard_normal((20, w.size))) for k, w in weights.items()}
    prunable = {k: rng.random(w.shape) > 0.1 for k, w in weights.items()}
    spec = spec_for("wf", per_layer=per_layer)
    res = run_pruner(spec, weights, grads, sparsity=0.6, prunable=prunable)

    w, pr, layout = flatten_layers(weights, prunable)
    stacks = iter_block_inverses(
        [(grads[lay.name], pr[lay.offset : lay.offset + lay.size]) for lay in layout], spec.fisher)
    inv = FisherBlockInverse([blk for stack in stacks for blk in stack])
    diag = np.maximum(np.concatenate([np.diag(b) for b in inv.blocks]), EPS_FLOOR)
    pruned = res.mask == 0
    want = w.copy()
    for b in range(len(inv.blocks)):
        lo, hi = int(inv.offsets[b]), int(inv.offsets[b + 1])
        local = np.flatnonzero(pruned[lo:hi])
        if local.size:
            want[lo:hi] -= inv.blocks[b][:, local] @ (w[lo + local] / diag[lo + local])
    want[pruned] = 0.0
    assert 0 < np.count_nonzero(pruned) < np.count_nonzero(pr)
    np.testing.assert_allclose(res.new_weights, want, rtol=0, atol=1e-12 * np.abs(w).max())


# -- streamed inverses ---------------------------------------------------------

def collected(real):
    """``iter_block_inverses`` replaced by the whole collected inverse."""
    from obsprune.fisher import FisherBlockInverse

    return lambda layers, config: FisherBlockInverse(
        [blk for stack in real(layers, config) for blk in stack])


@pytest.mark.parametrize("mode", ["global", "per_layer", "recompute", "nm"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [5, 20])  # fewer and more rows than B=8
def test_stream_equals_whole_inverse(monkeypatch, mode, dtype, rows):
    """ovit solved from the streamed stacks, built on the solver's workers
    after the first pass, gives the bytes of a solve from the
    collected whole inverse, for every build and kernel chunk budget, with
    trailing partial blocks (60 = 7*8 + 4 and 28 = 3*8 + 4 weights)."""
    from obsprune import fisher, pruners

    rng = np.random.default_rng(rows)
    weights = {"0": rng.standard_normal((6, 10)), "1": rng.standard_normal((7, 4))}
    grads = {k: GradientSet(k, rng.standard_normal((rows, w.size)).astype(dtype))
             for k, w in weights.items()}
    prunable = {k: rng.random(w.shape) > 0.2 for k, w in weights.items()}
    flat_pr = np.concatenate([p.reshape(-1) for p in prunable.values()])
    spec = spec_for("ovit", nm=(2, 4) if mode == "nm" else None,
                    per_layer=mode == "per_layer", recompute=2 if mode == "recompute" else 1)
    pinned = np.flatnonzero(flat_pr)[::9]
    built_off_main = []
    real_invert = fisher._fill_blocks

    def invert(*args):
        built_off_main.append(threading.current_thread() is not threading.main_thread())
        return real_invert(*args)

    monkeypatch.setattr(fisher, "_fill_blocks", invert)

    def run():
        built_off_main.clear()
        if mode == "recompute":  # the second sub-step pins the first one's zeros
            res = run_pruner(spec, weights, lambda w: grads, sparsity=0.55,
                             prunable=prunable)
        else:
            target = {} if mode == "nm" else {"sparsity": 0.55, "pinned": pinned}
            res = run_pruner(spec, weights, grads, prunable=prunable, **target)
        return (res.mask.tobytes(), res.new_weights.tobytes(),
                res.predicted_loss_increase, res.per_layer_predicted)

    streamed = run()
    with monkeypatch.context() as patch:
        patch.setattr(pruners, "iter_block_inverses", collected(pruners.iter_block_inverses))
        whole = run()
    assert not any(built_off_main)
    assert streamed == whole
    for build_blocks, pass_blocks in [(1, 1), (2, 3), (3, 2), (5, 1000)]:
        monkeypatch.setattr(fisher, "CHUNK_VALUES", build_blocks * 8 * max(rows, 8))
        monkeypatch.setattr(fisher, "PASS_VALUES", pass_blocks * 64)
        assert run() == whole, (build_blocks, pass_blocks)
        # one stream covers every layer, so every mode has stacks left after
        # its first pass, and builds them on the solver's workers
        assert any(built_off_main)


@pytest.mark.parametrize("mode", ["gm", "wf", "ovit", "per_layer", "recompute", "nm"])
@pytest.mark.parametrize("n", [5, 40])  # fewer and more rows than B=8
def test_factored_rows_stream_the_bytes_of_stored_rows(monkeypatch, mode, n):
    """Toy rows kept as residual x input factors, whose products the build
    forms one sub-batch at a time (on the solver's workers, for ovit) and
    ``loss_increase`` one chunk of rows at a time (for gm), prune to the
    bytes of the same rows stored whole, with frozen weights and small
    passes and sub-batches."""
    from obsprune import fisher, pipeline

    monkeypatch.setattr(fisher, "PASS_VALUES", 3 * 64)
    monkeypatch.setattr(fisher, "CHUNK_VALUES", 2 * 8 * max(n, 8))
    model = pipeline.toy_train(7, (6, 10, 4), steps=30, lr=0.05, n_samples=48)
    factored = pipeline.collect_grads(model, n)
    stored = {k: GradientSet(k, gs.samples) for k, gs in factored.items()}
    rng = np.random.default_rng(n)
    prunable = {k: rng.random(w.shape) > 0.2 for k, w in model.weights.items()}
    method = mode if mode in ("gm", "wf") else "ovit"
    spec = spec_for(method, nm=(2, 4) if mode == "nm" else None,
                    per_layer=mode == "per_layer", recompute=2 if mode == "recompute" else 1)
    target = {} if mode == "nm" else {"sparsity": 0.6}
    formed_off_main = []
    real = GradientSet.columns

    def columns(self, *args):
        formed_off_main.append(threading.current_thread() is not threading.main_thread())
        return real(self, *args)

    monkeypatch.setattr(GradientSet, "columns", columns)

    def run(grads):
        res = run_pruner(spec, model.weights, grads, prunable=prunable, **target)
        return (res.mask.tobytes(), res.new_weights.tobytes(), res.predicted_loss_increase,
                res.per_layer_predicted)

    assert run(factored) == run(stored)
    assert any(formed_off_main) == (method == "ovit")


@pytest.mark.parametrize("method", ["gm", "wf", "ovit"])
def test_per_layer_pools_equal_each_layer_pruned_alone(monkeypatch, method):
    """Three layers with frozen weights and pins, pruned in per-layer pools
    by one call, give the bytes of each layer pruned alone as one global
    pool: mask, weights and per-layer predicted cost, with the total the
    left-to-right sum of the per-layer costs. The one ovit call starts
    drawing ahead once, after its first pass, for every layer's stacks."""
    from obsprune import fisher, solver

    monkeypatch.setattr(fisher, "PASS_VALUES", 2 * 64)  # 2 blocks of 8 per pass
    starts = []
    real_start = solver._Ahead.start
    monkeypatch.setattr(solver._Ahead, "start",
                        lambda self: starts.append(1) or real_start(self))
    rng = np.random.default_rng(41)
    weights = {"a": rng.standard_normal((6, 10)), "b": rng.standard_normal((5, 4)),
               "c": rng.standard_normal((3, 12))}
    grads = {k: GradientSet(k, rng.standard_normal((12, w.size))) for k, w in weights.items()}
    prunable = {k: rng.random(w.shape) > 0.2 for k, w in weights.items()}
    _, pr, layout = flatten_layers(weights, prunable)
    pinned = np.flatnonzero(pr)[::7]

    pooled = run_pruner(spec_for(method, per_layer=True), weights, grads,
                        sparsity=0.4, prunable=prunable, pinned=pinned)
    assert len(starts) == (method == "ovit")
    total = 0.0
    for lay in layout:
        sl = slice(lay.offset, lay.offset + lay.size)
        inside = pinned[(pinned >= sl.start) & (pinned < sl.stop)]
        alone = run_pruner(spec_for(method), {lay.name: weights[lay.name]}, grads,
                           sparsity=0.4, prunable={lay.name: prunable[lay.name]},
                           pinned=inside - lay.offset)
        assert pooled.mask[sl].tobytes() == alone.mask.tobytes()
        assert pooled.new_weights[sl].tobytes() == alone.new_weights.tobytes()
        assert pooled.per_layer_predicted[lay.name] == alone.predicted_loss_increase
        total += alone.predicted_loss_increase
    assert pooled.predicted_loss_increase == total


def test_per_layer_clamps_warn_once_with_the_total():
    """Rows of scale 1e8 make every pivot of every layer fall below the
    floor: a per-layer ovit prune warns once, with the count of all layers."""
    rng = np.random.default_rng(43)
    weights, grads = toy_layers(rng)
    grads = {k: GradientSet(k, gs.samples * 1e8) for k, gs in grads.items()}
    alone = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCurvatureWarning)
        for name in weights:
            alone.append(run_pruner(spec_for("ovit"), {name: weights[name]}, grads,
                                    sparsity=0.5).clamp_events)
    assert min(alone) > 0
    with pytest.warns(DegenerateCurvatureWarning) as record:
        res = run_pruner(spec_for("ovit", per_layer=True), weights, grads, sparsity=0.5)
    assert len(record) == 1
    assert res.clamp_events == sum(alone)
    assert f"clamped {sum(alone)} degenerate pivot(s)" in str(record[0].message)


def schur_frozen(real):
    """``iter_block_inverses`` replaced by the path the frozen build
    replaced: the whole unfrozen inverse, with every non-prunable
    coordinate eliminated afterwards by Schur downdates, handed over as
    one-block stacks."""
    from obsprune.fisher import FisherBlockInverse
    from reference_fisher import freeze_indices

    def stacks(layers, config):
        unfrozen = real([(rows, None) for rows, _ in layers], config)
        whole = FisherBlockInverse([blk for stack in unfrozen for blk in stack])
        movable = np.concatenate([movable for _, movable in layers])
        return iter([blk[None] for blk in freeze_indices(whole, np.flatnonzero(~movable)).blocks])

    return stacks


@pytest.mark.parametrize("mode", ["wf", "ovit", "per_layer", "nm"])
@pytest.mark.parametrize("rows, damp", [(5, None), (5, 1e-4), (20, None)])
def test_frozen_build_matches_the_schur_downdate_path(monkeypatch, mode, rows, damp):
    """With about a fifth of the weights non-prunable, wf and ovit give the
    masks of the Schur-downdate path and leave frozen weights untouched.
    Weights agree within 1e-9 of the largest and predicted costs to 1e-8,
    except for ovit at the default dampening with fewer rows than B: there
    the inverse is about 1e8 in scale, and the greedy amplifies the
    rounding in which the two paths differ to about 1e-2."""
    from obsprune import pruners

    rng = np.random.default_rng(rows + 7)
    weights = {"0": rng.standard_normal((6, 12)), "1": rng.standard_normal((5, 4))}
    grads = {k: GradientSet(k, rng.standard_normal((rows, w.size))) for k, w in weights.items()}
    prunable = {k: rng.random(w.shape) > 0.2 for k, w in weights.items()}
    spec = spec_for("wf" if mode == "wf" else "ovit", damp=damp,
                    nm=(2, 4) if mode == "nm" else None, per_layer=mode == "per_layer")
    target = {} if mode == "nm" else {"sparsity": 0.5}

    def run():
        with warnings.catch_warnings():  # a rank-deficient block may clamp a pivot
            warnings.simplefilter("ignore", DegenerateCurvatureWarning)
            return run_pruner(spec, weights, grads, prunable=prunable, **target)

    got = run()
    monkeypatch.setattr(pruners, "iter_block_inverses", schur_frozen(pruners.iter_block_inverses))
    want = run()
    w, pr, _ = flatten_layers(weights, prunable)
    assert got.mask.tobytes() == want.mask.tobytes()
    assert 0 < np.count_nonzero(got.mask == 0) < np.count_nonzero(pr)
    assert got.new_weights[~pr].tobytes() == w[~pr].tobytes()
    if mode != "wf" and damp is None and rows < 8:
        return
    scale = np.abs(w).max()
    np.testing.assert_allclose(got.new_weights, want.new_weights, rtol=0, atol=1e-9 * scale)
    assert got.predicted_loss_increase == pytest.approx(want.predicted_loss_increase, rel=1e-8)


def test_nm_prune_never_holds_the_whole_inverse(monkeypatch):
    """Two layers of 32,768 weights whose whole inverse takes 32 MiB at
    B=64: with small chunks, an N:M prune peaks below a quarter of that."""
    import tracemalloc

    from obsprune import fisher

    rng = np.random.default_rng(11)
    weights = {"0": rng.standard_normal((128, 256)), "1": rng.standard_normal((256, 128))}
    grads = {k: GradientSet(k, rng.standard_normal((32, w.size))) for k, w in weights.items()}
    monkeypatch.setattr(fisher, "CHUNK_VALUES", 1 << 16)
    monkeypatch.setattr(fisher, "PASS_VALUES", 1 << 16)
    inverse_bytes = 65536 * 64 * 8
    tracemalloc.start()
    try:
        res = run_pruner(spec_for("ovit", block_size=64, nm=(2, 4)), weights, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(res.mask == 0) == 65536 // 2
    assert peak < inverse_bytes / 4, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("per_layer", [False, True])
def test_every_layer_is_checked_before_the_first_build(rng, monkeypatch, per_layer):
    from obsprune import pruners

    built = []
    real = pruners.iter_block_inverses
    monkeypatch.setattr(pruners, "iter_block_inverses",
                        lambda *a: built.append(1) or real(*a))
    weights, grads = toy_layers(rng)
    grads["1"] = GradientSet("1", rng.standard_normal((40, 5)))
    with pytest.raises(ValueError, match="width 5"):
        run_pruner(spec_for("ovit", per_layer=per_layer), weights, grads, sparsity=0.5)
    assert built == []


@pytest.mark.parametrize("method", ["ovit", "wf"])
def test_per_layer_scans_every_layer_before_the_first_build(rng, monkeypatch, method):
    """A non-finite row in the last layer fails before any block of the
    first layer is built or solved."""
    from obsprune import fisher, solver

    calls = []
    for mod, name in ((fisher, "_fill_blocks"), (solver, "_eliminate_stack")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    weights, grads = toy_layers(rng)
    grads["1"].samples[-1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_pruner(spec_for(method, per_layer=True), weights, grads, sparsity=0.5)
    assert calls == []


def test_build_yields_the_solver_passes_across_layers():
    """On the layer shapes of the benchmark's 2:4 prune at B=64 (256x128,
    192x160 and 120x100, 64 blocks per pass), the build yields 19 passes of
    full blocks and then the 32-wide block alone; the 16th pass holds the
    second layer's last 32 blocks and the third layer's first 32. Every
    block has the bytes of its layer built alone, and a
    ``FisherBlockInverse`` of the same blocks is grouped into the same
    passes."""
    from obsprune.fisher import FisherBlockInverse, iter_block_inverses

    rng = np.random.default_rng(29)
    dims = [256 * 128, 192 * 160, 120 * 100]
    layers = [(rng.standard_normal((4, d)), rng.random(d) > 0.1) for d in dims]
    cfg = FisherConfig(64, 1e-6, 4)
    alone = (blk for pair in layers for stack in iter_block_inverses([pair], cfg)
             for blk in stack)
    passes = list(iter_block_inverses(layers, cfg))
    shapes = [p.shape for p in passes]
    assert shapes == [(64, 64, 64)] * 18 + [(27, 64, 64), (1, 32, 32)]
    blocks = [blk for p in passes for blk in p]
    assert all(blk.tobytes() == next(alone).tobytes() for blk in blocks)
    assert next(alone, None) is None
    layer_of = np.repeat([0, 1, 2], [512, 480, 188])  # every block's layer
    assert np.bincount(layer_of[15 * 64 : 16 * 64]).tolist() == [0, 32, 32]
    assert [p.shape for p in FisherBlockInverse(blocks).passes()] == shapes


@pytest.mark.parametrize("nm", [None, (2, 4)])
def test_every_solved_pass_is_an_array_the_build_allocated(monkeypatch, nm):
    """Layers of 60, 40 and 24 weights at B=8, in passes of 4 blocks: one
    pass crosses from the second layer into the third, and every pass the
    solver solves is an array the build filled, never a copy."""
    from obsprune import fisher, solver

    monkeypatch.setattr(fisher, "PASS_VALUES", 4 * 64)
    built, solved = [], []
    real_passes, real_eliminate = fisher._inverse_passes, solver._eliminate_stack

    def inverse_passes(*args):
        for stack in real_passes(*args):
            built.append(stack)
            yield stack

    def eliminate(offset, cols0, *args):
        solved.append((offset, cols0.shape[:2], any(cols0.base is s for s in built)))
        return real_eliminate(offset, cols0, *args)

    monkeypatch.setattr(fisher, "_inverse_passes", inverse_passes)
    monkeypatch.setattr(solver, "_eliminate_stack", eliminate)
    rng = np.random.default_rng(31)
    weights, grads = toy_layers(rng, sizes=((6, 10), (5, 8), (3, 8)), n=12)
    target = {} if nm else {"sparsity": 0.5}
    run_pruner(spec_for("ovit", nm=nm), weights, grads, **target)
    assert solved == [(0, (4, 8), True), (32, (3, 8), True), (56, (1, 4), True),
                      (60, (4, 8), True), (92, (4, 8), True)]


def test_recompute_frees_each_sub_steps_rows_before_the_next(monkeypatch):
    """The provider's 8 MiB of rows for one sub-step are released before it
    makes the next sub-step's, so two sets never coexist."""
    import tracemalloc

    from obsprune import fisher

    monkeypatch.setattr(fisher, "CHUNK_VALUES", 1 << 14)  # small build scratch
    rng = np.random.default_rng(12)
    weights = {"0": rng.standard_normal((64, 64))}
    rows_bytes = 256 * 4096 * 8

    def provider(wmap):
        return {"0": GradientSet("0", rng.standard_normal((256, 4096)))}

    tracemalloc.start()
    try:
        run_pruner(spec_for("ovit", block_size=16, recompute=2), weights, provider,
                   sparsity=0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rows_bytes, f"peak {peak / 2**20:.1f} MiB"
