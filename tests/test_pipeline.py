"""Toy models, gradient collection, and the end-to-end run modes."""

import tracemalloc

import numpy as np
import pytest

from obsprune import pipeline
from obsprune.fisher import FisherConfig
from obsprune.pruners import PrunerSpec
from obsprune.schedules import LrSchedule, plan_sweep


def ovit_spec(block_size=16, recompute=1):
    return PrunerSpec(
        method="ovit",
        fisher=FisherConfig(block_size=block_size, dampening=1e-8, num_grads=4096),
        nm=None,
        recomputations=recompute,
        per_layer=False,
        threads=1,
    )


def reference_batch_gradient(model, weights=None):
    """The mean of the per-sample gradient rows, the obvious way."""
    per = pipeline.per_sample_gradients(model, weights)
    weights = model.weights if weights is None else weights
    return {k: per[k].mean(axis=0).reshape(weights[k].shape) for k in per}


def reference_masked_training(model, steps, lr, masks):
    """Full-batch descent on ``reference_batch_gradient``, re-zeroing the
    masked weights after every step."""
    for k, m in masks.items():
        model.weights[k] = model.weights[k] * (m != 0)
    for _ in range(steps):
        g = reference_batch_gradient(model)
        for k in model.weights:
            model.weights[k] = model.weights[k] - lr * g[k]
            model.weights[k][masks[k] == 0] = 0.0


TOYS = [((6, 4), "mse"), ((5, 8, 3), "mse"), ((6, 4), "logistic"), ((5, 8, 3), "logistic")]


class TestGradients:
    @pytest.mark.parametrize("dims,loss", TOYS)
    def test_batch_gradient_matches_the_mean_of_per_sample_rows(self, dims, loss):
        model = pipeline.make_toy(19, dims, n_samples=33, noise=0.3, loss=loss)
        rng = np.random.default_rng(2)
        other = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in model.weights.items()}
        for weights in (None, other):
            got = pipeline.batch_gradient(model, weights)
            want = reference_batch_gradient(model, weights)
            assert list(got) == list(want)
            for k in want:
                assert got[k].shape == want[k].shape
                np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=0)

    def test_batch_gradient_never_forms_per_sample_rows(self):
        """On the sweep benchmark's toy the (512, 6912) rows alone take
        27 MiB; the direct kernel needs only the activations."""
        model = pipeline.make_toy(5, (48, 96, 24), n_samples=512)
        tracemalloc.start()
        try:
            pipeline.batch_gradient(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("dims,loss", TOYS)
    def test_batch_gradient_matches_finite_differences(self, dims, loss):
        model = pipeline.make_toy(7, dims, n_samples=20, noise=0.3, loss=loss)
        grad = pipeline.batch_gradient(model)
        eps = 1e-6
        rng = np.random.default_rng(0)
        for key, g in grad.items():
            w = model.weights[key]
            for _ in range(4):
                r, c = rng.integers(w.shape[0]), rng.integers(w.shape[1])
                keep = w[r, c]
                w[r, c] = keep + eps
                up = pipeline.model_loss(model)
                w[r, c] = keep - eps
                down = pipeline.model_loss(model)
                w[r, c] = keep
                fd = (up - down) / (2 * eps)
                assert g[r, c] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_per_sample_rows_average_to_the_batch(self):
        model = pipeline.make_toy(3, (5, 7, 2), n_samples=17)
        per = pipeline.per_sample_gradients(model)
        batch = pipeline.batch_gradient(model)
        for key in per:
            mean = per[key].mean(axis=0).reshape(model.weights[key].shape)
            np.testing.assert_allclose(mean, batch[key], atol=1e-12)

    def test_row_layout_is_row_major_per_sample(self):
        """Row j of the collected matrix must be sample j's gradient,
        flattened the same way the weights are."""
        model = pipeline.make_toy(5, (4, 3), n_samples=6)
        per = pipeline.per_sample_gradients(model)["0"]
        assert per.shape == (6, 12)
        # single-sample model replays each row exactly
        for j in range(6):
            solo = pipeline.ToyModel(
                model.dims, model.copy_weights(),
                model.inputs[j : j + 1], model.targets[j : j + 1],
                model.loss_kind,
            )
            row = pipeline.batch_gradient(solo)["0"].reshape(-1)
            np.testing.assert_allclose(per[j], row, atol=1e-12)

    def test_collect_grads_caps_rows(self):
        model = pipeline.make_toy(1, (4, 3), n_samples=32)
        grads = pipeline.collect_grads(model, 10)
        assert grads["0"].num_samples == 10


class TestTraining:
    def test_loss_decreases_on_the_toy(self):
        model = pipeline.make_toy(11, (8, 10, 3), n_samples=64)
        before = pipeline.model_loss(model)
        pipeline.train_model(model, 60, 0.05)
        assert pipeline.model_loss(model) < before

    def test_masks_pin_zeros_through_updates(self):
        model = pipeline.make_toy(13, (6, 8, 2), n_samples=32)
        masks = {k: (np.arange(v.size).reshape(v.shape) % 3 != 0).astype(np.uint8)
                 for k, v in model.weights.items()}
        pipeline.train_model(model, 25, 0.05, masks=masks)
        for k, m in masks.items():
            assert (model.weights[k][m == 0] == 0.0).all()

    def test_masked_steps_match_the_reference_loop(self):
        model = pipeline.make_toy(13, (6, 8, 2), n_samples=32)
        ref = pipeline.ToyModel(model.dims, model.copy_weights(), model.inputs,
                                model.targets, model.loss_kind)
        masks = {k: (np.arange(v.size).reshape(v.shape) % 3 != 0).astype(np.uint8)
                 for k, v in model.weights.items()}
        pipeline.train_model(model, 20, 0.05, masks=masks)
        reference_masked_training(ref, 20, 0.05, masks)
        for k in masks:
            np.testing.assert_array_equal(model.weights[k] == 0, ref.weights[k] == 0)
            np.testing.assert_allclose(model.weights[k], ref.weights[k], rtol=0, atol=1e-12)

    def test_divergence_raises(self):
        model = pipeline.make_toy(17, (6, 8, 2), n_samples=16)
        with pytest.raises(pipeline.DivergenceError):
            pipeline.train_model(model, 200, 1e4)

    def test_same_seed_same_model(self):
        a = pipeline.toy_train(23, (5, 6, 2), steps=40, lr=0.05)
        b = pipeline.toy_train(23, (5, 6, 2), steps=40, lr=0.05)
        for k in a.weights:
            assert a.weights[k].tobytes() == b.weights[k].tobytes()

    def test_correlated_inputs_have_the_requested_structure(self):
        model = pipeline.make_toy(29, (12, 4), n_samples=4000, input_corr=0.6)
        emp = np.corrcoef(model.inputs.T)
        off1 = np.diagonal(emp, offset=1)
        assert abs(off1.mean() - 0.6) < 0.05


class TestQuadraticToy:
    def test_paired_residuals_make_the_gradient_vanish(self):
        model = pipeline.make_quadratic_toy(31, d=10, n_base=25)
        assert pipeline.gradient_norm(model) < 1e-10

    def test_fisher_equals_hessian_at_the_optimum(self):
        """With +-1 paired residuals each per-sample gradient is +-x_i, so
        the empirical second-moment matrix is exactly the data Hessian."""
        model = pipeline.make_quadratic_toy(37, d=6, n_base=15)
        per = pipeline.per_sample_gradients(model)["0"]
        emp = per.T @ per / per.shape[0]
        np.testing.assert_allclose(emp, pipeline.quadratic_hessian(model), atol=1e-12)

    def test_predicted_increase_matches_true_increase(self):
        """On the quadratic toy the model is its own second-order expansion,
        so the solver's predicted cost must match reality to float precision."""
        for seed in (41, 43, 47):
            model = pipeline.make_quadratic_toy(seed, d=16, n_base=40)
            base = pipeline.model_loss(model)
            spec = ovit_spec(block_size=16)
            report = pipeline.run_oneshot(model, spec, sparsity=0.5)
            true_inc = pipeline.model_loss(model) - base
            assert report.events[0].predicted_increase == pytest.approx(
                true_inc, abs=1e-6, rel=1e-6
            )


class TestRunModes:
    def test_oneshot_reports_sparsity_and_masks(self):
        model = pipeline.toy_train(53, (6, 8, 4), steps=80, lr=0.05)
        report = pipeline.run_oneshot(model, ovit_spec(), sparsity=0.5)
        ev = report.events[0]
        total = sum(v.size for v in report.final_masks.values())
        zeros = sum(int((v == 0).sum()) for v in report.final_masks.values())
        assert ev.sparsity == pytest.approx(zeros / total)
        assert ev.loss_after >= ev.loss_before - 1e-12
        # masked weights really are zero in the model
        for k, m in report.final_masks.items():
            assert (model.weights[k][m.reshape(model.weights[k].shape) == 0] == 0).all()

    def test_recovery_lowers_the_post_prune_loss(self):
        model = pipeline.toy_train(59, (8, 12, 4), steps=150, lr=0.05)
        schedule = LrSchedule(5e-3, 1e-4, 20)
        report = pipeline.run_oneshot_finetune(model, ovit_spec(), 0.5, 40, schedule)
        ev = report.events[0]
        assert ev.post_recovery_loss < ev.loss_after
        # recovery must not resurrect pruned weights
        for k, m in report.final_masks.items():
            assert (model.weights[k][m.reshape(model.weights[k].shape) == 0] == 0).all()

    def test_zero_recovery_steps_reduces_to_oneshot(self):
        a = pipeline.toy_train(61, (5, 6, 2), steps=50, lr=0.05)
        b = pipeline.toy_train(61, (5, 6, 2), steps=50, lr=0.05)
        ra = pipeline.run_oneshot(a, ovit_spec(), sparsity=0.4)
        rb = pipeline.run_oneshot_finetune(b, ovit_spec(), 0.4, 0, LrSchedule())
        for k in ra.final_weights:
            assert ra.final_weights[k].tobytes() == rb.final_weights[k].tobytes()

    def test_gradual_masks_grow_and_checkpoints_match_targets(self):
        model = pipeline.toy_train(67, (10, 16, 5), steps=120, lr=0.05)
        plan = plan_sweep([0.25, 0.5, 0.75], 10)
        report, checkpoints = pipeline.run_gradual(
            model, ovit_spec(), plan, LrSchedule(5e-3, 1e-4, 10)
        )
        assert [t for t, _, _ in checkpoints] == [0.25, 0.5, 0.75]
        prev_zero = None
        for _, _, masks in checkpoints:
            flat = np.concatenate([m.reshape(-1) for m in masks.values()])
            zero = flat == 0
            if prev_zero is not None:
                assert not (zero < prev_zero).any()  # monotone growth
            prev_zero = zero
        # distinct sparsity levels recorded per event
        assert [round(e.sparsity, 2) for e in report.events] == [0.25, 0.5, 0.75]

    def test_report_lines_are_deterministic(self):
        a = pipeline.toy_train(71, (5, 6, 2), steps=40, lr=0.05)
        ra = pipeline.run_oneshot(a, ovit_spec(), sparsity=0.5)
        b = pipeline.toy_train(71, (5, 6, 2), steps=40, lr=0.05)
        rb = pipeline.run_oneshot(b, ovit_spec(), sparsity=0.5)
        assert pipeline.report_lines(ra) == pipeline.report_lines(rb)
        assert pipeline.report_csv(ra) == pipeline.report_csv(rb)


class TestDirectional:
    """Statistical comparisons on seeded families. The margins were
    measured over larger seed sets before pinning; thresholds sit well
    below the observed win rates."""

    def test_recomputing_curvature_helps_at_high_sparsity(self):
        """90% one-shot on the tanh toy: four Fisher recomputations track
        the moving curvature and beat a single computation on nearly every
        seed (50/50 in the pinning run)."""
        from obsprune.pruners import prune_with_recompute, split_by_layer

        def final_loss(seed, recompute):
            m = pipeline.toy_train(seed, (16, 24, 8), steps=150, lr=0.05)

            def provider(w_now):
                for k in m.weights:
                    m.weights[k] = np.asarray(w_now[k]).reshape(m.weights[k].shape)
                return pipeline.collect_grads(m, m.num_samples)

            spec = ovit_spec(recompute=recompute)
            res = prune_with_recompute(spec, m.weights, provider, 0.9)
            new = split_by_layer(res.new_weights, res.layout)
            for k in m.weights:
                m.weights[k] = new[k].reshape(m.weights[k].shape)
            return pipeline.model_loss(m)

        n = 12
        losses = [(final_loss(seed, 1), final_loss(seed, 4)) for seed in range(n)]
        wins = sum(l4 <= l1 + 1e-12 for l1, l4 in losses)
        assert wins >= int(n * 0.7)
        assert np.mean([l4 for _, l4 in losses]) < np.mean([l1 for l1, _ in losses])

    def test_gradual_beats_oneshot_with_equal_recovery_budget(self):
        """Three-step sweep to 90% vs a single prune with the same total
        recovery steps: gradual wins on nearly every seed (49/50 in the
        pinning run)."""
        targets, interval = (0.5, 0.7, 0.9), 20
        sched = LrSchedule(5e-3, 1e-4, interval)
        n = 20
        wins = 0
        for seed in range(n):
            mg = pipeline.toy_train(seed, (16, 24, 8), steps=200, lr=0.05)
            plan = plan_sweep(list(targets), interval)
            rg, _ = pipeline.run_gradual(mg, ovit_spec(), plan, sched)
            mo = pipeline.toy_train(seed, (16, 24, 8), steps=200, lr=0.05)
            ro = pipeline.run_oneshot_finetune(
                mo, ovit_spec(), targets[-1], len(targets) * interval, sched
            )
            wins += rg.final_loss <= ro.final_loss + 1e-12
        assert wins >= int(n * 0.7)
