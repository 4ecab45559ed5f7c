"""Toy models, gradient collection, and the end-to-end run modes."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsprune import cli, pipeline
from obsprune.fisher import FisherConfig, iter_block_inverses
from obsprune.pruners import PrunerSpec, run_pruner
from obsprune.schedules import LrSchedule, recovery_lr
from obsprune.tensorstore import GradientSet
from reference_rows import per_sample_gradients


def ovit_spec(block_size=16, recompute=1):
    return PrunerSpec(
        method="ovit",
        fisher=FisherConfig(block_size=block_size, dampening=1e-8, num_grads=4096),
        nm=None,
        recomputations=recompute,
        per_layer=False,
        threads=1,
    )


def quadratic_hessian(model):
    """True Hessian of a single-layer MSE toy with scalar output."""
    assert len(model.dims) == 2 and model.dims[1] == 1 and model.loss_kind == "mse"
    X = model.inputs
    return X.T @ X / X.shape[0]


def reference_batch_gradient(model, weights=None):
    """The mean of the per-sample gradient rows, the obvious way."""
    per = per_sample_gradients(model, weights)
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


def reference_forward(model, weights):
    """Hidden activations (None for one layer) and outputs, in fresh arrays."""
    X = model.inputs
    if len(model.dims) == 2:
        return None, X @ weights["0"].T
    a = np.tanh(X @ weights["0"].T)
    return a, a @ weights["1"].T


def reference_step_gradient(model, weights):
    """The mean gradient of one step, computed with fresh arrays by the
    same operations in the same order as the training workspace."""
    X, n = model.inputs, model.num_samples
    a, out = reference_forward(model, weights)
    if model.loss_kind == "mse":
        r = out - model.targets
    else:
        shifted = out - out.max(axis=1, keepdims=True)
        r = np.exp(shifted) / np.sum(np.exp(shifted), axis=1, keepdims=True)
        r[np.arange(n), model.targets.astype(np.int64)] -= 1.0
    if a is None:
        return {"0": r.T @ X / n}
    back = (r @ weights["1"]) * (1.0 - a * a)
    return {"0": back.T @ X / n, "1": r.T @ a / n}


def reference_loss(model):
    _, out = reference_forward(model, model.weights)
    if model.loss_kind == "mse":
        r = out - model.targets
        return float((0.5 * np.sum(r * r, axis=1)).mean())
    shifted = out - out.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1)) + out.max(axis=1)
    return float((logz - out[np.arange(out.shape[0]), model.targets.astype(np.int64)]).mean())


def reference_train_model(model, steps, lr, masks=None, start_step=0):
    """Full-batch descent that allocates fresh weights and temporaries at
    every step; returns the final loss."""
    lr_fn = lr if callable(lr) else (lambda _t: lr)
    drop = None
    if masks is not None:
        drop = {k: np.asarray(m).reshape(model.weights[k].shape) == 0 for k, m in masks.items()}
        for k, d in drop.items():
            model.weights[k] = model.weights[k] * ~d
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            g = reference_step_gradient(model, model.weights)
            eta = float(lr_fn(start_step + t))
            for k in model.weights:
                model.weights[k] = model.weights[k] - eta * g[k]
                if drop is not None:
                    model.weights[k][drop[k]] = 0.0
            if not all(np.all(np.isfinite(v)) for v in model.weights.values()):
                raise pipeline.DivergenceError(f"non-finite weights at step {start_step + t}")
    return reference_loss(model)


def twin(model):
    return pipeline.ToyModel(model.dims, model.copy_weights(), model.inputs,
                             model.targets, model.loss_kind)


def every_third_pruned(model):
    return {k: (np.arange(v.size) % 3 != 0).astype(np.uint8) for k, v in model.weights.items()}


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
        per = per_sample_gradients(model)
        batch = pipeline.batch_gradient(model)
        for key in per:
            mean = per[key].mean(axis=0).reshape(model.weights[key].shape)
            np.testing.assert_allclose(mean, batch[key], atol=1e-12)

    def test_row_layout_is_row_major_per_sample(self):
        """Row j of the collected matrix must be sample j's gradient,
        flattened the same way the weights are."""
        model = pipeline.make_toy(5, (4, 3), n_samples=6)
        per = per_sample_gradients(model)["0"]
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


class TestFactoredRows:
    """``collect_grads`` keeps every layer's rows as residual x input
    factors and forms only the range a reader asks for."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_range_has_the_reference_bytes(self, data):
        """Columns, rows, heads and ``samples`` of each factored set are the
        bytes of the same slice of the dense reference rows, signed zeros
        included: a one-class logistic residual is exactly 0, and a hidden
        unit whose outgoing weights are all pruned backpropagates 0."""
        loss = data.draw(st.sampled_from(["mse", "logistic"]), label="loss")
        dims = tuple(data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=3),
                               label="dims"))
        samples = data.draw(st.integers(1, 12), label="samples")
        n = data.draw(st.integers(1, samples), label="n")
        model = pipeline.make_toy(data.draw(st.integers(0, 2**16), label="seed"), dims,
                                  n_samples=samples, loss=loss)
        if len(dims) == 3 and data.draw(st.booleans(), label="prune a hidden unit"):
            model.weights["1"][:, 0] = 0.0
        want = per_sample_gradients(model, n=n)
        got = pipeline.collect_grads(model, n)
        assert list(got) == list(want)
        for key, rows in want.items():
            gs = got[key]
            assert gs.factors is not None and (gs.num_samples, gs.dim) == rows.shape
            d = rows.shape[1]
            lo = data.draw(st.integers(0, d), label="column lo")
            hi = data.draw(st.integers(lo, d), label="column hi")
            head = data.draw(st.integers(1, n), label="head")
            assert gs.columns(lo, hi).tobytes() == rows[:, lo:hi].tobytes()
            assert gs.head(head).columns(lo, hi).tobytes() == rows[:head, lo:hi].tobytes()
            lo = data.draw(st.integers(0, n), label="row lo")
            hi = data.draw(st.integers(lo, n), label="row hi")
            assert gs.rows(lo, hi).tobytes() == rows[lo:hi].tobytes()
            assert gs.samples.tobytes() == rows.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), o=st.integers(1, 4),
           i=st.integers(1, 4), special=st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_the_factor_scan_raises_exactly_on_non_finite_rows(self, seed, n, o, i, special):
        """Factors near 1e154 overflow in some products and not in others;
        the build's scan of the factors raises exactly when the dense rows
        hold an inf or a NaN."""
        rng = np.random.default_rng(seed)
        r = rng.uniform(-1.5, 1.5, (n, o)) * 10.0 ** rng.integers(150, 156, (n, o))
        x = rng.uniform(-1.5, 1.5, (n, i)) * 10.0 ** rng.integers(150, 156, (n, i))
        if special is not None:
            f = (r, x)[rng.integers(2)]
            f[rng.integers(n), rng.integers(f.shape[1])] = special
        with np.errstate(all="ignore"):
            rows = np.einsum("no,ni->noi", r, x).reshape(n, -1)
        gs = GradientSet("0", factors=(r, x))
        cfg = FisherConfig(4, 1e-8, n)
        if np.isfinite(rows).all():
            iter_block_inverses([(gs, None)], cfg)
        else:
            with pytest.raises(ValueError, match="non-finite"):
                iter_block_inverses([(gs, None)], cfg)


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

    @pytest.mark.parametrize("dims,loss", TOYS)
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    @pytest.mark.parametrize("lr,start_step", [
        (0.05, 0),
        (lambda t: 0.08 / (1 + t), 0),
        (lambda t: 0.08 / (1 + t), 7),
    ], ids=["constant", "callable", "callable-offset"])
    def test_steps_are_bit_identical_to_the_reference_loop(self, dims, loss, masked, lr,
                                                            start_step):
        model = pipeline.make_toy(83, dims, n_samples=40, noise=0.3, loss=loss)
        ref = twin(model)
        masks = every_third_pruned(model) if masked else None
        got = pipeline.train_model(model, 40, lr, masks=masks, start_step=start_step)
        want = reference_train_model(ref, 40, lr, masks=masks, start_step=start_step)
        assert got == want
        assert list(model.weights) == list(ref.weights)
        for k in ref.weights:
            assert np.array_equal(model.weights[k], ref.weights[k])

    def test_divergence_stops_at_the_reference_step(self):
        model = pipeline.make_toy(17, (6, 8, 2), n_samples=16)
        ref = twin(model)
        with pytest.raises(pipeline.DivergenceError) as want:
            reference_train_model(ref, 200, 1e4)
        with pytest.raises(pipeline.DivergenceError) as got:
            pipeline.train_model(model, 200, 1e4)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    def test_arrays_the_caller_holds_are_never_written(self, masked):
        model = pipeline.make_toy(89, (6, 8, 3), n_samples=24)
        flat = np.concatenate([v.reshape(-1) for v in model.weights.values()])
        held = flat.copy()
        # per-layer views into one vector, as split_by_layer hands them out
        offsets = np.cumsum([0] + [v.size for v in model.weights.values()])
        model.weights = {k: flat[offsets[i]:offsets[i + 1]].reshape(v.shape)
                         for i, (k, v) in enumerate(model.weights.items())}
        views = dict(model.weights)
        masks = every_third_pruned(model) if masked else None
        pipeline.train_model(model, 15, 0.05, masks=masks)
        assert flat.tobytes() == held.tobytes()
        for k, v in views.items():
            assert model.weights[k] is not v
            assert not np.shares_memory(model.weights[k], flat)

    def test_workspace_reuses_its_buffers(self):
        model = pipeline.make_toy(97, (5, 8, 3), n_samples=30)
        ws = pipeline._Workspace(model)
        first = ws.gradient(model.weights)
        other = {k: 2.0 * v for k, v in model.weights.items()}
        second = ws.gradient(other)
        want = pipeline.batch_gradient(model, other)
        for k in want:
            assert second[k] is first[k]
            assert np.shares_memory(second[k], ws.grads[k])
            assert np.array_equal(second[k], want[k])

    @pytest.mark.parametrize("dims, loss", [((5, 8, 3), "mse"), ((5, 3), "logistic")])
    def test_loss_only_workspace_holds_no_backward_buffer(self, dims, loss):
        """A workspace that only evaluates the loss, as ``model_loss`` uses
        it, allocates no backward buffer; its first gradient allocates them
        and matches a fresh workspace's bytes."""
        model = pipeline.make_toy(97, dims, n_samples=30, loss=loss)
        ws = pipeline._Workspace(model)
        assert ws.loss(model.weights) == pipeline.model_loss(model)
        assert ws.r is None and ws.back is None and ws.scratch is None and ws.grads is None
        got, want = ws.gradient(model.weights), pipeline.batch_gradient(model)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        assert ws.r is not None and ws.grads is not None

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
        per = per_sample_gradients(model)["0"]
        emp = per.T @ per / per.shape[0]
        np.testing.assert_allclose(emp, quadratic_hessian(model), atol=1e-12)

    def test_predicted_increase_matches_true_increase(self):
        """On the quadratic toy the model is its own second-order expansion,
        so the solver's predicted cost must match reality to float precision."""
        for seed in (41, 43, 47):
            model = pipeline.make_quadratic_toy(seed, d=16, n_base=40)
            base = pipeline.model_loss(model)
            spec = ovit_spec(block_size=16)
            report, _ = pipeline.run_gradual(model, spec, (0.5,), 0)
            true_inc = pipeline.model_loss(model) - base
            assert report.events[0].predicted_increase == pytest.approx(
                true_inc, abs=1e-6, rel=1e-6
            )


class TestRunModes:
    def test_oneshot_reports_sparsity_and_masks(self):
        model = pipeline.toy_train(53, (6, 8, 4), steps=80, lr=0.05)
        report, checkpoints = pipeline.run_gradual(model, ovit_spec(), (0.5,), 0)
        ev = report.events[0]
        masks = checkpoints[-1][2]
        total = sum(v.size for v in masks.values())
        zeros = sum(int((v == 0).sum()) for v in masks.values())
        assert ev.sparsity == pytest.approx(zeros / total)
        assert ev.loss_after >= ev.loss_before - 1e-12
        # masked weights really are zero in the model
        for k, m in masks.items():
            assert (model.weights[k][m.reshape(model.weights[k].shape) == 0] == 0).all()

    def test_recovery_lowers_the_post_prune_loss(self):
        model = pipeline.toy_train(59, (8, 12, 4), steps=150, lr=0.05)
        schedule = LrSchedule(5e-3, 1e-4, 20)
        report, checkpoints = pipeline.run_gradual(model, ovit_spec(), (0.5,), 40, schedule)
        ev = report.events[0]
        assert ev.post_recovery_loss < ev.loss_after
        # recovery must not resurrect pruned weights
        for k, m in checkpoints[-1][2].items():
            assert (model.weights[k][m.reshape(model.weights[k].shape) == 0] == 0).all()

    def test_zero_recovery_steps_reduces_to_oneshot(self):
        """An event with no recovery leaves the prune's weights byte for
        byte, and its post-recovery loss is its post-prune loss."""
        model = pipeline.toy_train(61, (5, 6, 2), steps=50, lr=0.05)
        spec = ovit_spec()
        rows = pipeline.collect_grads(model, model.num_samples)
        pruned = run_pruner(spec, model.weights, rows, sparsity=0.4)
        report, checkpoints = pipeline.run_gradual(model, spec, (0.4,), 0)
        flat = np.concatenate([w.reshape(-1) for w in checkpoints[-1][1].values()])
        assert flat.tobytes() == pruned.new_weights.tobytes()
        ev = report.events[0]
        assert ev.post_recovery_loss == ev.loss_after == report.final_loss

    def test_gradual_masks_grow_and_checkpoints_match_targets(self):
        model = pipeline.toy_train(67, (10, 16, 5), steps=120, lr=0.05)
        report, checkpoints = pipeline.run_gradual(
            model, ovit_spec(), (0.25, 0.5, 0.75), 10, LrSchedule(5e-3, 1e-4, 10)
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

    @pytest.mark.parametrize("acyclic", [False, True], ids=["cyclic", "acyclic"])
    def test_extra_steps_continue_the_last_window_on_the_runs_clock(self, acyclic):
        """``extra_steps=k`` has the bytes of the run followed by k masked
        steps on its own recovery clock from step len(targets) * interval:
        the weights, ``final_loss`` and the last checkpoint. The events and
        earlier checkpoints are the run's, and ``extra_steps=0`` is the
        run itself."""
        targets, interval, k = (0.3, 0.6), 6, 9
        schedule = LrSchedule(5e-3, 1e-4, 4)

        def run(**extra):
            model = pipeline.toy_train(73, (8, 12, 4), steps=60, lr=0.05)
            return (model, *pipeline.run_gradual(model, ovit_spec(8), targets, interval,
                                                 schedule, acyclic=acyclic, **extra))

        def raw(weights):
            return {lid: w.tobytes() for lid, w in weights.items()}

        def cp_bytes(checkpoints):
            return [(t, raw(w), raw(m)) for t, w, m in checkpoints]

        model, report, checkpoints = run()
        zero_model, zero_report, zero_checkpoints = run(extra_steps=0)
        assert raw(zero_model.weights) == raw(model.weights)
        assert zero_report == report
        assert cp_bytes(zero_checkpoints) == cp_bytes(checkpoints)

        span = len(targets) * interval
        target, _, masks = checkpoints[-1]
        final = pipeline.train_model(model, k, recovery_lr(schedule, acyclic, span),
                                     masks=masks, start_step=span)
        longer, longer_report, longer_checkpoints = run(extra_steps=k)
        assert raw(longer.weights) == raw(model.weights)
        assert longer_report.final_loss == final != report.final_loss
        assert longer_report.events == report.events
        assert cp_bytes(longer_checkpoints) == cp_bytes(
            checkpoints[:-1] + [(target, model.weights, masks)])

    def test_report_lines_are_deterministic(self):
        """Two runs of one seed report the same lines, and ``toy`` prints
        them after its two ``train`` lines."""
        a = pipeline.toy_train(71, (5, 6, 2), steps=40, lr=0.05)
        ra, _ = pipeline.run_gradual(a, ovit_spec(), (0.5,), 0)
        b = pipeline.toy_train(71, (5, 6, 2), steps=40, lr=0.05)
        rb, _ = pipeline.run_gradual(b, ovit_spec(), (0.5,), 0)
        assert cli.report_lines(ra) == cli.report_lines(rb)
        out = io.StringIO()
        assert cli.main(["toy", "--seed", "71", "--dims", "5,6,2", "--steps", "40",
                         "--sparsity", "0.5", "--recovery", "0", "--block-size", "16"],
                        out=out) == 0
        assert out.getvalue().splitlines()[2:] == cli.report_lines(ra)


class TestDirectional:
    """Statistical comparisons on seeded families. The margins were
    measured over larger seed sets before pinning; thresholds sit well
    below the observed win rates."""

    def test_recomputing_curvature_helps_at_high_sparsity(self):
        """90% one-shot on the tanh toy: four Fisher recomputations track
        the moving curvature and beat a single computation on nearly every
        seed (50/50 in the pinning run)."""
        from obsprune.pruners import split_by_layer

        def final_loss(seed, recompute):
            m = pipeline.toy_train(seed, (16, 24, 8), steps=150, lr=0.05)

            def provider(w_now):
                for k in m.weights:
                    m.weights[k] = np.asarray(w_now[k]).reshape(m.weights[k].shape)
                return pipeline.collect_grads(m, m.num_samples)

            spec = ovit_spec(recompute=recompute)
            res = run_pruner(spec, m.weights, provider, sparsity=0.9)
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
            rg, _ = pipeline.run_gradual(mg, ovit_spec(), targets, interval, sched)
            mo = pipeline.toy_train(seed, (16, 24, 8), steps=200, lr=0.05)
            ro, _ = pipeline.run_gradual(
                mo, ovit_spec(), targets[-1:], len(targets) * interval, sched
            )
            wins += rg.final_loss <= ro.final_loss + 1e-12
        assert wins >= int(n * 0.7)
