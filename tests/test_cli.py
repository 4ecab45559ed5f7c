"""End-to-end command line behavior, exit codes, and byte determinism."""

import io
import os
import pathlib

import numpy as np
import pytest

from obsprune import pipeline
from obsprune.cli import main
from obsprune.pruners import sparsity_to_k
from obsprune.tensorstore import (
    TensorContainer,
    read_container,
    write_container,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def fixture_files(tmp_path):
    """A trained toy exported to weight and gradient containers."""
    model = pipeline.toy_train(21, (6, 10, 4), steps=100, lr=0.05)
    grads = pipeline.collect_grads(model, 64)
    wbox, gbox = TensorContainer(), TensorContainer()
    for lid, w in model.weights.items():
        wbox.add(f"layer.{lid}.weight", w)
        gbox.add(f"layer.{lid}.grads", grads[lid].samples)
    wpath, gpath = tmp_path / "weights.ovpt", tmp_path / "grads.ovpt"
    write_container(wpath, wbox)
    write_container(gpath, gbox)
    return wpath, gpath, tmp_path


class TestPrune:
    def test_writes_masked_container_and_summary(self, fixture_files):
        wpath, gpath, tmp = fixture_files
        out_path = tmp / "pruned.ovpt"
        code, text = run_cli(
            "prune", "--weights", str(wpath), "--grads", str(gpath),
            "--method", "ovit", "--sparsity", "0.5",
            "--block-size", "16", "--out", str(out_path),
        )
        assert code == 0
        assert "total\tsparsity\t0.5" in text
        box = read_container(out_path)
        for lid in ("0", "1"):
            w = box[f"layer.{lid}.weight"].array()
            m = box[f"layer.{lid}.mask"].array()
            assert (w.reshape(-1)[m.reshape(-1) == 0] == 0).all()

    def test_gm_needs_no_grads(self, fixture_files):
        wpath, _, tmp = fixture_files
        code, text = run_cli(
            "prune", "--weights", str(wpath), "--method", "gm",
            "--sparsity", "0.25", "--out", str(tmp / "gm.ovpt"),
        )
        assert code == 0
        assert "predicted\t0\n" in text

    def test_wf_without_grads_is_a_runtime_failure(self, fixture_files):
        wpath, _, tmp = fixture_files
        code, _ = run_cli(
            "prune", "--weights", str(wpath), "--method", "wf",
            "--sparsity", "0.25", "--out", str(tmp / "x.ovpt"),
        )
        assert code == 3

    def test_missing_file_is_a_runtime_failure(self, tmp_path):
        code, _ = run_cli(
            "prune", "--weights", str(tmp_path / "nope.ovpt"),
            "--method", "gm", "--sparsity", "0.5",
            "--out", str(tmp_path / "x.ovpt"),
        )
        assert code == 3

    def test_usage_errors_exit_two(self):
        code, _ = run_cli("prune", "--method", "gm")
        assert code == 2
        code, _ = run_cli("prune", "--weights", "w", "--method", "nope",
                          "--sparsity", "0.5", "--out", "x")
        assert code == 2
        # --sparsity and --nm are mutually exclusive
        code, _ = run_cli("prune", "--weights", "w", "--method", "gm",
                          "--sparsity", "0.5", "--nm", "2:4", "--out", "x")
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ("--method", "gm"),
        ("--method", "wf"),
        ("--method", "ovit", "--per-layer"),
        ("--method", "ovit", "--recompute", "2"),
    ])
    def test_nm_combinations_that_would_be_ignored_exit_two(self, tmp_path, extra):
        # the inputs do not exist: a check made after loading them would exit 3
        code, text = run_cli(
            "prune", "--weights", str(tmp_path / "w.ovpt"),
            "--grads", str(tmp_path / "g.ovpt"), "--nm", "2:4", *extra,
            "--out", str(tmp_path / "x.ovpt"),
        )
        assert (code, text) == (2, "")

    def test_recompute_with_one_gradient_file_exits_two(self, tmp_path, capsys):
        # every sub-step would rebuild the identical inverse from the same rows
        code, text = run_cli(
            "prune", "--weights", str(tmp_path / "w.ovpt"),
            "--grads", str(tmp_path / "g.ovpt"), "--method", "ovit",
            "--sparsity", "0.5", "--recompute", "2", "--out", str(tmp_path / "x.ovpt"),
        )
        assert (code, text) == (2, "")
        err_lines = capsys.readouterr().err.splitlines()
        assert len([line for line in err_lines if "error:" in line]) == 1
        assert "--recompute" in err_lines[-1]

    def test_nm_block_size_rounding_warns_on_stderr_only(self, fixture_files, capsys):
        wpath, gpath, tmp = fixture_files
        runs = []
        for block in ("30", "28"):
            out_path = tmp / f"nm{block}.ovpt"
            code, text = run_cli(
                "prune", "--weights", str(wpath), "--grads", str(gpath),
                "--method", "ovit", "--nm", "2:4", "--block-size", block,
                "--out", str(out_path),
            )
            assert code == 0
            runs.append((text, out_path.read_bytes(), capsys.readouterr().err))
        assert runs[0][:2] == runs[1][:2]
        assert runs[0][2] == "warning: block size 30 is not a multiple of m=4; using 28\n"
        assert runs[1][2] == ""

    def test_identical_bytes_across_runs_and_threads(self, fixture_files):
        wpath, gpath, tmp = fixture_files
        results = []
        for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out_path = tmp / f"{tag}.ovpt"
            code, text = run_cli(
                "prune", "--weights", str(wpath), "--grads", str(gpath),
                "--method", "ovit", "--sparsity", "0.6",
                "--block-size", "8", "--threads", threads,
                "--out", str(out_path),
            )
            assert code == 0
            results.append((text, out_path.read_bytes()))
        assert results[0] == results[1] == results[2]


class TestEval:
    def test_scores_match_a_gm_prune(self, fixture_files):
        """eval recomputes exactly the quadratic increase the gm path
        reported, because both use the same gradient rows and dampening."""
        wpath, gpath, tmp = fixture_files
        out_path = tmp / "gm.ovpt"
        code, prune_text = run_cli(
            "prune", "--weights", str(wpath), "--grads", str(gpath),
            "--method", "gm", "--sparsity", "0.5", "--out", str(out_path),
        )
        assert code == 0
        code, eval_text = run_cli(
            "eval", "--weights-before", str(wpath),
            "--weights-after", str(out_path), "--grads", str(gpath),
        )
        assert code == 0
        prune_total = prune_text.splitlines()[-1].split("\t")
        eval_total = eval_text.splitlines()[-1].split("\t")
        assert prune_total[0] == eval_total[0] == "total"
        assert float(prune_total[4]) == pytest.approx(float(eval_total[2]), rel=1e-9)

    def test_csv_rows_match_the_per_layer_lines(self, fixture_files):
        wpath, gpath, tmp = fixture_files
        out_path, csv_path = tmp / "wf.ovpt", tmp / "eval.csv"
        code, _ = run_cli("prune", "--weights", str(wpath), "--grads", str(gpath),
                          "--method", "wf", "--sparsity", "0.5", "--out", str(out_path))
        assert code == 0
        code, text = run_cli(
            "eval", "--weights-before", str(wpath), "--weights-after", str(out_path),
            "--grads", str(gpath), "--csv", str(csv_path),
        )
        assert code == 0
        layer_lines = [ln.split("\t") for ln in text.splitlines()
                       if ln.startswith("layer.")]
        assert len(layer_lines) == 2
        expected = ["layer,predicted,sparsity"] + [
            f"{name},{pred},{sparsity}"
            for name, _, pred, _, sparsity in layer_lines
        ]
        assert csv_path.read_text() == "\n".join(expected) + "\n"

    def test_shape_mismatch_is_a_runtime_failure(self, fixture_files, tmp_path):
        wpath, gpath, _ = fixture_files
        bad = TensorContainer()
        bad.add("layer.0.weight", np.zeros((3, 3)))
        bad.add("layer.1.weight", np.zeros((4, 10)))
        bad_path = tmp_path / "bad.ovpt"
        write_container(bad_path, bad)
        code, _ = run_cli(
            "eval", "--weights-before", str(wpath),
            "--weights-after", str(bad_path), "--grads", str(gpath),
        )
        assert code == 3

    def test_nm_compliance_gates_the_exit_code(self, fixture_files):
        wpath, gpath, tmp = fixture_files
        dense_out = tmp / "dense.ovpt"
        run_cli("prune", "--weights", str(wpath), "--grads", str(gpath),
                "--method", "ovit", "--sparsity", "0.5", "--out", str(dense_out))
        code, text = run_cli(
            "eval", "--weights-before", str(wpath),
            "--weights-after", str(dense_out), "--grads", str(gpath),
            "--nm", "2:4",
        )
        assert code == 1
        assert "nm\tviolations\t" in text

        nm_out = tmp / "nm.ovpt"
        run_cli("prune", "--weights", str(wpath), "--grads", str(gpath),
                "--method", "ovit", "--nm", "2:4", "--block-size", "8",
                "--out", str(nm_out))
        code, text = run_cli(
            "eval", "--weights-before", str(wpath),
            "--weights-after", str(nm_out), "--grads", str(gpath),
            "--nm", "2:4",
        )
        assert code == 0
        assert "nm\tviolations\t0" in text


class TestCorrelationAdvantage:
    def test_stateful_predictions_beat_frozen_scores_when_it_matters(self, tmp_path):
        """Anti-correlated coordinates: removing one weight lets the
        compensation absorb most of its partner, so the stateful path
        predicts a smaller total increase than summed frozen scores."""
        fisher = np.array([[2.0, -1.9], [-1.9, 2.0]])
        L = np.linalg.cholesky(fisher)
        rows = np.sqrt(2.0) * L.T
        box = TensorContainer()
        box.add("layer.0.weight", np.array([1.0, 1.0]))
        gbox = TensorContainer()
        gbox.add("layer.0.grads", rows)
        wpath, gpath = tmp_path / "w.ovpt", tmp_path / "g.ovpt"
        write_container(wpath, box)
        write_container(gpath, gbox)
        totals = {}
        for method in ("wf", "ovit"):
            code, text = run_cli(
                "prune", "--weights", str(wpath), "--grads", str(gpath),
                "--method", method, "--sparsity", "1.0",
                "--block-size", "2", "--damp", "1e-9",
                "--out", str(tmp_path / f"{method}.ovpt"),
            )
            assert code == 0
            totals[method] = float(text.splitlines()[-1].split("\t")[4])
        assert totals["ovit"] < totals["wf"]
        # stateful total is the exact quadratic 0.5 w'Fw = 0.1; the frozen
        # path stacks two copies of the single-removal cost 0.0975
        assert totals["ovit"] == pytest.approx(0.1, rel=1e-3)
        assert totals["wf"] == pytest.approx(0.195, rel=1e-3)


class TestToyAndSweep:
    def test_toy_one_shot_runs_and_reports(self, tmp_path):
        code, text = run_cli(
            "toy", "--seed", "3", "--dims", "6,8,4", "--steps", "60",
            "--method", "ovit", "--sparsity", "0.5", "--recovery", "10",
        )
        assert code == 0
        assert text.startswith("train\tloss\t")
        assert "final\tloss\t" in text

    def test_sweep_checkpoints_have_exact_target_sparsities(self, tmp_path):
        prefix = tmp_path / "cp"
        code, text = run_cli(
            "sweep", "--seed", "3", "--dims", "10,16,5", "--steps", "60",
            "--targets", "0.25,0.5,0.75", "--interval", "10",
            "--out", str(prefix),
        )
        assert code == 0
        for target in (0.25, 0.5, 0.75):
            box = read_container(f"{prefix}.{target:g}.ovpt")
            masks = np.concatenate([
                box[n].array().reshape(-1) for n in box.names() if n.endswith(".mask")
            ])
            assert (masks == 0).mean() == pytest.approx(target)

    def test_config_file_supplies_schedule_and_targets(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "lr.max = 1e-3\nlr.min = 1e-5\nlr.period = 10\n"
            "sweep.targets = 0.3, 0.6\nsweep.interval = 10\n"
        )
        code, text = run_cli(
            "toy", "--seed", "5", "--dims", "6,8,4", "--steps", "50",
            "--config", str(cfg),
        )
        assert code == 0
        assert "10\tsparsity\t0.6" in text

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep.targets = 0.3, 0.6\nsweep.interval = 10\n")
        code, text = run_cli(
            "toy", "--seed", "5", "--dims", "6,8,4", "--steps", "50",
            "--config", str(cfg), "--targets", "0.4", "--interval", "5",
        )
        assert code == 0
        assert "0\tsparsity\t0.4" in text
        assert "sparsity\t0.6" not in text

    def test_toy_nm_mode(self):
        code, text = run_cli(
            "toy", "--seed", "7", "--dims", "8,8,4", "--steps", "40",
            "--nm", "2:4", "--block-size", "8", "--recovery", "5",
        )
        assert code == 0
        assert "final\tloss\t" in text

    @pytest.mark.parametrize("extra", [
        ("--recompute", "3"),
        ("--per-layer",),
        ("--method", "wf"),
    ])
    def test_toy_nm_combinations_that_would_be_ignored_exit_two(self, extra):
        code, text = run_cli(
            "toy", "--seed", "7", "--dims", "8,8,4", "--steps", "40",
            "--nm", "2:4", "--block-size", "8", *extra,
        )
        assert (code, text) == (2, "")  # rejected before training starts

    @pytest.mark.parametrize("recompute", ["1", "3"])
    def test_toy_per_layer_prunes_every_layer_to_the_target(self, recompute):
        # layers of 35 and 21 weights: 0.5 rounds half-up to 18 and 11 zeros
        code, text = run_cli(
            "toy", "--seed", "3", "--dims", "5,7,3", "--steps", "40",
            "--sparsity", "0.5", "--per-layer", "--recompute", recompute,
            "--block-size", "8",
        )
        assert code == 0
        final = dict(ln.split("\t")[1:] for ln in text.splitlines()
                     if ln.startswith("final\tsparsity."))
        assert final == {
            f"sparsity.{lid}": f"{sparsity_to_k(0.5, size) / size:.12g}"
            for lid, size in (("0", 35), ("1", 21))
        }

    def test_sweep_per_layer_with_recompute_keeps_masks_monotone(self, tmp_path):
        prefix = tmp_path / "cp"
        code, _ = run_cli(
            "sweep", "--seed", "3", "--dims", "5,7,3", "--steps", "40",
            "--targets", "0.3,0.5,0.7", "--interval", "5", "--per-layer",
            "--recompute", "2", "--block-size", "8", "--out", str(prefix),
        )
        assert code == 0
        prev = None
        for target in (0.3, 0.5, 0.7):
            box = read_container(f"{prefix}.{target:g}.ovpt")
            zero = {lid: box[f"layer.{lid}.mask"].array().reshape(-1) == 0
                    for lid in ("0", "1")}
            for lid, z in zero.items():
                assert z.sum() == sparsity_to_k(target, z.size)
                if prev is not None:
                    assert (prev[lid] <= z).all()  # nothing comes back
            prev = zero

    def test_sweep_event_reports_the_reached_sparsity(self, tmp_path):
        # 18 + 11 of 56 weights: the per-layer rounding overshoots the target
        common = ("--seed", "3", "--dims", "5,7,3", "--steps", "40",
                  "--per-layer", "--block-size", "8")
        code, sweep = run_cli("sweep", *common, "--targets", "0.5", "--interval", "5",
                              "--out", str(tmp_path / "cp"))
        assert code == 0
        code, toy = run_cli("toy", *common, "--sparsity", "0.5")
        assert code == 0
        for text in (sweep, toy):
            assert "0\tsparsity\t0.517857142857\n" in text
        assert "checkpoint\t0.5\t" in sweep  # the file name keeps the target

    @pytest.mark.parametrize("command, extra", [
        ("toy", ("--sparsity", "0.5", "--recovery", "5", "--recompute", "2")),
        ("sweep", ("--targets", "0.25,0.5", "--interval", "5")),
    ])
    def test_csv_is_the_event_lines_of_stdout(self, tmp_path, command, extra):
        csv_path = tmp_path / "run.csv"
        argv = ["--seed", "4", "--dims", "6,8,4", "--steps", "30", *extra,
                "--csv", str(csv_path)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "cp")]
        code, text = run_cli(command, *argv)
        assert code == 0
        events = [ln.replace("\t", ",") for ln in text.splitlines()
                  if ln.split("\t")[0].isdigit()]
        assert len(events) >= 5
        assert csv_path.read_text() == "\n".join(["step,field,value", *events]) + "\n"

    def test_divergent_learning_rate_exits_three(self):
        code, _ = run_cli(
            "toy", "--seed", "7", "--dims", "6,8,4", "--steps", "60",
            "--sparsity", "0.5", "--recovery", "30", "--lr-max", "1e6",
            "--lr-min", "1e5",
        )
        assert code == 3


class TestGolden:
    def test_toy_report_matches_golden(self):
        """Full report of a pinned run. Regenerate with
        OBSPRUNE_REGEN_GOLDEN=1 after an intentional behavior change."""
        argv = (
            "toy", "--seed", "1234", "--dims", "8,12,4", "--steps", "80",
            "--method", "ovit", "--sparsity", "0.6", "--recovery", "15",
            "--block-size", "12",
        )
        code, text = run_cli(*argv)
        assert code == 0
        golden = GOLDEN_DIR / "toy_report.txt"
        if os.environ.get("OBSPRUNE_REGEN_GOLDEN") == "1":
            golden.parent.mkdir(exist_ok=True)
            golden.write_text(text)
        assert text == golden.read_text()


def test_oracle_subcommand_three_ways_agree():
    code, text = run_cli("oracle", "--seed", "2", "--dim", "6", "--k", "2",
                         "--num-grads", "24")
    assert code == 0
    lines = dict(
        (ln.split("\t")[0], ln.split("\t")[1:]) for ln in text.splitlines()
    )
    assert lines["exhaustive"][0] == lines["regression"][0]
    assert float(lines["greedy"][0]) >= 0.0
