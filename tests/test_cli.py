"""End-to-end command line behavior, exit codes, and byte determinism."""

import errno
import io
import os
import pathlib
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from obsprune import pipeline
from obsprune.cli import main
from obsprune.pruners import sparsity_to_k
from obsprune.tensorstore import read_container, write_container

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# ``main`` in a child whose gradient file loses its second half once its
# rows are loaded
_SHRINK_SCRIPT = """
import os, sys
from obsprune import cli

real = cli.read_gradients

def read_then_shrink(path, ids):
    sets = real(path, ids)
    os.truncate(path, os.path.getsize(path) // 2)
    return sets

cli.read_gradients = read_then_shrink
sys.exit(cli.main(sys.argv[1:]))
"""


def ovpt_bytes(*tensors):
    """A container of (name, dtype code, dims, data bytes) tensors, built
    by hand so that it may break the rules ``write_container`` keeps."""
    parts = [b"OVPT", struct.pack("<II", 1, len(tensors))]
    for name, code, dims, data in tensors:
        parts += [struct.pack("<I", len(name)), name.encode(),
                  struct.pack(f"<BI{len(dims)}Q", code, len(dims), *dims), data]
    return b"".join(parts)


_WEIGHT = ("layer.0.weight", 1, (2, 4), np.ones(8).tobytes())


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def fixture_files(tmp_path):
    """A trained toy exported to weight and gradient containers."""
    model = pipeline.toy_train(21, (6, 10, 4), steps=100, lr=0.05)
    grads = pipeline.collect_grads(model, 64)
    wbox, gbox = {}, {}
    for lid, w in model.weights.items():
        wbox[f"layer.{lid}.weight"] = w
        gbox[f"layer.{lid}.grads"] = grads[lid].samples
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
            w = box[f"layer.{lid}.weight"]
            m = box[f"layer.{lid}.mask"]
            assert (w.reshape(-1)[m.reshape(-1) == 0] == 0).all()

    def test_gm_needs_no_grads(self, fixture_files):
        wpath, _, tmp = fixture_files
        code, text = run_cli(
            "prune", "--weights", str(wpath), "--method", "gm",
            "--sparsity", "0.25", "--out", str(tmp / "gm.ovpt"),
        )
        assert code == 0
        assert "predicted\t0\n" in text

    def test_missing_file_is_a_runtime_failure(self, tmp_path):
        code, _ = run_cli(
            "prune", "--weights", str(tmp_path / "nope.ovpt"),
            "--method", "gm", "--sparsity", "0.5",
            "--out", str(tmp_path / "x.ovpt"),
        )
        assert code == 3

    @pytest.mark.parametrize("raw", [
        ovpt_bytes(_WEIGHT, ("layer.0.prunable", 2, (2, 4), bytes([1, 0, 2, 1, 1, 1, 1, 1]))),
        ovpt_bytes(("layer.0.weight", 1, (), np.ones(1).tobytes())),
        ovpt_bytes(("layer.0.weight", 1, (2, 0), b"")),
        ovpt_bytes(("layer.0.weight", 3, (2, 4), bytes(8))),
        ovpt_bytes(_WEIGHT, _WEIGHT),
        ovpt_bytes(_WEIGHT)[:-1],
        ovpt_bytes(_WEIGHT) + b"\0",
    ], ids=["u8-value-2", "0-d", "zero-length-dim", "unknown-dtype", "duplicate",
            "truncated", "trailing-bytes"])
    def test_a_malformed_container_exits_three(self, tmp_path, capsys, raw):
        wpath, out = tmp_path / "w.ovpt", tmp_path / "x.ovpt"
        wpath.write_bytes(raw)
        code, text = run_cli("prune", "--weights", str(wpath), "--method", "gm",
                             "--sparsity", "0.5", "--out", str(out))
        assert (code, text) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

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

    def test_recompute_with_one_gradient_file_exits_two(self, tmp_path, capsys):
        # prune has no --recompute: every sub-step would rebuild the identical
        # inverse from the one gradient file, so argparse refuses the flag
        code, text = run_cli(
            "prune", "--weights", str(tmp_path / "w.ovpt"),
            "--grads", str(tmp_path / "g.ovpt"), "--method", "ovit",
            "--sparsity", "0.5", "--recompute", "2", "--out", str(tmp_path / "x.ovpt"),
        )
        assert (code, text) == (2, "")
        err_lines = capsys.readouterr().err.splitlines()
        assert len([line for line in err_lines if "error:" in line]) == 1
        assert "--recompute" in err_lines[-1]

    def test_out_may_name_the_weights_input(self, fixture_files):
        # the weights are read before the output replaces the same path
        wpath, gpath, tmp = fixture_files
        argv = ("prune", "--weights", str(wpath), "--grads", str(gpath),
                "--method", "ovit", "--sparsity", "0.5", "--block-size", "8")
        code, apart = run_cli(*argv, "--out", str(tmp / "apart.ovpt"))
        assert code == 0
        code, in_place = run_cli(*argv, "--out", str(wpath))
        assert (code, in_place) == (0, apart)
        assert wpath.read_bytes() == (tmp / "apart.ovpt").read_bytes()

    @pytest.mark.parametrize("command", ["ovit", "wf", "gm", "eval"])
    def test_nan_in_an_unused_gradient_row_exits_three(self, fixture_files, capsys, command):
        """Every row is scanned, used or not; eval, which uses them all,
        refuses a non-finite cost before it prints a line."""
        wpath, gpath, tmp = fixture_files
        box = read_container(gpath)
        rows = {name: box[name].copy() for name in box}
        rows["layer.1.grads"][-1, 0] = np.nan  # row 64 of 64; 8 are used
        bad = {}
        for name, arr in rows.items():
            bad[name] = arr
        write_container(gpath, bad)
        if command == "eval":
            argv = ("eval", "--weights-before", wpath, "--weights-after", wpath, "--grads", gpath)
        else:
            argv = ("prune", "--weights", wpath, "--grads", gpath, "--method", command,
                    "--sparsity", "0.5", "--num-grads", "8", "--out", tmp / "x.ovpt")
        code, text = run_cli(*map(str, argv))
        assert (code, text) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err
        assert not (tmp / "x.ovpt").exists()

    @pytest.mark.parametrize("command, value", [
        (("prune", "--method", "ovit", "--sparsity", "0.5"), np.nan),
        (("prune", "--method", "wf", "--sparsity", "0.5"), np.nan),
        (("prune", "--method", "gm", "--sparsity", "0.5"), np.nan),
        (("prune", "--method", "ovit", "--nm", "2:4", "--block-size", "8"), np.inf),
        (("eval", "before"), np.nan),
        (("eval", "after"), -np.inf),
    ], ids=["ovit", "wf", "gm", "nm", "eval-before", "eval-after"])
    def test_a_non_finite_weight_exits_three(self, fixture_files, capsys, command, value):
        """Every weight container is refused before any build or report line."""
        wpath, gpath, tmp = fixture_files
        box = read_container(wpath)
        bad = {}
        for name in box:
            arr = box[name].copy()
            if name == "layer.1.weight":
                arr[2, 3] = value
            bad[name] = arr
        bad_path = tmp / "bad.ovpt"
        write_container(bad_path, bad)
        if command[0] == "eval":
            pair = (bad_path, wpath) if command[1] == "before" else (wpath, bad_path)
            argv = ("eval", "--weights-before", pair[0], "--weights-after", pair[1],
                    "--grads", gpath)
        else:
            argv = (*command, "--weights", bad_path, "--grads", gpath, "--out", tmp / "x.ovpt")
        code, text = run_cli(*map(str, argv))
        assert (code, text) == (3, "")
        err = capsys.readouterr().err
        assert err == f"error: {bad_path}: layer.1.weight holds non-finite values\n"
        assert not (tmp / "x.ovpt").exists()

    @pytest.mark.parametrize("method, target", [
        ("ovit", ("--sparsity", "0.25")),
        ("ovit", ("--nm", "2:4")),
        ("wf", ("--sparsity", "0.25")),
        ("gm", ("--sparsity", "0.25")),
    ], ids=["ovit", "ovit-nm", "wf", "gm"])
    def test_frozen_weights_stay_as_they_were(self, fixture_files, method, target):
        """A ``layer.<id>.prunable`` tensor freezes its layer's weights: each
        frozen weight keeps its bytes and stays unmasked; a sparsity zeroes
        round-half-up(s*P) of the P prunable weights, and 2:4 zeroes
        min(2, prunable in group) in every group."""
        wpath, gpath, tmp = fixture_files
        box = read_container(wpath)
        rng = np.random.default_rng(3)
        frozen_in = {}
        prunable = {}
        for name in box:
            frozen_in[name] = box[name]
            flags = (rng.random(box[name].shape) < 0.6).astype(np.uint8)
            flags.reshape(-1)[:4] = 0  # a group of frozen weights only
            flags.reshape(-1)[4:8] = [0, 1, 0, 0]  # and one with a single prunable
            prunable[name] = flags.reshape(-1).astype(bool)
            frozen_in[name.replace(".weight", ".prunable")] = flags
        in_path, out_path = tmp / "frozen.ovpt", tmp / "out.ovpt"
        write_container(in_path, frozen_in)
        code, _ = run_cli("prune", "--weights", str(in_path), "--grads", str(gpath),
                          "--method", method, *target, "--out", str(out_path))
        assert code == 0
        out = read_container(out_path)
        masks = []
        for name, movable in prunable.items():
            before = box[name].reshape(-1)
            after = out[name].reshape(-1)
            mask = out[name.replace(".weight", ".mask")].reshape(-1)
            assert after[~movable].tobytes() == before[~movable].tobytes()
            assert (mask[~movable] == 1).all()
            masks.append((mask, movable))
        mask, movable = (np.concatenate(parts) for parts in zip(*masks))
        if target[0] == "--nm":
            groups = movable.reshape(-1, 4).sum(axis=1)
            zeros = (mask.reshape(-1, 4) == 0).sum(axis=1)
            assert (zeros == np.minimum(2, groups)).all() and (groups < 2).any()
        else:
            p = int(movable.sum())
            assert np.count_nonzero(mask == 0) == int(np.floor(0.25 * p + 0.5))

    @pytest.mark.parametrize("command", ["prune", "eval"])
    def test_a_gradient_file_that_shrinks_once_loaded_exits_three(self, fixture_files,
                                                                  command):
        """Rows are read by position and every read's byte count checked: the
        run ends with one error line and writes nothing. It runs in a child,
        so that a reader which maps the rows and dies of SIGBUS fails this
        test, not the test run."""
        wpath, gpath, tmp = fixture_files
        argv = {"prune": ("prune", "--weights", wpath, "--grads", gpath, "--method", "ovit",
                          "--sparsity", "0.5", "--out", tmp / "x.ovpt"),
                "eval": ("eval", "--weights-before", wpath, "--weights-after", wpath,
                         "--grads", gpath)}[command]
        src = str(pathlib.Path(pipeline.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", _SHRINK_SCRIPT, *map(str, argv)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "truncated" in proc.stderr
        assert sorted(p.name for p in tmp.iterdir()) == ["grads.ovpt", "weights.ovpt"]

    @pytest.mark.parametrize("method", ["ovit", "wf"])
    def test_a_failed_spill_write_exits_three(self, fixture_files, capsys, monkeypatch,
                                              spill_files, method):
        """A disk that fills under the spill file (``tensorstore.Spill``):
        one error line that names the spill's directory, no report, no
        output file, the spill closed and nothing left in that directory."""
        wpath, gpath, tmp = fixture_files
        spill_dir = tmp / "spill"
        spill_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))

        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "pwrite", full)
        code, text = run_cli("prune", "--weights", str(wpath), "--grads", str(gpath),
                             "--method", method, "--sparsity", "0.5", "--out", str(tmp / "x.ovpt"))
        assert (code, text) == (3, "")
        err = capsys.readouterr().err
        assert err == (f"error: [Errno {errno.ENOSPC}] cannot write a spill file in {spill_dir}: "
                       f"{os.strerror(errno.ENOSPC)}\n")
        assert not (tmp / "x.ovpt").exists()
        assert len(spill_files) == 1 and spill_files[0].closed
        assert list(spill_dir.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_runs_leave_no_descriptor_open(self, fixture_files):
        wpath, gpath, tmp = fixture_files
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            code, _ = run_cli("prune", "--weights", str(wpath), "--grads", str(gpath),
                              "--method", "ovit", "--sparsity", "0.5", "--block-size", "8",
                              "--out", str(tmp / "x.ovpt"))
            assert code == 0
            code, _ = run_cli("eval", "--weights-before", str(wpath),
                              "--weights-after", str(tmp / "x.ovpt"), "--grads", str(gpath))
            assert code == 0
        assert len(os.listdir("/proc/self/fd")) == before

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

    def test_per_layer_lines_add_up_to_the_total(self, fixture_files):
        """One line per layer with its mask's sparsity; the total line sums
        the predictions and pools the masks."""
        wpath, gpath, tmp = fixture_files
        out_path = tmp / "wf.ovpt"
        code, _ = run_cli("prune", "--weights", str(wpath), "--grads", str(gpath),
                          "--method", "wf", "--sparsity", "0.5", "--out", str(out_path))
        assert code == 0
        code, text = run_cli("eval", "--weights-before", str(wpath),
                             "--weights-after", str(out_path), "--grads", str(gpath))
        assert code == 0
        *layers, total = [ln.split("\t") for ln in text.splitlines()]
        box = read_container(out_path)
        masks = [box[f"layer.{lid}.mask"].reshape(-1) for lid in ("0", "1")]
        assert [(name, a, b) for name, a, _, b, _ in layers] == [
            ("layer.0.weight", "predicted", "sparsity"),
            ("layer.1.weight", "predicted", "sparsity"),
        ]
        assert [float(ln[4]) for ln in layers] == pytest.approx(
            [(m == 0).mean() for m in masks], rel=1e-11)
        assert total[:2] == ["total", "predicted"]
        assert float(total[2]) == pytest.approx(sum(float(ln[2]) for ln in layers), rel=1e-9)
        assert float(total[4]) == pytest.approx((np.concatenate(masks) == 0).mean(), rel=1e-11)

    def test_shape_mismatch_is_a_runtime_failure(self, fixture_files, tmp_path):
        wpath, gpath, _ = fixture_files
        bad = {"layer.0.weight": np.zeros((3, 3)), "layer.1.weight": np.zeros((4, 10))}
        bad_path = tmp_path / "bad.ovpt"
        write_container(bad_path, bad)
        code, _ = run_cli(
            "eval", "--weights-before", str(wpath),
            "--weights-after", str(bad_path), "--grads", str(gpath),
        )
        assert code == 3

    def test_an_after_container_without_masks_counts_its_zero_weights(self, fixture_files):
        """With no ``layer.<id>.mask``, a weight's mask is whether it is
        nonzero: the sparsity is the zero share, and n:m violations are
        counted from that mask."""
        wpath, gpath, tmp = fixture_files
        box = read_container(wpath)
        w0 = box["layer.0.weight"].copy()
        w0.reshape(-1, 4)[2:, :2] = 0.0  # 13 of 15 groups keep two, 2 keep four
        after = {"layer.0.weight": w0,
                 "layer.1.weight": box["layer.1.weight"]}  # 10 groups keep four
        after_path = tmp / "after.ovpt"
        write_container(after_path, after)
        argv = ("eval", "--weights-before", str(wpath), "--weights-after", str(after_path),
                "--grads", str(gpath))
        code, text = run_cli(*argv)
        assert code == 0
        lines = [ln.split("\t") for ln in text.splitlines()]
        assert [ln[4] for ln in lines] == ["0.433333333333", "0", "0.26"]
        code, nm_text = run_cli(*argv, "--nm", "2:4")
        assert (code, nm_text) == (1, text + "nm\tviolations\t12\n")

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
        box = {"layer.0.weight": np.array([1.0, 1.0])}
        gbox = {"layer.0.grads": rows}
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
                box[n].reshape(-1) for n in box if n.endswith(".mask")
            ])
            assert (masks == 0).mean() == pytest.approx(target)

    def test_flags_set_schedule_and_targets(self, tmp_path):
        code, text = run_cli(
            "sweep", "--seed", "5", "--dims", "6,8,4", "--steps", "50",
            "--lr-max", "1e-3", "--lr-min", "1e-5", "--period", "10",
            "--targets", "0.3,0.6", "--interval", "10", "--out", str(tmp_path / "cp"),
        )
        assert code == 0
        assert "0\tsparsity\t0.3" in text and "10\tsparsity\t0.6" in text

    def test_a_later_value_of_a_flag_wins(self, tmp_path):
        code, text = run_cli(
            "sweep", "--seed", "5", "--dims", "6,8,4", "--steps", "50",
            "--targets", "0.3,0.6", "--interval", "10", "--targets", "0.4", "--interval", "5",
            "--out", str(tmp_path / "cp"),
        )
        assert code == 0
        assert "0\tsparsity\t0.4" in text
        assert "sparsity\t0.6" not in text

    @pytest.mark.parametrize("command, extra, period", [
        ("toy", ("--sparsity", "0.5", "--recovery", "5"), None),
        ("sweep", ("--targets", "0.25,0.5", "--interval", "5"), 5),
    ])
    def test_unset_schedule_flags_are_the_lr_schedule_defaults(self, tmp_path, command,
                                                               extra, period):
        """A flag not given takes ``LrSchedule``'s field default; a sweep's
        period is its interval."""
        from obsprune.schedules import LrSchedule

        default = LrSchedule()
        runs = []
        for tag, flags in (("unset", ()), ("set", (
                "--lr-max", repr(default.lr_max), "--lr-min", repr(default.lr_min),
                "--period", str(period or default.period)))):
            out = tmp_path / tag
            out.mkdir()
            code, text = run_cli(command, "--seed", "4", "--dims", "6,8,4", "--steps", "30",
                                 *extra, *flags, "--out", str(out / "x"))
            assert code == 0
            runs.append((text.replace(str(out), "{out}"),
                         sorted((p.name, p.read_bytes()) for p in out.iterdir())))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command, extra, steps", [
        ("toy", ("--sparsity", "0.5", "--recovery", "5", "--recompute", "2"), ["0"]),
        ("sweep", ("--targets", "0.25,0.5", "--interval", "5"), ["0", "5"]),
    ])
    def test_event_lines_are_the_summary_rows(self, tmp_path, command, extra, steps):
        """Each event prints its five (step, field, value) lines in order,
        and its summary row holds the same values."""
        argv = ["--seed", "4", "--dims", "6,8,4", "--steps", "30", *extra]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "cp")]
        code, text = run_cli(command, *argv)
        assert code == 0
        lines = [ln.split("\t") for ln in text.splitlines()]
        events = [ln for ln in lines if ln[0].isdigit()]
        fields = ["sparsity", "loss_before", "loss_after", "predicted_increase",
                  "post_recovery_loss"]
        assert [ln[:2] for ln in events] == [[step, f] for step in steps for f in fields]
        header, *rows = [ln[1:] for ln in lines if ln[0] == "summary"]
        assert header == ["event", "step", "sparsity", "loss_before", "loss_after",
                          "predicted", "post_recovery"]
        assert rows == [[str(i), step, *(ln[2] for ln in events if ln[0] == step)]
                        for i, step in enumerate(steps)]

    def test_toy_nm_mode(self):
        code, text = run_cli(
            "toy", "--seed", "7", "--dims", "8,8,4", "--steps", "40",
            "--nm", "2:4", "--block-size", "8", "--recovery", "5",
        )
        assert code == 0
        assert "final\tloss\t" in text

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
            zero = {lid: box[f"layer.{lid}.mask"].reshape(-1) == 0
                    for lid in ("0", "1")}
            for lid, z in zero.items():
                assert z.sum() == sparsity_to_k(target, z.size)
                if prev is not None:
                    assert (prev[lid] <= z).all()  # nothing comes back
            prev = zero

    def test_sweep_has_no_recovery_flag(self, tmp_path, capsys):
        # a sweep recovers for --interval steps after each event
        code, text = run_cli("sweep", "--targets", "0.5", "--recovery", "5",
                             "--out", str(tmp_path / "cp"))
        assert (code, text) == (2, "")
        assert "unrecognized arguments: --recovery 5" in capsys.readouterr().err

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

    @pytest.mark.parametrize("extra", [(), ("--per-layer",), ("--recompute", "2"),
                                       ("--loss", "logistic")],
                             ids=["global", "per-layer", "recompute", "logistic"])
    @pytest.mark.parametrize("method", ["gm", "wf", "ovit"])
    def test_a_one_shot_toy_is_a_one_target_sweep(self, tmp_path, method, extra):
        """``toy --sparsity s --recovery r`` and ``sweep --targets s
        --interval r`` at one period print the same report, and the toy's
        container is the sweep's checkpoint byte for byte."""
        common = ["--seed", "6", "--dims", "6,10,4", "--steps", "40", "--method", method,
                  "--block-size", "8", "--period", "5", *extra]
        toy_out, prefix = tmp_path / "toy.ovpt", tmp_path / "cp"
        code, toy = run_cli("toy", *common, "--sparsity", "0.6", "--recovery", "7",
                            "--out", str(toy_out))
        assert code == 0
        code, sweep = run_cli("sweep", *common, "--targets", "0.6", "--interval", "7",
                              "--out", str(prefix))
        assert code == 0
        report, checkpoint = sweep.rsplit("\n", 2)[:2]
        assert (report + "\n", checkpoint) == (toy, f"checkpoint\t0.6\t{prefix}.0.6.ovpt")
        assert toy_out.read_bytes() == pathlib.Path(f"{prefix}.0.6.ovpt").read_bytes()

    EXTRA_SWEEP = ("sweep", "--seed", "5", "--dims", "16,32,8", "--steps", "60",
                   "--targets", "0.5,0.8", "--interval", "10", "--block-size", "16",
                   "--extra-recovery")

    @pytest.mark.parametrize("acyclic", [(), ("--acyclic",)], ids=["cyclic", "acyclic"])
    def test_extra_recovery_final_loss_is_the_last_checkpoints(self, tmp_path, acyclic):
        """The extra steps go into the last checkpoint, so ``final loss``
        is the loss of the weights that file holds."""
        prefix = tmp_path / "cp"
        code, text = run_cli(*self.EXTRA_SWEEP, *acyclic, "--out", str(prefix))
        assert code == 0
        final = float(text.split("final\tloss\t")[1].split("\n")[0])
        box = read_container(f"{prefix}.0.8.ovpt")
        model = pipeline.make_toy(5, (16, 32, 8))
        model.weights = {lid: box[f"layer.{lid}.weight"] for lid in ("0", "1")}
        assert abs(pipeline.model_loss(model) - final) < 1e-9

    @pytest.mark.parametrize("acyclic", [False, True], ids=["cyclic", "acyclic"])
    def test_extra_recovery_goes_on_with_the_runs_learning_rate(self, tmp_path, monkeypatch,
                                                               acyclic):
        """Recovery steps t = 0..39 (two windows of 10, then 20 extra) take
        the cycle of period 10 or, with ``--acyclic``, one decay over the
        20 sweep steps that then stays at lr_min."""
        rates = []
        real = pipeline.train_model

        def recording(model, steps, lr, masks=None, start_step=0):
            if callable(lr):  # recovery, not the toy's training
                rates.extend(lr(start_step + t) for t in range(steps))
            return real(model, steps, lr, masks=masks, start_step=start_step)

        monkeypatch.setattr(pipeline, "train_model", recording)
        flag = ("--acyclic",) if acyclic else ()
        code, _ = run_cli(*self.EXTRA_SWEEP, *flag, "--out", str(tmp_path / "cp"))
        assert code == 0
        lr_max, lr_min = 5e-4, 1e-5
        share = [min(t, 20) / 20 if acyclic else (t % 10) / 10 for t in range(40)]
        assert rates == pytest.approx([lr_max - (lr_max - lr_min) * f for f in share],
                                      rel=1e-12)

    def test_divergent_learning_rate_exits_three(self):
        code, _ = run_cli(
            "toy", "--seed", "7", "--dims", "6,8,4", "--steps", "60",
            "--sparsity", "0.5", "--recovery", "30", "--lr-max", "1e6",
            "--lr-min", "1e5",
        )
        assert code == 3


# -- refusals before any work --------------------------------------------------
#
# One table per guard. "{tmp}" in a row stands for the test's tmp_path. A
# row's stderr check is either the whole of stderr, as a list of lines, or
# the prefix of its one line.

def no_work(*args, **kwargs):
    pytest.fail("read a file or trained before checking the flags")


def assert_stderr(err, check, tmp_path):
    lines = err.replace(str(tmp_path), "{tmp}").splitlines()
    if isinstance(check, list):
        assert lines == check
    else:
        assert len(lines) == 1 and lines[0].startswith(check)


PRUNE_FILES = ("--weights", "{tmp}/w.ovpt", "--grads", "{tmp}/g.ovpt", "--out", "{tmp}/x.ovpt")
EVAL_FILES = ("--weights-before", "{tmp}/weights-before", "--weights-after",
              "{tmp}/weights-after", "--grads", "{tmp}/grads")
NM_ONLY_OVIT = ["error: n:m patterns are only supported by the ovit method"]

# (argv, stderr check); the run must read no file
PRUNE_REFUSALS = [
    pytest.param(("prune", *PRUNE_FILES, "--nm", "2:4", "--method", "gm"), NM_ONLY_OVIT,
                 id="nm-gm"),
    pytest.param(("prune", *PRUNE_FILES, "--nm", "2:4", "--method", "wf"), NM_ONLY_OVIT,
                 id="nm-wf"),
    pytest.param(("prune", *PRUNE_FILES, "--nm", "2:4", "--method", "ovit", "--per-layer"),
                 ["error: an n:m pattern has no per-layer mode"], id="nm-per-layer"),
    # prune has no --recompute: argparse refuses it
    pytest.param(("prune", *PRUNE_FILES, "--nm", "2:4", "--method", "ovit", "--recompute", "2"),
                 ["usage: obsprune [-h] command ...",
                  "obsprune: error: unrecognized arguments: --recompute 2"], id="nm-recompute"),
    pytest.param(("prune", "--method", "ovit", "--sparsity", "1.5", *PRUNE_FILES), "error: ",
                 id="sparsity-above"),
    pytest.param(("prune", "--method", "gm", "--sparsity", "-0.1", *PRUNE_FILES), "error: ",
                 id="sparsity-below"),
    pytest.param(("prune", "--method", "ovit", "--sparsity", "0.5", "--block-size", "0",
                  *PRUNE_FILES), "error: ", id="block-size"),
    pytest.param(("prune", "--method", "wf", "--sparsity", "0.5", "--damp", "-1",
                  *PRUNE_FILES), "error: ", id="damp"),
    pytest.param(("eval", "--damp", "-5", *EVAL_FILES), "error: ", id="eval-damp"),
    pytest.param(("eval", "--damp", "inf", *EVAL_FILES), "error: ", id="eval-damp-inf"),
    # every eval line goes to stdout: argparse refuses --csv
    pytest.param(("eval", *EVAL_FILES, "--csv", "{tmp}/x.csv"),
                 ["usage: obsprune [-h] command ...",
                  "obsprune: error: unrecognized arguments: --csv {tmp}/x.csv"], id="eval-csv"),
] + [
    pytest.param(("prune", "--weights", "{tmp}/w.ovpt", "--method", method, "--sparsity",
                  "0.25", "--out", "{tmp}/x.ovpt"),
                 [f"error: method {method!r} needs --grads"], id=f"{method}-without-grads")
    for method in ("wf", "ovit")
]


@pytest.mark.parametrize("argv, check", PRUNE_REFUSALS)
def test_prune_and_eval_refusals_exit_two_before_reading(tmp_path, monkeypatch, capsys,
                                                         argv, check):
    """A flag value or combination the run cannot take, or would ignore,
    exits 2 with empty stdout before a file is read."""
    from obsprune import cli

    monkeypatch.setattr(cli, "read_container", no_work)
    code, text = run_cli(*(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, text) == (2, "")
    assert_stderr(capsys.readouterr().err, check, tmp_path)
    assert not any(tmp_path.iterdir())


SWEEP_OUT = ("--out", "{tmp}/cp")
TOY_NM = ("--dims", "8,8,4", "--block-size", "8", "--nm", "2:4")
TARGETS = {"toy": ("--sparsity", "0.5"), "sweep": ("--targets", "0.5", *SWEEP_OUT)}

# (argv, stderr check); the run must not train. The test puts "--seed 7
# --dims 6,8,4 --steps 40" after the command; a row's own flags come later,
# so they win.
TOY_REFUSALS = [
    pytest.param(argv, "error: ", id=f"target-{name}") for name, argv in [
        ("sweep", ("sweep", *SWEEP_OUT)),
        ("sweep-schedule", ("sweep", *SWEEP_OUT, "--lr-max", "1e-3", "--interval", "10")),
        ("toy", ("toy",)),
        ("toy-sparsity", ("toy", "--sparsity", "1.5")),
        ("toy-damp", ("toy", "--sparsity", "0.5", "--damp", "-1")),
        ("toy-block-size", ("toy", "--sparsity", "0.5", "--block-size", "0")),
        ("toy-num-grads", ("toy", "--sparsity", "0.5", "--num-grads", "0")),
        ("toy-recompute", ("toy", "--sparsity", "0.5", "--recompute", "0")),
        ("toy-steps", ("toy", "--sparsity", "0.5", "--steps", "-3")),
        ("toy-recovery", ("toy", "--sparsity", "0.5", "--recovery", "-1")),
        ("toy-samples", ("toy", "--sparsity", "0.5", "--samples", "0")),
        ("toy-lr", ("toy", "--sparsity", "0.5", "--lr-max", "1e-6", "--lr-min", "1e-3")),
        ("sweep-interval", ("sweep", "--targets", "0.5", *SWEEP_OUT, "--interval", "0")),
        ("sweep-targets", ("sweep", "--targets", "0.5,0.3", *SWEEP_OUT)),
        ("sweep-damp", ("sweep", "--targets", "0.5", *SWEEP_OUT, "--damp", "-1")),
        ("sweep-period", ("sweep", "--targets", "0.5", *SWEEP_OUT, "--period", "0")),
        ("toy-train-lr-negative", ("toy", "--sparsity", "0.5", "--lr", "-1")),
        ("toy-train-lr-zero", ("toy", "--sparsity", "0.5", "--lr", "0")),
        ("toy-train-lr-nan", ("toy", "--sparsity", "0.5", "--lr", "nan")),
        ("toy-train-lr-inf", ("toy", "--sparsity", "0.5", "--lr", "inf")),
        ("toy-noise-negative", ("toy", "--sparsity", "0.5", "--noise", "-0.1")),
        ("toy-noise-nan", ("toy", "--sparsity", "0.5", "--noise", "nan")),
        ("sweep-noise-inf", ("sweep", "--targets", "0.5", *SWEEP_OUT, "--noise", "inf")),
    ]
] + [
    pytest.param(("toy", *TOY_NM, "--method", "gm"), NM_ONLY_OVIT, id="nm-toy-gm"),
    pytest.param(("toy", *TOY_NM, "--method", "wf"), NM_ONLY_OVIT, id="nm-toy-wf"),
    pytest.param(("toy", *TOY_NM, "--method", "ovit", "--per-layer"),
                 ["error: an n:m pattern has no per-layer mode"], id="nm-toy-per-layer"),
    pytest.param(("toy", *TOY_NM, "--method", "ovit", "--recompute", "2"),
                 ["error: an n:m pattern takes no recomputation sub-steps"],
                 id="nm-toy-recompute"),
] + [  # --acyclic decays once over the whole recovery, so a period would be ignored
    pytest.param((command, *TARGETS[command], "--acyclic", "--period", "7"), "error: --acyclic ",
                 id=f"acyclic-flag-{command}")
    for command in TARGETS
] + [  # steps*100//300 is 0 below --steps 3, so --extra-recovery would add nothing
    pytest.param((command, *TARGETS[command], "--steps", "2", "--extra-recovery"),
                 ["error: --extra-recovery needs --steps >= 3, got 2"],
                 id=f"extra-recovery-{command}")
    for command in TARGETS
] + [  # every setting is a flag and every report line goes to stdout
    pytest.param((command, *TARGETS[command], flag, f"{{tmp}}/x.{suffix}"),
                 ["usage: obsprune [-h] command ...",
                  f"obsprune: error: unrecognized arguments: {flag} {{tmp}}/x.{suffix}"],
                 id=f"{command}-{flag[2:]}")
    for command in TARGETS for flag, suffix in (("--config", "cfg"), ("--csv", "csv"))
] + [
    pytest.param(("toy", "--sparsity", "0.5", "--lr-maximum", "1"),
                 ["usage: obsprune [-h] command ...",
                  "obsprune: error: unrecognized arguments: --lr-maximum 1"],
                 id="unknown-flag"),
] + [  # checkpoints are named by {target:g}, so these targets would write one file
    pytest.param(("sweep", "--targets", "0.25,0.5,0.5000001", "--interval", "5", "--out",
                  "{tmp}/P"),
                 ["error: targets 0.5 and 0.5000001 would both write {tmp}/P.0.5.ovpt"],
                 id="one-checkpoint-flag"),
]


@pytest.mark.parametrize("argv, check", TOY_REFUSALS)
def test_toy_and_sweep_refusals_exit_two_before_training(tmp_path, monkeypatch, capsys,
                                                         argv, check):
    """A flag value or combination the run cannot take, or would ignore,
    exits 2 with empty stdout before training, and writes no file."""
    monkeypatch.setattr(pipeline, "toy_train", no_work)
    code, text = run_cli(argv[0], "--seed", "7", "--dims", "6,8,4", "--steps", "40",
                         *(a.replace("{tmp}", str(tmp_path)) for a in argv[1:]))
    assert (code, text) == (2, "")
    assert_stderr(capsys.readouterr().err, check, tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, error", [
    pytest.param(("toy", "--sparsity", "0.5", "--lr-max", "abc"),
                 "argument --lr-max: invalid float value: 'abc'", id="lr-max"),
    pytest.param(("sweep", "--targets", "0.5", *SWEEP_OUT, "--lr-min", "x"),
                 "argument --lr-min: invalid float value: 'x'", id="lr-min"),
    pytest.param(("toy", "--sparsity", "0.5", "--period", "2.5"),
                 "argument --period: invalid int value: '2.5'", id="period"),
    pytest.param(("sweep", "--targets", "0.5,x", *SWEEP_OUT),
                 "argument --targets: expected comma-separated floats, got '0.5,x'",
                 id="targets"),
    pytest.param(("sweep", "--targets", "0.5", *SWEEP_OUT, "--interval", "ten"),
                 "argument --interval: invalid int value: 'ten'", id="interval"),
    pytest.param(("toy", "--sparsity", "0.5", "--dims", "6,x,4"),
                 "argument --dims: expected comma-separated ints, got '6,x,4'", id="dims-int"),
    pytest.param(("toy", "--sparsity", "0.5", "--dims", "6"),
                 "argument --dims: dims must be 2 or 3 positive ints", id="dims-count"),
    pytest.param(("toy", "--nm", "2-4"), "argument --nm: expected N:M like 2:4, got '2-4'",
                 id="nm-form"),
    pytest.param(("toy", "--nm", "4:2"), "argument --nm: need 0 < N < M, got '4:2'",
                 id="nm-order"),
])
def test_a_malformed_flag_value_exits_two_before_training(tmp_path, monkeypatch, capsys,
                                                          argv, error):
    """argparse refuses a value its type cannot read: the command's usage,
    then one error line naming the flag."""
    monkeypatch.setattr(pipeline, "toy_train", no_work)
    code, text = run_cli(argv[0], "--seed", "7", "--dims", "6,8,4", "--steps", "40",
                         *(a.replace("{tmp}", str(tmp_path)) for a in argv[1:]))
    assert (code, text) == (2, "")
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: obsprune {argv[0]} ")
    assert [ln for ln in lines if "error:" in ln] == [f"obsprune {argv[0]}: error: {error}"]
    assert lines[-1] == f"obsprune {argv[0]}: error: {error}"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("prune", "--weights", "{tmp}/w.ovpt", "--method", "gm", "--sparsity", "0.5",
     "--out", "{tmp}/missing/x.ovpt"),
    ("toy", "--sparsity", "0.5", "--out", "{tmp}/missing/x.ovpt"),
    ("sweep", "--targets", "0.5", "--out", "{tmp}/missing/cp"),
], ids=["prune-out", "toy-out", "sweep-out"])
def test_a_missing_output_directory_exits_three_before_any_work(tmp_path, monkeypatch, capsys,
                                                                argv):
    """An output path whose directory does not exist fails before a file
    is read or a training step runs, with empty stdout and one line."""
    from obsprune import cli

    monkeypatch.setattr(cli, "read_container", no_work)
    monkeypatch.setattr(pipeline, "toy_train", no_work)
    code, text = run_cli(*(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, text) == (3, "")
    assert_stderr(capsys.readouterr().err, ["error: --out: no directory {tmp}/missing"],
                  tmp_path)
    assert not any(tmp_path.iterdir())


def count_calls(monkeypatch, module, name):
    """Counts the calls of ``module.name`` during a run."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def count_gradient_rows(monkeypatch):
    """Counts the per-sample gradient collections of a run."""
    return count_calls(monkeypatch, pipeline, "collect_grads")


class TestSkippedSubSteps:
    """A recomputation sub-step that would prune only the zero pins is
    skipped (see ``pruners.run_pruner``)."""

    def test_bench_shaped_sweep_collects_rows_four_times(self, tmp_path, monkeypatch):
        """Sub-steps 0.5 of event 0.75 and 0.684 of event 0.9 are no-ops."""
        calls = count_gradient_rows(monkeypatch)
        code, _ = run_cli(
            "sweep", "--seed", "5", "--dims", "48,96,24", "--samples", "512",
            "--steps", "120", "--targets", "0.5,0.75,0.9", "--interval", "20",
            "--recompute", "2", "--block-size", "16", "--num-grads", "128",
            "--out", str(tmp_path / "cp"),
        )
        assert code == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("per_layer", [False, True], ids=["global", "per-layer"])
    @pytest.mark.parametrize("method", ["gm", "wf", "ovit"])
    def test_a_skipped_sub_step_changes_no_byte(self, tmp_path, monkeypatch, method, per_layer):
        """Sub-step 0.5 of event 0.75 is skipped, or forced to run in full."""
        from obsprune import pruners

        prefix = tmp_path / "cp"
        argv = ["sweep", "--seed", "3", "--dims", "6,10,4", "--steps", "40",
                "--targets", "0.5,0.75", "--interval", "5", "--recompute", "2",
                "--block-size", "8", "--method", method, "--out", str(prefix)]
        if per_layer:
            argv.append("--per-layer")
        calls = count_gradient_rows(monkeypatch)
        runs = []
        for forced in (False, True):
            if forced:
                monkeypatch.setattr(pruners, "_pins_only", lambda *args: None)
            calls.clear()
            code, text = run_cli(*argv)
            assert code == 0
            files = [pathlib.Path(f"{prefix}.{t}.ovpt").read_bytes() for t in ("0.5", "0.75")]
            runs.append((len(calls), text, files))
        (skipped_calls, *skipped), (full_calls, *full) = runs
        assert (skipped_calls, full_calls) == (3, 4)
        assert skipped == full

    def test_each_sub_step_flattens_and_resolves_pools_once(self, tmp_path, monkeypatch):
        """Four sub-steps, the third skipped: four flattens and four pool
        resolutions, rows made three times."""
        from obsprune import pruners

        flattens = count_calls(monkeypatch, pruners, "flatten_layers")
        pools = count_calls(monkeypatch, pruners, "_pools")
        rows = count_gradient_rows(monkeypatch)
        code, _ = run_cli("sweep", "--seed", "3", "--dims", "6,10,4", "--steps", "40",
                          "--targets", "0.5,0.75", "--interval", "5", "--recompute", "2",
                          "--block-size", "8", "--out", str(tmp_path / "cp"))
        assert code == 0
        assert (len(flattens), len(pools), len(rows)) == (4, 4, 3)


def test_a_sweep_evaluates_each_loss_once(tmp_path, monkeypatch):
    """A three-event sweep evaluates the trained model's loss once (the
    first event's loss before, which the ``train`` line prints) and each
    event's pruned loss once; an event's post-recovery loss is its
    recovery's."""
    calls = count_calls(monkeypatch, pipeline, "model_loss")
    code, _ = run_cli("sweep", "--seed", "3", "--dims", "6,10,4", "--steps", "40",
                      "--targets", "0.25,0.5,0.75", "--interval", "5", "--block-size", "8",
                      "--out", str(tmp_path / "cp"))
    assert code == 0
    assert len(calls) == 4


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


def test_help_lists_the_public_commands_only(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for command in ("prune", "eval", "toy", "sweep"):
        assert f"    {command} " in text
    assert "oracle" not in text
    assert "SUPPRESS" not in text


def test_oracle_subcommand_three_ways_agree():
    code, text = run_cli("oracle", "--seed", "2", "--dim", "6", "--k", "2",
                         "--num-grads", "24")
    assert code == 0
    lines = dict(
        (ln.split("\t")[0], ln.split("\t")[1:]) for ln in text.splitlines()
    )
    assert lines["exhaustive"][0] == lines["regression"][0]
    assert float(lines["greedy"][0]) >= 0.0
