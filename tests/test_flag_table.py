"""No flag is quietly ignored: for every flag of ``prune``, ``eval``, ``toy``
and ``sweep``, a second value either changes a stdout or output byte, or
exits 2 with empty stdout, no output file and one ``error:`` line, or is
on the explicit list of documented no-ops (``--threads``, and ``gm``'s
``--block-size``)."""

import argparse
import io

import pytest

from obsprune import pipeline
from obsprune.cli import build_parser, main
from obsprune.tensorstore import TensorContainer, write_container

CHANGES, REFUSED, NO_OP = "changes", "refused", "no-op"

# Each command's base run. A value's "{name}" is a file of the ``inputs``
# fixture, and "{out}" the run's own empty output directory.
BASE = {
    "prune": {"--weights": "{w}", "--grads": "{g}", "--method": "ovit", "--sparsity": "0.5",
              "--block-size": "8", "--out": "{out}/p.ovpt"},
    "eval": {"--weights-before": "{w}", "--weights-after": "{p}", "--grads": "{g}"},
    "toy": {"--seed": "3", "--dims": "6,8,4", "--steps": "20", "--samples": "64",
            "--sparsity": "0.5", "--recovery": "5", "--block-size": "8", "--out": "{out}/t.ovpt"},
    "sweep": {"--seed": "3", "--dims": "6,8,4", "--steps": "20", "--samples": "64",
              "--targets": "0.25,0.5", "--interval": "5", "--block-size": "8",
              "--out": "{out}/cp"},
}

# the flags that toy and sweep share, with a second value that changes the run
_TOY_CHANGES = [
    {"--seed": "4"}, {"--dims": "6,10,4"}, {"--steps": "30"}, {"--lr": "0.1"},
    {"--samples": "96"}, {"--noise": "0.2"}, {"--loss": "logistic"}, {"--method": "wf"},
    {"--extra-recovery": True}, {"--block-size": "4"}, {"--damp": "1e-3"},
    {"--num-grads": "16"}, {"--recompute": "2"}, {"--per-layer": True}, {"--lr-max": "1e-3"},
    {"--lr-min": "1e-4"}, {"--period": "3"}, {"--acyclic": True},
]

# (command, flags changed from the base run, expected outcome, flags set in
# both runs). A value of True adds a switch, None drops the flag. Refusals
# that test_cli.py checks in more detail (a period next to --acyclic,
# prune without --grads or with --recompute, sweep --recovery) are not
# repeated here.
CASES = [
    ("prune", {"--weights": "{w2}"}, CHANGES, {}),
    ("prune", {"--grads": "{g2}"}, CHANGES, {}),
    ("prune", {"--grads": None}, CHANGES, {"--method": "gm"}),
    ("prune", {"--method": "wf"}, CHANGES, {}),
    ("prune", {"--method": "gm"}, CHANGES, {}),
    ("prune", {"--sparsity": "0.25"}, CHANGES, {}),
    ("prune", {"--sparsity": None, "--nm": "2:4"}, CHANGES, {}),
    ("prune", {"--block-size": "4"}, CHANGES, {}),
    ("prune", {"--block-size": "4"}, NO_OP, {"--method": "gm"}),
    ("prune", {"--damp": "1e-2"}, CHANGES, {}),
    ("prune", {"--num-grads": "8"}, CHANGES, {}),
    ("prune", {"--per-layer": True}, CHANGES, {}),
    ("prune", {"--threads": "4"}, NO_OP, {}),
    ("prune", {"--out": "{out}/q.ovpt"}, CHANGES, {}),
    ("eval", {"--weights-before": "{w2}"}, CHANGES, {}),
    ("eval", {"--weights-after": "{p2}"}, CHANGES, {}),
    ("eval", {"--grads": "{g2}"}, CHANGES, {}),
    ("eval", {"--damp": "1e-2"}, CHANGES, {}),
    ("eval", {"--nm": "2:4"}, CHANGES, {}),
    *[("toy", change, CHANGES, {}) for change in _TOY_CHANGES],
    ("toy", {"--sparsity": "0.6"}, CHANGES, {}),
    ("toy", {"--sparsity": None, "--nm": "2:4"}, CHANGES, {}),
    ("toy", {"--nm": "2:4"}, REFUSED, {}),
    ("toy", {"--recovery": "6"}, CHANGES, {}),
    ("toy", {"--block-size": "4"}, NO_OP, {"--method": "gm"}),
    ("toy", {"--threads": "4"}, NO_OP, {}),
    ("toy", {"--out": "{out}/u.ovpt"}, CHANGES, {}),
    ("toy", {"--out": None}, CHANGES, {}),
    ("toy", {"--recovery": None}, CHANGES, {}),
    ("toy", {"--sparsity": None}, REFUSED, {}),
    ("toy", {"--steps": "2", "--extra-recovery": True}, REFUSED, {}),
    ("toy", {"--targets": "0.5"}, REFUSED, {}),
    ("toy", {"--interval": "5"}, REFUSED, {}),
    *[("sweep", change, CHANGES, {}) for change in _TOY_CHANGES],
    ("sweep", {"--targets": "0.25,0.6"}, CHANGES, {}),
    ("sweep", {"--targets": None}, REFUSED, {}),
    ("sweep", {"--interval": "6"}, CHANGES, {}),
    ("sweep", {"--interval": None}, CHANGES, {}),
    ("sweep", {"--threads": "4"}, NO_OP, {}),
    ("sweep", {"--out": "{out}/dp"}, CHANGES, {}),
    ("sweep", {"--steps": "2", "--extra-recovery": True}, REFUSED, {}),
    ("sweep", {"--sparsity": "0.5"}, REFUSED, {}),
    ("sweep", {"--nm": "2:4"}, REFUSED, {}),
]


def _case_id(case):
    command, change, _, context = case
    flags = ",".join(f"{k}={v}" for k, v in change.items())
    return f"{command}{''.join(f'[{k}]' for k in context)}:{flags}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Weight, gradient and pruned containers of two toys."""
    tmp = tmp_path_factory.mktemp("flags")
    files = {}
    for tag, seed, rows in (("", 21, 32), ("2", 22, 24)):
        model = pipeline.toy_train(seed, (6, 10, 4), steps=30, lr=0.05)
        grads = pipeline.collect_grads(model, rows)
        wbox, gbox = TensorContainer(), TensorContainer()
        for lid, w in model.weights.items():
            wbox.add(f"layer.{lid}.weight", w)
            gbox.add(f"layer.{lid}.grads", grads[lid].samples)
        files["w" + tag], files["g" + tag] = tmp / f"w{tag}.ovpt", tmp / f"g{tag}.ovpt"
        write_container(files["w" + tag], wbox)
        write_container(files["g" + tag], gbox)
    for tag, method in (("p", "ovit"), ("p2", "wf")):
        files[tag] = tmp / f"{tag}.ovpt"
        argv = ["prune", "--weights", str(files["w"]), "--grads", str(files["g"]),
                "--method", method, "--sparsity", "0.5", "--out", str(files[tag])]
        assert main(argv, out=io.StringIO()) == 0
    return files


def _run(command, flags, inputs, out_dir):
    """(exit code, stdout, the files written) of one run, with ``out_dir``
    written as "{out}" so that two runs compare."""
    out_dir.mkdir()
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, value.format(out=out_dir, **inputs)]
    stdout = io.StringIO()
    code = main(argv, out=stdout)
    files = sorted((path.name, path.read_bytes()) for path in out_dir.iterdir())
    return code, stdout.getvalue().replace(str(out_dir), "{out}"), files


@pytest.mark.parametrize("case", CASES, ids=[_case_id(case) for case in CASES])
def test_a_second_value_changes_output_exits_two_or_is_a_documented_no_op(
    inputs, tmp_path, capsys, case
):
    command, change, expected, context = case
    flags = {**BASE[command], **context}
    base = _run(command, flags, inputs, tmp_path / "base")
    assert base[0] == 0
    capsys.readouterr()
    varied = _run(command, {**flags, **change}, inputs, tmp_path / "varied")
    if expected == REFUSED:
        assert varied == (2, "", [])
        err_lines = capsys.readouterr().err.splitlines()
        assert len([line for line in err_lines if "error:" in line]) == 1
    elif expected == CHANGES:
        assert varied[0] in (0, 1) and varied != base  # 1: eval --nm found violations
    else:
        assert varied == base


def test_every_flag_of_every_public_command_is_in_the_table():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in BASE:
        flags = {s for a in commands.choices[command]._actions for s in a.option_strings}
        covered = {flag for c, change, _, _ in CASES if c == command for flag in change}
        assert flags - {"-h", "--help"} <= covered, command
