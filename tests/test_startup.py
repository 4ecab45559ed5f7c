"""The CLI's start-up contract, checked in fresh interpreters: the modules
each command loads, and the exit codes and output of the console script
``entry``, which ends the process with ``os._exit``."""

import io
import json
import os
import subprocess
import sys

import pytest

import obsprune
from obsprune import pipeline
from obsprune.cli import main
from obsprune.tensorstore import write_container

SRC = os.path.dirname(os.path.dirname(os.path.abspath(obsprune.__file__)))
# block-buffered standard streams, so output that is never flushed goes missing
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
TOY_MODULES = {"pipeline", "schedules", "oracle"}
ENTRY = "from obsprune.cli import entry; entry()"
# the package's loaded modules, as a JSON list on the last line of stdout
MODULES = "print(json.dumps(sorted(m[9:] for m in sys.modules if m.startswith('obsprune.'))))"
LOADED = f"import json, sys; from obsprune.cli import main; main(sys.argv[1:]); {MODULES}"
WARNING = "warning: block size 30 is not a multiple of m=4; using 28\n"


def python(code, *argv, **kwargs):
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=ENV,
                          timeout=120, **kwargs)


def loaded_modules(*argv):
    proc = python(LOADED, *argv, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Weights, gradient rows and their ovit prune, as containers."""
    tmp = tmp_path_factory.mktemp("startup")
    model = pipeline.toy_train(21, (6, 10, 4), steps=30, lr=0.05)
    grads = pipeline.collect_grads(model, 32)
    wbox, gbox = {}, {}
    for lid, w in model.weights.items():
        wbox[f"layer.{lid}.weight"] = w
        gbox[f"layer.{lid}.grads"] = grads[lid].samples
    write_container(tmp / "w.ovpt", wbox)
    write_container(tmp / "g.ovpt", gbox)
    assert main(prune_argv(tmp, "pruned.ovpt", "--sparsity", "0.5"), out=io.StringIO()) == 0
    return tmp


def prune_argv(tmp, out, *target):
    return ["prune", "--weights", str(tmp / "w.ovpt"), "--grads", str(tmp / "g.ovpt"),
            "--method", "ovit", *target, "--out", str(tmp / out)]


def eval_argv(tmp, after, *extra):
    return ["eval", "--weights-before", str(tmp / "w.ovpt"),
            "--weights-after", str(tmp / after), "--grads", str(tmp / "g.ovpt"), *extra]


def test_importing_the_cli_loads_no_command_module():
    proc = python(f"import json, sys, obsprune.cli; {MODULES}",
                  capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == ["cli", "fisher", "obs_core", "tensorstore"]


def test_eval_loads_no_command_module(files):
    loaded = loaded_modules(*eval_argv(files, "pruned.ovpt", "--nm", "2:4"))
    assert not loaded & (TOY_MODULES | {"pruners", "solver"}), loaded


def test_prune_loads_no_toy_module(files):
    loaded = loaded_modules(*prune_argv(files, "again.ovpt", "--sparsity", "0.5"))
    assert "pruners" in loaded
    assert not loaded & TOY_MODULES, loaded


@pytest.mark.parametrize("argv, code", [
    (lambda tmp: ["oracle", "--seed", "4", "--dim", "6", "--k", "2"], 0),
    (lambda tmp: eval_argv(tmp, "w.ovpt", "--nm", "2:4"), 1),  # unpruned: every group violates
    (lambda tmp: ["prune", "--method", "ovit"], 2),
    (lambda tmp: eval_argv(tmp, "missing.ovpt"), 3),
])
def test_entry_keeps_the_exit_codes(files, argv, code):
    assert python(ENTRY, *argv(files), capture_output=True).returncode == code


@pytest.mark.parametrize("sink", ["file", "pipe"])
def test_entry_output_is_complete(files, tmp_path, sink, capsys):
    """stdout and stderr, a warning line included, reach a redirected file
    or a pipe whole before the process ends."""
    argv = prune_argv(files, f"nm-{sink}.ovpt", "--nm", "2:4", "--block-size", "30")
    want = io.StringIO()
    assert main(argv, out=want) == 0
    assert capsys.readouterr().err == WARNING
    if sink == "pipe":
        proc = python(ENTRY, *argv, capture_output=True, text=True)
        got = (proc.returncode, proc.stdout, proc.stderr)
    else:
        with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
            code = python(ENTRY, *argv, stdout=out, stderr=err).returncode
        got = (code, (tmp_path / "out").read_text(), (tmp_path / "err").read_text())
    assert got == (0, want.getvalue(), WARNING)


def test_entry_exits_three_when_stdout_is_a_closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python(ENTRY, "oracle", "--dim", "4", "--k", "1", stdout=write_end,
                      stderr=subprocess.DEVNULL)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
