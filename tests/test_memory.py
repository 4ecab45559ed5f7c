"""Gradient rows stay resident only while a stage reads them, and what a
prune needs d*B values of goes to a spill file.

Toy rows are held by the build's streams alone, so a layer's rows are
freed with its last stack; rows in a container are read by position a
range at a time and never mapped (see ``tensorstore``). A global ``ovit``
solve writes its per-step snapshots, and ``wf`` its inverse stacks, to an
unlinked spill file (``tensorstore.Spill``) and reads back only what it
uses, so neither holds d*B values. The peaks here are each CLI child's
own ``ru_maxrss`` from ``os.wait4``, taken above an import-only child, or
an in-process ``tracemalloc`` peak.
"""

import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import obsprune
from obsprune import fisher, pipeline, solver
from obsprune.fisher import FisherConfig
from obsprune.pruners import PrunerSpec
from obsprune.tensorstore import GradientSet, write_container

SRC = os.path.dirname(os.path.dirname(os.path.abspath(obsprune.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
CLI = "from obsprune.cli import entry; entry()"


# A child's ru_maxrss starts at the high-water mark of the process it was
# started from, so each child is started from a small launcher that loads
# no NumPy and prints the child's own peak in KiB.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, *sys.argv[1:]], stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def peak_mib(*argv) -> float:
    """Own peak RSS of a fresh interpreter running ``argv``."""
    out = subprocess.run([sys.executable, "-c", LAUNCHER, *map(str, argv)], env=ENV,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    code, kib = map(int, out.split())
    assert code == 0, argv
    return kib / 1024.0  # ru_maxrss is in KiB on Linux


@pytest.fixture(scope="module")
def big_rows(tmp_path_factory):
    """A 64x64 layer and a 64 MiB file of 4,096 float32 gradient rows; a
    prune uses 512 of them (one eighth)."""
    tmp = tmp_path_factory.mktemp("rows")
    rng = np.random.default_rng(3)
    wbox = {"layer.0.weight": rng.standard_normal((64, 64))}
    gbox = {"layer.0.grads": rng.standard_normal((4096, 64 * 64), dtype=np.float32)}
    paths = tmp / "w.ovpt", tmp / "g.ovpt", tmp / "out.ovpt"
    write_container(paths[0], wbox)
    write_container(paths[1], gbox)
    return paths


def test_prune_peak_follows_num_grads_not_the_file(big_rows):
    weights, grads, out = big_rows
    base = peak_mib("-c", "import obsprune.cli")
    peak = peak_mib("-c", CLI, "prune", "--weights", weights, "--grads", grads,
                    "--method", "ovit", "--sparsity", "0.5", "--block-size", "64",
                    "--num-grads", "512", "--out", out)
    file_mib = os.path.getsize(grads) / 2**20
    assert peak - base < file_mib / 2, f"{peak - base:.1f} MiB above import"


def test_prune_that_uses_every_row_holds_a_stripe_of_them(big_rows):
    """Every row is used, and the child still peaks less than half the
    file above an import-only child: the build holds a stripe of columns
    of the rows, never all of them."""
    weights, grads, out = big_rows
    base = peak_mib("-c", "import obsprune.cli")
    peak = peak_mib("-c", CLI, "prune", "--weights", weights, "--grads", grads,
                    "--method", "ovit", "--sparsity", "0.5", "--block-size", "64",
                    "--num-grads", "4096", "--out", out)
    file_mib = os.path.getsize(grads) / 2**20
    assert peak - base < file_mib / 2, f"{peak - base:.1f} MiB above import"


def test_eval_holds_one_chunk_of_rows_at_a_time(big_rows):
    weights, grads, _ = big_rows
    base = peak_mib("-c", "import obsprune.cli")
    peak = peak_mib("-c", CLI, "eval", "--weights-before", weights, "--weights-after", weights,
                    "--grads", grads)
    file_mib = os.path.getsize(grads) / 2**20
    assert peak - base < file_mib / 2, f"{peak - base:.1f} MiB above import"


@pytest.fixture(scope="module")
def wide_layer(tmp_path_factory):
    """A 512x256 layer with 5% of its weights frozen and a 4 MiB file of 8
    float32 gradient rows: at B=64 its inverse, like a global solve's
    snapshots, takes d*B*8 bytes, 64 MiB."""
    tmp = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(5)
    wbox = {"layer.0.weight": rng.standard_normal((512, 256)),
            "layer.0.prunable": (rng.random((512, 256)) > 0.05).astype(np.uint8)}
    gbox = {"layer.0.grads": rng.standard_normal((8, 512 * 256), dtype=np.float32)}
    paths = tmp / "w.ovpt", tmp / "g.ovpt", tmp / "out.ovpt"
    write_container(paths[0], wbox)
    write_container(paths[1], gbox)
    return paths


@pytest.mark.parametrize("method", ["ovit", "wf"])
def test_a_prune_holds_neither_snapshots_nor_the_whole_inverse(wide_layer, method):
    """A global ``ovit`` prune writes its snapshots to a spill file, and
    ``wf`` its inverse stacks: the child peaks less than half of their
    d*B*8 bytes above an import-only child."""
    weights, grads, out = wide_layer
    base = peak_mib("-c", "import obsprune.cli")
    peak = peak_mib("-c", CLI, "prune", "--weights", weights, "--grads", grads,
                    "--method", method, "--sparsity", "0.5", "--block-size", "64",
                    "--out", out)
    spilled_mib = 512 * 256 * 64 * 8 / 2**20
    assert peak - base < spilled_mib / 2, f"{peak - base:.1f} MiB above import"


def test_global_solve_peaks_below_half_of_its_snapshots():
    """In-process, ``solve_global`` on a whole inverse of 2^15 weights at
    B=64 allocates, at its peak, less than half of the d*B*8 bytes (16 MiB)
    that its snapshots take in the spill file."""
    d, bs = 2**15, 64
    rng = np.random.default_rng(6)
    inv = fisher.build_fisher_inverse(rng.standard_normal((48, d)), FisherConfig(bs, 1e-4, 48))
    w = rng.standard_normal(d)
    tracemalloc.start()
    try:
        solver.solve_global(w, inv, d // 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * bs * 8 / 2, f"peak {peak / 2**20:.1f} MiB"


def record_rows(monkeypatch) -> list[list[weakref.ref]]:
    """Weak references, one list per collection, to the factor arrays of
    every gradient set a run collects and to every array formed from them
    until the next collection."""
    calls = []
    real = pipeline.collect_grads

    def recording(*args, **kwargs):
        grads = real(*args, **kwargs)
        calls.append([weakref.ref(f) for gs in grads.values() for f in gs.factors])
        return grads

    monkeypatch.setattr(pipeline, "collect_grads", recording)
    on_formed(monkeypatch, lambda out: calls[-1].append(weakref.ref(out)))
    return calls


def on_formed(monkeypatch, record) -> None:
    """Passes every array that ``GradientSet.rows`` or ``.columns`` returns
    to ``record``."""

    def forming(method):
        def formed(self, *args):
            out = method(self, *args)
            record(out)
            return out
        return formed

    for name in ("rows", "columns"):
        monkeypatch.setattr(GradientSet, name, forming(getattr(GradientSet, name)))


@pytest.mark.parametrize("n, frozen", [(32, False), (32, True), (4, False)])
def test_build_frees_each_sub_batch_before_forming_the_next(monkeypatch, n, frozen):
    """Factored rows of a 16x24 layer, built in sub-batches of two blocks
    of 8: when a sub-batch's columns are formed, neither the columns of
    any earlier one nor the array the build filled from them is alive, in
    the Gram form as a view, with frozen weights as a copy, and in the
    Woodbury form."""
    monkeypatch.setattr(fisher, "CHUNK_VALUES", 2 * 8 * max(n, 8))
    earlier, alive = [], []

    def formed(out):
        alive.append(sum(ref() is not None for ref in earlier))
        earlier.append(weakref.ref(out))

    on_formed(monkeypatch, formed)
    real = fisher._fill_blocks
    monkeypatch.setattr(fisher, "_fill_blocks",
                        lambda rows3, *args: earlier.append(weakref.ref(rows3))
                        or real(rows3, *args))
    rng = np.random.default_rng(4)
    rows = GradientSet("0", factors=(rng.standard_normal((n, 16)),
                                     rng.standard_normal((n, 24))))
    movable = rng.random(16 * 24) > 0.2 if frozen else None
    stacks = list(fisher.iter_block_inverses([(rows, movable)], FisherConfig(8, 1e-4, n)))
    assert [s.shape for s in stacks] == [(48, 8, 8)]
    assert len(earlier) == 2 * 24 and alive == [0] * 24


def alive_at_each_pass(monkeypatch, calls) -> list[int]:
    """How many recorded arrays are alive as each lockstep pass starts."""
    alive = []
    real = solver._eliminate_stack

    def counting(*args, **kwargs):
        alive.append(sum(ref() is not None for refs in calls for ref in refs))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_eliminate_stack", counting)
    return alive


def test_sweep_frees_each_sub_steps_rows_before_its_solve(monkeypatch):
    """Each sub-step's solve is one lockstep pass, and no rows array of any
    sub-step is alive when it starts."""
    calls = record_rows(monkeypatch)
    alive = alive_at_each_pass(monkeypatch, calls)
    model = pipeline.toy_train(5, (12, 16, 6), steps=30, lr=0.05)
    spec = PrunerSpec("ovit", FisherConfig(16, 1e-6, 64), recomputations=2)
    pipeline.run_gradual(model, spec, (0.5, 0.75, 0.9), 5)
    assert len(calls) >= 3 and all(len(refs) > 4 for refs in calls)  # 4 factors, then formed
    assert alive == [0] * len(calls)


def test_toy_nm_prune_frees_its_rows_before_its_solve(monkeypatch):
    """The toy's N:M prune goes through ``run_pruner`` like every other
    prune, and no rows array is alive when its one lockstep pass starts."""
    calls = record_rows(monkeypatch)
    alive = alive_at_each_pass(monkeypatch, calls)
    entries = []
    real = pipeline.run_pruner
    monkeypatch.setattr(pipeline, "run_pruner",
                        lambda *args, **kwargs: entries.append(1) or real(*args, **kwargs))
    model = pipeline.toy_train(5, (12, 16, 6), steps=30, lr=0.05)
    pipeline.run_gradual(model, PrunerSpec("ovit", FisherConfig(16, 1e-6, 64), nm=(2, 4)),
                         (None,), 0)
    assert entries == [1]
    assert len(calls) == 1 and len(calls[0]) > 4 and alive == [0]


def test_toy_rows_are_formed_one_sub_batch_at_a_time(monkeypatch):
    """A toy layer of 1024x256 weights with 256 rows, whose dense rows
    would take 512 MiB, prunes 2:4 in a child that peaks less than a
    quarter of that above an import-only child; and in gradual runs no
    array formed from the factors holds more than ``CHUNK_VALUES`` values,
    in the build or in ``loss_increase``."""
    base = peak_mib("-c", "import obsprune.cli")
    peak = peak_mib("-c", CLI, "toy", "--seed", "1", "--dims", "256,1024", "--samples", "256",
                    "--steps", "1", "--nm", "2:4", "--recovery", "0")
    rows_mib = 256 * (1024 * 256) * 8 / 2**20
    assert peak - base < rows_mib / 4, f"{peak - base:.1f} MiB above import"

    sizes = []
    on_formed(monkeypatch, lambda out: sizes.append(out.size))
    for method in ("ovit", "gm"):  # gm prices its prune with loss_increase
        model = pipeline.toy_train(5, (48, 96, 24), steps=20, lr=0.05)
        spec = PrunerSpec(method, FisherConfig(16, 1e-6, 128), recomputations=2)
        pipeline.run_gradual(model, spec, (0.5, 0.75), 5)
    assert sizes and max(sizes) <= fisher.CHUNK_VALUES
    assert sum(sizes) > 128 * 96 * 48  # more than layer 0's rows, formed
