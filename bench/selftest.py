"""Shows that every output check fails on a corrupted output.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

Runs each workload's CLI invocations once, checks the clean outputs (they
must pass), then feeds the checks copies of those outputs with one
corruption each and requires at least one failure for every corruption.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import sys

import numpy as np

import checks
import ovpt
import run

SEED = 7


def _outputs(name: str, workdir: str):
    os.makedirs(workdir)
    child = run.Child(os.getcwd(), workdir, blas_threads=1)
    work = run.Workload(name, SEED, workdir)
    stdouts = []
    for argv in work.invocations():
        code, stdout, _, _ = child.run(["-c", run.CLI, *argv])
        if code != 0:
            raise SystemExit(f"{name}: {argv[0]} exited {code}")
        stdouts.append(stdout)
    boxes = [{k: v.copy() for k, v in ovpt.read(p).items()} for p in work.output_paths()]
    return work, boxes, stdouts


def _prune_failures(work, box, stdouts) -> list[str]:
    return checks.check_prune(work.spec, work.inst, box, *stdouts)[0]


def _sweep_failures(work, boxes, stdouts) -> list[str]:
    return checks.check_sweep(work.spec, boxes, work.x, work.y, stdouts[0])[0]


def _copy(box):
    return {k: v.copy() for k, v in box.items()}


def _flip_mask_bit(box):
    box = _copy(box)
    mask = box["layer.0.mask"].reshape(-1)
    mask[np.flatnonzero(mask)[0]] = 0
    return box


def _perturb_survivor(box):
    box = _copy(box)
    w, mask = box["layer.0.weight"].reshape(-1), box["layer.0.mask"].reshape(-1)
    w[np.flatnonzero(mask)[0]] += w.dtype.type(0.25)
    return box


def _move_frozen(box, prunable):
    box = _copy(box)
    w = box["layer.0.weight"].reshape(-1)
    i = np.flatnonzero(~prunable["0"])[0]
    w[i] = np.nextafter(w[i], np.inf)
    return box


def _extra_zero(boxes):
    boxes = [_copy(b) for b in boxes]
    w, mask = boxes[0]["layer.0.weight"].reshape(-1), boxes[0]["layer.0.mask"].reshape(-1)
    i = np.flatnonzero(mask)[0]
    mask[i], w[i] = 0, 0.0
    return boxes


def _scale_predicted(stdout: str) -> str:
    def scaled(m: re.Match) -> str:
        return f"{m.group(1)}{float(m.group(2)) * 1.01!r}"
    return re.sub(r"^(total\t.*predicted\t)(\S+)$", scaled, stdout, flags=re.M)


def main() -> int:
    if not os.path.isfile(os.path.join("src", "obsprune", "cli.py")):
        print("error: run from the root of an obsprune checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(os.getcwd(), ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        results = []
        g_work, (g_box,), g_out = _outputs("prune-global-f32", os.path.join(workdir, "g"))
        n_work, (n_box,), n_out = _outputs("prune-nm-f64-fewrows", os.path.join(workdir, "n"))
        s_work, s_boxes, s_out = _outputs("sweep-toy", os.path.join(workdir, "s"))
        results += [
            ("clean prune-global-f32", _prune_failures(g_work, g_box, g_out), False),
            ("clean prune-nm-f64-fewrows", _prune_failures(n_work, n_box, n_out), False),
            ("clean sweep-toy", _sweep_failures(s_work, s_boxes, s_out), False),
            ("one mask bit flipped",
             _prune_failures(g_work, _flip_mask_bit(g_box), g_out), True),
            ("one surviving weight perturbed",
             _prune_failures(g_work, _perturb_survivor(g_box), g_out), True),
            ("one non-prunable weight moved",
             _prune_failures(n_work, _move_frozen(n_box, n_work.inst.prunable), n_out), True),
            ("a checkpoint with one extra zero",
             _sweep_failures(s_work, _extra_zero(s_boxes), s_out), True),
            ("predicted total scaled by 1.01",
             _prune_failures(g_work, g_box, [_scale_predicted(g_out[0]), g_out[1]]), True),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))
    ok = True
    for label, failures, should_fail in results:
        good = bool(failures) == should_fail
        ok &= good
        detail = failures[0] if failures else "all checks pass"
        print(f"{'ok  ' if good else 'FAIL'}  {label}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
