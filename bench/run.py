"""Seeded benchmark of the ``obsprune`` CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, times a fresh interpreter
importing ``obsprune.cli`` (``setup_s``), runs one untimed warm-up round of
the workload's CLI invocations, each in its own child process, then repeats
timed rounds until S seconds have passed. The warm-up round's outputs are
checked against the benchmark's own computations (``checks.py``), and every
later round must reproduce them byte for byte. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1``, the per-layer metrics of one
more round run under ``traced.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import layers
import ovpt

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
CLI = "from obsprune.cli import entry; entry()"


class Child:
    """Runs child processes with the benchmark's environment and records
    each one's wall time and peak RSS."""

    def __init__(self, root: str, workdir: str, blas_threads: int) -> None:
        self.workdir = workdir
        threads = str(blas_threads)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )

    def run(self, argv: list[str]) -> tuple[int, str, float, float]:
        """Returns (exit code, stdout, wall seconds, max RSS in MiB)."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0

    def setup_seconds(self) -> float:
        """Median wall time of a fresh interpreter importing obsprune.cli.

        One import runs first, untimed, so that the bytecode cache exists.
        """
        times = []
        for i in range(SETUP_REPEATS + 1):
            code, _, wall, _ = self.run(["-c", "import obsprune.cli"])
            if code != 0:
                raise RuntimeError("importing obsprune.cli failed")
            if i:
                times.append(wall)
        return statistics.median(times)


class Workload:
    """A workload's inputs, its CLI invocations and the checks of one round."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.seed, self.workdir = seed, workdir
        self.spec = inputs.WORKLOADS[name]
        self.out = os.path.join(workdir, "out")
        if isinstance(self.spec, inputs.PruneInputs):
            self.inst = inputs.make_prune_instance(self.spec, seed)
            self.weights, self.grads = inputs.write_prune_instance(self.inst, self.spec, workdir)
        else:
            self.x, self.y = inputs.toy_data(self.spec, seed)

    def invocations(self) -> list[list[str]]:
        spec = self.spec
        if isinstance(spec, inputs.PruneInputs):
            target = (["--sparsity", repr(spec.sparsity)] if spec.nm is None
                      else ["--nm", f"{spec.nm[0]}:{spec.nm[1]}"])
            return [
                ["prune", "--weights", self.weights, "--grads", self.grads,
                 "--method", "ovit", *target, "--block-size", str(spec.block_size),
                 "--num-grads", str(spec.num_grads), "--out", self.out],
                ["eval", "--weights-before", self.weights, "--weights-after", self.out,
                 "--grads", self.grads],
            ]
        return [[
            "sweep", "--seed", str(inputs.toy_seed(self.seed)),
            "--dims", ",".join(map(str, spec.dims)), "--samples", str(spec.samples),
            "--steps", str(spec.steps), "--targets", ",".join(map(repr, spec.targets)),
            "--interval", str(spec.interval), "--recompute", str(spec.recompute),
            "--block-size", str(spec.block_size), "--num-grads", str(spec.num_grads),
            "--out", self.out,
        ]]

    def output_paths(self) -> list[str]:
        if isinstance(self.spec, inputs.PruneInputs):
            return [self.out]
        return [f"{self.out}.{t:g}.ovpt" for t in self.spec.targets]

    def fingerprint(self, stdouts: list[str]) -> str:
        digest = hashlib.sha256("\0".join(stdouts).encode())
        for path in self.output_paths():
            with open(path, "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()

    def check(self, stdouts: list[str]) -> tuple[list[str], float]:
        """Failures and the benchmark's loss figure for one round's outputs."""
        try:
            boxes = [ovpt.read(p) for p in self.output_paths()]
        except (OSError, ovpt.FormatError) as exc:
            return [f"unreadable output: {exc}"], float("nan")
        if isinstance(self.spec, inputs.PruneInputs):
            return checks.check_prune(self.spec, self.inst, boxes[0], *stdouts)
        return checks.check_sweep(self.spec, boxes, self.x, self.y, stdouts[0])


def run_rounds(work: Workload, child: Child, seconds: float):
    """One warm-up round, then whole timed rounds until ``seconds`` have
    passed; at least one."""
    walls, rss, failed, attempted = [], 0.0, 0, 0
    failures: list[str] = []
    loss, first = float("nan"), None
    start = None
    while start is None or not walls or time.perf_counter() - start < seconds:
        stdouts, wall, ok = [], 0.0, True
        for argv in work.invocations():
            code, stdout, dt, peak = child.run(["-c", CLI, *argv])
            attempted += 1
            if code != 0:
                failed += 1
                ok = False
            stdouts.append(stdout)
            wall += dt
            rss = max(rss, peak)
        if start is None:
            start = time.perf_counter()
        else:
            walls.append(wall)
        if not ok:
            continue
        if first is None:
            failures, loss = work.check(stdouts)
            first = work.fingerprint(stdouts)
        elif work.fingerprint(stdouts) != first:
            failures.append("a repeated round gave different stdout or output bytes")
    return walls, rss, loss, failures, attempted, failed


def traced_round(work: Workload, child: Child) -> tuple[layers.Summary, float, list[str]]:
    summary, total, failures = layers.Summary(), 0.0, []
    stdouts = []
    for i, argv in enumerate(work.invocations()):
        spans_path = os.path.join(work.workdir, f"spans{i}.json")
        code, stdout, wall, _ = child.run([os.path.join(HERE, "traced.py"), spans_path, *argv])
        if code != 0:
            failures.append(f"traced invocation {argv[0]} exited {code}")
            continue
        stdouts.append(stdout)
        total += wall
        summary.add(*layers.load(spans_path))
    if not failures:
        failures, _ = work.check(stdouts)
    return summary, total, failures


def layer_metrics(s: layers.Summary, overhead: float) -> dict[str, tuple[float, str]]:
    mib = 1.0 / 1024.0
    solve = s.solver_s
    return {
        "tensorstore.read_s": (s.inclusive_s["tensorstore.read_container"], "s"),
        "tensorstore.read_rss_mib": (s.peak_rss_kib["tensorstore.read_container"] * mib, "MiB"),
        "tensorstore.write_s": (s.inclusive_s["tensorstore.write_container"], "s"),
        "fisher.build_s": (s.inclusive_s["fisher.build_fisher_inverse"], "s"),
        "fisher.build_calls": (s.calls["fisher.build_fisher_inverse"], "count"),
        "fisher.build_rss_mib": (s.peak_rss_kib["fisher.build_fisher_inverse"] * mib, "MiB"),
        "solver.solve_s": (solve, "s"),
        "solver.weights_per_s": (s.sized_weights / solve if solve > 0 else 0.0, "1/s"),
        "obs_core.loss_increase_s": (s.inclusive_s["obs_core.loss_increase"], "s"),
        "pruners.self_s": (s.layer_self_s["pruners"], "s"),
        "pipeline.grads_s": (s.grads_s, "s"),
        "pipeline.train_self_s": (s.self_s["pipeline.train_model"], "s"),
        "cli.self_s": (s.layer_self_s["cli"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=min(2, os.cpu_count() or 1),
                        help="BLAS threads of each child (default: nproc, at most 2)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "obsprune", "cli.py")):
        print("error: run from the root of an obsprune checkout (no src/obsprune/cli.py)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        child = Child(root, workdir, args.blas_threads)
        work = Workload(args.workload, args.seed, workdir)
        setup = None if args.trace else child.setup_seconds()
        walls, rss, loss, failures, attempted, failed = run_rounds(work, child, args.seconds)
        wall = statistics.median(walls)
        print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, wall "
              + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
        if args.trace:
            summary, traced_total, trace_failures = traced_round(work, child)
            failures += trace_failures
            for layer, sec in sorted(summary.layer_self_s.items(), key=lambda kv: -kv[1]):
                print(f"  self {layer:12s} {sec:8.3f} s", file=sys.stderr)
            metrics = layer_metrics(summary, traced_total - wall)
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "peak_rss_mib": (rss, "MiB"),
                "setup_s": (setup, "s"),
                "pruned_loss": (loss, "1"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
