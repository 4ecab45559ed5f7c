"""Command line interface.

Subcommands: ``prune`` (file to file), ``sweep`` (gradual schedule on the
built-in toy, one checkpoint per target), ``eval`` (quadratic-model
scoring and pattern compliance of a before/after pair), ``toy`` (train
the toy, prune it once, recover), plus an internal ``oracle`` helper for
reproducing brute-force reference numbers. Every setting is a flag, and
each flag belongs to the commands it acts on; a combination argparse
cannot refuse is a ``UsageError``, one ``error:`` line and exit 2 before
any work. Every report line goes to stdout; ``--out`` names the only files
a command writes.

Exit codes: 0 success, 1 compliance-check failure, 2 usage error,
3 numerical or runtime failure. Every command is deterministic given its
flags and seed; repeated runs (and any ``--threads`` value) produce
byte-identical reports.

Start-up is most of a small command's run, so this module loads at import
only what every command needs; each command imports its own heavy modules
when it runs (``prune``: ``pruners``; ``toy`` and ``sweep``: ``pipeline``,
``schedules`` and ``pruners``; ``oracle``: ``oracle``), and ``eval`` loads
none of them. The console script ``entry`` ends the process with
``os._exit`` once ``main`` has returned and the standard streams are
flushed, skipping interpreter teardown.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .fisher import (
    DAMPENING_DEFAULTS,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_NUM_GRADS,
    FisherConfig,
    build_fisher_inverse,
)
from .obs_core import NumericalError, loss_increase
from .tensorstore import (
    ContainerError,
    TensorContainer,
    layer_ids,
    mask_name,
    nm_violations,
    prunable_name,
    read_container,
    read_gradients,
    weight_name,
    write_container,
)


class UsageError(Exception):
    """A flag value or combination argparse cannot check; exits 2 before any work."""


# pipeline.DivergenceError is a NumericalError; np.linalg.LinAlgError a ValueError
_RUNTIME_ERRORS = (
    ContainerError,
    NumericalError,
    ValueError,
    OSError,
)


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _parse_nm(text: str) -> tuple[int, int]:
    try:
        n, m = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N:M like 2:4, got {text!r}")
    if not 0 < n < m:
        raise argparse.ArgumentTypeError(f"need 0 < N < M, got {text!r}")
    return n, m


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dims must be 2 or 3 positive ints")
    return dims


def _parse_targets(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _add_target_flags(p: argparse.ArgumentParser, required: bool) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--sparsity", type=float)
    group.add_argument("--nm", type=_parse_nm, metavar="N:M")


def _add_fisher_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                   help=f"Fisher block size (default {DEFAULT_BLOCK_SIZE})")
    p.add_argument("--damp", type=float,
                   help="dampening lambda (default 1e-8; 1e-6 for wf)")
    p.add_argument("--num-grads", type=int, default=DEFAULT_NUM_GRADS,
                   help=f"cap on gradient rows used (default {DEFAULT_NUM_GRADS})")
    p.add_argument("--per-layer", action="store_true",
                   help="uniform per-layer sparsity instead of a global pool")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr-max", type=float)
    p.add_argument("--lr-min", type=float)
    p.add_argument("--period", type=int,
                   help="cycle length T (default: the sweep interval, else 20)")
    p.add_argument("--acyclic", action="store_true",
                   help="single linear decay instead of cycling; takes no period")


def _add_toy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=_parse_dims, default=(16, 32, 8),
                   help="toy shape, e.g. 16,32,8 (default) or 16,8")
    p.add_argument("--steps", type=int, default=300, help="training steps")
    p.add_argument("--lr", type=float, default=0.05, help="training learning rate")
    p.add_argument("--samples", type=int, default=256, help="dataset size")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--loss", choices=("mse", "logistic"), default="mse")


def _check_sparsity(sparsity: float | None) -> None:
    if sparsity is not None and not 0.0 <= sparsity <= 1.0:
        raise UsageError(f"sparsity must be in [0, 1], got {sparsity}")


def _spec_from_args(args):
    """The run's ``PrunerSpec``; a value it rejects is a UsageError."""
    from .pruners import PrunerSpec

    damp = args.damp if args.damp is not None else DAMPENING_DEFAULTS[args.method]
    try:
        return PrunerSpec(
            method=args.method,
            fisher=FisherConfig(block_size=args.block_size, dampening=damp,
                                num_grads=args.num_grads),
            nm=getattr(args, "nm", None),
            recomputations=getattr(args, "recompute", 1),  # prune has no such flag
            per_layer=args.per_layer,
            threads=args.threads,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _layer_weights(box: TensorContainer, path: str, lid: str) -> np.ndarray:
    """Layer ``lid``'s weights in ``box``, read from ``path``, as float64;
    a missing tensor or a non-finite value is refused."""
    name = weight_name(lid)
    if name not in box:
        raise ContainerError(f"{path}: missing {name}")
    w = box[name].array().astype(np.float64)
    if not np.isfinite(w).all():
        raise ValueError(f"{path}: {name} holds non-finite values")
    return w


def _load_weight_layers(path: str):
    box = read_container(path)
    ids = layer_ids(box)
    if not ids:
        raise ContainerError(f"{path}: no layer.<id>.weight entries")
    weights, prunable, dtypes = {}, {}, {}
    for lid in ids:
        weights[lid] = _layer_weights(box, path, lid)
        dtypes[lid] = box[weight_name(lid)].data.dtype
        pname = prunable_name(lid)
        if pname in box:
            prunable[lid] = box[pname].array().astype(bool)
    return ids, weights, (prunable or None), dtypes


def _write_model(path: str, weights, masks) -> None:
    """One container of every layer's weights, at their own dtype, each
    followed by the layer's u8 mask if ``masks`` has one."""
    box = TensorContainer()
    for lid, w in weights.items():
        box.add(weight_name(lid), w)
        if lid in masks:
            box.add(mask_name(lid), masks[lid])
    write_container(path, box)


# -- subcommands ---------------------------------------------------------------

def cmd_prune(args, out) -> int:
    from .pruners import run_pruner, split_by_layer

    if args.method != "gm" and not args.grads:
        raise UsageError(f"method {args.method!r} needs --grads")
    _check_sparsity(args.sparsity)
    spec = _spec_from_args(args)
    ids, weights, prunable, dtypes = _load_weight_layers(args.weights)
    grads = read_gradients(args.grads, ids) if args.grads else None
    result = run_pruner(spec, weights, grads, sparsity=args.sparsity, prunable=prunable)
    pruned = split_by_layer(result.new_weights, result.layout)
    _write_model(args.out, {lid: pruned[lid].astype(dtypes[lid]) for lid in ids},
                 split_by_layer(result.mask, result.layout))
    for lid in ids:
        out.write(
            f"{weight_name(lid)}\tsparsity\t{_fmt(result.per_layer_sparsity[lid])}"
            f"\tpredicted\t{_fmt(result.per_layer_predicted.get(lid, 0.0))}\n"
        )
    out.write(
        f"total\tsparsity\t{_fmt(np.count_nonzero(result.mask == 0) / result.mask.size)}"
        f"\tpredicted\t{_fmt(result.predicted_loss_increase)}\n"
    )
    return 0


def cmd_eval(args, out) -> int:
    if not (args.damp > 0.0 and np.isfinite(args.damp)):
        raise UsageError(f"--damp must be positive and finite, got {args.damp}")
    ids, before, _, _ = _load_weight_layers(args.weights_before)
    after_box = read_container(args.weights_after)
    grads = read_gradients(args.grads, ids)
    after = {lid: _layer_weights(after_box, args.weights_after, lid) for lid in ids}
    lines = []  # written once every layer is scored, so a refusal prints none
    total_pred = 0.0
    total_zeros = 0
    total_size = 0
    violations = 0
    for lid, wb in before.items():
        wname, wa = weight_name(lid), after[lid]
        if wb.shape != wa.shape:
            raise ValueError(
                f"{wname}: shape {wb.shape} before vs {wa.shape} after"
            )
        pred = loss_increase(wb.reshape(-1), wa.reshape(-1), grads[lid], args.damp)
        mname = mask_name(lid)
        if mname in after_box:
            mask = after_box[mname].array().reshape(-1)
        else:
            mask = (wa.reshape(-1) != 0).astype(np.uint8)
        zeros = int(np.count_nonzero(mask == 0))
        sparsity = zeros / mask.size
        if args.nm is not None:
            violations += nm_violations(mask, *args.nm)
        lines.append(f"{wname}\tpredicted\t{_fmt(pred)}\tsparsity\t{_fmt(sparsity)}\n")
        total_pred += pred
        total_zeros += zeros
        total_size += mask.size
    lines.append(
        f"total\tpredicted\t{_fmt(total_pred)}\tsparsity\t{_fmt(total_zeros / total_size)}\n"
    )
    if args.nm is not None:
        lines.append(f"nm\tviolations\t{violations}\n")
    out.write("".join(lines))
    return 1 if violations else 0


def report_lines(report) -> list[str]:
    """Line-delimited (step, field, value) records of every event of a
    ``pipeline.RunReport``, each field named as the ``pipeline.EventRecord``
    attribute it reports, plus a summary block."""
    fields = ("sparsity", "loss_before", "loss_after", "predicted_increase",
              "post_recovery_loss")
    lines = [f"{ev.step}\t{name}\t{_fmt(getattr(ev, name))}"
             for ev in report.events for name in fields]
    lines.append("summary\tevent\tstep\tsparsity\tloss_before\tloss_after\tpredicted\tpost_recovery")
    for i, ev in enumerate(report.events):
        lines.append(
            f"summary\t{i}\t{ev.step}\t{_fmt(ev.sparsity)}\t{_fmt(ev.loss_before)}"
            f"\t{_fmt(ev.loss_after)}\t{_fmt(ev.predicted_increase)}"
            f"\t{_fmt(ev.post_recovery_loss)}"
        )
    for name, s in report.per_layer_sparsity.items():
        lines.append(f"final\tsparsity.{name}\t{_fmt(s)}")
    lines.append(f"final\tloss\t{_fmt(report.final_loss)}")
    return lines


def cmd_toy(args, out) -> int:
    """``toy`` and ``sweep``: train the toy, run its one-shot prune or
    sweep, print the report, and write the final model (``toy --out``) or
    every checkpoint (``sweep``)."""
    from . import pipeline, schedules

    sweep = args.command == "sweep"
    if args.acyclic and args.period is not None:
        raise UsageError("--acyclic decays once, so it takes no --period")
    if sweep:
        targets, interval = args.targets, args.interval
        if targets is None:
            raise UsageError("a sweep needs --targets")
        named = ("--interval", interval, 1)
    else:  # one event, to the sparsity or the n:m pattern
        if args.sparsity is None and args.nm is None:
            raise UsageError("need --sparsity or --nm")
        _check_sparsity(args.sparsity)
        targets, interval = (args.sparsity,), args.recovery
        named = ("--recovery", interval, 0)
    for flag, value, least in (("--steps", args.steps, 0), ("--samples", args.samples, 1),
                               named):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    extra_steps = (args.steps * 100) // 300 if args.extra_recovery else 0
    if args.extra_recovery and not extra_steps:
        raise UsageError(f"--extra-recovery needs --steps >= 3, got {args.steps}")
    if not 0.0 < args.lr < np.inf:
        raise UsageError(f"--lr must be finite and > 0, got {args.lr}")
    if not 0.0 <= args.noise < np.inf:
        raise UsageError(f"--noise must be finite and >= 0, got {args.noise}")
    spec = _spec_from_args(args)
    try:
        if sweep:
            targets = schedules.plan_sweep(targets, interval).targets
        for a, b in zip(targets, targets[1:]):  # increasing, so like names are adjacent
            if f"{a:g}" == f"{b:g}":
                raise UsageError(f"targets {_fmt(a)} and {_fmt(b)} would both write "
                                 f"{args.out}.{a:g}.ovpt")
        # the flags given, else LrSchedule's defaults; a sweep cycles every interval
        lr = {"lr_max": args.lr_max, "lr_min": args.lr_min,
              "period": interval if sweep and args.period is None else args.period}
        sched = schedules.LrSchedule(**{k: v for k, v in lr.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    model = pipeline.toy_train(
        args.seed, args.dims, args.steps, args.lr,
        n_samples=args.samples, noise=args.noise, loss=args.loss,
    )
    grad_norm = pipeline.gradient_norm(model)
    report, checkpoints = pipeline.run_gradual(
        model, spec, targets, interval, sched, acyclic=args.acyclic, extra_steps=extra_steps,
    )
    out.write(f"train\tloss\t{_fmt(report.events[0].loss_before)}\n")
    out.write(f"train\tgrad_norm\t{_fmt(grad_norm)}\n")
    for line in report_lines(report):
        out.write(line + "\n")
    if not sweep:
        if args.out:
            _write_model(args.out, *checkpoints[-1][1:])
        return 0
    for target, weights, masks in checkpoints:
        path = f"{args.out}.{target:g}.ovpt"
        _write_model(path, weights, masks)
        out.write(f"checkpoint\t{_fmt(target)}\t{path}\n")
    return 0


def cmd_oracle(args, out) -> int:
    from . import oracle as oracle_mod
    from .solver import solve_global

    rng = np.random.default_rng(args.seed)
    rows = rng.standard_normal((args.num_grads, args.dim))
    w = rng.standard_normal(args.dim)
    fisher = args.damp * np.eye(args.dim) + rows.T @ rows / args.num_grads
    q, rho = oracle_mod.exhaustive_best_subset(w, fisher, args.k)
    z, _, obj = oracle_mod.sparse_regression_min(rows, w, args.k, args.damp)
    inv = build_fisher_inverse(
        rows, FisherConfig(block_size=args.dim, dampening=args.damp,
                           num_grads=args.num_grads)
    )
    greedy = solve_global(w, inv, args.k)
    out.write(f"exhaustive\t{list(q)}\t{_fmt(rho)}\n")
    out.write(f"regression\t{list(z)}\t{_fmt(obj)}\n")
    out.write(f"greedy\t{_fmt(greedy.predicted_loss_increase)}\n")
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsprune",
        description="Correlation-aware second-order weight pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("prune", help="prune a weight container against gradient rows")
    p.add_argument("--weights", required=True, help="container with layer.<id>.weight")
    p.add_argument("--grads", help="container with layer.<id>.grads")
    p.add_argument("--method", choices=("gm", "wf", "ovit"), required=True)
    _add_target_flags(p, required=True)
    _add_fisher_flags(p)
    p.add_argument("--out", required=True, help="output container path")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("eval", help="score a before/after pair under the quadratic model")
    p.add_argument("--weights-before", required=True)
    p.add_argument("--weights-after", required=True)
    p.add_argument("--grads", required=True)
    p.add_argument("--damp", type=float, default=DAMPENING_DEFAULTS["ovit"])
    p.add_argument("--nm", type=_parse_nm, metavar="N:M",
                   help="also check n:m mask compliance")
    p.set_defaults(fn=cmd_eval)

    for name, help_text in (
        ("toy", "train a toy, prune it once, recover"),
        ("sweep", "gradual sparsity sweep on the toy; one checkpoint per target"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_toy_flags(p)
        p.add_argument("--method", choices=("gm", "wf", "ovit"), default="ovit")
        if name == "toy":
            _add_target_flags(p, required=False)
            p.add_argument("--recovery", type=int, default=20,
                           help="recovery steps after the prune (default %(default)s)")
        else:
            p.add_argument("--targets", type=_parse_targets)
            p.add_argument("--interval", type=int, default=20,
                           help="recovery steps after each event (default %(default)s)")
        p.add_argument("--extra-recovery", action="store_true",
                       help="append steps*100/300 extra recovery steps")
        _add_fisher_flags(p)
        p.add_argument("--recompute", type=int, default=1,
                       help="number of Fisher recomputation sub-steps per event")
        _add_schedule_flags(p)
        p.add_argument("--out", required=name == "sweep",
                       help="output container path prefix" if name == "sweep"
                       else "write final weights+masks here")
        p.set_defaults(fn=cmd_toy)

    p = sub.add_parser("oracle")  # internal: no help kwarg keeps it out of --help
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--num-grads", type=int, default=32)
    p.add_argument("--damp", type=float, default=1e-8)
    p.set_defaults(fn=cmd_oracle)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an --out path with no directory fails before any work
        folder = os.path.dirname(getattr(args, "out", None) or ".") or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"--out: no directory {folder}")
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.fn(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The console script: ``main``, then a flush of the standard streams
    and ``os._exit``, which skips interpreter teardown. ``main`` closes
    every file it writes before it returns; an exception escaping it takes
    the normal path. A stream that cannot be flushed, such as a closed
    pipe, lost output, so the exit code becomes 3."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):  # ValueError: the stream was closed
            code = 3
    os._exit(code)


if __name__ == "__main__":
    entry()
