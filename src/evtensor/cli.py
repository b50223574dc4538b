"""Command-line pipeline: generate, bin, decompose, classify, denoise, sweep.

One executable, subcommand style. All randomness flows from explicit seeds
(the scene seed for generation, the solver seed for decomposition); every run
writes a JSON echo of its fully resolved configuration next to its first
output, and reruns with identical flags produce byte-identical data files
(wall-clock time goes to stderr, save the sweep CSV's seconds column).

Every file flag takes a path, read or written as UTF-8. BLAS worker threads
are capped through the environment (for OpenBLAS, ``OPENBLAS_NUM_THREADS=1``
set before the command starts); the CLI has no thread flag of its own. Each
flag is used, and only under its full name, never a prefix of it: ``denoise``
takes ``--tau`` or ``--quantile``, not both, and ``sweep`` its lambdas from
its grids alone. The commands return nothing: ``main`` alone sets the exit
code, 2 for a flag argparse refuses and 1 for any other refusal, raised to it
and logged (a ``denoise`` threshold that keeps no event is one), else 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

from . import __version__
from .denoise import (
    DEFAULT_QUANTILE,
    filter_events,
    quantile_threshold,
    score_events,
    write_report_csv,
)
from .errors import ProtocolError
from .evaluation import (
    TASK_NOISE,
    TASK_OBJECTS,
    TRAIN_FRACTION,
    classify_factors,
    save_model,
    sweep_lambdas,
    write_results_csv,
)
from .events import (
    bin_to_tensor,
    parse_events,
    tensor_density,
    write_events_csv,
    write_tensor_dump,
)
from .solver import SolverConfig, load_checkpoint, save_checkpoint, solve, write_trace_csv
from .synth import generate, load_scene_spec, scene_spec_to_ini

logger = logging.getLogger("evtensor")

# one flag per SolverConfig field, named after it; its type and default come
# from the field, only the help text is kept here
SOLVER_FLAG_HELP = {
    "f_max": "maximal latent rank",
    "lambda1": "weight of the quasi-identity Q added as lambda1*Q to each factor "
               "solve's right-hand side, a diagonal reward rather than an L1 penalty; "
               "0 gives the FCTN ablation",
    "lambda2": "L2/proximal coefficient",
    "s_max": "iteration cap",
    "seed": "solver seed",
}


def _parse_geometry(text: str) -> tuple[int, int]:
    shape = tuple(int(v) if v.strip().isdecimal() else 0 for v in text.lower().split("x"))
    if len(shape) != 2 or min(shape) < 1:
        raise argparse.ArgumentTypeError(
            f"geometry must be two positive integers, rows x cols like 260x346, got {text!r}")
    return shape


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated numbers, got {text!r}") from None


def _echo_config(args: argparse.Namespace, primary_output: str) -> None:
    """Record the resolved run configuration next to the first output."""
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    resolved["version"] = __version__
    path = Path(primary_output).with_suffix(".config.json")
    path.write_text(json.dumps(resolved, indent=2, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")
    logger.info("resolved config written to %s", path)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)
                           if f.name in args})


def _add_solver_flags(p: argparse.ArgumentParser, skip=()) -> None:
    for f in [f for f in fields(SolverConfig) if f.name not in skip]:
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                       help=SOLVER_FLAG_HELP[f.name] + " (default %(default)s)")


def cmd_gen(args) -> None:
    spec = load_scene_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    stream = generate(spec)
    write_events_csv(stream, args.out)
    echo_path = Path(args.out).with_suffix(".scene.cfg")
    echo_path.write_text(scene_spec_to_ini(spec), encoding="utf-8")
    _echo_config(args, args.out)
    logger.info("wrote %d events to %s (spec echo %s)", len(stream), args.out, echo_path)


def cmd_bin(args) -> None:
    stream = parse_events(args.events, args.geometry)
    tensor = bin_to_tensor(stream, args.frames)
    write_tensor_dump(tensor, args.out)
    _echo_config(args, args.out)
    print(f"dims: {tensor.dims[0]} {tensor.dims[1]} {tensor.dims[2]}")
    print(f"density: {tensor_density(tensor):.6f}")


def cmd_decompose(args) -> None:
    cfg = _solver_config(args)
    stream = parse_events(args.events, args.geometry)
    tensor = bin_to_tensor(stream, args.frames)
    start = time.perf_counter()
    factors, state = solve(tensor, cfg)
    elapsed = time.perf_counter() - start
    save_checkpoint(factors, args.checkpoint)
    write_trace_csv(state, args.trace, {**asdict(cfg), "converged": str(state.converged).lower(),
                                        "model": "FCTN-ablation" if cfg.lambda1 == 0.0 else "ENTN"})
    _echo_config(args, args.checkpoint)
    last = state.trace[-1]
    print(f"final rank: {state.f}")
    print(f"iterations: {state.s}")
    print(f"final rel_change: {last.rel_change:.6g}")
    print(f"final fit: {last.fit:.6g}")
    print(f"converged: {str(state.converged).lower()}")
    logger.info("decomposition took %.2f s", elapsed)


def cmd_classify(args) -> None:
    factors = load_checkpoint(args.checkpoint)
    stream = parse_events(args.events, factors.dims[:2])
    if not stream.has_labels:
        raise ProtocolError(f"classification needs a label column in {args.events}")
    tensor = bin_to_tensor(stream, factors.dims[2])
    value, model, n_train, n_test = classify_factors(stream, tensor, factors, args.task)
    report = "\n".join([
        f"task: {args.task}",
        f"auc: {value:.17g}",
        f"svm iterations: {model.iterations}",
        f"train events: {n_train}",
        f"test events: {n_test}",
        f"feature length: {len(model.weights)}",
    ]) + "\n"
    Path(args.report).write_text(report, encoding="utf-8")
    if args.model:
        save_model(model, args.model)
    _echo_config(args, args.report)
    sys.stdout.write(report)


def cmd_denoise(args) -> None:
    factors = load_checkpoint(args.checkpoint)
    stream = parse_events(args.events, factors.dims[:2])
    tensor = bin_to_tensor(stream, factors.dims[2])
    scores = score_events(stream, tensor, factors)
    tau = args.tau if args.tau is not None else quantile_threshold(scores, args.quantile)
    filtered, report = filter_events(stream, scores, tau)
    if filtered is not None:
        write_events_csv(filtered, args.out)
    write_report_csv(stream, report, args.report)
    _echo_config(args, args.report)
    print(report.summary())
    if filtered is None:
        raise ProtocolError(f"threshold {tau:.6g} removed every event; no filtered CSV written")


def cmd_sweep(args) -> None:
    stream = parse_events(args.events, args.geometry)
    tensor = bin_to_tensor(stream, args.frames)
    grid = [(l1, l2) for l1 in args.lambda1_grid for l2 in args.lambda2_grid]
    result = sweep_lambdas(tensor, stream, grid, _solver_config(args), task=args.task)
    write_results_csv(result, args.out)
    _echo_config(args, args.out)
    print(f"cells: {len(result.cells)}")
    print(f"overall gap: {result.overall_gap():.4f}%")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtensor", allow_abbrev=False,
        description="Event-stream representation learning with a 3rd-order tensor network.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug (logs go to stderr)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))
    # the inputs that subcommands share, each declared once
    binned = argparse.ArgumentParser(add_help=False)
    binned.add_argument("--events", required=True)
    binned.add_argument("--geometry", type=_parse_geometry, required=True, metavar="IxJ")
    binned.add_argument("--frames", type=int, required=True)
    fitted = argparse.ArgumentParser(add_help=False)
    fitted.add_argument("--events", required=True)
    fitted.add_argument("--checkpoint", required=True)

    p = sub.add_parser("gen", help="generate a labeled synthetic scene CSV")
    p.add_argument("--spec", required=True, help="INI scene file")
    p.add_argument("--out", required=True, help="output event CSV")
    p.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bin", parents=[binned], help="bin a CSV into the tensor dump format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bin)

    p = sub.add_parser("decompose", parents=[binned],
                       help="fit the factor triple to a binned stream")
    p.add_argument("--checkpoint", required=True, help="output factor checkpoint")
    p.add_argument("--trace", required=True, help="output trace CSV")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "classify", parents=[fitted], help="AUC of a linear SVM on latent features",
        description=f"Train a linear SVM on the events of the first {TRAIN_FRACTION:.0%} of the "
                    "frames of a labeled event CSV and report its AUC on the rest. The split is "
                    "fixed, so test events sit at frames, and for moving objects mostly at "
                    "pixels, that no training event had: the objects AUC measures extrapolation.")
    p.add_argument("--task", choices=[TASK_OBJECTS, TASK_NOISE], default=TASK_OBJECTS)
    p.add_argument("--report", required=True, help="output report file")
    p.add_argument("--model", default=None, help="optional output model file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("denoise", parents=[fitted], help="filter low-reconstruction events")
    threshold = p.add_mutually_exclusive_group()
    threshold.add_argument("--tau", type=float, default=None, help="absolute score threshold")
    threshold.add_argument("--quantile", type=float, default=DEFAULT_QUANTILE,
                           help="quantile threshold when --tau is not given (default %(default)s)")
    p.add_argument("--out", required=True, help="filtered event CSV")
    p.add_argument("--report", required=True, help="per-event report CSV")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("sweep", parents=[binned], help="AUC over a (lambda1, lambda2) grid",
                       description="AUC over a (lambda1, lambda2) grid on a labeled event CSV.")
    p.add_argument("--lambda1-grid", type=_parse_grid, required=True, metavar="A,B,...")
    p.add_argument("--lambda2-grid", type=_parse_grid, required=True, metavar="A,B,...")
    p.add_argument("--task", choices=[TASK_OBJECTS, TASK_NOISE], default=TASK_OBJECTS)
    p.add_argument("--out", required=True, help="results CSV")
    _add_solver_flags(p, skip=("lambda1", "lambda2"))
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig adds a stderr handler only where the root logger has none
    # (an embedding application keeps its own); the level is set on each call
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(logging.WARNING - 10 * min(args.verbose, 2))
    try:
        args.func(args)
    except BrokenPipeError:
        pass
    except Exception as exc:
        logger.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
