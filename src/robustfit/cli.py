"""Command-line surface: estimate, bench, synth, select.

Exit codes: 0 success, 2 usage (including a path that cannot be read or
written), 3 parse error (including a non-ASCII input byte), 4 estimation
failed.
All structured output goes to stdout as JSON (or CSV via --out); the synth
subcommand prints its ground-truth model to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .bench import (SELECT_TOLERANCE, BenchSettings, run_bench, select_thresholds, summarize,
                    validation_error)
from .exceptions import (
    EstimationFailedError,
    InvalidInputError,
    ParseError,
    RobustFitError,
)
from .fileio import parse_correspondences, parse_records, write_correspondences, write_records
from .geometry import FUNDAMENTAL, HOMOGRAPHY
from .ransac import LO_METHODS, RansacConfig, run_ransac
from .synth import SynthConfig, synth_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ESTIMATION = 4


def _model_row_major(model) -> list[float]:
    return [float(v) for v in model.m.reshape(-1)]


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# Engine flags that estimate and bench share -> the RansacConfig field whose
# default and type each takes.
_ENGINE_FLAGS = {"--confidence": "confidence_p", "--tmax": "t_max",
                 "--lo-kmax": "lo_k_max", "--huber-c": "huber_c"}


def _engine_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    for flag, name in _ENGINE_FLAGS.items():
        default = getattr(RansacConfig, name)
        shared.add_argument(flag, type=type(default), default=default)
    return shared


def _engine_settings(args) -> dict:
    """The shared engine flags as RansacConfig (and BenchSettings) fields."""
    return {name: getattr(args, flag[2:].replace("-", "_")) for flag, name in _ENGINE_FLAGS.items()}


def cmd_estimate(args) -> int:
    data = parse_correspondences(args.input)
    problem = args.problem or data.problem
    cfg = RansacConfig(epsilon=args.epsilon, sigma=args.sigma, lo_method=args.lo,
                       seed=args.seed, **_engine_settings(args))
    try:
        report = run_ransac(problem, data.x1, data.x2, cfg, data.image_size)
    except EstimationFailedError as exc:
        _print_json(
            {
                "error": "estimation_failed",
                "message": str(exc),
                "iterations": exc.report.iterations_used if exc.report else None,
            }
        )
        return EXIT_ESTIMATION

    result = {
        "problem": problem,
        "lo_method": args.lo,
        "seed": args.seed,
        "epsilon": report.epsilon,
        "model": _model_row_major(report.best.model),
        "score": report.best.score,
        "inlier_count": report.best.inlier_count,
        "iterations": report.iterations_used,
        "lo_invocations": report.lo_invocations,
        "wall_ms": report.wall_time_ms,
    }
    # A file without a validation set (no record labeled 1) gets no error field.
    with contextlib.suppress(InvalidInputError):
        result["error_on_validation"] = validation_error(report, data)
    _print_json(result)
    return EXIT_OK


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    except ValueError:
        raise InvalidInputError(f"bad --sigmas list {args.sigmas!r}") from None
    if not methods or not sigmas:
        raise InvalidInputError("empty --methods or --sigmas sweep list")
    datasets = [(path.rsplit("/", 1)[-1].rsplit(".", 1)[0], parse_correspondences(path))
                for path in args.input]
    settings = BenchSettings(huber_sweep=args.huber_sweep, **_engine_settings(args))
    records = run_bench(
        datasets, methods, sigmas, args.trials, args.seed, settings, jobs=args.jobs
    )
    write_records(args.out, records)
    _print_json({"out": args.out, "records": len(records), "summary": summarize(records)})
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        problem=args.problem,
        n_inliers=args.inliers,
        n_outliers=args.outliers,
        noise_sigma=args.noise,
        image_size=(args.width, args.height),
        seed=args.seed,
        degenerate_planar=args.degenerate_planar,
    )
    ds = synth_dataset(cfg)
    write_correspondences(args.out, cfg.problem, ds.image_size, ds.x1, ds.x2, ds.labels)
    print(
        json.dumps(
            {"problem": cfg.problem, "truth_model": _model_row_major(ds.truth)},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_select(args) -> int:
    records = parse_records(args.input)
    _print_json(select_thresholds(records, tolerance=args.tolerance))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustfit",
        description="Robust two-view model estimation with locally optimized RANSAC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine = _engine_parser()

    est = sub.add_parser("estimate", parents=[engine],
                         help="estimate a model from a correspondence file")
    est.add_argument("--problem", choices=(FUNDAMENTAL, HOMOGRAPHY), default=None,
                     help="defaults to the problem declared in the file header")
    est.add_argument("--input", required=True)
    est.add_argument("--sigma", type=float, default=None,
                     help="threshold as a multiple of the image diagonal")
    est.add_argument("--epsilon", type=float, default=None, help="threshold in pixels")
    est.add_argument("--lo", choices=LO_METHODS, default=RansacConfig.lo_method)
    est.add_argument("--seed", type=int, default=RansacConfig.seed)
    est.set_defaults(func=cmd_estimate)

    ben = sub.add_parser("bench", parents=[engine],
                         help="seeded sweep over thresholds and LO methods")
    ben.add_argument("--input", required=True, nargs="+",
                     help="one or more labeled correspondence files")
    ben.add_argument("--sigmas", required=True, help="comma-separated threshold multipliers")
    ben.add_argument("--methods", required=True, help="comma-separated LO methods")
    ben.add_argument("--trials", type=int, default=10)
    ben.add_argument("--out", required=True, help="output CSV path")
    ben.add_argument("--seed", type=int, default=0, help="master seed")
    ben.add_argument("--huber-sweep", action="store_true",
                     help="average the huber method over c in {0.1, 0.01, 0.001}")
    ben.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    ben.set_defaults(func=cmd_bench)

    syn = sub.add_parser("synth", help="generate a labeled synthetic correspondence file")
    syn.add_argument("--problem", choices=(FUNDAMENTAL, HOMOGRAPHY), required=True)
    syn.add_argument("--inliers", type=int, required=True)
    syn.add_argument("--outliers", type=int, default=SynthConfig.n_outliers)
    syn.add_argument("--noise", type=float, default=SynthConfig.noise_sigma)
    syn.add_argument("--width", type=int, default=SynthConfig.image_size[0])
    syn.add_argument("--height", type=int, default=SynthConfig.image_size[1])
    syn.add_argument("--seed", type=int, default=SynthConfig.seed)
    syn.add_argument("--degenerate-planar", action="store_true",
                     help="fundamental only: put all 3-d points on one plane")
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=cmd_synth)

    sel = sub.add_parser("select", help="pick per-method thresholds from a bench CSV")
    sel.add_argument("--input", required=True)
    sel.add_argument("--tolerance", type=float, default=SELECT_TOLERANCE,
                     help="relative error slack over the per-method minimum")
    sel.set_defaults(func=cmd_select)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"robustfit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidInputError, OSError) as exc:
        print(f"robustfit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RobustFitError as exc:
        print(f"robustfit: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
