"""Command-line entry point.

Subcommands: phantom (synthetic dataset generation), train (noise-to-noise
training), denoise (run a checkpoint over one volume), eval (metrics over
freshly drawn noise realizations), analyze (analytic FLOPs/parameters),
bench (module wall-time comparison). A command given --out loads and
checks its inputs before it makes the directory, and ends by writing a
run manifest there (``volio.write_kv``): the run context (command, tool
version, wall time, numpy version, BLAS threads), then its parsed
arguments, overridden by what it resolved from them. No flag sets the dose
scale or says how a --seed derives each random stream: both are rules of
``phantom``. Exit codes: 0 ok, 2 usage, 3 data or format error, 4 numeric error.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__, metrics, perf, phantom, volio
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .model import (
    PAPER_PROPOSED_CONFIG,
    PAPER_UNET_CONFIG,
    PROPOSED,
    UNET_BASELINE,
    ScaledConfig,
    build_network,
    check_divisible,
    load_checkpoint,
)
from .training import (
    LOG_EVERY,
    TrainConfig,
    check_crop,
    denoise_volume,
    train,
)

DOSE_WINDOW_GY = (0.0, phantom.DEFAULT_PRESCRIPTION_GY)
DIFF_WINDOW_GY = (-8.0, 8.0)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4

DESK_NUM_DOWN = 3  # train's default --down


def _write_manifest(out_dir, args, started: float, **resolved):
    """Write ``run_manifest.txt``: the run context, then ``vars(args)``
    overridden by ``resolved``."""
    context = {
        "command": args.command,
        "tool_version": __version__,
        "wall_time_s": f"{time.time() - started:.3f}",
        "numpy_version": np.__version__,
        "blas_threads": perf.blas_threads(),
    }
    parsed = {key: value for key, value in vars(args).items() if key != "func"}
    volio.write_kv(os.path.join(out_dir, "run_manifest.txt"), context | parsed | resolved)


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


# -- phantom --------------------------------------------------------------------


def cmd_phantom(args) -> int:
    started = time.time()
    try:
        check_divisible(PROPOSED, DESK_NUM_DOWN, args.extents, ConfigError)
    except ConfigError as exc:
        print(f"warning: {exc}; train rejects these extents at its default --down "
              f"{DESK_NUM_DOWN}", file=sys.stderr)
    # makes --out once the first case's volume exists
    phantom.generate_dataset(
        args.out,
        args.extents,
        n_cases=args.cases,
        histories=args.histories,
        pairs_per_case=args.pairs,
        seed=args.seed,
    )
    _write_manifest(args.out, args, started)
    print(f"wrote {args.cases} cases ({args.pairs} noisy realizations each) to {args.out}")
    return EXIT_OK


# -- train ----------------------------------------------------------------------


def cmd_train(args) -> int:
    started = time.time()
    cfg = TrainConfig(lr=args.lr, iterations=args.iterations, crop_extents=args.crop_extents,
                      seed=args.seed)
    pairs = phantom.load_dataset_pairs(args.data)
    for pair in pairs:
        check_crop(pair.input.extents, cfg)
    net_cfg = ScaledConfig(args.features, args.down, cfg.crop_extents)
    net = build_network(args.model, net_cfg, seed=cfg.seed)
    out = _ensure_out(args.out)
    checkpoint = os.path.join(out, "checkpoint.ddpk")
    loss_log = os.path.join(out, "loss.csv")

    def progress(step, value):
        if step % (10 * LOG_EVERY) == 0:
            print(f"step {step}: loss {value:.6g}")

    train(net, pairs, cfg, log_path=loss_log, checkpoint_path=checkpoint, progress=progress)
    _write_manifest(out, args, started, checkpoint=checkpoint, loss_log=loss_log)
    print(f"checkpoint written to {checkpoint}")
    return EXIT_OK


# -- denoise -----------------------------------------------------------------------


def cmd_denoise(args) -> int:
    started = time.time()
    net = load_checkpoint(args.checkpoint)
    volume = phantom.DoseVolume(*volio.read_dvol(args.input))
    check_divisible(net.name, net.cfg.num_down, volume.extents, ShapeError)
    out = _ensure_out(args.out)
    start = time.perf_counter()
    denoised = denoise_volume(net, volume.values)
    denoise_ms = 1e3 * (time.perf_counter() - start)
    out_path = os.path.join(out, "denoised.dvol")
    volio.write_dvol(out_path, denoised, volume.voxel_size_mm, volume.histories, volume.seed)
    volio.export_middle_slices(denoised, out, "denoised", DOSE_WINDOW_GY)
    volio.export_middle_slices(volume.values, out, "input", DOSE_WINDOW_GY)
    _write_manifest(out, args, started, output=out_path, denoise_ms_mean=f"{denoise_ms:.3f}")
    print(f"denoised volume written to {out_path}")
    return EXIT_OK


# -- eval ----------------------------------------------------------------------------


def _eval_csv_header() -> str:
    cols = ["case", "realization", "source"] + list(metrics.METRIC_COLUMNS)
    return ",".join(cols)


def cmd_eval(args) -> int:
    started = time.time()
    net = load_checkpoint(args.checkpoint)
    cases = [phantom.load_reference(case_dir) for case_dir in phantom.list_case_dirs(args.data)]
    for case in cases:
        check_divisible(net.name, net.cfg.num_down, case.clean.extents, ShapeError)
        try:  # the clean volume judged against itself meets every check on the case
            metrics.evaluate(case.clean, case.clean, case.ptv, case.body)
        except ContractError as exc:
            raise ContractError(f"{case.case_id}: {exc}") from None
    out = _ensure_out(args.out)
    rows = []
    denoise_s = []
    reports: dict[str, list[metrics.MetricsReport]] = {"noisy": [], "denoised": []}
    for index, case in enumerate(cases):
        for r in range(args.realizations):
            nseed = phantom.eval_noise_seed(args.seed, index, r)
            noisy = phantom.add_quantum_noise(case.clean, args.histories, nseed)
            start = time.perf_counter()
            denoised = denoise_volume(net, noisy.values)
            denoise_s.append(time.perf_counter() - start)
            for source, volume in (("noisy", noisy.values), ("denoised", denoised)):
                report = metrics.evaluate(volume, case.clean, case.ptv, case.body)
                reports[source].append(report)
                flat = report.as_dict()
                rows.append(
                    [case.case_id, str(r), source]
                    + [repr(flat[c]) for c in metrics.METRIC_COLUMNS]
                )
            if r == 0:
                diff = denoised - case.clean.values
                volio.export_middle_slices(
                    diff, out, f"{case.case_id}_diff_denoised", DIFF_WINDOW_GY
                )
                volio.export_middle_slices(
                    noisy.values - case.clean.values,
                    out,
                    f"{case.case_id}_diff_noisy",
                    DIFF_WINDOW_GY,
                )
    csv_path = os.path.join(out, "metrics.csv")
    with open(csv_path, "w") as fh:
        fh.write(_eval_csv_header() + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    table = metrics.summary_table(reports)
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write(table)
    print(table, end="")
    _write_manifest(out, args, started, metrics_csv=csv_path,
                    denoise_ms_mean=f"{1e3 * sum(denoise_s) / len(denoise_s):.3f}")
    return EXIT_OK


# -- analyze ----------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    started = time.time()
    paper = PAPER_PROPOSED_CONFIG if args.model == PROPOSED else PAPER_UNET_CONFIG
    down = paper.num_down if args.down is None else args.down
    cfg = ScaledConfig(args.features, down, args.extents)
    net = build_network(args.model, cfg, seed=0)
    report = perf.count_flops(net, args.extents)
    print(report.table(), end="")
    if args.out:
        out = _ensure_out(args.out)
        with open(os.path.join(out, "flops.csv"), "w") as fh:
            fh.write("\n".join(report.csv_lines()) + "\n")
        with open(os.path.join(out, "flops.txt"), "w") as fh:
            fh.write(report.table())
        _write_manifest(out, args, started, down=down)
    return EXIT_OK


# -- bench ----------------------------------------------------------------------------


def cmd_bench(args) -> int:
    started = time.time()
    rows = perf.bench_modules(args.extents, channels=args.channels, repeats=args.repeats, seed=args.seed)
    print(perf.BENCH_CSV_HEADER)
    for row in rows:
        print(row.csv())
    medians = {row.module: row.median_ms for row in rows}
    print(
        f"decoupled/regular median time ratio {medians['decoupled'] / medians['regular3d']:.4f}, "
        f"analytic MAC ratio 7/9 = {perf.module_mac_ratio(3):.4f}"
    )
    if args.out:
        out = _ensure_out(args.out)
        with open(os.path.join(out, "bench.csv"), "w") as fh:
            fh.write(perf.BENCH_CSV_HEADER + "\n")
            for row in rows:
                fh.write(row.csv() + "\n")
        _write_manifest(out, args, started)
    return EXIT_OK


# -- parser -------------------------------------------------------------------------------


def _int_flag(low: int, high: float = math.inf):
    """The type of an integer flag in [low, high); argparse reports a bad value
    as a usage error (exit 2) naming the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}), got {value}")
        return value

    return parse


_positive_int = _int_flag(1)
_seed = _int_flag(0, 2**64)  # stored as u64 in volume headers and checkpoints
_histories = _int_flag(1, 2**64)  # stored as u64 in volume headers
_repeats = _int_flag(perf.MIN_REPEATS)


def _extents(text: str) -> tuple[int, int, int]:
    """An HxWxD flag of three positive integers; argparse reports malformed
    text as a usage error."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"extents must look like 32x32x16, got {text!r}")
    try:
        extents = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"extents must be integers, got {text!r}") from None
    if any(e < 1 for e in extents):
        raise argparse.ArgumentTypeError(f"extents must be positive, got {text!r}")
    return extents


def _realizations(text: str) -> int:
    """A --pairs flag; argparse reports a count training cannot pair as a usage error."""
    try:
        return phantom.check_realization_count(int(text))
    except ValueError as exc:  # ConfigError too
        raise argparse.ArgumentTypeError(str(exc)) from None


_FORMATS_EPILOG = (
    "file formats: DVOL dose volumes and DMSK masks are little-endian binaries "
    "(magic, u32 version, u32 HxWxD extents, f32 voxel sizes in mm, u64 histories, "
    "u64 seed, then f32 values row-major); DDPK checkpoints hold the network tag, "
    "base features, depth, seed, and per-layer f64 weights; run manifests and case "
    "manifests are UTF-8 key=value lines (blank lines and # comments skipped, a "
    "repeated key rejected, written atomically); CSV outputs "
    "carry a header row; slice images are binary 8-bit PGM."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdenoise",
        description="Volumetric Monte Carlo dose denoising toolkit",
        epilog=_FORMATS_EPILOG,
    )
    parser.add_argument("--version", action="version", version=f"mcdenoise {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "phantom",
        help="generate a synthetic dose dataset (DVOL/DMSK files)",
        epilog=_FORMATS_EPILOG,
    )
    p.add_argument("--cases", type=_positive_int, default=8, help="number of randomized cases")
    p.add_argument("--pairs", type=_realizations, default=2, help="noisy realizations per case; even and >= 2, since training pairs them")
    p.add_argument("--histories", type=_histories, default=2, help="simulated history count (low counts mean strong noise)")
    p.add_argument("--extents", type=_extents, default="32x32x16", help="grid extents HxWxD")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("train", help="noise-to-noise training on a phantom dataset",
                       epilog=_FORMATS_EPILOG)
    p.add_argument("--data", required=True, help="dataset directory from the phantom command")
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=[PROPOSED, UNET_BASELINE], default=PROPOSED)
    p.add_argument("--features", type=_positive_int, default=8, help="base feature count")
    p.add_argument("--down", type=_positive_int, default=DESK_NUM_DOWN, help="downsampling module count")
    p.add_argument("--iterations", type=_int_flag(0), default=TrainConfig.iterations)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--crop", type=_extents, dest="crop_extents", default=TrainConfig.crop_extents,
                   help="training crop extents HxWxD")
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="apply a checkpoint to one DVOL volume",
                       epilog=_FORMATS_EPILOG)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="noisy DVOL file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="metrics over fresh noise realizations of each case",
                       epilog=_FORMATS_EPILOG)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset directory holding held-out cases")
    p.add_argument("--realizations", type=_positive_int, default=15)
    p.add_argument("--histories", type=_positive_int, default=2)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="analytic FLOPs and parameter counts",
                       epilog=_FORMATS_EPILOG)
    p.add_argument("--model", choices=[PROPOSED, UNET_BASELINE], default=PROPOSED)
    p.add_argument("--features", type=_positive_int, default=64)
    p.add_argument("--down", type=_positive_int, default=None, help="defaults to the paper depth of --model")
    p.add_argument("--extents", type=_extents, default="256x256x64")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="wall-time comparison of module variants",
                       epilog=_FORMATS_EPILOG)
    p.add_argument("--extents", type=_extents, default="32x32x16")
    p.add_argument("--channels", type=_positive_int, default=64)
    p.add_argument("--repeats", type=_repeats, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        # covers ConfigError, ContractError, ShapeError, FormatError and I/O
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
