"""Benchmark entry point: one closed-loop workload, timed from outside the program.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run sets the workload up several times (``setup_s`` is the
median), warms up, then calls the workload's operation in a closed loop
for ``--seconds``. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it wraps the program's layers in spans and reports the
per-layer metrics instead. Human-readable lines come first; the last line
of standard output is one JSON object. A full record, with the run
context and the seed, is written under ``.perfbench_out/``.

Exit codes: 0 when a result was printed (its ``correct`` field says
whether every check passed), 2 when the source tree is missing.
"""

import argparse
import os
import sys

# BLAS threads are fixed before numpy loads: one thread keeps timings
# steady on a small shared machine, and is never more than nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 3.0  # cheap set-ups repeat until this much set-up time is spent
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mcdenoise", "__init__.py")):
        print(f"perfbench: no mcdenoise source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import bench  # noqa: E402  (needs numpy, so after the thread settings)

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload_cls = bench.WORKLOADS[args.workload]
    result = bench.run(
        lambda: workload_cls(args.seed),
        seconds=args.seconds,
        traced=bool(args.trace),
        out_dir=OUT_DIR,
        setups=(MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S),
        blas_threads=BLAS_THREADS,
    )
    for line in bench.report_lines(result):
        print(line)
    print(bench.result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
