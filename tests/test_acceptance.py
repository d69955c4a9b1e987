"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The end-to-end training criterion drives the real CLI and takes a
couple of minutes; everything else finishes in seconds.
"""

import contextlib
import csv
import subprocess
import sys
import time

import numpy as np
import pytest

from mcdenoise import kernels as K
from mcdenoise import metrics as MT
from mcdenoise import perf
from mcdenoise import phantom as P
from mcdenoise import tensor as T
from mcdenoise.model import (
    PAPER_PROPOSED_CONFIG,
    PAPER_UNET_CONFIG,
    build_proposed,
    build_unet_baseline,
)
from mcdenoise.tensor import Tensor
from mcdenoise.training import n2n_equivalence_probe, n2n_loss

from helpers import (
    check_gradients,
    d_number_loops,
    dice_loops,
    dvh_loops,
    mean_square,
)


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description} ({time.perf_counter() - start:.1f}s)")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mcdenoise", *map(str, args)], capture_output=True, text=True
    )
    assert proc.returncode == 0, f"cli failed: {proc.stderr}"
    return proc


# -- 1: operator identities ----------------------------------------------------------


def test_criterion_1_operator_identities():
    with criterion(1, "voxel shuffle/unshuffle round trips bit-exactly"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(50):
            shape = (
                int(rng.integers(1, 3)),
                int(rng.integers(1, 4)),
                2 * int(rng.integers(1, 9)),
                2 * int(rng.integers(1, 9)),
                2 * int(rng.integers(1, 9)),
            )
            x = Tensor(rng.standard_normal(shape))
            assert np.array_equal(K.voxel_shuffle(K.voxel_unshuffle(x)).data, x.data)
            c8 = (shape[0], 8 * shape[1]) + shape[2:]
            y = Tensor(rng.standard_normal(c8))
            assert np.array_equal(K.voxel_unshuffle(K.voxel_shuffle(y)).data, y.data)
        assert time.perf_counter() - start < 10.0


# -- 2: gradient suite -----------------------------------------------------------------


def test_criterion_2_gradient_suite():
    with criterion(2, "all kernels match central finite differences (rel err < 1e-4)"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)

        def rand(shape, keep_off_kink=False):
            data = rng.normal(0.0, 1.0, shape)
            if keep_off_kink:
                data[np.abs(data) < 1e-2] += 0.1
            return Tensor(data, requires_grad=True)

        def spec(c_in, c_out, kernel, stride):
            taps = int(np.prod(kernel))
            return K.ConvSpec(
                c_in,
                c_out,
                kernel,
                stride,
                Tensor(rng.normal(0.0, 0.5, (c_out, c_in) + tuple(kernel)), requires_grad=True),
                Tensor(rng.normal(0.0, 0.1, (c_out,)), requires_grad=True),
            )

        for _ in range(10):
            x = rand((1, 2, 4, 4, 3))
            s = spec(2, 2, (3, 3, 3), (1, 1, 1))
            check_gradients(lambda: mean_square(K.conv3d(x, s)), [x, s.weights, s.bias])

        for _ in range(10):
            x = rand((1, 2, 4, 4, 4))
            s = spec(2, 3, (3, 3, 1), (2, 2, 1))
            check_gradients(lambda: mean_square(K.conv3d(x, s)), [x, s.weights, s.bias])

        for _ in range(10):
            x = rand((1, 2, 4, 4, 4))
            s = spec(2, 3, (1, 1, 3), (1, 1, 2))
            check_gradients(lambda: mean_square(K.conv3d(x, s)), [x, s.weights, s.bias])

        for _ in range(10):
            x = rand((1, 3, 3, 3, 2))
            scale = Tensor(rng.normal(1.0, 0.3, 3), requires_grad=True)
            shift = Tensor(rng.normal(0.0, 0.3, 3), requires_grad=True)
            check_gradients(
                lambda: mean_square(K.instance_norm(x, scale, shift)), [x, scale, shift]
            )

        for _ in range(10):
            x = rand((1, 2, 3, 3, 2))
            check_gradients(lambda: mean_square(K.upsample_trilinear(x)), [x])

        for _ in range(10):
            x = rand((2, 3, 4, 4, 2), keep_off_kink=True)
            check_gradients(lambda: mean_square(T.relu(x)), [x])

        for _ in range(10):
            pred = rand((1, 1, 4, 4, 3))
            target = Tensor(rng.normal(0.0, 1.0, (1, 1, 4, 4, 3)))
            check_gradients(lambda: n2n_loss(pred, target), [pred])

        assert time.perf_counter() - start < 300.0


# -- 3: separable equivalence -----------------------------------------------------------


def test_criterion_3_separable_equivalence():
    with criterion(3, "axial+slice with rank-1 kernels equals the full 3-D conv (1e-10)"):
        rng = np.random.default_rng(303)
        for _ in range(20):
            shape = (1, 1) + tuple(int(rng.integers(4, 9)) for _ in range(3))
            x = rng.standard_normal(shape)
            g = rng.standard_normal((3, 3))
            f = rng.standard_normal(3)
            axial = K.ConvSpec(
                1, 1, (3, 3, 1), (1, 1, 1), Tensor(g[None, None, :, :, None]), Tensor(np.zeros(1))
            )
            slc = K.ConvSpec(
                1, 1, (1, 1, 3), (1, 1, 1), Tensor(f[None, None, None, None, :]), Tensor(np.zeros(1))
            )
            full = K.ConvSpec(
                1,
                1,
                (3, 3, 3),
                (1, 1, 1),
                Tensor((g[:, :, None] * f[None, None, :])[None, None]),
                Tensor(np.zeros(1)),
            )
            a = K.conv3d(K.conv3d(Tensor(x), axial), slc).data
            b = K.conv3d(Tensor(x), full).data
            assert np.max(np.abs(a - b)) < 1e-10


# -- 4: reference-configuration complexity ------------------------------------------------


def test_criterion_4_complexity_reproduction():
    with criterion(4, "256x256x64 complexity: 55G/926G FLOPs and 12M/49M params windows"):
        start = time.perf_counter()
        prop = build_proposed(PAPER_PROPOSED_CONFIG, seed=0)
        unet = build_unet_baseline(PAPER_UNET_CONFIG, seed=0)
        gp = perf.count_flops(prop, (256, 256, 64)).total_gflops
        gu = perf.count_flops(unet, (256, 256, 64)).total_gflops
        pp = perf.count_params(prop)
        pu = perf.count_params(unet)
        assert 0.85 * 55.0 <= gp <= 1.15 * 55.0, f"proposed {gp:.2f}G outside 55G +-15%"
        assert 0.85 * 926.0 <= gu <= 1.15 * 926.0, f"baseline {gu:.2f}G outside 926G +-15%"
        assert gu / gp >= 12.0
        assert 0.9 * 12e6 <= pp <= 1.1 * 12e6, f"proposed {pp} params outside 12M +-10%"
        assert 0.9 * 49e6 <= pu <= 1.1 * 49e6, f"baseline {pu} params outside 49M +-10%"
        assert 3.0 <= pu / pp <= 5.0
        assert time.perf_counter() - start < 10.0


# -- 5: training-equivalence probe ---------------------------------------------------------


def test_criterion_5_equivalence_probe():
    with criterion(5, "noisy-target and clean-target minimizers agree; bias control shifts"):
        start = time.perf_counter()
        report = n2n_equivalence_probe(1_000_000, seed=505)
        assert report.slope_gap < 5e-3
        assert abs(report.intercept_shift) < 5e-3
        bias = 0.5
        biased = n2n_equivalence_probe(1_000_000, seed=506, noise_mean=bias)
        assert abs(biased.intercept_shift - bias) < 5e-3
        assert time.perf_counter() - start < 30.0


# -- 6: end-to-end desk training -------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_end_to_end_training(tmp_path):
    with criterion(6, "desk training: denoised MSE <= 0.2x noisy and D95 closer, >=80% of 15"):
        start = time.perf_counter()
        train_ds = tmp_path / "train_ds"
        test_ds = tmp_path / "test_ds"
        run_dir = tmp_path / "run"
        eval_dir = tmp_path / "eval"
        run_cli("phantom", "--cases", 8, "--pairs", 2, "--extents", "32x32x16",
                "--histories", 2, "--seed", 1, "--out", train_ds)
        run_cli("phantom", "--cases", 2, "--pairs", 2, "--extents", "32x32x16",
                "--histories", 2, "--seed", 901, "--out", test_ds)
        run_cli("train", "--data", train_ds, "--out", run_dir, "--model", "proposed",
                "--features", 8, "--down", 3, "--crop", "32x32x16",
                "--iterations", 2000, "--seed", 2)
        run_cli("eval", "--checkpoint", run_dir / "checkpoint.ddpk", "--data", test_ds,
                "--realizations", 15, "--histories", 2, "--seed", 77, "--out", eval_dir)

        rows = {}
        with open(eval_dir / "metrics.csv") as fh:
            for record in csv.DictReader(fh):
                key = (record["case"], record["realization"])
                rows.setdefault(key, {})[record["source"]] = record
        by_case = {}
        for (case, _), pair in rows.items():
            noisy, den = pair["noisy"], pair["denoised"]
            mse_ok = float(den["mse"]) <= 0.2 * float(noisy["mse"])
            d95_ok = abs(float(den["d95"]) - 1.0) <= abs(float(noisy["d95"]) - 1.0)
            by_case.setdefault(case, []).append(mse_ok and d95_ok)
        assert len(by_case) == 2
        for case, outcomes in by_case.items():
            assert len(outcomes) == 15
            frac = sum(outcomes) / len(outcomes)
            assert frac >= 0.8, f"{case}: only {frac:.0%} of realizations pass"
        assert time.perf_counter() - start < 1800.0


# -- 7: metric oracles --------------------------------------------------------------------


def test_criterion_7_metric_oracles():
    with criterion(7, "metrics match brute-force oracles on 100 random volumes (1e-10)"):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        for _ in range(100):
            shape = tuple(int(rng.integers(2, hi + 1)) for hi in (8, 8, 4))
            a = rng.uniform(0.0, 1.25, shape)
            b = rng.uniform(0.0, 1.25, shape)
            mask = rng.random(shape) < 0.6
            if not mask.any():
                mask[0, 0, 0] = True

            direct_mse = np.mean((a - b) ** 2)
            assert abs(MT.mse(a, b) - direct_mse) < 1e-10

            curve_a = MT.dvh(a, mask)
            edges, frac = dvh_loops(a, mask, MT.DVH_BINS, MT.DVH_MAX_DOSE)
            assert np.max(np.abs(curve_a.values - frac)) < 1e-10

            curve_b = MT.dvh(b, mask)
            direct_err = float(
                np.sum(np.abs(curve_a.values - curve_b.values)) * (MT.DVH_MAX_DOSE / MT.DVH_BINS)
            )
            assert abs(MT.dvh_error(curve_a, curve_b) - direct_err) < 1e-10

            d95 = MT.d_number(a, mask, 95)
            d98 = MT.d_number(a, mask, 98)
            d99 = MT.d_number(a, mask, 99)
            assert abs(d95 - d_number_loops(a, mask, 95)) < 1e-10
            assert abs(d98 - d_number_loops(a, mask, 98)) < 1e-10
            assert abs(d99 - d_number_loops(a, mask, 99)) < 1e-10
            assert d99 <= d98 <= d95

            for level in MT.ISODOSE_LEVELS:
                dice = MT.isodose_dice(a, b, level, 1.0)
                assert abs(dice - dice_loops(a, b, level / 100.0)) < 1e-10
                assert dice == MT.isodose_dice(b, a, level, 1.0)
                assert 0.0 <= dice <= 1.0
        assert time.perf_counter() - start < 60.0


# -- 8: noise model ------------------------------------------------------------------------


def test_criterion_8_noise_model():
    with criterion(8, "noise: zero mean, variance ~ 1/histories (10%), pair corr < 0.05"):
        spec = P.default_spec((32, 32, 16), seed=808)
        clean = P.generate_clean(spec)
        body = P.body_mask(spec)

        eps = P.add_quantum_noise(clean, 1_000_000, seed=1).values - clean.values
        n = int(body.sum())
        sigma = np.sqrt(np.mean((np.sqrt(np.clip(clean.values, 0, None) * 80.0 / 1e6) ** 2)[body]))
        assert abs(eps[body].mean()) < 5.0 * sigma / np.sqrt(n)

        def pooled(h, seeds):
            return np.mean(
                [
                    np.mean((P.add_quantum_noise(clean, h, seed=s).values - clean.values)[body] ** 2)
                    for s in seeds
                ]
            )

        v1 = pooled(1_000_000, range(10))
        v2 = pooled(2_000_000, range(100, 110))
        v4 = pooled(4_000_000, range(200, 210))
        assert abs(v1 / v2 - 2.0) < 0.2, f"v1/v2 = {v1 / v2:.3f}"
        assert abs(v1 / v4 - 4.0) < 0.4, f"v1/v4 = {v1 / v4:.3f}"
        assert abs(v2 / v4 - 2.0) < 0.2, f"v2/v4 = {v2 / v4:.3f}"

        e1 = P.add_quantum_noise(clean, 1_000_000, seed=11).values - clean.values
        e2 = P.add_quantum_noise(clean, 1_000_000, seed=12).values - clean.values
        active = body & (clean.values > 0)
        corr = np.corrcoef(e1[active], e2[active])[0, 1]
        assert abs(corr) < 0.05


# -- 9: benchmark ordering -------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_9_benchmark_ordering():
    with criterion(9, "decoupled module is faster than the regular 3-D module; "
                      "MAC ratio 4/9 per stride-1 conv pair, 7/9 per benchmarked module"):
        assert perf.decoupling_flops_ratio(3) == 4 / 9
        rows = {r.module: r for r in perf.bench_modules((32, 32, 16), 64, repeats=100, seed=0)}
        assert rows["decoupled"].median_ms < rows["regular3d"].median_ms, (
            f"decoupled {rows['decoupled'].median_ms:.2f}ms vs "
            f"regular {rows['regular3d'].median_ms:.2f}ms"
        )


# -- 10: reproducibility -----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "same seeds and flags give bit-identical checkpoints, DVOLs, CSVs"):
        outputs = []
        for tag in ("a", "b"):
            ds = tmp_path / f"ds_{tag}"
            run = tmp_path / f"run_{tag}"
            ev = tmp_path / f"eval_{tag}"
            run_cli("phantom", "--cases", 2, "--pairs", 2, "--extents", "16x16x8",
                    "--histories", 2, "--seed", 5, "--out", ds)
            run_cli("train", "--data", ds, "--out", run, "--features", 4, "--down", 2,
                    "--crop", "16x16x8", "--iterations", 100, "--seed", 9)
            run_cli("eval", "--checkpoint", run / "checkpoint.ddpk", "--data", ds,
                    "--realizations", 2, "--histories", 2, "--seed", 13, "--out", ev)
            outputs.append(
                {
                    "dvol": (ds / "case_000" / "noisy_00.dvol").read_bytes(),
                    "clean": (ds / "case_001" / "clean.dvol").read_bytes(),
                    "ckpt": (run / "checkpoint.ddpk").read_bytes(),
                    "loss": (run / "loss.csv").read_text(),
                    "metrics": (ev / "metrics.csv").read_text(),
                }
            )
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"
