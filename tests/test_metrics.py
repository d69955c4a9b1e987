import numpy as np
import pytest

from mcdenoise import metrics as MT
from mcdenoise.errors import ContractError

from helpers import d_number_loops, dice_loops, dvh_loops


def _random_volume(rng, shape=(8, 8, 4)):
    return rng.uniform(0.0, 1.25, shape)


# -- mse ---------------------------------------------------------------------------


def test_mse_identity_and_offset():
    rng = np.random.default_rng(0)
    a = _random_volume(rng)
    assert MT.mse(a, a) == 0.0
    assert abs(MT.mse(a, a + 0.3) - 0.09) < 1e-12


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = _random_volume(rng), _random_volume(rng)
        direct = sum(
            (a[i, j, k] - b[i, j, k]) ** 2
            for i in range(a.shape[0])
            for j in range(a.shape[1])
            for k in range(a.shape[2])
        ) / a.size
        assert abs(MT.mse(a, b) - direct) < 1e-12


def test_mse_rejects_extent_mismatch():
    rng = np.random.default_rng(2)
    a, b = _random_volume(rng), _random_volume(rng)
    with pytest.raises(ContractError):
        MT.mse(a, b[:4])


# -- dvh ---------------------------------------------------------------------------


def test_dvh_uniform_step():
    values = np.full((4, 4, 2), 0.8)
    mask = np.ones(values.shape, dtype=bool)
    curve = MT.dvh(values, mask)
    assert curve.values[0] == 1.0
    assert np.all(curve.values[curve.edges <= 0.8] == 1.0)
    assert np.all(curve.values[curve.edges > 0.8] == 0.0)


def test_dvh_two_level_structure():
    values = np.zeros((2, 2, 2))
    values[0] = 0.4
    values[1] = 1.0
    mask = np.ones(values.shape, dtype=bool)
    curve = MT.dvh(values, mask)
    want = np.where(curve.edges <= 0.4, 1.0, np.where(curve.edges <= 1.0, 0.5, 0.0))
    assert np.array_equal(curve.values, want)


def test_dvh_monotone_and_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = _random_volume(rng)
        mask = rng.random(values.shape) < 0.7
        if not mask.any():
            continue
        curve = MT.dvh(values, mask)
        assert curve.values[0] == 1.0
        assert np.all(np.diff(curve.values) <= 0.0)
        assert np.all((curve.values >= 0.0) & (curve.values <= 1.0))


def test_dvh_matches_counting_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        values = _random_volume(rng)
        mask = rng.random(values.shape) < 0.6
        if not mask.any():
            continue
        curve = MT.dvh(values, mask)
        edges, frac = dvh_loops(values, mask, MT.DVH_BINS, MT.DVH_MAX_DOSE)
        assert np.max(np.abs(curve.values - frac)) < 1e-10
        assert np.max(np.abs(curve.edges - edges)) < 1e-12


def test_dvh_empty_mask_error():
    with pytest.raises(ContractError):
        MT.dvh(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=bool))


# -- dvh error -------------------------------------------------------------------------


def test_dvh_error_identity_and_single_bin():
    rng = np.random.default_rng(5)
    values = _random_volume(rng)
    mask = np.ones(values.shape, dtype=bool)
    curve = MT.dvh(values, mask)
    assert MT.dvh_error(curve, curve) == 0.0

    width = MT.DVH_MAX_DOSE / MT.DVH_BINS
    other = MT.DVHCurve(curve.edges, curve.values.copy())
    other.values[10] += 0.1
    assert abs(MT.dvh_error(curve, other) - 0.1 * width) < 1e-12
    assert abs(0.1 * width - 0.0013) < 1e-12


def test_dvh_error_matches_sum_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = _random_volume(rng), _random_volume(rng)
        mask = np.ones(a.shape, dtype=bool)
        ca, cb = MT.dvh(a, mask), MT.dvh(b, mask)
        direct = sum(
            abs(ca.values[i] - cb.values[i]) * (MT.DVH_MAX_DOSE / MT.DVH_BINS)
            for i in range(MT.DVH_BINS)
        )
        assert abs(MT.dvh_error(ca, cb) - direct) < 1e-12


def test_dvh_error_binning_mismatch():
    values = np.ones((2, 2, 2))
    mask = np.ones(values.shape, dtype=bool)
    a = MT.dvh(values, mask, bins=100)
    b = MT.dvh(values, mask, bins=50)
    with pytest.raises(ContractError):
        MT.dvh_error(a, b)


# -- d numbers -------------------------------------------------------------------------


def test_d_number_uniform():
    values = np.full((3, 3, 3), 0.73)
    mask = np.ones(values.shape, dtype=bool)
    for pct in (95, 98, 99):
        assert MT.d_number(values, mask, pct) == 0.73


def test_d_number_1_to_100():
    values = np.arange(1.0, 101.0).reshape(10, 10, 1)
    mask = np.ones(values.shape, dtype=bool)
    assert MT.d_number(values, mask, 95) == 6.0
    assert MT.d_number(values, mask, 99) == 2.0
    assert MT.d_number(values, mask, 100) == 1.0


def test_d_number_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        values = _random_volume(rng, (6, 5, 3))
        mask = rng.random(values.shape) < 0.5
        if not mask.any():
            continue
        for pct in (95, 98, 99, 50):
            assert abs(MT.d_number(values, mask, pct) - d_number_loops(values, mask, pct)) < 1e-12


def test_d_number_monotone_in_percent():
    rng = np.random.default_rng(8)
    for _ in range(30):
        values = _random_volume(rng)
        mask = rng.random(values.shape) < 0.5
        if not mask.any():
            continue
        d95 = MT.d_number(values, mask, 95)
        d98 = MT.d_number(values, mask, 98)
        d99 = MT.d_number(values, mask, 99)
        assert d99 <= d98 <= d95


# -- isodose dice ------------------------------------------------------------------------


def test_dice_identity_disjoint_shifted():
    a = np.zeros((4, 4, 2))
    a[0:2, 0:2, 0] = 1.0
    assert MT.isodose_dice(a, a, 50, 1.0) == 1.0

    b = np.zeros((4, 4, 2))
    b[2:4, 2:4, 1] = 1.0
    assert MT.isodose_dice(a, b, 50, 1.0) == 0.0

    shifted = np.zeros((4, 4, 2))
    shifted[1:3, 0:2, 0] = 1.0  # overlap 2 of 4
    assert MT.isodose_dice(a, shifted, 50, 1.0) == 0.5


def test_dice_empty_mask_conventions():
    zero = np.zeros((3, 3, 3))
    one = np.zeros((3, 3, 3))
    one[1, 1, 1] = 2.0
    assert MT.isodose_dice(zero, zero, 90, 1.0) == 1.0
    assert MT.isodose_dice(zero, one, 90, 1.0) == 0.0


def test_dice_symmetric_bounded_and_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a, b = _random_volume(rng), _random_volume(rng)
        for level in MT.ISODOSE_LEVELS:
            d1 = MT.isodose_dice(a, b, level, 1.0)
            d2 = MT.isodose_dice(b, a, level, 1.0)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0
            assert abs(d1 - dice_loops(a, b, level / 100.0)) < 1e-12


# -- evaluate -------------------------------------------------------------------------------


def _case(rng):
    gt = _random_volume(rng, (8, 8, 4)) * 80.0
    ptv = np.zeros(gt.shape, dtype=bool)
    ptv[2:6, 2:6, 1:3] = True
    gt[ptv] += 40.0  # make the target the hottest structure
    body = np.zeros(gt.shape, dtype=bool)
    body[1:7, 1:7, :] = True
    return gt, ptv, body


def test_evaluate_identity():
    rng = np.random.default_rng(10)
    gt, ptv, body = _case(rng)
    report = MT.evaluate(gt, gt, ptv, body)
    assert report.mse == 0.0
    assert report.dvh_error == {"ptv": 0.0, "body": 0.0}
    assert report.d95 == 1.0
    assert all(v == 1.0 for v in report.isodose_dice.values())
    assert report.dice_mean == 1.0


def test_evaluate_gt_normalized_to_own_d95():
    rng = np.random.default_rng(11)
    gt, ptv, body = _case(rng)
    report = MT.evaluate(gt * 0.7 + 3.0, gt, ptv, body)
    # normalization reference is the raw ground-truth target D95
    assert abs(report.d95_reference - MT.d_number(gt, ptv, 95)) < 1e-12


def test_evaluate_scale_invariance():
    rng = np.random.default_rng(12)
    gt, ptv, body = _case(rng)
    den = gt + rng.normal(0, 2.0, gt.shape)
    r1 = MT.evaluate(den, gt, ptv, body)
    r2 = MT.evaluate(den * 3.0, gt * 3.0, ptv, body)
    assert abs(r1.d95 - r2.d95) < 1e-12
    assert abs(r1.dvh_error["ptv"] - r2.dvh_error["ptv"]) < 1e-12
    assert abs(r1.dice_mean - r2.dice_mean) < 1e-12


def test_evaluate_degenerate_gt_rejected():
    gt = np.zeros((4, 4, 2))
    ptv = np.ones(gt.shape, dtype=bool)
    with pytest.raises(ContractError):
        MT.evaluate(gt, gt, ptv, ptv)


def test_summary_table_shape():
    rng = np.random.default_rng(13)
    gt, ptv, body = _case(rng)
    reports = [MT.evaluate(gt + rng.normal(0, 1.0, gt.shape), gt, ptv, body) for _ in range(3)]
    table = MT.summary_table({"noisy": reports})
    lines = table.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("source")


def test_metrics_stable_across_realizations():
    # fifteen independent noise draws: per-metric spread stays well below the mean
    from mcdenoise import phantom as P

    spec = P.default_spec((24, 24, 12), seed=40)
    clean = P.generate_clean(spec)
    ptv, body = P.ptv_mask(spec), P.body_mask(spec)
    reports = [
        MT.evaluate(P.add_quantum_noise(clean, 200, seed=s).values, clean, ptv, body)
        for s in range(15)
    ]
    for column in ("mse", "dvh_error_ptv", "d95", "dice_mean"):
        values = np.array([r.as_dict()[column] for r in reports])
        assert values.std() < 0.25 * abs(values.mean()), column
