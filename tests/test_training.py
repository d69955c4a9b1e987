from dataclasses import asdict

import numpy as np
import pytest

from mcdenoise import training as TR
from mcdenoise import volio
from mcdenoise.errors import ConfigError, ContractError
from mcdenoise.model import ScaledConfig, build_proposed, forward, infer, load_checkpoint
from mcdenoise.phantom import DoseVolume, NoisePair
from mcdenoise.tensor import Tensor, backward, zero_grads

from helpers import check_gradients


def _pair(rng, extents=(16, 16, 8), scale=80.0):
    clean = rng.uniform(0.0, 1.0, extents) * scale
    a = clean + rng.normal(0, 4.0, extents)
    b = clean + rng.normal(0, 4.0, extents)
    return NoisePair(DoseVolume(a), DoseVolume(b), "case")


# -- loss --------------------------------------------------------------------------


def test_n2n_loss_identity_and_constant():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 1, 4, 4, 2)))
    assert TR.n2n_loss(x, Tensor(x.data.copy())).item() == 0.0
    shifted = Tensor(x.data + 0.5)
    assert abs(TR.n2n_loss(x, shifted).item() - 0.25) < 1e-12


def test_n2n_loss_matches_direct_sum():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 3, 4))
    direct = float(np.sum((a - b) ** 2) / a.size)
    assert abs(TR.n2n_loss(Tensor(a), Tensor(b)).item() - direct) < 1e-12
    with pytest.raises(ContractError):
        TR.n2n_loss(Tensor(a), Tensor(b[:1]))


def test_n2n_loss_gradient():
    rng = np.random.default_rng(2)
    pred = Tensor(rng.normal(size=(1, 1, 3, 3, 2)), requires_grad=True)
    target = Tensor(rng.normal(size=(1, 1, 3, 3, 2)))
    check_gradients(lambda: TR.n2n_loss(pred, target), [pred])


# -- adam ---------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    cfg = TR.TrainConfig(lr=1e-3)
    for g in (0.5, -2.0, 1e-4):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad[...] = g
        state = TR.AdamState([p])
        TR.adam_step([p], state, cfg)
        step = abs(1.0 - p.data[0])
        assert 0.99 * cfg.lr <= step <= cfg.lr


def test_adam_zero_gradient_no_motion():
    cfg = TR.TrainConfig()
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    state = TR.AdamState([p])
    for _ in range(5):
        p.grad[...] = 0.0
        TR.adam_step([p], state, cfg)
    assert np.array_equal(p.data, [3.0, -1.0])


def test_adam_quadratic_bowl_monotone():
    cfg = TR.TrainConfig()  # default lr keeps the iterate far from overshoot
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = TR.AdamState([p])
    values = [abs(p.data[0])]
    for _ in range(100):
        zero_grads([p])
        backward(p.square().sum())
        TR.adam_step([p], state, cfg)
        values.append(abs(p.data[0]))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adam_shape_mismatch():
    cfg = TR.TrainConfig()
    p = Tensor(np.zeros(3), requires_grad=True)
    state = TR.AdamState([p])
    p.grad = np.zeros(2)
    with pytest.raises(ContractError):
        TR.adam_step([p], state, cfg)


# -- preprocess ------------------------------------------------------------------------


def test_preprocess_noop_geometry():
    # a crop of the padded extents leaves one window: the whole padded volume
    rng = np.random.default_rng(3)
    pair = _pair(rng)
    pads = TR.effective_pads((16, 16, 8))
    cfg = TR.TrainConfig(crop_extents=(24, 24, 12))
    x, t = TR.preprocess(pair, cfg, np.random.default_rng(0))
    want = [np.pad(v.values / 80.0, [(p, p) for p in pads]) for v in (pair.input, pair.target)]
    got = [x.data[0, 0], t.data[0, 0]]
    assert any(all(np.allclose(g, w) for g, w in zip(got, order)) for order in (want, want[::-1]))


def test_preprocess_shared_window():
    # crop a coordinate ramp: identical windows give identical crops
    ramp = np.arange(16 * 16 * 8, dtype=np.float64).reshape(16, 16, 8)
    pair = NoisePair(DoseVolume(ramp.copy()), DoseVolume(ramp.copy()), "ramp")
    cfg = TR.TrainConfig(crop_extents=(16, 16, 8))
    for seed in range(5):
        x, t = TR.preprocess(pair, cfg, np.random.default_rng(seed))
        assert np.array_equal(x.data, t.data)


def test_preprocess_effective_pads():
    assert TR.effective_pads((256, 256, 64)) == (16, 16, 16)
    assert TR.effective_pads((32, 32, 16)) == (8, 8, 4)


def test_preprocess_swap_frequency():
    rng_data = np.random.default_rng(4)
    pair = _pair(rng_data)
    cfg = TR.TrainConfig(crop_extents=(24, 24, 12))  # the one window
    rng = np.random.default_rng(99)
    swapped = 0
    n = 10_000
    marker = pair.input.values[0, 0, 0] / cfg.normalization_dose
    pads = TR.effective_pads((16, 16, 8))
    for _ in range(n):
        x, _ = TR.preprocess(pair, cfg, rng)
        if x.data[(0, 0) + pads] != marker:
            swapped += 1
    assert abs(swapped / n - 0.5) <= 0.02


def test_preprocess_crop_too_large():
    rng = np.random.default_rng(5)
    pair = _pair(rng, extents=(8, 8, 8))
    cfg = TR.TrainConfig(crop_extents=(16, 16, 8))  # the padded volume is 12x12x12
    with pytest.raises(ConfigError):
        TR.preprocess(pair, cfg, np.random.default_rng(0))


# -- config file -----------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TR.TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TR.TrainConfig(crop_extents=(0, 4, 4))
    for seed in (-1, 2**64):  # checkpoints store the seed as u64
        with pytest.raises(ConfigError):
            TR.TrainConfig(seed=seed)


def test_train_config_file_roundtrip(tmp_path):
    cfg = TR.TrainConfig(lr=3e-4, iterations=123, crop_extents=(8, 8, 8), seed=5)
    path = tmp_path / "train.cfg"
    volio.write_kv(path, asdict(cfg))
    assert TR.parse_train_config(path) == cfg


def test_train_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lr=1e-4\nmomentum=0.9\n")
    with pytest.raises(ConfigError):
        TR.parse_train_config(path)


# -- training loop -----------------------------------------------------------------------


def _desk_net(seed=0):
    return build_proposed(ScaledConfig(4, 2, (16, 16, 8)), seed=seed)


def _desk_cfg(**kw):
    base = dict(crop_extents=(16, 16, 8), iterations=100, seed=1)
    base.update(kw)
    return TR.TrainConfig(**base)


def test_train_zero_iterations_is_noop(tmp_path):
    rng = np.random.default_rng(6)
    net = _desk_net()
    before = [t.data.copy() for t in net.param_tensors()]
    log = TR.train(net, [_pair(rng)], _desk_cfg(iterations=0), log_path=tmp_path / "l.csv")
    assert log == []
    assert (tmp_path / "l.csv").read_text() == "step,loss\n"
    for t, b in zip(net.param_tensors(), before):
        assert np.array_equal(t.data, b)


def test_train_empty_dataset_rejected():
    with pytest.raises(ContractError):
        TR.train(_desk_net(), [], _desk_cfg())


def test_train_deterministic_checkpoints(tmp_path):
    rng = np.random.default_rng(7)
    pairs = [_pair(rng) for _ in range(2)]

    def run(out):
        net = _desk_net(seed=3)
        TR.train(net, pairs, _desk_cfg(), log_path=out / "loss.csv",
                 checkpoint_path=out / "net.ddpk")

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run(a)
    run(b)
    assert (a / "net.ddpk").read_bytes() == (b / "net.ddpk").read_bytes()
    assert (a / "loss.csv").read_text() == (b / "loss.csv").read_text()


def test_train_loss_log_cadence_and_finiteness(tmp_path):
    rng = np.random.default_rng(8)
    log = TR.train(_desk_net(seed=2), [_pair(rng)], _desk_cfg(iterations=200))
    assert [step for step, _ in log] == [50, 100, 150, 200]
    assert all(np.isfinite(v) for _, v in log)


def test_train_swapped_pair_still_steps():
    rng = np.random.default_rng(9)
    pair = _pair(rng)
    swapped = NoisePair(pair.target, pair.input, pair.clean_id)
    log = TR.train(_desk_net(seed=4), [swapped], _desk_cfg(iterations=50))
    assert np.isfinite(log[-1][1])


def test_train_loss_trend_downward():
    rng = np.random.default_rng(10)
    pairs = [_pair(rng) for _ in range(4)]
    log = TR.train(_desk_net(seed=5), pairs, _desk_cfg(iterations=600, lr=1e-3))
    losses = [v for _, v in log]
    head = np.median(losses[: max(1, len(losses) // 10)])
    tail = np.median(losses[-max(1, len(losses) // 10) :])
    assert tail < head


def test_checkpoint_reload_matches_trained_net(tmp_path):
    rng = np.random.default_rng(11)
    net = _desk_net(seed=6)
    TR.train(net, [_pair(rng)], _desk_cfg(iterations=50), checkpoint_path=tmp_path / "n.ddpk")
    loaded = load_checkpoint(tmp_path / "n.ddpk")
    x = Tensor(rng.normal(size=(1, 1, 16, 16, 8)))
    assert np.array_equal(forward(net, x).data, forward(loaded, x).data)


def test_denoise_volume_roundtrip_scale():
    net = _desk_net(seed=7)
    for _, _, t in net.parameters():
        t.data[...] = 0.0
    out = TR.denoise_volume(net, np.zeros((16, 16, 8)))
    assert np.all(out == 0.0)


def test_denoise_volume_clamps_and_scales_infer_output_in_place():
    net = _desk_net(seed=8)
    values = np.random.default_rng(14).uniform(0.0, 80.0, size=(16, 16, 8))
    want = np.clip(infer(net, values[None, None] / 80.0)[0, 0], 0.0, None) * 80.0
    got = TR.denoise_volume(net, values)
    assert got.tobytes() == want.tobytes()
    assert np.any(want == 0.0) and np.all(got >= 0.0)  # the clamp ran


# -- equivalence probe ----------------------------------------------------------------------


def test_probe_matches_population_optimum():
    report = TR.n2n_equivalence_probe(1_000_000, seed=0)
    a_star, b_star = TR.probe_population_optimum()
    assert abs(report.slope_clean - a_star) < 5e-3
    assert abs(report.slope_noisy - a_star) < 5e-3
    assert abs(report.intercept_clean - b_star) < 5e-3


def test_probe_equivalence_unbiased():
    report = TR.n2n_equivalence_probe(1_000_000, seed=1)
    assert report.slope_gap < 5e-3
    assert abs(report.intercept_shift) < 5e-3


def test_probe_biased_noise_shifts_intercept():
    bias = 0.5
    report = TR.n2n_equivalence_probe(1_000_000, seed=2, noise_mean=bias)
    assert abs(report.intercept_shift - bias) < 5e-3
    assert report.slope_gap < 5e-3
