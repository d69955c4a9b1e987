import numpy as np
import pytest

from mcdenoise import training as TR
from mcdenoise.errors import ConfigError, ContractError
from mcdenoise.model import ScaledConfig, build_proposed, forward, infer, load_checkpoint
from mcdenoise.phantom import DoseVolume, NoisePair
from mcdenoise.tensor import Tensor, _topo_order, backward, zero_grads

from helpers import INFER_TOL, check_gradients, infer_error


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
    target = Tensor(rng.normal(size=(1, 1, 3, 3, 2)), requires_grad=True)
    check_gradients(lambda: TR.n2n_loss(pred, target), [pred, target])


@pytest.mark.parametrize("extents", [(32, 32, 16), (64, 64, 32)])  # desk crop, held-out volume
def test_n2n_loss_is_the_mean_of_squares_bit_for_bit(extents):
    rng = np.random.default_rng(3)
    p, t = rng.normal(size=(2, 1, 1) + extents)
    pred = Tensor(p.copy(), requires_grad=True)
    target = Tensor(t.copy(), requires_grad=True)
    loss = TR.n2n_loss(pred, target)
    assert np.array_equal(loss.data, [np.square(p - t).mean()])
    backward(loss)
    want = (2.0 * (p - t)) * (1.0 / p.size)
    assert np.array_equal(pred.grad, want)
    assert np.array_equal(target.grad, -want)


def test_n2n_loss_adds_one_tape_node():
    rng = np.random.default_rng(4)
    pred = Tensor(rng.normal(size=(1, 1, 4, 4, 2)), requires_grad=True)
    loss = TR.n2n_loss(pred, Tensor(rng.normal(size=(1, 1, 4, 4, 2))))
    assert [node for node in _topo_order(loss) if not node.is_leaf()] == [loss]


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
        backward(TR.n2n_loss(p, Tensor(np.zeros(1))))  # p squared
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


def test_preprocess_crops_as_pad_then_crop():
    # the window is computed alone, bit for bit the crop of the converted and padded
    # volumes; the draws include windows over the pad on every side and the rng
    # stream is the one the formula draws from
    for extents, crop in [((32, 32, 16), (32, 32, 16)), ((64, 64, 32), (32, 32, 16)),
                          ((16, 16, 8), (4, 4, 2))]:
        rng = np.random.default_rng(31)
        pair = _pair(rng, extents=extents)
        cfg = TR.TrainConfig(crop_extents=crop)
        pads, padded = TR.check_crop(extents, cfg)
        got_rng, want_rng = np.random.default_rng(32), np.random.default_rng(32)
        over_pad = 0
        for _ in range(60):
            x, t = TR.preprocess(pair, cfg, got_rng)
            offsets = [int(want_rng.integers(0, pe - c + 1)) for pe, c in zip(padded, crop)]
            window = tuple(slice(o, o + c) for o, c in zip(offsets, crop))
            want = [np.pad(TR.to_network_units(v.values), [(p, p) for p in pads])[window]
                    for v in (pair.input, pair.target)]
            if want_rng.random() < 0.5:
                want.reverse()
            assert x.data[0, 0].tobytes() == want[0].tobytes()
            assert t.data[0, 0].tobytes() == want[1].tobytes()
            over_pad += any(o < p or o + c > p + n for o, c, p, n in zip(offsets, crop, pads, extents))
        assert over_pad > 0


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
    marker = TR.to_network_units(pair.input.values[0, 0, 0])
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


# -- config ----------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TR.TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TR.TrainConfig(crop_extents=(0, 4, 4))
    for seed in (-1, 2**64):  # checkpoints store the seed as u64
        with pytest.raises(ConfigError):
            TR.TrainConfig(seed=seed)


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
    x = values[None, None] * (1 / 80.0)
    exact = forward(net, Tensor(x)).data[0, 0]  # float64; infer computes in float32
    assert infer_error(infer(net, x)[0, 0], exact) <= INFER_TOL
    want = np.clip(infer(net, x)[0, 0], 0.0, None) * 80.0
    got = TR.denoise_volume(net, values)
    assert got.tobytes() == want.tobytes()
    assert np.any(want == 0.0) and np.all(got >= 0.0)  # the clamp ran
    # the clamp moves no value further, so the Gy result keeps infer's bound
    bound = INFER_TOL * 80.0 * np.max(np.abs(exact))
    assert np.max(np.abs(got - np.clip(exact, 0.0, None) * 80.0)) <= bound


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
