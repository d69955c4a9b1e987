import gc
import struct
import weakref
from collections import Counter

import numpy as np
import pytest

from mcdenoise import kernels as K
from mcdenoise import model as M
from mcdenoise import perf, training
from mcdenoise.errors import ConfigError, ContractError, FormatError, NumericError, ShapeError
from mcdenoise.tensor import FRESH, Tensor, Untaped, backward, relu

from helpers import INFER_TOL, guard_build_network, infer_error

DESK = M.ScaledConfig(8, 3, (32, 32, 16))


def test_divisibility_validation():
    with pytest.raises(ConfigError):
        M.build_proposed(M.ScaledConfig(8, 3, (33, 32, 16)))
    with pytest.raises(ConfigError):
        M.build_proposed(M.ScaledConfig(8, 4, (16, 16, 16)))  # needs 32
    with pytest.raises(ConfigError):
        M.build_unet_baseline(M.ScaledConfig(8, 4, (8, 8, 8)))  # needs 16
    M.build_unet_baseline(M.ScaledConfig(8, 3, (8, 8, 8)))  # exactly divisible is fine


def test_proposed_shape_preserving():
    net = M.build_proposed(DESK, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 32, 32, 16)))
    assert M.forward(net, x).shape == x.shape


def test_unet_shape_preserving():
    net = M.build_unet_baseline(M.ScaledConfig(8, 3, (16, 16, 8)), seed=0)
    x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 16, 16, 8)))
    assert M.forward(net, x).shape == x.shape


def test_forward_contract_errors():
    net = M.build_proposed(DESK, seed=0)
    with pytest.raises(ContractError):
        M.forward(net, Tensor(np.zeros((1, 2, 32, 32, 16))))
    with pytest.raises(Exception):
        M.forward(net, Tensor(np.zeros((1, 1, 30, 32, 16))))


def test_forward_flags_non_finite_with_layer_index():
    net = M.build_proposed(DESK, seed=0)
    net.layers[1].spec.weights.data[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(NumericError, match="layer"):
        M.forward(net, Tensor(np.ones((1, 1, 32, 32, 16))))


def test_zero_weight_network_maps_to_zero():
    net = M.build_proposed(DESK, seed=3)
    for _, _, t in net.parameters():
        t.data[...] = 0.0
    x = Tensor(np.random.default_rng(2).normal(size=(1, 1, 32, 32, 16)))
    assert np.all(M.forward(net, x).data == 0.0)


def test_forward_deterministic_across_builds():
    x = Tensor(np.random.default_rng(4).normal(size=(1, 1, 32, 32, 16)))
    a = M.forward(M.build_proposed(DESK, seed=11), x).data
    b = M.forward(M.build_proposed(DESK, seed=11), x).data
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "build, extents", [(M.build_proposed, (32, 32, 16)), (M.build_unet_baseline, (16, 16, 8))]
)
def test_layer_table_shape_rule_matches_applied_shape(build, extents):
    net = build(M.ScaledConfig(8, 3, extents), seed=0)
    x = Tensor(np.random.default_rng(8).normal(size=(1, 1) + extents))
    values = M.walk(net, x, lambda layer_id, layer, rule, xs: rule.apply(layer, xs))
    shapes = M.walk(net, x.shape, lambda layer_id, layer, rule, ss: rule.shape(layer, ss))
    assert len(values) == len(shapes) == len(net.layers)
    for layer_id, (value, shape) in enumerate(zip(values, shapes)):
        assert value.shape == shape, (layer_id, net.layers[layer_id].kind)


def test_forward_looks_kernels_up_at_call_time(monkeypatch):
    # a tracer replaces these module attributes; forward and infer must see the replacements
    kinds = {
        "voxel_unshuffle": "unshuffle",
        "voxel_shuffle": "shuffle",
        "conv3d": "conv",
        "instance_norm": "inorm",
        "upsample_trilinear": "upsample",
        "concat": "concat",
    }
    calls = Counter()
    for name, kind in kinds.items():
        def counted(*args, _fn=getattr(M, name), _kind=kind, **kwargs):
            calls[_kind + "+relu" if kwargs.get("relu") else _kind] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(M, name, counted)
    # every norm layer runs its ReLU in its own kernel (relu=True)
    called = set()
    for net in (M.build_proposed(DESK, seed=0), M.build_unet_baseline(DESK, seed=0)):
        x = np.ones((1, 1) + DESK.input_extents)
        kinds_run = Counter("inorm+relu" if layer.kind == "inorm" else layer.kind
                            for layer in net.layers)
        for run, dtype in ((lambda: M.forward(net, Tensor(x)), np.float64),
                           (lambda: M.infer(net, x), np.float32)):
            calls.clear()
            run()
            # a conv run coarse-first skips its upsample
            skipped = len(_coarse_first_convs(net, x.shape, dtype))
            assert calls == kinds_run - Counter(upsample=skipped)
            called |= set(calls)
    assert called == set(M.LAYER_RULES) - {"inorm"} | {"inorm+relu"}


# -- fused norm and relu, and what the tape keeps ----------------------------------------

FUSION_NETS = [
    (M.build_proposed, DESK),
    (M.build_unet_baseline, M.ScaledConfig(8, 3, (16, 16, 8))),
    (M.build_proposed, M.ScaledConfig(8, 3, (64, 64, 32))),  # pyramid convs coarse-first
]


@pytest.mark.parametrize("build, cfg", FUSION_NETS)
def test_fused_norm_relu_is_bit_identical(build, cfg, monkeypatch):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(1, 1) + cfg.input_extents)
    target = Tensor(rng.normal(size=x.shape))
    norms = Counter()
    real_norm = M.instance_norm
    monkeypatch.setattr(M, "instance_norm",
                        lambda *a, **kw: norms.update([kw.get("relu", False)]) or real_norm(*a, **kw))

    def run():
        net = build(cfg, seed=3)
        xt = Tensor(x, requires_grad=True)
        out = M.forward(net, xt)
        backward(training.n2n_loss(out, target))
        return [out.data, M.infer(net, x), xt.grad] + [t.grad for t in net.param_tensors()]

    fused = run()
    n_norms = sum(layer.kind == "inorm" for layer in build(cfg).layers)
    assert norms == {True: 2 * n_norms}
    # the reference: each norm layer's ReLU run as its own op after the norm
    rule = M.LAYER_RULES["inorm"]
    monkeypatch.setitem(M.LAYER_RULES, "inorm", rule._replace(
        apply=lambda layer, xs, buffers=FRESH: relu(
            M.instance_norm(xs[0], layer.scale, layer.shift, buffers=buffers), buffers)))
    norms.clear()
    plain = run()
    assert norms == {False: 2 * n_norms}
    assert len(fused) == len(plain)
    for got, want in zip(fused, plain):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _held(value, seen):
    """The arrays and tensors a backward closure can reach: through nested
    closures, containers and object attributes, stopping at tensors."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, (np.ndarray, Tensor)):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _held(v, seen)
    elif callable(value) and getattr(value, "__closure__", None):
        for cell in value.__closure__:
            yield from _held(cell.cell_contents, seen)
    elif hasattr(value, "__dict__") and not callable(value):
        for v in vars(value).values():
            yield from _held(v, seen)


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("build, cfg", [FUSION_NETS[0], FUSION_NETS[2]])
def test_backward_closures_keep_only_values_and_per_channel_statistics(build, cfg):
    # the tape holds no temporary of a kernel: a closure reads its node's value,
    # its parents' values (parameters among them) and per-channel arrays
    net = build(cfg, seed=1)
    x = Tensor(np.random.default_rng(2).normal(size=(1, 1) + cfg.input_extents), requires_grad=True)
    out = M.forward(net, x)
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    # one node per layer but the upsamples that coarse-first convs skip
    assert len(nodes) == len(net.layers) - len(_coarse_first_convs(net, x.shape))
    for node in nodes:
        values = {id(_root(t.data)) for t in (node,) + node._parents}
        per_channel = node.shape[0] * node.shape[1]
        for v in _held(node._backward, set()):
            if isinstance(v, Tensor):
                assert v is node or any(v is p for p in node._parents)
            else:
                assert id(_root(v)) in values or v.size <= per_channel, (node, v.shape)


# -- tape-free inference -----------------------------------------------------------------


@pytest.mark.parametrize(
    "build, extents",
    [
        (M.build_proposed, (32, 32, 16)),
        (M.build_proposed, (64, 64, 32)),
        (M.build_unet_baseline, (16, 16, 8)),
    ],
)
def test_infer_is_forward_bit_for_bit(build, extents):
    # float32 infer is within INFER_TOL of float64 forward, and a warm call
    # (every buffer planned) equals the cold one bit for bit
    net = build(M.ScaledConfig(8, 3, extents), seed=2)
    x = np.random.default_rng(9).normal(size=(1, 1) + extents)
    want = M.forward(net, Tensor(x)).data
    cold = M.infer(net, x)
    assert cold.dtype == np.float64 and infer_error(cold, want) <= INFER_TOL
    assert np.array_equal(M.infer(net, x), cold)


def _coarse_first_convs(net, shape, dtype=np.float64):
    """(upsample id, conv id, upsample input shape) of every conv run coarse-first in ``dtype``:
    float64 is the taped ``forward``'s schedule, float32 ``infer``'s."""
    steps = M._schedule(net, shape, dtype)
    found = []
    for conv, layer in enumerate(net.layers):
        if layer.kind == "conv" and steps[conv].run is M._coarse_first_apply:
            up = layer.inputs[0]
            src = net.layers[up].inputs[0]
            found.append((up, conv, shape if src == -1 else steps[src].shape))
    return found


def _force_path(monkeypatch, name):
    """Make ``model._schedule`` run every conv it can on path ``name``, whatever the cost model says."""

    def forced(spec, shape, dtype, upsampled=False):
        paths = K._upsampled_paths(spec, shape, np.dtype(dtype).itemsize) if upsampled else []
        return next((p for p in paths if p.name == name), K.conv_path(spec, shape, dtype))

    monkeypatch.setattr(M, "conv_path", forced)


def test_infer_is_forward_bit_for_bit_through_kn2row(monkeypatch):
    # base 40, two modules: both pyramid levels run coarse-first (kn2row below the
    # upsample), the top one mapping 80 channels to 8 at 8x8x4. The cost model keeps
    # both per tap at this small size, so the path is forced.
    _force_path(monkeypatch, K.COARSE_FIRST)
    net = M.build_proposed(M.ScaledConfig(40, 2, (16, 16, 8)), seed=7)
    x = np.random.default_rng(13).normal(size=(1, 1, 16, 16, 8))
    coarse = _coarse_first_convs(net, x.shape)
    assert [(net.layers[c].spec.c_in, net.layers[c].spec.c_out, s[2:]) for _, c, s in coarse] == [
        (80, 40, (2, 2, 1)), (80, 8, (4, 4, 2))]
    calls = Counter()
    real = M.upsample_trilinear
    monkeypatch.setattr(M, "upsample_trilinear", lambda *a: calls.update(["up"]) or real(*a))
    want = M.forward(net, Tensor(x)).data
    assert calls["up"] == 0  # both upsamples were skipped
    cold = M.infer(net, x)
    assert infer_error(cold, want) <= INFER_TOL
    scratch = net.plan.scratch.region
    arena = (scratch.ctypes.data, scratch.nbytes)
    assert np.array_equal(M.infer(net, x), cold)
    assert (net.plan.scratch.region.ctypes.data, net.plan.scratch.region.nbytes) == arena
    _force_path(monkeypatch, K.PER_TAP)
    net.schedule.clear()
    direct = M.forward(net, Tensor(x)).data
    assert calls["up"] == 2
    assert np.max(np.abs(want - direct)) <= 1e-14 * np.max(np.abs(direct))


@pytest.mark.parametrize("name, cfg", [
    (M.UNET_BASELINE, M.ScaledConfig(16, 1, (16, 16, 8))),  # one upsample: head, 16 -> 1 by 3x3x3
    (M.PROPOSED, M.ScaledConfig(40, 2, (16, 16, 8))),  # both pyramid convs, 80 -> 40 and 80 -> 8
])
def test_kn2row_never_grows_infer_scratch(name, cfg, monkeypatch):
    # coarse-first never needs more infer scratch than the upsample and conv it replaces;
    # the cost model keeps these small convs per tap, so coarse-first is forced
    _force_path(monkeypatch, K.COARSE_FIRST)
    x = np.random.default_rng(15).normal(size=(1, 1) + cfg.input_extents)
    net = M.build_network(name, cfg, seed=9)
    coarse = _coarse_first_convs(net, x.shape)
    assert len(coarse) == {M.UNET_BASELINE: 1, M.PROPOSED: 2}[name]

    def scratch_need(run):
        scratch = M._Scratch()
        run(Untaped(scratch=scratch))
        return scratch.need

    for _, conv, shape in coarse:
        spec = net.layers[conv].spec
        p = Tensor(np.random.default_rng(16).normal(size=shape))
        up = K.upsample_trilinear(p)
        direct = max(scratch_need(lambda b: K.upsample_trilinear(p, b)),
                     scratch_need(lambda b: K.conv3d(up, spec, b)))
        assert scratch_need(lambda b: K.conv3d(p, spec, b, upsampled=True)) <= direct

    got = M.infer(net, x)
    arena = (net.plan.region.nbytes, net.plan.scratch.region.nbytes)
    _force_path(monkeypatch, K.PER_TAP)
    net.plan = None
    net.schedule.clear()
    want = M.infer(net, x)
    assert arena[0] < net.plan.region.nbytes  # the skipped upsamples' outputs take no arena
    assert arena[1] <= net.plan.scratch.region.nbytes
    exact = M.forward(net, Tensor(x)).data  # float64, without coarse-first
    assert max(infer_error(got, exact), infer_error(want, exact)) <= INFER_TOL


# (c_in, c_out, coarse extents) of every conv ``kernels.conv_path`` runs coarse-first,
# per net and dtype: float64 is the taped forward's schedule, float32 infer's. Each
# pick is the faster path of the BENCH_22.json sweep, or within 10% of it. The desk
# net keeps every conv per tap at its training crop, so training does not move; at
# the held-out extents infer runs its 16 -> 8 pyramid conv coarse-first.
F64, F32 = np.dtype(np.float64), np.dtype(np.float32)
_COARSE_FIRST_PINS = [
    (M.PROPOSED, M.ScaledConfig(8, 3, (32, 32, 16)), {F64: [], F32: []}),  # desk training crop
    (M.PROPOSED, M.ScaledConfig(8, 3, (64, 64, 32)),  # desk held-out volume
     {F64: [(32, 8, (8, 8, 4)), (16, 8, (16, 16, 8))], F32: [(16, 8, (16, 16, 8))]}),
    (M.UNET_BASELINE, M.ScaledConfig(8, 3, (32, 32, 16)),
     {F64: [(32, 8, (8, 8, 4)), (16, 1, (16, 16, 8))], F32: [(16, 1, (16, 16, 8))]}),
    (M.UNET_BASELINE, M.ScaledConfig(8, 3, (64, 64, 32)),
     {F64: [(32, 16, (8, 8, 4)), (32, 8, (16, 16, 8)), (16, 1, (32, 32, 16))],
      F32: [(32, 8, (16, 16, 8)), (16, 1, (32, 32, 16))]}),
    (M.PROPOSED, M.ScaledConfig(64, 5, (64, 64, 64)),  # paper width
     dict.fromkeys((F64, F32), [(512, 512, (1, 1, 1)), (1024, 256, (2, 2, 2)),
                                (512, 128, (4, 4, 4)), (256, 64, (8, 8, 8)), (128, 8, (16, 16, 16))])),
    (M.UNET_BASELINE, M.ScaledConfig(16, 4, (64, 64, 64)),
     dict.fromkeys((F64, F32), [(128, 64, (4, 4, 4)), (128, 32, (8, 8, 8)), (64, 16, (16, 16, 16)),
                                (32, 1, (32, 32, 32))])),
    (M.UNET_BASELINE, M.ScaledConfig(64, 6, (64, 64, 64)),
     dict.fromkeys((F64, F32), [(512, 512, (1, 1, 1)), (1024, 512, (2, 2, 2)),
                                (1024, 256, (4, 4, 4)), (512, 128, (8, 8, 8)), (256, 64, (16, 16, 16)),
                                (128, 1, (32, 32, 32))])),
]


@pytest.mark.parametrize("name, cfg, pinned", _COARSE_FIRST_PINS)
def test_coarse_first_rule_pins(name, cfg, pinned):
    net = M.build_network(name, cfg, seed=0)
    for dtype, want in pinned.items():
        coarse = _coarse_first_convs(net, (1, 1) + cfg.input_extents, dtype)
        assert [(net.layers[c].spec.c_in, net.layers[c].spec.c_out, s[2:])
                for _, c, s in coarse] == want, dtype
        # a skipped upsample feeds only its conv
        for up, conv, _ in coarse:
            assert net.layers[up].kind == "upsample"
            assert [i for i, layer in enumerate(net.layers) if up in layer.inputs] == [conv]


def test_infer_runs_the_held_out_pyramid_coarse_first_within_tolerance(monkeypatch):
    # at 64x64x32 float32 infer runs the 16 -> 8 pyramid conv coarse-first; it stays
    # within INFER_TOL of the float64 forward with every conv per tap
    net = M.build_proposed(M.ScaledConfig(8, 3, (64, 64, 32)), seed=2)
    x = np.random.default_rng(21).uniform(size=(1, 1, 64, 64, 32))
    coarse = {net.layers[c].spec.c_in: s[2:] for _, c, s in _coarse_first_convs(net, x.shape, F32)}
    assert coarse[16] == (16, 16, 8)
    got = M.infer(net, x)
    _force_path(monkeypatch, K.PER_TAP)
    assert _coarse_first_convs(net, x.shape) == []
    assert infer_error(got, M.forward(net, Tensor(x)).data) <= INFER_TOL


def test_infer_replans_on_a_new_shape():
    net = M.build_proposed(DESK, seed=3)
    rng = np.random.default_rng(10)
    for extents in [(32, 32, 16), (16, 32, 16), (32, 32, 16)]:
        x = rng.normal(size=(1, 1) + extents)
        assert infer_error(M.infer(net, x), M.forward(net, Tensor(x)).data) <= INFER_TOL
        assert net.plan.shape == x.shape


def test_schedule_is_walked_once_per_input_shape(monkeypatch):
    # once per (shape, dtype): the taped forward (float64) and infer (float32) may
    # run a conv on different paths, so each keeps its own schedule, and alternating
    # them at one shape, as a training run that evaluates does, walks neither again
    walks = []
    schedule = M._schedule
    monkeypatch.setattr(M, "_schedule", lambda net, shape, dtype: walks.append(
        (shape, np.dtype(dtype).name)) or schedule(net, shape, dtype))
    net = M.build_proposed(DESK, seed=8)
    rng = np.random.default_rng(14)
    for extents in [(32, 32, 16)] * 3 + [(16, 32, 16)] * 2:
        x = rng.normal(size=(1, 1) + extents)
        M.forward(net, Tensor(x))
        M.infer(net, x)
    assert walks == [((1, 1, 32, 32, 16), "float64"), ((1, 1, 32, 32, 16), "float32"),
                     ((1, 1, 16, 32, 16), "float64"), ((1, 1, 16, 32, 16), "float32")]


def test_infer_reuses_its_arena():
    net = M.build_proposed(DESK, seed=4)
    x = np.random.default_rng(11).normal(size=(1, 1, 32, 32, 16))
    M.infer(net, x)
    plan = net.plan
    arena = [(r.ctypes.data, r.nbytes) for r in (plan.region, plan.scratch.region)]
    for _ in range(2):
        M.infer(net, x)
        assert net.plan is plan
        assert [(r.ctypes.data, r.nbytes) for r in (plan.region, plan.scratch.region)] == arena


def test_infer_plan_shares_memory_only_between_disjoint_lifetimes():
    # the first net runs a pyramid conv coarse-first in float32, so an upsample is skipped too
    for cfg in (M.ScaledConfig(8, 3, (64, 64, 32)), M.ScaledConfig(40, 2, (16, 16, 8))):
        net = M.build_proposed(cfg, seed=0)
        shape = (1, 1) + cfg.input_extents
        M.infer(net, np.zeros(shape))
        # every layer output is planned, the last one too: infer returns a float64
        # copy of it, so the caller never holds a view of the arena
        views = [b.out for b in net.plan.buffers]
        # a skipped layer writes nothing and passes its input on, so the layer
        # whose output holds a value lives until the skipped layer's consumers read it
        skipped = {up for up, _, _ in _coarse_first_convs(net, shape, np.float32)}
        assert {i for i, v in enumerate(views) if v.size == 0} == skipped
        owner = []
        for layer_id, layer in enumerate(net.layers):
            src = layer.inputs[0]
            owner.append((-1 if src == -1 else owner[src]) if layer_id in skipped else layer_id)
        last_use = list(range(len(net.layers)))
        for layer_id, layer in enumerate(net.layers):
            for i in layer.inputs:
                if i >= 0 and owner[i] >= 0:
                    last_use[owner[i]] = max(last_use[owner[i]], layer_id)
        planned = [i for i, v in enumerate(views) if v.size]
        for i in planned:
            for j in planned:
                if i < j <= last_use[i]:
                    assert not np.shares_memory(views[i], views[j]), (i, j)
        # the input, cast into its own view, lives until its consumers have read it
        assert net.plan.input.shape == shape and net.plan.input.dtype == np.float32
        input_last = max(i for i, layer in enumerate(net.layers) if -1 in layer.inputs)
        for j in planned:
            assert (j > input_last) or not np.shares_memory(net.plan.input, views[j]), j
        assert net.plan.region.nbytes < sum(v.nbytes for v in views) + net.plan.input.nbytes


def test_infer_outputs_belong_to_the_caller():
    net = M.build_proposed(DESK, seed=5)
    rng = np.random.default_rng(12)
    a_in, b_in = rng.uniform(0, 80, size=(2, 32, 32, 16))
    a = training.denoise_volume(net, a_in)
    a_copy = a.copy()
    b = training.denoise_volume(net, b_in)
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, a_copy)
    x = rng.normal(size=(1, 1, 32, 32, 16))
    first = M.infer(net, x)
    assert not np.shares_memory(first, M.infer(net, x))


def _infer_tracks(net, x, change):
    """infer before and after ``change(net)``: the second within INFER_TOL of the
    float64 forward of the changed weights, and not the first."""
    first = M.infer(net, x)
    change(net)
    second = M.infer(net, x)
    assert infer_error(second, M.forward(net, Tensor(x)).data) <= INFER_TOL
    assert not np.array_equal(first, second)


def _adam_step(net):
    params = net.param_tensors()
    x = Tensor(np.random.default_rng(18).normal(size=(1, 1) + DESK.input_extents))
    backward(training.n2n_loss(M.forward(net, x), Tensor(np.zeros(x.shape))))
    training.adam_step(params, training.AdamState(params), training.TrainConfig(lr=1e-2))


def _write_one_weight(net):
    net.layers[1].spec.weights.data[0, 0, 1, 1, 0] += 0.5


@pytest.mark.parametrize("change", [_adam_step, _write_one_weight])
def test_infer_never_reads_stale_weights(change, tmp_path):
    # the plan's float32 weights are cast from the net's on every call
    x = np.random.default_rng(17).normal(size=(1, 1) + DESK.input_extents)
    _infer_tracks(M.build_proposed(DESK, seed=4), x, change)
    M.save_checkpoint(M.build_proposed(DESK, seed=5), tmp_path / "net.ddpk")
    loaded = M.load_checkpoint(tmp_path / "net.ddpk")
    _infer_tracks(loaded, x, change)


def test_infer_plan_dies_with_the_net():
    net = M.build_proposed(DESK, seed=6)
    M.infer(net, np.zeros((1, 1, 32, 32, 16)))
    plan = weakref.ref(net.plan)
    del net
    gc.collect()
    assert plan() is None


def test_infer_flags_non_finite_as_forward_does():
    net = M.build_proposed(DESK, seed=0)
    net.layers[1].spec.weights.data[0, 0, 0, 0, 0] = np.nan
    x = np.ones((1, 1, 32, 32, 16))
    with pytest.raises(NumericError) as taped:
        M.forward(net, Tensor(x))
    with pytest.raises(NumericError) as planned:
        M.infer(net, x)
    assert str(planned.value) == str(taped.value) == "non-finite values after layer 1 (conv)"


@pytest.mark.parametrize("shape, error", [((1, 2, 32, 32, 16), ContractError),
                                          ((32, 32, 16), ContractError),
                                          ((1, 1, 30, 32, 16), ShapeError)])
def test_infer_rejects_bad_extents_as_forward_does(shape, error):
    net = M.build_proposed(DESK, seed=0)
    with pytest.raises(error) as taped:
        M.forward(net, Tensor(np.zeros(shape)))
    with pytest.raises(error) as planned:
        M.infer(net, np.zeros(shape))
    assert str(planned.value) == str(taped.value)


def test_unknown_layer_kind_is_config_error():
    net = M.build_proposed(DESK, seed=0)
    net.layers[3].kind = "dropout"
    with pytest.raises(ConfigError, match="dropout"):
        M.forward(net, Tensor(np.ones((1, 1, 32, 32, 16))))
    with pytest.raises(ConfigError, match="dropout"):
        perf.count_flops(net, (32, 32, 16))
    with pytest.raises(ConfigError, match="dropout"):
        perf.count_params(net)


# -- structural ledgers ----------------------------------------------------------------


def _hand_ledger_proposed(base, num_down):
    """Layer-by-layer parameter sum, written out independently of the graph."""
    feats = [min(base * 2**m, base * 8) for m in range(num_down)]
    total = 0
    c = 8
    # a conv that feeds an IN has no bias
    for f in feats:  # backbone: axial conv + IN, slice conv + IN
        total += c * f * 9 + 2 * f
        total += f * f * 3 + 2 * f
        c = f
    pc = feats[-1]
    for level in range(num_down - 1, -1, -1):  # pyramid levels, deep to shallow
        q = 8 if level == 0 else feats[level - 1]
        total += pc * q * 9 + 2 * q
        total += q * q * 3 + 2 * q
        pc = 2 * q
    total += pc * 8 * 9 + 8  # head axial conv with bias
    total += 8 * 8 * 3 + 8  # head slice conv with bias
    return total


def _hand_ledger_unet(base, num_down):
    feats = [min(base * 2**m, base * 8) for m in range(num_down)]
    total = 0
    c = 1
    for f in feats:  # conv without bias + IN
        total += c * f * 27 + 2 * f
        c = f
    pc = feats[-1]
    for level in range(num_down - 2, -1, -1):
        q = feats[level]
        total += pc * q * 27 + 2 * q
        pc = 2 * q
    total += pc * 1 * 27 + 1  # head conv to one channel, with bias
    return total


def test_proposed_param_ledger_desk():
    net = M.build_proposed(DESK, seed=0)
    counted = sum(t.size for _, _, t in net.parameters())
    assert counted == _hand_ledger_proposed(8, 3) == 21296


def test_unet_param_ledger_desk():
    net = M.build_unet_baseline(M.ScaledConfig(8, 3, (32, 32, 16)), seed=0)
    counted = sum(t.size for _, _, t in net.parameters())
    assert counted == _hand_ledger_unet(8, 3) == 38825


@pytest.mark.parametrize("name, cfg, n_layers", [
    (M.PROPOSED, DESK, 34),
    (M.UNET_BASELINE, DESK, 16),
    (M.PROPOSED, M.PAPER_PROPOSED_CONFIG, 54),
    (M.UNET_BASELINE, M.PAPER_UNET_CONFIG, 34),
])
def test_graph_holds_only_what_runs_and_learns(name, cfg, n_layers):
    # a norm layer runs its own ReLU, and a conv that feeds a norm holds no bias,
    # as the norm subtracts each channel's mean; the head convs keep a zero bias
    assert "relu" not in M.LAYER_RULES
    net = M.build_network(name, cfg, seed=0)
    assert len(net.layers) == n_layers
    biased = []
    for layer_id, layer in enumerate(net.layers):
        assert layer.kind in M.LAYER_RULES
        if layer.kind != "conv":
            continue
        users = [user.kind for user in net.layers if layer_id in user.inputs]
        if users == ["inorm"]:
            assert layer.spec.bias is None, layer_id
            assert [pname for pname, _ in layer.params()] == ["weights"]
        else:
            assert layer.stage == "head" and not np.any(layer.spec.bias.data), layer_id
            biased.append(layer_id)
    assert len(biased) == {M.PROPOSED: 2, M.UNET_BASELINE: 1}[name]


def test_backbone_nonlinearity_counts():
    # 2 ReLUs per decoupled module vs 1 per regular module, each run by its norm layer
    prop = M.build_proposed(M.ScaledConfig(4, 5, (64, 64, 64)), seed=0)
    unet = M.build_unet_baseline(M.ScaledConfig(4, 6, (64, 64, 64)), seed=0)
    n_prop = sum(1 for l in prop.layers if l.kind == "inorm" and l.stage == "backbone")
    n_unet = sum(1 for l in unet.layers if l.kind == "inorm" and l.stage == "backbone")
    assert n_prop == 10
    assert n_unet == 6


def test_every_backbone_level_feeds_exactly_one_concat():
    for net in (
        M.build_proposed(DESK, seed=0),
        M.build_unet_baseline(M.ScaledConfig(8, 3, (32, 32, 16)), seed=0),
    ):
        concats = [l for l in net.layers if l.kind == "concat"]
        skip_consumers = [l.inputs[1] for l in concats]
        assert len(skip_consumers) == len(set(skip_consumers))
        # the deepest backbone output feeds the pyramid head-on, all other
        # backbone levels are consumed by exactly one concat each
        expected = net.cfg.num_down if net.name == M.PROPOSED else net.cfg.num_down - 1
        assert len(concats) == expected


def test_feature_doubling_with_cap():
    net = M.build_proposed(M.ScaledConfig(64, 5, (256, 256, 64)), seed=0)
    backbone_convs = [l.spec for l in net.layers if l.kind == "conv" and l.stage == "backbone"]
    axial_outs = [s.c_out for s in backbone_convs[::2]]
    assert axial_outs == [64, 128, 256, 512, 512]


def test_impulse_response_covers_full_volume():
    # at 64x64x16 with three downsampling modules the output support of a
    # centred impulse reaches every voxel
    net = M.build_proposed(M.ScaledConfig(8, 3, (64, 64, 16)), seed=5)
    x = np.zeros((1, 1, 64, 64, 16))
    x[0, 0, 32, 32, 8] = 10.0
    out = M.forward(net, Tensor(x)).data
    assert np.count_nonzero(out) == out.size


# -- checkpoints -------------------------------------------------------------------------


def test_checkpoint_roundtrip_identical_bytes(tmp_path):
    net = M.build_proposed(DESK, seed=9)
    p1 = tmp_path / "a.ddpk"
    p2 = tmp_path / "b.ddpk"
    M.save_checkpoint(net, p1)
    loaded = M.load_checkpoint(p1)
    M.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    x = Tensor(np.random.default_rng(6).normal(size=(1, 1, 32, 32, 16)))
    assert np.array_equal(M.forward(net, x).data, M.forward(loaded, x).data)


@pytest.mark.parametrize("block", [K._DRAW_BLOCK_VALUES, 130])  # 130: several blocks, some partial
def test_conv_weights_stay_tap_major(tmp_path, monkeypatch, block):
    # the per-tap GEMMs read each tap's [c_out, c_in] weights in place, so the
    # memory order must survive a training step and a checkpoint round trip
    # while the values and the checkpoint bytes stay those of a C-order draw
    monkeypatch.setattr(K, "_DRAW_BLOCK_VALUES", block)
    net = M.build_proposed(DESK, seed=5)
    convs = [layer.spec for layer in net.layers if layer.kind == "conv"]
    rng = np.random.default_rng(5)
    for spec in convs:
        taps = spec.kernel[0] * spec.kernel[1] * spec.kernel[2]
        bound = np.sqrt(6.0 / (spec.c_in * taps + spec.c_out * taps))
        want = rng.uniform(-bound, bound, size=spec.weights.shape)
        assert np.array_equal(spec.weights.data, want)

    def assert_tap_major(specs):
        for spec in specs:
            taps = K._tap_view(spec.weights.data)
            assert taps.flags.c_contiguous and np.shares_memory(taps, spec.weights.data)

    assert_tap_major(convs)
    params = net.param_tensors()
    state = training.AdamState(params)
    x = Tensor(np.random.default_rng(6).normal(size=(1, 1) + DESK.input_extents))
    backward(training.n2n_loss(M.forward(net, x), x))
    training.adam_step(params, state, training.TrainConfig())
    assert_tap_major(convs)
    # gradients and Adam moments step through memory as their weights do
    for p, m, v in zip(params, state.m, state.v):
        assert p.grad.strides == m.strides == v.strides == p.data.strides

    path = tmp_path / "net.ddpk"
    M.save_checkpoint(net, path)
    loaded = M.load_checkpoint(path)
    assert_tap_major(layer.spec for layer in loaded.layers if layer.kind == "conv")
    for spec in convs:
        spec.weights.data = np.ascontiguousarray(spec.weights.data)
    M.save_checkpoint(net, tmp_path / "c_order.ddpk")
    assert path.read_bytes() == (tmp_path / "c_order.ddpk").read_bytes()


def test_checkpoint_size_formula(tmp_path):
    net = M.build_proposed(DESK, seed=0)
    path = tmp_path / "net.ddpk"
    M.save_checkpoint(net, path)
    n_params = sum(t.size for _, _, t in net.parameters())
    assert path.stat().st_size == M.checkpoint_nbytes(net)
    assert path.stat().st_size > 8 * n_params  # data plus headers


def test_checkpoint_size_reference_network():
    # eight bytes per value: the 12M-parameter network serializes to ~98 MB
    net = M.build_proposed(M.PAPER_PROPOSED_CONFIG, seed=0)
    n_params = sum(t.size for _, _, t in net.parameters())
    size = M.checkpoint_nbytes(net)
    assert 8 * n_params < size < 8 * n_params + 4096
    assert 90e6 < size < 105e6


def test_checkpoint_truncation_rejected(tmp_path):
    net = M.build_proposed(DESK, seed=0)
    path = tmp_path / "net.ddpk"
    M.save_checkpoint(net, path)
    blob = path.read_bytes()
    for cut in (2, 20, len(blob) // 2, len(blob) - 3):
        bad = tmp_path / "bad.ddpk"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            M.load_checkpoint(bad)


def test_checkpoint_bad_magic_and_version(tmp_path):
    net = M.build_proposed(DESK, seed=0)
    path = tmp_path / "net.ddpk"
    M.save_checkpoint(net, path)
    blob = bytearray(path.read_bytes())
    wrong = tmp_path / "wrong.ddpk"
    wrong.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError):
        M.load_checkpoint(wrong)
    blob[4] = 99  # version field
    wrong.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        M.load_checkpoint(wrong)


@pytest.mark.parametrize(
    "offset, value",
    [(20, 2**24 + 3), (24, 2**24 + 3), (20, 0), (24, 0)],  # base_features, num_down
)
def test_checkpoint_forged_config_rejected_before_building(tmp_path, monkeypatch, offset, value):
    net = M.build_proposed(DESK, seed=0)
    path = tmp_path / "net.ddpk"
    M.save_checkpoint(net, path)
    blob = bytearray(path.read_bytes())
    blob[offset : offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(blob))
    guard_build_network(monkeypatch)
    with pytest.raises(FormatError):
        M.load_checkpoint(path)


@pytest.mark.parametrize("name", [M.PROPOSED, M.UNET_BASELINE])
def test_checkpoint_size_lower_bound(name):
    for base in (1, 2, 8):
        for num_down in (1, 2, 4):
            extent = M.divisor(name, num_down)
            net = M.build_network(name, M.ScaledConfig(base, num_down, (extent,) * 3))
            assert M._min_checkpoint_nbytes(base, num_down) <= M.checkpoint_nbytes(net)


def test_version_1_checkpoint_is_rejected(tmp_path):
    # version 1 gave every relu a layer id and every conv a bias record: its
    # layer records do not fit this layout, so its header alone rejects it
    net = M.build_proposed(DESK, seed=0)
    path = tmp_path / "net.ddpk"
    M.save_checkpoint(net, path)
    blob = bytearray(path.read_bytes())
    assert struct.unpack("<I", blob[4:8]) == (M.CHECKPOINT_VERSION,) == (2,)
    blob[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
        M.load_checkpoint(path)


def test_checkpoint_preserves_seed_and_name(tmp_path):
    net = M.build_unet_baseline(M.ScaledConfig(8, 3, (16, 16, 8)), seed=1234)
    path = tmp_path / "u.ddpk"
    M.save_checkpoint(net, path)
    loaded = M.load_checkpoint(path)
    assert loaded.name == M.UNET_BASELINE
    assert loaded.seed == 1234
    assert loaded.cfg.base_features == 8
    assert loaded.cfg.num_down == 3
