"""Builders for the lightweight pyramid denoiser and the 3D UNet baseline.

Both networks are expressed as a flat layer list with explicit wiring:
each layer names the layers it consumes (index -1 is the network input).
``walk`` feeds each layer its producers' values in layer order together
with the layer's entry in ``LAYER_RULES``, the one table of how each kind
applies to tensors and to shapes and which parameters it holds:
``forward`` walks tensors and ``perf.count_flops`` walks shapes.
Both forwards run each layer as ``_schedule`` says, one shape walk kept
on the net per dtype for that dtype's last input shape: an upsample is
skipped, handing its input on, where its only consumer is a conv that
``kernels.conv_path`` runs coarse-first on that input in the forward's
dtype, so the taped float64 forward and ``infer`` may run a conv on
different paths. ``infer`` is the forward without the tape, in float32: from
the schedule it plans one float32 arena for the input and every layer
output (outputs whose lifetimes do not overlap share memory), one
scratch region for the kernels' temporaries and a float32 copy of every
parameter, refilled on each call; the tensor walk runs the same kernels
on those copies in views of the arena, and ``infer`` returns a float64
copy of the result. ``forward`` stays float64, as the tape needs, and is
``infer``'s reference.
Parameter iteration, checkpoint records and parameter counts read the
table's params column. The layer list, checkpoints and
``perf.count_flops`` keep every upsample. An ``inorm`` layer runs the
instance norm and its ReLU as one kernel; a conv that feeds one has no
bias, as the norm subtracts each channel's mean (the head convs have one).

Lightweight net: voxel unshuffle, then ``num_down`` downsampling modules
of [axial conv (3,3,1) stride (2,2,1) + norm + relu, slice conv (1,1,3)
stride (1,1,2) + norm + relu]. A feature pyramid walks back up: at each
level the running feature is upsampled 2x, passed through a stride-1
axial+slice conv pair (each with norm + relu), and concatenated with the
same-resolution backbone feature. The head is a plain axial+slice conv
pair producing 8 channels, restored to one full-resolution channel by the
voxel shuffle.

UNet baseline: ``num_down`` modules of [3x3x3 conv stride 2 + norm +
relu], then a mirrored decoder of [upsample 2x, 3x3x3 stride-1 conv +
norm + relu, concat with skip] and a final upsample plus 3x3x3 conv to
one channel.

Feature counts start at ``base_features``, double per downsampling module
and cap at 8x the base (64 -> 512 at the reference configuration); the
decoder/pyramid convs emit the channel count of the skip they join.
"""

import os
import struct
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError, FormatError, NumericError, ShapeError
from .kernels import (
    COARSE_FIRST,
    ConvSpec,
    conv3d,
    conv_path,
    conv_output_extents,
    instance_norm,
    make_conv_spec,
    upsample_trilinear,
    voxel_shuffle,
    voxel_unshuffle,
)
from .tensor import FRESH, Buffers, Tensor, Untaped, concat

PROPOSED = "proposed"
UNET_BASELINE = "unet-baseline"

_FEATURE_CAP_FACTOR = 8  # doubling stops at 8x base (512 for base 64)

CHECKPOINT_MAGIC = b"DDPK"
CHECKPOINT_VERSION = 2
_NAME_TAGS = {PROPOSED: 1, UNET_BASELINE: 2}
_TAG_NAMES = {v: k for k, v in _NAME_TAGS.items()}


@dataclass(frozen=True)
class ScaledConfig:
    """Geometry knob: reference setting is (64, 5|6, 256x256x64)."""

    base_features: int = 64
    num_down: int = 5
    input_extents: tuple[int, int, int] = (256, 256, 64)

    def __post_init__(self):
        if self.base_features < 1 or self.num_down < 1:
            raise ConfigError("base_features and num_down must be >= 1")
        if len(self.input_extents) != 3 or any(e < 1 for e in self.input_extents):
            raise ConfigError(f"bad input extents {self.input_extents}")


PAPER_PROPOSED_CONFIG = ScaledConfig(64, 5, (256, 256, 64))
PAPER_UNET_CONFIG = ScaledConfig(64, 6, (256, 256, 64))


@dataclass
class Layer:
    kind: str  # a key of LAYER_RULES
    inputs: tuple[int, ...]  # producer layer ids; -1 is the network input
    spec: ConvSpec | None = None
    scale: Tensor | None = None
    shift: Tensor | None = None
    stage: str = ""  # input | backbone | pyramid | head

    def params(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs in checkpoint order, from the ``LAYER_RULES`` params column."""
        return _rule(self.kind).params(self)


@dataclass
class NetworkGraph:
    name: str
    cfg: ScaledConfig
    seed: int
    layers: list[Layer] = field(default_factory=list)
    # infer's buffer plan for the last input shape; it dies with the net
    plan: "_Plan | None" = field(default=None, init=False, repr=False, compare=False)
    # dtype -> (input shape, ``_schedule`` at it) for that dtype's last input shape;
    # it dies with the net
    schedule: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def parameters(self):
        for layer_id, layer in enumerate(self.layers):
            for pname, tensor in layer.params():
                yield layer_id, pname, tensor

    def param_tensors(self) -> list[Tensor]:
        return [t for _, _, t in self.parameters()]


def divisor(name: str, num_down: int) -> int:
    """Input extents must be multiples of this: each downsampling module
    halves them, and the proposed net's voxel unshuffle halves them once more."""
    extra = 1 if name == PROPOSED else 0
    return 2 ** (num_down + extra)


def check_divisible(name: str, num_down: int, extents, error: type[Exception]):
    """Raise ``error`` unless every extent is a positive multiple of ``divisor``."""
    div = divisor(name, num_down)
    if any(e % div or e < div for e in extents):
        raise error(
            f"{name} with num_down={num_down} needs extents divisible by {div}, "
            f"got {tuple(extents)}"
        )


def _feature_plan(base: int, num_down: int) -> list[int]:
    return [min(base * 2**m, base * _FEATURE_CAP_FACTOR) for m in range(num_down)]


class _GraphBuilder:
    def __init__(self, name, cfg, seed):
        self.net = NetworkGraph(name, cfg, int(seed))
        self.rng = np.random.default_rng(int(seed))

    def add(self, kind, inputs, stage, **kw) -> int:
        inputs = tuple(inputs) if isinstance(inputs, (tuple, list)) else (inputs,)
        self.net.layers.append(Layer(kind, inputs, stage=stage, **kw))
        return len(self.net.layers) - 1

    def module(self, src, c_in, c_out, kernel, stride, stage) -> int:
        """A conv without bias, then its instance norm with the ReLU; the norm's id."""
        spec = make_conv_spec(c_in, c_out, kernel, stride, self.rng)
        conv = self.add("conv", src, stage, spec=spec)
        scale = Tensor(np.ones(c_out), requires_grad=True)
        shift = Tensor(np.zeros(c_out), requires_grad=True)
        return self.add("inorm", conv, stage, scale=scale, shift=shift)

    def head(self, src, c_in, c_out, kernel) -> int:
        """A stride-1 conv with a zero bias, as no norm follows it."""
        spec = make_conv_spec(c_in, c_out, kernel, (1, 1, 1), self.rng)
        return self.add("conv", src, "head", spec=replace(spec, bias=Tensor(np.zeros(c_out), True)))


def build_proposed(cfg: ScaledConfig, seed: int = 0) -> NetworkGraph:
    """Unshuffle front end, decoupled-conv backbone, feature pyramid, shuffle head."""
    check_divisible(PROPOSED, cfg.num_down, cfg.input_extents, ConfigError)
    b = _GraphBuilder(PROPOSED, cfg, seed)
    feats = _feature_plan(cfg.base_features, cfg.num_down)

    prev = b.add("unshuffle", -1, "input")
    skips = [prev]  # same-resolution features consumed by the pyramid
    skip_channels = [8]
    c = 8
    for f in feats:
        prev = b.module(prev, c, f, (3, 3, 1), (2, 2, 1), "backbone")
        prev = b.module(prev, f, f, (1, 1, 3), (1, 1, 2), "backbone")
        skips.append(prev)
        skip_channels.append(f)
        c = f

    p, pc = skips[-1], skip_channels[-1]
    for level in range(cfg.num_down - 1, -1, -1):
        q = skip_channels[level]
        up = b.add("upsample", p, "pyramid")
        mid = b.module(up, pc, q, (3, 3, 1), (1, 1, 1), "pyramid")
        mid = b.module(mid, q, q, (1, 1, 3), (1, 1, 1), "pyramid")
        p = b.add("concat", (mid, skips[level]), "pyramid")
        pc = 2 * q

    h = b.head(p, pc, 8, (3, 3, 1))
    h = b.head(h, 8, 8, (1, 1, 3))
    b.add("shuffle", h, "head")
    return b.net


def build_unet_baseline(cfg: ScaledConfig, seed: int = 0) -> NetworkGraph:
    """Classic encoder-decoder with 3x3x3 convs and concatenation skips."""
    check_divisible(UNET_BASELINE, cfg.num_down, cfg.input_extents, ConfigError)
    b = _GraphBuilder(UNET_BASELINE, cfg, seed)
    feats = _feature_plan(cfg.base_features, cfg.num_down)

    prev = -1
    skips = []
    c = 1
    for f in feats:
        prev = b.module(prev, c, f, (3, 3, 3), (2, 2, 2), "backbone")
        skips.append(prev)
        c = f

    p, pc = skips[-1], feats[-1]
    for level in range(cfg.num_down - 2, -1, -1):
        q = feats[level]
        up = b.add("upsample", p, "pyramid")
        mid = b.module(up, pc, q, (3, 3, 3), (1, 1, 1), "pyramid")
        p = b.add("concat", (mid, skips[level]), "pyramid")
        pc = 2 * q

    up = b.add("upsample", p, "head")
    b.head(up, pc, 1, (3, 3, 3))
    return b.net


def build_network(name: str, cfg: ScaledConfig, seed: int = 0) -> NetworkGraph:
    if name == PROPOSED:
        return build_proposed(cfg, seed)
    if name == UNET_BASELINE:
        return build_unet_baseline(cfg, seed)
    raise ConfigError(f"unknown network name {name!r}")


# -- the layer table and its walker -----------------------------------------------

# apply(layer, inputs, buffers=FRESH) -> output tensor; shape(layer, input shapes) -> shape;
# params(layer) -> the layer's (name, tensor) pairs, none unless a kind says otherwise
LayerRule = namedtuple("LayerRule", "apply shape params", defaults=(lambda layer: [],))


def _regrid(shape, channels, num, den):
    return (shape[0], channels) + tuple(e * num // den for e in shape[2:])


def _conv_shape(layer, shapes):
    b, c, *extents = shapes[0]
    spec = layer.spec
    if spec.c_in != c:
        raise ContractError(f"conv {spec.kernel}: channel mismatch {c} vs {spec.c_in}")
    return (b, spec.c_out) + conv_output_extents(extents, spec.kernel, spec.stride)


# kind -> (apply to the input tensors, output shape from the input shapes). The
# kernels are named inside the lambdas, not captured, so each call looks them up
# in this module's globals: a tracer that replaces a module attribute sees it.
LAYER_RULES = {
    "unshuffle": LayerRule(lambda layer, xs, buffers=FRESH: voxel_unshuffle(xs[0], buffers),
                           lambda layer, ss: _regrid(ss[0], 8 * ss[0][1], 1, 2)),
    "shuffle": LayerRule(lambda layer, xs, buffers=FRESH: voxel_shuffle(xs[0], buffers),
                         lambda layer, ss: _regrid(ss[0], ss[0][1] // 8, 2, 1)),
    "conv": LayerRule(lambda layer, xs, buffers=FRESH: conv3d(xs[0], layer.spec, buffers),
                      _conv_shape,
                      lambda layer: list(zip(("weights", "bias"), layer.spec.tensors()))),
    # the instance norm and the ReLU after it, as one kernel
    "inorm": LayerRule(lambda layer, xs, buffers=FRESH: instance_norm(
                           xs[0], layer.scale, layer.shift, buffers=buffers, relu=True),
                       lambda layer, ss: ss[0],
                       lambda layer: [("scale", layer.scale), ("shift", layer.shift)]),
    "upsample": LayerRule(lambda layer, xs, buffers=FRESH: upsample_trilinear(xs[0], buffers),
                          lambda layer, ss: _regrid(ss[0], ss[0][1], 2, 1)),
    "concat": LayerRule(lambda layer, xs, buffers=FRESH: concat(xs, buffers=buffers),
                        lambda layer, ss: _regrid(ss[0], sum(s[1] for s in ss), 1, 1)),
}


def _rule(kind: str) -> LayerRule:
    """The ``LAYER_RULES`` entry of ``kind``; a ``ConfigError`` for a kind it lacks."""
    if kind not in LAYER_RULES:
        raise ConfigError(f"unknown layer kind {kind!r}")
    return LAYER_RULES[kind]


def walk(net: NetworkGraph, x, visit) -> list:
    """Every layer's value, in layer order, from ``visit(layer_id, layer, rule, inputs)``
    with the layer's ``LAYER_RULES`` entry and its producers' values (-1 gives ``x``)."""
    values = []
    for layer_id, layer in enumerate(net.layers):
        inputs = [x if i == -1 else values[i] for i in layer.inputs]
        values.append(visit(layer_id, layer, _rule(layer.kind), inputs))
    return values


# -- forward -------------------------------------------------------------------


def _check_input(net: NetworkGraph, shape):
    if len(shape) != 5 or shape[0] != 1 or shape[1] != 1:
        raise ContractError(f"forward expects a [1, 1, H, W, D] tensor, got {shape}")
    check_divisible(net.name, net.cfg.num_down, shape[2:], ShapeError)


# A layer's output shape, the function that runs it (None when another layer's
# kernel covers it), the layer whose output holds its value (-1: the input) and,
# for a conv, the ``kernels.ConvPath`` it takes
Step = namedtuple("Step", "shape run owner path")


# A conv on the input of the upsample ``_schedule`` skips; conv3d is looked up at call time
def _coarse_first_apply(layer, xs, buffers=FRESH):
    return conv3d(xs[0], layer.spec, buffers, upsampled=True)


def _schedule(net: NetworkGraph, shape, dtype) -> list[Step]:
    """How each layer of ``net`` runs at input ``shape`` in ``dtype``: one ``Step`` per layer.

    An upsample whose only consumer is a conv for which ``kernels.conv_path``
    picks coarse-first at the upsample's input shape and ``dtype`` is
    skipped, and the conv runs coarse-first on that input. The skipped
    upsample hands its input on, so the layer holding its input's value
    holds its. Every other conv takes the per-tap path.
    """
    users = [[] for _ in net.layers]
    for layer_id, layer in enumerate(net.layers):
        for src in layer.inputs:
            if src >= 0:
                users[src].append(layer_id)
    decided = {}  # conv id -> (its run, its path), when its upsample decided them

    def visit(layer_id, layer, rule, inputs):
        out_shape = rule.shape(layer, [step.shape for step in inputs])
        run, path = rule.apply, None
        if layer.kind == "conv":
            run, path = decided.get(layer_id) or (run, conv_path(layer.spec, inputs[0].shape, dtype))
        user = users[layer_id][0] if len(users[layer_id]) == 1 else None
        if layer.kind == "upsample" and user is not None and net.layers[user].kind == "conv":
            first = conv_path(net.layers[user].spec, inputs[0].shape, dtype, upsampled=True)
            if first.name == COARSE_FIRST:
                run, decided[user] = None, (_coarse_first_apply, first)
        return Step(out_shape, run, inputs[0].owner if run is None else layer_id, path)

    return walk(net, Step(tuple(shape), None, -1, None), visit)


def _scheduled(net: NetworkGraph, shape, dtype) -> list[Step]:
    """``_schedule(net, shape, dtype)``, kept on ``net.schedule`` for each dtype's last
    input shape: the taped forward (float64) and ``infer`` (float32) alternate
    at one shape in a training run that evaluates, and each keeps its own."""
    shape, dtype = tuple(shape), np.dtype(dtype)
    if net.schedule.get(dtype, (None,))[0] != shape:
        net.schedule[dtype] = (shape, _schedule(net, shape, dtype))
    return net.schedule[dtype][1]


def _apply_checked(layer_id, layer, apply, xs, buffers: Buffers) -> Tensor:
    out = apply(layer, xs, buffers)
    if not np.isfinite(out.data, out=buffers.scratch(out.shape, bool)).all():
        raise NumericError(f"non-finite values after layer {layer_id} ({layer.kind})")
    return out


def forward(net: NetworkGraph, x: Tensor, plan: "_Plan | None" = None) -> Tensor:
    """Run the denoiser; output shape equals input shape.

    Without a plan every layer allocates its arrays and records the tape.
    With one (``infer`` makes it) every layer runs on the plan's float32
    copy of itself, writes into the plan's views and records nothing; the
    kernels and checks are the same. Each
    layer runs as ``_schedule`` says: its ``LAYER_RULES`` apply, a fused
    kernel, or not at all, handing its input on.
    """
    _check_input(net, x.shape)
    steps = _scheduled(net, x.shape, x.data.dtype)

    def apply(layer_id, layer, rule, xs):
        run = steps[layer_id].run
        if run is None:
            return xs[0]
        if plan is None:
            return _apply_checked(layer_id, layer, run, xs, FRESH)
        return _apply_checked(layer_id, plan.layers[layer_id], run, xs, plan.layer(layer_id))

    out = walk(net, x, apply)[-1]
    if plan is not None:
        plan.scratch.fit()
    return out


# -- tape-free inference in a planned arena --------------------------------------

_ALIGN = 64  # bytes; planned arrays start at multiples of this into their region
_INFER_DTYPE = np.float32  # what ``infer`` computes in; ``forward`` and the tape stay float64


def _nbytes(shape, dtype) -> int:
    n = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return -(-n // _ALIGN) * _ALIGN


def _view(region: np.ndarray, offset: int, shape, dtype) -> np.ndarray:
    return np.ndarray(shape, dtype, buffer=region, offset=offset)


def _pack(sizes, lifetimes) -> tuple[list[int], int]:
    """Byte offsets for buffers live over inclusive [first, last] layer spans.

    Greedy by size: the largest buffer is placed first, each at the lowest
    offset clear of every placed buffer whose lifetime overlaps its own, so
    buffers that are never live together share memory. Returns the offsets
    and the region size.
    """
    offsets = [0] * len(sizes)
    placed = []
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        first, last = lifetimes[i]
        taken = sorted(
            (offsets[j], offsets[j] + sizes[j])
            for j in placed
            if lifetimes[j][0] <= last and first <= lifetimes[j][1]
        )
        offset = 0
        for lo, hi in taken:
            if offset + sizes[i] <= lo:
                break
            offset = max(offset, hi)
        offsets[i] = offset
        placed.append(i)
    return offsets, max((o + n for o, n in zip(offsets, sizes)), default=0)


class _Scratch:
    """One byte region each layer carves its kernel temporaries from, front to back.

    ``reset`` starts a layer at the front. A request past the end is served
    by a fresh array and raises ``need``; ``fit`` then grows the region to
    the largest single layer's need, so from the second call at a shape on
    every temporary is a view.
    """

    def __init__(self):
        self.region = np.empty(0, np.uint8)
        self.used = self.need = 0

    def reset(self):
        self.used = 0

    def take(self, shape, dtype) -> np.ndarray:
        start = self.used
        self.used += _nbytes(shape, dtype)
        self.need = max(self.need, self.used)
        if self.used > self.region.size:
            return np.empty(shape, dtype)
        return _view(self.region, start, shape, dtype)

    def fit(self):
        if self.need > self.region.size:
            self.region = np.empty(self.need, np.uint8)


def _infer_copy(layer: Layer, params: list) -> Layer:
    """``layer`` with an ``_INFER_DTYPE`` copy of each parameter, in the parameter's
    memory order (conv weights stay tap-major); each copy's array is appended to
    ``params`` in ``Layer.params`` order. The copies hold no values yet."""

    def cast(t):
        if t is None:
            return None
        params.append(np.empty_like(t.data, _INFER_DTYPE, order="K"))
        return Tensor(params[-1])

    spec = None if layer.spec is None else replace(
        layer.spec, weights=cast(layer.spec.weights), bias=cast(layer.spec.bias))
    return replace(layer, spec=spec, scale=cast(layer.scale), shift=cast(layer.shift))


class _Plan:
    """Where each layer of ``net`` writes at one input shape, in ``_INFER_DTYPE``.

    The input (cast into its own view), the layer outputs and the last
    layer's output among them live from their producer to their last
    consumer and are packed into one region (``_pack``). A layer that
    ``_schedule`` skips has no output of its own: its value is its
    input's, so its consumers extend that input's lifetime. Kernel
    temporaries share one ``_Scratch``. ``layers`` are the net's layers
    with ``_INFER_DTYPE`` copies of their parameters (``_infer_copy``),
    which ``load`` refills from the net on every call.
    """

    def __init__(self, net: NetworkGraph, shape):
        self.shape = tuple(shape)
        shapes, _, owner, _ = zip(*_scheduled(net, self.shape, _INFER_DTYPE))
        # one lifetime per layer, then the input's: owner -1 indexes it
        last_use = list(range(len(shapes))) + [-1]
        for layer_id, layer in enumerate(net.layers):
            for i in layer.inputs:
                src = owner[i] if i >= 0 else -1
                last_use[src] = max(last_use[src], layer_id)
        shapes += (self.shape,)
        planned = [i == owner[i] for i in range(len(owner))] + [True]
        sizes = [_nbytes(s, _INFER_DTYPE) if p else 0 for s, p in zip(shapes, planned)]
        first_use = list(range(len(owner))) + [-1]
        offsets, nbytes = _pack(sizes, list(zip(first_use, last_use)))
        self.region = np.empty(nbytes, np.uint8)
        self.scratch = _Scratch()
        views = [
            _view(self.region, o, s, _INFER_DTYPE) if p
            else np.empty(0, _INFER_DTYPE)  # skipped: the layer writes nothing
            for o, s, p in zip(offsets, shapes, planned)
        ]
        self.input = views.pop()
        self.buffers = [Untaped(out, self.scratch) for out in views]
        self.params = []
        self.layers = [_infer_copy(layer, self.params) for layer in net.layers]

    def load(self, net: NetworkGraph):
        """Cast ``net``'s parameters as they are now into the plan's copies."""
        for (_, _, t), copy in zip(net.parameters(), self.params):
            np.copyto(copy, t.data)

    def layer(self, layer_id) -> Untaped:
        """The buffers of ``layer_id``, with the scratch region free again."""
        self.scratch.reset()
        return self.buffers[layer_id]


def infer(net: NetworkGraph, x: np.ndarray) -> np.ndarray:
    """``forward(net, Tensor(x)).data`` without the tape, computed in float32.

    The result is float64. Its largest difference from ``forward``'s
    output, over that output's largest absolute value, was at most 2.1e-6
    on the nets measured, the paper-width net among them; the tests bound
    it at 1e-5. Every layer runs in ``_INFER_DTYPE`` on
    the plan kept on ``net.plan`` for this input shape (built on the first
    call at a shape, replacing the previous one): the input, every layer
    output and every kernel temporary is a view of its arena, so a warm
    call allocates no volume-sized array but the returned one, which
    belongs to the caller. The parameters are cast into the plan's copies
    on every call, so a change to them in place shows in the next call.
    The same kernels run as in ``forward``, with the same checks and
    errors, but each conv on the path ``kernels.conv_path`` picks in
    float32, which may differ from the taped forward's. One call at a time
    per net: calls share the plan's memory.
    """
    x = np.asarray(x)
    return _infer_float32(net, x.shape, lambda view: np.copyto(view, x)).astype(np.float64)


def _infer_float32(net: NetworkGraph, shape, fill) -> np.ndarray:
    """``infer``'s float32 output, a view of the arena valid until the next call;
    ``fill(view)`` writes the input into the plan's float32 input view."""
    shape = tuple(shape)
    _check_input(net, shape)
    if net.plan is None or net.plan.shape != shape:
        net.plan = _Plan(net, shape)
    net.plan.load(net)
    fill(net.plan.input)
    return forward(net, Tensor(net.plan.input), net.plan).data


# -- checkpoint I/O --------------------------------------------------------------


def save_checkpoint(net: NetworkGraph, path):
    """Write the DDPK binary: header, config block, then per-layer weights."""
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<Q", net.seed),
        struct.pack("<III", _NAME_TAGS[net.name], net.cfg.base_features, net.cfg.num_down),
    ]
    for layer_id, layer in enumerate(net.layers):
        if not layer.params():
            continue
        blob = np.concatenate([t.data.ravel() for _, t in layer.params()])
        chunks.append(struct.pack("<IQ", layer_id, blob.size))
        chunks.append(blob.astype("<f8").tobytes())
    data = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(data)


def checkpoint_nbytes(net: NetworkGraph) -> int:
    """Exact on-disk size: 28-byte header plus 12 bytes and 8 per value per layer."""
    total = 28
    for layer in net.layers:
        params = layer.params()
        if params:
            total += 12 + 8 * sum(t.size for _, t in params)
    return total


def _min_checkpoint_nbytes(base_features: int, num_down: int) -> int:
    """A lower bound of ``checkpoint_nbytes`` for either network.

    Each downsampling module of both builders holds a conv with at least
    ``base_features`` outputs and at least 9 taps (3x3x1 or 3x3x3, no
    bias) and that conv's norm (2 per channel): two records of 12 bytes
    and at least 11 * base_features values of 8 bytes.
    """
    return 28 + num_down * (24 + 88 * base_features)


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"checkpoint truncated while reading {what}")
    return buf


def load_checkpoint(path) -> NetworkGraph:
    """Rebuild the graph named in the header and load its weights."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise FormatError("bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (seed,) = struct.unpack("<Q", _read_exact(fh, 8, "seed"))
        tag, base_features, num_down = struct.unpack("<III", _read_exact(fh, 12, "config"))
        if tag not in _TAG_NAMES:
            raise FormatError(f"unknown network tag {tag}")
        # check the claimed config against the file before building it
        if base_features < 1 or num_down < 1:
            raise FormatError(f"bad config: base_features {base_features}, num_down {num_down}")
        smallest = _min_checkpoint_nbytes(base_features, num_down)
        size = os.fstat(fh.fileno()).st_size
        if smallest > size:
            raise FormatError(
                f"config base_features {base_features}, num_down {num_down} needs at "
                f"least {smallest} bytes, file has {size}"
            )
        name = _TAG_NAMES[tag]
        nominal = divisor(name, num_down)
        cfg = ScaledConfig(base_features, num_down, (nominal, nominal, nominal))
        net = build_network(name, cfg, seed=seed)

        for layer_id, layer in enumerate(net.layers):
            params = layer.params()
            if not params:
                continue
            rid, count = struct.unpack("<IQ", _read_exact(fh, 12, "layer header"))
            expected = sum(t.size for _, t in params)
            if rid != layer_id or count != expected:
                raise FormatError(
                    f"layer record mismatch: got id {rid} count {count}, "
                    f"expected id {layer_id} count {expected}"
                )
            blob = np.frombuffer(_read_exact(fh, 8 * count, "layer data"), dtype="<f8")
            offset = 0
            for _, t in params:
                t.data[...] = blob[offset : offset + t.size].reshape(t.shape)
                offset += t.size
        if fh.read(1):
            raise FormatError("trailing bytes after final layer record")
    return net
