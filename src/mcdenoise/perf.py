"""Analytic FLOPs/parameter counting and the decoupled-vs-regular benchmark.

FLOPs follow the multiply-accumulate convention for convolutions,
2 * C_in * k_h * k_w * k_d * C_out * H_out * W_out * D_out, counting the
convolutions only: normalization, ReLU, shuffles and upsampling are free.
``count_flops`` walks symbolic shapes through ``model.LAYER_RULES`` with
``model.walk``, so profiling the reference geometry allocates no tensors.
Beside these defined FLOPs it reports each conv's executed GEMM FLOPs in
the float32 ``infer`` schedule, as ``kernels.conv_path`` counts them: a
per-tap conv also multiplies the padding columns of its phase grid, and a
coarse-first conv runs its GEMMs on 1/8 of the voxels.
"""

import ctypes
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .kernels import conv3d, instance_norm, make_conv_spec
from .model import _INFER_DTYPE, NetworkGraph, _schedule, check_divisible, walk
from .tensor import Tensor


def conv_flops(c_in, kernel, c_out, out_extents) -> int:
    kh, kw, kd = kernel
    oh, ow, od = out_extents
    return 2 * c_in * kh * kw * kd * c_out * oh * ow * od


@dataclass
class LayerCost:
    layer_id: int
    kind: str
    stage: str
    input_shape: tuple
    output_shape: tuple
    flops: int
    executed_flops: int  # GEMM FLOPs of the path the float32 infer schedule runs
    params: int


@dataclass
class FlopsReport:
    network: str
    input_extents: tuple[int, int, int]
    rows: list[LayerCost]

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def total_executed_flops(self) -> int:
        return sum(r.executed_flops for r in self.rows)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_gflops(self) -> float:
        return self.total_flops / 1e9

    def csv_lines(self) -> list[str]:
        lines = ["layer_id,kind,stage,input_shape,output_shape,flops,executed_flops,params"]
        for r in self.rows:
            in_s = "x".join(str(v) for v in r.input_shape)
            out_s = "x".join(str(v) for v in r.output_shape)
            lines.append(f"{r.layer_id},{r.kind},{r.stage},{in_s},{out_s},{r.flops},"
                         f"{r.executed_flops},{r.params}")
        lines.append(f"total,,,,,{self.total_flops},{self.total_executed_flops},{self.total_params}")
        return lines

    def table(self) -> str:
        header = ["id", "kind", "stage", "input", "output", "flops", "executed", "params"]
        body = []
        for r in self.rows:
            body.append(
                [
                    str(r.layer_id),
                    r.kind,
                    r.stage,
                    "x".join(str(v) for v in r.input_shape),
                    "x".join(str(v) for v in r.output_shape),
                    f"{r.flops:,}",
                    f"{r.executed_flops:,}",
                    f"{r.params:,}",
                ]
            )
        body.append(["total", "", "", "", "", f"{self.total_flops:,}",
                     f"{self.total_executed_flops:,}", f"{self.total_params:,}"])
        widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*header)] + [fmt.format(*row) for row in body]
        lines.append(
            f"\n{self.network} at {'x'.join(str(e) for e in self.input_extents)}: "
            f"{self.total_gflops:.2f} GFLOPs, {self.total_params / 1e6:.2f}M params; "
            f"float32 infer executes {self.total_executed_flops / 1e9:.2f} G of GEMM FLOPs"
        )
        return "\n".join(lines) + "\n"


def count_flops(net: NetworkGraph, input_extents) -> FlopsReport:
    """Propagate shapes through the graph and cost each convolution, as
    defined and as the float32 ``infer`` schedule executes it."""
    input_extents = tuple(int(e) for e in input_extents)
    check_divisible(net.name, net.cfg.num_down, input_extents, ContractError)
    steps = _schedule(net, (1, 1) + input_extents, _INFER_DTYPE)
    rows = []

    def cost(layer_id, layer, rule, shapes):
        out = rule.shape(layer, shapes)
        spec = layer.spec
        flops = 0 if spec is None else conv_flops(spec.c_in, spec.kernel, spec.c_out, out[2:])
        path = steps[layer_id].path
        params = sum(t.size for _, t in layer.params())
        rows.append(LayerCost(layer_id, layer.kind, layer.stage, shapes[0], out, flops,
                              0 if path is None else path.flops, params))
        return out

    walk(net, (1, 1) + input_extents, cost)
    return FlopsReport(net.name, input_extents, rows)


def count_params(net: NetworkGraph) -> int:
    """Trainable value count: conv weights, head conv biases, norm scales and shifts."""
    return sum(t.size for _, _, t in net.parameters())


def decoupling_flops_ratio(k: int = 3) -> float:
    """Per-output-voxel cost of an axial+slice pair relative to one k^3 conv."""
    return (k * k + k) / (k * k * k)


def module_mac_ratio(k: int = 3) -> float:
    """MACs of one decoupled downsampling module relative to one regular module.

    Both modules halve every extent. The decoupled one does it with a
    stride-(2, 2, 1) (k, k, 1) axial conv followed by a stride-(1, 1, 2)
    (1, 1, k) slice conv, so its axial conv emits twice the voxels of the
    module output: per output voxel it costs (k^2 * 2 + k) / k^3, which is
    (9 * 2 + 3) / 27 = 7/9 at k = 3, not the 4/9 of ``decoupling_flops_ratio``.
    """
    return (k * k * 2 + k) / (k * k * k)


# -- wall-clock micro-benchmark ----------------------------------------------------


# Getter names exported by the OpenBLAS builds numpy ships with, tried in order.
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def blas_threads() -> int | None:
    """BLAS threads in effect, asked of the OpenBLAS this process mapped (an
    environment variable is only a request); None when it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split()[-1] for line in fh}
    except OSError:
        return None
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in [getattr(lib, name, None) for name in _BLAS_THREAD_GETTERS]:
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


@dataclass
class BenchRow:
    module: str
    median_ms: float
    iqr_ms: float
    repeats: int
    workers: int | None  # BLAS threads in effect; None when unreadable

    def csv(self) -> str:
        workers = "" if self.workers is None else self.workers
        return f"{self.module},{self.median_ms:.6f},{self.iqr_ms:.6f},{self.repeats},{workers}"


BENCH_CSV_HEADER = "module,median_ms,iqr_ms,repeats,workers"
MIN_REPEATS = 10  # the fewest repeats ``bench_modules`` takes a median and IQR over


def _time_alternating(fns, x, repeats):
    """ms per call of each of ``fns`` on ``x``, one call of each per repeat,
    after three untimed calls of each.

    The order reverses every repeat, so drift in the machine's speed and
    the cache state one call leaves the next fall on every function alike.
    """
    for _ in range(3):
        for fn in fns:
            fn(x)
    samples = np.empty((len(fns), repeats))
    order = list(range(len(fns)))
    for i in range(repeats):
        for j in order:
            start = time.perf_counter()
            fns[j](x)
            samples[j, i] = (time.perf_counter() - start) * 1e3
        order.reverse()
    return samples


def bench_modules(
    extents=(32, 32, 16), channels: int = 64, repeats: int = 100, seed: int = 0
) -> list[BenchRow]:
    """Median/IQR forward time of one regular downsampling module against one
    decoupled axial+slice module at identical input and output shapes.

    Each conv feeds an instance norm with its ReLU fused, as in the
    network, and the two modules' repeats alternate."""
    if repeats < MIN_REPEATS:
        raise ContractError(f"bench_modules needs at least {MIN_REPEATS} repeats")
    extents = tuple(int(e) for e in extents)
    if any(e % 2 for e in extents):
        raise ContractError(f"extents must be even, got {extents}")
    rng = np.random.default_rng(seed)
    c = channels
    regular = make_conv_spec(c, c, (3, 3, 3), (2, 2, 2), rng)
    axial = make_conv_spec(c, c, (3, 3, 1), (2, 2, 1), rng)
    slicec = make_conv_spec(c, c, (1, 1, 3), (1, 1, 2), rng)
    norms = [
        (Tensor(np.ones(c), requires_grad=True), Tensor(np.zeros(c), requires_grad=True))
        for _ in range(3)
    ]

    def regular_module(x):
        return instance_norm(conv3d(x, regular), *norms[0], relu=True)

    def decoupled_module(x):
        h = instance_norm(conv3d(x, axial), *norms[1], relu=True)
        return instance_norm(conv3d(h, slicec), *norms[2], relu=True)

    x = Tensor(rng.standard_normal((1, c) + extents))
    t_reg, t_dec = _time_alternating([regular_module, decoupled_module], x, repeats)
    threads = blas_threads()
    return [_row("regular3d", t_reg, repeats, threads), _row("decoupled", t_dec, repeats, threads)]


def _row(name, samples, repeats, workers):
    q25, q50, q75 = np.percentile(samples, [25, 50, 75])
    return BenchRow(name, float(q50), float(q75 - q25), repeats, workers)
