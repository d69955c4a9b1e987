"""Structural operators for the volumetric denoising networks.

All kernels take and return 5-D tensors laid out (B, C, H, W, D). Each
takes its output and temporaries from a ``tensor.Buffers``: by default
fresh arrays, with the backward rule recorded on the tape, while a
``tensor.Untaped`` (``model.infer`` passes one per layer, over planned
views) records nothing. So each kernel's forward arithmetic is written
once. A kernel takes the dtype of its output and temporaries from its
input: float64 on the tape, float32 under ``model.infer``.

Convolutions use cross-correlation semantics (no kernel flip). A conv's
weights have the logical shape [c_out, c_in, k_h, k_w, k_d], which
``ConvSpec`` checks and checkpoints store in C order, but
``make_conv_spec`` lays them out in memory as [c_out, k_h, k_w, k_d,
c_in], so every tap's [c_out, c_in] matrix is a view the GEMMs read in
place (``_tap_view``). A conv pads (k - 1) // 2 zeros per dimension, so
stride-1 convs preserve extents and stride-2 convs halve them. Every conv
runs through ``conv3d``, whose forward takes one of two paths:

- per tap: the padded input is split by stride phase once, each kernel
  tap reads a contiguous column slice of one phase in place, and the
  taps' GEMMs are summed on the phase grid;
- coarse-first (``conv3d(..., upsampled=True)``, for a stride-1 conv whose
  input is a 2x trilinear upsample): one GEMM per tap on the upsample's
  coarse input, then the taps' responses upsampled and added at their
  shifts, the upsample's input never upsampled itself.

``model._schedule`` asks ``conv_path`` which path a conv after an upsample
takes, at the upsample's input shape and the dtype the forward runs in.
It counts each path's GEMM FLOPs, bytes moved and numpy/BLAS calls from
the shapes the kernels use (per tap: the upsample, the phase split, the
taps' GEMMs and adds and the crop; coarse-first: the coarse GEMMs and the
tap sum's H, W and D passes) and prices them with four constants fitted
to a sweep of both nets (BENCH_22.json): a GEMM rate per dtype, one memory
speed and a cost per call. No grid-free rule separates the cases: the
desk pyramid's 16 -> 8 conv loses coarse-first on the training crop and
wins it on the held-out volume, while a 512 -> 512 conv wins it even on a
1x1x1 coarse grid. So the desk net trains with every conv per tap, and
``infer`` runs its 16 -> 8 pyramid conv coarse-first at the held-out extents.

A coarse-first conv executes 1/8 of its GEMM FLOPs plus the responses'
upsample; ``perf.count_flops`` counts the network as defined, an upsample
followed by a conv on the fine grid, and beside it the GEMM FLOPs the
float32 ``infer`` schedule executes (``conv_path``). The per-tap backward
pass rebuilds the phase split and runs the adjoint GEMMs on its slices;
the coarse-first backward runs its GEMMs on the coarse grid.

The trilinear upsample doubles H, W, then D with a two-tap stencil; its
forward is the one-tap case of the coarse-first conv's tap sum
(``_upsampled_sum``), which works one batch item and one block of channels
at a time in block-sized scratch, only the last pass writing the output.

Instance norm standardizes each channel over its volume, with
``INSTANCE_NORM_EPS`` added to the variance; with ``relu`` it also clamps
the result at zero, the norm and the ReLU after it as one kernel, as
every norm layer of the networks runs. The clamp is ``tensor.relu``'s
forward run in place on the norm's output through
``tensor.Untaped(out)``, so it is not recorded, the ReLU's arithmetic is
written once and a span around ``tensor.relu`` still times every ReLU.
Its backward keeps the input, the output and the per-channel mean and
1 / sigma, and recomputes the rest. No kernel's backward reads a
temporary of its forward: those come from ``Buffers.scratch`` and die
when the kernel returns.

The voxel unshuffle rearranges a C-channel volume into 8C channels at
half resolution: output channel ``c * 8 + 4k + 2j + i`` holds the
sub-volume ``x[i::2, j::2, k::2]`` for i, j, k in {0, 1}. The voxel
shuffle is its exact inverse; both are pure permutations.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from . import tensor
from .tensor import FRESH, Buffers, Tensor, Untaped, _accumulate

INSTANCE_NORM_EPS = 1e-5


# -- voxel shuffle / unshuffle ------------------------------------------------


def _unshuffle_data(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    b, c, h, w, d = a.shape
    # split each spatial axis into (coarse, offset); offsets become channels
    v = a.reshape(b, c, h // 2, 2, w // 2, 2, d // 2, 2).transpose(0, 1, 7, 5, 3, 2, 4, 6)
    if out is None:
        out = np.empty((b, c * 8, h // 2, w // 2, d // 2))
    out.reshape(v.shape)[...] = v
    return out


def _shuffle_data(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    b, c8, h, w, d = a.shape
    v = a.reshape(b, c8 // 8, 2, 2, 2, h, w, d).transpose(0, 1, 5, 4, 6, 3, 7, 2)
    if out is None:
        out = np.empty((b, c8 // 8, 2 * h, 2 * w, 2 * d))
    out.reshape(v.shape)[...] = v
    return out


def voxel_unshuffle(x: Tensor, buffers: Buffers = FRESH) -> Tensor:
    """[B, C, H, W, D] -> [B, 8C, H/2, W/2, D/2], losslessly."""
    if len(x.shape) != 5:
        raise ShapeError(f"voxel_unshuffle needs a 5-D tensor, got {x.shape}")
    _, _, h, w, d = x.shape
    if h % 2 or w % 2 or d % 2:
        raise ShapeError(f"voxel_unshuffle needs even spatial extents, got {(h, w, d)}")

    def _bw(g):
        if x.requires_grad:
            _accumulate(x, _shuffle_data(g))

    out = buffers.output((x.shape[0], 8 * x.shape[1], h // 2, w // 2, d // 2), x.data.dtype)
    return buffers.result(_unshuffle_data(x.data, out), (x,), _bw)


def voxel_shuffle(x: Tensor, buffers: Buffers = FRESH) -> Tensor:
    """[B, 8C, H, W, D] -> [B, C, 2H, 2W, 2D], inverse of voxel_unshuffle."""
    if len(x.shape) != 5:
        raise ShapeError(f"voxel_shuffle needs a 5-D tensor, got {x.shape}")
    if x.shape[1] % 8:
        raise ShapeError(f"voxel_shuffle needs channels divisible by 8, got {x.shape[1]}")

    def _bw(g):
        if x.requires_grad:
            _accumulate(x, _unshuffle_data(g))

    b, c8, h, w, d = x.shape
    out = buffers.output((b, c8 // 8, 2 * h, 2 * w, 2 * d), x.data.dtype)
    return buffers.result(_shuffle_data(x.data, out), (x,), _bw)


# -- convolution --------------------------------------------------------------


@dataclass
class ConvSpec:
    """Weights, optional bias and geometry of one convolution layer."""

    c_in: int
    c_out: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int]
    weights: Tensor
    bias: Tensor | None = None

    def __post_init__(self):
        self.kernel = tuple(int(k) for k in self.kernel)
        self.stride = tuple(int(s) for s in self.stride)
        if len(self.kernel) != 3 or len(self.stride) != 3:
            raise ContractError("kernel and stride must be 3-tuples")
        if any(k > 1 and k % 2 == 0 for k in self.kernel):
            raise ContractError(f"kernel extents above 1 must be odd, got {self.kernel}")
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise ContractError("kernel and stride extents must be >= 1")
        expected = (self.c_out, self.c_in) + self.kernel
        if self.weights.shape != expected:
            raise ContractError(
                f"weight shape {self.weights.shape} does not match {expected}"
            )
        if self.bias is not None and self.bias.shape != (self.c_out,):
            raise ContractError(f"bias shape {self.bias.shape} != ({self.c_out},)")

    def tensors(self) -> tuple:
        """The weights, then the bias if any: tape parents beside the input, and checkpoint order."""
        return (self.weights,) if self.bias is None else (self.weights, self.bias)


# Uniform draws per block of ``make_conv_spec``'s fill (256 KiB): the
# whole weight array drawn and then copied would hold both at once.
_DRAW_BLOCK_VALUES = 2**15


def make_conv_spec(c_in, c_out, kernel, stride, rng: np.random.Generator) -> ConvSpec:
    """Glorot-uniform weights in +-sqrt(6 / (fan_in + fan_out)), no bias.

    The values are those of ``rng.uniform(-bound, bound, size=(c_out, c_in)
    + kernel)``, bit for bit, but sit in memory as [c_out, kh, kw, kd, c_in]
    (the module docstring). The draw is filled in blocks of output
    channels, each as ``uniform`` computes it, -bound + 2 bound u for
    u = ``rng.random()``, with the scaling written straight into its
    tap-major place.
    """
    if c_in < 1 or c_out < 1:
        raise ContractError(f"a conv needs at least one input and one output channel, "
                            f"got {c_in} -> {c_out}")
    kernel = tuple(kernel)
    taps = math.prod(kernel)
    bound = np.sqrt(6.0 / (c_in * taps + c_out * taps))
    stored = np.empty((c_out, taps, c_in))
    rows = max(1, _DRAW_BLOCK_VALUES // (c_in * taps))
    for r0 in range(0, c_out, rows):
        u = rng.random((min(rows, c_out - r0), c_in, taps))
        block = stored[r0 : r0 + len(u)]
        np.multiply(u.transpose(0, 2, 1), bound - -bound, out=block)
        block += -bound
    w = Tensor(np.moveaxis(stored.reshape((c_out,) + kernel + (c_in,)), -1, 1), requires_grad=True)
    return ConvSpec(c_in, c_out, kernel, tuple(stride), w)


def conv_output_extents(extents, kernel, stride) -> tuple[int, int, int]:
    """Output extents of a conv that pads (k - 1) // 2 zeros per side."""
    out = []
    for n, k, s in zip(extents, kernel, stride):
        p = (k - 1) // 2
        span = n + 2 * p - k
        if span < 0:
            raise ContractError(f"kernel {kernel} larger than padded extent {n + 2 * p}")
        out.append(span // s + 1)
    return tuple(out)


class _PhaseGrid:
    """Stride-phase split of a zero-padded volume, shared by a conv's passes.

    Along an axis of extent n with kernel k and stride s, the input padded
    by p = (k - 1) // 2 is rounded up to nq * s voxels and split into the
    phases ``padded[a::s]`` (a < min(k, s); other phases feed no tap), each
    of extent nq. Padded index o * s + i lies in phase i % s at o + i // s,
    so on the (hq, wq, dq) grid flattened row-major tap (i, j, k) reads its
    phase at the fixed column offset ((i//sh)*wq + j//sw)*dq + k//sd. The
    batch is flattened behind the grid, giving each phase matrix shape
    (c_in, batch * hq * wq * dq), so a tap is one GEMM on a contiguous
    column slice. Outputs are computed on the grid's first ``cols``
    columns; the valid ones sit at grid positions below the output extents
    and every other column is cropped.
    """

    def __init__(self, batch, extents, kernel, stride):
        self.batch = batch
        self.extents = tuple(extents)
        self.out = conv_output_extents(extents, kernel, stride)
        # padded extent n + 2p, rounded up to a multiple of the stride
        self.grid = tuple(-(-(n + k - 1) // s) for n, k, s in zip(extents, kernel, stride))
        hq, wq, dq = self.grid
        self.size = hq * wq * dq
        phases = [range(min(k, s)) for k, s in zip(kernel, stride)]
        self.phases = [(a, b, c) for a in phases[0] for b in phases[1] for c in phases[2]]
        # (phase index, column offset) per tap, in (i, j, k) row-major order
        self.taps = [
            (
                self.phases.index((i % stride[0], j % stride[1], k % stride[2])),
                ((i // stride[0]) * wq + j // stride[1]) * dq + k // stride[2],
            )
            for i in range(kernel[0])
            for j in range(kernel[1])
            for k in range(kernel[2])
        ]
        self.cols = batch * self.size - max(off for _, off in self.taps)
        # per phase: where its voxels lie in the input and on the grid
        self.slices = []
        for phase in self.phases:
            src, dst = [], []
            for a, n, k, s in zip(phase, extents, kernel, stride):
                p = (k - 1) // 2
                q_lo = (p - a + s - 1) // s
                n_lo = q_lo * s + a - p
                count = len(range(n_lo, n, s))
                src.append(slice(n_lo, n, s))
                dst.append(slice(q_lo, q_lo + count))
            self.slices.append((tuple(src), tuple(dst)))

    def _grids(self, phases: np.ndarray) -> np.ndarray:
        return phases.reshape(phases.shape[:2] + (self.batch,) + self.grid)

    def split(self, a: np.ndarray, buffers: Buffers = FRESH) -> np.ndarray:
        """[B, C, H, W, D] -> its zero-padded phases, one copy of each voxel."""
        phases = buffers.scratch((len(self.phases), a.shape[1], self.batch * self.size), a.dtype)
        channel_major = a.transpose(1, 0, 2, 3, 4)
        for grid, (src, dst) in zip(self._grids(phases), self.slices):
            grid[(Ellipsis,) + dst] = channel_major[(Ellipsis,) + src]
            # only the padding margins are zeroed, not the whole buffer
            for axis, span in enumerate(dst):
                lead = (slice(None),) * (2 + axis)
                grid[lead + (slice(0, span.start),)] = 0.0
                grid[lead + (slice(span.stop, None),)] = 0.0
        return phases

    def merge(self, phases: np.ndarray) -> np.ndarray:
        """Adjoint of ``split``: drop the padding, back to [B, C, H, W, D]."""
        out = np.zeros((phases.shape[1], self.batch) + self.extents)
        for grid, (src, dst) in zip(self._grids(phases), self.slices):
            out[(Ellipsis,) + src] = grid[(Ellipsis,) + dst]
        return out.transpose(1, 0, 2, 3, 4)

    def tap_views(self, phases: np.ndarray) -> list:
        """Each tap's [C, cols] operand: a column slice of its phase, not a copy."""
        return [phases[p, :, off : off + self.cols] for p, off in self.taps]

    def valid(self, cols: np.ndarray) -> np.ndarray:
        """View [C, B, oh, ow, od] of the valid outputs in a [C, cols] array.

        The last valid position plus the largest tap offset is at most the
        last grid column, so every valid position lies below ``cols``.
        """
        hq, wq, dq = self.grid
        step = cols.strides[1]
        return np.lib.stride_tricks.as_strided(
            cols,
            shape=(cols.shape[0], self.batch) + self.out,
            strides=(cols.strides[0], self.size * step, wq * dq * step, dq * step, step),
        )


@functools.lru_cache(maxsize=128)
def _phase_grid(batch: int, extents: tuple, kernel: tuple, stride: tuple) -> _PhaseGrid:
    """The ``_PhaseGrid`` of one conv geometry, built once: it is read-only after ``__init__``."""
    return _PhaseGrid(batch, extents, kernel, stride)


def _tap_view(w: np.ndarray) -> np.ndarray:
    """[c_out, c_in, kh, kw, kd] -> [c_out, taps, c_in], taps row-major.

    ``[:, t]`` is tap t's [c_out, c_in] matrix. In ``make_conv_spec``'s
    memory order the result is a contiguous view, so each tap's matrix has
    unit column stride and BLAS reads it in place.
    """
    return w.transpose(0, 2, 3, 4, 1).reshape(w.shape[0], -1, w.shape[1])


def _from_taps(dw: np.ndarray, kernel) -> np.ndarray:
    """Inverse of ``_tap_view``: [c_out, taps, c_in] -> a [c_out, c_in, kh, kw, kd] view."""
    return np.moveaxis(dw.reshape(dw.shape[:1] + tuple(kernel) + dw.shape[2:]), -1, 1)


# np.matmul is a ufunc and would warn on the floating-point flags BLAS
# raises (inf * 0 in a padded column); callers check outputs for
# non-finite values themselves, as model.forward does, so the GEMMs below
# run under np.errstate(all="ignore").


def _tap_sum(w: np.ndarray, views: list, buffers: Buffers) -> np.ndarray:
    """Sum over taps t of w_t @ views[t]: the conv on the grid, [c_out, cols]."""
    w_taps = _tap_view(w)
    acc = buffers.scratch((w.shape[0], views[0].shape[1]), views[0].dtype)
    tmp = buffers.scratch(acc.shape, acc.dtype)
    with np.errstate(all="ignore"):
        for t, view in enumerate(views):
            np.matmul(w_taps[:, t], view, out=acc if t == 0 else tmp)
            if t:
                acc += tmp
    return acc


def _tap_sum_weight_grad(g_cols: np.ndarray, views: list, kernel) -> np.ndarray:
    """Adjoint of ``_tap_sum`` in w: g_cols @ views[t].T per tap, as [c_out, c_in, kh, kw, kd]."""
    dw = np.empty((g_cols.shape[0], len(views), views[0].shape[0]))
    with np.errstate(all="ignore"):
        for t, view in enumerate(views):
            np.matmul(g_cols, view.T, out=dw[:, t])
    return _from_taps(dw, kernel)


def _tap_sum_input_grad(w: np.ndarray, g_cols: np.ndarray, dviews: list):
    """Adjoint of ``_tap_sum`` in the views: adds w_t.T @ g_cols into dviews[t]."""
    w_taps = _tap_view(w)
    tmp = np.empty((w.shape[1], g_cols.shape[1]))
    with np.errstate(all="ignore"):
        for t, dview in enumerate(dviews):
            np.matmul(w_taps[:, t].T, g_cols, out=tmp)
            dview += tmp


def conv3d(x: Tensor, spec: ConvSpec, buffers: Buffers = FRESH, upsampled: bool = False) -> Tensor:
    """Strided cross-correlation over (H, W, D) with "same" zero padding.

    One of two paths. Per tap (the default): the input is padded and
    split by stride phase once (see ``_PhaseGrid``), so every kernel tap
    reads a contiguous column slice of one phase in place. The taps'
    [c_out, c_in] x [c_in, cols] GEMMs, each with the tap's weights read
    in place (``_tap_view``), are summed on the phase grid, and the sum is
    cropped once to the output extents. The backward pass rebuilds the
    split from ``x`` and runs the transposed GEMMs on the same slices,
    with the output gradient zero on the cropped columns.

    Coarse-first (``upsampled``): the conv is applied to
    ``upsample_trilinear(x)`` with its GEMMs on ``x`` itself, the taps'
    responses then upsampled and added at their shifts
    (``_coarse_first_conv``). The caller decides when with
    ``conv_path``; only stride-1 convs.
    """
    if len(x.shape) != 5:
        raise ShapeError(f"conv3d needs a 5-D tensor, got {x.shape}")
    if x.shape[1] != spec.c_in:
        raise ContractError(f"conv3d: input has {x.shape[1]} channels, spec wants {spec.c_in}")
    if upsampled:
        if spec.stride != (1, 1, 1):
            raise ContractError(f"conv3d: only stride-1 convs run coarse-first, got {spec.stride}")
        out = _coarse_first_conv(x.data, spec, buffers)
        return buffers.result(out, (x,) + spec.tensors(),
                              lambda g: _coarse_first_grads(g, x, spec))
    geo = _phase_grid(x.shape[0], x.shape[2:], spec.kernel, spec.stride)
    acc = _tap_sum(spec.weights.data, geo.tap_views(geo.split(x.data, buffers)), buffers)
    out = buffers.output((x.shape[0], spec.c_out) + geo.out, x.data.dtype)
    np.copyto(out, geo.valid(acc).transpose(1, 0, 2, 3, 4))
    if spec.bias is not None:
        out += spec.bias.data.reshape(1, -1, 1, 1, 1)

    def _bw(g):
        if spec.bias is not None and spec.bias.requires_grad:
            _accumulate(spec.bias, g.sum(axis=(0, 2, 3, 4)))
        if not (spec.weights.requires_grad or x.requires_grad):
            return
        g_cols = np.zeros((spec.c_out, geo.cols))
        geo.valid(g_cols)[...] = g.transpose(1, 0, 2, 3, 4)
        if spec.weights.requires_grad:
            views = geo.tap_views(geo.split(x.data))
            _accumulate(spec.weights, _tap_sum_weight_grad(g_cols, views, spec.kernel))
        if x.requires_grad:
            dphases = np.zeros((len(geo.phases), spec.c_in, geo.batch * geo.size))
            _tap_sum_input_grad(spec.weights.data, g_cols, geo.tap_views(dphases))
            _accumulate(x, geo.merge(dphases))

    return buffers.result(out, (x,) + spec.tensors(), _bw)


# -- instance normalization ----------------------------------------------------


def instance_norm(
    x: Tensor, scale: Tensor, shift: Tensor, buffers: Buffers = FRESH, relu: bool = False
) -> Tensor:
    """Standardize each (batch, channel) slab over its spatial extent.

    With ``relu`` the result is clamped at zero in place by ``tensor.relu``'s
    forward, untaped, and the backward applies the ReLU's mask, taken from
    the output's sign, before the norm's adjoint.
    The backward keeps only ``x``, the output and the per-channel mean and
    1 / sigma: it recomputes x_hat = (x - mean) / sigma with the forward's
    own operations, so the values are those the forward normalized.
    """
    if len(x.shape) != 5:
        raise ShapeError(f"instance_norm needs a 5-D tensor, got {x.shape}")
    channels = x.shape[1]
    if scale.shape != (channels,) or shift.shape != (channels,):
        raise ContractError(
            f"instance_norm: scale/shift must have shape ({channels},), "
            f"got {scale.shape} and {shift.shape}"
        )

    # Two volume-sized buffers, each reused once (the squares become xhat,
    # the centred values the output): the norm is memory-bound, and every
    # further temporary is one more allocation and pass over the volume.
    mu = x.data.mean(axis=(2, 3, 4), keepdims=True)
    centered = np.subtract(x.data, mu, out=buffers.output(x.shape, x.data.dtype))
    xhat = np.square(centered, out=buffers.scratch(x.shape, x.data.dtype))
    var = xhat.mean(axis=(2, 3, 4), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + INSTANCE_NORM_EPS)
    np.multiply(centered, inv_std, out=xhat)
    gamma = scale.data.reshape(1, -1, 1, 1, 1)
    out = np.multiply(xhat, gamma, out=centered)
    out += shift.data.reshape(1, -1, 1, 1, 1)
    if relu:
        tensor.relu(Tensor(out), Untaped(out))

    def _bw(g):
        if relu:
            g = g * (out > 0.0)
        if shift.requires_grad:
            _accumulate(shift, g.sum(axis=(0, 2, 3, 4)))
        if not (scale.requires_grad or x.requires_grad):
            return
        xhat = np.subtract(x.data, mu)
        np.multiply(xhat, inv_std, out=xhat)
        gx = g * xhat
        if scale.requires_grad:
            _accumulate(scale, gx.sum(axis=(0, 2, 3, 4)))
        if x.requires_grad:
            g_mean = g.mean(axis=(2, 3, 4), keepdims=True)
            gx_mean = gx.mean(axis=(2, 3, 4), keepdims=True)
            dx = g - g_mean
            dx -= np.multiply(xhat, gx_mean, out=gx)
            dx *= gamma * inv_std
            _accumulate(x, dx)

    return buffers.result(out, (x, scale, shift), _bw)


# -- trilinear upsampling -------------------------------------------------------

# Bytes of block-local scratch per block of channels in ``_upsampled_sum``,
# which runs both the upsample (one tap: 14 values per channel and coarse
# voxel, the H-doubled and HW-doubled copies and the 0.25x and 0.75x terms
# of the largest pass) and a coarse-first conv's tap sum. Half of one
# core's 2 MiB L2 on the machine it was measured on, which left room for the
# output stream; the sweep that chose it (in float64) is in BENCH_8.json.
# A block holds as many channels as fit at the values' itemsize, so a
# float32 block holds twice the channels of a float64 one.
_UPSAMPLE_BLOCK_BYTES = 2**20


def _doubled(kernel) -> int:
    """Values per channel and coarse voxel of the largest doubled off-centre
    tap in ``_upsampled_sum``: 2, 4 or 8 after the H, W or D pass, 0 at one tap."""
    return max([0] + [2 << axis for axis, k in enumerate(kernel) if k > 1])


def _block_channels(kernel, c: int, voxels: int, itemsize: int) -> int:
    """Channels per block of ``_upsampled_sum``: as many as ``_UPSAMPLE_BLOCK_BYTES`` holds.

    Per channel and coarse voxel a block keeps the partial sums A and B,
    the largest doubled off-centre tap (``_doubled``) and the 0.25x/0.75x
    terms of the largest pass: 14 values at one tap.
    """
    kh, kw, kd = kernel
    per_channel = 2 * kw * kd + 4 * kd + _doubled(kernel) + 8
    return min(c, max(1, _UPSAMPLE_BLOCK_BYTES // (per_channel * itemsize * voxels)))


def _double_axis(a: np.ndarray, out: np.ndarray, quarter: np.ndarray, three: np.ndarray):
    """Double the middle axis of ``a`` [R, n, S] into ``out`` [R, 2n, S]:
    even[i] = 0.25 a[i-1] + 0.75 a[i], odd[i] = 0.75 a[i] + 0.25 a[i+1],
    with a[-1] and a[n] clamped to the edge values.

    ``quarter`` and ``three`` are flat scratch for the 0.25x and 0.75x
    terms. Both stencils run as one shift over all R * n rows of S values,
    so the inner loop spans the whole block even when S is 1 (the D
    pass); the shift is wrong only where it crosses from one R-row into
    the next, at i = 0 for even and i = n - 1 for odd, and those two
    n-th parts are then rewritten with the clamped edge.
    """
    r, n, s = a.shape
    rows = a.reshape(r * n, s)
    q = np.multiply(0.25, rows, out=quarter[: a.size].reshape(rows.shape))
    t = np.multiply(0.75, rows, out=three[: a.size].reshape(rows.shape))
    pairs = out.reshape(r * n, 2, s)
    even, odd = pairs[:, 0], pairs[:, 1]
    np.add(q[:-1], t[1:], out=even[1:])
    np.add(t[:-1], q[1:], out=odd[:-1])
    q, t = q.reshape(a.shape), t.reshape(a.shape)
    even, odd = even.reshape(a.shape), odd.reshape(a.shape)
    np.add(q[:, 0], t[:, 0], out=even[:, 0])
    np.add(t[:, -1], q[:, -1], out=odd[:, -1])


def _lerp_axis_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of ``_double_axis``: halve ``axis`` of the output gradient ``g``.

    Input voxel i collects 0.75 g[2i+1] + 0.25 g[2i+2] from the odd outputs
    and 0.25 g[2i-1] + 0.75 g[2i] from the even ones, the edges clamped.
    Each sum is grouped as a scatter-add over the outputs in ascending
    order would group it, so it rounds like one:
      interior  ((0.75 g[2i+1] + 0.25 g[2i+2]) + 0.25 g[2i-1]) + 0.75 g[2i]
      i = 0     ((0.25 g0 + 0.75 g1) + 0.25 g2) + 0.75 g0
      i = n-1   ((0.75 g[2n-1] + 0.25 g[2n-3]) + 0.75 g[2n-2]) + 0.25 g[2n-1]
      n = 1     ((0.25 g0 + 0.75 g1) + 0.75 g0) + 0.25 g1
    """
    gm = np.moveaxis(g, axis, 0)
    q_even, t_even = 0.25 * gm[0::2], 0.75 * gm[0::2]
    q_odd, t_odd = 0.25 * gm[1::2], 0.75 * gm[1::2]
    if len(q_even) == 1:
        out = q_even + t_odd
        out += t_even
        out += q_odd
        return np.moveaxis(out, 0, axis)
    out = np.empty_like(q_even)
    inner, first, last = out[1:-1], out[:1], out[-1:]
    np.add(t_odd[1:-1], q_even[2:], out=inner)
    inner += q_odd[:-2]
    inner += t_even[1:-1]
    np.add(q_even[:1], t_odd[:1], out=first)
    first += q_even[1:2]
    first += t_even[:1]
    np.add(t_odd[-1:], q_odd[-2:-1], out=last)
    last += t_even[-1:]
    last += q_odd[-1:]
    return np.moveaxis(out, 0, axis)


@functools.lru_cache(maxsize=128)
def _axis_shifts(k: int, n: int) -> tuple:
    """Per kernel index i along an axis of extent n, the (dst, src) slices of a "same" conv.

    Output index o takes index i's response at o + i - p (p the padding);
    where that index is padding, index i adds nothing. So
    ``out[dst] += response[src]`` adds it over the range where its source
    exists. Built once per (k, n), as every upsample asks for them.
    """
    shifts = [(k - 1) // 2 - i for i in range(k)]  # output index = input index + shift
    return tuple((slice(max(0, s), n + min(0, s)), slice(max(0, -s), n + min(0, -s))) for s in shifts)


def _axis_view(a: np.ndarray, axis: int) -> np.ndarray:
    """[R, n, S] view of a contiguous [C, H, W, D] block, n its spatial ``axis`` (0, 1, 2)."""
    return a.reshape(math.prod(a.shape[: 1 + axis]), a.shape[1 + axis], -1)


def _shifted_doubles(parts, axis: int, shifts, target, tmp, quarter, three):
    """target = sum over i of shift_i(double(parts[i])) along spatial ``axis``.

    ``double`` is one ``_double_axis`` pass and ``shifts`` the kernel axis'
    (dst, src) slices; the centre index, whose shift is zero, is doubled
    straight into ``target`` and the others are doubled into the flat
    scratch ``tmp`` and added at their shifts.
    """
    centre = len(parts) // 2
    _double_axis(_axis_view(parts[centre], axis), _axis_view(target, axis), quarter, three)
    if len(parts) == 1:
        return
    lead = (slice(None),) * (1 + axis)
    tmp = tmp[: target.size].reshape(target.shape)
    for i, (dst, src) in enumerate(shifts):
        if i != centre:
            _double_axis(_axis_view(parts[i], axis), _axis_view(tmp, axis), quarter, three)
            block = target[lead + (dst,)]
            np.add(block, tmp[lead + (src,)], out=block)


def _upsampled_sum(responses: np.ndarray, buffers: Buffers, bias=None) -> np.ndarray:
    """Sum over taps of shift_t(up(responses[:, t])), plus ``bias``: [B, C, 2h, 2w, 2d].

    ``responses`` is [B, kh, kw, kd, C, h, w, d], each tap's C channels on
    the coarse grid; ``up`` is the trilinear upsample and shift_t the tap's
    "same"-padded shift (``_axis_shifts``). The upsample doubles H, W, then
    D, and a shift along one axis commutes with the passes along the
    others, so the taps are summed one axis at a time: for each (j, k),
    A_jk = sum_i shift_i(up_H(R_ijk)); for each k, B_k = sum_j
    shift_j(up_W(A_jk)); out = sum_k shift_k(up_D(B_k)). For a (3, 3, 1)
    kernel that is 9 H passes, 3 W passes and 1 D pass, where upsampling
    each tap's responses would run 9 of each; one tap is the plain
    upsample. It runs one batch item and one block of channels at a time,
    so a block's partial sums and pass terms stay in cache
    (``_UPSAMPLE_BLOCK_BYTES``) and only the last D pass writes the output.
    """
    b, kh, kw, kd, c, h, w, d = responses.shape
    kernel = (kh, kw, kd)
    voxels = h * w * d
    fine = (2 * h, 2 * w, 2 * d)
    doubled = _doubled(kernel)
    m = _block_channels(kernel, c, voxels, responses.itemsize)
    dtype = responses.dtype
    part_h = buffers.scratch((kw, kd, m, 2 * h, w, d), dtype)
    part_w = buffers.scratch((kd, m, 2 * h, 2 * w, d), dtype)
    tmp = buffers.scratch(m * doubled * voxels, dtype) if doubled else None
    quarter = buffers.scratch(m * 4 * voxels, dtype)
    three = buffers.scratch(m * 4 * voxels, dtype)
    shift_h, shift_w, shift_d = (_axis_shifts(k, n) for k, n in zip(kernel, fine))
    out = buffers.output((b, c) + fine, dtype)
    for n in range(b):
        for c0 in range(0, c, m):
            mm = min(m, c - c0)
            ph, pw = part_h[:, :, :mm], part_w[:, :mm]
            for j in range(kw):
                for k in range(kd):
                    _shifted_doubles([responses[n, i, j, k, c0 : c0 + mm] for i in range(kh)],
                                     0, shift_h, ph[j, k], tmp, quarter, three)
            for k in range(kd):
                _shifted_doubles([ph[j, k] for j in range(kw)], 1, shift_w, pw[k], tmp, quarter, three)
            target = out[n, c0 : c0 + mm]
            _shifted_doubles(list(pw), 2, shift_d, target, tmp, quarter, three)
            if bias is not None:
                target += bias[c0 : c0 + mm].reshape(-1, 1, 1, 1)
    return out


def upsample_trilinear(x: Tensor, buffers: Buffers = FRESH) -> Tensor:
    """Double every spatial extent by trilinear interpolation.

    Uses the half-pixel-centre (align-corners false) convention with edge
    replication, applied separably along H, W, then D. Along one axis this
    is a fixed two-tap stencil written into the even and odd outputs:
    out[2i] = 0.25 x[i-1] + 0.75 x[i] and out[2i+1] = 0.75 x[i] + 0.25 x[i+1],
    with x[-1] = x[0] and x[n] = x[n-1] (``_double_axis``). The forward is
    the one-tap case of a coarse-first conv's tap sum (``_upsampled_sum``
    on ``x`` as a single tap's responses, without bias). The backward pass
    applies the transposed stencil (``_lerp_axis_adjoint``) along D, W,
    then H; neither pass gathers or scatters by index.
    """
    if len(x.shape) != 5:
        raise ShapeError(f"upsample_trilinear needs a 5-D tensor, got {x.shape}")
    out = _upsampled_sum(x.data[:, None, None, None], buffers)

    def _bw(g):
        if x.requires_grad:
            dx = g
            for axis in (4, 3, 2):
                dx = _lerp_axis_adjoint(dx, axis)
            _accumulate(x, dx)

    return buffers.result(out, (x,), _bw)


# -- coarse-first convolution of an upsample -------------------------------------


def _coarse_first_conv(p: np.ndarray, spec: ConvSpec, buffers: Buffers) -> np.ndarray:
    """The stride-1 conv of ``upsample_trilinear(p)``, with its bias if any: [B, c_out, 2h, 2w, 2d].

    Both operators are linear and the upsample acts per channel, so
    conv(up(p)) = sum over taps t of shift_t(up(W_t p)). One GEMM per tap
    of its weights [c_out, c_in] with the coarse input [c_in, voxels]
    gives the tap's c_out responses on the coarse grid (kn2row: Anderson
    et al., "Low-memory GEMM-based convolution algorithms for deep neural
    networks", 2017, here below the upsample), and ``_upsampled_sum``
    upsamples them and adds them at their shifts.
    """
    b, c_in, h, w, d = p.shape
    w_taps = _tap_view(spec.weights.data)
    responses = buffers.scratch((b,) + spec.kernel + (spec.c_out, h, w, d), p.dtype)
    by_tap = responses.reshape(b, -1, spec.c_out, h * w * d)
    with np.errstate(all="ignore"):
        for t in range(by_tap.shape[1]):
            np.matmul(w_taps[:, t], p.reshape(b, c_in, -1), out=by_tap[:, t])
    return _upsampled_sum(responses, buffers, None if spec.bias is None else spec.bias.data)


def _unshifted(a: np.ndarray, axis: int, dst: slice, src: slice) -> np.ndarray:
    """Adjoint of ``out[dst] += part[src]`` along ``axis`` of ``a``: a[dst] moved to src."""
    if dst == src:
        return a
    lead = (slice(None),) * axis
    out = np.zeros_like(a)
    out[lead + (src,)] = a[lead + (dst,)]
    return out


def _coarse_first_grads(g: np.ndarray, x: Tensor, spec: ConvSpec):
    """Adjoint of ``conv3d(x, spec, upsampled=True)``, its GEMMs on the coarse grid.

    The transpose of ``_coarse_first_conv``'s nested sums: the output
    gradient is moved back by each D shift and halved along D, each of
    those by each W shift and halved along W, and so on through H, giving
    g_t [c_out, batch * voxels] per tap on the coarse grid, stacked
    channel-major like the weights' memory. Then dW_t = g_t x.T and
    dx = sum_t W_t.T g_t, each one GEMM over the stacked taps.
    """
    if spec.bias is not None and spec.bias.requires_grad:
        _accumulate(spec.bias, g.sum(axis=(0, 2, 3, 4)))
    if not (spec.weights.requires_grad or x.requires_grad):
        return
    b, c_in, *extents = x.shape
    shift_h, shift_w, shift_d = (_axis_shifts(k, n) for k, n in zip(spec.kernel, g.shape[2:]))
    g_taps = np.empty((spec.c_out,) + spec.kernel + (b,) + tuple(extents))
    for k, (dk, sk) in enumerate(shift_d):
        gk = _lerp_axis_adjoint(_unshifted(g, 4, dk, sk), 4)
        for j, (dj, sj) in enumerate(shift_w):
            gjk = _lerp_axis_adjoint(_unshifted(gk, 3, dj, sj), 3)
            for i, (di, si) in enumerate(shift_h):
                gijk = _lerp_axis_adjoint(_unshifted(gjk, 2, di, si), 2)
                g_taps[:, i, j, k] = gijk.transpose(1, 0, 2, 3, 4)
    g_rows = g_taps.reshape(spec.c_out * math.prod(spec.kernel), -1)
    with np.errstate(all="ignore"):
        if spec.weights.requires_grad:
            x_cols = x.data.transpose(1, 0, 2, 3, 4).reshape(c_in, -1)
            dw = (g_rows @ x_cols.T).reshape(spec.c_out, -1, c_in)
            _accumulate(spec.weights, _from_taps(dw, spec.kernel))
        if x.requires_grad:
            w_rows = _tap_view(spec.weights.data).reshape(-1, c_in)
            dx = (w_rows.T @ g_rows).reshape((c_in, b) + tuple(extents))
            _accumulate(x, dx.transpose(1, 0, 2, 3, 4))


# -- a conv's path, chosen by a fitted cost model ----------------------------------

PER_TAP = "per tap"
COARSE_FIRST = "coarse-first"

# One path of a conv, counted from its shapes: the GEMM FLOPs it executes,
# the bytes its numpy and BLAS calls read and write, and how many calls it makes
ConvPath = namedtuple("ConvPath", "name flops bytes calls")

# The cost model's four constants, fitted by least squares (relative
# error) to the per-path forward times of the sweep in BENCH_22.json:
# every upsample -> conv pair of both nets at 8 to 64 base features, at
# 32x32x16, 64x64x32 and 64^3, in float64 with fresh arrays (the taped
# forward) and in float32 over planned buffers (``infer``), one BLAS thread.
_GEMM_FLOPS_PER_S = {np.dtype(np.float64): 47.4e9, np.dtype(np.float32): 78.1e9}
_BYTES_PER_S = 19.8e9
_SECONDS_PER_CALL = 3.80e-6


def _seconds(path: ConvPath, dtype) -> float:
    """The cost model: GEMM FLOPs at the dtype's GEMM rate, plus bytes at
    one memory speed, plus a fixed overhead per numpy or BLAS call."""
    return (path.flops / _GEMM_FLOPS_PER_S[np.dtype(dtype)] + path.bytes / _BYTES_PER_S
            + path.calls * _SECONDS_PER_CALL)


def _joined(name: str, *parts: ConvPath) -> ConvPath:
    return ConvPath(name, *(sum(column) for column in zip(*(p[1:] for p in parts))))


def _per_tap_path(spec: ConvSpec, shape, itemsize: int) -> ConvPath:
    """``conv3d``'s per-tap forward on a ``shape`` input: the phase split
    (one copy per phase and its six padding margins), a GEMM per tap on its
    column slice, the ``acc`` adds, the crop and the bias.

    Where the phases and the two accumulators fit in
    ``_UPSAMPLE_BLOCK_BYTES`` the taps re-read them in cache, so the tap
    loop moves each array once; otherwise every GEMM reads its weights and
    slice and writes its product, and every add reads two products and
    writes one.
    """
    b, c_in, *extents = shape
    geo = _phase_grid(b, tuple(extents), spec.kernel, spec.stride)
    taps, phases, acc = len(geo.taps), len(geo.phases), spec.c_out * geo.cols
    grid = phases * c_in * b * geo.size
    if (grid + 2 * acc) * itemsize <= _UPSAMPLE_BLOCK_BYTES:
        loop = taps * spec.c_out * c_in + grid + acc
    else:
        loop = taps * (spec.c_out * c_in + c_in * geo.cols + acc) + (taps - 1) * 3 * acc
    crop = b * spec.c_out * math.prod(geo.out) * (2 if spec.bias is None else 4)
    values = math.prod(shape) + grid + loop + crop
    calls = 7 * phases + 2 * taps + (spec.bias is not None)
    return ConvPath(PER_TAP, 2 * taps * spec.c_out * c_in * geo.cols, values * itemsize, calls)


def _coarse_gemms(spec: ConvSpec, c: int, voxels: int, itemsize: int) -> ConvPath:
    """``_coarse_first_conv``'s GEMMs: per tap, its weights times the coarse
    input [c, voxels] into the tap's responses. The taps re-read the input
    in cache where it fits in ``_UPSAMPLE_BLOCK_BYTES``, as in ``_per_tap_path``."""
    taps = math.prod(spec.kernel)
    reads = c * voxels if c * voxels * itemsize <= _UPSAMPLE_BLOCK_BYTES else taps * c * voxels
    values = taps * spec.c_out * c + reads + taps * spec.c_out * voxels
    return ConvPath(COARSE_FIRST, 2 * taps * spec.c_out * c * voxels, values * itemsize, taps)


def _upsampled_sum_path(batch: int, kernel, c: int, coarse, itemsize: int, bias: bool) -> ConvPath:
    """``_upsampled_sum`` of a ``kernel``'s responses, c channels on a ``coarse`` grid.

    A ``_double_axis`` pass over v values reads and writes 10 v of them
    (the 0.25x and 0.75x terms, then the even and odd outputs) in 6 calls;
    an off-centre part adds its 2v doubled values to the target at its
    shift, 6 v more in one call. The H pass doubles each group's kh parts,
    the W pass kw parts of twice the values and the D pass kd parts of
    four times; each block of channels runs every pass once.
    """
    kh, kw, kd = kernel
    v = batch * c * math.prod(coarse)
    blocks = batch * -(-c // _block_channels(kernel, c, math.prod(coarse), itemsize))
    values, calls = 16 * bias * v, bias
    for groups, parts, size in ((kw * kd, kh, v), (kd, kw, 2 * v), (1, kd, 4 * v)):
        values += groups * (16 * parts - 6) * size
        calls += groups * (7 * parts - 1)
    return ConvPath("", 0, values * itemsize, blocks * calls)


def _upsampled_paths(spec: ConvSpec, shape, itemsize: int) -> list:
    """The paths of a conv on the 2x trilinear upsample of a ``shape`` input:
    per tap after the upsample and, for a stride-1 conv, coarse-first."""
    b, c, *coarse = shape
    fine = (b, c) + tuple(2 * n for n in coarse)
    paths = [_joined(PER_TAP, _upsampled_sum_path(b, (1, 1, 1), c, coarse, itemsize, False),
                     _per_tap_path(spec, fine, itemsize))]
    if spec.stride == (1, 1, 1) and c == spec.c_in:
        paths.append(_joined(
            COARSE_FIRST, _coarse_gemms(spec, c, b * math.prod(coarse), itemsize),
            _upsampled_sum_path(b, spec.kernel, spec.c_out, coarse, itemsize, spec.bias is not None)))
    return paths


def conv_path(spec: ConvSpec, shape, dtype, upsampled: bool = False) -> ConvPath:
    """The path ``conv3d``'s forward takes on a ``shape`` input in ``dtype``, with its counts.

    With ``upsampled`` the conv's input is the 2x trilinear upsample of a
    ``shape`` input, which a stride-1 conv can skip: both operators are
    linear and the upsample acts per channel, so the conv's GEMMs can run
    on the coarse input, at 1/8 of the voxels, with each tap's c_out
    responses upsampled instead of the c_in input channels
    (``conv3d(..., upsampled=True)``). The per-tap path then counts the
    upsample it needs first, and the cheaper path under ``_seconds`` is
    returned, per tap on a tie. Nothing is timed: the counts come from the
    shapes the kernels use, the prices from the fitted constants.
    """
    itemsize = np.dtype(dtype).itemsize
    if not upsampled:
        return _per_tap_path(spec, shape, itemsize)
    return min(_upsampled_paths(spec, shape, itemsize), key=lambda path: _seconds(path, dtype))
