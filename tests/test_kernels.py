import numpy as np
import pytest

from mcdenoise import kernels as K
from mcdenoise.errors import ContractError, ShapeError
from mcdenoise.tensor import Tensor

from helpers import (
    check_gradients,
    conv3d_loops,
    instance_norm_loops,
    lerp_axis_adjoint_scatter,
    lerp_axis_take,
    trilinear_loops,
)


def _rand(rng, shape, requires_grad=False):
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=requires_grad)


def _spec(rng, c_in, c_out, kernel, stride, requires_grad=True):
    taps = int(np.prod(kernel))
    w = Tensor(rng.normal(0.0, 0.5, (c_out, c_in) + tuple(kernel)), requires_grad=requires_grad)
    b = Tensor(rng.normal(0.0, 0.1, (c_out,)), requires_grad=requires_grad)
    return K.ConvSpec(c_in, c_out, tuple(kernel), tuple(stride), w, b)


# -- voxel shuffle / unshuffle -----------------------------------------------------


def test_unshuffle_shape():
    x = Tensor(np.zeros((1, 1, 4, 4, 2)))
    assert K.voxel_unshuffle(x).shape == (1, 8, 2, 2, 1)


def test_unshuffle_channel_assignment():
    # a lone nonzero at odd H, even W, even D must land in channel 4*0+2*0+1
    x = np.zeros((1, 1, 4, 4, 4))
    x[0, 0, 1, 0, 0] = 5.0
    out = K.voxel_unshuffle(Tensor(x)).data
    assert out[0, 1, 0, 0, 0] == 5.0
    assert np.count_nonzero(out) == 1
    # and the general rule: offset (i, j, k) lands in channel 4k + 2j + i
    for i in range(2):
        for j in range(2):
            for k in range(2):
                x = np.zeros((1, 1, 4, 4, 4))
                x[0, 0, 2 + i, j, 2 + k] = 1.0
                out = K.voxel_unshuffle(Tensor(x)).data
                assert out[0, 4 * k + 2 * j + i, 1, 0, 1] == 1.0


def test_unshuffle_multiset_preserved():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6, 4, 8))
    out = K.voxel_unshuffle(Tensor(x)).data
    assert np.array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


def test_unshuffle_norm_preserved():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, 4, 6, 2))
    out = K.voxel_unshuffle(Tensor(x)).data
    # permutation: sorted squares sum to bit-identical norms
    a = np.sort(np.abs(x.ravel()))
    b = np.sort(np.abs(out.ravel()))
    assert np.array_equal(a, b)


def test_shuffle_shape_and_roundtrip():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(1, 8, 2, 2, 1)))
    y = K.voxel_shuffle(x)
    assert y.shape == (1, 1, 4, 4, 2)
    assert np.array_equal(K.voxel_unshuffle(y).data, x.data)
    for shape in [(1, 1, 4, 4, 2), (2, 2, 6, 4, 8), (1, 3, 2, 2, 2)]:
        x = Tensor(rng.normal(size=shape))
        assert np.array_equal(K.voxel_shuffle(K.voxel_unshuffle(x)).data, x.data)


def test_shuffle_constant_stays_constant():
    x = Tensor(np.full((1, 8, 3, 3, 3), 2.5))
    assert np.all(K.voxel_shuffle(x).data == 2.5)


def test_shuffle_errors():
    with pytest.raises(ShapeError):
        K.voxel_unshuffle(Tensor(np.zeros((1, 1, 3, 4, 4))))
    with pytest.raises(ShapeError):
        K.voxel_shuffle(Tensor(np.zeros((1, 4, 2, 2, 2))))


# -- conv3d --------------------------------------------------------------------------


def test_conv_identity_kernel():
    rng = np.random.default_rng(3)
    x = _rand(rng, (1, 1, 3, 4, 5))
    spec = K.ConvSpec(
        1, 1, (1, 1, 1), (1, 1, 1), Tensor(np.ones((1, 1, 1, 1, 1))), Tensor(np.zeros(1))
    )
    out = K.conv3d(x, spec)
    assert np.allclose(out.data, x.data)


def test_conv_all_ones_interior():
    spec = K.ConvSpec(
        1, 1, (3, 3, 3), (1, 1, 1), Tensor(np.ones((1, 1, 3, 3, 3))), Tensor(np.zeros(1))
    )
    out = K.conv3d(Tensor(np.ones((1, 1, 5, 5, 5))), spec)
    assert out.data[0, 0, 2, 2, 2] == 27.0


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(4):
        x = rng.normal(size=(1, 2, 5, 5, 4))
        spec = _spec(rng, 2, 3, (3, 3, 3), (1, 1, 1))
        got = K.conv3d(Tensor(x), spec).data
        want = conv3d_loops(x, spec.weights.data, spec.bias.data, (1, 1, 1), (1, 1, 1))
        assert np.max(np.abs(got - want)) < 1e-10


def test_conv_strided_matches_loop_oracle():
    rng = np.random.default_rng(5)
    cases = [
        # (input shape, c_out, kernel, stride, output shape)
        ((1, 2, 6, 6, 4), 2, (3, 3, 3), (2, 2, 2), (1, 2, 3, 3, 2)),
        ((1, 2, 6, 6, 4), 3, (3, 3, 1), (2, 2, 1), (1, 3, 3, 3, 4)),
        ((1, 2, 4, 4, 6), 3, (1, 1, 3), (1, 1, 2), (1, 3, 4, 4, 3)),
        # odd extents under stride-2 axes: the padded extents round up
        ((1, 2, 5, 7, 3), 2, (3, 3, 3), (2, 1, 2), (1, 2, 3, 7, 2)),
        ((2, 3, 5, 5, 4), 2, (3, 3, 1), (2, 2, 1), (2, 2, 3, 3, 4)),
        # the deepest paper-width backbone level, 1x1x2 and its 2x2x2 input,
        # whose grids have fewer columns than output channels
        ((1, 3, 1, 1, 2), 4, (1, 1, 3), (1, 1, 2), (1, 4, 1, 1, 1)),
        ((1, 3, 2, 2, 2), 4, (3, 3, 1), (2, 2, 1), (1, 4, 1, 1, 2)),
        ((1, 3, 1, 1, 2), 4, (3, 3, 1), (1, 1, 1), (1, 4, 1, 1, 2)),
        # stride-1 channel reductions, also run coarse-first on an upsample below
        ((1, 18, 5, 6, 4), 2, (3, 3, 1), (1, 1, 1), (1, 2, 5, 6, 4)),
        ((2, 12, 4, 3, 6), 3, (1, 1, 3), (1, 1, 1), (2, 3, 4, 3, 6)),
        ((1, 27, 4, 5, 3), 1, (3, 3, 3), (1, 1, 1), (1, 1, 4, 5, 3)),
        ((1, 8, 5, 6, 4), 2, (3, 3, 1), (1, 1, 1), (1, 2, 5, 6, 4)),
    ]
    paths = set()
    for shape, c_out, kernel, stride, out_shape in cases:
        x = rng.normal(size=shape)
        spec = _spec(rng, shape[1], c_out, kernel, stride)
        got = K.conv3d(Tensor(x), spec).data
        padding = [(k - 1) // 2 for k in kernel]
        want = conv3d_loops(x, spec.weights.data, spec.bias.data, stride, padding)
        assert got.shape == out_shape
        assert np.max(np.abs(got - want)) < 1e-10
        paths.add("per tap")
        if stride == (1, 1, 1) and shape[1] >= 8:
            # the conv of this input's 2x upsample, coarse-first on the input itself
            coarse = x[:, :, : shape[2] // 2 + 1, : shape[3] // 2 + 1, : shape[4] // 2 + 1]
            got = K.conv3d(Tensor(coarse), spec, upsampled=True).data
            up = K.upsample_trilinear(Tensor(coarse)).data
            want = conv3d_loops(up, spec.weights.data, spec.bias.data, stride, padding)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-10
            paths.add("coarse-first")
    assert paths == {"per tap", "coarse-first"}


S1 = (1, 1, 1)


@pytest.mark.parametrize("c_in, c_out, kernel, stride, extents, takes", [
    (128, 8, (3, 3, 1), S1, (32, 32, 32), True),  # paper-width top pyramid conv
    (128, 1, (3, 3, 3), S1, (64, 64, 64), True),  # paper-width UNet head
    (256, 64, (3, 3, 1), S1, (16, 16, 16), True),  # paper-width level-2 pyramid conv: ratio 806
    (32, 8, (3, 3, 1), S1, (16, 16, 8), False),  # desk top pyramid conv: ratio 101
    (16, 1, (3, 3, 3), S1, (64, 64, 32), False),  # desk UNet head: ratio 69
    (256, 64, (3, 3, 3), S1, (32, 32, 32), True),  # UNet decoder conv: ratio 526
    (128, 8, (3, 3, 1), (2, 2, 1), (32, 32, 32), False),  # input and output voxels differ
])
def test_kn2row_only_where_the_responses_fit_in_the_input(
        c_in, c_out, kernel, stride, extents, takes):
    # the coarse-first rule (kn2row below the upsample) for a conv at ``extents``
    # whose input is the 2x upsample of a half-extent volume
    spec = _spec(np.random.default_rng(24), c_in, c_out, kernel, stride)
    coarse = (1, c_in) + tuple(n // 2 for n in extents)
    assert K.coarse_first(spec, coarse) == takes


# (channels per block, doubles per channel and coarse voxel) where the test
# shrinks the scratch budget: blocks of 2, 2 and 1, and of 3 and 1, channels
# per batch item
COARSE_FIRST_BLOCKS = {(2, 3, 2, 3, 2): (2, 22), (2, 3, 2, 2, 3): (3, 46)}


@pytest.mark.parametrize("shape, c_out, kernel", [
    ((1, 6, 3, 4, 2), 2, (3, 3, 1)),
    ((2, 5, 2, 3, 4), 3, (1, 1, 3)),
    ((2, 4, 3, 2, 3), 2, (3, 3, 3)),
    ((1, 7, 2, 3, 2), 1, (3, 3, 3)),
    ((1, 3, 1, 2, 1), 1, (3, 3, 1)),  # extent-one axes
    ((1, 4, 2, 3, 2), 2, (3, 1, 3)),  # a unit kernel axis between two wide ones
    ((1, 4, 2, 3, 2), 2, (1, 1, 1)),
    ((2, 3, 2, 3, 2), 5, (3, 3, 1)),  # several channel blocks, the last one partial
    ((2, 3, 2, 2, 3), 4, (3, 3, 3)),  # several channel blocks, the last one partial
])
def test_coarse_first_matches_upsample_then_conv(shape, c_out, kernel, monkeypatch):
    rng = np.random.default_rng(25)
    x = rng.normal(size=shape)
    spec = _spec(rng, shape[1], c_out, kernel, S1)
    blocks = COARSE_FIRST_BLOCKS.get(shape)
    widths = []  # channels of each block's last (D) pass
    if blocks is not None:
        block, doubles = blocks
        voxels = shape[2] * shape[3] * shape[4]
        monkeypatch.setattr(K, "_UPSAMPLE_BLOCK_BYTES", block * doubles * 8 * voxels)
        shifted_doubles = K._shifted_doubles

        def spy(parts, axis, *rest):
            if axis == 2:
                widths.append(len(parts[0]))
            return shifted_doubles(parts, axis, *rest)

        monkeypatch.setattr(K, "_shifted_doubles", spy)
    got = K.conv3d(Tensor(x), spec, upsampled=True).data
    if blocks is not None:
        tail = c_out % block
        assert c_out > block and tail
        assert widths == shape[0] * ([block] * (c_out // block) + [tail])
    up = K.upsample_trilinear(Tensor(x))
    want = K.conv3d(up, spec).data
    assert got.shape == (shape[0], c_out) + tuple(2 * n for n in shape[2:])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    oracle = conv3d_loops(up.data, spec.weights.data, spec.bias.data, S1,
                          [(k - 1) // 2 for k in kernel])
    assert np.max(np.abs(got - oracle)) < 1e-10


def test_coarse_first_needs_stride_one():
    spec = _spec(np.random.default_rng(26), 2, 2, (3, 3, 1), (2, 2, 1))
    with pytest.raises(ContractError):
        K.conv3d(Tensor(np.zeros((1, 2, 2, 2, 2))), spec, upsampled=True)


def test_conv_channel_mismatch():
    rng = np.random.default_rng(6)
    spec = _spec(rng, 2, 2, (3, 3, 3), (1, 1, 1))
    with pytest.raises(ContractError):
        K.conv3d(Tensor(np.zeros((1, 3, 4, 4, 4))), spec)


def test_conv_spec_validation():
    with pytest.raises(ContractError):
        K.ConvSpec(1, 1, (2, 2, 2), (1, 1, 1), Tensor(np.zeros((1, 1, 2, 2, 2))), Tensor(np.zeros(1)))
    with pytest.raises(ContractError):
        K.ConvSpec(1, 2, (3, 3, 3), (1, 1, 1), Tensor(np.zeros((1, 1, 3, 3, 3))), Tensor(np.zeros(2)))


@pytest.mark.parametrize("c_in, c_out", [(0, 4), (4, 0), (-4, 4)])
def test_make_conv_spec_needs_channels(c_in, c_out):
    # zero channels divided by zero in the Glorot bound; negative ones reached numpy
    with pytest.raises(ContractError, match="channel"):
        K.make_conv_spec(c_in, c_out, (3, 3, 1), (1, 1, 1), np.random.default_rng(0))


# -- axial and slice convolutions ------------------------------------------------------


def test_axial_slice_kernel_patterns():
    rng = np.random.default_rng(7)
    with pytest.raises(ContractError):
        K.conv_axial(Tensor(np.zeros((1, 1, 4, 4, 4))), _spec(rng, 1, 1, (1, 1, 3), (1, 1, 1)))
    with pytest.raises(ContractError):
        K.conv_slice(Tensor(np.zeros((1, 1, 4, 4, 4))), _spec(rng, 1, 1, (3, 3, 1), (1, 1, 1)))


def test_axial_stride_shapes():
    rng = np.random.default_rng(8)
    out = K.conv_axial(Tensor(np.zeros((1, 1, 8, 8, 8))), _spec(rng, 1, 4, (3, 3, 1), (2, 2, 1)))
    assert out.shape == (1, 4, 4, 4, 8)
    out = K.conv_slice(Tensor(np.zeros((1, 1, 4, 4, 8))), _spec(rng, 1, 4, (1, 1, 3), (1, 1, 2)))
    assert out.shape == (1, 4, 4, 4, 4)


def test_separable_composition_equals_conv3d():
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.normal(size=(1, 1, 6, 6, 6))
        g = rng.normal(size=(3, 3))  # in-plane factor
        f = rng.normal(size=(3,))  # through-plane factor
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
        composed = K.conv_slice(K.conv_axial(Tensor(x), axial), slc).data
        direct = K.conv3d(Tensor(x), full).data
        assert np.max(np.abs(composed - direct)) < 1e-10


def test_stride_ledger_matches_single_downsampling():
    rng = np.random.default_rng(10)
    x = Tensor(np.zeros((1, 4, 8, 8, 8)))
    axial = K.conv_axial(x, _spec(rng, 4, 4, (3, 3, 1), (2, 2, 1)))
    decoupled = K.conv_slice(axial, _spec(rng, 4, 4, (1, 1, 3), (1, 1, 2)))
    regular = K.conv3d(x, _spec(rng, 4, 4, (3, 3, 3), (2, 2, 2)))
    assert decoupled.shape == regular.shape == (1, 4, 4, 4, 4)


# -- instance norm -----------------------------------------------------------------------


def test_instance_norm_standardizes():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(2.0, 3.0, (2, 3, 4, 4, 4)))
    out = K.instance_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))).data
    for n in range(2):
        for c in range(3):
            assert abs(out[n, c].mean()) < 1e-9
            assert abs(out[n, c].var() - 1.0) < 1e-3  # eps keeps it just below 1


def test_instance_norm_constant_input():
    x = Tensor(np.full((1, 2, 3, 3, 3), 7.0))
    out = K.instance_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2))).data
    assert np.all(out == 0.0)


def test_instance_norm_matches_two_pass_oracle():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 3, 4, 2))
    scale = rng.normal(size=3)
    shift = rng.normal(size=3)
    got = K.instance_norm(Tensor(x), Tensor(scale), Tensor(shift)).data
    want = instance_norm_loops(x, scale, shift, K.INSTANCE_NORM_EPS)
    assert np.max(np.abs(got - want)) < 1e-10


def test_instance_norm_guards():
    with pytest.raises(ContractError):
        K.instance_norm(
            Tensor(np.zeros((1, 2, 2, 2, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3))
        )


# -- trilinear upsampling ----------------------------------------------------------------


def test_upsample_constant():
    out = K.upsample_trilinear(Tensor(np.full((1, 2, 3, 3, 2), 4.2)))
    assert out.shape == (1, 2, 6, 6, 4)
    assert np.allclose(out.data, 4.2)


def test_upsample_preserves_linear_ramp_interior():
    ramp = np.arange(8.0)[None, None, :, None, None] * np.ones((1, 1, 8, 4, 4))
    out = K.upsample_trilinear(Tensor(ramp)).data
    # interior output i maps to source coordinate i/2 - 0.25
    for i in range(2, 14):
        expected = i / 2.0 - 0.25
        assert abs(out[0, 0, i, 4, 4] - expected) < 1e-9


def test_upsample_matches_eight_neighbour_oracle():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 2, 3, 3, 2))
    got = K.upsample_trilinear(Tensor(x)).data
    want = trilinear_loops(x)
    assert np.max(np.abs(got - want)) < 1e-10


# extents 1 and 2 (an axis that is all edge), odd extents, batch 2, several
# channel blocks, and the paper-width pyramid level
UPSAMPLE_SHAPES = [
    (1, 2, 1, 1, 1),
    (2, 3, 5, 4, 3),
    (1, 4, 1, 7, 2),
    (1, 32, 2, 2, 1),
    (1, 10, 4, 3, 5),
    (2, 5, 3, 4, 2),
    (1, 128, 16, 16, 16),
]
# channels per block where the test shrinks it: blocks of 3, 3, 3 and 1
# channels, and of 3 and 2 per batch item
UPSAMPLE_BLOCKS = {(1, 10, 4, 3, 5): 3, (2, 5, 3, 4, 2): 3}


@pytest.mark.parametrize("shape", UPSAMPLE_SHAPES)
def test_upsample_bit_identical_to_take_scatter_oracle(shape, monkeypatch):
    block = UPSAMPLE_BLOCKS.get(shape)
    if block is not None:
        # the budget of ``block`` channels' scratch: 14 doubles per input voxel each
        voxels = shape[2] * shape[3] * shape[4]
        monkeypatch.setattr(K, "_UPSAMPLE_BLOCK_BYTES", block * 14 * 8 * voxels)
        assert shape[1] > block and shape[1] % block  # several blocks, the last one partial
    rng = np.random.default_rng(sum(shape))
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = K.upsample_trilinear(x)
    want = x.data
    for axis in (2, 3, 4):
        want = lerp_axis_take(want, axis)
    assert np.array_equal(out.data, want)

    g = rng.normal(size=out.shape)
    want_dx = g
    for axis in (4, 3, 2):
        want_dx = lerp_axis_adjoint_scatter(want_dx, axis, shape[axis])
    out._backward(g)
    assert np.array_equal(x.grad, want_dx)


# -- gradient checks over every kernel ------------------------------------------------------


def test_gradcheck_conv3d():
    rng = np.random.default_rng(14)
    for _ in range(3):
        x = _rand(rng, (1, 2, 4, 4, 3), requires_grad=True)
        spec = _spec(rng, 2, 2, (3, 3, 3), (1, 1, 1))
        check_gradients(
            lambda: K.conv3d(x, spec).square().mean(), [x, spec.weights, spec.bias]
        )


def test_gradcheck_conv_strided():
    rng = np.random.default_rng(15)
    # the second input has a mixed stride and few enough grid columns to
    # stack its taps into one GEMM; the first runs a GEMM per tap
    for shape, c_out, stride in [((1, 2, 4, 4, 4), 3, (2, 2, 2)), ((1, 2, 2, 3, 2), 5, (2, 1, 2))]:
        x = _rand(rng, shape, requires_grad=True)
        spec = _spec(rng, shape[1], c_out, (3, 3, 3), stride)
        check_gradients(lambda: K.conv3d(x, spec).square().mean(), [x, spec.weights, spec.bias])


def test_gradcheck_conv_kn2row():
    # coarse-first, kn2row below the upsample: gradients in the coarse input, weights and bias
    rng = np.random.default_rng(23)
    x = _rand(rng, (1, 9, 3, 4, 3), requires_grad=True)
    spec = _spec(rng, 9, 1, (3, 3, 1), (1, 1, 1))
    assert K.coarse_first(spec, x.shape)
    check_gradients(lambda: K.conv3d(x, spec, upsampled=True).square().mean(),
                    [x, spec.weights, spec.bias])
    for shape, c_out, kernel in [((2, 2, 2, 2, 2), 2, (3, 3, 3)), ((1, 3, 2, 1, 3), 2, (1, 1, 3))]:
        x = _rand(rng, shape, requires_grad=True)
        spec = _spec(rng, shape[1], c_out, kernel, (1, 1, 1))
        check_gradients(lambda: K.conv3d(x, spec, upsampled=True).square().mean(),
                        [x, spec.weights, spec.bias])


def test_gradcheck_axial_and_slice():
    rng = np.random.default_rng(16)
    x = _rand(rng, (1, 2, 4, 4, 4), requires_grad=True)
    a = _spec(rng, 2, 2, (3, 3, 1), (2, 2, 1))
    s = _spec(rng, 2, 2, (1, 1, 3), (1, 1, 2))
    check_gradients(
        lambda: K.conv_slice(K.conv_axial(x, a), s).square().mean(),
        [x, a.weights, a.bias, s.weights, s.bias],
    )


def test_gradcheck_instance_norm():
    rng = np.random.default_rng(17)
    x = _rand(rng, (1, 2, 3, 3, 2), requires_grad=True)
    scale = Tensor(rng.normal(1.0, 0.2, 2), requires_grad=True)
    shift = Tensor(rng.normal(0.0, 0.2, 2), requires_grad=True)
    check_gradients(lambda: K.instance_norm(x, scale, shift).square().mean(), [x, scale, shift])


def test_gradcheck_upsample():
    rng = np.random.default_rng(18)
    x = _rand(rng, (1, 2, 3, 3, 2), requires_grad=True)
    check_gradients(lambda: K.upsample_trilinear(x).square().mean(), [x])


def test_gradcheck_upsample_extent_one_axis():
    rng = np.random.default_rng(22)
    x = _rand(rng, (1, 2, 1, 3, 2), requires_grad=True)
    check_gradients(lambda: K.upsample_trilinear(x).square().mean(), [x])


def test_gradcheck_shuffles():
    rng = np.random.default_rng(19)
    x = _rand(rng, (1, 1, 4, 4, 2), requires_grad=True)
    check_gradients(lambda: K.voxel_unshuffle(x).square().mean(), [x])
    y = _rand(rng, (1, 8, 2, 2, 2), requires_grad=True)
    check_gradients(lambda: K.voxel_shuffle(y).square().mean(), [y])
