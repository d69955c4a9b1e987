"""Shared test oracles: finite differences and naive reference kernels.

Everything here is deliberately independent of the library's fast paths:
plain loops, two-sided difference quotients, and the index gather/scatter
upsample that the library's stencil must match bit for bit. Also a guard
that keeps checkpoint tests from building a corrupt header's network.
"""

import numpy as np

from mcdenoise import model, training
from mcdenoise.tensor import Tensor, backward, zero_grads


def finite_difference_grads(fn, tensors, eps=1e-5):
    """Central-difference gradient of ``fn(*tensors)`` w.r.t. each tensor.

    ``fn`` must return a scalar Tensor and must not cache tensor data
    between calls; the data buffers are perturbed in place, element by
    multi-index, so the perturbation reaches arrays of any memory order.
    """
    grads = []
    for t in tensors:
        g = np.zeros(t.data.shape)
        for i in np.ndindex(t.data.shape):
            original = t.data[i]
            t.data[i] = original + eps
            up = fn().item()
            t.data[i] = original - eps
            down = fn().item()
            t.data[i] = original
            g[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def mean_square(t):
    """The gradchecks' scalar: the mean of ``t``'s squares, ``n2n_loss`` against zeros."""
    return training.n2n_loss(t, Tensor(np.zeros(t.shape)))


# ``model.infer`` computes in float32 and ``model.forward`` in float64; the contract is
# max|infer - forward| <= INFER_TOL * max|forward|. The worst case measured was 2.1e-6,
# the paper-width proposed net (64 features, 5 modules, seed 0) at 64x64x64 on a uniform
# [0, 1) input; the README's desk checkpoint (2000 steps) gave at most 1.4e-6, on a
# uniform input at 64x64x32. 1e-5 is about 4.8 times the worst.
INFER_TOL = 1e-5


def infer_error(got, want):
    """max|got - want| over max|want|: what ``INFER_TOL`` bounds."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def relative_error(a, b):
    na = np.linalg.norm(np.asarray(a).ravel())
    nb = np.linalg.norm(np.asarray(b).ravel())
    denom = max(na, nb, 1e-12)
    return np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / denom


def check_gradients(fn, tensors, eps=1e-5, tol=1e-4):
    """Assert analytic gradients match central differences for every input."""
    zero_grads(tensors)
    loss = fn()
    backward(loss)
    numeric = finite_difference_grads(fn, tensors, eps=eps)
    for t, num in zip(tensors, numeric):
        err = relative_error(t.grad, num)
        assert err < tol, f"gradient mismatch: relative error {err:.3e}"


def conv3d_loops(x, w, b, stride, padding):
    """Six-nested-loop cross-correlation over one padded volume."""
    batch, c_in, h, wd, d = x.shape
    c_out, _, kh, kw, kd = w.shape
    sh, sw, sd = stride
    ph, pw, pd = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw), (pd, pd)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    od = (d + 2 * pd - kd) // sd + 1
    out = np.zeros((batch, c_out, oh, ow, od))
    for n in range(batch):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    for k in range(od):
                        acc = 0.0
                        for ci in range(c_in):
                            for a in range(kh):
                                for bb in range(kw):
                                    for c in range(kd):
                                        acc += (
                                            xp[n, ci, i * sh + a, j * sw + bb, k * sd + c]
                                            * w[co, ci, a, bb, c]
                                        )
                        out[n, co, i, j, k] = acc + b[co]
    return out


def instance_norm_loops(x, scale, shift, eps):
    """Two-pass per-instance-channel standardization."""
    out = np.zeros_like(x)
    batch, channels = x.shape[:2]
    for n in range(batch):
        for c in range(channels):
            slab = x[n, c]
            mu = slab.mean()
            var = ((slab - mu) ** 2).mean()
            out[n, c] = scale[c] * (slab - mu) / np.sqrt(var + eps) + shift[c]
    return out


def trilinear_loops(x):
    """Explicit eight-neighbour weighted average for factor-2 upsampling."""
    batch, channels, h, w, d = x.shape
    out = np.zeros((batch, channels, 2 * h, 2 * w, 2 * d))

    def src(o, n):
        c = (o + 0.5) / 2.0 - 0.5
        i0 = int(np.floor(c))
        f = c - i0
        return max(0, min(i0, n - 1)), max(0, min(i0 + 1, n - 1)), f

    for n in range(batch):
        for c in range(channels):
            for i in range(2 * h):
                i0, i1, fi = src(i, h)
                for j in range(2 * w):
                    j0, j1, fj = src(j, w)
                    for k in range(2 * d):
                        k0, k1, fk = src(k, d)
                        acc = 0.0
                        for (ii, wi) in ((i0, 1 - fi), (i1, fi)):
                            for (jj, wj) in ((j0, 1 - fj), (j1, fj)):
                                for (kk, wk) in ((k0, 1 - fk), (k1, fk)):
                                    acc += wi * wj * wk * x[n, c, ii, jj, kk]
                        out[n, c, i, j, k] = acc
    return out


def _take_scatter_indices(n):
    """Half-pixel-centre source indices and weight for doubling an axis of extent n."""
    coords = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
    base = np.floor(coords).astype(np.int64)
    frac = coords - base
    return np.clip(base, 0, n - 1), np.clip(base + 1, 0, n - 1), frac


def lerp_axis_take(a, axis):
    """Doubling one axis by gathering both neighbours with ``np.take``."""
    lo, hi, frac = _take_scatter_indices(a.shape[axis])
    shape = [1] * a.ndim
    shape[axis] = frac.size
    f = frac.reshape(shape)
    return np.take(a, lo, axis=axis) * (1.0 - f) + np.take(a, hi, axis=axis) * f


def lerp_axis_adjoint_scatter(g, axis, n_in):
    """Adjoint of ``lerp_axis_take`` by ``np.add.at`` scatter, outputs in ascending order."""
    lo, hi, frac = _take_scatter_indices(n_in)
    gm = np.moveaxis(g, axis, 0)
    out = np.zeros((n_in,) + gm.shape[1:])
    fcol = frac.reshape((-1,) + (1,) * (gm.ndim - 1))
    np.add.at(out, lo, gm * (1.0 - fcol))
    np.add.at(out, hi, gm * fcol)
    return np.moveaxis(out, 0, axis)


def dvh_loops(values, mask, bins, max_dose):
    """Counting-loop cumulative DVH."""
    doses = values[mask]
    n = doses.size
    width = max_dose / bins
    edges = np.array([i * width for i in range(bins)])
    frac = np.array([(doses >= e).sum() / n for e in edges])
    return edges, frac


def d_number_loops(values, mask, percent):
    """Sort-and-count reference for the minimum dose to percent% coverage."""
    doses = sorted(values[mask].tolist())
    n = len(doses)
    best = None
    for d in doses:
        covered = sum(1 for v in doses if v >= d)
        if covered * 100.0 >= percent * n:
            best = d if best is None else max(best, d)
    return best


def dice_loops(a, b, threshold):
    ma = a >= threshold
    mb = b >= threshold
    na, nb = ma.sum(), mb.sum()
    if na + nb == 0:
        return 1.0
    return 2.0 * (ma & mb).sum() / (na + nb)


# Above every config that a checkpoint of under 48 KB can claim and still
# pass the reader's size check (28 + num_down * (24 + 88 * base_features)
# bytes at least), far below what a flipped high byte claims.
BUILD_CAP = 1024


def guard_build_network(monkeypatch):
    """Make ``model.build_network`` fail fast on a config above ``BUILD_CAP``.

    A checkpoint reader that builds whatever a corrupt header claims then
    fails the test at once instead of looping or allocating without bound.
    """
    real = model.build_network

    def guarded(name, cfg, seed=0):
        if cfg.base_features > BUILD_CAP or cfg.num_down > BUILD_CAP:
            raise AssertionError(
                f"built {name} with base_features {cfg.base_features}, num_down {cfg.num_down}"
            )
        return real(name, cfg, seed)

    monkeypatch.setattr(model, "build_network", guarded)
