"""Dense N-D tensors with reverse-mode automatic differentiation.

Tensors are stored row-major (last dimension fastest), so for the
(B, C, H, W, D) convention used by the volumetric kernels the depth axis
is contiguous in memory. The op graph recorded during a forward pass is
the tape: ``backward`` visits it exactly once in reverse topological
order and accumulates gradients additively into every leaf that requested
them. The tape runs in float64; gradient checks need the headroom.

Only an untaped leaf (no parents, no ``requires_grad``) keeps float32
data: ``model.infer`` computes in float32 over such tensors, and every
op takes the dtype of its output and temporaries from its input. Any
other tensor is float64, and ``Buffers.result`` refuses to record an op
with a float32 parent (``ContractError``), so the tape never holds a
float32 value.

The ops: this module holds the tape and three ops, ``relu``, ``concat``
and ``mul``; ``kernels`` holds the network's other layers and
``training.n2n_loss`` the loss. Each is one taped op with its own adjoint.

Gradient ownership: a backward closure never writes to the gradient it
receives, nor to an array it passes on, because one array may reach
several nodes (``concat`` hands out views of its own, two of them to a
tensor it joins with itself). An interior node starts each
traversal without a gradient, stores the first array it is given as is,
and combines later ones out of place (``grad = grad + g``). Only leaves
own their gradient buffers and accumulate into them in place.

Interior gradients live for one traversal: ``backward`` drops them all
when it ends, so only leaves hold gradients afterwards, and a training
step's interior gradients are freed before the next step's forward
rather than with their graph. They are dropped together, not each once
its node's closure has run: that would also lower the traversal's own
peak, but it lets the allocator trim the freed heap top mid-traversal,
and the arrays allocated next fault it back in, which slowed the desk
training step.

Buffers: an op takes its output and temporary arrays from a ``Buffers``
object and hands its result to ``Buffers.result``. The default, ``FRESH``,
allocates every array and records the op on the tape. ``Untaped``
records nothing and writes where it is told: ``model.infer`` runs each
layer in one over views of a planned arena, and a kernel runs another
op's forward over its own result in one (the fused norm's ReLU). Each
op's forward arithmetic is therefore written once and runs every way.

What the tape keeps: a backward closure reads only its op's inputs, its
output and per-channel statistics, never a kernel's temporary. What the
backward needs beyond them it recomputes from them: the fused norm and
ReLU (``kernels.instance_norm(..., relu=True)``) takes the ReLU's mask
from its output's sign and recomputes its normalized values. A taped
forward of either network therefore retains its layers' values and little
else (Chen et al., "Training Deep Nets with Sublinear Memory Cost", 2016,
trade storage for recomputation the same way). The one op that keeps more
is a standalone ``relu``, with a one-byte mask per value; the networks
tape none, as each of their norm layers runs its ReLU in the norm's kernel.
"""

import numpy as np

from .errors import ContractError


class Tensor:
    """A float64 array (float32 only untaped, see the module docstring), an
    optional gradient buffer, and a backward rule.

    Leaf tensors (no parents) own their data; tensors produced by ops hold
    references to their parents and a closure implementing the chain rule.
    Values are immutable once created; training loops update leaf ``data``
    in place between steps and rebuild the graph every iteration.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        data = np.asarray(data)
        if requires_grad or _parents or data.dtype != np.float32:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        # Leaves get a zero buffer up front so non-participating leaves
        # report a zero gradient after any backward pass.
        self.grad = (
            zeros_in_order(self.data) if (self.requires_grad and not _parents) else None
        )
        self._parents = tuple(_parents)
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def is_leaf(self) -> bool:
        return not self._parents

    def zero_grad(self):
        if self._parents:
            self.grad = None  # may be shared with other nodes: drop it, never write it
        elif self.grad is not None:
            self.grad[...] = 0.0

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# -- creation ---------------------------------------------------------------


def zeros_in_order(a: np.ndarray) -> np.ndarray:
    """Zeros of ``a``'s shape laid out in ``a``'s memory order.

    A leaf's gradient and its optimizer state take their data's memory
    order (conv weights are not C-ordered, see ``kernels``), so updates
    combine arrays stepping through memory alike; mixed orders make numpy
    iterate strided and buffer. Unlike ``np.zeros_like`` this leaves the
    pages untouched until written, so an unused gradient costs no memory.
    """
    order = np.argsort(np.negative(a.strides), kind="stable")  # outermost axis first
    return np.zeros([a.shape[i] for i in order]).transpose(np.argsort(order))


# -- backward machinery ------------------------------------------------------


def _accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad`` without writing to any array ``t`` does not own."""
    if t._parents:
        t.grad = g if t.grad is None else t.grad + g
        return
    if t.grad is None:
        t.grad = zeros_in_order(t.data)
    t.grad += g


def _topo_order(root: Tensor) -> list:
    """Parents-before-children ordering of the recorded op graph."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Gradients accumulate additively across calls, so the backward of a sum
    of losses equals the sum of the individual backwards.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.is_leaf():
        if loss.requires_grad:
            _accumulate(loss, np.ones(loss.data.shape))
        return
    order = _topo_order(loss)
    loss.grad = np.ones(loss.data.shape)
    try:
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
    finally:
        # Interior grads hold this traversal's arrays only (see the module
        # docstring); leaf grads persist and keep accumulating.
        for node in order:
            if not node.is_leaf():
                node.grad = None


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


class Buffers:
    """Where an op's output and temporaries come from, and whether it records the tape.

    This default allocates each array fresh and records the op (see the
    module docstring); ``Untaped`` records nothing.
    """

    def output(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype)

    def scratch(self, shape, dtype) -> np.ndarray:
        """A temporary that is dead once the op returns; no backward closure reads it."""
        return np.empty(shape, dtype)

    def result(self, data, parents, backward_fn) -> Tensor:
        if any(p.requires_grad for p in parents):
            if any(p.data.dtype != np.float64 for p in parents):
                raise ContractError("a taped op needs float64 inputs; float32 runs only untaped")
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward_fn)
        return Tensor(data)


FRESH = Buffers()


class Untaped(Buffers):
    """Records nothing: the output is ``out`` and temporaries come from
    ``scratch.take``, each fresh when None."""

    def __init__(self, out: np.ndarray | None = None, scratch=None):
        self.out = out
        self.temps = scratch

    def output(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype) if self.out is None else self.out

    def scratch(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype) if self.temps is None else self.temps.take(shape, dtype)

    def result(self, data, parents, backward_fn) -> Tensor:
        return Tensor(data)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. No layer calls it; perfbench's tape-footprint
    test builds its two-node tape from it."""
    if a.shape != b.shape:
        raise ContractError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return FRESH.result(a.data * b.data, (a, b), _bw)


def relu(a: Tensor, buffers: Buffers = FRESH) -> Tensor:
    """max(a, 0); NaN stays NaN. The same values as selecting on the mask,
    which branches on every voxel and is about 10x slower on a mask
    without pattern."""
    mask = a.data > 0.0 if a.requires_grad else None  # only a taped result reads it

    def _bw(g):
        if a.requires_grad:
            _accumulate(a, g * mask)

    out = buffers.output(a.shape, a.data.dtype)
    return buffers.result(np.maximum(a.data, 0.0, out=out), (a,), _bw)


def concat(tensors, buffers: Buffers = FRESH) -> Tensor:
    """Concatenate along the channel axis; all other extents must match."""
    tensors = list(tensors)
    if len(tensors) < 2:
        raise ContractError("concat needs at least two tensors")
    base = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(base):
            raise ContractError("concat: rank mismatch")
        if t.shape[:1] + t.shape[2:] != base[:1] + base[2:]:
            raise ContractError(f"concat: non-channel extent mismatch {t.shape} vs {base}")
    widths = [t.shape[1] for t in tensors]
    splits = np.cumsum(widths)[:-1]
    out = buffers.output(base[:1] + (sum(widths),) + base[2:], tensors[0].data.dtype)

    def _bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=1)):
            if t.requires_grad:
                _accumulate(t, piece)

    np.concatenate([t.data for t in tensors], axis=1, out=out)
    return buffers.result(out, tuple(tensors), _bw)
