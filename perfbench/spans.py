"""Spans recorded from outside the program, around calls into its layers.

``instrument`` replaces the public functions that the ``mcdenoise``
modules resolve at call time with wrappers that open and close a span.
Each tensor a kernel or tensor op returns gets its backward closure
wrapped too, so every adjoint shows up as its own span under
``tensor.backward``.
Nothing under ``src/`` changes; the replacements are undone on exit.

Spans stay in memory as ``[name, start, end, parent, phase]`` lists and
are summarized (and optionally written out) only when the run ends. A
span's self time is its duration minus the time its direct children
cover; spans come from one thread, so children never overlap.
"""

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

from mcdenoise import kernels, metrics, model, perf, phantom, tensor, training, volio

NAME, START, END, PARENT, PHASE = range(5)


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = "setup"
        self.counters = defaultdict(float)  # (phase, key) -> summed value
        self.maxima = defaultdict(float)  # (phase, key) -> largest value seen

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    def count(self, key, value):
        self.counters[(self.phase, key)] += value

    def record_max(self, key, value):
        slot = (self.phase, key)
        self.maxima[slot] = max(self.maxima[slot], value)

    def wrap_backward(self, fn, name):
        def timed_backward(g):
            index = self.open(name)
            try:
                return fn(g)
            finally:
                self.close(index)

        timed_backward.__wrapped__ = fn
        return timed_backward


def summarize(spans):
    """Per (phase, name): call count, inclusive seconds and self seconds."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, child_time in zip(spans, covered):
        duration = span[END] - span[START]
        row = table[(span[PHASE], span[NAME])]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time
    return dict(table)


def conv_name(spec) -> str:
    """``conv331_s2`` for a (3, 3, 1) kernel with largest stride 2, and so on."""
    return "conv" + "".join(str(k) for k in spec.kernel) + f"_s{max(spec.stride)}"


def _array_root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_arrays(fn):
    fn = getattr(fn, "__wrapped__", fn)
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # cell not yet bound
            continue
        if isinstance(value, np.ndarray):
            yield value


def tape_footprint(out):
    """(tape nodes, bytes of activations retained) reachable from ``out``.

    Nodes are the non-leaf tensors of the recorded graph. Retained bytes
    are computed from array sizes: each node's value plus every array its
    backward closure captured (padded inputs, masks, normalized values),
    counting each underlying buffer once and leaving out buffers owned by
    leaves, which are the network input and the parameters.
    """
    nodes, leaves = [], []
    seen = set()
    stack = [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            nodes.append(t)
            stack.extend(t._parents)
        else:
            leaves.append(t)
    excluded = {id(_array_root(leaf.data)) for leaf in leaves}
    counted = set()
    total = 0
    for node in nodes:
        arrays = [node.data]
        if node._backward is not None:
            arrays.extend(_closure_arrays(node._backward))
        for a in arrays:
            root = _array_root(a)
            if id(root) in excluded or id(root) in counted:
                continue
            counted.add(id(root))
            total += root.nbytes
    return len(nodes), total


def _traced_op(tracer, fn, name_of, after=None, adjoint=False):
    """Wrap ``fn`` in a span; with ``adjoint``, also the backward closure of its result."""

    def wrapper(*args, **kwargs):
        name = name_of(args)
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if adjoint and isinstance(out, tensor.Tensor) and out._backward is not None:
            out._backward = tracer.wrap_backward(out._backward, name + ".bwd")
        if after is not None:
            after(name, args, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the layer functions of every ``mcdenoise`` module for the ``with`` body."""
    modules = (tensor, kernels, model, training, phantom, metrics, volio, perf)

    def fixed(name):
        return lambda args: name

    def conv_after(name, args, out):
        x, spec = args[0], args[1]
        tracer.count(name + ".flops", perf.conv_flops(spec.c_in, spec.kernel, spec.c_out, out.shape[2:]))
        tracer.count(name + ".bytes", x.data.nbytes + spec.weights.data.nbytes + out.data.nbytes)

    def forward_after(name, args, out):
        index = tracer.open("trace.tape_walk")
        try:
            nodes, nbytes = tape_footprint(out)
        finally:
            tracer.close(index)
        tracer.record_max("tensor.tape_nodes", nodes)
        tracer.record_max("tensor.retained_bytes", nbytes)

    def written(name, args, out):
        tracer.count("volio.bytes_written", _file_size(args[0]))

    def read(name, args, out):
        tracer.count("volio.bytes_read", _file_size(args[0]))

    def saved(name, args, out):
        tracer.count("model.checkpoint.bytes", _file_size(args[1]))

    # Single ops whose results carry an adjoint worth its own span.
    ops = [
        (kernels.conv3d, lambda args: "kernels." + conv_name(args[1]), conv_after),
        (kernels.instance_norm, fixed("kernels.instance_norm"), None),
        (kernels.upsample_trilinear, fixed("kernels.upsample"), None),
        (kernels.voxel_shuffle, fixed("kernels.shuffle"), None),
        (kernels.voxel_unshuffle, fixed("kernels.shuffle"), None),
        (tensor.concat, fixed("tensor.concat"), None),
        (tensor.relu, fixed("tensor.relu"), None),
    ]
    # Composite calls: the span covers the call only.
    calls = [
        (tensor.backward, fixed("tensor.backward"), None),
        (model.forward, fixed("model.forward"), forward_after),
        (model.build_proposed, fixed("model.build"), None),
        (model.save_checkpoint, fixed("model.checkpoint.save"), saved),
        (model.load_checkpoint, fixed("model.checkpoint.load"), None),
        (training.preprocess, fixed("training.preprocess"), None),
        (training.n2n_loss, fixed("training.n2n_loss"), None),
        (training.adam_step, fixed("training.adam_step"), None),
        (training.denoise_volume, fixed("training.denoise_volume"), None),
        (phantom.generate_dataset, fixed("phantom.generate_dataset"), None),
        (phantom.load_case, fixed("phantom.load"), None),
        (phantom.add_quantum_noise, fixed("phantom.add_quantum_noise"), None),
        (volio.write_dvol, fixed("volio.write"), written),
        (volio.write_dmsk, fixed("volio.write"), written),
        (volio.read_dvol, fixed("volio.read"), read),
        (volio.read_dmsk, fixed("volio.read"), read),
        (metrics.evaluate, fixed("metrics.evaluate"), None),
        (metrics.dvh, fixed("metrics.dvh"), None),
        (metrics.d_number, fixed("metrics.d_number"), None),
        (metrics.isodose_dice, fixed("metrics.isodose_dice"), None),
    ]
    originals = []
    for (fn, name_of, after), adjoint in [(op, True) for op in ops] + [(call, False) for call in calls]:
        wrapper = _traced_op(tracer, fn, name_of, after, adjoint)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                originals.append((module, attr, fn))
                setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
