"""The three closed-loop workloads, driven through the public ``mcdenoise`` API.

Every call into the program goes through a module attribute
(``model.forward``, ``training.preprocess``, ...) so that the span
wrappers in ``spans.instrument`` see it. Each workload derives all of its
inputs from the workload seed; the program only ever receives the
generated volumes.

A workload object is set up once (``setup``), then ``op`` is called in a
closed loop: the next call starts when the previous one returns. ``op``
returns ``(forward_seconds, ok)``; a ``NumericError`` raised inside it
counts as a failed operation.
"""

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from mcdenoise import kernels, metrics, model, perf, phantom, tensor, training

MODEL_SEED = 2  # the README desk model
MODULE_SEED = 0  # the weights perf.bench_modules draws
HISTORIES = 2  # the README desk noise level
LOG_EVERY = 50  # as training.train logs


def derive_seeds(seed: int, count: int) -> list[int]:
    """Independent 32-bit stream seeds from one workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class DeskSize:
    """The README desk configuration; tests shrink it."""

    features: int = 8
    num_down: int = 3
    crop: tuple = (32, 32, 16)
    cases: int = 8
    realizations: int = 2
    eval_extents: tuple = (64, 64, 32)
    eval_cases: int = 2
    setup_steps: int = 300  # training steps of the held-out checkpoint


@dataclass(frozen=True)
class WideSize:
    """The paper's channel plan and the criterion-9 module regime; tests shrink it."""

    features: int = 64
    num_down: int = 5
    extents: tuple = (64, 64, 64)
    module_channels: int = 64
    module_extents: tuple = (32, 32, 16)


def module_flops(channels, extents):
    """Analytic forward FLOPs of the decoupled and the regular downsampling module.

    The stride-(2, 2, 1) axial conv emits twice the voxels of the module
    output, so the decoupled module costs (9 * 2 + 3) / 27 = 7/9 of the
    regular one, not the 4/9 of a stride-1 axial+slice pair.
    """
    c = channels
    h, w, d = extents
    axial = perf.conv_flops(c, (3, 3, 1), c, (h // 2, w // 2, d))
    slice_ = perf.conv_flops(c, (1, 1, 3), c, (h // 2, w // 2, d // 2))
    regular = perf.conv_flops(c, (3, 3, 3), c, (h // 2, w // 2, d // 2))
    return axial + slice_, regular


class Trainer:
    """One noise-to-noise training step at a time, exactly as ``training.train`` runs it."""

    def __init__(self, net, pairs, cfg):
        self.net = net
        self.pairs = pairs
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.params = net.param_tensors()
        self.state = training.AdamState(self.params)
        self.steps = 0
        self.log = []  # (step, loss) every LOG_EVERY steps

    def step(self):
        self.steps += 1
        pair = self.pairs[int(self.rng.integers(len(self.pairs)))]
        x, target = training.preprocess(pair, self.cfg, self.rng)
        start = time.perf_counter()
        out = model.forward(self.net, x)
        forward_s = time.perf_counter() - start
        loss = training.n2n_loss(out, target)
        value = loss.item()
        if not np.isfinite(value):
            return forward_s, False
        tensor.zero_grads(self.params)
        tensor.backward(loss)
        training.adam_step(self.params, self.state, self.cfg)
        if self.steps % LOG_EVERY == 0:
            self.log.append((self.steps, value))
        return forward_s, True

    def loss_decreased(self) -> bool:
        return len(self.log) >= 2 and self.log[-1][1] < self.log[0][1]

    def loss_tail(self) -> float:
        """Mean loss over the last four logged steps."""
        tail = [v for _, v in self.log[-4:]]
        return float(np.mean(tail)) if tail else float("nan")


def _desk_trainer(workdir, size: DeskSize, data_seed, train_seed) -> Trainer:
    data_dir = os.path.join(workdir, "train")
    phantom.generate_dataset(data_dir, size.crop, size.cases, HISTORIES, size.realizations, data_seed)
    pairs = phantom.load_dataset_pairs(data_dir)
    net = model.build_proposed(model.ScaledConfig(size.features, size.num_down, size.crop), MODEL_SEED)
    cfg = training.TrainConfig(crop_extents=size.crop, seed=train_seed)
    return Trainer(net, pairs, cfg)


class DeskTrain:
    """Noise-to-noise training steps of the README desk model."""

    name = "desk_train"
    warmup = 5

    def __init__(self, seed: int, size: DeskSize = DeskSize()):
        self.seed = seed
        self.size = size
        self.data_seed, self.train_seed = derive_seeds(seed, 2)

    def setup(self, workdir):
        self.trainer = _desk_trainer(workdir, self.size, self.data_seed, self.train_seed)

    def fingerprint(self) -> str:
        return _digest(a for p in self.trainer.pairs for a in (p.input.values, p.target.values))

    def op(self):
        return self.trainer.step()

    def flops_per_op(self) -> int:
        return perf.count_flops(self.trainer.net, self.size.crop).total_flops

    def checks(self):
        return [("training loss decreased", self.trainer.loss_decreased())]

    def quality(self):
        return {"training.loss_tail": self.trainer.loss_tail()}


class HeldoutEval:
    """The ``eval`` path: fresh noise, denoise, metrics on held-out cases."""

    name = "heldout_eval"
    warmup = 2

    def __init__(self, seed: int, size: DeskSize = DeskSize()):
        self.seed = seed
        self.size = size
        self.data_seed, self.test_seed, self.train_seed, self.noise_seed = derive_seeds(seed, 4)

    def setup(self, workdir):
        size = self.size
        trainer = _desk_trainer(workdir, size, self.data_seed, self.train_seed)
        self.setup_losses_finite = all(trainer.step()[1] for _ in range(size.setup_steps))
        self.setup_trainer = trainer
        path = os.path.join(workdir, "checkpoint.ddpk")
        model.save_checkpoint(trainer.net, path)
        self.net = model.load_checkpoint(path)
        with open(path, "rb") as fh:
            self.checkpoint_digest = hashlib.sha256(fh.read()).hexdigest()

        test_dir = os.path.join(workdir, "test")
        phantom.generate_dataset(test_dir, size.eval_extents, size.eval_cases, HISTORIES, 2, self.test_seed)
        self.cases = [phantom.load_case(d) for d in phantom.list_case_dirs(test_dir)]
        self.train_case_seeds = {phantom.case_seed(self.data_seed, i) for i in range(size.cases)}
        self.test_case_seeds = {phantom.case_seed(self.test_seed, i) for i in range(size.eval_cases)}
        self.noise_rng = np.random.default_rng(self.noise_seed)
        self.done = 0
        self.noisy_mse, self.denoised_mse, self.denoised_d95 = [], [], []

    def fingerprint(self) -> str:
        return self.checkpoint_digest

    def op(self):
        case = self.cases[self.done % len(self.cases)]
        self.done += 1
        nseed = int(self.noise_rng.integers(2**62))
        noisy = phantom.add_quantum_noise(case.clean, HISTORIES, nseed)
        start = time.perf_counter()
        denoised = training.denoise_volume(self.net, noisy.values)
        forward_s = time.perf_counter() - start
        ok = (
            denoised.shape == noisy.values.shape
            and bool(np.all(np.isfinite(denoised)))
            and bool(np.all(denoised >= 0.0))
        )
        before = metrics.evaluate(noisy.values, case.clean, case.ptv, case.body)
        after = metrics.evaluate(denoised, case.clean, case.ptv, case.body)
        self.noisy_mse.append(before.mse)
        self.denoised_mse.append(after.mse)
        self.denoised_d95.append(after.d95)
        return forward_s, ok

    def mse_ratio(self) -> float:
        return float(np.mean(self.denoised_mse) / np.mean(self.noisy_mse))

    def d95_abs_bias(self) -> float:
        return float(abs(np.mean(self.denoised_d95) - 1.0))

    def flops_per_op(self) -> int:
        return perf.count_flops(self.net, self.size.eval_extents).total_flops

    def checks(self):
        trainer = self.setup_trainer
        return [
            ("set-up training losses finite", self.setup_losses_finite),
            ("set-up training loss decreased", trainer.loss_decreased()),
            ("held-out cases disjoint from training cases", not (self.train_case_seeds & self.test_case_seeds)),
            ("held-out denoised/noisy MSE ratio below 1", self.mse_ratio() < 1.0),
        ]

    def quality(self):
        return {"metrics.mse_ratio": self.mse_ratio(), "metrics.d95_abs_bias": self.d95_abs_bias()}


class PaperWidth:
    """A forward pass at the paper's channel plan, plus the two criterion-9 modules.

    One operation is a round: the wide forward, then the decoupled and the
    regular module in an order that alternates between rounds.
    """

    name = "paper_width"
    warmup = 1

    def __init__(self, seed: int, size: WideSize = WideSize()):
        self.seed = seed
        self.size = size
        self.phantom_seed, self.noise_seed, self.module_input_seed = derive_seeds(seed, 3)

    def setup(self, workdir):
        size = self.size
        self.net = model.build_proposed(
            model.ScaledConfig(size.features, size.num_down, size.extents), MODEL_SEED
        )
        spec = phantom.default_spec(size.extents, seed=self.phantom_seed)
        noisy = phantom.add_quantum_noise(phantom.generate_clean(spec), HISTORIES, self.noise_seed)
        self.x = tensor.Tensor(noisy.values[None, None] / training.TrainConfig.normalization_dose)

        # The same draws, in the same order, as perf.bench_modules(seed=0).
        rng = np.random.default_rng(MODULE_SEED)
        c = size.module_channels
        self.regular = kernels.make_conv_spec(c, c, (3, 3, 3), (2, 2, 2), rng)
        self.axial = kernels.make_conv_spec(c, c, (3, 3, 1), (2, 2, 1), rng)
        self.slice = kernels.make_conv_spec(c, c, (1, 1, 3), (1, 1, 2), rng)
        self.norms = [
            (tensor.Tensor(np.ones(c), requires_grad=True), tensor.Tensor(np.zeros(c), requires_grad=True))
            for _ in range(3)
        ]
        module_rng = np.random.default_rng(self.module_input_seed)
        self.xm = tensor.Tensor(module_rng.standard_normal((1, c) + tuple(size.module_extents)))
        self.module_out_shape = (1, c) + tuple(e // 2 for e in size.module_extents)
        self.rounds = 0
        self.decoupled_s, self.regular_s = [], []

    def fingerprint(self) -> str:
        return _digest([self.x.data, self.xm.data] + [t.data for t in self.net.param_tensors()])

    def regular_module(self, x):
        return tensor.relu(kernels.instance_norm(kernels.conv3d(x, self.regular), *self.norms[0]))

    def decoupled_module(self, x):
        h = tensor.relu(kernels.instance_norm(kernels.conv3d(x, self.axial), *self.norms[1]))
        return tensor.relu(kernels.instance_norm(kernels.conv3d(h, self.slice), *self.norms[2]))

    def _timed_module(self, fn, samples):
        start = time.perf_counter()
        out = fn(self.xm)
        samples.append(time.perf_counter() - start)
        return out.shape == self.module_out_shape and bool(np.all(np.isfinite(out.data)))

    def op(self):
        start = time.perf_counter()
        out = model.forward(self.net, self.x)
        forward_s = time.perf_counter() - start
        ok = out.shape == self.x.shape and bool(np.all(np.isfinite(out.data)))
        del out
        order = [(self.decoupled_module, self.decoupled_s), (self.regular_module, self.regular_s)]
        if self.rounds % 2:
            order.reverse()
        for fn, samples in order:
            ok = self._timed_module(fn, samples) and ok
        self.rounds += 1
        return forward_s, ok

    def flops_per_op(self) -> int:
        decoupled, regular = module_flops(self.size.module_channels, self.size.module_extents)
        return perf.count_flops(self.net, self.size.extents).total_flops + decoupled + regular

    def checks(self):
        return []

    def quality(self):
        dec = float(np.median(self.decoupled_s)) * 1e3
        reg = float(np.median(self.regular_s)) * 1e3
        return {
            "perf.decoupled_module_ms_p50": dec,
            "perf.regular_module_ms_p50": reg,
            "perf.module_time_ratio": dec / reg,
        }


WORKLOADS = {w.name: w for w in (DeskTrain, HeldoutEval, PaperWidth)}

