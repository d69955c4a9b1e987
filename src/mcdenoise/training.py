"""Noise-to-noise training loop, Adam optimizer, and the equivalence probe.

The trainer never sees a clean volume: the loss is the mean squared error
between the network output and a second independent noisy realization,
which has the same minimizer as supervising against the clean signal when
the noise is zero mean. ``n2n_equivalence_probe`` demonstrates that
equivalence (and its failure under biased noise) on an analytically
solvable scalar model.

Adam runs at its published defaults (Kingma & Ba, "Adam", ICLR 2015) and
preprocessing always pads by ``PAD`` and may swap input and target; only
the ``TrainConfig`` fields vary from run to run.
"""

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import volio
from .errors import ConfigError, ContractError, NumericError
from .model import NetworkGraph, forward, infer, save_checkpoint
from .phantom import DEFAULT_PRESCRIPTION_GY, NoisePair
from .tensor import Tensor, backward, zero_grads, zeros_in_order

LOG_EVERY = 50
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
PAD = 16  # the effective pad per axis is min(PAD, extent // 4)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    iterations: int = 2000
    crop_extents: tuple[int, int, int] = (32, 32, 16)
    seed: int = 0
    # not a field, so nothing can set it; the name stays for perfbench's workloads
    normalization_dose: ClassVar[float] = DEFAULT_PRESCRIPTION_GY

    def __post_init__(self):
        # written so that NaN fails: every comparison with it is false
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if len(self.crop_extents) != 3 or any(e < 1 for e in self.crop_extents):
            raise ConfigError(f"bad crop extents {self.crop_extents}")
        if not 0 <= self.seed < 2**64:  # checkpoints store it as u64
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


def parse_extents(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ConfigError(f"extents must look like 32x32x16, got {text!r}")
    try:
        extents = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"extents must be integers, got {text!r}") from exc
    if any(e < 1 for e in extents):
        raise ConfigError(f"extents must be positive, got {text!r}")
    return extents


# TrainConfig's field types, each with the parser of its text
_PARSERS = {int: int, float: float, tuple[int, int, int]: parse_extents}


def parse_train_config(path) -> TrainConfig:
    """Read a key=value file (``volio.read_kv``) holding TrainConfig fields;
    an unknown key or a value that does not parse is a ``ConfigError``."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    updates = {}
    for key, text in volio.read_kv(path).items():
        if key not in types:
            raise ConfigError(f"{path}: unknown key {key!r}")
        try:
            updates[key] = _PARSERS[types[key]](text)
        except ValueError as exc:  # ConfigError from parse_extents too
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from None
    return TrainConfig(**updates)


# -- loss and optimizer ----------------------------------------------------------


def n2n_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all voxels."""
    if pred.shape != target.shape:
        raise ContractError(f"n2n_loss: shape mismatch {pred.shape} vs {target.shape}")
    return (pred - target).square().mean()


class AdamState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params: list[Tensor]):
        self.m = [zeros_in_order(p.data) for p in params]
        self.v = [zeros_in_order(p.data) for p in params]
        self.t = 0


def adam_step(params: list[Tensor], state: AdamState, cfg: TrainConfig):
    """One bias-corrected Adam update (``ADAM_BETAS``, ``ADAM_EPS``) using the
    gradients stored on the params."""
    if len(params) != len(state.m):
        raise ContractError("adam_step: parameter count does not match state")
    state.t += 1
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            raise ContractError("adam_step: parameter has no gradient")
        if p.grad.shape != p.data.shape:
            raise ContractError("adam_step: gradient/parameter shape mismatch")
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- preprocessing -----------------------------------------------------------------


def effective_pads(extents) -> tuple[int, ...]:
    return tuple(min(PAD, e // 4) for e in extents)


def check_crop(extents, cfg: TrainConfig):
    """The effective pads and padded extents of a volume of ``extents``;
    a ``ConfigError`` when ``cfg.crop_extents`` does not fit the padded volume."""
    pads = effective_pads(extents)
    padded_extents = tuple(e + 2 * p for e, p in zip(extents, pads))
    if any(c > pe for c, pe in zip(cfg.crop_extents, padded_extents)):
        raise ConfigError(f"crop {cfg.crop_extents} larger than padded volume {padded_extents}")
    return pads, padded_extents


def preprocess(pair: NoisePair, cfg: TrainConfig, rng: np.random.Generator):
    """Normalize, pad, apply one shared random crop, and maybe swap roles.

    Both volumes are divided by the prescription dose, zero-padded by
    min(PAD, extent // 4) per dimension, and cropped with the same window
    so input and target stay aligned. The roles are then exchanged with
    probability one half.
    """
    a, b = pair.input.values, pair.target.values
    if a.shape != b.shape:
        raise ContractError(f"preprocess: pair extents differ, {a.shape} vs {b.shape}")
    pads, padded_extents = check_crop(a.shape, cfg)
    crop = cfg.crop_extents
    offsets = tuple(int(rng.integers(0, pe - c + 1)) for pe, c in zip(padded_extents, crop))

    pad_width = [(p, p) for p in pads]
    window = tuple(slice(o, o + c) for o, c in zip(offsets, crop))
    scale = 1.0 / DEFAULT_PRESCRIPTION_GY
    xa = np.pad(a * scale, pad_width)[window]
    xb = np.pad(b * scale, pad_width)[window]
    if rng.random() < 0.5:
        xa, xb = xb, xa
    return Tensor(xa[None, None]), Tensor(xb[None, None])


# -- training loop -------------------------------------------------------------------


def train(
    net: NetworkGraph,
    pairs: list[NoisePair],
    cfg: TrainConfig,
    log_path=None,
    checkpoint_path=None,
    progress=None,
) -> list[tuple[int, float]]:
    """Run the sample/preprocess/forward/loss/backward/update loop.

    Returns the ``(step, loss)`` log sampled every 50 steps; optionally
    writes it as CSV and saves the final checkpoint.
    """
    if not pairs:
        raise ContractError("train: dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    params = net.param_tensors()
    state = AdamState(params)
    log = []
    for step in range(1, cfg.iterations + 1):
        pair = pairs[int(rng.integers(len(pairs)))]
        x, target = preprocess(pair, cfg, rng)
        out = forward(net, x)
        loss = n2n_loss(out, target)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss at step {step}")
        zero_grads(params)
        backward(loss)
        adam_step(params, state, cfg)
        if step % LOG_EVERY == 0:
            log.append((step, value))
            if progress is not None:
                progress(step, value)
    if log_path is not None:
        write_loss_log(log, log_path)
    if checkpoint_path is not None:
        save_checkpoint(net, checkpoint_path)
    return log


def write_loss_log(log, path):
    with open(path, "w") as fh:
        fh.write("step,loss\n")
        for step, value in log:
            fh.write(f"{step},{value!r}\n")


def denoise_volume(net: NetworkGraph, values: np.ndarray):
    """Divide by the prescription dose, run the network without the tape
    (``model.infer``), and return the denoised grid in Gy.

    The network output is unconstrained; the dose map is clamped to be
    nonnegative here rather than inside the net. ``infer``'s output
    belongs to the caller, so it is clamped and scaled in place.
    """
    out = infer(net, values[None, None] / DEFAULT_PRESCRIPTION_GY)[0, 0]
    np.clip(out, 0.0, None, out=out)
    out *= DEFAULT_PRESCRIPTION_GY
    return out


# -- scalar equivalence probe -----------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Least-squares linear denoisers fit against clean and noisy targets."""

    slope_clean: float
    intercept_clean: float
    slope_noisy: float
    intercept_noisy: float
    n_samples: int

    @property
    def slope_gap(self) -> float:
        return abs(self.slope_noisy - self.slope_clean)

    @property
    def intercept_shift(self) -> float:
        return self.intercept_noisy - self.intercept_clean


def _least_squares_line(y, t):
    y_mean, t_mean = y.mean(), t.mean()
    slope = ((y - y_mean) * (t - t_mean)).mean() / ((y - y_mean) ** 2).mean()
    return slope, t_mean - slope * y_mean


def n2n_equivalence_probe(
    n_samples: int,
    seed: int = 0,
    clean_mean: float = 0.5,
    clean_std: float = 1.0,
    noise_std: float = 1.0,
    noise_mean: float = 0.0,
) -> ProbeReport:
    """Fit y -> a*y + b against the clean signal and against a second noisy copy.

    With zero-mean noise the two fits agree up to sampling error; a biased
    second noise channel shifts the noisy-target intercept by the bias.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(clean_mean, clean_std, n_samples)
    e1 = rng.normal(0.0, noise_std, n_samples)
    e2 = rng.normal(noise_mean, noise_std, n_samples)
    y1 = x + e1
    a_clean, b_clean = _least_squares_line(y1, x)
    a_noisy, b_noisy = _least_squares_line(y1, x + e2)
    return ProbeReport(a_clean, b_clean, a_noisy, b_noisy, n_samples)


def probe_population_optimum(clean_mean=0.5, clean_std=1.0, noise_std=1.0):
    """Infinite-sample minimizer shared by both objectives."""
    slope = clean_std**2 / (clean_std**2 + noise_std**2)
    return slope, clean_mean * (1.0 - slope)
