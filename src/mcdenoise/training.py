"""Noise-to-noise training loop, Adam optimizer, and the equivalence probe.

The trainer never sees a clean volume: the loss is the mean squared error
between the network output and a second independent noisy realization,
which has the same minimizer as supervising against the clean signal when
the noise is zero mean. ``n2n_equivalence_probe`` demonstrates that
equivalence (and its failure under biased noise) on an analytically
solvable scalar model.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .model import NetworkGraph, forward, infer, save_checkpoint
from .phantom import NoisePair
from .tensor import Tensor, backward, zero_grads, zeros_in_order

LOG_EVERY = 50


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    iterations: int = 2000
    crop_extents: tuple[int, int, int] = (32, 32, 16)
    pad: int = 16  # per-dim effective pad is min(pad, extent // 4)
    normalization_dose: float = 80.0
    swap_input_target: bool = True
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails: every comparison with it is false
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in (0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if len(self.crop_extents) != 3 or any(e < 1 for e in self.crop_extents):
            raise ConfigError(f"bad crop extents {self.crop_extents}")
        if self.pad < 0:
            raise ConfigError("pad must be >= 0")
        if not 0.0 < self.normalization_dose < math.inf:
            raise ConfigError(
                f"normalization_dose must be positive and finite, got {self.normalization_dose}")


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


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_train_config(path, base: TrainConfig | None = None) -> TrainConfig:
    """Read a key=value file holding TrainConfig fields; unknown keys are errors."""
    cfg = base or TrainConfig()
    known = {f.name: f.type for f in fields(TrainConfig)}
    updates = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "crop_extents":
                updates[key] = parse_extents(value)
            elif key == "swap_input_target":
                if value.lower() not in _BOOL_WORDS:
                    raise ConfigError(f"{path}:{lineno}: bad boolean {value!r}")
                updates[key] = _BOOL_WORDS[value.lower()]
            elif key in ("iterations", "pad", "seed"):
                updates[key] = int(value)
            else:
                updates[key] = float(value)
    return replace(cfg, **updates)


def write_train_config(cfg: TrainConfig, path):
    lines = []
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        if f.name == "crop_extents":
            value = "x".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    """One bias-corrected Adam update using the gradients stored on the params."""
    if len(params) != len(state.m):
        raise ContractError("adam_step: parameter count does not match state")
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
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
        p.data -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


# -- preprocessing -----------------------------------------------------------------


def effective_pads(extents, pad: int) -> tuple[int, ...]:
    return tuple(min(pad, e // 4) for e in extents)


def preprocess(pair: NoisePair, cfg: TrainConfig, rng: np.random.Generator):
    """Normalize, pad, apply one shared random crop, and maybe swap roles.

    Both volumes are divided by the normalization dose, zero-padded by
    min(pad, extent // 4) per dimension, and cropped with the same window
    so input and target stay aligned. With swapping enabled the roles are
    exchanged with probability one half.
    """
    a, b = pair.input.values, pair.target.values
    if a.shape != b.shape:
        raise ContractError(f"preprocess: pair extents differ, {a.shape} vs {b.shape}")
    pads = effective_pads(a.shape, cfg.pad)
    padded_extents = tuple(e + 2 * p for e, p in zip(a.shape, pads))
    crop = cfg.crop_extents
    if any(c > pe for c, pe in zip(crop, padded_extents)):
        raise ConfigError(
            f"crop {crop} larger than padded volume {padded_extents}"
        )
    offsets = tuple(int(rng.integers(0, pe - c + 1)) for pe, c in zip(padded_extents, crop))

    pad_width = [(p, p) for p in pads]
    window = tuple(slice(o, o + c) for o, c in zip(offsets, crop))
    scale = 1.0 / cfg.normalization_dose
    xa = np.pad(a * scale, pad_width)[window]
    xb = np.pad(b * scale, pad_width)[window]
    if cfg.swap_input_target and rng.random() < 0.5:
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


def denoise_volume(net: NetworkGraph, values: np.ndarray, normalization_dose: float = 80.0):
    """Normalize, run the network without the tape (``model.infer``), and
    return the denoised grid in Gy.

    The network output is unconstrained; the dose map is clamped to be
    nonnegative here rather than inside the net. ``infer``'s output
    belongs to the caller, so it is clamped and scaled in place.
    """
    out = infer(net, values[None, None] / normalization_dose)[0, 0]
    np.clip(out, 0.0, None, out=out)
    out *= normalization_dose
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
