"""Monte Carlo dose denoising toolkit.

A CPU reference implementation of a real-time volumetric dose denoiser:
voxel shuffle/unshuffle operators, decoupled axial+slice convolutions, a
lightweight pyramid network and its UNet baseline, a synthetic
dose-phantom generator with a controllable quantum-noise model,
noise-to-noise training, clinical dose metrics, and analytic
FLOPs/parameter profiling.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    NumericError,
    ShapeError,
)
from .tensor import Tensor, backward, concat
from .kernels import (
    ConvSpec,
    conv3d,
    instance_norm,
    make_conv_spec,
    upsample_trilinear,
    voxel_shuffle,
    voxel_unshuffle,
)
from .model import (
    NetworkGraph,
    ScaledConfig,
    build_proposed,
    build_unet_baseline,
    forward,
    infer,
    load_checkpoint,
    save_checkpoint,
)
from .phantom import (
    DoseVolume,
    NoisePair,
    PhantomSpec,
    add_quantum_noise,
    generate_clean,
    generate_dataset,
)
from .training import TrainConfig, adam_step, n2n_equivalence_probe, n2n_loss, preprocess, train
from .metrics import MetricsReport, d_number, dvh, dvh_error, evaluate, isodose_dice, mse
from .perf import FlopsReport, bench_modules, count_flops, count_params
