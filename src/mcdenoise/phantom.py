"""Synthetic dose phantoms and the surrogate quantum-noise model.

Stands in for a Monte Carlo engine: clean volumes are sums of pencil
beams (exponential attenuation along the axis, Gaussian lateral falloff)
masked to an ellipsoidal body and scaled so the spherical target volume
receives the prescription dose on average. Noise is drawn per voxel from
a zero-mean Gaussian whose variance is proportional to the local dose and
inversely proportional to the simulated history count, which is the
statistical behaviour the denoiser is trained against.

``DEFAULT_PRESCRIPTION_GY`` is the one dose scale, of the noise and of the
network's input; ``stream_seed`` is the one rule that derives every random
stream (case, dataset realization, eval draw) from a master seed.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError, NumericError
from . import volio

DEFAULT_VOXEL_MM = (2.34, 2.34, 3.0)
DEFAULT_PRESCRIPTION_GY = 80.0
N_BEAMS = 3


@dataclass(frozen=True)
class Beam:
    entry_mm: tuple[float, float, float]
    direction: tuple[float, float, float]  # unit vector
    sigma_mm: float  # lateral Gaussian width
    mu_per_mm: float  # attenuation coefficient
    weight_gy: float


@dataclass(frozen=True)
class PhantomSpec:
    extents: tuple[int, int, int]
    beams: tuple[Beam, ...]
    ptv_center_vox: tuple[float, float, float]
    ptv_radius_mm: float
    body_center_vox: tuple[float, float, float]
    body_semi_axes_mm: tuple[float, float, float]
    voxel_size_mm: tuple[float, float, float] = DEFAULT_VOXEL_MM
    seed: int = 0


@dataclass
class DoseVolume:
    """A dose grid in Gy with its geometry and provenance."""

    values: np.ndarray  # (H, W, D) float64
    voxel_size_mm: tuple[float, float, float] = DEFAULT_VOXEL_MM
    histories: int = 0  # 0 means clean
    seed: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise NumericError("dose volume contains non-finite values")
        if self.histories < 0:
            raise ContractError(f"histories must be >= 0, got {self.histories}")

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass
class NoisePair:
    """Two independent noisy realizations of the same clean volume."""

    input: DoseVolume
    target: DoseVolume
    clean_id: str


def _voxel_centers_mm(extents, voxel_size):
    axes = [(np.arange(n) + 0.5) * s for n, s in zip(extents, voxel_size)]
    return np.meshgrid(*axes, indexing="ij")


def sphere_mask(extents, voxel_size, center_vox, radius_mm) -> np.ndarray:
    hh, ww, dd = _voxel_centers_mm(extents, voxel_size)
    cx, cy, cz = ((c + 0.5) * s for c, s in zip(center_vox, voxel_size))
    r2 = (hh - cx) ** 2 + (ww - cy) ** 2 + (dd - cz) ** 2
    return r2 <= radius_mm**2


def ellipsoid_mask(extents, voxel_size, center_vox, semi_axes_mm) -> np.ndarray:
    hh, ww, dd = _voxel_centers_mm(extents, voxel_size)
    cx, cy, cz = ((c + 0.5) * s for c, s in zip(center_vox, voxel_size))
    ax, ay, az = semi_axes_mm
    q = ((hh - cx) / ax) ** 2 + ((ww - cy) / ay) ** 2 + ((dd - cz) / az) ** 2
    return q <= 1.0


def ptv_mask(spec: PhantomSpec) -> np.ndarray:
    return sphere_mask(spec.extents, spec.voxel_size_mm, spec.ptv_center_vox, spec.ptv_radius_mm)


def body_mask(spec: PhantomSpec) -> np.ndarray:
    return ellipsoid_mask(
        spec.extents, spec.voxel_size_mm, spec.body_center_vox, spec.body_semi_axes_mm
    )


def generate_clean(spec: PhantomSpec) -> DoseVolume:
    """Superpose the beams, mask to the body, scale the target mean to prescription."""
    body = body_mask(spec)
    ptv = ptv_mask(spec)
    if not ptv.any():
        raise ConfigError("target sphere contains no voxels")
    if np.any(ptv & ~body):
        raise ConfigError("target sphere must lie inside the body")

    hh, ww, dd = _voxel_centers_mm(spec.extents, spec.voxel_size_mm)
    dose = np.zeros(spec.extents, dtype=np.float64)
    for beam in spec.beams:
        ex, ey, ez = beam.entry_mm
        dx, dy, dz = beam.direction
        vx, vy, vz = hh - ex, ww - ey, dd - ez
        depth = vx * dx + vy * dy + vz * dz
        lat2 = np.clip(vx * vx + vy * vy + vz * vz - depth * depth, 0.0, None)
        pencil = beam.weight_gy * np.exp(-beam.mu_per_mm * np.clip(depth, 0.0, None))
        pencil *= np.exp(-lat2 / (2.0 * beam.sigma_mm**2))
        dose += np.where(depth >= 0.0, pencil, 0.0)

    dose *= body
    if spec.beams:
        target_mean = dose[ptv].mean()
        if target_mean <= 0.0:
            raise ConfigError("beams deposit no dose in the target sphere")
        dose *= DEFAULT_PRESCRIPTION_GY / target_mean
    return DoseVolume(dose, spec.voxel_size_mm, histories=0, seed=spec.seed)


def add_quantum_noise(clean: DoseVolume, histories: int, seed: int) -> DoseVolume:
    """Independent per-voxel Gaussian noise, std = sqrt(dose * 80 Gy / histories),
    80 Gy being the dose scale, ``DEFAULT_PRESCRIPTION_GY``.

    Doubling the history count halves the variance; voxels with zero dose
    (everything outside the body) stay exactly zero.
    """
    histories = int(histories)
    if histories < 1:
        raise ContractError(f"histories must be >= 1, got {histories}")
    rng = np.random.default_rng(int(seed))
    x = clean.values
    std = np.sqrt(np.clip(x, 0.0, None) * DEFAULT_PRESCRIPTION_GY / histories)
    noisy = x + rng.standard_normal(x.shape) * std
    return DoseVolume(noisy, clean.voxel_size_mm, histories=histories, seed=int(seed))


# -- randomized cases and the on-disk dataset -----------------------------------


def default_spec(extents, seed: int = 0) -> PhantomSpec:
    """A randomized three-beam case: jittered target, random gantry angles."""
    extents = tuple(int(e) for e in extents)
    rng = np.random.default_rng(int(seed))
    size_mm = np.array(extents) * np.array(DEFAULT_VOXEL_MM)
    body_center = tuple((e - 1) / 2.0 for e in extents)
    body_axes = tuple(0.42 * s for s in size_mm)

    jitter = rng.uniform(-0.05, 0.05, size=3) * np.array(extents)
    ptv_center = tuple(np.array(body_center) + jitter)
    ptv_radius = 0.16 * float(size_mm.min())

    ptv_mm = (np.array(ptv_center) + 0.5) * np.array(DEFAULT_VOXEL_MM)
    beams = []
    base_angle = rng.uniform(0.0, 2.0 * np.pi)
    for k in range(N_BEAMS):
        angle = base_angle + 2.0 * np.pi * k / N_BEAMS
        # gantry rotates in the axial (H, W) plane around the target
        radial = np.array([np.cos(angle), np.sin(angle), 0.0])
        entry = ptv_mm - radial * float(size_mm[:2].max())
        direction = radial
        beams.append(
            Beam(
                entry_mm=tuple(entry),
                direction=tuple(direction),
                sigma_mm=1.1 * ptv_radius,
                mu_per_mm=0.004,
                weight_gy=1.0,
            )
        )
    return PhantomSpec(
        extents=extents,
        beams=tuple(beams),
        ptv_center_vox=ptv_center,
        ptv_radius_mm=ptv_radius,
        body_center_vox=body_center,
        body_semi_axes_mm=body_axes,
        seed=int(seed),
    )


def stream_seed(master_seed: int, *key: int) -> int:
    """The first 64-bit word of ``np.random.SeedSequence(master_seed, spawn_key=key)``.
    A key starts 0 for a case, 1 for a dataset realization and 2 for an eval
    draw, so no two kinds of stream share one."""
    state = np.random.SeedSequence(int(master_seed), spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])


def case_seed(master_seed: int, case_index: int) -> int:
    return stream_seed(master_seed, 0, case_index)


def realization_seed(case: int, realization: int) -> int:
    return stream_seed(case, 1, realization)


def eval_noise_seed(master_seed: int, case_index: int, realization: int) -> int:
    return stream_seed(master_seed, 2, case_index, realization)


MANIFEST_NAME = "manifest.txt"


@dataclass
class CaseFiles:
    case_id: str
    clean: DoseVolume
    noisy: list[DoseVolume]
    ptv: np.ndarray
    body: np.ndarray


def check_realization_count(count: int) -> int:
    """``count`` if a case of that many noisy realizations pairs them all;
    ``load_dataset_pairs`` pairs consecutive ones, so it must be even and >= 2."""
    if count < 2 or count % 2:
        raise ConfigError(f"noisy realizations per case must be even and at least 2, got {count}")
    return count


def generate_dataset(
    out_dir,
    extents,
    n_cases: int,
    histories: int,
    pairs_per_case: int = 2,
    seed: int = 0,
):
    """Write ``n_cases`` randomized cases to disk.

    Each case directory holds the clean DVOL, ``pairs_per_case`` noisy
    DVOL realizations (``check_realization_count``), the target/body DMSK
    masks, and a manifest listing them; ``load_dataset_pairs`` reads the
    training pairs back. ``out_dir`` is made once the first case's clean
    volume exists, so a spec that fails leaves no empty directory.
    """
    if n_cases < 1:
        raise ContractError("n_cases must be >= 1")
    check_realization_count(pairs_per_case)
    for case in range(n_cases):
        cseed = case_seed(seed, case)
        spec = default_spec(extents, seed=cseed)
        clean = generate_clean(spec)
        case_id = f"case_{case:03d}"
        case_dir = os.path.join(out_dir, case_id)
        os.makedirs(case_dir, exist_ok=True)

        volio.write_dvol(
            os.path.join(case_dir, "clean.dvol"), clean.values, clean.voxel_size_mm, 0, cseed
        )
        volio.write_dmsk(os.path.join(case_dir, "ptv.dmsk"), ptv_mask(spec), spec.voxel_size_mm)
        volio.write_dmsk(os.path.join(case_dir, "body.dmsk"), body_mask(spec), spec.voxel_size_mm)

        manifest = {"clean": "clean.dvol", "ptv_mask": "ptv.dmsk", "body_mask": "body.dmsk"}
        for r in range(pairs_per_case):
            nseed = realization_seed(cseed, r)
            noisy = add_quantum_noise(clean, histories, nseed)
            name = f"noisy_{r:02d}.dvol"
            volio.write_dvol(
                os.path.join(case_dir, name), noisy.values, noisy.voxel_size_mm, histories, nseed
            )
            manifest[f"noisy_{r}"] = name
        volio.write_kv(os.path.join(case_dir, MANIFEST_NAME), manifest)


def load_case(case_dir) -> CaseFiles:
    """Every volume and mask of a case directory, its noisy realizations in order."""
    return _read_case(case_dir, realizations=True)


def load_reference(case_dir) -> CaseFiles:
    """The clean volume and masks of a case directory; ``noisy`` is left empty."""
    return _read_case(case_dir, realizations=False)


def _read_case(case_dir, realizations: bool) -> CaseFiles:
    manifest = os.path.join(case_dir, MANIFEST_NAME)
    entries = volio.read_kv(manifest)
    # the realizations are noisy_0 ... noisy_{n-1}, none missing, whether read or not
    noisy_keys = [f"noisy_{r}" for r in range(sum(key.startswith("noisy_") for key in entries))]
    for key in ("clean", "ptv_mask", "body_mask", *noisy_keys):
        if key not in entries:
            raise FormatError(f"{manifest}: missing key {key!r}")

    def path(key):
        name = os.path.join(case_dir, entries[key])
        if not os.path.isfile(name):  # an empty value names the case directory
            raise FormatError(f"{manifest}: {key}={entries[key]!r} names no file")
        return name

    def vol(key):
        return DoseVolume(*volio.read_dvol(path(key)))

    clean = vol("clean")
    ptv, _ = volio.read_dmsk(path("ptv_mask"))
    body, _ = volio.read_dmsk(path("body_mask"))
    noisy = [vol(key) for key in noisy_keys] if realizations else []
    if any(a.shape != clean.extents for a in [ptv, body] + [n.values for n in noisy]):
        raise FormatError(f"{manifest}: the case's volumes and masks differ in extents")
    return CaseFiles(os.path.basename(os.path.normpath(case_dir)), clean, noisy, ptv, body)


def list_case_dirs(dataset_dir) -> list[str]:
    dirs = sorted(
        os.path.join(dataset_dir, d)
        for d in os.listdir(dataset_dir)
        if os.path.isdir(os.path.join(dataset_dir, d))
        and os.path.exists(os.path.join(dataset_dir, d, MANIFEST_NAME))
    )
    if not dirs:
        raise FormatError(f"no case directories with manifests under {dataset_dir}")
    return dirs


def load_dataset_pairs(dataset_dir) -> list[NoisePair]:
    """The training pairs of every case: its realizations 0 and 1, 2 and 3, and so on.

    A case whose manifest lists a realization count that does not pair
    (``check_realization_count``) is a ``FormatError`` naming the manifest.
    """
    pairs = []
    for case_dir in list_case_dirs(dataset_dir):
        case = load_case(case_dir)
        try:
            check_realization_count(len(case.noisy))
        except ConfigError as exc:
            raise FormatError(f"{os.path.join(case_dir, MANIFEST_NAME)}: {exc}") from None
        for a in range(0, len(case.noisy), 2):
            pairs.append(NoisePair(case.noisy[a], case.noisy[a + 1], case.case_id))
    return pairs
