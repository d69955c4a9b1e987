"""Binary file formats: DVOL dose volumes, DMSK masks, PGM slice images.

DVOL layout (little-endian): magic ``DVOL``, u32 version=1, u32 H, u32 W,
u32 D, three f32 voxel sizes in mm, u64 histories (0 means clean), u64
seed, then H*W*D f32 values row-major (depth fastest). DMSK is identical
except for the magic and values restricted to {0, 1}.
"""

import os
import struct

import numpy as np

from .errors import FormatError

DVOL_MAGIC = b"DVOL"
DMSK_MAGIC = b"DMSK"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIIfffQQ")


def _write_volume(path, magic, values, voxel_size_mm, histories, seed):
    values = np.asarray(values)
    if values.ndim != 3:
        raise FormatError(f"volume must be 3-D, got shape {values.shape}")
    h, w, d = values.shape
    vx, vy, vz = (float(v) for v in voxel_size_mm)
    header = _HEADER.pack(magic, _VERSION, h, w, d, vx, vy, vz, int(histories), int(seed))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def _read_volume(path, magic):
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        got_magic, version, h, w, d, vx, vy, vz, histories, seed = _HEADER.unpack(raw)
        if got_magic != magic:
            raise FormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        expected = 4 * h * w * d
        # check the claimed extents against the file before allocating for them
        available = os.fstat(fh.fileno()).st_size - _HEADER.size
        if available < expected:
            raise FormatError(
                f"{path}: truncated payload, header claims {h}x{w}x{d} voxels "
                f"({expected} bytes) but {available} bytes follow"
            )
        if available > expected:
            raise FormatError(f"{path}: trailing bytes")
        payload = fh.read(expected)
        if len(payload) != expected:
            raise FormatError(f"{path}: truncated payload")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(h, w, d)
    return values, (vx, vy, vz), histories, seed


def write_dvol(path, values, voxel_size_mm, histories, seed):
    _write_volume(path, DVOL_MAGIC, values, voxel_size_mm, histories, seed)


def read_dvol(path):
    """Returns (values, voxel_size_mm, histories, seed)."""
    return _read_volume(path, DVOL_MAGIC)


def write_dmsk(path, mask, voxel_size_mm, seed=0):
    mask = np.asarray(mask).astype(np.float64)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise FormatError("mask values must be 0 or 1")
    _write_volume(path, DMSK_MAGIC, mask, voxel_size_mm, 0, seed)


def read_dmsk(path):
    """Returns (mask as bool array, voxel_size_mm)."""
    values, voxel_size, _, _ = _read_volume(path, DMSK_MAGIC)
    if not np.all((values == 0.0) | (values == 1.0)):
        raise FormatError(f"{path}: mask values outside {{0, 1}}")
    return values.astype(bool), voxel_size


# -- PGM slice export ----------------------------------------------------------


def window_to_u8(values, lo, hi) -> np.ndarray:
    """Clip to [lo, hi] and rescale to 0..255."""
    arr = np.clip(np.asarray(values, dtype=np.float64), lo, hi)
    return np.round((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)


def write_pgm(path, image_u8):
    img = np.asarray(image_u8, dtype=np.uint8)
    if img.ndim != 2:
        raise FormatError(f"PGM image must be 2-D, got shape {img.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def export_middle_slices(values, out_dir, prefix, window):
    """Write middle axial/coronal/sagittal slices as 8-bit PGM images."""
    values = np.asarray(values)
    h, w, d = values.shape
    lo, hi = window
    cuts = {
        "axial": values[:, :, d // 2],
        "coronal": values[:, w // 2, :],
        "sagittal": values[h // 2, :, :],
    }
    paths = []
    for name, plane in cuts.items():
        path = f"{out_dir}/{prefix}_{name}.pgm"
        write_pgm(path, window_to_u8(plane, lo, hi))
        paths.append(path)
    return paths
