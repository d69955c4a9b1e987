"""File formats: DVOL dose volumes, DMSK masks, PGM slice images, and the
``key=value`` text of run manifests and case manifests.

DVOL layout (little-endian): magic ``DVOL``, u32 version=1, u32 H, u32 W,
u32 D, three f32 voxel sizes in mm, u64 histories (0 means clean), u64
seed, then H*W*D f32 values row-major (depth fastest). DMSK is identical
except for the magic and values restricted to {0, 1}.

Key=value text is UTF-8, one ``key=value`` line per entry in the order
written; readers skip blank lines and ``#`` comments and reject a repeated
key. Writes go to a temporary file that is renamed into place, so a reader
never sees half a file.
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


# -- key=value text -------------------------------------------------------------


def _kv_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    return str(value)


def write_kv(path, entries):
    """Write ``entries`` (a mapping) as ``key=value`` lines in their order,
    atomically. None is written empty and a tuple as ``HxWxD``."""
    lines = []
    for key, value in entries.items():
        text = _kv_text(value)
        if not key or "=" in key or key.startswith("#") or "\n" in key + text:
            raise FormatError(f"{path}: cannot write {key!r}={text!r} as one key=value line")
        lines.append(f"{key}={text}\n")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


def read_kv(path) -> dict[str, str]:
    """The ``key=value`` lines of a text file, keys and values stripped.

    Undecodable bytes, a line with no ``=`` or no key, and a repeated key are
    each a ``FormatError`` naming the path and line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None
    entries = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in entries:
            raise FormatError(f"{path}:{lineno}: repeated key {key!r}")
        entries[key] = value
    return entries


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
