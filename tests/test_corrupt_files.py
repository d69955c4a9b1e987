"""Seeded truncations and single-byte flips of tiny DVOL, DMSK and DDPK files
and a case manifest.

Every read of a damaged file either returns or raises ``FormatError``; any
other exception fails the test.
"""

import numpy as np
import pytest

from mcdenoise import model as M
from mcdenoise import phantom, volio
from mcdenoise.errors import FormatError

from helpers import guard_build_network

TRIALS = 120
HEAD = 64  # holds every header field (DVOL/DMSK 48 bytes, DDPK 28 + a 12-byte record header)


def _damaged(blob: bytes, rng: np.random.Generator):
    """Seeded truncations to random lengths, then single-byte flips, every other one in ``HEAD``."""
    for cut in rng.integers(0, len(blob), TRIALS):
        yield blob[:cut]
    for trial in range(TRIALS):
        span = min(HEAD, len(blob)) if trial % 2 else len(blob)
        pos = int(rng.integers(0, span))
        bad = bytearray(blob)
        bad[pos] ^= int(rng.integers(1, 256))
        yield bytes(bad)


def _write_files(tmp_path):
    rng = np.random.default_rng(71)
    dvol = tmp_path / "v.dvol"
    volio.write_dvol(dvol, rng.random((4, 3, 2)), (2.5, 2.5, 3.0), 1000, 9)
    dmsk = tmp_path / "m.dmsk"
    volio.write_dmsk(dmsk, rng.random((4, 3, 2)) > 0.5, (2.5, 2.5, 3.0))
    proposed = tmp_path / "p.ddpk"
    M.save_checkpoint(M.build_proposed(M.ScaledConfig(1, 1, (4, 4, 4)), seed=3), proposed)
    unet = tmp_path / "u.ddpk"
    M.save_checkpoint(M.build_unet_baseline(M.ScaledConfig(2, 2, (4, 4, 4)), seed=4), unet)
    phantom.generate_dataset(tmp_path / "ds", (8, 8, 4), 1, 100, pairs_per_case=4, seed=5)
    case_manifest = tmp_path / "ds" / "case_000" / phantom.MANIFEST_NAME
    return {
        "dvol": (dvol, volio.read_dvol),
        "dmsk": (dmsk, volio.read_dmsk),
        "ddpk-proposed": (proposed, M.load_checkpoint),
        "ddpk-unet": (unet, M.load_checkpoint),
        "case-manifest": (case_manifest, lambda path: phantom.load_case(path.parent)),
    }


@pytest.mark.parametrize(
    "kind", ["dvol", "dmsk", "ddpk-proposed", "ddpk-unet", "case-manifest"])
def test_damaged_file_returns_or_raises_format_error(tmp_path, monkeypatch, kind):
    path, read = _write_files(tmp_path)[kind]
    blob = path.read_bytes()
    assert len(blob) < 48 * 1024  # keeps every config the reader accepts below the guard's cap
    read(path)  # the undamaged file reads
    guard_build_network(monkeypatch)
    rng = np.random.default_rng(sum(map(ord, kind)))
    for bad in _damaged(blob, rng):
        path.write_bytes(bad)  # in place: a case manifest is read from its case directory
        try:
            read(path)
        except FormatError:
            pass
