"""Seeded truncations and single-byte flips of tiny DVOL, DMSK and DDPK files.

Every read of a damaged file either returns or raises ``FormatError``;
any other exception fails the test.
"""

import numpy as np
import pytest

from mcdenoise import model as M
from mcdenoise import volio
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
    return {
        "dvol": (dvol, volio.read_dvol),
        "dmsk": (dmsk, volio.read_dmsk),
        "ddpk-proposed": (proposed, M.load_checkpoint),
        "ddpk-unet": (unet, M.load_checkpoint),
    }


@pytest.mark.parametrize("kind", ["dvol", "dmsk", "ddpk-proposed", "ddpk-unet"])
def test_damaged_file_returns_or_raises_format_error(tmp_path, monkeypatch, kind):
    path, read = _write_files(tmp_path)[kind]
    blob = path.read_bytes()
    assert len(blob) < 48 * 1024  # keeps every config the reader accepts below the guard's cap
    read(path)  # the undamaged file reads
    guard_build_network(monkeypatch)
    bad_path = tmp_path / ("bad" + path.suffix)
    rng = np.random.default_rng(sum(map(ord, kind)))
    for bad in _damaged(blob, rng):
        bad_path.write_bytes(bad)
        try:
            read(bad_path)
        except FormatError:
            pass
