import struct
from dataclasses import replace

import numpy as np
import pytest

from mcdenoise import phantom as P
from mcdenoise import volio
from mcdenoise.errors import ConfigError, ContractError, FormatError

EXTENTS = (24, 24, 12)


def _single_beam_spec(mu=0.0):
    return P.PhantomSpec(
        extents=(16, 16, 8),
        beams=(
            P.Beam(
                entry_mm=(-50.0, 8 * 2.34, 4 * 3.0),
                direction=(1.0, 0.0, 0.0),
                sigma_mm=30.0,
                mu_per_mm=mu,
                weight_gy=1.0,
            ),
        ),
        ptv_center_vox=(7.5, 7.5, 3.5),
        ptv_radius_mm=6.0,
        body_center_vox=(7.5, 7.5, 3.5),
        body_semi_axes_mm=(16.0, 16.0, 10.0),
    )


def test_single_beam_no_attenuation_constant_along_axis():
    clean = P.generate_clean(_single_beam_spec(mu=0.0))
    body = P.body_mask(_single_beam_spec(mu=0.0))
    # along the beam axis (H direction) the dose must not vary inside the body
    for w in range(16):
        for d in range(8):
            line = clean.values[:, w, d][body[:, w, d]]
            if line.size > 1:
                assert np.ptp(line) < 1e-9 * max(line.max(), 1.0)


def test_zero_beams_all_zero():
    spec = P.PhantomSpec(
        extents=(8, 8, 8),
        beams=(),
        ptv_center_vox=(3.5, 3.5, 3.5),
        ptv_radius_mm=5.0,
        body_center_vox=(3.5, 3.5, 3.5),
        body_semi_axes_mm=(12.0, 12.0, 12.0),
    )
    assert np.all(P.generate_clean(spec).values == 0.0)


def test_default_spec_ptv_mean_equals_prescription():
    spec = P.default_spec((64, 64, 16), seed=3)
    clean = P.generate_clean(spec)
    ptv = P.ptv_mask(spec)
    assert abs(clean.values[ptv].mean() - P.DEFAULT_PRESCRIPTION_GY) < 1e-9
    assert np.all(clean.values >= 0.0)
    assert np.all(clean.values[~P.body_mask(spec)] == 0.0)


def test_ptv_outside_body_rejected():
    spec = P.PhantomSpec(
        extents=(16, 16, 8),
        beams=(),
        ptv_center_vox=(1.0, 1.0, 1.0),
        ptv_radius_mm=8.0,
        body_center_vox=(7.5, 7.5, 3.5),
        body_semi_axes_mm=(8.0, 8.0, 6.0),
    )
    with pytest.raises(ConfigError):
        P.generate_clean(spec)


# -- noise model --------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_case():
    spec = P.default_spec(EXTENTS, seed=11)
    return P.generate_clean(spec), P.body_mask(spec)


def test_noise_requires_positive_histories(clean_case):
    clean, _ = clean_case
    with pytest.raises(ContractError):
        P.add_quantum_noise(clean, 0, seed=0)


def test_noise_huge_history_limit(clean_case):
    clean, _ = clean_case
    noisy = P.add_quantum_noise(clean, 10**18, seed=5)
    assert np.max(np.abs(noisy.values - clean.values)) < 1e-4


def test_noise_mean_converges_to_clean(clean_case):
    # per-voxel average over 1000 independent seeds lands within 4 sigma / sqrt(1000)
    clean, body = clean_case
    total = np.zeros_like(clean.values)
    n_seeds = 1000
    histories = 1000
    for s in range(n_seeds):
        total += P.add_quantum_noise(clean, histories, seed=s).values
    mean = total / n_seeds
    std = np.sqrt(np.clip(clean.values, 0, None) * 80.0 / histories)
    tol = 4.0 * std / np.sqrt(n_seeds)
    inside = body & (std > 0)
    fraction_within = np.mean(np.abs(mean - clean.values)[inside] < tol[inside])
    assert fraction_within > 0.999


def test_noise_zero_outside_dose(clean_case):
    clean, body = clean_case
    noisy = P.add_quantum_noise(clean, 100, seed=2)
    assert np.all(noisy.values[clean.values == 0.0] == 0.0)


def test_noise_variance_scales_inverse_with_histories(clean_case):
    clean, body = clean_case
    def pooled_var(histories, seed):
        eps = P.add_quantum_noise(clean, histories, seed=seed).values - clean.values
        return np.mean(eps[body] ** 2)

    v1 = np.mean([pooled_var(1_000_000, s) for s in range(8)])
    v2 = np.mean([pooled_var(2_000_000, 100 + s) for s in range(8)])
    v4 = np.mean([pooled_var(4_000_000, 200 + s) for s in range(8)])
    assert abs(v1 / v2 - 2.0) < 0.2
    assert abs(v1 / v4 - 4.0) < 0.4


def test_noise_pair_members_uncorrelated(clean_case):
    clean, body = clean_case
    e1 = P.add_quantum_noise(clean, 10_000, seed=21).values - clean.values
    e2 = P.add_quantum_noise(clean, 10_000, seed=22).values - clean.values
    active = body & (clean.values > 0)
    corr = np.corrcoef(e1[active], e2[active])[0, 1]
    assert abs(corr) < 0.05


def test_noise_determinism(clean_case):
    clean, _ = clean_case
    a = P.add_quantum_noise(clean, 500, seed=9).values
    b = P.add_quantum_noise(clean, 500, seed=9).values
    assert np.array_equal(a, b)


# -- dataset generation -----------------------------------------------------------------


def test_generate_dataset_counts_and_files(tmp_path):
    out = tmp_path / "ds"
    P.generate_dataset(out, (16, 16, 8), n_cases=2, histories=200, pairs_per_case=2, seed=7)
    assert len(P.load_dataset_pairs(out)) == 2
    case_dirs = P.list_case_dirs(out)
    assert len(case_dirs) == 2
    for case_dir in case_dirs:
        case = P.load_case(case_dir)
        assert len(case.noisy) == 2
        assert case.clean.histories == 0
        assert case.ptv.any() and case.body.any()


@pytest.mark.parametrize("count", [0, 1, 3])
def test_generate_dataset_rejects_counts_training_cannot_pair(tmp_path, count):
    # with 1 realization it wrote a case that load_dataset_pairs found no pair in
    with pytest.raises(ConfigError, match="even and at least 2"):
        P.generate_dataset(tmp_path / "ds", (16, 16, 8), 1, 200, count, seed=3)
    assert not (tmp_path / "ds").exists()


def test_generate_dataset_deterministic(tmp_path):
    import hashlib

    def digest(root):
        h = hashlib.sha256()
        for case_dir in P.list_case_dirs(root):
            import os

            for name in sorted(os.listdir(case_dir)):
                h.update(name.encode())
                with open(os.path.join(case_dir, name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    P.generate_dataset(tmp_path / "a", (16, 16, 8), 2, 200, 2, seed=5)
    P.generate_dataset(tmp_path / "b", (16, 16, 8), 2, 200, 2, seed=5)
    assert digest(tmp_path / "a") == digest(tmp_path / "b")


def test_noisy_volumes_all_differ(tmp_path):
    P.generate_dataset(tmp_path, (16, 16, 8), 2, 200, 4, seed=1)
    volumes = []
    for case_dir in P.list_case_dirs(tmp_path):
        case = P.load_case(case_dir)
        volumes.append(case.clean.values)
        volumes.extend(n.values for n in case.noisy)
    for i in range(len(volumes)):
        for j in range(i + 1, len(volumes)):
            assert np.max(np.abs(volumes[i] - volumes[j])) > 0.0


def test_cases_have_different_geometry(tmp_path):
    P.generate_dataset(tmp_path, (16, 16, 8), 3, 200, 2, seed=2)
    ptvs = [P.load_case(d).ptv for d in P.list_case_dirs(tmp_path)]
    assert not np.array_equal(ptvs[0], ptvs[1]) or not np.array_equal(ptvs[1], ptvs[2])


def test_master_seeds_give_pairwise_distinct_case_specs():
    # case_seed was master ^ index, so --seed 0 and --seed 1 wrote the same cases
    specs = {replace(P.default_spec((16, 16, 8), P.case_seed(master, i)), seed=0)
             for master in range(16) for i in range(8)}
    assert len(specs) == 16 * 8


def test_eval_noise_streams_differ_from_every_dataset_stream():
    masters, cases, realizations = range(16), range(8), range(16)
    dataset = {P.case_seed(m, i) for m in masters for i in cases}
    dataset |= {P.realization_seed(P.case_seed(m, i), r)
                for m in masters for i in cases for r in realizations}
    evals = {P.eval_noise_seed(m, i, r) for m in masters for i in cases for r in realizations}
    assert len(dataset) == 16 * 8 * 17 and len(evals) == 16 * 8 * 16
    assert not dataset & evals


@pytest.mark.parametrize("master", [0, 1, 2**32, 2**64 - 1])
def test_derived_seeds_fit_volume_headers(master):
    # a seed is stored as u64 in DVOL headers
    seeds = [P.case_seed(master, 2**40), P.realization_seed(master, 7),
             P.eval_noise_seed(master, 3, 2**63)]
    seeds += [P.realization_seed(P.case_seed(master, i), r) for i in range(4) for r in range(4)]
    assert all(type(s) is int and 0 <= s < 2**64 for s in seeds)


# -- DVOL / DMSK round trips ------------------------------------------------------------


def test_dvol_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(50.0, 10.0, (6, 5, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "v.dvol"
    volio.write_dvol(path, values, (2.34, 2.34, 3.0), 12345, 42)
    got, voxel, histories, seed = volio.read_dvol(path)
    assert np.array_equal(got, values)
    assert histories == 12345 and seed == 42
    assert np.allclose(voxel, (2.34, 2.34, 3.0), atol=1e-6)


def test_dvol_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "v.dvol"
    volio.write_dvol(path, np.zeros((2, 2, 2)), (1, 1, 1), 0, 0)
    blob = path.read_bytes()
    bad = tmp_path / "bad.dvol"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(FormatError):
        volio.read_dvol(bad)
    bad.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        volio.read_dvol(bad)
    with pytest.raises(FormatError):
        volio.read_dmsk(path)  # wrong magic for a mask


@pytest.mark.parametrize("kind", ["dvol", "dmsk"])
def test_volume_payload_checked_against_header(tmp_path, kind):
    path = tmp_path / f"v.{kind}"
    if kind == "dvol":
        volio.write_dvol(path, np.ones((3, 2, 2)), (1, 1, 1), 0, 0)
    else:
        volio.write_dmsk(path, np.ones((3, 2, 2)), (1, 1, 1))
    read = getattr(volio, f"read_{kind}")
    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in (1, 4, 4 * 12 - 1, 4 * 12):  # short payloads, down to none
        bad.write_bytes(blob[:-cut])
        with pytest.raises(FormatError, match="truncated"):
            read(bad)
    bad.write_bytes(blob + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        read(bad)
    # a header claiming 65535^3 voxels (about 1 PiB of payload) is refused
    # from the file size, before anything is allocated for it
    header = bytearray(blob[: len(blob) - 4 * 12])
    header[8:20] = struct.pack("<III", 65535, 65535, 65535)
    bad.write_bytes(bytes(header) + blob[len(header) :])
    with pytest.raises(FormatError, match="65535x65535x65535"):
        read(bad)


def test_dmsk_roundtrip_and_validation(tmp_path):
    mask = np.zeros((4, 4, 2))
    mask[1:3, 1:3, :] = 1.0
    path = tmp_path / "m.dmsk"
    volio.write_dmsk(path, mask, (1.0, 1.0, 1.0))
    got, _ = volio.read_dmsk(path)
    assert np.array_equal(got, mask.astype(bool))
    with pytest.raises(FormatError):
        volio.write_dmsk(tmp_path / "bad.dmsk", mask + 0.5, (1, 1, 1))


# -- key=value text -----------------------------------------------------------------------


def test_kv_roundtrip_with_none_and_tuple(tmp_path):
    path = tmp_path / "m.txt"
    volio.write_kv(path, {"b": 1.5, "empty": None, "crop": (16, 16, 8), "a": "x=y"})
    assert path.read_text() == "b=1.5\nempty=\ncrop=16x16x8\na=x=y\n"
    assert volio.read_kv(path) == {"b": "1.5", "empty": "", "crop": "16x16x8", "a": "x=y"}
    assert not (tmp_path / "m.txt.tmp").exists()


def test_kv_skips_blank_lines_and_comments(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# a comment\n\n  lr = 2e-4  \n")
    assert volio.read_kv(path) == {"lr": "2e-4"}


@pytest.mark.parametrize("text, line, match", [
    (b"a=1\nb=2\na=3\n", 3, "repeated key 'a'"),
    (b"a=1\njust words\n", 2, "expected key=value"),
    (b"a=1\n\n=5\n", 3, "expected key=value"),
    (b"a=1\nb=\xff\n", 2, "not UTF-8"),
])
def test_kv_malformed_line_is_format_error(tmp_path, text, line, match):
    path = tmp_path / "m.txt"
    path.write_bytes(text)
    with pytest.raises(FormatError, match=match) as info:
        volio.read_kv(path)
    assert f"m.txt:{line}:" in str(info.value)


@pytest.mark.parametrize("key, value", [("", "1"), ("a=b", "1"), ("#a", "1"), ("a", "x\ny")])
def test_kv_writer_refuses_what_would_read_back_otherwise(tmp_path, key, value):
    with pytest.raises(FormatError):
        volio.write_kv(tmp_path / "m.txt", {key: value})
    assert not (tmp_path / "m.txt").exists()


def test_load_case_rejects_empty_and_missing_names(tmp_path):
    P.generate_dataset(tmp_path, (16, 16, 8), 1, 200, 2, seed=3)
    case_dir = P.list_case_dirs(tmp_path)[0]
    manifest = tmp_path / "case_000" / P.MANIFEST_NAME
    good = manifest.read_text()
    for bad in (good.replace("clean=clean.dvol", "clean="),  # was IsADirectoryError
                good.replace("noisy_1=noisy_01.dvol", "noisy_1=noisy_07.dvol"),
                good.replace("ptv_mask=ptv.dmsk\n", "")):
        manifest.write_text(bad)
        with pytest.raises(FormatError):
            P.load_case(case_dir)
    manifest.write_text(good)
    volio.write_dmsk(tmp_path / "case_000" / "ptv.dmsk", np.ones((16, 16, 4)), (1, 1, 1))
    with pytest.raises(FormatError, match="differ in extents"):
        P.load_case(case_dir)


def test_pgm_export(tmp_path):
    values = np.linspace(0.0, 100.0, 4 * 4 * 2).reshape(4, 4, 2)
    paths = volio.export_middle_slices(values, tmp_path, "test", (0.0, 80.0))
    assert len(paths) == 3
    for p in paths:
        with open(p, "rb") as fh:
            blob = fh.read()
        assert blob.startswith(b"P5\n")
