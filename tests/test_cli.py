import hashlib
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from mcdenoise import volio
from mcdenoise.cli import main
from mcdenoise.model import ScaledConfig, build_proposed, save_checkpoint
from mcdenoise.training import TrainConfig
from mcdenoise.volio import read_kv

from helpers import guard_build_network


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "mcdenoise", *map(str, args)],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def tree_digest(root, skip=("run_manifest.txt",)):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if name in skip:
                continue
            h.update(name.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# -- phantom ---------------------------------------------------------------------


def test_phantom_counts_and_manifest(tmp_path):
    out = tmp_path / "ds"
    run_cli("phantom", "--cases", 2, "--pairs", 2, "--extents", "32x32x16",
            "--seed", 7, "--out", out)
    files = sorted(os.listdir(out))
    assert "run_manifest.txt" in files
    case_files = sorted(os.listdir(out / "case_000"))
    assert case_files == ["body.dmsk", "clean.dvol", "manifest.txt",
                          "noisy_00.dvol", "noisy_01.dvol", "ptv.dmsk"]
    manifest = read_kv(out / "run_manifest.txt")
    assert manifest["command"] == "phantom"
    assert manifest["seed"] == "7"
    assert "wall_time_s" in manifest
    assert_run_context(manifest)


def test_phantom_deterministic(tmp_path):
    for name in ("a", "b"):
        run_cli("phantom", "--cases", 2, "--pairs", 2, "--extents", "16x16x8",
                "--seed", 3, "--out", tmp_path / name)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_phantom_divisibility_warning(tmp_path):
    proc = run_cli("phantom", "--cases", 1, "--pairs", 2, "--extents", "33x32x16",
                   "--seed", 0, "--out", tmp_path / "odd")
    assert "warning" in proc.stderr
    assert "num_down" in proc.stderr


def test_phantom_requires_out(tmp_path):
    proc = run_cli("phantom", "--cases", 1, check=False)
    assert proc.returncode == 2


@pytest.mark.parametrize("pairs", [0, 1, 3])
def test_phantom_rejects_pairs_not_even(tmp_path, pairs):
    # training pairs consecutive realizations: 1 gives none, 3 drops one
    proc = run_cli("phantom", "--cases", 1, "--pairs", pairs, "--extents", "16x16x8",
                   "--out", tmp_path / "ds", check=False)
    assert proc.returncode == 2
    assert "--pairs" in proc.stderr
    assert not (tmp_path / "ds").exists()


def test_phantom_replay_from_manifest(tmp_path):
    first = tmp_path / "first"
    run_cli("phantom", "--cases", 2, "--pairs", 2, "--extents", "16x16x8",
            "--histories", 50, "--seed", 21, "--out", first)
    manifest = read_kv(first / "run_manifest.txt")
    replay = tmp_path / "replay"
    run_cli(
        manifest["command"],
        "--cases", manifest["cases"],
        "--pairs", manifest["pairs"],
        "--extents", manifest["extents"],
        "--histories", manifest["histories"],
        "--seed", manifest["seed"],
        "--out", replay,
    )
    assert tree_digest(first) == tree_digest(replay)


# -- analyze -----------------------------------------------------------------------


def test_analyze_reference_totals(tmp_path):
    proc = run_cli("analyze", "--model", "proposed", "--extents", "256x256x64",
                   "--out", tmp_path / "rep")
    gflops = None
    for line in proc.stdout.splitlines():
        if "GFLOPs" in line:
            gflops = float(line.split(":")[1].split("GFLOPs")[0])
    assert gflops is not None
    assert 46.75 <= gflops <= 63.25
    csv = (tmp_path / "rep" / "flops.csv").read_text()
    assert csv.splitlines()[0].startswith("layer_id,")
    assert (tmp_path / "rep" / "flops.txt").exists()
    assert_run_context(read_kv(tmp_path / "rep" / "run_manifest.txt"))


def test_analyze_unet_default_depth():
    proc = run_cli("analyze", "--model", "unet-baseline", "--extents", "256x256x64")
    assert "unet-baseline" in proc.stdout
    gflops = [l for l in proc.stdout.splitlines() if "GFLOPs" in l][0]
    value = float(gflops.split(":")[1].split("GFLOPs")[0])
    assert 787.0 <= value <= 1065.0


def test_analyze_bad_extents_exit_code():
    proc = run_cli("analyze", "--extents", "100x100x17", check=False)
    assert proc.returncode == 3
    assert "error" in proc.stderr


# -- denoise ------------------------------------------------------------------------


def test_denoise_zero_checkpoint_zero_volume(tmp_path):
    net = build_proposed(ScaledConfig(4, 2, (16, 16, 8)), seed=0)
    for _, _, t in net.parameters():
        t.data[...] = 0.0
    ckpt = tmp_path / "zero.ddpk"
    save_checkpoint(net, ckpt)
    vol = tmp_path / "zero.dvol"
    volio.write_dvol(vol, np.zeros((16, 16, 8)), (2.34, 2.34, 3.0), 100, 1)
    out = tmp_path / "out"
    run_cli("denoise", "--checkpoint", ckpt, "--input", vol, "--out", out)
    values, _, _, _ = volio.read_dvol(out / "denoised.dvol")
    assert np.all(values == 0.0)
    for view in ("axial", "coronal", "sagittal"):
        assert (out / f"denoised_{view}.pgm").exists()
        assert (out / f"input_{view}.pgm").exists()
    manifest = read_kv(out / "run_manifest.txt")
    assert_run_context(manifest)
    assert float(manifest["denoise_ms_mean"]) > 0.0


def assert_run_context(manifest):
    """A run records the numpy version and the BLAS threads in effect."""
    assert manifest["numpy_version"] == np.__version__
    assert manifest["blas_threads"] == "" or int(manifest["blas_threads"]) >= 1


def test_denoise_missing_checkpoint_is_data_error(tmp_path):
    vol = tmp_path / "v.dvol"
    volio.write_dvol(vol, np.zeros((16, 16, 8)), (1, 1, 1), 0, 0)
    proc = run_cli("denoise", "--checkpoint", tmp_path / "nope.ddpk", "--input", vol,
                   "--out", tmp_path / "o", check=False)
    assert proc.returncode == 3


def test_denoise_forged_volume_header_is_data_error(tmp_path):
    vol = tmp_path / "forged.dvol"
    volio.write_dvol(vol, np.zeros((16, 16, 8)), (1, 1, 1), 0, 0)
    blob = bytearray(vol.read_bytes())
    blob[8:20] = struct.pack("<III", 65535, 65535, 65535)
    vol.write_bytes(bytes(blob))
    net = build_proposed(ScaledConfig(4, 2, (16, 16, 8)), seed=0)
    save_checkpoint(net, tmp_path / "c.ddpk")
    proc = run_cli("denoise", "--checkpoint", tmp_path / "c.ddpk", "--input", vol,
                   "--out", tmp_path / "o", check=False)
    assert proc.returncode == 3
    assert "truncated payload" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_denoise_forged_checkpoint_header_is_data_error(tmp_path, monkeypatch, capsys):
    vol = tmp_path / "v.dvol"
    volio.write_dvol(vol, np.zeros((16, 16, 8)), (1, 1, 1), 0, 0)
    ckpt = tmp_path / "c.ddpk"
    save_checkpoint(build_proposed(ScaledConfig(4, 2, (16, 16, 8)), seed=0), ckpt)
    blob = bytearray(ckpt.read_bytes())
    blob[24:28] = struct.pack("<I", 2**24 + 3)  # num_down
    ckpt.write_bytes(bytes(blob))
    # in process, so that the guard stands in for the build on an unchecked reader
    guard_build_network(monkeypatch)
    code = main(["denoise", "--checkpoint", str(ckpt), "--input", str(vol),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "needs at least" in capsys.readouterr().err


def test_denoise_version_1_checkpoint_is_data_error(tmp_path):
    vol = tmp_path / "v.dvol"
    volio.write_dvol(vol, np.zeros((16, 16, 8)), (1, 1, 1), 0, 0)
    ckpt = tmp_path / "c.ddpk"
    save_checkpoint(build_proposed(ScaledConfig(4, 2, (16, 16, 8)), seed=0), ckpt)
    blob = bytearray(ckpt.read_bytes())
    blob[4:8] = struct.pack("<I", 1)  # version
    ckpt.write_bytes(bytes(blob))
    proc = run_cli("denoise", "--checkpoint", ckpt, "--input", vol, "--out", tmp_path / "o",
                   check=False)
    assert proc.returncode == 3
    assert "unsupported checkpoint version 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_denoise_non_finite_input_leaves_no_out_directory(tmp_path):
    # was exit 4 from the network's first layer, after creating --out
    values = np.zeros((16, 16, 8))
    values[3, 4, 5] = np.nan
    vol = tmp_path / "nan.dvol"
    volio.write_dvol(vol, values, (1, 1, 1), 0, 0)
    save_checkpoint(build_proposed(ScaledConfig(4, 2, (16, 16, 8)), seed=0), tmp_path / "c.ddpk")
    proc = run_cli("denoise", "--checkpoint", tmp_path / "c.ddpk", "--input", vol,
                   "--out", tmp_path / "o", check=False)
    assert proc.returncode == 4
    assert "dose volume contains non-finite values" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


# -- bench ---------------------------------------------------------------------------


def test_bench_csv_output(tmp_path):
    proc = run_cli("bench", "--extents", "16x16x8", "--channels", 8, "--repeats", 12,
                   "--out", tmp_path / "bench")
    lines = (tmp_path / "bench" / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "module,median_ms,iqr_ms,repeats,workers"
    assert len(lines) == 3
    assert all(line.split(",")[3] == "12" for line in lines[1:])
    assert "regular3d" in proc.stdout and "decoupled" in proc.stdout
    assert_run_context(read_kv(tmp_path / "bench" / "run_manifest.txt"))


def test_bench_prints_time_ratio_next_to_mac_ratio():
    proc = run_cli("bench", "--extents", "16x16x8", "--channels", 8, "--repeats", 10)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 4
    assert lines[-1].startswith("decoupled/regular median time ratio ")
    assert lines[-1].endswith("analytic MAC ratio 7/9 = 0.7778")


# -- help and usage -----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["phantom", "train", "denoise", "eval", "analyze", "bench"])
def test_help_documents_flags(command):
    proc = run_cli(command, "--help")
    assert "--" in proc.stdout
    assert proc.returncode == 0


def test_unknown_command_usage_error():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2


# -- train / eval wiring (tiny run) ---------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    train_ds = root / "train_ds"
    test_ds = root / "test_ds"
    run_cli("phantom", "--cases", 2, "--pairs", 2, "--extents", "16x16x8",
            "--histories", 100, "--seed", 1, "--out", train_ds)
    run_cli("phantom", "--cases", 1, "--pairs", 2, "--extents", "16x16x8",
            "--histories", 100, "--seed", 901, "--out", test_ds)
    run_dir = root / "run"
    run_cli("train", "--data", train_ds, "--out", run_dir, "--features", 4, "--down", 2,
            "--crop", "16x16x8", "--iterations", 60, "--seed", 2)
    return root, train_ds, test_ds, run_dir


def test_train_outputs(tiny_pipeline):
    root, train_ds, test_ds, run_dir = tiny_pipeline
    assert (run_dir / "checkpoint.ddpk").exists()
    loss = (run_dir / "loss.csv").read_text().splitlines()
    assert loss[0] == "step,loss"
    assert len(loss) == 1 + 60 // 50
    manifest = read_kv(run_dir / "run_manifest.txt")
    assert manifest["command"] == "train"
    assert manifest["iterations"] == "60"
    assert manifest["crop_extents"] == "16x16x8"
    assert_run_context(manifest)


def test_train_replays_from_its_manifest(tiny_pipeline, tmp_path):
    # the manifest's TrainConfig entries, read back as a --config file, rerun the same training
    _, _, _, run_dir = tiny_pipeline
    manifest = read_kv(run_dir / "run_manifest.txt")
    cfg_file = tmp_path / "replay.cfg"
    volio.write_kv(cfg_file, {f.name: manifest[f.name] for f in fields(TrainConfig)})
    replay = tmp_path / "replay"
    run_cli("train", "--data", manifest["data"], "--model", manifest["model"],
            "--features", manifest["features"], "--down", manifest["down"],
            "--config", cfg_file, "--out", replay)
    for name in ("checkpoint.ddpk", "loss.csv"):
        assert (replay / name).read_bytes() == (run_dir / name).read_bytes()


def test_train_does_not_mutate_inputs(tiny_pipeline, tmp_path):
    root, train_ds, _, _ = tiny_pipeline
    before = tree_digest(train_ds)
    run_cli("train", "--data", train_ds, "--out", tmp_path / "scratch", "--features", 4,
            "--down", 2, "--crop", "16x16x8", "--iterations", 10, "--seed", 0)
    assert tree_digest(train_ds) == before


def test_train_config_file_flag(tiny_pipeline, tmp_path):
    root, train_ds, _, _ = tiny_pipeline
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text("iterations=50\nlr=2e-4\ncrop_extents=16x16x8\nseed=4\n")
    out = tmp_path / "out"
    run_cli("train", "--data", train_ds, "--out", out, "--features", 4, "--down", 2,
            "--config", cfg_file)
    manifest = read_kv(out / "run_manifest.txt")
    assert manifest["iterations"] == "50"
    assert manifest["lr"] == "0.0002"
    # flags still win over the file
    out2 = tmp_path / "out2"
    run_cli("train", "--data", train_ds, "--out", out2, "--features", 4, "--down", 2,
            "--config", cfg_file, "--iterations", 20)
    assert read_kv(out2 / "run_manifest.txt")["iterations"] == "20"


def test_train_rejects_unknown_config_key(tiny_pipeline, tmp_path):
    root, train_ds, _, _ = tiny_pipeline
    cfg_file = tmp_path / "bad.cfg"
    # the dose scale is the prescription, a constant: no file sets it
    for key in ("warmup", "normalization_dose"):
        cfg_file.write_text(f"{key}=100\n")
        proc = run_cli("train", "--data", train_ds, "--out", tmp_path / "o",
                       "--config", cfg_file, check=False)
        assert proc.returncode == 3
        assert f"unknown key {key!r}" in proc.stderr
        assert not (tmp_path / "o").exists()


def test_train_reproducible(tiny_pipeline, tmp_path):
    root, train_ds, _, run_dir = tiny_pipeline
    rerun = tmp_path / "rerun"
    run_cli("train", "--data", train_ds, "--out", rerun, "--features", 4, "--down", 2,
            "--crop", "16x16x8", "--iterations", 60, "--seed", 2)
    assert (rerun / "checkpoint.ddpk").read_bytes() == (run_dir / "checkpoint.ddpk").read_bytes()
    assert (rerun / "loss.csv").read_text() == (run_dir / "loss.csv").read_text()


def test_eval_csv_structure(tiny_pipeline, tmp_path):
    root, _, test_ds, run_dir = tiny_pipeline
    out = tmp_path / "eval"
    run_cli("eval", "--checkpoint", run_dir / "checkpoint.ddpk", "--data", test_ds,
            "--realizations", 2, "--histories", 100, "--seed", 5, "--out", out)
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["case", "realization", "source"]
    assert "mse" in header and "d95" in header and "dice_mean" in header
    # one noisy and one denoised row per realization per case
    assert len(lines) - 1 == 2 * 2
    assert (out / "summary.txt").exists()
    assert any(name.endswith(".pgm") for name in os.listdir(out))
    manifest = read_kv(out / "run_manifest.txt")
    assert_run_context(manifest)
    assert float(manifest["denoise_ms_mean"]) > 0.0


def test_eval_reads_no_noisy_realization(tiny_pipeline, tmp_path, monkeypatch):
    # eval draws its own noise, so of each case it reads the clean volume and the masks
    _, _, test_ds, run_dir = tiny_pipeline
    assert (test_ds / "case_000" / "noisy_00.dvol").exists()
    reads = []
    real = volio.read_dvol
    monkeypatch.setattr(volio, "read_dvol",
                        lambda path, *a, **kw: reads.append(os.path.basename(path)) or real(path, *a, **kw))
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.ddpk"), "--data", str(test_ds),
                 "--realizations", "1", "--out", str(tmp_path / "ev")])
    assert code == 0
    assert reads == ["clean.dvol"]


@pytest.mark.parametrize("broken, message", [
    ("ptv.dmsk", "d_number: empty structure mask"),  # was exit 3 naming no case, after --out
    ("clean.dvol", "evaluate: ground-truth target D95 is not positive"),
])
def test_eval_rejects_a_case_it_cannot_score_before_out(tiny_pipeline, tmp_path, broken, message):
    _, _, test_ds, run_dir = tiny_pipeline
    data = tmp_path / "data"
    shutil.copytree(test_ds, data)
    path = data / "case_000" / broken
    if broken == "ptv.dmsk":
        mask, voxel = volio.read_dmsk(path)
        volio.write_dmsk(path, np.zeros(mask.shape), voxel)
    else:
        values, voxel, histories, seed = volio.read_dvol(path)
        volio.write_dvol(path, np.zeros(values.shape), voxel, histories, seed)
    out = tmp_path / "ev"
    proc = run_cli("eval", "--checkpoint", run_dir / "checkpoint.ddpk", "--data", data,
                   "--realizations", 1, "--out", out, check=False)
    assert proc.returncode == 3
    assert f"case_000: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_eval_reproducible(tiny_pipeline, tmp_path):
    root, _, test_ds, run_dir = tiny_pipeline
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("eval", "--checkpoint", run_dir / "checkpoint.ddpk", "--data", test_ds,
                "--realizations", 2, "--histories", 100, "--seed", 5, "--out", out)
    assert (a / "metrics.csv").read_text() == (b / "metrics.csv").read_text()
    assert tree_digest(a) == tree_digest(b)


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--realizations", 0),  # was exit 0 with an all-NaN summary
    ("phantom", "--cases", 0),  # these were exit 3, after creating the output directory
    ("phantom", "--histories", 0),
    ("eval", "--histories", 0),
    ("phantom", "--extents", "16x16"),  # malformed extents were exit 3
    ("phantom", "--extents", "16x0x8"),
    ("train", "--crop", "16xAx8"),
])
def test_degenerate_flags_are_usage_errors(tiny_pipeline, tmp_path, command, flag, value):
    _, train_ds, test_ds, run_dir = tiny_pipeline
    checkpoint = run_dir / "checkpoint.ddpk"
    inputs = {
        "eval": ["--checkpoint", checkpoint, "--data", test_ds],
        "denoise": ["--checkpoint", checkpoint, "--input", test_ds / "case_000" / "noisy_00.dvol"],
        "train": ["--data", train_ds, "--iterations", 1],
        "phantom": ["--extents", "16x16x8"],
    }[command]
    out = tmp_path / "out"
    proc = run_cli(command, *inputs, flag, value, "--out", out, check=False)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("case", [
    "denoise-missing-checkpoint",
    "eval-missing-checkpoint",
    "train-missing-data",
    "train-crop-indivisible",  # rejected by the net's divisibility
    "train-crop-larger-than-padded",  # the 16x16x8 cases pad to 24x24x12
    "phantom-target-without-voxels",
])
def test_data_errors_leave_no_out_directory(tiny_pipeline, tmp_path, case):
    # each of these exited 3 after creating an empty --out
    _, train_ds, test_ds, _ = tiny_pipeline
    missing = tmp_path / "nope.ddpk"
    train = ["train", "--data", train_ds, "--features", 4, "--down", 2, "--iterations", 1]
    args = {
        "denoise-missing-checkpoint": ["denoise", "--checkpoint", missing,
                                       "--input", test_ds / "case_000" / "noisy_00.dvol"],
        "eval-missing-checkpoint": ["eval", "--checkpoint", missing, "--data", test_ds],
        "train-missing-data": ["train", "--data", tmp_path / "nope"],
        "train-crop-indivisible": train + ["--crop", "16x16x9"],
        "train-crop-larger-than-padded": train + ["--crop", "64x64x32"],
        "phantom-target-without-voxels": ["phantom", "--cases", 1, "--extents", "2x2x2"],
    }[case]
    out = tmp_path / "out"
    proc = run_cli(*args, "--out", out, check=False)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [
    (["--lr", "nan"], None),  # these ran one step and exited 4 with an empty run directory
    (["--lr", "inf"], None),
    ([], "lr=nan\n"),
    ([], "lr=inf\n"),
], ids=["lr-nan", "lr-inf", "config-lr-nan", "config-lr-inf"])
def test_train_rejects_non_finite_config(tiny_pipeline, tmp_path, flags, config):
    _, train_ds, _, _ = tiny_pipeline
    if config is not None:
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config)
        flags = flags + ["--config", cfg_file]
    out = tmp_path / "out"
    proc = run_cli("train", "--data", train_ds, "--iterations", 1, *flags, "--out", out, check=False)
    assert proc.returncode == 3
    assert "must be positive and finite" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("key", ["beta1", "beta2", "adam_eps", "pad", "swap_input_target"])
def test_train_config_rejects_keys_that_are_constants(tiny_pipeline, tmp_path, key):
    _, train_ds, _, _ = tiny_pipeline
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text(f"lr=1e-4\n{key}=1\n")
    out = tmp_path / "out"
    proc = run_cli("train", "--data", train_ds, "--config", cfg_file, "--out", out, check=False)
    assert proc.returncode == 3
    assert f"unknown key '{key}'" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("bench", "--channels", 0),  # was a ZeroDivisionError traceback
    ("bench", "--channels", -4),  # was numpy's "negative dimensions are not allowed"
    ("train", "--features", 0),
    ("train", "--down", 0),
    ("analyze", "--features", 0),
    ("analyze", "--down", -1),
])
def test_channel_and_depth_flags_are_usage_errors(tmp_path, command, flag, value):
    inputs = ["--data", tmp_path / "data"] if command == "train" else []
    out = tmp_path / "out"
    proc = run_cli(command, *inputs, flag, value, "--out", out, check=False)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("phantom", "--seed", -1),  # was exit 3 with numpy's message, leaving an empty directory
    ("phantom", "--seed", 2**64),  # was a struct.error traceback (exit 1), leaving case_000/
    ("phantom", "--histories", 2**64),
    ("train", "--seed", -1),
    ("train", "--seed", 2**64),  # trained every step, then failed to write the checkpoint
    ("eval", "--seed", -1),
    ("bench", "--seed", -1),
    ("bench", "--seed", 2**64),
    ("bench", "--repeats", 9),  # was exit 3 from bench_modules
    ("train", "--iterations", -1),  # was exit 3 from TrainConfig
])
def test_out_of_range_flags_are_usage_errors(tmp_path, command, flag, value):
    inputs = {
        "phantom": ["--cases", 1, "--extents", "16x16x8"],
        "train": ["--data", tmp_path / "data", "--iterations", 1],
        "eval": ["--checkpoint", tmp_path / "checkpoint.ddpk", "--data", tmp_path / "data"],
        "bench": ["--extents", "8x8x8", "--channels", 2, "--repeats", 10],
    }[command]
    out = tmp_path / "out"
    proc = run_cli(command, *inputs, flag, value, "--out", out, check=False)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
