"""Tests of the benchmark's own code: statistics, spans, workloads, the contract.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import bench
import context
import spans
import stats
from mcdenoise import model, tensor, training
from workloads import DeskSize, DeskTrain, HeldoutEval, PaperWidth, WideSize, module_flops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TINY_DESK = DeskSize(features=2, num_down=1, crop=(16, 16, 8), cases=2, eval_extents=(16, 16, 8), setup_steps=300)
TINY_WIDE = WideSize(features=4, num_down=2, extents=(16, 16, 16), module_channels=4, module_extents=(8, 8, 4))


# -- statistics ---------------------------------------------------------------


def test_tail_is_the_sample_with_exactly_ten_beyond():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    value, pct = stats.tail(samples)
    assert value == 90
    assert pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_follows_sample_count():
    value, pct = stats.tail(list(range(1, 501)))
    assert (value, pct) == (490, 98.0)
    value, pct = stats.tail(list(range(1, 12)))
    assert value == 1 and pct == pytest.approx(100 / 11)


def test_tail_without_ten_samples_beyond_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [9.0, 10.0, 11.0, 10.5, 9.5, 12.0, 8.0, 10.2, 10.1, 9.9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# -- spans ----------------------------------------------------------------------


def _span(name, start, end, parent, phase="loop"):
    return [name, start, end, parent, phase]


def test_self_time_subtracts_direct_children_only():
    span_list = [
        _span("outer", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("b.inner", 5.0, 5.5, 2),
        _span("a", 8.5, 9.0, 0),
    ]
    table = spans.summarize(span_list)
    assert table[("loop", "outer")]["self_s"] == pytest.approx(10.0 - 2.0 - 4.0 - 0.5)
    assert table[("loop", "b")]["self_s"] == pytest.approx(3.5)
    assert table[("loop", "a")] == {"calls": 2, "total_s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}
    # self times of a tree add up to the root's duration
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(10.0)


def test_tracer_rejects_out_of_order_close():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_conv_names():
    rng = np.random.default_rng(0)
    from mcdenoise import kernels

    assert spans.conv_name(kernels.make_conv_spec(1, 1, (3, 3, 1), (2, 2, 1), rng)) == "conv331_s2"
    assert spans.conv_name(kernels.make_conv_spec(1, 1, (1, 1, 3), (1, 1, 1), rng)) == "conv113_s1"
    assert spans.conv_name(kernels.make_conv_spec(1, 1, (3, 3, 3), (2, 2, 2), rng)) == "conv333_s2"


def test_tape_footprint_counts_activations_not_parameters():
    x = tensor.Tensor(np.ones((2, 3)))
    w = tensor.Tensor(np.full((2, 3), 2.0), requires_grad=True)
    y = tensor.relu(tensor.mul(x, w))  # relu's closure holds a bool mask
    nodes, nbytes = spans.tape_footprint(y)
    assert nodes == 2
    assert nbytes == 6 * 8 + 6 * 8 + 6 * 1


def test_instrument_traces_adjoints_under_backward_and_restores():
    original = model.forward
    tracer = spans.Tracer()
    tracer.phase = "loop"
    with spans.instrument(tracer):
        assert model.forward is not original and training.forward is model.forward
        net = model.build_proposed(model.ScaledConfig(2, 1, (16, 16, 8)), seed=0)
        x = tensor.Tensor(np.random.default_rng(0).random((1, 1, 16, 16, 8)))
        loss = training.n2n_loss(model.forward(net, x), x)
        tensor.backward(loss)
    assert model.forward is original and training.forward is original
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"model.forward", "kernels.conv331_s2", "kernels.upsample", "kernels.shuffle",
            "tensor.concat", "tensor.relu", "tensor.backward", "training.n2n_loss"} <= names
    backward = next(i for i, s in enumerate(tracer.spans) if s[spans.NAME] == "tensor.backward")
    adjoints = [s for s in tracer.spans if s[spans.NAME].endswith(".bwd")]
    assert adjoints and all(s[spans.PARENT] == backward for s in adjoints)
    assert tracer.maxima[("loop", "tensor.tape_nodes")] > 0


# -- workloads ------------------------------------------------------------------


def test_trainer_reproduces_training_train(tmp_path):
    wl = DeskTrain(5, TINY_DESK)
    wl.setup(str(tmp_path / "a"))
    for _ in range(100):
        wl.op()
    reference = DeskTrain(5, TINY_DESK)
    reference.setup(str(tmp_path / "b"))
    trainer = reference.trainer
    cfg = training.TrainConfig(crop_extents=trainer.cfg.crop_extents, seed=trainer.cfg.seed, iterations=100)
    log = training.train(trainer.net, trainer.pairs, cfg)
    assert wl.trainer.log == log


def test_seeds_derive_every_input(tmp_path):
    a, b, c = (HeldoutEval(s, TINY_DESK) for s in (1, 1, 2))
    assert (a.data_seed, a.test_seed, a.noise_seed) == (b.data_seed, b.test_seed, b.noise_seed)
    assert a.data_seed != c.data_seed and a.test_seed != c.test_seed
    w1, w2 = PaperWidth(1, TINY_WIDE), PaperWidth(2, TINY_WIDE)
    w1.setup(str(tmp_path / "1"))
    w2.setup(str(tmp_path / "2"))
    assert w1.fingerprint() != w2.fingerprint()


def test_module_mac_ratio_is_seven_ninths():
    decoupled, regular = module_flops(64, (32, 32, 16))
    assert decoupled * 9 == regular * 7


def _smoke(tmp_path, factory, traced):
    threads, _ = context.blas_runtime()
    return bench.run(factory, seconds=1.0, traced=traced, out_dir=str(tmp_path),
                     setups=(3, 3, 0.0), blas_threads=threads)


@pytest.mark.parametrize("factory", [
    lambda: DeskTrain(1, TINY_DESK),
    lambda: HeldoutEval(1, TINY_DESK),
    lambda: PaperWidth(1, TINY_WIDE),
], ids=["desk_train", "heldout_eval", "paper_width"])
def test_tiny_smoke_run_of_each_workload(tmp_path, factory):
    record = _smoke(tmp_path, factory, traced=False)
    failed = {c["check"] for c in record["checks"] if not c["passed"]}
    # A two-feature model trained for seconds does not denoise yet; the
    # full-size benchmark run is what holds the MSE ratio below 1.
    failed.discard("held-out denoised/noisy MSE ratio below 1")
    assert not failed
    assert set(record["end_to_end"]) == set(bench.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in record["end_to_end"].values())
    result = json.loads(bench.result_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == record["failed"]
    assert result["correct"] is (record["failed"] == 0)

    traced = _smoke(tmp_path, factory, traced=True)
    result = json.loads(bench.result_line(traced))
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    per_layer = traced["per_layer"]
    assert all(math.isfinite(v) for v in per_layer.values())
    assert per_layer["model.forward.ms"] > 0 and per_layer["kernels.conv331_s2.fwd_ms"] > 0
    name = record["workload"]
    assert (per_layer["kernels.upsample.bwd_ms"] > 0) == (name == "desk_train")
    assert (per_layer["kernels.conv333_s2.fwd_ms"] > 0) == (name == "paper_width")
    assert (per_layer["metrics.evaluate.ms"] > 0) == (name == "heldout_eval")
    assert (per_layer["model.checkpoint.bytes"] > 0) == (name == "heldout_eval")
    assert os.path.exists(os.path.join(tmp_path, f"{name}-seed1-trace1-spans.json"))


# -- the contract -------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert name_re.match(m["name"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
