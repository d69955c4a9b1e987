"""Set-up, closed-loop measurement, checks and metrics of one benchmark run."""

import contextlib
import gc
import json
import os
import resource
import shutil
import tempfile
import time
from fractions import Fraction

from mcdenoise import model, perf
from mcdenoise.errors import NumericError

import context
import spans
import stats
from workloads import WORKLOADS, WideSize, module_flops

# name -> unit; every workload reports all of them (see README.md for what
# "op" and "forward" are on each workload). Latencies are bounded as means:
# on the small shared VM the bounds were set on, speed drifts between a fast
# and a slow state over seconds, and a median snaps to whichever state held
# most of a run, so the run-to-run spread of the medians and tails reached
# the largest bound allowed. They are still printed and recorded, unbounded.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "forward_ms_mean": "ms",
}

KERNEL_OPS = (
    "conv331_s2", "conv113_s2", "conv331_s1", "conv113_s1", "conv333_s2",
    "instance_norm", "upsample", "shuffle",
)
CONV_OPS = KERNEL_OPS[:5]
# Exact conv FLOPs at 256x256x64, base 64; the paper rounds them to 57.3 and 926.1 GFLOPs.
REFERENCE_FLOPS = {"proposed": 57_352_912_896, "unet": 926_127_489_024}


def _per_layer_units():
    units = {}
    for k in KERNEL_OPS:
        units.update({f"kernels.{k}.fwd_ms": "ms", f"kernels.{k}.bwd_ms": "ms", f"kernels.{k}.calls": "count"})
    for k in CONV_OPS:
        units.update({f"kernels.{k}.gflops_per_s": "GFLOP/s", f"kernels.{k}.mb_moved": "MB"})
    units.update({
        "tensor.backward.self_ms": "ms",
        "tensor.tape_nodes": "count",
        "tensor.retained_mb": "MB",
        "tensor.concat.fwd_ms": "ms",
        "tensor.concat.bwd_ms": "ms",
        "tensor.relu.fwd_ms": "ms",
        "tensor.relu.bwd_ms": "ms",
        "model.forward.ms": "ms",
        "model.forward.self_ms": "ms",
        "model.checkpoint.save_ms": "ms",
        "model.checkpoint.load_ms": "ms",
        "model.checkpoint.bytes": "bytes",
        "model.build_ms": "ms",
        "training.preprocess.ms": "ms",
        "training.n2n_loss.ms": "ms",
        "training.adam_step.ms": "ms",
        "training.denoise_volume.self_ms": "ms",
        "training.loss_tail": "loss",
        "phantom.generate_dataset.ms": "ms",
        "phantom.load.ms": "ms",
        "phantom.add_quantum_noise.ms": "ms",
        "volio.bytes_written": "bytes",
        "volio.bytes_read": "bytes",
        "metrics.evaluate.ms": "ms",
        "metrics.dvh.ms": "ms",
        "metrics.d_number.ms": "ms",
        "metrics.isodose_dice.ms": "ms",
        "metrics.mse_ratio": "ratio",
        "metrics.d95_abs_bias": "ratio",
        "perf.flops_per_op": "count",
        "perf.reference_gflops.proposed": "GFLOP",
        "perf.reference_gflops.unet": "GFLOP",
        "perf.module_mac_ratio": "ratio",
        "perf.decoupled_module_ms_p50": "ms",
        "perf.regular_module_ms_p50": "ms",
        "perf.module_time_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def _attempt(workload):
    try:
        return workload.op()
    except NumericError:
        return None, False


def _set_up(factory, workdir, setups, tracer):
    """Set the workload up several times; return the last one and every duration."""
    least, most, budget = setups
    durations, fingerprints = [], []
    while len(durations) < least or (sum(durations) < budget and len(durations) < most):
        workload = None
        gc.collect()
        rep_dir = os.path.join(workdir, f"setup{len(durations)}")
        workload = factory()
        start = time.perf_counter()
        workload.setup(rep_dir)
        durations.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.phase = "fingerprint"
        fingerprints.append(workload.fingerprint())
        if tracer is not None:
            tracer.phase = "setup"
        if len(durations) > 1:
            shutil.rmtree(os.path.join(workdir, f"setup{len(durations) - 2}"), ignore_errors=True)
    return workload, durations, fingerprints


def _reference_checks(blas_threads, ctx):
    """Exact counts that hold on every workload, plus the thread setting."""
    proposed = perf.count_flops(model.build_proposed(model.PAPER_PROPOSED_CONFIG), (256, 256, 64))
    unet = perf.count_flops(model.build_unet_baseline(model.PAPER_UNET_CONFIG), (256, 256, 64))
    wide = WideSize()
    decoupled, regular = module_flops(wide.module_channels, wide.module_extents)
    counted = {"proposed": proposed.total_flops, "unet": unet.total_flops}
    checks = [
        (f"reference FLOPs, {name}: {REFERENCE_FLOPS[name]:,}", counted[name] == REFERENCE_FLOPS[name])
        for name in REFERENCE_FLOPS
    ]
    gflops = {name: value / 1e9 for name, value in counted.items()}
    checks.append(("module MAC ratio is 7/9", Fraction(decoupled, regular) == Fraction(7, 9)))
    if ctx["blas_threads"] is not None:
        checks.append((f"BLAS threads in effect: {blas_threads}", ctx["blas_threads"] == blas_threads))
    return checks, gflops, decoupled / regular


def run(factory, seconds, traced, out_dir, setups, blas_threads):
    """Set up, warm up, measure for ``seconds``, check; return the full record.

    ``factory`` makes a fresh workload object; each set-up repetition gets
    its own, so the previous one's memory is released first.
    """
    name = factory().name
    tracer = spans.Tracer() if traced else None
    ctx = context.run_context()
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        with spans.instrument(tracer) if traced else contextlib.nullcontext():
            wl, setup_times, fingerprints = _set_up(factory, workdir, setups, tracer)
            if tracer is not None:
                tracer.phase = "warmup"
            attempted = failed = 0
            for _ in range(wl.warmup):
                _, ok = _attempt(wl)
                attempted += 1
                failed += not ok
            gc.collect()
            if tracer is not None:
                tracer.phase = "loop"
            op_s, forward_s = [], []
            start = time.perf_counter()
            deadline = start + seconds
            while True:
                t0 = time.perf_counter()
                fwd, ok = _attempt(wl)
                t1 = time.perf_counter()
                op_s.append(t1 - t0)
                if fwd is not None:
                    forward_s.append(fwd)
                attempted += 1
                failed += not ok
                if t1 >= deadline:
                    break
            elapsed = t1 - start
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.phase = "checks"
            checks = list(wl.checks())
            checks.append(("set-up repetitions give identical inputs", len(set(fingerprints)) == 1))
            ref_checks, ref_gflops, mac_ratio = _reference_checks(blas_threads, ctx)
            checks += ref_checks
            extras = dict(wl.quality())
            extras["perf.flops_per_op"] = wl.flops_per_op()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += len(checks)
    failed += sum(not passed for _, passed in checks)
    extras["perf.reference_gflops.proposed"] = ref_gflops["proposed"]
    extras["perf.reference_gflops.unet"] = ref_gflops["unet"]
    extras["perf.module_mac_ratio"] = mac_ratio
    end_to_end = {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(op_s) / elapsed,
        "forward_ms_mean": sum(forward_s) / len(forward_s) * 1e3 if forward_s else float("nan"),
    }
    latency = {"op": latency_summary(op_s)}
    if forward_s:
        latency["forward"] = latency_summary(forward_s)
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "traced": traced,
        "context": ctx,
        "setup_times_s": setup_times,
        "ops": len(op_s),
        "elapsed_s": elapsed,
        "latency_ms": latency,
        "checks": [{"check": name, "passed": bool(passed)} for name, passed in checks],
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "extras": extras,
    }
    if traced:
        summary = spans.summarize(tracer.spans)
        record["per_layer"] = per_layer_metrics(tracer, summary, len(op_s), len(setup_times), extras)
        record["accounting"] = accounting(tracer.spans, summary, op_s)
        record["span_table"] = [
            {"phase": phase, "name": name, **row} for (phase, name), row in sorted(summary.items())
        ]
    _write_record(record, tracer, out_dir)
    return record


def latency_summary(samples):
    """Median and tail in ms, with the tail's percentile and the sample count."""
    tail_s, tail_pct = stats.tail(samples)
    return {"p50": stats.median(samples) * 1e3, "tail": tail_s * 1e3,
            "tail_percentile": tail_pct, "samples": len(samples)}


def per_layer_metrics(tracer, summary, n_ops, n_setups, extras):
    """Per-layer values: loop spans per operation, set-up spans per set-up."""

    def loop(name, field="total_s"):
        return summary.get(("loop", name), {}).get(field, 0.0)

    def setup(name, field="total_s"):
        return summary.get(("setup", name), {}).get(field, 0.0)

    def per_op_ms(name, field="total_s"):
        return loop(name, field) / n_ops * 1e3

    values = {}
    for k in KERNEL_OPS:
        values[f"kernels.{k}.fwd_ms"] = per_op_ms(f"kernels.{k}")
        values[f"kernels.{k}.bwd_ms"] = per_op_ms(f"kernels.{k}.bwd")
        values[f"kernels.{k}.calls"] = loop(f"kernels.{k}", "calls") / n_ops
    for k in CONV_OPS:
        busy = loop(f"kernels.{k}")
        flops = tracer.counters[("loop", f"kernels.{k}.flops")]
        values[f"kernels.{k}.gflops_per_s"] = flops / busy / 1e9 if busy else 0.0
        values[f"kernels.{k}.mb_moved"] = tracer.counters[("loop", f"kernels.{k}.bytes")] / n_ops / 1e6
    values.update({
        "tensor.backward.self_ms": per_op_ms("tensor.backward", "self_s"),
        "tensor.tape_nodes": tracer.maxima[("loop", "tensor.tape_nodes")],
        "tensor.retained_mb": tracer.maxima[("loop", "tensor.retained_bytes")] / 1e6,
        "tensor.concat.fwd_ms": per_op_ms("tensor.concat"),
        "tensor.concat.bwd_ms": per_op_ms("tensor.concat.bwd"),
        "tensor.relu.fwd_ms": per_op_ms("tensor.relu"),
        "tensor.relu.bwd_ms": per_op_ms("tensor.relu.bwd"),
        "model.forward.ms": per_op_ms("model.forward"),
        "model.forward.self_ms": per_op_ms("model.forward", "self_s"),
        "model.checkpoint.save_ms": setup("model.checkpoint.save") / n_setups * 1e3,
        "model.checkpoint.load_ms": setup("model.checkpoint.load") / n_setups * 1e3,
        "model.checkpoint.bytes": tracer.counters[("setup", "model.checkpoint.bytes")] / n_setups,
        "model.build_ms": setup("model.build") / n_setups * 1e3,
        "training.preprocess.ms": per_op_ms("training.preprocess"),
        "training.n2n_loss.ms": per_op_ms("training.n2n_loss"),
        "training.adam_step.ms": per_op_ms("training.adam_step"),
        "training.denoise_volume.self_ms": per_op_ms("training.denoise_volume", "self_s"),
        "phantom.generate_dataset.ms": setup("phantom.generate_dataset") / n_setups * 1e3,
        "phantom.load.ms": setup("phantom.load") / n_setups * 1e3,
        "phantom.add_quantum_noise.ms": per_op_ms("phantom.add_quantum_noise"),
        "volio.bytes_written": tracer.counters[("setup", "volio.bytes_written")] / n_setups,
        "volio.bytes_read": tracer.counters[("setup", "volio.bytes_read")] / n_setups,
        "metrics.evaluate.ms": per_op_ms("metrics.evaluate"),
        "metrics.dvh.ms": per_op_ms("metrics.dvh"),
        "metrics.d_number.ms": per_op_ms("metrics.d_number"),
        "metrics.isodose_dice.ms": per_op_ms("metrics.isodose_dice"),
    })
    for name in PER_LAYER:
        if name not in values:
            values[name] = float(extras.get(name, 0.0))
    return {name: values[name] for name in PER_LAYER}


def accounting(span_list, summary, op_s):
    """Where the traced loop time went, in ms per operation."""
    n = len(op_s)
    groups = {}
    for (phase, name), row in summary.items():
        if phase != "loop":
            continue
        group = name.split(".")[0] if not name.startswith("model.forward") else "model.forward"
        groups[group] = groups.get(group, 0.0) + row["self_s"] / n * 1e3
    covered = sum(s[spans.END] - s[spans.START] for s in span_list
                  if s[spans.PHASE] == "loop" and s[spans.PARENT] < 0)
    op_mean_ms = sum(op_s) / n * 1e3
    return {
        "self_ms_by_layer": dict(sorted(groups.items())),
        "spans_ms_per_op": covered / n * 1e3,
        "op_ms_mean": op_mean_ms,
        "unattributed_ms_per_op": op_mean_ms - covered / n * 1e3,
    }


def _write_record(record, tracer, out_dir):
    stem = f"{record['workload']}-seed{record['seed']}-trace{int(record['traced'])}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if tracer is not None:
        with open(os.path.join(out_dir, stem + "-spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "phase"], "spans": tracer.spans}, fh)


def _metrics_out(record):
    if record["traced"]:
        return {name: (value, PER_LAYER[name]) for name, value in record["per_layer"].items()}
    return {name: (value, END_TO_END[name]) for name, value in record["end_to_end"].items()}


def result_line(record) -> str:
    """The last line of output: correct, attempted, failed and the metrics."""
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in _metrics_out(record).items()}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def report_lines(record):
    ctx = record["context"]
    e2e = record["end_to_end"]
    extras = record["extras"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={int(record['traced'])}",
        "context: " + " ".join(f"{k}={v}" for k, v in ctx.items()),
        f"set-up: {len(record['setup_times_s'])} repetitions, median {e2e['setup_s']:.4f} s",
        f"ops: {record['ops']} in {record['elapsed_s']:.3f} s",
    ]
    for what, row in record["latency_ms"].items():
        lines.append(
            f"{what} latency: p50 {row['p50']:.3f} ms, tail p{row['tail_percentile']:.2f} "
            f"{row['tail']:.3f} ms, {row['samples']} samples"
        )
    for check in record["checks"]:
        lines.append(f"check {'PASS' if check['passed'] else 'FAIL'}: {check['check']}")
    lines.append(f"failed_share: {record['failed']}/{record['attempted']} = "
                 f"{record['failed'] / record['attempted']:.4g}")
    lines.append(f"analytic FLOPs per op: {extras['perf.flops_per_op']:,}")
    lines.append(f"reference GFLOPs at 256x256x64: proposed {extras['perf.reference_gflops.proposed']:.3f}, "
                 f"unet-baseline {extras['perf.reference_gflops.unet']:.3f}")
    if "perf.module_time_ratio" in extras:
        lines.append(
            f"modules: decoupled {extras['perf.decoupled_module_ms_p50']:.3f} ms, regular "
            f"{extras['perf.regular_module_ms_p50']:.3f} ms (p50); measured time ratio "
            f"{extras['perf.module_time_ratio']:.4f} vs analytic MAC ratio 7/9 = "
            f"{extras['perf.module_mac_ratio']:.4f}"
        )
    for name, value in extras.items():
        if not name.startswith("perf."):
            lines.append(f"{name}: {value:.6g}")
    if record["traced"]:
        acc = record["accounting"]
        lines.append(
            f"traced op: mean {acc['op_ms_mean']:.3f} ms; spans cover "
            f"{acc['spans_ms_per_op']:.3f} ms per op, {acc['unattributed_ms_per_op']:.3f} ms unattributed"
        )
        for group, ms in acc["self_ms_by_layer"].items():
            lines.append(f"  self ms per op, {group}: {ms:.3f}")
    for name, (value, unit) in _metrics_out(record).items():
        lines.append(f"{name} = {value:.6g} {unit}")
    return lines
