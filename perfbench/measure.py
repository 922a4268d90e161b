"""Timed and traced runs of one workload, and the metrics they yield.

A timed run (--trace 0) measures the end-to-end metrics with tracing off,
scaling each operation's and set-up's time to nominal host speed with the
reference blocks of hostspeed.py that bracket it. A traced run (--trace 1)
is a separate process: it sets up once under the tracer, runs half its
time untraced and half traced, then runs each layer alone forward and
backward at the shapes the traced half captured. The
metrics either run emits are the lists in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import env
import hostspeed
import tracing
from kwspot import autodiff, layers
from workloads import PAPER, WORKLOAD_CLASSES, Scale, Tally, set_up

# Per-layer metrics that only some workloads exercise. They are printed and
# written to the trace file; BENCHMARK.json lists only metrics that every
# workload emits.
WORKLOAD_LAYER_METRICS = {
    "train": (("training.forward_ms", "ms"), ("training.adam_step_ms", "ms"),
              ("autodiff.backward_ms", "ms")),
    "spot": (("models.predict_ms", "ms"),),
    "eval": (("models.predict_ms", "ms"), ("eval.evaluate_ms", "ms"),
             ("eval.emit_report_ms", "ms")),
}

# Layer-isolated forward+backward runs: metric site -> traced call sites.
PROBES = {
    "conv2d.0": ("layers.conv2d.0",),
    "conv2d.1": ("layers.conv2d.1",),
    "max_pool.0": ("layers.max_pool.0",),
    "batch_norm.0": ("layers.batch_norm.0",),
    "bilstm_sequence.0": ("layers.bilstm_sequence.0",),
    "bilstm_sequence.1": ("layers.bilstm_sequence.1",),
    "attention.0": ("layers.attention.0",),
    "attention.1": ("layers.attention.1",),
    "attention.2": ("layers.attention.2",),
    "dense.head": ("layers.dense.0", "layers.dense.1"),
}
PROBE_MIN_S = 0.2
PROBE_REPS = (3, 25)

# A timed run sets up in three windows spread over the run: before, between
# and after the two halves of its timed operations. Each window holds at
# least SETUP_REPEATS set-ups and its SETUP_SECONDS, and setup_s is the
# median of all of them, each scaled to nominal host speed. On a shared
# host a burst of load can slow one window by half; the median over three
# windows stays steady where one window's does not. The first window is the
# longest, so that the peak resident memory read after it has reached the
# level that repeated set-ups settle at.
SETUP_REPEATS = 4
SETUP_SECONDS = (2.0, 0.8, 0.8)


def _declared(kind: str) -> list:
    return json.loads((env.ROOT / "BENCHMARK.json").read_text())[kind]


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale = PAPER) -> dict:
    """One benchmark run: the last-line metrics, a `report` of every metric
    the workload names, the tally of attempted and failed operations and,
    for traced runs, the tracer and its per-span table."""
    env.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=env.WORK))
    tally = Tally()
    try:
        if trace:
            result = _traced(name, seed, seconds, scale, work, tally)
        else:
            result = _timed(name, seed, seconds, scale, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(correct=tally.failed == 0, attempted=tally.attempted,
                  failed=tally.failed, notes=tally.notes)
    return result


def _run_ops(workload, first: int, seconds: float, tally: Tally, tracer=None,
             typical: float | None = None) -> tuple:
    """Closed loop for `seconds`, stopping early where a typical op would
    end past them; returns (per-op seconds of the ops that succeeded, the
    same scaled to nominal host speed, next op number). At least one op
    runs. Given the seconds of a `typical` op, a block of host-speed
    reference passes runs before the first op and after each; otherwise
    the scaled list is empty."""
    latencies, scaled = [], []
    bracket = typical is not None
    before = hostspeed.block(typical) if bracket else None
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        if tracer is not None:
            tracer.op = i + 1
        t0 = time.perf_counter()
        try:
            workload.run_op(i)
            ok, what = True, ""
        except Exception:  # a failed op is counted, and the loop goes on
            ok, what = False, f"op {i}: {traceback.format_exc(limit=3)}"
        elapsed = time.perf_counter() - t0
        tally.record(ok, what)
        if bracket:
            after = hostspeed.block(elapsed)
            if ok:
                scaled.append(hostspeed.scale(elapsed, before, after))
            before = after
        if ok:
            latencies.append(elapsed)
        i += 1
        typical = statistics.median(latencies) if latencies else elapsed
        if time.perf_counter() + typical > deadline:
            return latencies, scaled, i


def _set_ups(name, scale, seed, work, times: list, scaled: list, seconds: float):
    """One window of set-ups between blocks of host-speed reference passes,
    appending the seconds of each to `times` and the same scaled to nominal
    host speed to `scaled`; returns the workload of the last."""
    start = len(times)
    before = hostspeed.block(times[-1] if times else 0.0)
    while len(times) - start < SETUP_REPEATS or sum(times[start:]) < seconds:
        target = work / f"setup{len(times)}"
        target.mkdir()
        t0 = time.perf_counter()
        workload = WORKLOAD_CLASSES[name](set_up(name, scale, seed, target), scale, seed)
        times.append(time.perf_counter() - t0)
        after = hostspeed.block(times[-1])
        scaled.append(hostspeed.scale(times[-1], before, after))
        before = after
        if len(times) - start > 1:
            shutil.rmtree(work / f"setup{len(times) - 2}")
    return workload


def _timed(name, seed, seconds, scale, work, tally) -> dict:
    setup_s, setup_scaled = [], []
    workload = _set_ups(name, scale, seed, work, setup_s, setup_scaled, SETUP_SECONDS[0])
    warm, _, op = _run_ops(workload, 0, 0.0, tally)  # warm-up: first-call allocations
    typical = warm[0] if warm else setup_s[-1]
    first, first_scaled, op = _run_ops(workload, op, seconds / 2, tally, typical=typical)
    # Read before the later set-ups: they run beside the live workload and
    # would add a varying share of their memory to its peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _set_ups(name, scale, seed, work, setup_s, setup_scaled, SETUP_SECONDS[1])
    second, second_scaled, _ = _run_ops(workload, op, seconds / 2, tally, typical=typical)
    _set_ups(name, scale, seed, work, setup_s, setup_scaled, SETUP_SECONDS[2])
    workload.verify(tally)
    if not first + second:
        raise RuntimeError("no operation succeeded")
    ms = np.asarray(first + second) * 1e3
    norm_ms = np.asarray(first_scaled + second_scaled) * 1e3
    items_per_s = workload.items_per_op * len(ms) / (ms.sum() / 1e3)
    norm_items_per_s = workload.items_per_op * len(norm_ms) / (norm_ms.sum() / 1e3)
    p50, p95 = np.percentile(ms, [50, 95])
    norm_p50, norm_p95 = np.percentile(norm_ms, [50, 95])
    values = {
        "norm_throughput_per_s": norm_items_per_s,
        "norm_latency_ms_p50": norm_p50,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_scaled),
    }
    named = {
        "train": {"train_samples_per_s": (items_per_s, "1/s"),
                  "train_step_latency_ms_p50": (p50, "ms")},
        "spot": {"spot_latency_ms_p50": (p50, "ms"),
                 "spot_latency_ms_p95": (p95, "ms"),
                 "spot_clips_per_s": (items_per_s, "1/s"),
                 "norm_latency_ms_p95": (norm_p95, "ms")},
        "eval": {"eval_clips_per_s": (items_per_s, "1/s"),
                 "eval_run_latency_ms_p50": (p50, "ms")},
    }[name]
    report = {
        **named,
        "norm_throughput_per_s": (norm_items_per_s, "1/s"),
        "norm_latency_ms_p50": (norm_p50, "ms"),
        "host_speed": (float(np.median(norm_ms / ms)), "ratio"),
        "setup_s": (values["setup_s"], "s"),
        "setup_s_measured": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ratio": (tally.failed / max(tally.attempted, 1), "ratio"),
        "setups": (len(setup_s), "count"),
        "ops": (len(ms), workload.unit),
        "ops_beyond_p95": (int((ms > p95).sum()), workload.unit),
    }
    metrics = {m["name"]: (float(values[m["name"]]), m["unit"]) for m in _declared("end_to_end")}
    return {"metrics": metrics, "report": report}


def _traced(name, seed, seconds, scale, work, tally) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup = set_up(name, scale, seed, work)
        workload = WORKLOAD_CLASSES[name](setup, scale, seed)
    finally:
        tracer.close()
    _run_ops(workload, 0, 0.0, tally)  # warm-up
    plain, _, first = _run_ops(workload, 1, seconds / 2, tally)
    tracer.install()
    try:
        traced, _, last = _run_ops(workload, first, seconds / 2, tally, tracer)
    finally:
        tracer.close()
    if not plain or not traced:
        raise RuntimeError("no operation succeeded")
    values = _layer_values(name, workload, tracer, range(first + 1, last + 1), tally, scale)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    for site, ms in _probes(tracer, seed).items():
        values[f"layers.{site}.fwd_bwd_ms"] = ms
    workload.verify(tally)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in _declared("per_layer")}
    report = metrics | {k: (values[k], unit) for k, unit in WORKLOAD_LAYER_METRICS[name]}
    return {"metrics": metrics, "report": report, "tracer": tracer, "table": tracer.table()}


def _layer_values(name, workload, tracer, ops, tally, scale) -> dict:
    """Per-layer values from the spans of set-up and the traced ops. Front
    end numbers are per featurized clip, model numbers per step (train) or
    per clip (spot, eval); scan, checkpoint load and report write are a
    mean over their calls."""
    table = tracer.table()
    fe_clips = workload.setup_clips + workload.clips_per_op * len(ops)
    units = workload.forwards_per_op * len(ops)

    def calls(span):
        return table[span]["calls"] if span in table else 0

    def total_ms(span):
        return table[span]["incl_ns"] / 1e6 if span in table else 0.0

    def per_call_ms(span):
        return total_ms(span) / calls(span) if span in table else 0.0

    graph = tracer.per_op_counts(
        "autodiff.graph_nodes.loss" if name == "train" else "autodiff.graph_nodes.logits", ops)
    exact = {
        "autodiff.graph_nodes": graph,
        "models.model_forward.calls": tracer.per_op_calls("models.model_forward", ops),
        "dsp.build_mel_filterbank.calls":
            tracer.per_op_calls("dsp.build_mel_filterbank", ops if workload.clips_per_op else [0]),
    }
    for counter, per_op in exact.items():
        tally.record(len(set(per_op)) <= 1, f"{counter} differs between ops: {sorted(set(per_op))}")
    # A function that is no longer called counts 0, not a missing metric.
    values = {
        "autodiff.graph_nodes": graph[0] if graph else 0,
        "models.model_forward.calls": calls("models.model_forward") / units,
        "dsp.build_mel_filterbank.calls": calls("dsp.build_mel_filterbank") / fe_clips,
    }
    _check_counts_repeat(tally, name, scale, values)
    values |= {
        "audio_io.read_wav_ms": total_ms("audio_io.read_wav") / fe_clips,
        "audio_io.scan_dataset_ms": per_call_ms("audio_io.scan_dataset"),
        "dsp.mfcc_pipeline_ms": total_ms("dsp.mfcc_pipeline") / fe_clips,
        "dsp.power_spectrum_ms": total_ms("dsp.power_spectrum") / fe_clips,
        "dsp.build_mel_filterbank_ms": total_ms("dsp.build_mel_filterbank") / fe_clips,
        "training.load_checkpoint_ms": per_call_ms("training.load_checkpoint"),
        "training.forward_ms":
            (total_ms("models.model_forward") + total_ms("training.cross_entropy_loss")) / units,
        "training.adam_step_ms": total_ms("training.adam_step") / units,
        "autodiff.backward_ms": total_ms("autodiff.backward") / units,
        "models.predict_ms": total_ms("models.predict") / units,
        "eval.evaluate_ms": total_ms("eval.evaluate") / units,
        "eval.emit_report_ms": per_call_ms("eval.emit_report"),
    }
    # Call sites: layers.<fn>.<i> spans; both dropouts and both head denses
    # are summed into one site each.
    for span, row in table.items():
        if span.startswith("layers."):
            _, fn, i = span.split(".")
            site = {"dropout": "dropout", "dense": "dense.head"}.get(fn, f"{fn}.{i}")
            key = f"layers.{site}.fwd_ms"
            values[key] = values.get(key, 0.0) + row["self_ns"] / 1e6 / units
    return values


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((env.SRC / "kwspot").rglob("*.py")) + sorted(env.BENCH_DIR.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_counts_repeat(tally, workload, scale, counts: dict):
    """Exact counters must repeat across runs of the same code: compare with
    what earlier runs in this checkout recorded."""
    store = env.WORK / "counters.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    before = seen.setdefault(f"{_code_hash()}/{scale.name}/{workload}", counts)
    for name, value in counts.items():
        tally.record(before.get(name, value) == value,
                     f"{name} = {value} here, {before.get(name)} in an earlier run")
    store.write_text(json.dumps(seen, indent=1, sort_keys=True))


def _probe(fn, spec, seed: int) -> float:
    """Median seconds of one forward+backward of `fn` on fresh arguments
    shaped like a traced call."""
    rng = np.random.default_rng([seed, 3])
    args_spec, kwargs_spec = spec
    times = []
    while len(times) < PROBE_REPS[1] and (len(times) < PROBE_REPS[0] or sum(times) < PROBE_MIN_S):
        args = [tracing.build_arg(s, rng) for s in args_spec]
        kwargs = {k: tracing.build_arg(s, rng) for k, s in kwargs_spec.items()}
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        out = out[0] if isinstance(out, tuple) else out
        autodiff.backward((out * autodiff.Tensor(np.ones(out.shape))).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _probes(tracer, seed) -> dict:
    """fwd_bwd milliseconds per probed site."""
    out = {}
    for site, spans in PROBES.items():
        missing = [span for span in spans if span not in tracer.sites]
        if missing:
            raise RuntimeError(f"no traced call of {missing} to probe")
        out[site] = 1e3 * sum(
            _probe(getattr(layers, span.split(".")[1]), tracer.sites[span], seed)
            for span in spans)
    return out


def write_trace(name: str, seed: int, result: dict, record: dict) -> Path:
    """Write the spans, the per-span self/inclusive table and the metrics of
    a traced run to .perfbench_work/ and return the file's path."""
    tracer = result["tracer"]
    path = env.WORK / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name,
        "env": record,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["report"].items()},
        "table_ms": {
            span: {"calls": row["calls"], "self": row["self_ns"] / 1e6,
                   "inclusive": row["incl_ns"] / 1e6}
            for span, row in sorted(result["table"].items())
        },
        "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
        "spans": tracer.spans,
        "counts": tracer.counts,
    }))
    return path
