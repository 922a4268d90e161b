"""Smoke test of the benchmark itself, at tiny scale.

    python3 perfbench/selftest.py

Runs train, spot and eval untraced and twice traced on the README's 4 kHz
configuration with narrow layers, for about a second each, and asserts
that every run is correct and emits every metric below with its unit,
that the exact counters read the same in both traced runs,
that the last-line JSON matches BENCHMARK.json, and that run.py fails
without printing a result in a directory holding only BENCHMARK.json and
perfbench/. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import env

env.pin_threads()
env.import_kwspot()

import measure  # noqa: E402
import run  # noqa: E402
from workloads import SMOKE, WORKLOAD_CLASSES  # noqa: E402

# The metrics each workload must report, named independently of
# measure.py so that a renamed or dropped metric fails here.
END_TO_END = {
    "train": {"train_samples_per_s": "1/s"},
    "spot": {"spot_latency_ms_p50": "ms", "spot_latency_ms_p95": "ms"},
    "eval": {"eval_clips_per_s": "1/s"},
}
END_TO_END_ALL = {"setup_s": "s", "setup_s_measured": "s", "peak_rss_mb": "MB",
                  "failed_ratio": "ratio", "norm_throughput_per_s": "1/s",
                  "norm_latency_ms_p50": "ms", "host_speed": "ratio"}

_FWD_SITES = ("conv2d.0", "conv2d.1", "batch_norm.0", "batch_norm.1", "max_pool.0",
              "max_pool.1", "dropout", "bilstm_sequence.0", "bilstm_sequence.1",
              "attention.0", "attention.1", "attention.2", "dense.head")
_FWD_BWD_SITES = ("conv2d.0", "conv2d.1", "max_pool.0", "batch_norm.0",
                  "bilstm_sequence.0", "bilstm_sequence.1", "attention.0",
                  "attention.1", "attention.2", "dense.head")
PER_LAYER_ALL = {
    "audio_io.read_wav_ms": "ms",
    "audio_io.scan_dataset_ms": "ms",
    "dsp.mfcc_pipeline_ms": "ms",
    "dsp.power_spectrum_ms": "ms",
    "dsp.build_mel_filterbank_ms": "ms",
    "dsp.build_mel_filterbank.calls": "count",
    "training.load_checkpoint_ms": "ms",
    "models.model_forward.calls": "count",
    "autodiff.graph_nodes": "count",
    "trace.overhead_ratio": "ratio",
    **{f"layers.{site}.fwd_ms": "ms" for site in _FWD_SITES},
    **{f"layers.{site}.fwd_bwd_ms": "ms" for site in _FWD_BWD_SITES},
}
PER_LAYER = {
    "train": {"training.forward_ms": "ms", "training.adam_step_ms": "ms",
              "autodiff.backward_ms": "ms"},
    "spot": {"models.predict_ms": "ms"},
    "eval": {"models.predict_ms": "ms", "eval.evaluate_ms": "ms",
             "eval.emit_report_ms": "ms"},
}
# Counts that must read the same on every run of the same code.
EXACT = ("autodiff.graph_nodes", "dsp.build_mel_filterbank.calls",
         "models.model_forward.calls")


def _check_units(where, got: dict, want: dict):
    for name, unit in want.items():
        assert name in got, f"{where}: {name} missing"
        value, got_unit = got[name]
        assert got_unit == unit, f"{where}: {name} in {got_unit}, expected {unit}"
        assert isinstance(value, (int, float)), f"{where}: {name} = {value!r}"


def _check_line(where, line: dict, declared: list):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, where
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, \
        f"{where}: {line['failed']} of {line['attempted']} failed"
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want, f"{where}: metrics {sorted(got)} != BENCHMARK.json {sorted(want)}"


def check_workloads():
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOAD_CLASSES:
        timed = measure.run(name, 0, 1.0, trace=False, scale=SMOKE)
        assert not timed["notes"], timed["notes"]
        _check_units(f"{name} timed", timed["report"], END_TO_END[name] | END_TO_END_ALL)
        _check_line(f"{name} timed", run.result_line(timed), declared["end_to_end"])
        for metric in declared["end_to_end"]:
            assert timed["metrics"][metric["name"]][0] > 0, f"{name}: {metric['name']} is 0"

        traced = measure.run(name, 0, 1.0, trace=True, scale=SMOKE)
        assert not traced["notes"], traced["notes"]
        _check_units(f"{name} traced", traced["report"], PER_LAYER_ALL | PER_LAYER[name])
        _check_line(f"{name} traced", run.result_line(traced), declared["per_layer"])
        again = measure.run(name, 0, 1.0, trace=True, scale=SMOKE)
        assert not again["notes"], again["notes"]
        for metric in EXACT:
            assert traced["report"][metric][0] == again["report"][metric][0], \
                f"{name}: {metric} differs between two traced runs"
        print(f"selftest: {name} ok ({timed['attempted']} timed and "
              f"{traced['attempted']} traced ops and checks)")


def check_refuses_without_program():
    """run.py must exit non-zero, printing no result, where the checkout
    holds only BENCHMARK.json and the benchmark's own files."""
    env.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=env.WORK))
    try:
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(env.BENCH_DIR, bare / env.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{env.BENCH_DIR.name}/run.py", "--workload", "spot",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without the program"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the program"
    print("selftest: bare checkout refused")


if __name__ == "__main__":
    check_workloads()
    check_refuses_without_program()
    print("selftest: all checks passed")
