"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

The verdict lines are collected in conftest.ACCEPTANCE_LINES and echoed
in a terminal section after the run, so they survive output capture.
"""

import time

import numpy as np
import pytest

from kwspot import dsp
from kwspot.autodiff import Tensor
from kwspot.cli import run_cli
from kwspot.errors import DataError
from kwspot.eval import confusion_matrix, emit_report
from kwspot.layers import (
    BnStats, attention, batch_norm, bilstm_sequence, conv2d, dense, max_pool,
)
from kwspot.models import ARCHITECTURES, ModelConfig, build_model, model_forward
from kwspot.training import (
    TrainConfig, cross_entropy_loss, featurize_index, fit, init_adam,
    load_checkpoint, save_checkpoint, train_epoch,
)

import conftest
from conftest import _bilstm_params, accuracy_by_label, parse_report_csv, script_validation
from oracles import (
    _worst_rel_err, grad_check, naive_dct_ii, naive_dft_power, naive_mel_energies, square, tanh,
)


def _verdict(number, name, ok, detail=""):
    line = f"CRITERION {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---- criterion 1: DSP oracle equivalence ------------------------------

def test_criterion_1_dsp_oracle_equivalence(small_dsp_config):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_fft = 0.0
    for _ in range(100):
        n_fft = int(rng.choice([64, 128, 256]))
        frame = rng.normal(size=n_fft)
        fast = dsp.power_spectrum(frame[None], n_fft)[0]
        slow = naive_dft_power(frame, n_fft)
        worst_fft = max(worst_fft, np.abs(fast - slow).max())

    bank = dsp.build_mel_filterbank(small_dsp_config)
    spectra = rng.uniform(size=(8, bank.weights.shape[1]))
    worst_mel = _worst_rel_err(dsp.mel_energies(spectra, bank),
                               naive_mel_energies(spectra, bank.weights))

    m_dim, n_keep = 20, 10
    x = rng.normal(size=(6, m_dim))
    worst_dct = _worst_rel_err(dsp.dct_ii(x, n_keep), naive_dct_ii(x, n_keep))

    elapsed = time.perf_counter() - t0
    ok = worst_fft < 1e-6 and worst_mel < 1e-9 and worst_dct < 1e-9 and elapsed < 10
    _verdict(
        1, "DSP oracle equivalence", ok,
        f"fft {worst_fft:.2e}, mel {worst_mel:.2e}, dct {worst_dct:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---- criterion 2: filterbank invariants -------------------------------

def test_criterion_2_filterbank_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    ok = True
    for _ in range(5):
        sr = int(rng.choice([8000, 16000]))
        n_fft = int(rng.choice([256, 512]))
        config = dsp.DspConfig(
            sample_rate=sr, frame_len=n_fft, hop_len=n_fft // 2, n_fft=n_fft,
            n_mel_filters=int(rng.integers(15, 41)),
            n_mfcc=10, fmin=float(rng.uniform(20, 100)), fmax=sr / 2.0,
        )
        bank = dsp.build_mel_filterbank(config)
        bins = bank.center_bins
        for m in range(config.n_mel_filters):
            ok &= bank.weights[m, bins[m + 1]] == 1.0
            ok &= bank.weights[m, bins[m]] == 0.0
            ok &= bank.weights[m, bins[m + 2]] == 0.0
        total = bank.weights.sum(axis=0)
        interior = total[bins[1]:bins[-2] + 1]
        worst = max(worst, np.abs(interior - 1.0).max())
    elapsed = time.perf_counter() - t0
    ok = ok and worst < 1e-9 and elapsed < 1.0
    _verdict(
        2, "filterbank invariants", ok,
        f"partition deviation {worst:.2e}, {elapsed:.2f}s",
    )


# ---- criterion 3: gradient suite --------------------------------------

def _layer_gradchecks():
    """Max finite-difference error over one gradcheck per layer primitive."""
    rng = np.random.default_rng(1003)
    worst = 0.0

    x = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
    kernels = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    # unused draw: it keeps every later check on its frozen data point
    # (shifting them puts one true LSTM gradient of -6e-8 at the
    # finite-difference noise floor)
    rng.normal(size=3)
    worst = max(worst, grad_check(
        lambda: square(conv2d(x, kernels)).sum(), [x, kernels]
    ))

    xp = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
    worst = max(worst, grad_check(
        lambda: square(max_pool(xp)).sum(), [xp]
    ))

    xb = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
    beta = Tensor(rng.normal(size=2), requires_grad=True)
    coeff = Tensor(rng.normal(size=(4, 2, 3, 3)))
    stats = BnStats(mean=np.zeros(2), var=np.ones(2))
    worst = max(worst, grad_check(
        lambda: (coeff * square(batch_norm(xb, gamma, beta, stats, "train"))).sum(),
        [xb, gamma, beta],
    ))

    xd = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    wd = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    bd = Tensor(rng.normal(size=5), requires_grad=True)
    worst = max(worst, grad_check(
        lambda: square(tanh(dense(xd, wd, bd))).sum(), [xd, wd, bd]
    ))

    lstm = _bilstm_params(rng, 3, 2, scale=2.0)
    seq = Tensor(rng.normal(size=(3, 2, 3)).transpose(1, 0, 2))

    def lstm_loss():
        h = bilstm_sequence(seq, *lstm)[:, -1, :]
        return (h * h).sum()

    worst = max(worst, grad_check(lstm_loss, lstm))

    q = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    keys = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
    values = Tensor(rng.normal(size=(1, 5, 4)), requires_grad=True)

    def attn_loss():
        context, _ = attention(q, keys, values)
        return (context * context).sum()

    worst = max(worst, grad_check(attn_loss, [q, keys, values]))
    return worst


# frozen (model seed, data seed) points: chosen so that every parameter's
# smallest nonzero analytic gradient stays above the finite-difference
# noise floor (~5e-8 at eps 1e-5 in double precision), which the 1e-4
# end-to-end tolerance requires; the models are float64 for that reason
ARCH_GRADCHECK_SEEDS = {
    "cnn": (0, 0),
    "cnn_bilstm": (3, 5),
    "attention_rnn": (3, 5),
    "multilayer_attention": (4, 2),
}


def _arch_gradcheck_point(arch):
    model_seed, data_seed = ARCH_GRADCHECK_SEEDS[arch]
    model = build_model(ModelConfig(
        arch=arch, n_classes=2, input_shape=(8, 6),
        conv_channels=(2,) if arch == "cnn" else (3,),
        lstm_hidden=3, dense_hidden=4, dropout_rate=0.0, seed=model_seed,
        dtype="float64",
    ))
    # sharpen the recurrent and attention pathways: at plain glorot init
    # the chained-softmax query path attenuates some true gradients below
    # the finite-difference noise floor even though they are correct
    for name, p in model.params.items():
        if name.startswith("lstm") and ("_W" in name or "_U" in name):
            p.data *= 3.0
        if name in ("stage1_proj", "stage2_proj", "query_proj"):
            p.data *= 10.0
    rng = np.random.default_rng(data_seed)
    t = np.linspace(-2.0, 2.0, 8)[:, None]
    x = rng.normal(size=(4, 8, 6)) + 2.0 * t * rng.normal(size=(4, 1, 6))
    y = np.array([0, 1, 0, 1])
    return model, x, y


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    layer_worst = _layer_gradchecks()
    arch_errors = {}
    for arch in ARCHITECTURES:
        model, x, y = _arch_gradcheck_point(arch)
        params = list(model.params.values())
        arch_errors[arch] = grad_check(
            lambda: cross_entropy_loss(model_forward(model, x), y), params
        )
    elapsed = time.perf_counter() - t0
    arch_worst = max(arch_errors.values())
    ok = layer_worst < 1e-5 and arch_worst < 1e-4 and elapsed < 120
    _verdict(
        3, "gradient suite", ok,
        f"layers {layer_worst:.2e}, archs "
        + ", ".join(f"{a} {e:.2e}" for a, e in arch_errors.items())
        + f", {elapsed:.1f}s",
    )


# ---- criterion 4: overfit smoke test ----------------------------------

def test_criterion_4_overfit_smoke(synth_index, small_dsp_config):
    t0 = time.perf_counter()
    x, y = featurize_index(synth_index, small_dsp_config, "log_mel")
    model = build_model(ModelConfig(
        arch="multilayer_attention", n_classes=3, input_shape=x.shape[1:],
        conv_channels=(4,), lstm_hidden=8, dense_hidden=16,
        dropout_rate=0.0, seed=0,
    ))
    train_cfg = TrainConfig(max_epochs=201, batch_size=8, patience=200, seed=0)
    opt_state = init_adam(model.params)
    best_acc, epochs_used = 0.0, 0
    for epoch in range(1, 201):
        _, acc = train_epoch(model, (x, y), opt_state, train_cfg, epoch)
        best_acc, epochs_used = max(best_acc, acc), epoch
        if acc >= 0.95:
            break
    elapsed = time.perf_counter() - t0
    ok = best_acc >= 0.95 and elapsed < 300
    _verdict(
        4, "overfit smoke test", ok,
        f"train acc {best_acc:.3f} after {epochs_used} epochs, {elapsed:.1f}s",
    )


# ---- criterion 5: early-stopping contract -----------------------------

def test_criterion_5_early_stopping_contract(monkeypatch):
    t0 = time.perf_counter()
    model = build_model(ModelConfig(
        arch="cnn", n_classes=3, input_shape=(8, 8), conv_channels=(2,),
        dense_hidden=4, dropout_rate=0.0,
    ))
    rng = np.random.default_rng(1005)
    x = rng.normal(size=(12, 8, 8))
    y = np.arange(12) % 3
    captured = {}

    def accuracy(epoch):
        if epoch == 11:
            captured["snap"] = model.snapshot()
        return 1.0 - abs(epoch - 11) / 100.0

    script_validation(monkeypatch, accuracy)
    config = TrainConfig(max_epochs=40, patience=10, batch_size=8, seed=1)
    _, history = fit(model, (x, y), (x, y), config)
    restored = all(
        np.array_equal(arr, captured["snap"][name]) for name, arr in model.arrays()
    )
    elapsed = time.perf_counter() - t0
    ok = (
        len(history.records) == 21 and history.best_epoch == 11
        and restored and elapsed < 1.0
    )
    _verdict(
        5, "early-stopping contract", ok,
        f"stopped after epoch {len(history.records)}, best "
        f"{history.best_epoch}, snapshot restored {restored}, {elapsed:.2f}s",
    )


# ---- criterion 6: determinism -----------------------------------------

def _mask_seconds(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(
        ",".join(line.split(",")[:-1]) for line in lines
    )


def test_criterion_6_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = tmp_path / "synth.spec"
    spec.write_text(
        "n_classes = 3\nclips_per_class = 20\nsample_rate = 4000\n"
        "class_frequencies = 400, 800, 1400\nnoise_amplitude = 0.05\nseed = 42\n"
    )
    data = tmp_path / "data"
    assert run_cli(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "sample_rate = 4000\nframe_len = 128\nhop_len = 64\nn_fft = 128\n"
        "n_mel_filters = 20\nn_mfcc = 10\nfmin = 50.0\nfmax = 1900.0\n"
        "arch = multilayer_attention\nconv_channels = 3\nlstm_hidden = 3\n"
        "dense_hidden = 4\ndropout_rate = 0.25\nmax_epochs = 3\npatience = 2\n"
        "batch_size = 8\nseed = 0\n"
    )
    outputs = []
    for run in range(2):
        ckpt = tmp_path / f"model{run}.ckpt"
        metrics = tmp_path / f"metrics{run}.csv"
        code = run_cli([
            "train", "--data", str(data), "--config", str(cfg),
            "--out", str(ckpt), "--metrics", str(metrics),
        ])
        assert code == 0
        outputs.append((metrics.read_text(), ckpt.read_bytes()))
    # wall time cannot be bit-reproducible, so the seconds column is
    # masked; the checkpoint comparison below is byte-exact
    csv_match = _mask_seconds(outputs[0][0]) == _mask_seconds(outputs[1][0])
    ckpt_match = outputs[0][1] == outputs[1][1]
    n_epochs = len(outputs[0][0].strip().splitlines()) - 1
    elapsed = time.perf_counter() - t0
    ok = csv_match and ckpt_match and n_epochs == 3 and elapsed < 120
    _verdict(
        6, "determinism", ok,
        f"metrics match {csv_match}, checkpoints match {ckpt_match}, "
        f"{n_epochs} epochs, {elapsed:.1f}s",
    )


# ---- criterion 7: attention contracts ---------------------------------

def test_criterion_7_attention_contracts():
    t0 = time.perf_counter()
    # float64: the 1e-12 bound on the weight sums is a double-precision one
    model = build_model(ModelConfig(
        arch="multilayer_attention", n_classes=3, input_shape=(16, 12),
        conv_channels=(3,), lstm_hidden=4, dense_hidden=6, dropout_rate=0.0,
        dtype="float64",
    ))
    model.set_mode("infer")
    rng = np.random.default_rng(1007)
    worst_sum, min_weight = 0.0, np.inf
    for _ in range(50):
        _, stages = model_forward(model, rng.normal(size=(1, 16, 12)), stages=True)
        for w in stages:
            worst_sum = max(worst_sum, abs(w.data.sum() - 1.0))
            min_weight = min(min_weight, w.data.min())
    _, single = attention(
        Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 1, 4))),
        Tensor(rng.normal(size=(1, 1, 2))),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_sum < 1e-12 and min_weight >= 0.0
        and single.data[0, 0] == 1.0 and elapsed < 5
    )
    _verdict(
        7, "attention contracts", ok,
        f"sum deviation {worst_sum:.2e}, min weight {min_weight:.2e}, "
        f"single-key weight {single.data[0, 0]}, {elapsed:.1f}s",
    )


# ---- criterion 8: checkpoint round-trip -------------------------------

def test_criterion_8_checkpoint_round_trip(tmp_path):
    t0 = time.perf_counter()
    model = build_model(ModelConfig(
        arch="multilayer_attention", n_classes=3, input_shape=(8, 8),
        conv_channels=(2,), lstm_hidden=3, dense_hidden=4, dropout_rate=0.0,
    ))
    rng = np.random.default_rng(1008)
    for stats in model.bn_stats.values():  # nontrivial running statistics
        stats.mean[:] = rng.normal(size=stats.mean.shape)
        stats.var[:] = rng.uniform(0.5, 2.0, stats.var.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, labels=["a", "b", "c"])
    loaded, _ = load_checkpoint(path)
    model.set_mode("infer")
    x = rng.normal(size=(3, 8, 8))
    bit_identical = np.array_equal(
        model_forward(model, x).data, model_forward(loaded, x).data
    )
    corrupted = bytearray(path.read_bytes())
    corrupted[:4] = b"NOPE"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(corrupted))
    try:
        load_checkpoint(bad)
        rejected = False
    except DataError:
        rejected = True
    elapsed = time.perf_counter() - t0
    ok = bit_identical and rejected and elapsed < 1.0
    _verdict(
        8, "checkpoint round-trip", ok,
        f"bit-identical logits {bit_identical}, bad magic rejected "
        f"{rejected}, {elapsed:.2f}s",
    )


# ---- criterion 9: report integrity ------------------------------------

def test_criterion_9_report_integrity(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    # row totals of 50 keep every 4-decimal accuracy exactly representable
    preds, labels = [], []
    for true in range(4):
        hits = int(rng.integers(30, 50))
        row_preds = [true] * hits + list(rng.integers(0, 4, 50 - hits))
        preds += row_preds
        labels += [true] * 50
    cm = confusion_matrix(preds, labels, ["up", "down", "left", "right"])
    report = cm
    trace_ok = report.overall_accuracy == np.trace(cm.counts) / cm.n_samples
    recall_ok = all(
        accuracy_by_label(report)[label] == cm.counts[i, i] / cm.counts[i].sum()
        for i, label in enumerate(cm.labels)
    )
    path = tmp_path / "report.csv"
    emit_report(report, path)
    per_keyword, overall, n = parse_report_csv(path)
    reparse_ok = (
        n == report.n_samples
        and overall == report.overall_accuracy
        and per_keyword == accuracy_by_label(report)
    )
    elapsed = time.perf_counter() - t0
    ok = trace_ok and recall_ok and reparse_ok and elapsed < 1.0
    _verdict(
        9, "report integrity", ok,
        f"trace {trace_ok}, recall {recall_ok}, re-parse {reparse_ok}, "
        f"{elapsed:.2f}s",
    )


# ---- criterion 10: optional full-data check ---------------------------

def test_criterion_10_full_data_check():
    conftest.ACCEPTANCE_LINES.append(
        "CRITERION 10 (full-data comparison): SKIP "
        "[optional, not gating: requires a Speech Commands V2 download, "
        "which is unavailable in this environment]"
    )
    pytest.skip(
        "optional non-gating criterion: needs the Speech Commands V2 "
        "dataset, which this environment cannot download"
    )
