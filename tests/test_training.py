import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import write_metadata, write_sealed_checkpoint
from kwspot import errors, models
from kwspot.autodiff import Tensor, backward
from kwspot.errors import CheckpointError, ConfigError, DataError, IoError
from kwspot.eval import confusion_matrix, emit_report, report_from_confusion
from kwspot.models import ARCHITECTURES, DTYPES, ModelConfig, build_model, model_forward
from kwspot.training import (
    AdamState, EpochRecord, TrainConfig, TrainHistory, adam_step,
    cross_entropy_loss, evaluate_arrays, featurize_index, fit, init_adam,
    load_checkpoint, lr_schedule, read_metrics_csv, save_checkpoint,
    train_epoch, write_metrics_csv,
)


def _tiny_model(arch="cnn", **overrides):
    kwargs = dict(
        arch=arch, n_classes=3, input_shape=(8, 8), conv_channels=(2,),
        lstm_hidden=3, dense_hidden=4, dropout_rate=0.0, seed=0,
    )
    kwargs.update(overrides)
    return build_model(ModelConfig(**kwargs))


def _toy_data(n=24, seed=0):
    """Linearly separable ramp features: class k has slope k - 1."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 3
    t = np.linspace(-1.0, 1.0, 8)[:, None]
    x = (y - 1)[:, None, None] * t + 0.1 * rng.normal(size=(n, 8, 8))
    return x, y


class TestConfig:
    def test_patience_must_be_smaller(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=5, patience=5)


class TestCrossEntropy:
    def test_uniform_logits(self):
        # all-zero logits over 20 classes: loss is exactly ln 20
        logits = Tensor(np.zeros((4, 20)))
        assert cross_entropy_loss(logits, [0, 5, 10, 19]).item() == pytest.approx(
            np.log(20.0), abs=1e-12
        )

    def test_saturated_correct(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        assert cross_entropy_loss(Tensor(logits), [1, 2]).item() < 1e-12

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, 6)
        fast = cross_entropy_loss(Tensor(logits), labels).item()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        slow = -np.log(probs[np.arange(6), labels]).mean()
        assert abs(fast - slow) < 1e-10

    def test_large_logits_stable(self):
        logits = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        loss = cross_entropy_loss(logits, [0]).item()
        assert np.isfinite(loss)

    def test_bad_labels(self):
        with pytest.raises(DataError):
            cross_entropy_loss(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(DataError):
            cross_entropy_loss(Tensor(np.zeros((2, 3))), [-1, 0])

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        labels = np.array([0, 2, 4, 1])
        backward(cross_entropy_loss(logits, labels))
        probs = np.exp(logits.data)
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.zeros((4, 5))
        onehot[np.arange(4), labels] = 1.0
        assert np.abs(logits.grad - (probs - onehot) / 4).max() < 1e-12


class TestAdam:
    def _params(self, values):
        return {"w": Tensor(np.asarray(values, dtype=float), requires_grad=True)}

    def test_zero_grad_no_move(self):
        params = self._params([1.0, 2.0])
        params["w"].grad = np.zeros(2)
        adam_step(params, init_adam(params), 0.1)
        assert np.array_equal(params["w"].data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        # bias correction makes the first step ~lr regardless of grad scale
        for scale in (1e-4, 1.0, 1e4):
            params = self._params([0.0])
            params["w"].grad = np.array([scale])
            adam_step(params, init_adam(params), 0.01)
            assert params["w"].data[0] == pytest.approx(-0.01, rel=1e-3)

    def test_lr_zero_freezes(self):
        params = self._params([3.0])
        params["w"].grad = np.array([5.0])
        adam_step(params, init_adam(params), 0.0)
        assert params["w"].data[0] == 3.0

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = self._params([1.0, -1.0])
            state = init_adam(params)
            for t in range(5):
                params["w"].grad = np.array([0.5, -0.25]) * (t + 1)
                adam_step(params, state, 0.05)
            results.append(params["w"].data.copy())
        assert np.array_equal(results[0], results[1])

    def test_step_counter(self):
        params = self._params([0.0])
        state = init_adam(params)
        params["w"].grad = np.ones(1)
        adam_step(params, state, 0.01)
        adam_step(params, state, 0.01)
        assert state.t == 2


class TestLrSchedule:
    def test_epoch_zero_is_base(self):
        assert lr_schedule(0, TrainConfig()) == 1e-3

    def test_decayed_value(self):
        assert lr_schedule(10, TrainConfig()) == pytest.approx(1e-3 * 0.97 ** 10)
        assert lr_schedule(10, TrainConfig()) == pytest.approx(7.3742412689e-4)


class TestTrainEpoch:
    def test_partial_final_batch(self):
        model = _tiny_model()
        x, y = _toy_data(n=21)
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=3)
        loss, acc = train_epoch(model, (x, y), init_adam(model.params), config, 1)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0

    def test_deterministic(self):
        x, y = _toy_data()
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=3)
        snaps = []
        for _ in range(2):
            model = _tiny_model()
            train_epoch(model, (x, y), init_adam(model.params), config, 1)
            snaps.append(model.snapshot())
        for name in snaps[0]["params"]:
            assert np.array_equal(snaps[0]["params"][name], snaps[1]["params"][name])

    def test_updates_every_parameter(self):
        model = _tiny_model()
        before = model.snapshot()
        x, y = _toy_data()
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=3)
        train_epoch(model, (x, y), init_adam(model.params), config, 1)
        for name, old in before["params"].items():
            assert not np.array_equal(old, model.params[name].data), name

    def test_peak_memory(self):
        # one multilayer_attention step at batch 8 on paper-scale 98x40
        # features, float32: about 15.5 MB; a graph whose nodes keep every
        # conv and batch-norm output alive with a batch im2col in the conv
        # peaks near 33 MB
        model = build_model(ModelConfig("multilayer_attention", 12, (98, 40)))
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(8, 98, 40)), np.arange(8) % 12
        opt = init_adam(model.params)
        tracemalloc.start()
        try:
            train_epoch(model, (x, y), opt, TrainConfig(batch_size=8), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestFit:
    def test_early_stopping_contract(self):
        # validation stub peaks at epoch 11, then declines: training must
        # stop after epoch 21 (patience 10) and restore the epoch-11 weights
        captured = {}

        def val_metric(epoch):
            if epoch == 11:
                captured["snap"] = model.snapshot()
            return 1.0 - abs(epoch - 11) / 100.0

        model = _tiny_model()
        x, y = _toy_data(n=12)
        config = TrainConfig(max_epochs=40, patience=10, batch_size=8, seed=1)
        _, history = fit(model, (x, y), (x, y), config, val_metric=val_metric)
        assert len(history.records) == 21
        assert history.best_epoch == 11
        for name, arr in captured["snap"]["params"].items():
            assert np.array_equal(arr, model.params[name].data)

    def test_runs_to_max_epochs_when_improving(self):
        model = _tiny_model()
        x, y = _toy_data(n=12)
        config = TrainConfig(max_epochs=6, patience=5, batch_size=8, seed=1)
        _, history = fit(model, (x, y), (x, y), config,
                         val_metric=lambda epoch: epoch / 100.0)
        assert len(history.records) == 6
        assert history.best_epoch == 6

    def test_empty_split_rejected(self):
        model = _tiny_model()
        x, y = _toy_data(n=12)
        with pytest.raises(DataError):
            fit(model, (x[:0], y[:0]), (x, y), TrainConfig(max_epochs=2, patience=1))

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_decreases(self, seed):
        model = _tiny_model(seed=seed)
        x, y = _toy_data(seed=seed)
        config = TrainConfig(max_epochs=6, patience=5, batch_size=8, seed=seed)
        _, history = fit(model, (x, y), (x, y), config)
        assert history.records[-1].train_loss < history.records[0].train_loss

    def test_metrics_csv_format(self, tmp_path):
        model = _tiny_model()
        x, y = _toy_data(n=12)
        config = TrainConfig(max_epochs=3, patience=2, batch_size=8)
        _, history = fit(model, (x, y), (x, y), config)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds"
        assert len(lines) == 1 + len(history.records)
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[5]) == 1e-3
        records = read_metrics_csv(path)
        assert [r.epoch for r in records] == [r.epoch for r in history.records]
        for got, want in zip(records, history.records):
            assert got.lr == pytest.approx(want.lr, rel=1e-7)
            assert got.val_acc == pytest.approx(want.val_acc, abs=5e-7)


class TestEvaluateArrays:
    def test_restores_mode(self):
        model = _tiny_model()
        x, y = _toy_data(n=6)
        evaluate_arrays(model, x, y)
        assert model.mode == "train"

    def test_known_accuracy(self):
        model = _tiny_model()
        x, y = _toy_data(n=9)
        loss, acc = evaluate_arrays(model, x, y)
        model.set_mode("infer")
        logits = model_forward(model, x).data
        assert acc == pytest.approx((logits.argmax(axis=1) == y).mean())


class TestFeaturize:
    def test_synth_features(self, synth_index, small_dsp_config):
        x, y = featurize_index(synth_index, small_dsp_config)
        assert x.shape == (60, 61, 20)
        assert sorted(set(y)) == [0, 1, 2]
        assert np.bincount(y).tolist() == [20, 20, 20]

    def test_mfcc_kind(self, synth_index, small_dsp_config):
        x, _ = featurize_index(synth_index, small_dsp_config, kind="mfcc")
        assert x.shape == (60, 61, 10)


class TestCheckpoint:
    def _trained(self, dtype="float32"):
        model = _tiny_model(arch="multilayer_attention", dtype=dtype)
        x, y = _toy_data(n=12)
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8)
        fit(model, (x, y), (x, y), config)
        return model, config

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_round_trip_bit_identical_logits(self, tmp_path, dtype):
        model, config = self._trained(dtype)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, config, labels=["a", "b", "c"])
        loaded, meta = load_checkpoint(path)
        assert loaded.mode == "infer"
        assert meta["labels"] == ("a", "b", "c")
        assert meta["train.base_lr"] == config.base_lr
        assert meta["arch"] == "multilayer_attention"
        assert meta["dtype"] == loaded.config.dtype == dtype
        x, _ = _toy_data(n=4)
        model.set_mode("infer")
        assert np.array_equal(
            model_forward(model, x).data, model_forward(loaded, x).data
        )

    def test_running_stats_survive(self, tmp_path):
        model, config = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, config)
        loaded, _ = load_checkpoint(path)
        for name, stats in model.bn_stats.items():
            assert np.array_equal(stats.mean, loaded.bn_stats[name].mean)
            assert np.array_equal(stats.var, loaded.bn_stats[name].var)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_load_draws_no_init(self, tmp_path, monkeypatch, arch):
        model = _tiny_model(arch=arch, input_shape=(8, 12))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew an initial value")

        monkeypatch.setattr(models, "_glorot", no_draw)
        loaded, _ = load_checkpoint(path)
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == p.data.dtype
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
        for name, stats in model.bn_stats.items():
            assert np.array_equal(loaded.bn_stats[name].mean, stats.mean)
            assert np.array_equal(loaded.bn_stats[name].var, stats.var)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        model, config = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_every_prefix_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CheckpointError, match=r"cut\.ckpt"):
                load_checkpoint(cut)

    @staticmethod
    def _array_offset(blob: bytes, name: str) -> int:
        encoded = name.encode()
        return blob.index(struct.pack("<I", len(encoded)) + encoded)

    def test_missing_array_named(self, tmp_path):
        # a file cut at an array boundary must not keep the seeded init
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path)
        body = path.read_bytes()[:-4]
        write_sealed_checkpoint(path, body[:self._array_offset(body, "conv0_bn_running_var")])
        with pytest.raises(CheckpointError, match="conv0_bn_running_var"):
            load_checkpoint(path)

    def test_duplicate_array_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path)
        body = path.read_bytes()[:-4]
        write_sealed_checkpoint(
            path, body + body[self._array_offset(body, "conv0_bn_running_var"):]
        )
        with pytest.raises(CheckpointError, match="conv0_bn_running_var.*twice"):
            load_checkpoint(path)

    def test_empty_array_name_rejected(self, tmp_path):
        # found by tests/test_fuzz.py: a zero name length before an array
        # header makes its name bytes read as a rank of 11 and dims with a
        # 0 among huge values, which numpy refused to reshape to with a
        # bare ValueError
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(arch="cnn"), path)
        body = path.read_bytes()[:-4]
        at = self._array_offset(body, "conv0_gamma")
        write_sealed_checkpoint(path, body[:at] + b"\x00" * 4 + body[at:])
        with pytest.raises(CheckpointError, match=r"model\.ckpt: unknown parameter ''"):
            load_checkpoint(path)

    def test_undecodable_text_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path)
        body = path.read_bytes()[:-4]
        meta_len = struct.unpack("<I", body[8:12])[0]
        for offset, what in ((12, "metadata"), (12 + meta_len + 4, "array name")):
            bad = bytearray(body)
            bad[offset] = 0xFF
            write_sealed_checkpoint(path, bytes(bad))
            with pytest.raises(CheckpointError, match=rf"model\.ckpt: {what}"):
                load_checkpoint(path)

    def test_invalid_metadata_value(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path)
        body = path.read_bytes()[:-4]
        write_sealed_checkpoint(path, body.replace(b"arch=cnn", b"arch=rnn", 1))
        with pytest.raises(CheckpointError, match="invalid metadata"):
            load_checkpoint(path)

    def test_every_byte_flip_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(arch="cnn_bilstm"), path, labels=["a", "b", "c"])
        blob = path.read_bytes()
        bad = tmp_path / "flip.ckpt"
        for offset in range(8, len(blob)):
            flipped = bytearray(blob)
            flipped[offset] ^= 0xFF
            bad.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError, match=r"flip\.ckpt: checksum mismatch"):
                load_checkpoint(bad)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_rejected(self, tmp_path, version):
        # version 1 stored one array per gate, version 2 float64 arrays
        # without a dtype line
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(CheckpointError,
                           match=rf"model\.ckpt: unsupported version {version}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line,error", [
        (b"", "metadata field 'dtype' is missing"),
        (b"dtypo=float32", "metadata:9: unknown key 'dtypo'"),
        (b"dtype=float16", "invalid metadata .dtype must be one of float32, float64"),
    ], ids=["missing", "dtypo", "unknown"])
    def test_bad_dtype_line_rejected(self, tmp_path, line, error):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path)
        write_metadata(path, lambda meta: meta.replace(b"dtype=float32", line, 1))
        with pytest.raises(CheckpointError, match=rf"model\.ckpt: {error}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new,error", [
        (b"n_classes=3", b"n_classes=abc", "metadata:2: cannot parse n_classes = 'abc'"),
        (b"input_shape=8,8", b"input_shape=16", "metadata:3: cannot parse input_shape = '16'"),
        (b"seed=0", b"seed=0\ngarbage line", "metadata:9: expected key = value"),
        (b"lstm_hidden=3", b"lstm_hidden=3\nlstm_hidden=65",
         "metadata:6: key 'lstm_hidden' is set twice"),
        (b"n_classes=3", b"n_classes=1000000000000000",
         "metadata describes more values than the file stores"),
        (b"dense_hidden=4", b"dense_hidden=-4",
         "invalid metadata .dense_hidden must be positive"),
        (b"conv_channels=2", b"conv_channels=-2",
         "invalid metadata .conv_channels must be one or more positive integers"),
    ], ids=["int", "pair", "no-equals", "twice", "oversized", "dense", "channels"])
    def test_bad_metadata_line_named(self, tmp_path, old, new, error):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path)
        write_metadata(path, lambda meta: meta.replace(old, new, 1))
        with pytest.raises(CheckpointError, match=rf"model\.ckpt: {error}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("label", ["a,b", "a#b", "a=b", "a\nb", "a\x85b", " a", "a ", ""])
    def test_label_that_would_not_read_back_refused(self, tmp_path, label):
        path = tmp_path / "model.ckpt"
        message = rf"model\.ckpt: cannot write labels item {re.escape(repr(label))}"
        with pytest.raises(DataError, match=message):
            save_checkpoint(_tiny_model(), path, labels=["x", label, "y"])
        assert not path.exists()

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("extras", ["none", "labels", "train", "both"])
    def test_written_bytes_pinned(self, tmp_path, arch, extras):
        # the metadata block as the format has always written it
        path = tmp_path / "model.ckpt"
        labels = ["yes", "no", "up"] if extras in ("labels", "both") else None
        train = TrainConfig(base_lr=0.002) if extras in ("train", "both") else None
        model = _tiny_model(arch=arch, input_shape=(8, 12), conv_channels=None)
        save_checkpoint(model, path, train, labels)
        blob = path.read_bytes()
        meta = blob[12:12 + struct.unpack("<I", blob[8:12])[0]]
        channels = "32,64,64" if arch == "cnn" else "32,64"
        expected = [
            f"arch={arch}", "n_classes=3", "input_shape=8,12", f"conv_channels={channels}",
            "lstm_hidden=3", "dense_hidden=4", "dropout_rate=0.0", "seed=0", "dtype=float32",
        ]
        if labels:
            expected.append("labels=yes,no,up")
        if train:
            expected += ["train.max_epochs=40", "train.batch_size=64", "train.base_lr=0.002",
                         "train.lr_decay=0.97", "train.patience=10", "train.seed=0"]
        assert meta.decode() == "\n".join(expected)

    def test_size_audit(self, tmp_path):
        # fixed overhead + per-array (8 + name + 4 * rank) + itemsize bytes
        # a value
        model, config = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, config, labels=["a", "b", "c"])
        expected = 4 + 4 + 4  # magic + version + CRC32 trailer
        meta_len = path.read_bytes()[8:12]
        expected += 4 + struct.unpack("<I", meta_len)[0]
        items = [(k, v.data) for k, v in model.params.items()]
        for name, stats in model.bn_stats.items():
            items += [(f"{name}_running_mean", stats.mean),
                      (f"{name}_running_var", stats.var)]
        for name, arr in items:
            expected += 8 + len(name) + 4 * arr.ndim + arr.itemsize * arr.size
        assert path.stat().st_size == expected


class TestAtomicWrite:
    HISTORY = TrainHistory(records=[EpochRecord(1, 0.5, 0.5, 0.5, 0.5, 1e-3, 0.1)])
    REPORT = report_from_confusion(confusion_matrix([0, 1], [0, 1], 2, ["a", "b"]))
    WRITERS = {
        "checkpoint": (lambda path: save_checkpoint(_tiny_model(), path), OSError),
        "metrics": (lambda path: write_metrics_csv(TestAtomicWrite.HISTORY, path), OSError),
        "report": (lambda path: emit_report(TestAtomicWrite.REPORT, path), IoError),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        write, error = self.WRITERS[writer]
        path = tmp_path / "artifact"
        path.write_bytes(b"previous contents")

        def fail(fd):
            raise OSError("disk full")

        # the new bytes are written in full; the failure comes before the rename
        monkeypatch.setattr(errors.os, "fsync", fail)
        with pytest.raises(error):
            write(path)
        assert path.read_bytes() == b"previous contents"
        assert os.listdir(tmp_path) == ["artifact"]
