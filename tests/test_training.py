import hashlib
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import script_validation, split_metadata, write_metadata, write_sealed_checkpoint
from kwspot import errors, models, training
from kwspot.audio_io import AudioClip, DatasetIndex
from kwspot.autodiff import Tensor, backward
from kwspot.errors import ConfigError, DataError
from kwspot.eval import confusion_matrix, emit_report
from kwspot.models import ARCHITECTURES, DTYPES, ModelConfig, build_model, model_forward
from kwspot.training import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, EpochRecord, TrainConfig, TrainHistory, adam_step,
    cross_entropy_loss, evaluate_arrays, featurize_index, fit, init_adam,
    load_checkpoint, lr_schedule, read_metrics_csv, save_checkpoint,
    train_epoch, write_metrics_csv,
)

from oracles import grad_check, softmax_minus_onehot

# sha256 of repr([(name, shape), ...]) of _tiny_model(arch, input_shape=(8, 12),
# conv_channels=(2, 3)).arrays(), the order the checkpoint stores them in
ARRAY_LAYOUTS = {
    "cnn": "04cce18e41fd0c8f84d624f190cdc0e283b5944f7d05ed530d2056a06367d7f9",
    "cnn_bilstm": "5e54278d48cc6f2f0cb9f598237e2c11b84962bbedc651ecf9786f662e238511",
    "attention_rnn": "3497eb3ee607c5e25f6e1a54d86ae61510afcfd94f07e99076312ceb9b51e73f",
    "multilayer_attention": "1bcc9c9df4f5b07a87d66230e0101ce3bbb89a6357c43feaa1b6b8bdac0a53fb",
}


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

    @pytest.mark.parametrize("key", ["base_lr", "lr_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_refused(self, key, value):
        # a NaN base_lr trains to NaN weights, and load_checkpoint refuses a
        # non-finite train.* value, so save_checkpoint must never write one
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key", ["base_lr", "lr_decay"])
    @pytest.mark.parametrize("value", [-1.0, -0.001, 0.0, -0.0])
    def test_non_positive_rate_refused(self, key, value):
        # base_lr < 0 trains by gradient ascent, lr_decay < 0 flips the
        # step's sign every epoch, and either at 0 stops training
        with pytest.raises(ConfigError, match=f"{key} must be finite and positive, got {value}"):
            TrainConfig(**{key: value})

    def test_negative_seed_refused(self):
        with pytest.raises(ConfigError, match="seed must not be negative, got -1"):
            TrainConfig(seed=-1)


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
        # distinct labels, a single row and a label repeated across rows
        for labels in ([0, 2, 4, 1], [3], [2, 2, 0, 2]):
            logits = Tensor(rng.normal(size=(len(labels), 5)), requires_grad=True)
            backward(cross_entropy_loss(logits, labels))
            want = softmax_minus_onehot(logits.data, labels)
            assert np.abs(logits.grad - want).max() < 1e-12

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(2)
        labels = np.array([1, 0, 4, 4, 2, 3])
        logits = Tensor(rng.normal(size=(6, 5)).astype(np.float32), requires_grad=True)
        loss = cross_entropy_loss(logits, labels)
        backward(loss)
        assert loss.data.dtype == np.float32 and logits.grad.dtype == np.float32
        want = softmax_minus_onehot(logits.data, labels)
        assert np.abs(logits.grad - want).max() < 1e-7

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        labels = np.array([0, 3, 3, 1, 2])
        assert grad_check(lambda: cross_entropy_loss(logits, labels), [logits]) < 1e-6

    def test_one_node_over_the_logits(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        logits = Tensor(rng.normal(size=(2, 3))) @ w
        loss = cross_entropy_loss(logits, [1, 3])
        assert loss._parents == (logits._node,)

    def test_infer_mode_records_no_node(self):
        # as in evaluate_arrays: an infer-mode forward's logits need no
        # gradient, so neither does the loss
        model = _tiny_model()
        model.set_mode("infer")
        x, y = _toy_data(n=4)
        loss = cross_entropy_loss(model_forward(model, x), y)
        assert loss._node is None and not loss.requires_grad


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_update(self, dtype):
        # the in-place update runs the operations of this out-of-place
        # expression in the same order: three steps give the same bits
        rng = np.random.default_rng(4)
        shapes = {"w": (4, 6), "b": (6,)}
        params = {k: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for k, s in shapes.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        v = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        state = init_adam(params)
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        for t in range(1, 4):
            for k, s in shapes.items():
                # no gradient for "b" at the second step
                params[k].grad = None if (k, t) == ("b", 2) else rng.normal(size=s).astype(dtype)
            adam_step(params, state, 0.01)
            for k, p in params.items():
                g = p.grad if p.grad is not None else 0.0
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                m_hat = m[k] / (1.0 - b1 ** t)
                v_hat = v[k] / (1.0 - b2 ** t)
                ref[k] -= 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        for k, p in params.items():
            assert p.data.dtype == state.m[k].dtype == dtype
            assert np.array_equal(p.data, ref[k])
            assert np.array_equal(state.m[k], m[k])
            assert np.array_equal(state.v[k], v[k])

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
        for name in snaps[0]:
            assert np.array_equal(snaps[0][name], snaps[1][name])

    def test_updates_every_parameter(self):
        model = _tiny_model()
        before = model.snapshot()
        x, y = _toy_data()
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=3)
        train_epoch(model, (x, y), init_adam(model.params), config, 1)
        for name, p in model.params.items():
            assert not np.array_equal(before[name], p.data), name

    def test_snapshot_and_restore_cover_every_array(self):
        # an epoch moves every parameter and running statistic; the snapshot
        # taken before it keeps its values, and restore brings all of them back
        model = _tiny_model()
        snap = model.snapshot()
        kept = {name: a.copy() for name, a in snap.items()}
        assert list(snap) == [name for name, _ in model.arrays()]
        assert {"conv0_bn_running_mean", "conv0_bn_running_var"} <= snap.keys()
        x, y = _toy_data()
        config = TrainConfig(max_epochs=2, patience=1, batch_size=8, seed=3)
        train_epoch(model, (x, y), init_adam(model.params), config, 1)
        for name, a in model.arrays():
            assert np.array_equal(snap[name], kept[name]), name
            assert not np.array_equal(a, kept[name]), name
        model.restore(snap)
        for name, a in model.arrays():
            assert np.array_equal(a, kept[name]), name

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
    def test_early_stopping_contract(self, monkeypatch):
        # validation stub peaks at epoch 11, then declines: training must
        # stop after epoch 21 (patience 10) and restore the epoch-11 weights
        captured = {}

        def accuracy(epoch):
            if epoch == 11:
                captured["snap"] = model.snapshot()
            return 1.0 - abs(epoch - 11) / 100.0

        script_validation(monkeypatch, accuracy)
        model = _tiny_model()
        x, y = _toy_data(n=12)
        config = TrainConfig(max_epochs=40, patience=10, batch_size=8, seed=1)
        _, history = fit(model, (x, y), (x, y), config)
        assert len(history.records) == 21
        assert history.best_epoch == 11
        for name, arr in model.arrays():
            assert np.array_equal(arr, captured["snap"][name]), name

    def test_runs_to_max_epochs_when_improving(self, monkeypatch):
        script_validation(monkeypatch, lambda epoch: epoch / 100.0)
        model = _tiny_model()
        x, y = _toy_data(n=12)
        config = TrainConfig(max_epochs=6, patience=5, batch_size=8, seed=1)
        _, history = fit(model, (x, y), (x, y), config)
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


class TestReadMetricsCsv:
    HEADER = "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds\n"

    def test_no_epoch_rows_refused(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(self.HEADER)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: no epoch rows")):
            read_metrics_csv(path)

    @pytest.mark.parametrize("row, name", [
        ("2,0.5,1.5,0.5,0.5,0.001,0.1", "train_acc"),
        ("2,0.5,NaN,0.5,0.5,0.001,0.1", "train_acc"),
        ("2,0.5,0.5,0.5,nan,0.001,0.1", "val_acc"),
        ("2,0.5,0.5,0.5,-0.25,0.001,0.1", "val_acc"),
    ], ids=["train_acc-high", "train_acc-nan", "val_acc-nan", "val_acc-negative"])
    def test_accuracy_outside_unit_interval_refused(self, tmp_path, row, name):
        path = tmp_path / "metrics.csv"
        path.write_text(self.HEADER + "1,0.5,0.5,0.5,0.5,0.001,0.1\n" + row + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: {name}")):
            read_metrics_csv(path)

    def test_accuracy_bounds_accepted(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(self.HEADER + "1,0.5,0,0.5,1,0.001,0.1\n")
        (record,) = read_metrics_csv(path)
        assert (record.train_acc, record.val_acc) == (0.0, 1.0)


class TestEvaluateArrays:
    def test_restores_mode(self):
        model = _tiny_model()
        x, y = _toy_data(n=6)
        evaluate_arrays(model, x, y)
        assert model.mode == "train"

    def test_known_accuracy(self):
        model = _tiny_model()
        x, y = _toy_data(n=9)
        loss, acc, preds = evaluate_arrays(model, x, y)
        model.set_mode("infer")
        logits = model_forward(model, x).data
        assert np.array_equal(preds, logits.argmax(axis=1))
        assert acc == pytest.approx((logits.argmax(axis=1) == y).mean())


class TestFeaturize:
    def test_synth_features(self, synth_index, small_dsp_config):
        x, y = featurize_index(synth_index, small_dsp_config, "log_mel")
        assert x.shape == (60, 61, 20)
        assert sorted(set(y)) == [0, 1, 2]
        assert np.bincount(y).tolist() == [20, 20, 20]

    def test_mfcc_kind(self, synth_index, small_dsp_config):
        x, _ = featurize_index(synth_index, small_dsp_config, kind="mfcc")
        assert x.shape == (60, 61, 10)

    def test_clip_of_another_length_rejected(self, small_dsp_config):
        rng = np.random.default_rng(4)
        index = DatasetIndex(
            entries=((AudioClip(rng.uniform(-1, 1, 4000), 4000), "a"),
                     (AudioClip(rng.uniform(-1, 1, 2000), 4000), "b")),
            label_set=("a", "b"),
        )
        with pytest.raises(DataError, match=r"train entry 1 \(in-memory clip\): features of "
                                            r"shape \(30, 20\), expected \(61, 20\)"):
            featurize_index(index, small_dsp_config, "log_mel", "train")


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
        save_checkpoint(model, path, config, labels=["a", "b", "c"])
        loaded, _ = load_checkpoint(path)
        for name, stats in model.bn_stats.items():
            assert np.array_equal(stats.mean, loaded.bn_stats[name].mean)
            assert np.array_equal(stats.var, loaded.bn_stats[name].var)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_load_draws_no_init(self, tmp_path, monkeypatch, arch):
        def no_draw(*args):
            raise AssertionError("load_checkpoint drew an initial value")

        x = np.random.default_rng(0).normal(size=(4, 8, 12))
        path = tmp_path / "model.ckpt"
        for dtype in DTYPES:
            model = _tiny_model(arch=arch, input_shape=(8, 12), dtype=dtype)
            save_checkpoint(model, path, labels=["a", "b", "c"])
            with monkeypatch.context() as patch:
                patch.setattr(models, "_glorot", no_draw)
                loaded, _ = load_checkpoint(path)
            assert [(name, a.dtype, a.tobytes()) for name, a in loaded.arrays()] == [
                (name, a.dtype, a.tobytes()) for name, a in model.arrays()]
            model.set_mode("infer")
            assert model_forward(model, x).data.tobytes() == model_forward(loaded, x).data.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_load_draws_at_checkpoint_dtype(self, tmp_path, monkeypatch, dtype):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(arch="multilayer_attention", dtype=dtype), path,
                        labels=["a", "b", "c"])
        drawn = []

        def recording_make_model(config, draw):
            def recorded(shape):
                values = draw(shape)
                drawn.append(values.dtype)
                return values
            return models.make_model(config, recorded)

        monkeypatch.setattr(training, "make_model", recording_make_model)
        load_checkpoint(path)
        assert drawn and set(drawn) == {np.dtype(dtype)}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        model, config = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, config, labels=["a", "b", "c"])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_every_prefix_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError, match=r"cut\.ckpt"):
                load_checkpoint(cut)

    def _sealed_arrays(self, tmp_path):
        # the file names no array: the arrays follow the metadata in
        # Model.arrays() order, so only the section's size tells a missing
        # or an extra array
        model = _tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, labels=["a", "b", "c"])
        body = path.read_bytes()[:-4]
        last = list(model.arrays())[-1][1]  # conv0_bn_running_var
        return path, body, len(split_metadata(body)[2]), last.nbytes

    def test_missing_array_named(self, tmp_path):
        # a file cut at an array boundary must not keep a zero fill
        path, body, needed, last = self._sealed_arrays(tmp_path)
        write_sealed_checkpoint(path, body[:-last])
        with pytest.raises(DataError, match=rf"model\.ckpt: the arrays take {needed - last} "
                                                  rf"bytes, but the metadata's model needs "
                                                  rf"{needed}; conv0_bn_running_var is not "
                                                  rf"stored whole$"):
            load_checkpoint(path)

    def test_duplicate_array_rejected(self, tmp_path):
        # the last array stored twice must not go unread
        path, body, needed, last = self._sealed_arrays(tmp_path)
        write_sealed_checkpoint(path, body + body[-last:])
        with pytest.raises(DataError, match=rf"model\.ckpt: the arrays take {needed + last} "
                                                  rf"bytes, but the metadata's model needs "
                                                  rf"{needed}$"):
            load_checkpoint(path)

    def test_undecodable_text_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        bad = bytearray(path.read_bytes()[:-4])
        bad[12] = 0xFF  # first metadata byte
        write_sealed_checkpoint(path, bytes(bad))
        with pytest.raises(DataError, match=r"model\.ckpt: metadata at byte 12 is not UTF-8"):
            load_checkpoint(path)

    def test_invalid_metadata_value(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        body = path.read_bytes()[:-4]
        write_sealed_checkpoint(path, body.replace(b"arch=cnn", b"arch=rnn", 1))
        with pytest.raises(DataError, match="invalid metadata"):
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
            with pytest.raises(DataError, match=r"flip\.ckpt: checksum mismatch"):
                load_checkpoint(bad)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_version_rejected(self, tmp_path, version):
        # version 1 stored one array per gate, version 2 float64 arrays
        # without a dtype line, version 3 each LSTM direction's arrays under
        # their own names, version 4 a name, rank and dims with each array
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        with pytest.raises(DataError,
                           match=rf"model\.ckpt: unsupported version {version}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line,error", [
        (b"", "metadata: required keys not set: dtype"),
        (b"dtypo=float32", "metadata:9: unknown key 'dtypo'"),
        (b"dtype=float16", "invalid metadata .dtype must be one of float32, float64"),
    ], ids=["missing", "dtypo", "unknown"])
    def test_bad_dtype_line_rejected(self, tmp_path, line, error):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        write_metadata(path, lambda meta: meta.replace(b"dtype=float32", line, 1))
        with pytest.raises(DataError, match=rf"model\.ckpt: {error}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new,error", [
        (b"n_classes=3", b"n_classes=abc", "metadata:2: cannot parse n_classes = 'abc'"),
        (b"input_shape=8,8", b"input_shape=16", "metadata:3: cannot parse input_shape = '16'"),
        (b"seed=0", b"seed=0\ngarbage line", "metadata:9: expected key = value"),
        (b"lstm_hidden=3", b"lstm_hidden=3\nlstm_hidden=65",
         "metadata:6: key 'lstm_hidden' is set twice"),
        # n_classes must match the labels' count, so the forged size is the head's
        (b"dense_hidden=4", b"dense_hidden=1000000000000000",
         "metadata describes more values than the file stores"),
        (b"dense_hidden=4", b"dense_hidden=-4",
         "invalid metadata .dense_hidden must be positive"),
        (b"conv_channels=2", b"conv_channels=-2",
         "invalid metadata .conv_channels must be one or more positive integers"),
    ], ids=["int", "pair", "no-equals", "twice", "oversized", "dense", "channels"])
    def test_bad_metadata_line_named(self, tmp_path, old, new, error):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        write_metadata(path, lambda meta: meta.replace(old, new, 1))
        with pytest.raises(DataError, match=rf"model\.ckpt: {error}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("label", ["a,b", "a#b", "a=b", "a\nb", "a\x85b", " a", "a ", ""])
    def test_label_that_would_not_read_back_refused(self, tmp_path, label):
        path = tmp_path / "model.ckpt"
        message = rf"model\.ckpt: cannot write labels item {re.escape(repr(label))}"
        with pytest.raises(DataError, match=message):
            save_checkpoint(_tiny_model(), path, labels=["x", label, "y"])
        assert not path.exists()

    @pytest.mark.parametrize("label", [".", "..", "../outside", "a/b", "/abs"])
    def test_label_leaving_the_data_dir_refused(self, tmp_path, label):
        # kwspot eval joins each label onto --data, and "../outside" once
        # scored the clips beside it; a save refuses it, and so does a load
        path = tmp_path / "model.ckpt"
        message = rf"model\.ckpt: metadata:10: cannot parse labels = 'x,{re.escape(label)},y'"
        with pytest.raises(DataError, match=message):
            save_checkpoint(_tiny_model(), path, labels=["x", label, "y"])
        assert not path.exists()
        save_checkpoint(_tiny_model(), path, labels=["x", "b", "y"])
        write_metadata(path, lambda meta: meta.replace(b"labels=x,b,y",
                                                       f"labels=x,{label},y".encode()))
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("labels,error", [
        ("x,x,y", "metadata:10: cannot parse labels = 'x,x,y'"),
        ("x,y", "metadata: labels names 2 classes, but n_classes is 3"),
        ("w,x,y,z", "metadata: labels names 4 classes, but n_classes is 3"),
    ], ids=["duplicate", "fewer", "more"])
    def test_labels_not_one_per_class_refused(self, tmp_path, labels, error):
        path = tmp_path / "model.ckpt"
        with pytest.raises(DataError, match=rf"model\.ckpt: {error}$"):
            save_checkpoint(_tiny_model(), path, labels=labels.split(","))
        assert not path.exists()
        save_checkpoint(_tiny_model(), path, labels=["x", "b", "y"])
        write_metadata(path, lambda meta: meta.replace(b"x,b,y", labels.encode()))
        with pytest.raises(DataError, match=rf"model\.ckpt: {error}$"):
            load_checkpoint(path)

    def test_label_less_checkpoint_refused(self, tmp_path):
        # a checkpoint always names its classes: one without labels is
        # neither written nor read
        path = tmp_path / "model.ckpt"
        message = r"model\.ckpt: metadata: required keys not set: labels$"
        with pytest.raises(DataError, match=message):
            save_checkpoint(_tiny_model(), path, TrainConfig(), labels=None)
        assert not path.exists()
        save_checkpoint(_tiny_model(), path, TrainConfig(), labels=["a", "b", "c"])
        write_metadata(path, lambda meta: meta.replace(b"labels=a,b,c\n", b""))
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_metadata_length_past_the_body_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"])
        body = path.read_bytes()[:-4]
        write_sealed_checkpoint(path, body[:8] + struct.pack("<I", len(body)) + body[12:])
        with pytest.raises(DataError, match=r"model\.ckpt: truncated checkpoint file$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("channels", [None, [2, 3]], ids=["default", "list"])
    def test_loaded_config_equals_built(self, tmp_path, arch, channels):
        # a built config once kept conv_channels=None and a list input_shape,
        # so it was unequal to the tuples a load reads back, and a list made
        # hash() raise TypeError
        model = _tiny_model(arch=arch, input_shape=[16, 12], conv_channels=channels)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, labels=["a", "b", "c"])
        loaded = load_checkpoint(path)[0].config
        assert loaded == model.config and hash(loaded) == hash(model.config)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("extras", ["none", "labels", "train", "both"])
    def test_written_bytes_pinned(self, tmp_path, arch, extras):
        # the metadata block as the format has always written it
        path = tmp_path / "model.ckpt"
        labels = ["yes", "no", "up"] if extras in ("labels", "both") else None
        train = TrainConfig(base_lr=0.002) if extras in ("train", "both") else None
        model = _tiny_model(arch=arch, input_shape=(8, 12), conv_channels=None)
        if not labels:  # a checkpoint always names its classes
            with pytest.raises(DataError, match=r"model\.ckpt: metadata: required keys not "
                                                r"set: labels$"):
                save_checkpoint(model, path, train, labels=labels)
            assert not path.exists()
            return
        save_checkpoint(model, path, train, labels=labels)
        meta = split_metadata(path.read_bytes())[1]
        channels = "32,64,64" if arch == "cnn" else "32,64"
        expected = [
            f"arch={arch}", "n_classes=3", "input_shape=8,12", f"conv_channels={channels}",
            "lstm_hidden=3", "dense_hidden=4", "dropout_rate=0.0", "seed=0", "dtype=float32",
            "labels=yes,no,up",
        ]
        if train:
            expected += ["train.max_epochs=40", "train.batch_size=64", "train.base_lr=0.002",
                         "train.lr_decay=0.97", "train.patience=10", "train.seed=0"]
        assert meta.decode() == "\n".join(expected)

    def test_size_audit(self, tmp_path):
        # magic, version, metadata length and CRC32, the metadata, and
        # itemsize bytes a value
        model, config = self._trained()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, config, labels=["a", "b", "c"])
        meta = split_metadata(path.read_bytes())[1]
        values = sum(a.size for _, a in model.arrays())
        assert path.stat().st_size == 16 + len(meta) + 4 * values

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_array_layout_pinned(self, arch):
        # the file holds only the values, in Model.arrays() order, so a new
        # order (say, gamma after beta) would load old files swapped
        model = _tiny_model(arch=arch, input_shape=(8, 12), conv_channels=(2, 3))
        layout = repr([(name, a.shape) for name, a in model.arrays()])
        assert (training.CHECKPOINT_VERSION, hashlib.sha256(layout.encode()).hexdigest()) \
            == (5, ARRAY_LAYOUTS[arch]), (
            f"{arch} stores {layout}: a change to the checkpoint's array layout needs a "
            f"new CHECKPOINT_VERSION, and this pin then moves to it")


class TestAtomicWrite:
    HISTORY = TrainHistory(records=[EpochRecord(1, 0.5, 0.5, 0.5, 0.5, 1e-3, 0.1)])
    REPORT = confusion_matrix([0, 1], [0, 1], ["a", "b"])
    WRITERS = {
        "checkpoint": (lambda path: save_checkpoint(_tiny_model(), path, labels=["a", "b", "c"]),
                       DataError),
        "metrics": (lambda path: write_metrics_csv(TestAtomicWrite.HISTORY, path), DataError),
        "report": (lambda path: emit_report(TestAtomicWrite.REPORT, path), DataError),
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

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_names_the_file(self, tmp_path, monkeypatch, writer):
        write, _ = self.WRITERS[writer]
        path = tmp_path / "artifact"

        def fail(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(errors.os, "fsync", fail)
        with pytest.raises(DataError, match=f"cannot write {re.escape(str(path))}: .*No space"):
            write(path)
