import gc
import math
import weakref

import numpy as np
import pytest

from kwspot import autodiff, models
from kwspot.autodiff import backward, record
from kwspot.dsp import FeatureMatrix
from kwspot.errors import ConfigError, ShapeError, UsageError
from kwspot.layers import batch_norm, conv2d, dropout, max_pool
from kwspot.models import (
    ARCHITECTURES, DTYPES, ModelConfig, build_model, model_forward, predict,
)
from kwspot.training import TrainConfig, cross_entropy_loss, init_adam, train_epoch

from conftest import record_calls


def _small_config(arch, **overrides):
    kwargs = dict(
        arch=arch, n_classes=4, input_shape=(16, 12),
        conv_channels=(3,) if arch != "cnn" else (3, 4),
        lstm_hidden=5, dense_hidden=6, dropout_rate=0.0, seed=0,
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


class TestConfig:
    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch="transformer", n_classes=4, input_shape=(16, 12))

    def test_one_class(self):
        with pytest.raises(ConfigError):
            ModelConfig(arch="cnn", n_classes=1, input_shape=(16, 12))

    def test_unknown_dtype(self):
        with pytest.raises(ConfigError, match="dtype"):
            _small_config("cnn", dtype="float16")

    def test_negative_seed_refused(self):
        # numpy's default_rng raised a bare ValueError from build_model
        with pytest.raises(ConfigError, match="seed must not be negative, got -3"):
            _small_config("cnn", seed=-3)

    def test_unknown_mode_refused(self):
        model = build_model(_small_config("cnn"))
        with pytest.raises(ConfigError, match="unknown mode 'eval'"):
            model.set_mode("eval")
        assert model.mode == "train"

    def test_default_channels(self):
        assert _small_config("cnn", conv_channels=None).conv_channels == (32, 64, 64)
        assert _small_config("cnn_bilstm", conv_channels=None).conv_channels == (32, 64)

    def test_input_too_small_for_stack(self):
        with pytest.raises(ConfigError):
            build_model(ModelConfig(
                arch="cnn", n_classes=4, input_shape=(4, 3),
                conv_channels=(2, 2, 2),
            ))


class TestBuild:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_deterministic(self, arch):
        a = build_model(_small_config(arch))
        b = build_model(_small_config(arch))
        assert set(a.params) == set(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_seed_changes_weights(self):
        a = build_model(_small_config("cnn", seed=0))
        b = build_model(_small_config("cnn", seed=1))
        assert not np.array_equal(a.params["fc0_W"].data, b.params["fc0_W"].data)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_all_params_require_grad(self, arch):
        model = build_model(_small_config(arch))
        assert all(p.requires_grad for p in model.params.values())

    def test_forget_gate_bias_ones(self):
        model = build_model(_small_config("cnn_bilstm"))
        bias = np.zeros(4 * 5)
        bias[5:10] = 1.0  # gates i, f, o, g: only the forget gate starts at 1
        assert np.array_equal(model.params["lstm1_b"].data, [bias, bias])

    @pytest.mark.parametrize("arch", ["cnn_bilstm", "multilayer_attention"])
    def test_stacked_lstm_init(self, arch):
        # make_model's draws in order: the conv kernel, then per direction,
        # forward first, each gate's W and U blocks gate by gate
        rng = np.random.default_rng(0)

        def glorot(shape):
            fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[1:]))
            fan_out = shape[1] if len(shape) == 2 else shape[0]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, shape)

        model = build_model(_small_config(arch))
        kernel = glorot((3, 1, 3, 3))
        assert np.array_equal(model.params["conv0_kernel"].data, kernel.astype(np.float32))
        seq_dim, h = 3 * (12 // 2), 5
        W, U = [], []
        for _ in range(2):
            blocks = [(glorot((seq_dim, h)), glorot((h, h))) for _ in "ifog"]
            W.append(np.concatenate([w for w, _ in blocks], axis=1))
            U.append(np.concatenate([u for _, u in blocks], axis=1))
        bias = np.concatenate([np.zeros(h), np.ones(h), np.zeros(2 * h)])
        for name, want in (("W", W), ("U", U), ("b", [bias, bias])):
            got = model.params[f"lstm1_{name}"].data
            assert np.array_equal(got, np.asarray(want, np.float32)), name

    def test_param_name_audit(self):
        rnn = set(build_model(_small_config("attention_rnn")).params)
        mla = set(build_model(_small_config("multilayer_attention")).params)
        assert mla - rnn == {
            "stage1_proj", "stage2_proj",
            "head0_W", "head0_b", "head1_W", "head1_b",
        }
        assert rnn - mla == {"out_W", "out_b"}

    def test_attention_rnn_param_count_closed_form(self):
        t, d, c0, h, n_cls = 16, 12, 3, 5, 4
        model = build_model(_small_config("attention_rnn"))
        conv = c0 * 1 * 3 * 3 + 2 * c0
        seq_dim = c0 * (d // 2)
        lstm1 = 2 * 4 * (seq_dim * h + h * h + h)
        lstm2 = 2 * 4 * (2 * h * h + h * h + h)
        head = (2 * h) * (2 * h) + (2 * h) * n_cls + n_cls
        assert sum(p.size for p in model.params.values()) == conv + lstm1 + lstm2 + head

    def test_snapshot_restore_round_trip(self):
        model = build_model(_small_config("cnn"))
        snap = model.snapshot()
        model.params["fc0_W"].data += 1.0
        model.bn_stats["conv0_bn"].mean += 5.0
        model.restore(snap)
        assert np.array_equal(model.params["fc0_W"].data, snap["fc0_W"])
        assert np.array_equal(model.bn_stats["conv0_bn"].mean, np.zeros(3))


class TestForward:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_logits_shape(self, arch):
        model = build_model(_small_config(arch))
        x = np.random.default_rng(0).normal(size=(3, 16, 12))
        assert model_forward(model, x).shape == (3, 4)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_infer_mode_deterministic(self, arch):
        model = build_model(_small_config(arch, dropout_rate=0.5))
        model.set_mode("infer")
        x = np.random.default_rng(1).normal(size=(2, 16, 12))
        a = model_forward(model, x).data
        b = model_forward(model, x).data
        assert np.array_equal(a, b)

    def test_batch_shape_mismatch(self):
        model = build_model(_small_config("cnn"))
        with pytest.raises(ShapeError):
            model_forward(model, np.zeros((2, 16, 11)))

    def test_batch_consistency(self):
        # running two samples as a batch must match running them separately
        model = build_model(_small_config("attention_rnn"))
        model.set_mode("infer")
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 16, 12))
        together = model_forward(model, x).data
        alone = np.stack([model_forward(model, x[i:i + 1]).data[0] for i in range(2)])
        assert np.abs(together - alone).max() < 1e-10


    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_infer_records_no_graph(self, arch):
        model = build_model(_small_config(arch))
        x = np.random.default_rng(7).normal(size=(2, 16, 12))
        model.set_mode("infer")
        logits = model_forward(model, x)
        assert logits._parents == () and not logits.requires_grad
        model.set_mode("train")
        backward(model_forward(model, x).sum())
        assert all(p.grad is not None for p in model.params.values())

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_layer_call_sites(self, monkeypatch, mode):
        # the per-site layer metrics of perfbench wrap these module
        # attributes and probe each call site of one forward, in train mode
        # (train) and infer mode (spot, eval)
        calls = dict.fromkeys((
            "conv2d", "batch_norm", "max_pool", "dropout", "bilstm_sequence",
            "attention", "dense",
        ), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(models, name, counted(name, getattr(models, name)))
        model = build_model(_small_config("multilayer_attention", conv_channels=(3, 4)))
        model.set_mode(mode)
        model_forward(model, np.zeros((1, 16, 12)))
        assert calls == {
            "conv2d": 2, "batch_norm": 2, "max_pool": 2, "dropout": 2,
            "bilstm_sequence": 2, "attention": 3, "dense": 2,
        }


def _composed_conv_blocks(model, x, rng):
    # the train-mode block order, conv2d -> batch_norm -> max_pool -> relu
    # -> dropout, on the running statistics
    for i in range(len(model.config.conv_channels)):
        x = conv2d(x, model.params[f"conv{i}_kernel"])
        x = batch_norm(x, model.params[f"conv{i}_gamma"], model.params[f"conv{i}_beta"],
                       model.bn_stats[f"conv{i}_bn"], model.mode)
        x = dropout(max_pool(x).relu(), model.config.dropout_rate, model.mode, rng)
    return x


class TestInferBlocks:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_pool_first_matches_composed(self, monkeypatch, arch, dtype):
        # infer mode pools before batch norm; with gammas of every sign,
        # signed zeros among them, the logits must not move by one bit
        model = build_model(_small_config(arch, conv_channels=(6, 6), dtype=dtype,
                                          dropout_rate=0.25, input_shape=(20, 12)))
        rng = np.random.default_rng(31)
        for i in range(2):
            gamma = rng.normal(size=6)
            gamma[:2] = (0.0, -0.0)
            model.params[f"conv{i}_gamma"].data[...] = gamma
            model.params[f"conv{i}_beta"].data[...] = rng.normal(size=6)
            stats = model.bn_stats[f"conv{i}_bn"]
            stats.mean[...] = rng.normal(size=6)
            stats.var[...] = 0.1 + rng.random(6)
        assert (model.params["conv0_gamma"].data < 0).any()
        model.set_mode("infer")
        x = rng.normal(size=(3, 20, 12))
        got = model_forward(model, x).data
        monkeypatch.setattr(models, "_conv_blocks", _composed_conv_blocks)
        want = model_forward(model, x).data
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


class TestDtype:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_float32_end_to_end(self, monkeypatch, arch):
        # one silent upcast to float64 anywhere in a train step would cost
        # the float32 speed-up: record the dtype of every graph node
        nodes = record_calls(monkeypatch, autodiff, "record")
        model = build_model(_small_config(arch, dropout_rate=0.25))
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(6, 16, 12)), np.arange(6) % 4
        opt = init_adam(model.params)
        train_epoch(model, (x, y), opt, TrainConfig(max_epochs=2, patience=1,
                                                     batch_size=6), 1)
        f32 = np.dtype(np.float32)
        assert {out.data.dtype for _, out in nodes} == {f32}
        for name, p in model.params.items():
            assert (p.data.dtype, p.grad.dtype) == (f32, f32), name
            assert (opt.m[name].dtype, opt.v[name].dtype) == (f32, f32), name
        for name, stats in model.bn_stats.items():
            assert (stats.mean.dtype, stats.var.dtype) == (f32, f32), name
        model.set_mode("infer")
        assert model_forward(model, x).data.dtype == f32


class TestGraphSize:
    def test_train_step_records_few_nodes(self, monkeypatch):
        # every op a train step records is Python overhead paid per batch;
        # an LSTM composed per time step records about 16 nodes a step
        calls = record_calls(monkeypatch, autodiff, "record")
        model = build_model(_small_config("multilayer_attention", dropout_rate=0.25))
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(4, 16, 12)), np.arange(4) % 4
        train_epoch(model, (x, y), init_adam(model.params),
                    TrainConfig(max_epochs=2, patience=1, batch_size=4), 1)
        assert len(calls) < 100


class TestSavedValues:
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.25])
    def test_conv_and_batch_norm_outputs_freed_before_backward(self, monkeypatch,
                                                               dropout_rate):
        # neither backward reads a conv2d or batch_norm output: once the
        # forward has returned, no live array may hold one
        refs = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                refs.append(weakref.ref(out.data))
                if out.data.base is not None:
                    refs.append(weakref.ref(out.data.base))
                return out
            return wrapper

        for name in ("conv2d", "batch_norm"):
            monkeypatch.setattr(models, name, recording(getattr(models, name)))
        model = build_model(_small_config("multilayer_attention", conv_channels=(3, 4),
                                          dropout_rate=dropout_rate))
        x = np.random.default_rng(10).normal(size=(4, 16, 12))
        loss = model_forward(model, x, rng=np.random.default_rng(0)).sum()
        gc.collect()
        assert len(refs) >= 4 and [r() is None for r in refs] == [True] * len(refs)
        backward(loss)
        assert all(p.grad is not None for p in model.params.values())


class TestWeightCap:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("input_shape", [(98, 40), (61, 20)])  # paper scale, README
    def test_cap_boundary(self, monkeypatch, arch, input_shape):
        calls = record_calls(monkeypatch, models, "_glorot")
        config = ModelConfig(arch, 12, input_shape)
        build_model(config)  # allowed at the real cap
        n_draws = len(calls)
        monkeypatch.setattr(models, "MAX_WEIGHTS",
                            sum(math.prod(args[1]) for args, _ in calls))
        build_model(config)
        monkeypatch.setattr(models, "MAX_WEIGHTS", models.MAX_WEIGHTS - 1)
        calls.clear()
        with pytest.raises(ConfigError, match="conv_channels, lstm_hidden and dense_hidden"):
            build_model(config)
        # the draw past the cap is refused before it runs
        assert len(calls) == n_draws - 1

    @pytest.mark.parametrize("key,value", [
        ("lstm_hidden", 10**12), ("dense_hidden", 10**12), ("conv_channels", (10**12,)),
    ])
    def test_huge_width_refused(self, key, value):
        # each used to end in a MemoryError from the first draw (up to 146 TiB)
        with pytest.raises(ConfigError, match=f"more than {models.MAX_WEIGHTS} weights"):
            build_model(ModelConfig("multilayer_attention", 12, (98, 40), **{key: value}))


class TestUfuncBuffer:
    # per-channel rows of 40 * 30 = 1200 values: gathered into numpy's
    # default 8192-element buffer, not into UFUNC_BUFSIZE's
    SHAPE = (40, 30)

    def _step(self, arch, dtype):
        """(gradients of one train step, infer logits) of a small model."""
        model = build_model(_small_config(arch, input_shape=self.SHAPE, dtype=dtype,
                                          dropout_rate=0.25))
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(3,) + self.SHAPE), np.arange(3) % 4
        backward(cross_entropy_loss(model_forward(model, x, rng=rng), y))
        grads = {name: p.grad for name, p in model.params.items()}
        model.set_mode("infer")
        return grads, model_forward(model, x).data

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_bits_match_default_buffer(self, monkeypatch, arch, dtype):
        grads, logits = self._step(arch, dtype)
        monkeypatch.setattr(autodiff, "UFUNC_BUFSIZE", np.getbufsize())
        want_grads, want_logits = self._step(arch, dtype)
        assert logits.tobytes() == want_logits.tobytes()
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name

    def test_caller_settings_restored(self, monkeypatch):
        seen = []

        def spy(x, kernel):
            seen.append(("forward", np.getbufsize()))

            def bw(g):
                seen.append(("backward", np.getbufsize()))
                return (g,)

            out = conv2d(x, kernel)
            return record(out.data, (out,), bw)

        monkeypatch.setattr(models, "conv2d", spy)
        model = build_model(_small_config("multilayer_attention"))
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(2, 16, 12)), np.arange(2)
        with np.errstate(all="ignore"):
            np.setbufsize(4096)
            caller = (np.getbufsize(), np.geterr())
            logits = model_forward(model, x, rng=rng)
            assert (np.getbufsize(), np.geterr()) == caller
            backward(cross_entropy_loss(logits, y))
            assert (np.getbufsize(), np.geterr()) == caller
            with pytest.raises(ShapeError):
                model_forward(model, x[:, 1:], rng=rng)
            assert (np.getbufsize(), np.geterr()) == caller
            with pytest.raises(UsageError):
                backward(model_forward(model, x, rng=rng))  # non-scalar
            assert (np.getbufsize(), np.geterr()) == caller
        size = autodiff.UFUNC_BUFSIZE
        assert seen[:2] == [("forward", size), ("backward", size)]
        assert {s for _, s in seen} == {size}


class TestMultilayerAttention:
    def test_stage_weight_contracts(self):
        model = build_model(_small_config("multilayer_attention"))
        model.set_mode("infer")
        x = np.random.default_rng(3).normal(size=(16, 12))
        logits, stages = model_forward(model, x[None], stages=True)
        assert logits.shape == (1, 4)
        assert len(stages) == 3
        for w in stages:
            assert w.shape == (1, 8)  # conv halves the 16-step time axis
            assert np.all(w.data >= 0)
            assert w.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_input_stage1_uniform(self):
        # zero features give identical conv-sequence keys at every timestep,
        # so the first attention read cannot prefer any of them
        model = build_model(_small_config("multilayer_attention"))
        model.set_mode("infer")
        _, stages = model_forward(model, np.zeros((1, 16, 12)), stages=True)
        assert np.abs(stages[0].data - 1.0 / 8).max() < 1e-12

    def test_wrong_arch_rejected(self):
        for arch in ("cnn", "cnn_bilstm", "attention_rnn"):
            model = build_model(_small_config(arch))
            with pytest.raises(ConfigError, match=f"stages=True needs .*, got {arch}$"):
                model_forward(model, np.zeros((1, 16, 12)), stages=True)

    def test_matches_model_forward(self):
        model = build_model(_small_config("multilayer_attention"))
        model.set_mode("infer")
        x = np.random.default_rng(4).normal(size=(3, 16, 12))
        logits, _ = model_forward(model, x, stages=True)
        assert np.array_equal(logits.data, model_forward(model, x).data)


class TestPredict:
    def test_probs_contract(self):
        model = build_model(_small_config("cnn"))
        model.set_mode("infer")
        x = np.random.default_rng(5).normal(size=(16, 12))
        cls, probs = predict(model, FeatureMatrix(x))
        assert isinstance(cls, int)
        assert probs.shape == (4,)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert cls == int(np.argmax(probs))

    def test_matches_logits_argmax(self):
        model = build_model(_small_config("cnn_bilstm"))
        model.set_mode("infer")
        x = np.random.default_rng(6).normal(size=(16, 12))
        cls, _ = predict(model, FeatureMatrix(x))
        logits = model_forward(model, x[None]).data[0]
        assert cls == int(np.argmax(logits))

    @pytest.mark.parametrize("arch", ["cnn", "multilayer_attention"])
    def test_train_mode_model_runs_in_infer(self, arch):
        # train mode would normalize by the batch's own statistics, update
        # the running ones and draw dropout masks
        model = build_model(_small_config(arch, dropout_rate=0.25))
        stats = {k: (s.mean.copy(), s.var.copy()) for k, s in model.bn_stats.items()}
        x = np.random.default_rng(7).normal(size=(16, 12))
        features = FeatureMatrix(x)
        first, second = predict(model, features), predict(model, features)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])
        for k, s in model.bn_stats.items():
            assert np.array_equal(s.mean, stats[k][0])
            assert np.array_equal(s.var, stats[k][1])
        assert model.mode == "train"
        assert all(p.requires_grad for p in model.params.values())

    def test_tie_breaks_to_lowest_index(self):
        # symmetric model: zero input and zeroed output layer give equal
        # logits for every class
        model = build_model(_small_config("cnn"))
        model.set_mode("infer")
        model.params["fc2_W"].data[:] = 0.0
        model.params["fc2_b"].data[:] = 0.0
        cls, probs = predict(model, FeatureMatrix(np.zeros((16, 12))))
        assert cls == 0
        assert np.abs(probs - 0.25).max() < 1e-12
