import gc
import weakref

import numpy as np
import pytest

from kwspot import autodiff, models
from kwspot.autodiff import backward
from kwspot.errors import ConfigError, ShapeError
from kwspot.models import (
    ARCHITECTURES, Model, ModelConfig, build_model, model_forward,
    multilayer_attention_forward, predict,
)
from kwspot.training import TrainConfig, init_adam, train_epoch


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

    def test_default_channels(self):
        assert _small_config("cnn", conv_channels=None).resolved_channels() == (32, 64, 64)
        assert _small_config("cnn_bilstm", conv_channels=None).resolved_channels() == (32, 64)

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
        assert np.array_equal(model.params["lstm1f_b"].data, bias)

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
        assert model.param_count() == conv + lstm1 + lstm2 + head

    def test_snapshot_restore_round_trip(self):
        model = build_model(_small_config("cnn"))
        snap = model.snapshot()
        model.params["fc0_W"].data += 1.0
        model.bn_stats["conv0_bn"].mean += 5.0
        model.restore(snap)
        assert np.array_equal(model.params["fc0_W"].data, snap["params"]["fc0_W"])
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

    def test_layer_call_sites(self, monkeypatch):
        # the per-site layer metrics of perfbench wrap these module
        # attributes and probe each call site of one forward
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
        model_forward(model, np.zeros((1, 16, 12)))
        assert calls == {
            "conv2d": 2, "batch_norm": 2, "max_pool": 2, "dropout": 2,
            "bilstm_sequence": 2, "attention": 3, "dense": 2,
        }


class TestDtype:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_float32_end_to_end(self, monkeypatch, arch):
        # one silent upcast to float64 anywhere in a train step would cost
        # the float32 speed-up: record the dtype of every graph node
        node_dtypes = set()
        node = autodiff._node

        def recording_node(data, parents, backward):
            out = node(data, parents, backward)
            node_dtypes.add(out.data.dtype)
            return out

        monkeypatch.setattr(autodiff, "_node", recording_node)
        model = build_model(_small_config(arch, dropout_rate=0.25))
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(6, 16, 12)), np.arange(6) % 4
        opt = init_adam(model.params)
        train_epoch(model, (x, y), opt, TrainConfig(max_epochs=2, patience=1,
                                                     batch_size=6), 1)
        f32 = np.dtype(np.float32)
        assert node_dtypes == {f32}
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
        calls = []
        node = autodiff._node

        def counting_node(data, parents, backward):
            calls.append(None)
            return node(data, parents, backward)

        monkeypatch.setattr(autodiff, "_node", counting_node)
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


class TestMultilayerAttention:
    def test_stage_weight_contracts(self):
        model = build_model(_small_config("multilayer_attention"))
        model.set_mode("infer")
        x = np.random.default_rng(3).normal(size=(16, 12))
        logits, stages = multilayer_attention_forward(x, model)
        assert logits.shape == (4,)
        assert len(stages) == 3
        for w in stages:
            assert w.shape == (8,)  # conv halves the 16-step time axis
            assert np.all(w.data >= 0)
            assert w.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_input_stage1_uniform(self):
        # zero features give identical conv-sequence keys at every timestep,
        # so the first attention read cannot prefer any of them
        model = build_model(_small_config("multilayer_attention"))
        model.set_mode("infer")
        _, stages = multilayer_attention_forward(np.zeros((16, 12)), model)
        assert np.abs(stages[0].data - 1.0 / 8).max() < 1e-12

    def test_wrong_arch_rejected(self):
        model = build_model(_small_config("cnn"))
        with pytest.raises(ConfigError):
            multilayer_attention_forward(np.zeros((16, 12)), model)

    def test_matches_model_forward(self):
        model = build_model(_small_config("multilayer_attention"))
        model.set_mode("infer")
        x = np.random.default_rng(4).normal(size=(16, 12))
        logits, _ = multilayer_attention_forward(x, model)
        batch_logits = model_forward(model, x[None]).data[0]
        assert np.abs(logits.data - batch_logits).max() < 1e-12


class TestPredict:
    def test_probs_contract(self):
        model = build_model(_small_config("cnn"))
        model.set_mode("infer")
        x = np.random.default_rng(5).normal(size=(16, 12))
        cls, probs = predict(model, x)
        assert isinstance(cls, int)
        assert probs.shape == (4,)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert cls == int(np.argmax(probs))

    def test_matches_logits_argmax(self):
        model = build_model(_small_config("cnn_bilstm"))
        model.set_mode("infer")
        x = np.random.default_rng(6).normal(size=(16, 12))
        cls, _ = predict(model, x)
        logits = model_forward(model, x[None]).data[0]
        assert cls == int(np.argmax(logits))

    def test_tie_breaks_to_lowest_index(self):
        # symmetric model: zero input and zeroed output layer give equal
        # logits for every class
        model = build_model(_small_config("cnn"))
        model.set_mode("infer")
        model.params["fc2_W"].data[:] = 0.0
        model.params["fc2_b"].data[:] = 0.0
        cls, probs = predict(model, np.zeros((16, 12)))
        assert cls == 0
        assert np.abs(probs - 0.25).max() < 1e-12
