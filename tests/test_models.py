import numpy as np
import pytest

from kwspot.errors import ConfigError, ShapeError
from kwspot.models import (
    ARCHITECTURES, Model, ModelConfig, build_model, model_forward,
    multilayer_attention_forward, predict,
)


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
