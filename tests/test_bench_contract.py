"""The benchmark's call-site contract, checked at test scale.

A traced benchmark run (perfbench/measure.py) replaces the layer functions
at the `models.<layer>` attributes through which model_forward calls them,
records the arguments of each call site, and then re-runs every probed
site alone through `getattr(layers, name)` on float64 arguments rebuilt
from those records. A change to a layer's name, its call path through
models, its argument kinds or its float64 behaviour fails only there; this
runs the same steps on a tiny model, without the timing. It also checks
that the traced calls give a span for every per-layer forward metric that
BENCHMARK.json declares, which measure._layer_values looks up by name.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from kwspot import autodiff, layers, models, training

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import measure  # noqa: E402
import tracing  # noqa: E402


def _traced_sites(mode: str) -> dict:
    """tracer.sites after one multilayer_attention train step or one
    infer-mode forward, with the tracer installed as a traced run does."""
    config = models.ModelConfig("multilayer_attention", 3, (16, 12), conv_channels=(2, 3),
                                lstm_hidden=3, dense_hidden=4)
    model = models.build_model(config)
    rng = np.random.default_rng(31)
    x, y = rng.normal(size=(4, 16, 12)), np.array([0, 1, 2, 0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if mode == "train":
            train_config = training.TrainConfig(max_epochs=2, patience=1, batch_size=4)
            training.train_epoch(model, (x, y), training.init_adam(model.params),
                                 train_config, 1)
        else:
            model.set_mode("infer")
            models.model_forward(model, x[:1])
    finally:
        tracer.close()
    assert models.conv2d is layers.conv2d  # the originals are back
    return tracer.sites


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_every_probed_site_reruns_alone(mode):
    sites = _traced_sites(mode)
    wanted = [span for spans in measure.PROBES.values() for span in spans]
    assert [span for span in wanted if span not in sites] == []
    rng = np.random.default_rng([7, 3])
    for span in wanted:
        args_spec, kwargs_spec = sites[span]
        args = [tracing.build_arg(s, rng) for s in args_spec]
        kwargs = {k: tracing.build_arg(s, rng) for k, s in kwargs_spec.items()}
        out = getattr(layers, span.split(".")[1])(*args, **kwargs)
        out = out[0] if isinstance(out, tuple) else out
        assert out.data.dtype == np.float64, span
        autodiff.backward((out * autodiff.Tensor(np.ones(out.shape))).sum())
        for leaf in args + list(kwargs.values()):
            if isinstance(leaf, autodiff.Tensor) and leaf.requires_grad:
                assert leaf.grad is not None and np.all(np.isfinite(leaf.grad)), span


def _fwd_metric(span: str) -> str:
    """The per-layer metric a layers.<fn>.<i> span adds to, by the rule of
    measure._layer_values: both dropouts share one site, and both head
    denses share dense.head."""
    _, fn, i = span.split(".")
    site = {"dropout": "dropout", "dense": "dense.head"}.get(fn, f"{fn}.{i}")
    return f"layers.{site}.fwd_ms"


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_every_declared_layer_metric_has_a_span(mode):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if m["name"].startswith("layers.") and m["name"].endswith(".fwd_ms")]
    assert declared
    recorded = {_fwd_metric(span) for span in _traced_sites(mode)}
    assert [name for name in declared if name not in recorded] == []
