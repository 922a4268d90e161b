"""The three kwspot workloads: their dataset, set-up and output checks.

All three share one synthetic dataset: one sine tone per class plus
uniform noise, written as 16-bit WAVs, all drawn from the run's seed.
Each workload runs in this process with a single client in a closed loop:
the next operation starts when the previous one returns.

- train: one `training.train_epoch` call per operation, over one batch of
  features computed in set-up. Backward and the batched conv, batch-norm
  and pool kernels dominate it; the front end runs only in set-up.
- spot: per clip, `audio_io.read_wav` -> `dsp.mfcc_pipeline` ->
  `models.predict` at batch 1 on a checkpoint loaded once. The loop is
  closed rather than paced at the real-time rate of one clip per second,
  because a clip's service time is far below its period and pacing would
  only add idle time.
- eval: one in-process `kwspot eval` (`cli.run_cli`) per operation over
  one of four shards of the on-disk dataset (24 clips, 2 per class, hard
  links into the dataset), the shards in turn: checkpoint load, scan,
  per-clip evaluation and report write.

Every workload calls kwspot through module attributes (`training.train_epoch`,
not an imported name), so that the tracer's replacements see the calls.
"""

from __future__ import annotations

import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path

import numpy as np

import reference
from kwspot import audio_io, cli, dsp, models, training

ARCH = "multilayer_attention"
FEATURE_KIND = "log_mel"
NOISE_AMPLITUDE = 0.1
FRONTEND_TOLERANCE = 1e-9
FRONTEND_CHECKS = 8  # clips whose features are compared with the reference
# An eval operation scores one of this many shards of the dataset. Shorter
# operations let the host-speed reference blocks between them follow the
# host's drift more closely (see hostspeed.py).
EVAL_SHARDS = 4


@dataclass(frozen=True)
class Scale:
    """Input sizes and model widths of one benchmark configuration."""
    name: str
    dsp: dsp.DspConfig
    class_frequencies: tuple
    clips_per_class: int
    batch_size: int
    conv_channels: tuple | None
    lstm_hidden: int
    dense_hidden: int


# Paper scale: 16 kHz 1-s clips, 98 x 40 log-mel, 12 classes, the
# ~612k-parameter multilayer_attention model and batch 32 for training.
PAPER = Scale(
    name="paper",
    dsp=dsp.DspConfig(),
    class_frequencies=(250.0, 335.0, 450.0, 600.0, 800.0, 1070.0, 1430.0,
                       1900.0, 2550.0, 3400.0, 4550.0, 6100.0),
    clips_per_class=8,
    batch_size=32,
    conv_channels=None,
    lstm_hidden=64,
    dense_hidden=64,
)

# The README's 4 kHz desk-scale configuration with narrow layers, for the
# self-test. It keeps two conv blocks, so every call-site name exists.
SMOKE = Scale(
    name="smoke",
    dsp=dsp.DspConfig(sample_rate=4000, frame_len=128, hop_len=64, n_fft=128,
                      n_mel_filters=20, fmin=50.0, fmax=1900.0),
    class_frequencies=(400.0, 800.0, 1400.0),
    clips_per_class=4,
    batch_size=4,
    conv_channels=(4, 8),
    lstm_hidden=8,
    dense_hidden=8,
)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


class Tally:
    """Operations attempted and failed; a failed check counts as one
    failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class Setup:
    data: Path
    index: audio_io.DatasetIndex
    checkpoint: Path
    model: models.Model
    features: tuple | None  # (x, y) for train


def set_up(workload: str, scale: Scale, seed: int, work: Path) -> Setup:
    """Synthesize and write the dataset, build, save and reload the model
    and, for train, featurize every clip."""
    spec = audio_io.SynthSpec(
        n_classes=len(scale.class_frequencies),
        clips_per_class=scale.clips_per_class,
        sample_rate=scale.dsp.sample_rate,
        class_frequencies=scale.class_frequencies,
        noise_amplitude=NOISE_AMPLITUDE,
    )
    memory = audio_io.synth_dataset(spec, seed)
    data = work / "data"
    for n, (clip, label) in enumerate(memory.entries):
        (data / label).mkdir(parents=True, exist_ok=True)
        audio_io.write_wav(data / label / f"{n:04d}.wav", clip)
    index = audio_io.scan_dataset(data, memory.label_set)
    features = None
    if workload == "train":
        features = training.featurize_index(index, scale.dsp, FEATURE_KIND)
    cfg = scale.dsp
    config = models.ModelConfig(
        arch=ARCH,
        n_classes=len(index.label_set),
        input_shape=(dsp.n_frames(cfg.sample_rate, cfg.frame_len, cfg.hop_len),
                     cfg.n_mel_filters),
        conv_channels=scale.conv_channels,
        lstm_hidden=scale.lstm_hidden,
        dense_hidden=scale.dense_hidden,
        seed=seed,
    )
    checkpoint = work / "model.ckpt"
    training.save_checkpoint(models.build_model(config), checkpoint,
                             labels=index.label_set)
    model, _ = training.load_checkpoint(checkpoint)
    return Setup(data, index, checkpoint, model, features)


def _frontend_check(tally, scale, seed, paths, features):
    """Compare kwspot features of a seeded sample of clips with the
    independent np.fft front end."""
    rng = np.random.default_rng([seed, 1])
    picks = rng.choice(len(paths), size=min(FRONTEND_CHECKS, len(paths)),
                       replace=False)
    for i in sorted(picks):
        want = reference.log_mel(
            reference.read_pcm16(paths[i], scale.dsp.sample_rate), scale.dsp)
        err = float(np.max(np.abs(features[i] - want)))
        tally.record(err <= FRONTEND_TOLERANCE,
                     f"front end differs by {err:.3g} on {paths[i].name}")


def _batched_argmax(model, x, batch_size) -> np.ndarray:
    """Reference predictions: batched model_forward in inference mode."""
    model.set_mode("infer")
    return np.concatenate([
        models.model_forward(model, x[start:start + batch_size]).data.argmax(axis=1)
        for start in range(0, len(x), batch_size)
    ])


class Train:
    """Operation: one train_epoch over one batch of precomputed features."""
    unit = "step"

    def __init__(self, setup: Setup, scale: Scale, seed: int):
        self.setup = setup
        self.scale = scale
        self.seed = seed
        x, y = setup.features
        order = np.random.default_rng([seed, 2]).permutation(len(x))
        n_batches = len(x) // scale.batch_size
        self.batches = [
            (x[idx], y[idx])
            for idx in np.split(order[: n_batches * scale.batch_size], n_batches)
        ]
        self.config = training.TrainConfig(
            max_epochs=10 ** 6, batch_size=scale.batch_size, seed=seed)
        self.opt = training.init_adam(setup.model.params)
        self.losses = []
        self.items_per_op = scale.batch_size   # samples
        self.forwards_per_op = 1               # steps
        self.setup_clips = len(x)              # featurized in set-up
        self.clips_per_op = 0

    def run_op(self, i: int):
        batch = self.batches[i % len(self.batches)]
        loss, _ = training.train_epoch(self.setup.model, batch, self.opt,
                                       self.config, i + 1)
        self.losses.append(loss)
        if not np.isfinite(loss):
            raise CheckFailed(f"non-finite loss {loss} at step {i}")

    def verify(self, tally: Tally):
        params = self.setup.model.params
        bad = [k for k, p in params.items() if not np.all(np.isfinite(p.data))]
        tally.record(not bad, f"non-finite parameters {bad}")
        tally.record(len(self.losses) >= 2 and self.losses[-1] < self.losses[0],
                     f"loss did not fall: first {self.losses[0]}, last {self.losses[-1]}")
        paths = [path for path, _ in self.setup.index.entries]
        _frontend_check(tally, self.scale, self.seed, paths, self.setup.features[0])


class Spot:
    """Operation: read, featurize and predict one clip from disk."""
    unit = "clip"

    def __init__(self, setup: Setup, scale: Scale, seed: int):
        self.setup = setup
        self.scale = scale
        self.seed = seed
        self.order = np.random.default_rng([seed, 2]).permutation(len(setup.index))
        self.features = {}     # clip number -> feature matrix of its first spot
        self.predictions = []  # (op, clip number, predicted class)
        self.items_per_op = 1
        self.forwards_per_op = 1
        self.setup_clips = 0
        self.clips_per_op = 1

    def run_op(self, i: int):
        k = int(self.order[i % len(self.order)])
        clip = audio_io.read_wav(self.setup.index.entries[k][0])
        features = dsp.mfcc_pipeline(clip, self.scale.dsp, FEATURE_KIND)
        label, _ = models.predict(self.setup.model, features)
        self.features.setdefault(k, features.values)
        self.predictions.append((i, k, label))

    def verify(self, tally: Tally):
        seen = sorted(self.features)
        x = np.stack([self.features[k] for k in seen])
        want = dict(zip(seen, _batched_argmax(self.setup.model, x, self.scale.batch_size)))
        for i, k, label in self.predictions:
            tally.record(label == want[k],
                         f"op {i}: clip {k} spotted as {label}, batched forward says {want[k]}")
        paths = [self.setup.index.entries[k][0] for k in seen]
        _frontend_check(tally, self.scale, self.seed, paths, x)


def _parse_confusion(text: str) -> np.ndarray:
    lines = text.splitlines()
    start = lines.index("confusion (rows = true, columns = predicted):") + 1
    return np.array([[int(v) for v in line.split()] for line in lines[start:] if line.strip()])


class Eval:
    """Operation: one `kwspot eval` over one shard of the on-disk dataset,
    the shards in turn."""
    unit = "run"

    def __init__(self, setup: Setup, scale: Scale, seed: int):
        self.setup = setup
        self.scale = scale
        self.seed = seed
        default = dsp.DspConfig()
        self.overrides = [
            arg for f in fields(scale.dsp)
            if getattr(scale.dsp, f.name) != getattr(default, f.name)
            for arg in ("--set", f"{f.name}={getattr(scale.dsp, f.name)}")
        ]
        # Shard k hard-links every EVAL_SHARDS-th clip of the index from k,
        # so each holds the same number of clips of every class.
        entries = setup.index.entries
        self.shards = []  # (directory, entry numbers)
        for k in range(EVAL_SHARDS):
            root = setup.data.parent / f"shard{k}"
            for label in setup.index.label_set:
                (root / label).mkdir(parents=True)
            members = range(k, len(entries), EVAL_SHARDS)
            for n in members:
                path, label = entries[n]
                os.link(path, root / label / path.name)
            self.shards.append((root, list(members)))
        self.reports = []  # (op, shard, report path)
        self.items_per_op = len(entries) // EVAL_SHARDS
        self.forwards_per_op = self.items_per_op
        self.setup_clips = 0
        self.clips_per_op = self.items_per_op

    def run_op(self, i: int):
        k = i % EVAL_SHARDS
        report = self.setup.checkpoint.parent / f"report-{i}.txt"
        argv = ["eval", "--ckpt", str(self.setup.checkpoint), "--data",
                str(self.shards[k][0]), "--out", str(report), "--format", "text",
                *self.overrides]
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            code = cli.run_cli(argv)
        if code != 0:
            raise CheckFailed(f"kwspot eval exited {code}: {err.getvalue().strip()}")
        self.reports.append((i, k, report))

    def verify(self, tally: Tally):
        entries = self.setup.index.entries
        x = np.stack([
            dsp.mfcc_pipeline(audio_io.read_wav(path), self.scale.dsp, FEATURE_KIND).values
            for path, _ in entries
        ])
        truth = np.array([self.setup.index.class_index(label) for _, label in entries])
        predicted = _batched_argmax(self.setup.model, x, self.scale.batch_size)
        n = self.setup.model.config.n_classes
        want = []
        for _, members in self.shards:
            confusion = np.zeros((n, n), dtype=np.int64)
            np.add.at(confusion, (truth[members], predicted[members]), 1)
            want.append(confusion)
        for i, k, path in self.reports:
            got = _parse_confusion(path.read_text())
            tally.record(got.shape == want[k].shape and np.array_equal(got, want[k]),
                         f"op {i}: report confusion on shard {k} differs from batched forward")
        _frontend_check(tally, self.scale, self.seed, [p for p, _ in entries], x)


WORKLOAD_CLASSES = {"train": Train, "spot": Spot, "eval": Eval}
