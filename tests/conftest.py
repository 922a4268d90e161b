"""Fixtures, input builders and hand-built file layouts shared by the tests;
the reference implementations live in oracles.py."""

import struct
import zlib

import numpy as np
import pytest

from kwspot import training
from kwspot.audio_io import PCM_SUBFORMAT, AudioClip, SynthSpec, synth_dataset, write_wav
from kwspot.autodiff import Tensor, backward
from kwspot.cli import run_cli
from kwspot.dsp import DspConfig
from kwspot.errors import DataError, read_text
from kwspot.eval import confusion_matrix, emit_report
from kwspot.layers import LSTM_GATES, BnStats, batch_norm
from kwspot.models import ARCHITECTURES, ModelConfig, build_model

# one PASS/FAIL line per acceptance criterion, filled in by
# tests/test_acceptance.py and echoed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def small_dsp_config():
    """4 kHz desk-scale front end: 61 frames x 20 mel filters on 1 s."""
    return DspConfig(
        sample_rate=4000, frame_len=128, hop_len=64, n_fft=128,
        n_mel_filters=20, n_mfcc=10, fmin=50.0, fmax=1900.0,
    )


@pytest.fixture
def synth_index():
    spec = SynthSpec(
        n_classes=3, clips_per_class=20, sample_rate=4000,
        class_frequencies=(400.0, 800.0, 1400.0), noise_amplitude=0.05,
    )
    return synth_dataset(spec, 42)


SYNTH_SPEC = """\
# three tones, 4 kHz
n_classes = 3
clips_per_class = 6
sample_rate = 4000
class_frequencies = 400, 800, 1400
noise_amplitude = 0.05
seed = 7
"""

SMALL_CONFIG = """\
sample_rate = 4000
frame_len = 128
hop_len = 64
n_fft = 128
n_mel_filters = 20
n_mfcc = 10
fmin = 50.0
fmax = 1900.0
conv_channels = 2
lstm_hidden = 3
dense_hidden = 4
dropout_rate = 0.0
max_epochs = 2
patience = 1
batch_size = 8
train_ratio = 0.5
val_ratio = 0.25
test_ratio = 0.25
"""


@pytest.fixture
def synth_dir(tmp_path):
    spec = tmp_path / "synth.spec"
    spec.write_text(SYNTH_SPEC)
    data = tmp_path / "data"
    assert run_cli(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    return data


@pytest.fixture
def small_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def _bilstm_params(rng, in_dim, hidden, scale=1.0):
    """[W, U, b] of bilstm_sequence, both directions stacked: per direction,
    forward first, one draw per gate block, all W blocks, then all U, then
    all b."""
    def block(shape):
        return np.concatenate([scale * rng.normal(size=shape) / np.sqrt(max(shape))
                               for _ in LSTM_GATES], axis=-1)
    rows = [[block((in_dim, hidden)), block((hidden, hidden)), block((hidden,))]
            for _ in range(2)]
    return [Tensor(np.stack(role), requires_grad=True) for role in zip(*rows)]


# the conv blocks' batch-norm shapes in the paper-scale models
PAPER_BN_SHAPES = [(32, 32, 98, 40), (32, 64, 49, 20)]


def _paper_bn_inputs(shape, seed):
    """float32 (x, gamma, beta, mean, var, upstream) at a conv block's
    shape; channel 1 sits 100 sigma off zero, where a one-pass
    E[x^2] - mean^2 variance cancels away the digits that matter."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = rng.normal(0.5, 2.0, size=shape).astype(np.float32)
    x[:, 1] += np.float32(200.0)
    return (x, rng.uniform(0.5, 1.5, c).astype(np.float32), rng.normal(size=c).astype(np.float32),
            rng.normal(size=c).astype(np.float32), rng.uniform(0.5, 2.0, c).astype(np.float32),
            rng.normal(size=shape).astype(np.float32))


def _train_bn(x, gamma, beta, mean, var, upstream):
    """(output, running mean, running var, dx, dgamma, dbeta) of one
    train-mode batch_norm forward and backward."""
    stats = BnStats(mean=mean.copy(), var=var.copy())
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    out = batch_norm(*leaves, stats, "train")
    backward((out * Tensor(upstream)).sum())
    return (out.data, stats.mean, stats.var) + tuple(leaf.grad for leaf in leaves)


def extensible_fmt(sample_rate, channels=1, bits=16, subformat=PCM_SUBFORMAT):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk with its chunk header:
    the PCM fields, cbSize 22, valid bits, channel mask and SubFormat."""
    return b"fmt " + struct.pack(
        "<IHHIIHHHHI", 40, 0xFFFE, channels, sample_rate,
        sample_rate * channels * bits // 8, channels * bits // 8, bits, 22, bits, 0x4,
    ) + subformat


def riff_wave(fmt: bytes, body: bytes) -> bytes:
    """A RIFF/WAVE file of the fmt chunk (with its chunk header) and one
    data chunk holding body."""
    return (b"RIFF" + struct.pack("<I", 4 + len(fmt) + 8 + len(body)) + b"WAVE" + fmt
            + b"data" + struct.pack("<I", len(body)) + body)


@pytest.fixture(scope="module")
def wav_bytes(tmp_path_factory):
    """A short 8 kHz clip: 32 samples after the header, so that most edits
    land in the header; once with a plain PCM fmt chunk and once with a
    WAVE_FORMAT_EXTENSIBLE one."""
    path = tmp_path_factory.mktemp("wav") / "clip.wav"
    samples = np.sin(np.arange(32) / 3.0) * 0.5
    write_wav(path, AudioClip(samples=samples, sample_rate=8000))
    plain = path.read_bytes()
    return plain, riff_wave(extensible_fmt(8000), plain[44:])


def split_metadata(body: bytes):
    """(head, metadata, rest) of a checkpoint: the magic and version in
    [0:8], the metadata block after its u32 length in [8:12], and all that
    follows it (the array section, and the CRC32 trailer if body has it)."""
    n = struct.unpack("<I", body[8:12])[0]
    return body[:8], body[12:12 + n], body[12 + n:]


def join_metadata(head: bytes, meta: bytes, rest: bytes) -> bytes:
    """The checkpoint body of split_metadata's parts, with meta's length."""
    return head + struct.pack("<I", len(meta)) + meta + rest


def write_sealed_checkpoint(path, body: bytes):
    """Write a (mutated) checkpoint body with a valid CRC32 trailer, so that
    loading it reaches the checks behind the checksum."""
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def write_metadata(path, edit):
    """Replace the metadata block of the checkpoint at `path` by
    edit(metadata bytes), fixing its length prefix and the CRC32 trailer."""
    head, meta, rest = split_metadata(path.read_bytes()[:-4])
    write_sealed_checkpoint(path, join_metadata(head, edit(meta), rest))


@pytest.fixture(scope="module")
def sealed_bodies(tmp_path_factory):
    """split_metadata's (head, metadata, array section) of one small
    checkpoint per architecture, with labels and a train config."""
    out = []
    for arch in ARCHITECTURES:
        path = tmp_path_factory.mktemp("ckpt") / f"{arch}.ckpt"
        model = build_model(ModelConfig(
            arch=arch, n_classes=3, input_shape=(8, 8), conv_channels=(2,),
            lstm_hidden=3, dense_hidden=4,
        ))
        training.save_checkpoint(model, path, training.TrainConfig(), labels=["a", "b", "c"])
        out.append(split_metadata(path.read_bytes()[:-4]))
    return out


@pytest.fixture(scope="module")
def csv_bytes(tmp_path_factory):
    """A two-epoch metrics CSV and a three-label report CSV."""
    root = tmp_path_factory.mktemp("csv")
    history = training.TrainHistory(records=[
        training.EpochRecord(1, 1.2, 0.4, 1.3, 0.35, 1e-3, 0.5),
        training.EpochRecord(2, 0.9, 0.6, 1.0, 0.55, 9e-4, 0.5)])
    training.write_metrics_csv(history, root / "metrics.csv")
    cm = confusion_matrix(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2]), 3, ["a", "b", "c"])
    emit_report(cm, root / "report.csv")
    return (root / "metrics.csv").read_bytes(), (root / "report.csv").read_bytes()


def accuracy_by_label(report):
    """label -> accuracy of each row of a confusion matrix's report."""
    return {label: accuracy for label, accuracy, _ in report.rows()}


def parse_report_csv(path):
    """Re-parse an emitted CSV into (per-keyword map, overall, n_samples).
    A foreign file or a malformed row raises DataError."""
    lines = read_text(path, DataError).strip().splitlines()
    if not lines or lines[0] != "label,accuracy,n":
        raise DataError(f"{path}: not a kwspot report CSV")
    per_keyword, overall, n_samples = {}, None, None
    for lineno, line in enumerate(lines[1:], 2):
        try:
            label, acc, n = line.split(",")
            acc, n = float(acc), int(n)
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: expected label,accuracy,n, got {line!r}"
            ) from None
        if label == "__overall__":
            overall, n_samples = acc, n
        else:
            per_keyword[label] = acc
    if overall is None:
        raise DataError(f"{path}: missing __overall__ row")
    return per_keyword, overall, n_samples


def record_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that runs it and appends each call's
    (positional arguments, result) to the list returned."""
    calls = []
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, recording)
    return calls


def script_validation(monkeypatch, accuracy):
    """Make fit's validation pass report accuracy(epoch) (1-based) instead
    of evaluating the model, so that early stopping follows a set curve."""
    epochs = []

    def scripted(model, x, y, batch_size):
        epochs.append(len(epochs) + 1)
        return 0.0, accuracy(epochs[-1]), np.zeros(len(y), dtype=np.int64)

    monkeypatch.setattr(training, "evaluate_arrays", scripted)
