"""Mutation fuzz of files kwspot reads: the `key = value` metadata block of
a sealed checkpoint, a config file and a WAV clip. Every mutated input
either loads or raises a KwspotError subclass. Runs are derandomized, so a
failure reproduces on every run; each shrunk failure is kept as a plain
test."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kwspot.audio_io import AudioClip, read_wav, write_wav
from kwspot.cli import parse_config
from kwspot.dsp import DspConfig
from kwspot.errors import KwspotError
from kwspot.keyvalue import from_config
from kwspot.models import ARCHITECTURES, ModelConfig, build_model
from kwspot.training import TrainConfig, load_checkpoint, save_checkpoint

from test_cli import SMALL_CONFIG

FUZZ = settings(
    derandomize=True, database=None, max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# pieces of the format more likely than random bytes to reach the checks
# behind the line syntax
TOKENS = [b"=", b",", b"#", b"\n", b" ", b"-", b"0", b"9", b"99999", b"1e308", b"nan",
          b"inf", b"\xff", b"\xc2\x85", b"arch=", b"labels=", b"dtype=", b"float64",
          b"cnn", b"train.seed=", b"conv_channels=", b"input_shape="]

edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(0, 400),
        st.sampled_from(TOKENS) | st.text("0123456789-+.e,=# \n_x", min_size=1,
                                          max_size=3).map(str.encode),
    ),
    min_size=1, max_size=4,
)


def mutate(data: bytes, edit_list) -> bytes:
    out = bytearray(data)
    for op, pos, chunk in edit_list:
        pos %= len(out) + 1
        if op == "insert":
            out[pos:pos] = chunk
        elif op == "replace":
            out[pos:pos + len(chunk)] = chunk
        else:
            del out[pos:pos + len(chunk)]
    return bytes(out)


@pytest.fixture(scope="module")
def sealed_bodies(tmp_path_factory):
    """(metadata, body before it, body after it) of one small checkpoint
    per architecture, with labels and a train config."""
    out = []
    for arch in ARCHITECTURES:
        path = tmp_path_factory.mktemp("ckpt") / f"{arch}.ckpt"
        model = build_model(ModelConfig(
            arch=arch, n_classes=3, input_shape=(8, 8), conv_channels=(2,),
            lstm_hidden=3, dense_hidden=4,
        ))
        save_checkpoint(model, path, TrainConfig(), labels=["a", "b", "c"])
        body = path.read_bytes()[:-4]
        n = struct.unpack("<I", body[8:12])[0]
        out.append((body[12:12 + n], body[:8], body[12 + n:]))
    return out


@FUZZ
@given(arch=st.integers(0, len(ARCHITECTURES) - 1), edit_list=edits)
def test_checkpoint_metadata_mutations(tmp_path, sealed_bodies, arch, edit_list):
    meta, head, tail = sealed_bodies[arch]
    mutated = mutate(meta, edit_list)
    body = head + struct.pack("<I", len(mutated)) + mutated + tail
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    try:
        model, values = load_checkpoint(path)
    except KwspotError as exc:
        assert "fuzz.ckpt" in str(exc)
        return
    assert from_config(ModelConfig, values) == model.config


@FUZZ
@given(edit_list=edits)
def test_config_file_mutations(tmp_path, edit_list):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(mutate(b"# small run\n" + SMALL_CONFIG.encode(), edit_list))
    try:
        cfg = parse_config(path)
        from_config(DspConfig, cfg)
        from_config(TrainConfig, cfg)
    except KwspotError:
        return


# the chunk ids and little-endian fields of a RIFF/WAVE header
WAV_TOKENS = [b"RIFF", b"WAVE", b"fmt ", b"data", b"LIST", b"\x00", b"\x01", b"\x02",
              b"\x10", b"\xff", b"\x00\x00\x00\x00", b"\x01\x00\x00\x00",
              b"\xff\xff\xff\xff", b"\xfe\xff\xff\x7f", b"\x01\x00\x01\x00",
              b"\x03\x00", b"\x08\x00", b"\x20\x00", b"\x40\x1f\x00\x00"]

wav_edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(0, 120),
        st.sampled_from(WAV_TOKENS) | st.binary(min_size=1, max_size=4),
    ),
    min_size=1, max_size=4,
)


@pytest.fixture(scope="module")
def wav_bytes(tmp_path_factory):
    """A short 8 kHz clip: 32 samples after the 44-byte header, so that
    most edits land in the header."""
    path = tmp_path_factory.mktemp("wav") / "clip.wav"
    samples = np.sin(np.arange(32) / 3.0) * 0.5
    write_wav(path, AudioClip(samples=samples, sample_rate=8000))
    return path.read_bytes()


@FUZZ
@given(edit_list=wav_edits)
def test_wav_mutations(tmp_path, wav_bytes, edit_list):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(mutate(wav_bytes, edit_list))
    try:
        clip = read_wav(path)
    except KwspotError as exc:
        assert "fuzz.wav" in str(exc)
        return
    assert len(clip.samples) == clip.sample_rate > 0
    assert np.all(np.abs(clip.samples) <= 1.0)
