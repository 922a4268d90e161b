"""Mutation fuzz of files kwspot reads: the `key = value` metadata block and
the array section of a sealed checkpoint, a config file and a WAV clip. Every mutated input
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
from kwspot.errors import CheckpointError, KwspotError
from kwspot.keyvalue import from_config
from kwspot.models import ARCHITECTURES, ModelConfig, build_model
from kwspot.training import TrainConfig, load_checkpoint, save_checkpoint

from conftest import write_sealed_checkpoint
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


# the little-endian u32 fields (name length, rank, dims), array names and
# float32 values of the array section
ARRAY_TOKENS = [b"\x00\x00\x00\x00", b"\x01\x00\x00\x00", b"\x02\x00\x00\x00",
                b"\x03\x00\x00\x00", b"\x04\x00\x00\x00", b"\x00\x00\x10\x00",
                b"\xff\xff\xff\x7f", b"\xff\xff\xff\xff", b"\x00\x00\xc0\x7f",
                b"conv0_kernel", b"conv0_gamma", b"conv0_bn_running_var", b"fc2_b",
                b"\xff\xfe"]

array_edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(0, 40),   # which array header, modulo their count
        st.integers(0, 48),   # offset from the start of that header
        st.sampled_from(ARRAY_TOKENS) | st.binary(min_size=1, max_size=4),
    ),
    min_size=1, max_size=4,
)


def array_starts(section: bytes, itemsize: int = 4) -> list:
    """Byte offsets of each array header in a checkpoint's array section,
    and its end."""
    starts, pos = [], 0
    while pos < len(section):
        starts.append(pos)
        name_len = struct.unpack_from("<I", section, pos)[0]
        pos += 4 + name_len
        rank = struct.unpack_from("<I", section, pos)[0]
        dims = struct.unpack_from(f"<{rank}I", section, pos + 4)
        pos += 4 + 4 * rank + itemsize * int(np.prod(dims))
    return starts + [pos]


@FUZZ
@given(arch=st.integers(0, len(ARCHITECTURES) - 1), edit_list=array_edits)
def test_checkpoint_array_mutations(tmp_path, sealed_bodies, arch, edit_list):
    # the CRC trailer is kept consistent, so that every mutation reaches
    # the array parser
    meta, head, tail = sealed_bodies[arch]
    starts = array_starts(tail)
    mutated = mutate(tail, [(op, starts[k % len(starts)] + offset, chunk)
                            for op, k, offset, chunk in edit_list])
    path = tmp_path / "fuzz.ckpt"
    write_sealed_checkpoint(path, head + struct.pack("<I", len(meta)) + meta + mutated)
    try:
        model, _ = load_checkpoint(path)
    except CheckpointError as exc:
        assert "fuzz.ckpt" in str(exc)
        return
    fresh = build_model(model.config)
    for name, p in model.params.items():
        assert (p.data.shape, p.data.dtype) == (fresh.params[name].shape,
                                                fresh.params[name].data.dtype), name


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
