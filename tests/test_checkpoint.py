"""Checkpoint format tests: round trips, integrity, and model compatibility."""

import errno
import os
import struct
import zlib

import numpy as np
import pytest

from bwrf import checkpoint
from bwrf.checkpoint import (CheckpointError, load_checkpoint, load_into_model,
                             save_checkpoint, save_model)
from bwrf.network import BlockSpec, build_model

SPEC = BlockSpec(units_per_block=1, in_channels=3, num_classes=10)


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "stem.conv.weight": rng.standard_normal((16, 3, 3, 3)).astype(np.float32),
        "head.bias": rng.standard_normal(10).astype(np.float32),
        "head.wq.scale": np.array([0.037], np.float32),
    }


def test_round_trip_preserves_values_and_metadata(tmp_path):
    path = str(tmp_path / "m.ckpt")
    tensors = sample_tensors()
    save_checkpoint(path, "resnet20", 4, tensors)
    arch, bits, loaded = load_checkpoint(path)
    assert arch == "resnet20" and bits == 4
    assert list(loaded) == list(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.float32


def test_save_load_save_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, "resnet20", 4, sample_tensors())
    _, _, loaded = load_checkpoint(a)
    save_checkpoint(b, "resnet20", 4, loaded)
    assert open(a, "rb").read() == open(b, "rb").read()


class _DiskFullFile:
    """A real file whose second write fails, like a disk filling mid-save."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "best.ckpt")
    save_checkpoint(path, "resnet20", 4, sample_tensors())
    before = open(path, "rb").read()
    monkeypatch.setattr(checkpoint, "open", _DiskFullFile, raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, "resnet20", 8, {"w": np.ones(100, np.float32)})
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["best.ckpt"]


def test_every_corrupted_byte_is_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), "resnet8", 0, {"w": np.arange(6, dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    stride = max(1, len(blob) // 64)
    for pos in range(4, len(blob), stride):  # past the magic
        flipped = bytearray(blob)
        flipped[pos] ^= 0xFF
        path.write_bytes(flipped)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
    path.write_bytes(blob)
    load_checkpoint(str(path))  # pristine file still loads


def test_bad_magic_and_missing_file(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(str(path))
    with pytest.raises(CheckpointError, match="missing checkpoint"):
        load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_truncated_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), "resnet8", 0, {"w": np.ones(4, np.float32)})
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def crafted(path, body: bytes):
    """A checkpoint file of magic, body and the body's valid crc."""
    path.write_bytes(checkpoint.MAGIC + body + struct.pack("<I", zlib.crc32(body)))
    return str(path)


def header(version=1) -> bytes:
    """Version, arch resnet8, bits 0 and one tensor."""
    return struct.pack("<II", version, 7) + b"resnet8" + struct.pack("<iI", 0, 1)


def tensor_record(name: bytes, shape, payload=b"") -> bytes:
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
            + struct.pack(f"<{len(shape)}I", *shape) + payload)


OVERFLOWING = header() + tensor_record(b"w", (1 << 21,) * 3)  # 2^63 elements


@pytest.mark.parametrize("body, message", [
    (OVERFLOWING, "truncated reading w data"),
    (header()[:-2], "truncated reading tensor count"),
    (header(version=2), "unsupported version 2"),
    (header() + tensor_record(b"w", (2,), np.ones(2, "<f4").tobytes()) + b"\0\0",
     "2 trailing bytes after tensors"),
], ids=["overflowing-extents", "truncated-body", "version", "trailing-bytes"])
def test_a_file_with_a_valid_crc_and_a_bad_body_is_rejected(tmp_path, body, message):
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(crafted(tmp_path / "m.ckpt", body))


def test_a_file_under_eight_bytes_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint.MAGIC + b"\1\0\0")
    with pytest.raises(CheckpointError, match="truncated before the checksum"):
        load_checkpoint(str(path))


def test_model_round_trip_bit_identical(tmp_path):
    path = str(tmp_path / "lp.ckpt")
    model = build_model(SPEC, "lp", bits=4, seed=7)
    save_model(path, model, "resnet8")
    clone = build_model(SPEC, "lp", bits=4, seed=99)
    load_into_model(path, clone, "resnet8")
    assert clone.checksum() == model.checksum()


def test_load_into_model_rejects_wrong_arch(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_model(path, build_model(SPEC, "fp", seed=1), "resnet8")
    with pytest.raises(CheckpointError, match="is for 'resnet8'"):
        load_into_model(path, build_model(SPEC, "fp", seed=2), "resnet20")


def test_load_into_model_rejects_wrong_bits(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_model(path, build_model(SPEC, "fp", seed=1), "resnet8")
    with pytest.raises(CheckpointError, match="bit-width"):
        load_into_model(path, build_model(SPEC, "lp", bits=4, seed=2), "resnet8")


def test_load_into_model_rejects_shape_drift(tmp_path):
    path = str(tmp_path / "m.ckpt")
    model = build_model(SPEC, "fp", seed=1)
    state = dict(model.state_dict())
    state["head.bias"] = np.zeros(7, np.float32)
    save_checkpoint(path, "resnet8", 0, state)
    with pytest.raises(CheckpointError, match="head.bias"):
        load_into_model(path, build_model(SPEC, "fp", seed=2), "resnet8")


def test_fp_bits_tag_is_zero(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_model(path, build_model(SPEC, "fp", seed=1), "resnet8")
    _, bits, _ = load_checkpoint(path)
    assert bits == 0
