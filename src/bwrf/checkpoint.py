"""Binary model checkpoints.

Layout, all integers little-endian:

    magic    4 bytes  b"BWRF"
    version  u32      currently 1
    arch     u32 length + utf-8 bytes (e.g. "resnet20")
    bits     i32      quantization width; 0 marks a full-precision model
    count    u32      number of tensors
    tensors  count *  (u32 name length + utf-8 name,
                       u32 rank, rank * u32 extents,
                       float32 payload)
    crc32    u32      over everything after the magic

Tensors are written in the model's state-dict order, so save -> load ->
save reproduces the file byte for byte. The trailing checksum makes any
single-byte corruption detectable. A save goes through ``atomic_write``,
as the command-line outputs do, so a failed save never destroys the
previous file.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"BWRF"
VERSION = 1


class CheckpointError(Exception):
    """Missing, corrupt, or incompatible checkpoint file."""


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb", **open_args):
    """Open ``<path>.tmp`` for writing, making path's directory if needed.
    When the block ends the file is synced and renamed over path; if the
    block raises it is removed, and path keeps its previous bytes."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(path: str, arch: str, bits: int, tensors: dict):
    """Write name -> float32 array pairs with arch / bit-width metadata.

    bits = 0 denotes a full-precision model.
    """
    body = bytearray()
    body += struct.pack("<I", VERSION)
    raw_arch = arch.encode("utf-8")
    body += struct.pack("<I", len(raw_arch)) + raw_arch
    body += struct.pack("<i", int(bits))
    body += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        raw_name = name.encode("utf-8")
        body += struct.pack("<I", len(raw_name)) + raw_name
        body += struct.pack("<I", arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        body += arr.astype("<f4").tobytes()
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(bytes(body))))


class _Reader:
    def __init__(self, path: str, blob: bytes):
        self.path = path
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated reading {what} at byte {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def i32(self, what: str) -> int:
        return struct.unpack("<i", self.take(4, what))[0]


def load_checkpoint(path: str):
    """(arch, bits, tensors) from a checkpoint file; bits 0 = full precision."""
    if not os.path.exists(path):
        raise CheckpointError(f"missing checkpoint {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated before the checksum")
    body, tail = blob[4:-4], blob[-4:]
    want_crc = struct.unpack("<I", tail)[0]
    got_crc = zlib.crc32(body)
    if got_crc != want_crc:
        raise CheckpointError(
            f"{path}: checksum mismatch (stored {want_crc:#010x}, computed {got_crc:#010x})")
    r = _Reader(path, body)
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    arch = r.take(r.u32("arch length"), "arch").decode("utf-8")
    bits = r.i32("bits")
    count = r.u32("tensor count")
    tensors = {}
    for i in range(count):
        name = r.take(r.u32("name length"), f"tensor {i} name").decode("utf-8")
        rank = r.u32(f"{name} rank")
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank, f"{name} shape"))
        payload = r.take(4 * math.prod(shape), f"{name} data")  # a Python int: no wrap
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    if r.pos != len(body):
        raise CheckpointError(f"{path}: {len(body) - r.pos} trailing bytes after tensors")
    return arch, bits, tensors


def save_model(path: str, model, arch: str):
    """Checkpoint a model; full-precision models are tagged bits = 0."""
    save_checkpoint(path, arch, model.bits or 0, model.state_dict())


def load_into_model(path: str, model, arch: str):
    """Load a checkpoint into a model, checking arch and bit-width tags."""
    file_arch, file_bits, tensors = load_checkpoint(path)
    if file_arch != arch:
        raise CheckpointError(
            f"{path}: checkpoint is for {file_arch!r}, expected {arch!r}")
    if file_bits != (model.bits or 0):
        raise CheckpointError(
            f"{path}: checkpoint bit-width {file_bits} does not match model "
            f"bit-width {model.bits or 0}")
    try:
        model.load_state_dict(tensors)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e
    return model
