"""Versioned binary container for datasets, models and coefficient files.

Layout (all integers little-endian):

    8 bytes   magic  b"XLICBIN\\0"
    u32       format version (currently 1)
    u16 + n   payload kind tag (UTF-8, e.g. "dataset", "fnn-model")
    u64 + n   metadata block (UTF-8 JSON)
    u32       array count
    per array:
        u16 + n   array name (UTF-8)
        u16 + n   dtype string ("<f8" or "<c16"; complex data is stored
                  as interleaved little-endian 64-bit float I/Q pairs)
        u8        ndim
        u64 * ndim  shape
        raw       C-order array bytes
    u32       CRC-32 of everything before it

Round-trips are bit-exact; any corruption is caught by the trailing
checksum before content is interpreted.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

MAGIC = b"XLICBIN\0"
FORMAT_VERSION = 1

_ALLOWED_DTYPES = ("<f8", "<c16")


class ContainerError(Exception):
    """Base class for container format failures."""


class ContainerVersionError(ContainerError):
    """File uses an unsupported format version."""


class ContainerChecksumError(ContainerError):
    """Trailing CRC-32 does not match the file contents."""


class ContainerTruncatedError(ContainerError):
    """File ended before the declared content was read."""


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ContainerTruncatedError(
                f"file truncated: needed {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode("utf-8")


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it to ``path``.

    The temp name is random per write, so concurrent writers never share
    a file; it is removed if the write fails. The mode follows the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    name = f".xlic-tmp-{os.urandom(8).hex()}-{os.path.basename(path)}"
    tmp = os.path.join(directory, name)
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` plus JSON ``meta`` atomically to ``path``."""
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION), _pack_str(kind)]
    meta_raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<Q", len(meta_raw)))
    chunks.append(meta_raw)
    chunks.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype == np.complex128:
            dtype = "<c16"
        elif arr.dtype == np.float64:
            dtype = "<f8"
        else:
            raise ContainerError(f"unsupported array dtype {arr.dtype} for '{name}'")
        arr = arr.astype(dtype, copy=False)  # force little-endian layout
        chunks.append(_pack_str(name))
        chunks.append(_pack_str(dtype))
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    write_atomic(path, body + struct.pack("<I", zlib.crc32(body)))


def read_container(path, expected_kind: str | None = None):
    """Read a container file; returns ``(kind, meta, arrays)``.

    Raises the specific :class:`ContainerError` subclass for version,
    checksum and truncation failures.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 8:
        raise ContainerTruncatedError(f"file too small ({len(raw)} bytes)")
    if raw[: len(MAGIC)] != MAGIC:
        raise ContainerError("bad magic: not a container file")
    body, (stored_crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != stored_crc:
        raise ContainerChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {zlib.crc32(body):#010x}"
        )

    rd = _Reader(body)
    rd.take(len(MAGIC))
    (version,) = rd.unpack("<I")
    if version != FORMAT_VERSION:
        raise ContainerVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION})"
        )
    kind = rd.take_str()
    if expected_kind is not None and kind != expected_kind:
        raise ContainerError(f"payload kind '{kind}' (expected '{expected_kind}')")
    (meta_len,) = rd.unpack("<Q")
    try:
        meta = json.loads(rd.take(meta_len).decode("utf-8"))
    except RecursionError as exc:
        raise ContainerError(f"metadata nested too deeply ({exc})") from exc
    (n_arrays,) = rd.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        name = rd.take_str()
        dtype = rd.take_str()
        if dtype not in _ALLOWED_DTYPES:
            raise ContainerError(f"unsupported dtype '{dtype}' in file")
        (ndim,) = rd.unpack("<B")
        shape = rd.unpack(f"<{ndim}Q")
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        nbytes = count * np.dtype(dtype).itemsize
        data = rd.take(nbytes)
        arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    return kind, meta, arrays
