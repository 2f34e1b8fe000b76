"""Tests for the versioned binary container format."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from xlic.container import (
    FORMAT_VERSION,
    MAGIC,
    ContainerChecksumError,
    ContainerError,
    ContainerTruncatedError,
    ContainerVersionError,
    read_container,
    write_atomic,
    write_container,
)


@pytest.fixture
def sample_file(tmp_path, rng):
    path = tmp_path / "sample.bin"
    arrays = {
        "cplx": rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)),
        "real": rng.standard_normal(7),
    }
    meta = {"alpha": 1.5, "note": "round trip"}
    write_container(path, "dataset", meta, arrays)
    return path, meta, arrays


def test_round_trip_bit_exact(sample_file):
    path, meta, arrays = sample_file
    kind, meta2, arrays2 = read_container(path)
    assert kind == "dataset"
    assert meta2 == meta
    assert_array_equal(arrays2["cplx"], arrays["cplx"])
    assert_array_equal(arrays2["real"], arrays["real"])


def test_corrupted_byte_fails_checksum(sample_file):
    path, _, _ = sample_file
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerChecksumError, match="checksum"):
        read_container(path)


def test_older_version_reported_distinctly(sample_file):
    path, _, _ = sample_file
    raw = bytearray(path.read_bytes())
    # patch the version field and fix up the trailing CRC
    struct.pack_into("<I", raw, len(MAGIC), FORMAT_VERSION - 1)
    import zlib

    body = bytes(raw[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ContainerVersionError, match="version"):
        read_container(path)


def test_truncation_reported_distinctly(sample_file, tmp_path):
    path, _, _ = sample_file
    raw = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:10])
    with pytest.raises(ContainerTruncatedError):
        read_container(short)


def test_bad_magic_rejected(tmp_path, sample_file):
    path, _, _ = sample_file
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="magic"):
        read_container(bad)


def test_wrong_kind_rejected(sample_file):
    path, _, _ = sample_file
    with pytest.raises(ContainerError, match="kind"):
        read_container(path, expected_kind="fnn-model")


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ContainerError, match="dtype"):
        write_container(tmp_path / "x.bin", "dataset", {}, {"a": np.ones(3, dtype=np.float32)})


def test_failed_atomic_write_keeps_target_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
