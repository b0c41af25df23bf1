"""Binary checkpoint container (magic "XGCK"): stage tag, config hash,
JSON metadata, named float64 tensor blobs and a trailing content checksum.
All fixed-width fields are little-endian."""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ArtifactError

XGCK_MAGIC = b"XGCK"
XGCK_VERSION = 1

STAGES = ("alignment", "classifier")  # plus "ldm:<modality>" and "joint:<pair>"


def save_checkpoint(path, stage: str, config_hash: str,
                    arrays: dict[str, np.ndarray], metadata: dict) -> str:
    """Write a checkpoint and return its content checksum (hex)."""
    chunks = [XGCK_MAGIC, struct.pack("<H", XGCK_VERSION)]
    stage_raw = stage.encode("utf-8")
    chunks.append(struct.pack("<H", len(stage_raw)) + stage_raw)
    hash_raw = config_hash.encode("utf-8")
    chunks.append(struct.pack("<H", len(hash_raw)) + hash_raw)
    meta_raw = json.dumps(metadata, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(meta_raw)) + meta_raw)
    chunks.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        name_raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_raw)) + name_raw)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    digest = hashlib.sha256(body).digest()
    Path(path).write_bytes(body + digest)
    return digest.hex()


def load_checkpoint(path, expect_stage: str | None = None,
                    expect_config_hash: str | None = None) -> dict:
    """Read and verify a checkpoint.

    Returns {"stage", "config_hash", "metadata", "arrays", "checksum"}.
    Any magic, version, checksum, stage or config-hash mismatch raises.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 38 or raw[:4] != XGCK_MAGIC:
        raise ArtifactError(f"{path}: not a checkpoint file")
    body = raw[:-32]
    checksum = hashlib.sha256(body).digest()
    if checksum != raw[-32:]:
        raise ArtifactError(f"{path}: checksum mismatch, file is corrupt")
    off = 4

    def take(n):
        nonlocal off
        out = body[off:off + n]
        if len(out) != n:
            raise ArtifactError(f"{path}: truncated checkpoint")
        off += n
        return out

    (version,) = struct.unpack("<H", take(2))
    if version != XGCK_VERSION:
        raise ArtifactError(
            f"{path}: checkpoint format version {version} not supported (expected {XGCK_VERSION})")
    (stage_len,) = struct.unpack("<H", take(2))
    stage = take(stage_len).decode("utf-8")
    (hash_len,) = struct.unpack("<H", take(2))
    cfg_hash = take(hash_len).decode("utf-8")
    (meta_len,) = struct.unpack("<I", take(4))
    metadata = json.loads(take(meta_len).decode("utf-8"))
    (n_arrays,) = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim)) if ndim else ()
        count = int(np.prod(shape)) if shape else 1
        arrays[name] = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape).copy()
    if off != len(body):
        raise ArtifactError(f"{path}: {len(body) - off} trailing bytes")

    if expect_stage is not None and stage != expect_stage:
        raise ArtifactError(f"{path}: stage {stage!r}, expected {expect_stage!r}")
    if expect_config_hash is not None and cfg_hash != expect_config_hash:
        raise ArtifactError(
            f"{path}: config hash {cfg_hash[:12]}... does not match the active "
            f"config {expect_config_hash[:12]}...")
    return {"stage": stage, "config_hash": cfg_hash, "metadata": metadata,
            "arrays": arrays, "checksum": checksum.hex()}


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
