"""The field format of the binary artifact files, and the checkpoint
container (magic "XGCK"). Fixed-width fields are little-endian; a text
field is its UTF-8 bytes behind their length (``pack_text`` writes one,
``FieldReader`` reads every field). A checkpoint holds a version, the stage
tag, config hash and JSON metadata, then named float64 arrays (rank, shape,
values in C order), and ends in the SHA-256 of all that; ``toydata`` writes
dataset files in the same format."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ArtifactError

XGCK_MAGIC = b"XGCK"
XGCK_VERSION = 1


def write_atomic(path, chunks) -> None:
    """Write the buffers ``chunks``, in order and without joining them, to
    ``path`` through a temporary file in the same directory and
    ``os.replace``, so a write that fails partway leaves the previous file
    (or none) and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def pack_text(text: str, length: str = "<H") -> bytes:
    """The UTF-8 bytes of ``text`` behind their length packed as ``length``."""
    raw = text.encode("utf-8")
    return struct.pack(length, len(raw)) + raw


class FieldReader:
    """Reads an artifact file's fields in order, as views of its bytes; an
    ArtifactError names the file if a read runs past the end ("truncated
    <what>") or, at ``finish``, bytes are left."""

    def __init__(self, data, path, what: str):
        self.data, self.path, self.what, self.off = memoryview(data), path, what, 0

    def take(self, n: int) -> memoryview:
        self.off += n
        if self.off > len(self.data):
            raise ArtifactError(f"{self.path}: truncated {self.what}")
        return self.data[self.off - n:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, length: str = "<H") -> str:
        try:
            return str(self.take(self.unpack(length)[0]), "utf-8")
        except UnicodeDecodeError as exc:
            raise ArtifactError(f"{self.path}: a text field of the {self.what} "
                                f"is not UTF-8 ({exc.reason})") from exc

    def finish(self) -> None:
        if self.off != len(self.data):
            raise ArtifactError(f"{self.path}: {len(self.data) - self.off} trailing bytes")


def save_checkpoint(path, stage: str, config_hash: str,
                    arrays: dict[str, np.ndarray], metadata: dict) -> str:
    """Write a checkpoint and return its file checksum (hex): what
    ``file_checksum`` and ``load_checkpoint`` compute, here from the hash of
    the body that the trailer needs anyway, without reading the file back."""
    chunks = [XGCK_MAGIC, struct.pack("<H", XGCK_VERSION),
              pack_text(stage), pack_text(config_hash),
              pack_text(json.dumps(metadata, sort_keys=True), "<I"),
              struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        # written from its buffer, in C order
        arr = np.require(arrays[name], dtype="<f8", requirements="C")
        chunks += [pack_text(name), struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr]
    body_hash = chunks_hash(chunks)
    digest = body_hash.digest()
    write_atomic(path, chunks + [digest])
    body_hash.update(digest)
    return body_hash.hexdigest()


def load_checkpoint(path, expect_stage: str | None = None,
                    expect_config_hash: str | None = None) -> dict:
    """Read and verify a checkpoint.

    Returns {"stage", "config_hash", "metadata", "arrays", "checksum",
    "file_checksum"}: ``checksum`` is the verified SHA-256 of the body,
    ``file_checksum`` that of the whole file (what ``file_checksum`` returns),
    taken from a copy of the body's hash state without reading the body
    twice. Any magic, version, checksum, stage or config-hash mismatch raises.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 38 or raw[:4] != XGCK_MAGIC:
        raise ArtifactError(f"{path}: not a checkpoint file")
    body = memoryview(raw)[:-32]  # the fields are parsed from views of raw
    body_hash = hashlib.sha256(body)
    checksum = body_hash.digest()
    if checksum != raw[-32:]:
        raise ArtifactError(f"{path}: checksum mismatch, file is corrupt")
    fields = FieldReader(body[4:], path, "checkpoint")  # after the magic
    (version,) = fields.unpack("<H")
    if version != XGCK_VERSION:
        raise ArtifactError(
            f"{path}: checkpoint format version {version} not supported (expected {XGCK_VERSION})")
    stage, cfg_hash = fields.text(), fields.text()
    metadata = json.loads(fields.text("<I"))
    arrays = {}
    for _ in range(fields.unpack("<I")[0]):
        name = fields.text()
        (ndim,) = fields.unpack("<B")
        shape = fields.unpack(f"<{ndim}I")
        # the one copy of the values: a writable array that owns its memory
        values = np.frombuffer(fields.take(8 * math.prod(shape)), dtype="<f8")
        arrays[name] = values.reshape(shape).copy()
    fields.finish()

    if expect_stage is not None and stage != expect_stage:
        raise ArtifactError(f"{path}: stage {stage!r}, expected {expect_stage!r}")
    if expect_config_hash is not None and cfg_hash != expect_config_hash:
        raise ArtifactError(
            f"{path}: config hash {cfg_hash[:12]}... does not match the active "
            f"config {expect_config_hash[:12]}...")
    file_hash = body_hash.copy()
    file_hash.update(checksum)
    return {"stage": stage, "config_hash": cfg_hash, "metadata": metadata,
            "arrays": arrays, "checksum": checksum.hex(),
            "file_checksum": file_hash.hexdigest()}


def chunks_hash(chunks):
    """The SHA-256 state of the buffers ``chunks`` joined, without joining
    them: what a writer of those chunks returns as the file's checksum."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
