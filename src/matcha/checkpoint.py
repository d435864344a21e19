"""Binary parameter container: magic, version, JSON manifest, named float32 tensors.

Layout, all little-endian:
  "MTCH" | u32 version | u64 manifest length | manifest JSON (UTF-8)
  then per tensor: u32 name length | name | u32 rank | rank x u64 dims |
  row-major float32 data.
The same container carries pre-trained embedding imports and training
checkpoints.  The manifest is padded with trailing spaces (valid JSON) so
that the embedding's data starts on a multiple of ALIGN bytes.  Both
directions check each BLOCK of float32 entries (1 MiB) for NaN and inf
while in cache: a save converts them in one reusable buffer, a load views
a read-only map of each tensor's pages.  The embedding stays that float32
view (copied once from an older file that leaves it unaligned); the other
tensors become float64 and drop their maps.  Writes are atomic, a new file
then a rename, so no save changes a mapped file; the temp file is removed
on any error, NumericError included.  A file another program rewrites in
place while loaded is not supported, as with numpy.load(mmap_mode="r").
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct

import numpy as np

from .errors import (CheckpointFormatError, CheckpointIntegrityError, NumericError, ShapeError, is_number,
                     open_atomic, parse_json)
from .model import TENSOR_NAMES, Hyper, ModelParams

MAGIC = b"MTCH"
VERSION = 1
MAX_RANK = 64  # the most dimensions a NumPy array can have
BLOCK = 1 << 18  # float32 entries per streamed block: a 1 MiB buffer
ALIGN = 64  # the embedding's data starts on a multiple of this many bytes, so a load can view it in place


def _all_finite(values: np.ndarray) -> bool:
    return math.isfinite(values.min()) and math.isfinite(values.max())  # NaN propagates; no mask is built


def _manifest_bytes(params: ModelParams) -> bytes:
    manifest = {
        "D": params.hyper.dim,
        "N_c": params.hyper.n_ctx,
        "vocab_size": params.vocab_size,
        "max_len": params.hyper.max_len,
        "margin": params.hyper.margin,
    }
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # The magic, version and length (16 bytes), then the embedding's header: u32 name length, name, u32 rank, 2 dims.
    data_at = 16 + len(text) + 4 + len(TENSOR_NAMES[0]) + 4 + 2 * 8
    return text + b" " * (-data_at % ALIGN)


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Serialize all tensors as float32, atomically; a value beyond float32's range raises NumericError."""
    params.validate()
    manifest = _manifest_bytes(params)
    with open_atomic(path, "wb") as fh, np.errstate(over="ignore"):
        fh.write(MAGIC + struct.pack("<IQ", VERSION, len(manifest)) + manifest)
        buf = np.empty(BLOCK, dtype="<f4")
        for name in TENSOR_NAMES:
            tensor = getattr(params, name)
            encoded, rank, flat = name.encode("utf-8"), tensor.ndim, tensor.reshape(-1)
            fh.write(struct.pack(f"<I{len(encoded)}sI{rank}Q", len(encoded), encoded, rank, *tensor.shape))
            for start in range(0, flat.size, BLOCK):
                block = buf[: min(BLOCK, flat.size - start)]
                np.copyto(block, flat[start : start + BLOCK], casting="unsafe")
                if not _all_finite(block):
                    raise NumericError(f"{path}: tensor {name!r} has entries that are not finite as float32")
                fh.write(block)


class _Reader:
    """Reads an open container front to back; a read past its size, or a short read, is truncation."""

    def __init__(self, fh, path: str) -> None:
        self.fh, self.path, self.offset = fh, path, 0
        self.size = os.fstat(fh.fileno()).st_size

    def _truncated(self, count: int) -> CheckpointFormatError:
        return CheckpointFormatError(f"{self.path}: truncated at byte {self.offset} (needed {count} more)")

    def take(self, count: int) -> bytes:
        # Bounded by the file size before anything is read.
        chunk = self.fh.read(count) if count <= self.remaining() else b""
        if len(chunk) < count:
            raise self._truncated(count)
        self.offset += count
        return chunk

    def floats(self, count: int, name: str) -> np.ndarray:
        """The next `count` float32 values of tensor `name`: a read-only view of a map of just their pages, checked
        block by block.  The view keeps the map alive, and the map its own duplicate of the file descriptor."""
        if not count:  # mmap reads a length of 0 as the whole file
            return np.empty(0, dtype="<f4")
        at = self.offset
        base = at - at % mmap.ALLOCATIONGRANULARITY
        try:
            mapped = mmap.mmap(self.fh.fileno(), at - base + 4 * count, offset=base, access=mmap.ACCESS_READ)
        except ValueError:  # the file is shorter than its size said when it was opened
            raise self._truncated(4 * count) from None
        self.offset += 4 * count
        self.fh.seek(self.offset)
        values = np.frombuffer(mapped, dtype="<f4", count=count, offset=at - base)
        for start in range(0, count, BLOCK):
            block = values[start : start + BLOCK]
            if not _all_finite(block):
                at += 4 * (start + int(np.isfinite(block).argmin()))
                raise CheckpointIntegrityError(f"{self.path}: tensor {name!r} has a non-finite float32 at byte {at}")
        return values

    def remaining(self) -> int:
        return self.size - self.offset

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def _check_manifest(manifest: object, path: str) -> None:
    """The manifest is an object with int sizes (no bools) and a finite numeric margin."""
    if not isinstance(manifest, dict):
        raise CheckpointIntegrityError(f"{path}: manifest is {type(manifest).__name__}, not a JSON object")
    for key in ("D", "N_c", "vocab_size", "max_len", "margin"):
        if key not in manifest:
            raise CheckpointIntegrityError(f"{path}: manifest missing {key!r}")
        value = manifest[key]
        if not (is_number(value) if key == "margin" else type(value) is int):  # a bool is no size
            kind = "a finite number" if key == "margin" else "an integer"
            raise CheckpointIntegrityError(f"{path}: manifest {key!r} is {value!r}, not {kind}")


def load_checkpoint(path: str) -> ModelParams:
    """Read and validate a container into frozen params: read-only tensors, a float32 embedding, float64 others."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        if reader.take(4) != MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic bytes")
        version = reader.u32()
        if version != VERSION:
            raise CheckpointFormatError(f"{path}: unsupported container version {version}")
        manifest_len = reader.u64()
        try:
            text = str(reader.take(manifest_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{path}: unreadable manifest ({exc})") from exc
        manifest = parse_json(text, CheckpointFormatError, f"{path}: manifest")
        _check_manifest(manifest, path)
        hyper = Hyper(manifest["D"], manifest["N_c"], manifest["max_len"], float(manifest["margin"]))
        try:
            hyper.validate()
        except ShapeError as exc:
            raise CheckpointIntegrityError(f"{path}: manifest out of range: {exc}") from exc
        shapes = hyper.shapes(manifest["vocab_size"])

        tensors: dict[str, np.ndarray] = {}
        while reader.remaining():
            start = reader.offset
            try:
                name = str(reader.take(reader.u32()), "utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(f"{path}: tensor name at byte {start} is not UTF-8 ({exc})") from exc
            if name in tensors:
                raise CheckpointIntegrityError(f"{path}: duplicate tensor {name!r}")
            if name not in shapes:
                raise CheckpointIntegrityError(f"{path}: unexpected tensors {[name]}")
            # Rank and dims are bounded by the bytes left, then dims checked against the manifest, before any read.
            rank_at = reader.offset
            rank = reader.u32()
            if rank > MAX_RANK or 8 * rank > reader.remaining():
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r} at byte {rank_at} has rank {rank}, "
                    f"above {MAX_RANK} or more dims than the {reader.remaining()} bytes left hold"
                )
            dims = tuple(reader.u64() for _ in range(rank))
            nbytes = 4 * math.prod(dims)
            if nbytes > reader.remaining():
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r} at byte {rank_at} has dims {dims} ({nbytes} bytes), "
                    f"but only {reader.remaining()} bytes remain"
                )
            if dims != shapes[name]:
                raise CheckpointIntegrityError(
                    f"{path}: tensor {name!r} has shape {dims}, manifest implies {shapes[name]}")
            raw = reader.floats(nbytes // 4, name)
            # Every gather upcasts its embedding rows; the other tensors are read whole, so their maps are dropped.
            # An older file's unpadded manifest can leave the table unaligned: that view is copied once.
            flat = raw.astype(np.float64) if name != "embedding" else raw if raw.flags.aligned else raw.copy()
            # Frozen before the reshape, so the view can never be made writeable again.
            flat.flags.writeable = False
            tensors[name] = flat.reshape(dims)
    missing = [n for n in TENSOR_NAMES if n not in tensors]
    if missing:
        raise CheckpointIntegrityError(f"{path}: missing tensors {missing}")
    return ModelParams(**tensors, hyper=hyper)
