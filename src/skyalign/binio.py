"""Readers and writers for the package's three binary artifact formats.

All integers and floats are little-endian.  String ids are UTF-8 with a u16
byte-length prefix.  Vector payloads are float32.

  FEA1  feature file: magic, u32 count, u32 dim, then per record
        id, u8 kind (0 = sat, 1 = drone), dim float32 values,
        float32 azimuth (degrees), u8 masked flag.
  EMB1  embedding file: magic, u32 count, u32 dim, count*dim float32
        row-major, then one id per row.
  CKP1  checkpoint: magic, u32 version, u32 dims (m, h, e, head_rows),
        then the parameter matrices row-major float32 in declaration
        order (W1, b1, W2, b2, head_W, head_b), then float32 temperature.
"""

from __future__ import annotations

import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .errors import FormatError

FEA_MAGIC = b"FEA1"
EMB_MAGIC = b"EMB1"
CKP_MAGIC = b"CKP1"
CKP_VERSION = 1

KIND_SAT_CODE = 0
KIND_DRONE_CODE = 1


class Views(NamedTuple):
    """The FEA1 record fields as columns, one row per view.

    kinds are u8 codes (KIND_SAT_CODE / KIND_DRONE_CODE); vectors is an
    N x dim array; azimuths are degrees (stored even for masked rows so
    oracle tooling can recover them); masked is a boolean vector.
    """

    ids: list[str]
    kinds: np.ndarray
    vectors: np.ndarray
    azimuths: np.ndarray
    masked: np.ndarray


def _read_exact(fh, n: int, path, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated while reading {what}")
    return buf


def _check_room(fh, n: int, path, what: str) -> None:
    """Fail before allocating when the header asks for more bytes than are left."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"{path}: truncated: {what} needs {n} bytes, {left} remain")


def _read_id(fh, path) -> str:
    (length,) = struct.unpack("<H", _read_exact(fh, 2, path, "id length"))
    try:
        return _read_exact(fh, length, path, "id bytes").decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: id is not valid UTF-8") from None


def _write_id(fh, ident: str) -> None:
    raw = ident.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"id too long to encode ({len(raw)} bytes)")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)


def _check_magic(fh, magic: bytes, path) -> None:
    got = fh.read(4)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")


def write_features(path, ids, kinds, vectors, azimuths, masked) -> None:
    """Write a FEA1 file from the columns of a Views table."""
    vec = np.ascontiguousarray(vectors, dtype="<f4")
    n, dim = vec.shape
    if not (len(ids) == len(kinds) == len(azimuths) == len(masked) == n):
        raise ValueError("feature field lengths disagree")
    with open(path, "wb") as fh:
        fh.write(FEA_MAGIC)
        fh.write(struct.pack("<II", n, dim))
        for i in range(n):
            _write_id(fh, ids[i])
            fh.write(struct.pack("<B", int(kinds[i])))
            fh.write(vec[i].tobytes())
            fh.write(struct.pack("<f", float(azimuths[i])))
            fh.write(struct.pack("<B", 1 if masked[i] else 0))


def read_features(path):
    """Read a FEA1 file -> Views(ids, kinds u8, vectors f32, azimuths f32, masked bool)."""
    with open(path, "rb") as fh:
        _check_magic(fh, FEA_MAGIC, path)
        n, dim = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        # a record is at least an id length, a kind, the vector, an azimuth and a flag
        _check_room(fh, n * (8 + 4 * dim), path, f"{n} records of dim {dim}")
        ids = []
        kinds = np.empty(n, dtype=np.uint8)
        vectors = np.empty((n, dim), dtype=np.float32)
        azimuths = np.empty(n, dtype=np.float32)
        masked = np.empty(n, dtype=bool)
        row_bytes = 4 * dim
        for i in range(n):
            ids.append(_read_id(fh, path))
            (kind,) = struct.unpack("<B", _read_exact(fh, 1, path, "kind"))
            if kind not in (KIND_SAT_CODE, KIND_DRONE_CODE):
                raise FormatError(f"{path}: record {i}: bad kind code {kind}")
            kinds[i] = kind
            vectors[i] = np.frombuffer(
                _read_exact(fh, row_bytes, path, f"record {i} vector"), dtype="<f4"
            )
            (azimuths[i],) = struct.unpack("<f", _read_exact(fh, 4, path, "azimuth"))
            (mk,) = struct.unpack("<B", _read_exact(fh, 1, path, "masked flag"))
            masked[i] = bool(mk)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {n} records")
    for what, finite in (("vector", np.isfinite(vectors).all(axis=1)),
                         ("azimuth", np.isfinite(azimuths))):
        if not finite.all():
            raise FormatError(f"{path}: record {int(np.argmin(finite))}: {what} is not finite")
    return Views(ids, kinds, vectors, azimuths, masked)


def write_embeddings(path, ids, matrix) -> None:
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    n, dim = mat.shape
    if len(ids) != n:
        raise ValueError("id count does not match row count")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", n, dim))
        fh.write(mat.tobytes())
        for ident in ids:
            _write_id(fh, ident)


def read_embeddings(path):
    """Read an EMB1 file -> (ids, float32 matrix)."""
    with open(path, "rb") as fh:
        _check_magic(fh, EMB_MAGIC, path)
        n, dim = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        _check_room(fh, n * (4 * dim + 2), path, f"{n} rows of dim {dim} and their ids")
        raw = _read_exact(fh, 4 * n * dim, path, "matrix")
        matrix = np.frombuffer(raw, dtype="<f4").reshape(n, dim).copy()
        ids = [_read_id(fh, path) for _ in range(n)]
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after id block")
    return ids, matrix


def write_checkpoint(path, dims, arrays, tau: float) -> None:
    """Write a CKP1 file: dims = (m, h, e, head_rows), arrays in declaration order."""
    with open(path, "wb") as fh:
        fh.write(CKP_MAGIC)
        fh.write(struct.pack("<I", CKP_VERSION))
        fh.write(struct.pack("<IIII", *dims))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        fh.write(struct.pack("<f", float(tau)))


def read_checkpoint(path, shapes_of):
    """Read a CKP1 file -> (dims, list of arrays, tau).

    shapes_of maps the dims tuple to the list of array shapes expected, in
    declaration order; it lives with the model so this reader stays format-only.
    """
    with open(path, "rb") as fh:
        _check_magic(fh, CKP_MAGIC, path)
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != CKP_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        dims = struct.unpack("<IIII", _read_exact(fh, 16, path, "dims"))
        shapes = shapes_of(dims)
        _check_room(fh, 4 * (sum(map(math.prod, shapes)) + 1), path, f"dims {dims}")
        arrays = []
        for shape in shapes:
            count = math.prod(shape)
            raw = _read_exact(fh, 4 * count, path, f"array {shape}")
            arrays.append(np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
        (tau,) = struct.unpack("<f", _read_exact(fh, 4, path, "temperature"))
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after temperature")
    for i, arr in enumerate(arrays):
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: array {i} {arr.shape} is not finite")
    if not math.isfinite(tau):
        raise FormatError(f"{path}: temperature is not finite")
    return dims, arrays, tau
