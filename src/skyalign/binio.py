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

FEA1 and EMB1 are read and written a table at a time: the body is read or
written in one call, Python walks only the u16 id prefixes (each gives the
next record's offset), and the fixed-width rest of the FEA1 records moves
in one masked array copy.  A reader raises the FormatError that reading one
record at a time would raise first.  Every reader checks header sizes
against the file before it allocates, and rejects trailing bytes and
non-finite feature and checkpoint values; an EMB1 dim must be at least 1.
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


def _check_room(fh, n: int, path, what: str) -> int:
    """Fail before allocating when the header asks for more bytes than are
    left; otherwise return the bytes left."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"{path}: truncated: {what} needs {n} bytes, {left} remain")
    return left


def _id_records(ids) -> list[bytes]:
    """Each id as its u16 byte length followed by its UTF-8 bytes."""
    out = []
    for ident in ids:
        raw = ident.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"id too long to encode ({len(raw)} bytes)")
        out.append(struct.pack("<H", len(raw)) + raw)
    return out


def _split_ids(buf: bytes, n: int, width: int, path):
    """Walk n records of (u16 length, UTF-8 id, width more bytes) from the
    start of buf -> (the ids, the offset just past each id, None), or, at the
    first id that is cut short or not UTF-8, the ids and offsets before it
    and the FormatError it raises.  A record cut short after its id is left
    for the caller to see in the last offset."""
    ids, ends, p = [], [], 0
    for _ in range(n):
        if p + 2 > len(buf):
            return ids, ends, FormatError(f"{path}: truncated while reading id length")
        q = p + 2 + struct.unpack_from("<H", buf, p)[0]
        if q > len(buf):
            return ids, ends, FormatError(f"{path}: truncated while reading id bytes")
        try:
            ids.append(buf[p + 2:q].decode("utf-8"))
        except UnicodeDecodeError:
            return ids, ends, FormatError(f"{path}: id is not valid UTF-8")
        ends.append(q)
        p = q + width
    return ids, ends, None


def _tail_mask(starts: np.ndarray, width: int) -> np.ndarray:
    """Boolean mask over the bytes up to the last run's end, True on the
    width bytes from each of the ascending starts."""
    runs = np.empty(2 * len(starts), dtype=np.intp)
    runs[0::2] = np.diff(starts, prepend=-width) - width  # the id records between
    runs[1::2] = width
    return np.repeat(np.tile([False, True], len(starts)), runs)


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
    heads = _id_records(ids)
    width = 4 * dim + 6  # the record after its id: kind, vector, azimuth, masked flag
    tails = np.empty((n, width), dtype=np.uint8)
    tails[:, 0] = kinds
    tails[:, 1:width - 5] = vec.view(np.uint8)
    tails[:, width - 5:width - 1] = np.asarray(azimuths, dtype="<f4").reshape(n, 1).view(np.uint8)
    tails[:, -1] = np.asarray(masked, dtype=bool)
    starts = np.cumsum([len(h) for h in heads], dtype=np.intp) + width * np.arange(n)
    tail = _tail_mask(starts, width)
    body = np.empty(tail.size, dtype=np.uint8)
    body[tail] = tails.ravel()
    body[np.logical_not(tail, out=tail)] = np.frombuffer(b"".join(heads), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(FEA_MAGIC + struct.pack("<II", n, dim))
        fh.write(body)


def read_features(path):
    """Read a FEA1 file -> Views(ids, kinds u8, vectors f32, azimuths f32, masked bool).

    Errors come in the order of a record-by-record read: the first record
    that is cut short, has a bad id or has a bad kind code is the one named.
    """
    with open(path, "rb") as fh:
        _check_magic(fh, FEA_MAGIC, path)
        n, dim = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        # a record is at least an id length, a kind, the vector, an azimuth and a flag
        left = _check_room(fh, n * (8 + 4 * dim), path, f"{n} records of dim {dim}")
        width = 4 * dim + 6  # the record after its id: kind, vector, azimuth, masked flag
        body = fh.read(min(left, n * (2 + 0xFFFF + width) + 1))  # 1 byte past the longest records
    ids, ends, error = _split_ids(body, n, width, path)
    starts = np.array(ends, dtype=np.intp)
    codes = np.frombuffer(body, dtype=np.uint8)[starts[starts < len(body)]]
    bad = np.flatnonzero(~np.isin(codes, (KIND_SAT_CODE, KIND_DRONE_CODE)))
    if bad.size:
        raise FormatError(f"{path}: record {bad[0]}: bad kind code {codes[bad[0]]}")
    short = len(body) - starts[-1] if len(starts) else width
    if short < width:  # the last record read is cut short after its id
        what = ("kind" if short < 1 else f"record {len(starts) - 1} vector"
                if short < 1 + 4 * dim else "azimuth" if short < 5 + 4 * dim else "masked flag")
        raise FormatError(f"{path}: truncated while reading {what}")
    if error is not None:
        raise error
    end = starts[-1] + width if n else 0
    if len(body) > end:
        raise FormatError(f"{path}: trailing bytes after {n} records")
    rec = np.frombuffer(body, dtype=np.uint8, count=end)[_tail_mask(starts, width)]
    rec = rec.reshape(n, width)
    vectors = rec[:, 1:width - 5].copy().view("<f4")
    azimuths = rec[:, width - 5:width - 1].copy().view("<f4").ravel()
    for what, finite in (("vector", np.isfinite(vectors).all(axis=1)),
                         ("azimuth", np.isfinite(azimuths))):
        if not finite.all():
            raise FormatError(f"{path}: record {int(np.argmin(finite))}: {what} is not finite")
    return Views(ids, rec[:, 0].copy(), vectors, azimuths, rec[:, -1] != 0)


def write_embeddings(path, ids, matrix) -> None:
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    n, dim = mat.shape
    if len(ids) != n:
        raise ValueError("id count does not match row count")
    if dim < 1:
        raise ValueError(f"embedding dim {dim} must be >= 1")
    heads = b"".join(_id_records(ids))
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC + struct.pack("<II", n, dim))
        fh.write(mat)
        fh.write(heads)


def read_embeddings(path):
    """Read an EMB1 file -> (ids, float32 matrix)."""
    with open(path, "rb") as fh:
        _check_magic(fh, EMB_MAGIC, path)
        n, dim = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if dim < 1:
            raise FormatError(f"{path}: embedding dim {dim} must be >= 1")
        left = _check_room(fh, n * (4 * dim + 2), path, f"{n} rows of dim {dim} and their ids")
        matrix = np.empty((n, dim), dtype="<f4")
        if fh.readinto(matrix) != matrix.nbytes:
            raise FormatError(f"{path}: truncated while reading matrix")
        block = fh.read(min(left - matrix.nbytes, n * (2 + 0xFFFF) + 1))  # 1 byte past the longest ids
    ids, ends, error = _split_ids(block, n, 0, path)
    if error is not None:
        raise error
    if len(block) > (ends[-1] if n else 0):
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
