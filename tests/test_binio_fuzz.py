"""Fuzzing the binary readers: any byte string either parses or raises
FormatError, never another exception and never a read sized by an
unchecked header.  The FEA1 and EMB1 readers must also agree with the
record-by-record references in oracles.py on every drawn file: the same
result, or the same error message.  The one intended difference is an EMB1
header of dim 0, which only the package rejects."""

import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from skyalign import binio  # noqa: E402
from skyalign.model import _checkpoint_shapes  # noqa: E402

from oracles import (  # noqa: E402
    read_outcome,
    record_read_embeddings,
    record_read_features,
    record_write_embeddings,
    record_write_features,
    same_read,
)

READERS = {
    binio.FEA_MAGIC: binio.read_features,
    binio.EMB_MAGIC: binio.read_embeddings,
    binio.CKP_MAGIC: lambda path: binio.read_checkpoint(path, _checkpoint_shapes),
}

u32 = st.one_of(st.integers(0, 8), st.sampled_from([2**31, 2**32 - 1]),
                st.integers(0, 2**32 - 1))


@st.composite
def headed_files(draw):
    """Valid magic, then a header of random u32s, then a random body."""
    magic = draw(st.sampled_from(sorted(READERS)))
    if magic == binio.CKP_MAGIC:
        version = draw(st.one_of(st.just(binio.CKP_VERSION), st.integers(0, 2**32 - 1)))
        header = struct.pack("<IIIII", version, *(draw(u32) for _ in range(4)))
    else:
        header = struct.pack("<II", draw(u32), draw(u32))
    return magic, magic + header + draw(st.binary(max_size=96))


REFERENCES = {
    binio.FEA_MAGIC: record_read_features,
    binio.EMB_MAGIC: record_read_embeddings,
}


def parses_or_format_error(magic, path):
    got = read_outcome(READERS[magic], path)
    if magic not in REFERENCES:
        return
    want = read_outcome(REFERENCES[magic], path)
    data = path.read_bytes()
    if data[:4] == binio.EMB_MAGIC and data[8:12] == bytes(4):
        assert got == f"FormatError: {path}: embedding dim 0 must be >= 1"
    else:
        assert same_read(got, want), (got, want)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.binary(max_size=64), magic=st.sampled_from(sorted(READERS)))
def test_arbitrary_bytes(tmp_path, data, magic):
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    parses_or_format_error(magic, path)


@FUZZ
@given(case=headed_files())
def test_valid_magic_random_header(tmp_path, case):
    magic, data = case
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    parses_or_format_error(magic, path)


@st.composite
def mutated_files(draw):
    """A FEA1 or EMB1 file written by the package, equal to the reference
    writer's bytes, then cut short, overwritten at one byte or extended."""
    n = draw(st.integers(0, 4))
    dim = draw(st.integers(0 if draw(st.booleans()) else 1, 3))
    ids = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))
    floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
    vectors = np.array(draw(st.lists(floats, min_size=n * dim, max_size=n * dim)),
                       dtype=np.float32).reshape(n, dim)
    if draw(st.booleans()):
        magic = binio.FEA_MAGIC
        cols = (ids, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), vectors,
                draw(st.lists(floats, min_size=n, max_size=n)),
                draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        writers = (binio.write_features, record_write_features)
    else:
        magic, cols = binio.EMB_MAGIC, (ids, vectors)
        writers = (binio.write_embeddings, record_write_embeddings)
    return magic, writers, cols, draw(st.integers(0, 2)), draw(st.integers(0, 2**16)), \
        draw(st.binary(min_size=1, max_size=4))


@FUZZ
@given(case=mutated_files())
def test_mutated_valid_files(tmp_path, case):
    magic, (write, write_ref), cols, how, where, extra = case
    path, ref = tmp_path / "blob.bin", tmp_path / "ref.bin"
    write(path, *cols)
    write_ref(ref, *cols)
    data = path.read_bytes()
    assert data == ref.read_bytes()
    where %= len(data) + 1
    if how == 0:
        data = data[:where]
    elif how == 1 and where < len(data):
        data = data[:where] + extra[:1] + data[where + 1:]
    else:
        data += extra
    path.write_bytes(data)
    parses_or_format_error(magic, path)
