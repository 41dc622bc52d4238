"""Fuzzing the binary readers: any byte string either parses or raises
FormatError, never another exception and never a read sized by an
unchecked header."""

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from skyalign import binio  # noqa: E402
from skyalign.errors import FormatError  # noqa: E402
from skyalign.model import _checkpoint_shapes  # noqa: E402

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


def parses_or_format_error(reader, path):
    try:
        reader(path)
    except FormatError:
        pass


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.binary(max_size=64), magic=st.sampled_from(sorted(READERS)))
def test_arbitrary_bytes(tmp_path, data, magic):
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    parses_or_format_error(READERS[magic], path)


@FUZZ
@given(case=headed_files())
def test_valid_magic_random_header(tmp_path, case):
    magic, data = case
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    parses_or_format_error(READERS[magic], path)
